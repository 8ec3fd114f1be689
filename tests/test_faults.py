"""The program's own oracles reject a wrong program.

Each fault is injected into in-process `gldof` CLI calls on the README
problem, and the check that guards against it must fail: `validate fd`,
`validate mc`, or the identity design's closed form.  With no fault the
same checks pass, so a failure is the fault's doing.
"""

import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg

from gldof import cli, solver, validate
from gldof.cli import main
from gldof.core import BlockPartition
from gldof.datagen import load_problem
from gldof.dof import dof_estimate, dof_identity_closed_form, fd_step

# the README problem: `gldof gen` with these flags and --lambda 0.4
SCENARIO = ["--q", "20", "--block-sizes", "2,2,2,2,2", "--k-active", "2", "--sigma", "0.5",
            "--seed", "42"]
# the identity design's closed form must hold to this (acceptance criterion 3)
IDENTITY_TOL = 1e-10


def shifted_cholesky(monkeypatch):
    """Every system matrix A is factored as A + 1e-3 diag(A): the finish, the
    probes and the differential all share the fault."""
    cholesky = solver._cholesky
    monkeypatch.setattr(solver, "_cholesky",
                        lambda a: cholesky(a + 1e-3 * np.diag(np.diag(a))))


def system_matrix(sol):
    """The matrix A that a Solution's factor L factors, as L L'."""
    low = np.tril(sol.factor[0])
    return low @ low.T


def base_factor_shifted(monkeypatch):
    """Only the base solution of `validate fd` is given the factor of
    A + 1e-3 diag(A); the differential, the DOF trace and the probes' chord
    steps all read it."""
    solve = cli.solve

    def shifted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        a = system_matrix(sol)
        return dataclasses.replace(sol, factor=solver._cholesky(a + 1e-3 * np.diag(np.diag(a))))

    monkeypatch.setattr(cli, "solve", shifted)


def short_trace(monkeypatch):
    """The inverse factor W = L^-1 of the DOF trace (its only `dtrtri`) loses
    its last row: the projector sum tr(W deltaP W') covers m - 1 of the m
    active coordinates."""
    dtrtri = scipy.linalg.lapack.dtrtri

    def inverse(*args, **kwargs):
        w, info = dtrtri(*args, **kwargs)
        w[-1] = 0.0
        return w, info

    monkeypatch.setattr(scipy.linalg.lapack, "dtrtri", inverse)


def divergence_plus_one(monkeypatch):
    """Every DOF report that `mc_dof` reads is one too large."""
    dof_batch = validate.dof_batch

    def batch(*args, **kwargs):
        for sol, report in dof_batch(*args, **kwargs):
            yield sol, report and dataclasses.replace(report, divergence=report.divergence + 1.0)

    monkeypatch.setattr(validate, "dof_batch", batch)


def smallest_block_dropped(monkeypatch):
    """The solver's support rule drops each column's active block of smallest
    norm: the finish, the margins and the DOF report all take the support
    without it."""
    mask = solver.support_mask

    def dropping(partition, values):
        on = mask(partition, values)
        cols = np.flatnonzero(on.any(axis=0))
        norms = np.where(on, partition.block_norms(values), np.inf)
        on[np.argmin(norms, axis=0)[cols], cols] = False
        return on

    monkeypatch.setattr(solver, "support_mask", dropping)


@pytest.fixture(scope="module")
def problem_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("faults") / "prob.json"
    assert main(["gen", *SCENARIO, "--lambda", "0.4", "--out", str(path),
                 "--no-timestamp"]) == 0
    return path


@pytest.mark.parametrize("fault", [None, shifted_cholesky, short_trace])
def test_validate_fd_rejects_a_wrong_differential(problem_file, tmp_path, monkeypatch, fault):
    if fault:
        fault(monkeypatch)
    out = tmp_path / "fd.json"
    code = main(["validate", "fd", "--problem", str(problem_file), "--out", str(out),
                 "--no-timestamp"])
    d = json.loads(out.read_text())
    if fault is None:
        assert code == 0 and d["passed"] and d["jacobian_worst_tol_ratio"] < 1e-3
    else:
        assert code == 4 and not d["passed"]
    if fault is shifted_cholesky:
        # the probes are certified by the KKT check, not by the factor, so
        # the finite differences stay right while the differential does not
        assert d["jacobian_worst_tol_ratio"] > 10.0
    if fault is short_trace:
        # the Jacobian is the differential's, untouched; the divergence fails
        # its gate (by lambda (W deltaP W')_mm, 3.6e-3 against 2.7e-4 here)
        assert d["jacobian_worst_tol_ratio"] < 1e-3
        assert d["divergence_abs_err"] > cli.FD_REL_TOL * abs(d["fd_divergence"])


@pytest.mark.parametrize("fault", [None, smallest_block_dropped])
def test_validate_fd_rejects_a_support_missing_a_block(problem_file, tmp_path, monkeypatch,
                                                       fault):
    if fault:
        fault(monkeypatch)
    # the KKT certificate does not see the fault: the Newton point on the
    # short support fails it, and the FISTA point kept, which still holds
    # the dropped block, certifies
    sol = solver.solve(load_problem(str(problem_file)).problem(0.4))
    assert sol.kkt_residual <= solver.SolverOptions().kkt_tol
    assert sol.support.n_active == (2 if fault is None else 1)
    out = tmp_path / "dof.json"
    assert main(["dof", "--problem", str(problem_file), "--out", str(out),
                 "--no-timestamp"]) == 0
    d = json.loads(out.read_text())
    code = main(["validate", "fd", "--problem", str(problem_file), "--out",
                 str(tmp_path / "fd.json"), "--no-timestamp"])
    if fault is None:
        assert code == cli.EXIT_OK and d["active_blocks"] == [0, 2] and not d["warning"]
    else:
        # the dropped block's slack lambda - ||X_b'r|| is round-off (its norm
        # is nonzero), so the certified radius is too: the report warns, and
        # `validate fd` finds y on a support boundary
        assert code == cli.EXIT_NUMERICAL and d["active_blocks"] == [2] and d["warning"]
        assert d["divergence"] == pytest.approx(1.6245, abs=1e-4)


@pytest.mark.parametrize("fault", [None, short_trace])
def test_identity_closed_form_rejects_a_short_trace(tmp_path, monkeypatch, fault):
    y = np.array([3.0, 4.0, 0.5, 2.0])
    xp, yp, out = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "dof.json"
    np.savetxt(xp, np.eye(4), delimiter=",")
    np.savetxt(yp, y, delimiter=",")
    if fault:
        fault(monkeypatch)
    assert main(["dof", "--x-csv", str(xp), "--y-csv", str(yp), "--partition",
                 "[[0, 1], [2, 3]]", "--lambda", "1", "--out", str(out),
                 "--no-timestamp"]) == 0
    closed = dof_identity_closed_form(y, 1.0, BlockPartition.from_sizes([2, 2]))
    err = abs(json.loads(out.read_text())["divergence"] - closed)
    assert (err <= IDENTITY_TOL) is (fault is None)


@pytest.mark.parametrize("fault", [None, divergence_plus_one])
def test_validate_mc_rejects_a_biased_divergence(tmp_path, monkeypatch, fault):
    if fault:
        fault(monkeypatch)
    out = tmp_path / "mc.json"
    code = main(["validate", "mc", *SCENARIO, "--lambda", "0.4", "--replicates", "1000",
                 "--out", str(out), "--no-timestamp"])
    d = json.loads(out.read_text())
    assert code == (0 if fault is None else 4)
    assert d["consistent_3sigma"] is (fault is None)
    # a bias of 1 is several combined standard errors at 1000 replicates
    assert d["combined_stderr"] < 0.2


@pytest.mark.parametrize("fault", [None, base_factor_shifted])
def test_validate_fd_rejects_a_wrong_base_factor(problem_file, tmp_path, monkeypatch, fault):
    if fault:
        fault(monkeypatch)
    out = tmp_path / "fd.json"
    code = main(["validate", "fd", "--problem", str(problem_file), "--out", str(out),
                 "--no-timestamp"])
    d = json.loads(out.read_text())
    if fault is None:
        assert code == 0 and d["passed"] and d["jacobian_worst_tol_ratio"] < 1e-3
    else:
        # the probes step on the faulted factor too, but they are kept only
        # at the stationarity stop and with a KKT certificate, so the finite
        # differences stay right while the differential does not
        assert code == 4 and not d["passed"] and d["jacobian_worst_tol_ratio"] > 10.0


@pytest.mark.parametrize("wrong", [False, True])
def test_probes_do_not_rest_on_the_base_factor(problem_file, wrong):
    problem = load_problem(str(problem_file)).problem(0.4)
    opts = solver.SolverOptions(kkt_tol=validate.ORACLE_KKT_TOL)
    base = solver.solve(problem, opts)
    h = min(fd_step(problem), 0.5 * dof_estimate(problem, base).radius)
    q, support = problem.design.Q, base.support
    if wrong:
        # the factor of an SPD matrix of the right size and nothing else
        m = support.active_dim
        g = np.random.default_rng(0).standard_normal((m, m))
        base = dataclasses.replace(base, factor=solver._cholesky(g @ g.T + np.eye(m)))
    ref = np.empty((support.active_dim, q))
    for i in range(q):
        step = h * np.eye(q)[i]
        plus, minus = (solver.solve(problem.with_y(problem.y + s * step), opts).beta
                       for s in (1.0, -1.0))
        ref[:, i] = (support.restrict(plus) - support.restrict(minus)) / (2.0 * h)
    # the tolerance of test_validate's test_matches_per_probe_solves
    jac = validate.fd_oracle(problem, h, base=base)[0]
    assert np.max(np.abs(jac - ref)) <= 1e-9 * np.max(np.abs(ref))
