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

from gldof import dof, solver, validate
from gldof.cli import main
from gldof.core import BlockPartition
from gldof.dof import dof_identity_closed_form

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


def short_trace(monkeypatch):
    """The DOF's trace solve, A^-1 X_I'X_I (its only square right-hand side
    on these problems), loses its last diagonal entry: the trace covers m - 1
    of the m active coordinates."""
    factor_solve = dof.factor_solve

    def solve(factor, rhs):
        out = factor_solve(factor, rhs)
        if rhs.shape[0] == rhs.shape[1]:
            out[-1, -1] = 0.0
        return out

    monkeypatch.setattr(dof, "factor_solve", solve)


def divergence_plus_one(monkeypatch):
    """Every DOF report that `mc_dof` reads is one too large."""
    dof_estimate = validate.dof_estimate

    def estimate(problem, solution):
        report = dof_estimate(problem, solution)
        return dataclasses.replace(report, divergence=report.divergence + 1.0)

    monkeypatch.setattr(validate, "dof_estimate", estimate)


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
        # the Jacobian is the differential's, untouched; the divergence is not
        assert d["jacobian_worst_tol_ratio"] < 1e-3 and d["divergence_abs_err"] > 0.1


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
