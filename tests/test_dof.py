import dataclasses
import json
import pathlib

import numpy as np
import pytest
import scipy.linalg

from helpers import (block_soft_threshold, random_problem, reference_divergence,
                     reference_margins, transition_instance)

from gldof import solver
from gldof.core import BlockPartition, Design
from gldof.datagen import ScenarioSpec, generate, load_problem
from gldof.dof import (
    differential,
    dof_batch,
    dof_estimate,
    dof_identity_closed_form,
    fd_step,
)
from gldof.risk import default_lambda_grid
from gldof.solver import (
    ConvergenceError,
    Problem,
    SolverOptions,
    lambda_max,
    solve,
    solve_batch,
)
from gldof.validate import TransitionCrossingError, fd_oracle

TIGHT = SolverOptions(kkt_tol=1e-12)


def margins(problem, sol):
    """The report's (transition_margin, support_margin, warning)."""
    report = dof_estimate(problem, sol)
    return report.transition_margin, report.support_margin, report.warning


def identity_problem(y, lam, sizes):
    y = np.asarray(y, dtype=float)
    return Problem(Design.identity(y.size), y, lam, BlockPartition.from_sizes(sizes))


class TestDifferential:
    def test_identity_design_matches_prox_jacobian(self):
        # single active block: the differential of block soft thresholding
        y = np.array([3.0, 4.0, 0.5, 0.5])
        problem = identity_problem(y, 1.0, [2, 2])
        sol = solve(problem, TIGHT)
        d = differential(problem, sol)
        assert d.shape == (2, 4)

        u = y[:2] / 5.0
        proj = np.eye(2) - np.outer(u, u)
        closed = np.eye(2) - (1.0 / 5.0) * proj
        assert np.allclose(d[:, :2], closed, atol=1e-10)
        assert np.allclose(d[:, 2:], 0.0, atol=1e-12)

        # independent oracle: central differences of the prox map itself
        h = 1e-6
        num = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            num[:, j] = (block_soft_threshold(y[:2] + e, 1.0)
                         - block_soft_threshold(y[:2] - e, 1.0)) / (2 * h)
        assert np.allclose(d[:, :2], num, atol=1e-8)

    def test_size_one_blocks_reduce_to_least_squares_on_support(self):
        problem = random_problem(4, 14, 5, [1, 1, 1, 1, 1], lam_frac=0.4)
        sol = solve(problem, TIGHT)
        assert not sol.support.is_empty
        d = differential(problem, sol)
        xi = problem.design.columns(sol.support.indices)
        expected = scipy.linalg.solve(xi.T @ xi, xi.T, assume_a="pos")
        assert np.allclose(d, expected, atol=1e-10)
        # oracle: finite differences of the solution map itself
        assert np.allclose(d, fd_oracle(problem)[0], atol=1e-6)

    def test_small_lambda_limit_is_least_squares_differential(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((15, 6)) / np.sqrt(15)
        y = rng.standard_normal(15)
        design = Design(x)
        partition = BlockPartition.from_sizes([2, 2, 2])
        lam = 1e-8 * lambda_max(design, y, partition)
        problem = Problem(design, y, lam, partition)
        sol = solve(problem, TIGHT)
        assert sol.support.active_dim == 6  # full support at vanishing lambda
        d = differential(problem, sol)
        ls = scipy.linalg.solve(design.gram, x.T, assume_a="pos")
        assert np.allclose(d, ls, atol=1e-7)

    def test_empty_support_rejected(self):
        problem = random_problem(1, 10, 4, [2, 2])
        lmax = lambda_max(problem.design, problem.y, problem.partition)
        big = dataclasses.replace(problem, lam=2 * lmax)
        sol = solve(big, TIGHT)
        with pytest.raises(ValueError):
            differential(big, sol)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fd_jacobian_on_generic_instances(self, seed):
        problem = random_problem(seed, 18, 8, [2, 2, 2, 2], lam_frac=0.35)
        sol = solve(problem, TIGHT)
        if dof_estimate(problem, sol).warning or sol.support.is_empty:
            pytest.skip("degenerate draw")
        d = differential(problem, sol)
        fd = fd_oracle(problem)[0]
        denom = np.maximum(np.abs(fd), 1e-8 / 1e-4)
        assert np.max(np.abs(d - fd) / denom) < 1e-4


class TestSpdSystem:
    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_system_matrix_eigenvalues_bounded_below(self, seed):
        problem = random_problem(seed, 16, 6, [2, 2, 2], lam_frac=0.3)
        sol = solve(problem, TIGHT)
        if sol.support.is_empty:
            pytest.skip("empty support draw")
        # the system matrix X_I'X_I + lambda * deltaP, rebuilt as L L'
        low = np.tril(sol.factor[0])
        a = low @ low.T
        idx = sol.support.indices
        gram_ii = problem.design.gram[np.ix_(idx, idx)]
        lo = scipy.linalg.eigvalsh(a)[0]
        assert lo >= scipy.linalg.eigvalsh(gram_ii)[0] - 1e-10
        assert lo > 0


class TestDofEstimate:
    def test_empty_support_gives_zero(self):
        problem = random_problem(2, 10, 4, [2, 2])
        lmax = lambda_max(problem.design, problem.y, problem.partition)
        big = dataclasses.replace(problem, lam=2 * lmax)
        report = dof_estimate(big, solve(big, TIGHT))
        assert report.divergence == 0.0
        assert report.support.is_empty
        assert report.support_margin == np.inf

    def test_identity_worked_example(self):
        # one active block of size 2 with norm 5 at lambda 1: 2 - 1*(2-1)/5
        y = np.array([3.0, 4.0, 0.5, 0.5])
        problem = identity_problem(y, 1.0, [2, 2])
        report = dof_estimate(problem, solve(problem, TIGHT))
        assert report.divergence == pytest.approx(1.8, abs=1e-10)
        assert report.divergence == pytest.approx(
            dof_identity_closed_form(y, 1.0, problem.partition), abs=1e-10)

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_size_one_blocks_count_active(self, seed):
        problem = random_problem(seed, 15, 6, [1] * 6, lam_frac=0.4)
        report = dof_estimate(problem, solve(problem, TIGHT))
        assert report.divergence == pytest.approx(report.support.active_dim,
                                                  abs=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_divergence_bounded_by_active_dim(self, seed):
        problem = random_problem(seed + 40, 20, 8, [2, 2, 2, 2], lam_frac=0.25)
        report = dof_estimate(problem, solve(problem, TIGHT))
        assert -1e-10 <= report.divergence <= report.support.active_dim + 1e-10

    # the benchmark's `fd` workload at seed 316, rounds 56 (a smallest active
    # block norm of 7.1e-6) and 62 (a transition margin of 2.4e-6 lambda)
    @pytest.mark.parametrize("name", ["fd_seed316_round56", "fd_seed316_round62"])
    def test_trace_matches_a_fresh_factorization_near_a_boundary(self, name):
        problem = load_problem(pathlib.Path(__file__).parent / "fixtures"
                               / f"{name}.json").problem()
        sol = solve(problem)
        assert dof_estimate(problem, sol).divergence == pytest.approx(
            reference_divergence(problem, sol), rel=1e-12)

    def test_trace_matches_a_fresh_factorization_on_a_full_support(self):
        problem = random_problem(7, 30, 12, [3, 3, 3, 3], lam_frac=0.05)
        sol = solve(problem)
        assert sol.support.active_dim == problem.design.N
        assert dof_estimate(problem, sol).divergence == pytest.approx(
            reference_divergence(problem, sol), rel=1e-12)

    def test_condition_estimate_positive(self):
        problem = random_problem(6, 16, 6, [3, 3], lam_frac=0.3)
        report = dof_estimate(problem, solve(problem, TIGHT))
        assert report.condition_estimate >= 1.0


class TestIdentityClosedForm:
    def test_worked_example(self):
        p = BlockPartition(((0, 1), (2, 3)))
        assert dof_identity_closed_form([3.0, 4.0, 0.5, 0.5], 1.0, p) == \
            pytest.approx(1.8, abs=1e-15)

    def test_size_one_blocks_count_exceedances(self):
        p = BlockPartition.from_sizes([1, 1, 1, 1])
        y = [3.0, -0.2, 1.5, 0.9]
        assert dof_identity_closed_form(y, 1.0, p) == 2.0

    def test_large_lambda_empty(self):
        p = BlockPartition.from_sizes([2, 2])
        assert dof_identity_closed_form([1.0, 1.0, 0.5, 0.5], 10.0, p) == 0.0

    def test_lambda_must_be_positive(self):
        p = BlockPartition.from_sizes([2])
        with pytest.raises(ValueError):
            dof_identity_closed_form([1.0, 2.0], 0.0, p)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_estimator_on_identity_design(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.choice([1, 2, 3], size=rng.integers(2, 5)).tolist()
        n = sum(sizes)
        y = 2.0 * rng.standard_normal(n)
        lam = float(rng.uniform(0.2, 1.5))
        problem = identity_problem(y, lam, sizes)
        report = dof_estimate(problem, solve(problem, SolverOptions(kkt_tol=1e-13)))
        assert report.divergence == pytest.approx(
            dof_identity_closed_form(y, lam, problem.partition), abs=1e-10)


class TestTransitionProximity:
    def test_just_above_lambda_max_warns(self):
        problem = random_problem(3, 12, 6, [2, 2, 2])
        lmax = lambda_max(problem.design, problem.y, problem.partition)
        nearly = dataclasses.replace(problem, lam=lmax * (1 + 1e-9))
        sol = solve(nearly, TIGHT)
        tm, sm, warn = margins(nearly, sol)
        assert sol.support.is_empty and sm == np.inf
        assert tm == pytest.approx(lmax * 1e-9, rel=1e-3)
        assert warn

    @pytest.mark.parametrize("seed", range(5))
    def test_generic_interior_instances_do_not_warn(self, seed):
        problem = random_problem(seed + 100, 20, 8, [2, 2, 2, 2], lam_frac=0.3)
        sol = solve(problem, TIGHT)
        tm, sm, warn = margins(problem, sol)
        assert not warn
        assert tm > 1e-6 * problem.lam

    @pytest.mark.parametrize("seed", range(4))
    def test_hand_constructed_boundary_instance_warns(self, seed):
        problem = transition_instance(seed)
        sol = solve(problem, SolverOptions(kkt_tol=1e-10))
        tm, sm, warn = margins(problem, sol)
        assert warn
        assert tm < 1e-6 * problem.lam

    def test_full_support_margin_infinite(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10, 4)) / np.sqrt(10)
        y = rng.standard_normal(10)
        design = Design(x)
        partition = BlockPartition.from_sizes([2, 2])
        lam = 1e-6 * lambda_max(design, y, partition)
        problem = Problem(design, y, lam, partition)
        sol = solve(problem, TIGHT)
        assert sol.support.active_dim == 4
        tm, _, _ = margins(problem, sol)
        assert tm == np.inf


class TestCoordinateRadius:
    """`DofReport.radius`: a certified lower bound on the first-order radius
    of the support along every coordinate, and along every unit direction."""

    def test_identity_design_closed_form(self):
        # inactive block (0.5, 0.5): lambda - ||y_b|| at a speed of at most
        # sqrt(L) = 1; the active block of norm 4 is 4 from zero at a speed
        # of at most 1 / sqrt(lambda_min) = 1
        problem = identity_problem([3.0, 4.0, 0.5, 0.5], 1.0, [2, 2])
        sol = solve(problem, TIGHT)
        assert dof_estimate(problem, sol).radius == pytest.approx(1.0 - np.sqrt(0.5), rel=1e-12)

    def test_empty_support(self):
        problem = identity_problem([3.0, 4.0, 0.3, 0.1], 6.0, [2, 2])
        sol = solve(problem, TIGHT)
        assert sol.support.is_empty
        assert dof_estimate(problem, sol).radius == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_boundary_instance_has_no_room(self, seed):
        problem = transition_instance(seed)
        sol = solve(problem, TIGHT)
        assert dof_estimate(problem, sol).radius == 0.0

    def test_a_slack_within_its_rounding_bound_reads_as_zero(self):
        # on more boundary instances the tight block's slack, recomputed from
        # X, y and beta, is 0 or a few ulps of lambda, as round-off alone can
        # make it; the solver's margin, and so the radius, reads 0 on each
        ulps = []
        for seed in range(4, 20):
            problem = transition_instance(seed)
            sol = solve(problem, TIGHT)
            slack = reference_margins(problem, sol.beta, sol.support)[0]
            ulps.append(slack / np.spacing(problem.lam))
            assert sol.transition_margin == 0.0
            assert dof_estimate(problem, sol).radius == 0.0
        assert 0.0 < max(ulps) <= 4.0

    @pytest.mark.parametrize("seed", range(4))
    def test_half_the_radius_keeps_the_support(self, seed):
        # lambda near a block's entry point keeps the radius small enough
        # that a coordinate probe a few radii out crosses
        problem = random_problem(seed, 14, 6, [2, 2, 2], lam_frac=0.9)
        sol = solve(problem, TIGHT)
        radius = dof_estimate(problem, sol).radius
        fd_oracle(problem, 0.5 * radius, base=sol)
        # well past the radius some probe crosses (at 4r, not yet on seed 3)
        with pytest.raises(TransitionCrossingError):
            fd_oracle(problem, 16.0 * radius, base=sol)

    def test_half_the_radius_keeps_the_support_in_every_direction(self):
        # 20 random unit directions on each of 20 instances; at 4r, 11 of
        # these 400 probes change the support
        changed = 0
        for seed in range(20):
            problem = random_problem(seed, 14, 6, [2, 2, 2], lam_frac=0.9)
            sol = solve(problem, TIGHT)
            u = np.random.default_rng(seed).standard_normal((14, 20))
            u /= np.linalg.norm(u, axis=0)
            ys = problem.y[:, None] + 0.5 * dof_estimate(problem, sol).radius * u
            probes = solve_batch(problem.design, ys, problem.lam, problem.partition, TIGHT)
            changed += sum(probe.support != sol.support for probe in probes)
        assert changed == 0

    def test_radius_and_warning_are_scale_equivariant(self):
        # generic, on a boundary (r = 0) and 1e-9 lambda_max above lambda_max,
        # where the rescaled radius agrees to 3e-7 only: its margin is a
        # difference of two numbers 1e-9 apart
        problems = [random_problem(seed, 14, 6, [2, 2, 2], lam_frac=0.9) for seed in range(3)]
        problems.append(transition_instance(0))
        above = random_problem(3, 12, 6, [2, 2, 2])
        lmax = lambda_max(above.design, above.y, above.partition)
        problems.append(dataclasses.replace(above, lam=lmax * (1 + 1e-9)))
        for problem in problems:
            sol = solve(problem, TIGHT)
            report = dof_estimate(problem, sol)
            radius, warned = report.radius, report.warning
            assert warned == (radius < fd_step(problem))
            for s in [1e-9, 1e-7, 1e-3, 1e3, 1e6, 1e8, 1e9]:
                scaled = Problem(problem.design, s * problem.y, s * problem.lam, problem.partition)
                scaled_sol = solve(scaled, TIGHT)
                scaled_report = dof_estimate(scaled, scaled_sol)
                assert scaled_report.radius == pytest.approx(s * radius, rel=1e-6)
                assert scaled_report.warning == warned


class TestDofBatch:
    def test_pairs_come_in_column_order(self, monkeypatch):
        # one y on a lambda grid from above lambda_max to a full support, in
        # chunks of one to several columns
        problem = random_problem(31, 40, 16, [4, 4, 4, 4])
        lams = default_lambda_grid(2.0 * lambda_max(problem.design, problem.y,
                                                    problem.partition), 12, 3.0)
        ys = np.repeat(problem.y[:, None], lams.size, axis=1)
        monkeypatch.setattr(solver, "CHUNK_ENTRIES", 600)
        pairs = list(dof_batch(problem.design, ys, lams, problem.partition))
        solutions = list(solve_batch(problem.design, ys, lams, problem.partition))
        monkeypatch.undo()
        dims = [sol.support.active_dim for sol, _ in pairs]
        assert dims[0] == 0 and dims[-1] == 16 and dims == sorted(dims)
        for lam, (sol, report), ref in zip(lams, pairs, solutions, strict=True):
            assert np.array_equal(sol.beta, ref.beta) and report.support is sol.support
            single = dof_estimate(dataclasses.replace(problem, lam=lam), sol)
            assert report.divergence == pytest.approx(single.divergence, rel=1e-12, abs=1e-14)
            assert report.radius == single.radius and report.warning == single.warning
            assert report.factor is sol.factor

    def test_an_uncertified_column_has_no_report(self):
        problem = random_problem(21, 40, 16, [4, 4, 4, 4], lam_frac=0.05)
        # beta = 0 certifies the second column before any iteration
        ys = np.column_stack([problem.y, 1e-9 * problem.y, problem.y])
        (failed, none), (solved, report), (again, none_again) = dof_batch(
            problem.design, ys, problem.lam, problem.partition, SolverOptions(max_iter=5))
        assert isinstance(failed, ConvergenceError) and none is None
        assert isinstance(again, ConvergenceError) and none_again is None
        assert solved.support.is_empty and report.divergence == 0.0

    def test_first_pair_is_yielded_before_the_last_column_is_factored(self, monkeypatch):
        # the lambda path's shape: 50 lambdas on N = 200 hold far more system
        # matrix entries than one chunk
        scenario = generate(ScenarioSpec(Q=220, N=200, block_sizes=(4,) * 50, k_active=10,
                                         sigma=0.5, seed=11))
        y = scenario.draw_y(seed=11, replicate=0)
        lams = default_lambda_grid(lambda_max(scenario.design, y, scenario.partition))
        factored, cholesky = [], solver._cholesky
        monkeypatch.setattr(solver, "_cholesky", lambda a: factored.append(a.shape[0])
                            or cholesky(a))
        pairs = dof_batch(scenario.design, np.repeat(y[:, None], 50, axis=1), lams,
                          scenario.partition)
        sol, report = next(pairs)
        at_first_yield = len(factored)
        rest = list(pairs)
        assert sol.support.is_empty and report.divergence == 0.0 and len(rest) == 49
        assert rest[-1][1].support.active_dim == 200
        assert at_first_yield < len(factored)


class TestDofReportSerialization:
    def test_json_keys_and_infinity_handling(self):
        problem = random_problem(2, 10, 4, [2, 2])
        lmax = lambda_max(problem.design, problem.y, problem.partition)
        big = dataclasses.replace(problem, lam=2 * lmax)
        report = dof_estimate(big, solve(big, TIGHT))
        d = json.loads(json.dumps(report.to_dict()))
        assert set(d) == {"divergence", "active_blocks", "active_dim",
                          "transition_margin", "support_margin",
                          "condition_estimate", "warning"}
        assert d["support_margin"] is None  # +inf serialized as null
        assert d["active_blocks"] == []
        assert d["divergence"] == 0.0
        assert d["warning"] in (True, False)
