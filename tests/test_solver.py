import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (block_soft_threshold, duality_gap, kkt_residual, polish, random_problem,
                     unit_and_dense_delta_P)

from gldof import solver
from gldof.core import BlockPartition, BlockSupport, Design, delta_P_matrix
from gldof.datagen import ScenarioSpec, generate
from gldof.dof import dof_estimate
from gldof.risk import default_lambda_grid
from gldof.solver import (
    ConvergenceError,
    Problem,
    SolverOptions,
    kkt_check,
    lambda_max,
    solve,
    solve_batch,
)


def cvxpy_solve(problem):
    """Independent convex-solver oracle for the same objective."""
    import cvxpy

    b = cvxpy.Variable(problem.design.N)
    fit = 0.5 * cvxpy.sum_squares(problem.y - problem.design.matrix @ b)
    penalty = sum(cvxpy.norm2(b[list(blk)]) for blk in problem.partition)
    with warnings.catch_warnings():
        # pushing CLARABEL past its default accuracy triggers a chatty warning
        warnings.simplefilter("ignore", UserWarning)
        cvxpy.Problem(cvxpy.Minimize(fit + problem.lam * penalty)).solve(
            solver=cvxpy.CLARABEL, tol_gap_abs=1e-12, tol_gap_rel=1e-12,
            tol_feas=1e-12)
    return np.asarray(b.value)


def assert_gap_closed(problem, sol):
    """The independent duality gap confirms the certified minimizer."""
    gap, primal = duality_gap(problem, sol.beta)
    assert gap <= 1e-10 * primal


def prox_objective(z, v, t):
    return 0.5 * np.sum((np.asarray(z) - v) ** 2) + t * np.linalg.norm(z)


def prox_by_solve(v, t):
    """Block soft thresholding of v at t: the solution of a one-block
    identity design, where the first proximal step is already exact."""
    v = np.asarray(v, dtype=float)
    problem = Problem(Design.identity(v.size), v, t, BlockPartition.from_sizes([v.size]))
    return solve(problem, SolverOptions(kkt_tol=1e-13)).beta


def fista_iterates(monkeypatch):
    """Record, for a `solve`, each point at which the FISTA loop evaluates its
    certificate (`solver._violation`): the start point when one is given,
    then every accepted iterate.  Calls made by the finish are left out."""
    points, finishing = [], []
    violation, newton = solver._violation, solver._newton

    def recording(partition, corr, beta, beta_norms, lam):
        if not finishing:
            points.append(beta[:, 0].copy())
        return violation(partition, corr, beta, beta_norms, lam)

    def finish(*args):
        finishing.append(True)
        return newton(*args)

    monkeypatch.setattr(solver, "_violation", recording)
    monkeypatch.setattr(solver, "_newton", finish)
    return points


class TestBlockSoftThreshold:
    def test_boundary_collapses_to_zero(self):
        assert prox_by_solve([3.0, 4.0], 5.0).tolist() == [0.0, 0.0]

    def test_zero_input(self):
        assert prox_by_solve([0.0, 0.0], 2.0).tolist() == [0.0, 0.0]

    def test_shrinks_radially(self):
        out = prox_by_solve([3.0, 4.0], 1.0)
        assert np.allclose(out, [2.4, 3.2], atol=1e-15)

    def test_against_numeric_minimization_oracle(self):
        # the prox must match the argmin of 0.5||v - z||^2 + t||z||
        v = np.array([3.0, 4.0])
        res = scipy.optimize.minimize(prox_objective, x0=[1.0, 1.0], args=(v, 1.0),
                                      method="Nelder-Mead",
                                      options={"xatol": 1e-10, "fatol": 1e-14,
                                               "maxiter": 10000})
        assert np.allclose(prox_by_solve(v, 1.0), res.x, atol=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_prox_optimality_on_random_blocks(self, seed):
        rng = np.random.default_rng(seed)
        v = 3.0 * rng.standard_normal(2)
        t = float(rng.uniform(0.1, 4.0))
        z = prox_by_solve(v, t)
        assert np.max(np.abs(z - block_soft_threshold(v, t))) <= 1e-12
        base = prox_objective(z, v, t)
        # no grid point may beat the prox output
        grid = np.linspace(-6, 6, 121)
        values = [prox_objective([a, b], v, t) for a in grid for b in grid]
        assert base <= min(values) + 1e-9

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            prox_by_solve([1.0], 0.0)


class TestLambdaMax:
    def test_zero_observations(self):
        d = Design.identity(4)
        p = BlockPartition.from_sizes([2, 2])
        assert lambda_max(d, np.zeros(4), p) == 0.0

    def test_identity_example(self):
        d = Design.identity(4)
        p = BlockPartition(((0, 1), (2, 3)))
        assert lambda_max(d, [3.0, 4.0, 0.5, 0.5], p) == pytest.approx(5.0)

    def test_single_block_is_norm_of_y(self):
        d = Design.identity(3)
        p = BlockPartition.from_sizes([3])
        y = np.array([1.0, 2.0, 2.0])
        assert lambda_max(d, y, p) == pytest.approx(3.0)

    @pytest.mark.parametrize("factor", [1.0, 1.001, 10.0])
    def test_zero_is_optimal_above_lambda_max(self, factor):
        problem = random_problem(11, 12, 6, [3, 3])
        lmax = lambda_max(problem.design, problem.y, problem.partition)
        sol = solve(problem.with_lam(factor * lmax))
        assert np.all(sol.beta == 0.0)
        assert sol.support.is_empty
        assert_gap_closed(problem.with_lam(factor * lmax), sol)


class TestSolve:
    def test_identity_design_equals_blockwise_prox(self):
        p = BlockPartition(((0, 1), (2, 3)))
        y = np.array([3.0, 4.0, 0.5, 0.5])
        problem = Problem(Design.identity(4), y, 1.0, p)
        sol = solve(problem)
        exact = np.concatenate([block_soft_threshold(y[:2], 1.0),
                                block_soft_threshold(y[2:], 1.0)])
        assert np.max(np.abs(sol.beta - exact)) < 1e-12
        assert_gap_closed(problem, sol)

    @pytest.mark.parametrize("seed", range(6))
    def test_identity_design_random(self, seed):
        rng = np.random.default_rng(seed)
        p = BlockPartition.from_sizes([2, 3, 1, 2])
        y = rng.standard_normal(8) * 2.0
        lam = 0.8
        problem = Problem(Design.identity(8), y, lam, p)
        sol = solve(problem)
        exact = np.concatenate([block_soft_threshold(y[list(b)], lam) for b in p])
        assert np.max(np.abs(sol.beta - exact)) < 1e-12
        assert_gap_closed(problem, sol)

    def test_matches_independent_convex_solver(self):
        pytest.importorskip("cvxpy")
        problem = random_problem(7, 12, 6, [3, 3])
        sol = solve(problem, SolverOptions(kkt_tol=1e-10))
        oracle = cvxpy_solve(problem)
        assert np.max(np.abs(sol.beta - oracle)) < 1e-6

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_oracle_various_instances(self, seed):
        pytest.importorskip("cvxpy")
        problem = random_problem(seed, 20, 9, [3, 3, 3], lam_frac=0.4)
        sol = solve(problem, SolverOptions(kkt_tol=1e-10))
        oracle = cvxpy_solve(problem)
        assert np.max(np.abs(sol.beta - oracle)) < 1e-6

    def test_objective_recomputed_matches_definition(self):
        problem = random_problem(5, 15, 6, [2, 2, 2])
        sol = solve(problem)
        resid = problem.y - problem.design.matrix @ sol.beta
        pen = sum(np.linalg.norm(sol.beta[list(b)]) for b in problem.partition)
        assert sol.objective == pytest.approx(0.5 * resid @ resid + problem.lam * pen)
        assert_gap_closed(problem, sol)

    def test_objective_history_monotone(self, monkeypatch):
        problem = random_problem(9, 30, 12, [3, 3, 3, 3], lam_frac=0.1)
        iterates = fista_iterates(monkeypatch)
        sol = solve(problem, SolverOptions(kkt_tol=1e-12))
        # a cold start is at beta = 0, where the loop evaluates no certificate
        assert len(iterates) == sol.iterations
        hist = np.array([problem.objective(b) for b in [np.zeros(12)] + iterates])
        increases = np.diff(hist)
        assert np.all(increases <= 1e-14 * np.abs(hist[:-1]))

    def test_warm_start_shortcut(self):
        problem = random_problem(13, 20, 8, [2, 2, 2, 2])
        sol = solve(problem, SolverOptions(kkt_tol=1e-10))
        again = solve(problem, SolverOptions(kkt_tol=1e-8), sol.beta)
        assert again.iterations == 0
        assert np.allclose(again.beta, sol.beta)
        assert_gap_closed(problem, again)

    @pytest.mark.parametrize("seed", range(4))
    def test_warm_start_from_a_nearby_point(self, seed, monkeypatch):
        problem = random_problem(seed, 30, 12, [3, 3, 2, 4], lam_frac=0.2)
        cold = solve(problem, SolverOptions(kkt_tol=1e-10))
        rng = np.random.default_rng(seed)
        start = cold.beta + 1e-3 * rng.standard_normal(12)
        iterates = fista_iterates(monkeypatch)
        warm = solve(problem, SolverOptions(kkt_tol=1e-10), start)
        assert warm.support == cold.support
        assert np.max(np.abs(warm.beta - cold.beta)) <= \
            1e-12 * np.max(np.abs(cold.beta))
        assert warm.kkt_residual <= 1e-10
        assert_gap_closed(problem, warm)
        # the loop evaluates the start point, then each iteration's iterate
        assert np.array_equal(iterates[0], start)
        assert len(iterates) == warm.iterations + 1

    def test_warm_start_of_wrong_length_rejected(self):
        problem = random_problem(13, 20, 8, [2, 2, 2, 2])
        with pytest.raises(ValueError):
            solve(problem, start=np.zeros(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_warm_start_rejected(self, bad):
        # rejected at once: the loop would spend its whole budget on it
        problem = random_problem(13, 20, 8, [2, 2, 2, 2])
        start = np.zeros(8)
        start[2] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(problem, start=start)

    def test_iteration_budget_exhaustion_carries_best_iterate(self):
        problem = random_problem(21, 40, 16, [4, 4, 4, 4], lam_frac=0.05)
        with pytest.raises(ConvergenceError) as err:
            solve(problem, SolverOptions(kkt_tol=1e-13, max_iter=3))
        assert err.value.kkt_residual > 0
        assert err.value.beta.shape == (16,) and not err.value.beta.flags.writeable
        assert err.value.iterations == 3

    def test_certified_point_is_the_unique_minimizer(self):
        # solving twice from different starts lands on the same point
        problem = random_problem(17, 18, 8, [2, 2, 4], lam_frac=0.3)
        a = solve(problem, SolverOptions(kkt_tol=1e-11))
        rng = np.random.default_rng(0)
        b = solve(problem, SolverOptions(kkt_tol=1e-11), rng.standard_normal(8))
        assert np.max(np.abs(a.beta - b.beta)) < 1e-9
        assert_gap_closed(problem, a)
        assert_gap_closed(problem, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_duality_gap_closes_only_at_the_minimizer(self, seed):
        problem = random_problem(seed, 30, 12, [3, 3, 2, 4], lam_frac=0.2)
        sol = solve(problem)
        assert_gap_closed(problem, sol)
        # the oracle is not blind: moving off the minimizer opens the gap
        nudged = sol.beta + 1e-3 * np.random.default_rng(seed).standard_normal(12)
        gap, primal = duality_gap(problem, nudged)
        assert gap > 1e-8 * primal


class TestKktCheck:
    def test_zero_is_optimal_for_large_lambda(self):
        problem = random_problem(3, 10, 4, [2, 2])
        lmax = lambda_max(problem.design, problem.y, problem.partition)
        big = problem.with_lam(2.0 * lmax)
        resid, ok = kkt_check(big, np.zeros(4), tol=0.0)
        assert resid == 0.0 and ok

    def test_exact_identity_solution_certifies(self):
        p = BlockPartition(((0, 1), (2, 3)))
        y = np.array([3.0, 4.0, 0.5, 0.5])
        problem = Problem(Design.identity(4), y, 1.0, p)
        exact = np.concatenate([block_soft_threshold(y[:2], 1.0),
                                block_soft_threshold(y[2:], 1.0)])
        resid, ok = kkt_check(problem, exact, tol=1e-12)
        assert resid < 1e-12 and ok

    def test_perturbed_solution_fails(self):
        p = BlockPartition(((0, 1), (2, 3)))
        y = np.array([3.0, 4.0, 0.5, 0.5])
        problem = Problem(Design.identity(4), y, 1.0, p)
        bad = np.array([2.5, 3.2, 0.0, 0.0])  # active coordinate nudged by 0.1
        resid, ok = kkt_check(problem, bad, tol=1e-8)
        # the residual is in units of lambda_max(y); 0.05 is an absolute bound
        assert resid * lambda_max(problem.design, y, p) > 0.05 and not ok

    def test_zero_observations_certify_only_zero(self):
        # s(y) = max_b ||X_b'y|| = 0: beta = 0 is the solution and the only
        # point with a finite relative residual
        p = BlockPartition.from_sizes([2, 2])
        problem = Problem(Design.identity(4), np.zeros(4), 1.0, p)
        assert kkt_check(problem, np.zeros(4)) == (0.0, True)
        resid, ok = kkt_check(problem, [1.0, 0.0, 0.0, 0.0], tol=1e-8)
        assert resid == np.inf and not ok
        sol = solve(problem, start=np.ones(4))
        assert np.all(sol.beta == 0.0) and sol.kkt_residual == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_blockwise_reference(self, seed):
        # random points, points with exact-zero blocks, and the solution
        problem = random_problem(seed, 20, 9, [3, 1, 4, 1], lam_frac=0.3)
        rng = np.random.default_rng(seed)
        point = rng.standard_normal(9)
        sparse = point.copy()
        sparse[[0, 1, 2, 4, 5, 6, 7]] = 0.0
        for beta in (point, sparse, np.zeros(9), solve(problem).beta):
            resid, _ = kkt_check(problem, beta)
            assert resid == pytest.approx(kkt_residual(problem, beta), rel=1e-12, abs=1e-15)

    def test_matches_blockwise_reference_at_zero_scale(self):
        p = BlockPartition(((0, 2), (1, 3)))
        problem = Problem(Design.identity(4), np.zeros(4), 1.0, p)
        for beta in (np.zeros(4), [0.0, 1.0, 0.0, 0.0]):
            assert kkt_check(problem, beta)[0] == kkt_residual(problem, beta)

    def test_accepts_coefficients_object(self):
        problem = random_problem(2, 10, 4, [2, 2])
        sol = solve(problem)
        resid, ok = kkt_check(problem, sol.beta, tol=1e-8)
        assert ok and resid <= 1e-8


class TestProblemValidation:
    def test_lambda_positive(self):
        with pytest.raises(ValueError):
            Problem(Design.identity(2), [1.0, 2.0], 0.0,
                    BlockPartition.from_sizes([2]))

    def test_y_length(self):
        with pytest.raises(ValueError):
            Problem(Design.identity(2), [1.0], 1.0, BlockPartition.from_sizes([2]))

    def test_partition_dim(self):
        with pytest.raises(ValueError):
            Problem(Design.identity(3), [1.0, 2.0, 3.0], 1.0,
                    BlockPartition.from_sizes([2]))

    @pytest.mark.parametrize("y", [[1.0, np.nan], [np.inf, 2.0], [1.0, -np.inf]])
    def test_y_finite(self, y):
        with pytest.raises(ValueError, match="finite"):
            Problem(Design.identity(2), y, 1.0, BlockPartition.from_sizes([2]))

    def test_lambda_finite(self):
        # rejected before any arithmetic, which would warn of inf * 0
        with pytest.raises(ValueError, match="finite"):
            Problem(Design.identity(2), [1.0, 2.0], np.inf, BlockPartition.from_sizes([2]))


def system_matrix(problem, sol):
    """X_I'X_I + lambda * deltaP at the returned beta, built from scratch."""
    idx = sol.support.indices
    xi = problem.design.columns(idx)
    beta_i = sol.support.restrict(sol.beta)
    return xi.T @ xi + problem.lam * delta_P_matrix(beta_i, sol.support)


def rebuilt_from_factor(sol):
    low = np.tril(sol.factor[0])
    return low @ low.T


class TestPolishAndFactor:
    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_factor_reproduces_system_matrix(self, seed):
        problem = random_problem(seed, 20, 9, [3, 3, 3], lam_frac=0.2)
        sol = solve(problem)
        assert not sol.support.is_empty
        a = system_matrix(problem, sol)
        err = np.linalg.norm(rebuilt_from_factor(sol) - a) / np.linalg.norm(a)
        assert err <= 1e-12

    def test_empty_support_has_no_factor(self):
        problem = random_problem(3, 10, 4, [2, 2])
        lmax = lambda_max(problem.design, problem.y, problem.partition)
        assert solve(problem.with_lam(2.0 * lmax)).factor is None

    def test_polish_tightens_a_loose_certificate(self):
        problem = random_problem(6, 24, 9, [3, 3, 3], lam_frac=0.2)
        loose = solve(problem, SolverOptions(kkt_tol=1e-4))
        tight = solve(problem, SolverOptions(kkt_tol=1e-13))
        assert loose.kkt_residual <= 1e-12
        assert np.max(np.abs(loose.beta - tight.beta)) <= 1e-12
        assert_gap_closed(problem, loose)

    def test_rejected_polish_keeps_fista_point_with_its_factor(self, monkeypatch):
        problem = random_problem(2, 20, 9, [3, 3, 3], lam_frac=0.2)
        opts = SolverOptions(kkt_tol=1e-6)
        polished = solve(problem, opts)
        # every polished point now looks worse than the FISTA point
        monkeypatch.setattr(solver, "_residuals",
                            lambda partition, gram, xty, beta, lam, scales:
                            np.full(beta.shape[1:], np.inf))
        kept = solve(problem, opts)
        assert kept.iterations == polished.iterations
        assert kept.kkt_residual > polished.kkt_residual
        assert not np.array_equal(kept.beta, polished.beta)
        assert kept.support.active == polished.support.active
        a = system_matrix(problem, kept)
        err = np.linalg.norm(rebuilt_from_factor(kept) - a) / np.linalg.norm(a)
        assert err <= 1e-12


def mixed_batch():
    """One design (a near-duplicate column makes small lambdas slow) and a
    batch mixing: an empty support (column 0), eight fd-like probes sharing
    one support (1-8), singleton supports at four lambdas (9-12), y = 0 (13),
    a column sharing column 9's support (14) and one that needs about 430
    iterations (15)."""
    rng = np.random.default_rng(3)
    sizes = [3, 3, 2, 4, 1, 3]
    x = rng.standard_normal((40, sum(sizes))) / np.sqrt(40)
    x[:, -1] = x[:, 0] + 1e-2 * rng.standard_normal(40) / np.sqrt(40)
    design, partition = Design(x), BlockPartition.from_sizes(sizes)
    y = rng.standard_normal(40)
    probes = np.repeat(y[:, None], 8, axis=1)
    probes[np.arange(4), np.arange(4)] += 1e-6
    probes[np.arange(4), 4 + np.arange(4)] -= 1e-6
    ys = np.column_stack([y, probes, np.repeat(y[:, None], 4, axis=1), np.zeros(40), y, y])
    fracs = [1.5] + [0.35] * 8 + [0.9, 0.5, 0.25, 0.15, 0.35, 0.7, 1e-3]
    return design, partition, ys, np.array(fracs) * lambda_max(design, y, partition)


def per_column_finish(design, ys, lams, certificate):
    """A stand-in for `solver._newton` that finishes the columns one at a
    time with the reference `helpers.polish` (columns arrive in order)."""
    done = []

    def finish(gram, partition, xty, lam, beta, resid, active, scales):
        out = []
        for b, r, on in zip(beta.T, resid, active.T):
            j = len(done)
            done.append(j)
            if on.any():
                out.append(polish(Problem(design, ys[:, j], lams[j], partition), b, r,
                                  certificate(j)))
            else:
                out.append((b, r, BlockSupport(partition, ()), None))
        points, resids, supports, factors = zip(*out)
        return np.column_stack(points), np.array(resids), list(supports), list(factors)

    return finish


class TestBatchedFinish:
    def test_mixed_batch_matches_a_per_column_finish(self, monkeypatch):
        design, partition, ys, lams = mixed_batch()
        opts = SolverOptions(max_iter=200)
        # column 14's polished point is made to look worse than its FISTA point
        rejected = lams[14]
        residuals, cholesky, factored = solver._residuals, solver._cholesky, []

        def rejecting(partition, gram, xty, beta, lam, scales):
            return np.where(lam == rejected, np.inf, residuals(partition, gram, xty, beta,
                                                                lam, scales))

        def factoring(a):
            factored.append((a.copy(), cholesky(a)))
            return factored[-1][1]

        monkeypatch.setattr(solver, "_newton", per_column_finish(
            design, ys, lams, lambda j: (lambda *args: (np.inf, False)) if j == 14 else kkt_check))
        reference = list(solve_batch(design, ys, lams, partition, opts))
        monkeypatch.undo()
        monkeypatch.setattr(solver, "_residuals", rejecting)
        monkeypatch.setattr(solver, "_cholesky", factoring)
        batch = list(solve_batch(design, ys, lams, partition, opts))
        monkeypatch.undo()

        assert [sol.support.active for sol in batch[:1] + batch[9:15]] == [
            (), (3,), (3, 5), (0, 2, 3, 5), (0, 1, 2, 3, 5), (), (3,)]
        assert {sol.support.active for sol in batch[1:9]} == {(0, 3, 5)}
        assert isinstance(batch[15], ConvergenceError) and batch[15].iterations == 200
        assert np.array_equal(batch[15].beta, reference[15].beta)
        assert batch[15].kkt_residual == reference[15].kkt_residual
        for j, (sol, ref) in enumerate(zip(batch[:15], reference[:15], strict=True)):
            problem = Problem(design, ys[:, j], lams[j], partition)
            assert sol.support == ref.support
            assert sol.iterations == ref.iterations
            assert np.max(np.abs(sol.beta - ref.beta)) <= \
                1e-12 * np.max(np.abs(ref.beta))
            assert sol.kkt_residual <= opts.kkt_tol
            assert dof_estimate(problem, sol).divergence == pytest.approx(
                dof_estimate(problem, ref).divergence, rel=1e-10, abs=1e-14)
            if sol.support.is_empty:
                assert sol.factor is None and ref.factor is None
                continue
            # the factor rebuilds the system matrix at the returned beta, and
            # the matrix it factors is X_I'X_I + lambda * deltaP to the bit,
            # deltaP by the dense formula
            a = system_matrix(problem, sol)
            assert np.linalg.norm(rebuilt_from_factor(sol) - a) <= 1e-12 * np.linalg.norm(a)
            (assembled,) = [m for m, f in factored if f is sol.factor]
            idx = sol.support.indices
            beta_i = sol.support.restrict(sol.beta)
            assert np.array_equal(assembled, design.gram[idx[:, None], idx]
                                  + lams[j] * unit_and_dense_delta_P(beta_i, sol.support)[1])
        # the rejected column keeps its FISTA point, certificate and start
        # factor, as the reference does
        assert np.array_equal(batch[14].beta, reference[14].beta)
        assert batch[14].kkt_residual == reference[14].kkt_residual
        assert np.array_equal(batch[14].factor[0], reference[14].factor[0])

    @pytest.mark.parametrize("fault", ["zero_block", "not_positive_definite"])
    def test_a_failed_step_falls_back_for_its_column_alone(self, monkeypatch, fault):
        design, partition, ys, lams = mixed_batch()
        ys, lams = ys[:, 1:9], lams[1:9]  # the eight probes sharing one support
        newton, fista = solver._newton, {}

        def capture(gram, partition, xty, lam, beta, resid, active, scales):
            fista.update(beta=beta.copy(), resid=resid.copy())
            return newton(gram, partition, xty, lam, beta, resid, active, scales)

        monkeypatch.setattr(solver, "_newton", capture)
        clean = list(solve_batch(design, ys, lams, partition))
        # every probe steps at the first pass, so calls come in column order:
        # column 3 gets the 4th step and the 12th factorization (second pass)
        victim, calls = 3, []
        factor_solve, cholesky = solver.factor_solve, solver._cholesky

        def zeroing(factor, rhs):
            calls.append(rhs)
            if len(calls) != victim + 1:
                return factor_solve(factor, rhs)
            # a step that lands exactly on zero in the first active block
            first = clean[victim].support.indices[:clean[victim].support.sizes[0]]
            out = np.zeros_like(rhs)
            out[:first.size] = fista["beta"][first, victim]
            return out

        def failing(a):
            calls.append(a)
            return None if len(calls) == len(lams) + victim + 1 else cholesky(a)

        if fault == "zero_block":
            monkeypatch.setattr(solver, "factor_solve", zeroing)
        else:
            monkeypatch.setattr(solver, "_cholesky", failing)
        # every polished point passes its certificate, so only the fallback
        # itself can keep a FISTA point
        monkeypatch.setattr(solver, "_residuals", lambda partition, gram, xty, beta, lam,
                            scales: np.zeros(beta.shape[1:]))
        batch = list(solve_batch(design, ys, lams, partition))
        monkeypatch.undo()

        for j, (sol, ref) in enumerate(zip(batch, clean, strict=True)):
            assert sol.support == ref.support and sol.iterations == ref.iterations
            if j != victim:
                assert np.max(np.abs(sol.beta - ref.beta)) <= \
                    1e-12 * np.max(np.abs(ref.beta))
        # the victim keeps its FISTA point, its certificate and the factor there
        kept = batch[victim]
        assert np.array_equal(kept.beta, fista["beta"][:, victim])
        assert kept.kkt_residual == fista["resid"][victim]
        assert not np.array_equal(kept.beta, clean[victim].beta)
        problem = Problem(design, ys[:, victim], lams[victim], partition)
        a = system_matrix(problem, kept)
        assert np.linalg.norm(rebuilt_from_factor(kept) - a) <= 1e-12 * np.linalg.norm(a)

    def test_first_column_is_yielded_before_the_last_is_factored(self, monkeypatch):
        # the lambda path's shape: 50 lambdas on N = 200 hold far more system
        # matrix entries than N x BATCH_COLUMNS, so the finish goes in chunks
        scenario = generate(ScenarioSpec(Q=220, N=200, block_sizes=(4,) * 50, k_active=10,
                                         sigma=0.5, seed=11))
        y = scenario.draw_y(seed=11, replicate=0)
        lams = default_lambda_grid(lambda_max(scenario.design, y, scenario.partition))
        factored, cholesky = [], solver._cholesky
        monkeypatch.setattr(solver, "_cholesky", lambda a: factored.append(a.shape[0])
                            or cholesky(a))
        batch = solve_batch(scenario.design, np.repeat(y[:, None], 50, axis=1), lams,
                            scenario.partition)
        first = next(batch)
        at_first_yield = len(factored)
        rest = list(batch)
        assert first.support.is_empty and len(rest) == 49
        assert rest[-1].support.active_dim == 200
        assert at_first_yield < len(factored)


# (s y, s lambda) must give s beta and the same DOF from 1e-9 to 1e9; an
# absolute certificate accepts beta = 0 at 1e-9 and never certifies at 1e8
SCALES = [1e-9, 1e-7, 1e-3, 1e3, 1e6, 1e8, 1e9]


@pytest.fixture(scope="module")
def fault_problems():
    """Baseline-scenario problems (Q=60, 10 blocks of 4, 3 active) solved at s = 1."""
    scenario = generate(ScenarioSpec(Q=60, N=40, block_sizes=(4,) * 10, k_active=3,
                                     sigma=0.5, seed=20121205))
    lam = 0.5 * lambda_max(scenario.design, scenario.mu0, scenario.partition)
    out = []
    for k in range(3):
        problem = Problem(scenario.design, scenario.draw_y(seed=20121205, replicate=k),
                          lam, scenario.partition)
        sol = solve(problem)
        out.append((problem, sol, dof_estimate(problem, sol).divergence))
    return out


def rescaled(problem, s):
    return Problem(problem.design, s * problem.y, s * problem.lam, problem.partition)


class TestScaleEquivariance:
    @pytest.mark.parametrize("s", SCALES)
    def test_solution_and_dof_are_equivariant(self, fault_problems, s):
        for problem, base, dof in fault_problems:
            scaled = rescaled(problem, s)
            sol = solve(scaled)
            assert not base.support.is_empty
            assert sol.support == base.support
            err = np.max(np.abs(sol.beta / s - base.beta))
            assert err <= 1e-12 * np.max(np.abs(base.beta))
            assert dof_estimate(scaled, sol).divergence == pytest.approx(dof, rel=1e-10)

    @pytest.mark.parametrize("s", SCALES)
    def test_duality_gap_closes_at_every_scale(self, fault_problems, s):
        for problem, _, _ in fault_problems:
            scaled = rescaled(problem, s)
            assert_gap_closed(scaled, solve(scaled))


@st.composite
def batch_instances(draw):
    """One design, partition and lambda with a mixed batch of observations:
    y, y = 0, y rescaled by 1e-9 and 1e9 (at the same lambda), and fresh draws.
    Blocks have sizes 1 to 4 and need not be contiguous."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    n = sum(sizes)
    perm = draw(st.permutations(range(n)))
    edges = np.cumsum([0] + sizes)
    partition = BlockPartition(tuple(tuple(perm[a:b]) for a, b in zip(edges[:-1], edges[1:])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        design = Design.identity(n)
    else:
        q = 2 * n + draw(st.integers(0, 4))
        design = Design(rng.standard_normal((q, n)) / np.sqrt(q))
    y = rng.standard_normal(design.Q)
    lam = draw(st.floats(0.05, 0.95)) * lambda_max(design, y, partition)
    fresh = rng.standard_normal((design.Q, draw(st.integers(0, 3))))
    ys = np.column_stack([y, np.zeros_like(y), 1e-9 * y, 1e9 * y, fresh])
    return design, ys, lam, partition


@st.composite
def path_instances(draw):
    """One y of a `batch_instances` draw with a grid of distinct lambdas, in
    any order, at 0.05 to 0.95 and 1 to 1.2 times lambda_max (beta = 0 from
    1 on).  Just below lambda_max the one active block's beta is a small
    difference of nearly equal numbers, known only to about
    eps * lambda_max / ||beta|| relative in any evaluation order (3e-10 for
    `solve` and the batch alike at 1 - 1e-5), so, as in `batch_instances`,
    the 1e-12 comparison is drawn away from it."""
    design, ys, _, partition = draw(batch_instances())
    y = ys[:, 0]
    fracs = draw(st.lists(st.one_of(st.floats(0.05, 0.95), st.floats(1.0, 1.2)),
                          min_size=1, max_size=6, unique=True))
    return design, y, np.array(fracs) * lambda_max(design, y, partition), partition


def assert_batch_matches_single_solves(problems, batch, again):
    """Each batch column against `solve` on its own problem: same support,
    beta to 1e-12 relative, DOF to 1e-10, a certified and gap-closed
    solution, and a bit-identical rerun."""
    refs = [solve(p) for p in problems]
    # a transition-warned solution may legitimately differ in support
    assume(not any(dof_estimate(p, r).warning for p, r in zip(problems, refs)))
    for problem, ref, sol, rerun in zip(problems, refs, batch, again, strict=True):
        assert sol.support == ref.support
        err = np.max(np.abs(sol.beta - ref.beta))
        assert err <= 1e-12 * np.max(np.abs(ref.beta))
        dof = dof_estimate(problem, sol).divergence
        assert dof == pytest.approx(dof_estimate(problem, ref).divergence, rel=1e-10)
        assert sol.kkt_residual <= SolverOptions().kkt_tol
        # at lambda < 1e-6 s(y) (the 1e9 y column) the gap of the exact
        # minimizer rounded to doubles is already about 1e-10 P(beta)
        if problem.lam >= 1e-6 * lambda_max(problem.design, problem.y, problem.partition):
            assert_gap_closed(problem, sol)
        # bit-identical run to run for the same input and K
        assert np.array_equal(rerun.beta, sol.beta)
        assert dof_estimate(problem, rerun).divergence == dof


class TestSolveBatch:
    @settings(max_examples=40, deadline=None)
    @given(batch_instances())
    def test_columns_match_single_solves(self, instance):
        design, ys, lam, partition = instance
        problems = [Problem(design, y, lam, partition) for y in ys.T]
        assert_batch_matches_single_solves(
            problems, list(solve_batch(design, ys, lam, partition)),
            list(solve_batch(design, ys, lam, partition)))

    @settings(max_examples=30, deadline=None)
    @given(path_instances())
    def test_per_column_lambdas_match_single_solves(self, instance):
        design, y, lams, partition = instance
        ys = np.repeat(y[:, None], lams.size, axis=1)
        problems = [Problem(design, y, lam, partition) for lam in lams]
        assert_batch_matches_single_solves(
            problems, list(solve_batch(design, ys, lams, partition)),
            list(solve_batch(design, ys, lams, partition)))

    @pytest.mark.parametrize("lams", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 2.0],
                                      [1.0, -2.0, 2.0], [1.0, np.nan, 2.0], np.inf,
                                      [1.0, np.inf, 2.0]])
    def test_rejects_bad_lambda_vectors(self, lams):
        problem = random_problem(3, 10, 4, [2, 2])
        ys = np.repeat(problem.y[:, None], 3, axis=1)
        with pytest.raises(ValueError):
            solve_batch(problem.design, ys, np.array(lams), problem.partition)

    def test_uncertified_column_fails_alone(self):
        problem = random_problem(21, 40, 16, [4, 4, 4, 4], lam_frac=0.05)
        # beta = 0 certifies the second column before any iteration
        ys = np.column_stack([problem.y, 1e-9 * problem.y])
        opts = SolverOptions(max_iter=5)
        failed, solved = solve_batch(problem.design, ys, problem.lam, problem.partition, opts)
        assert isinstance(failed, ConvergenceError)
        assert failed.iterations == 5 and failed.kkt_residual > opts.kkt_tol
        assert failed.beta.shape == solved.beta.shape == (16,)
        assert not failed.beta.flags.writeable and not solved.beta.flags.writeable
        assert solved.support.is_empty and solved.iterations == 0

    def test_columns_beyond_one_chunk_keep_their_order(self, monkeypatch):
        problem = random_problem(8, 20, 9, [3, 3, 3], lam_frac=0.2)
        ys = problem.y[:, None] * np.linspace(0.5, 2.0, 7)
        whole = list(solve_batch(problem.design, ys, problem.lam, problem.partition))
        monkeypatch.setattr(solver, "BATCH_COLUMNS", 3)
        chunked = list(solve_batch(problem.design, ys, problem.lam, problem.partition))
        for a, b in zip(whole, chunked, strict=True):
            assert np.max(np.abs(a.beta - b.beta)) <= \
                1e-12 * np.max(np.abs(a.beta))

    def test_observations_are_copied(self):
        # the finish reads the observations lazily, after the call returns
        problem = random_problem(8, 20, 9, [3, 3, 3], lam_frac=0.2)
        ys = problem.y[:, None] * np.linspace(0.5, 2.0, 4)
        lams = problem.lam * np.linspace(1.0, 0.5, 4)
        expected = list(solve_batch(problem.design, ys, lams, problem.partition))
        batch = solve_batch(problem.design, ys, lams, problem.partition)
        ys[:], lams[:] = 0.0, 1.0
        for sol, ref in zip(batch, expected, strict=True):
            assert np.array_equal(sol.beta, ref.beta) and sol.objective == ref.objective

    def test_rejects_a_partition_of_another_dimension(self):
        problem = random_problem(3, 10, 4, [2, 2])
        with pytest.raises(ValueError, match="partition"):
            solve_batch(problem.design, problem.y[:, None], problem.lam,
                        BlockPartition.from_sizes([2, 3]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_observations(self, bad):
        problem = random_problem(3, 10, 4, [2, 2])
        ys = np.repeat(problem.y[:, None], 3, axis=1)
        ys[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_batch(problem.design, ys, problem.lam, problem.partition)

    def test_rejects_misshapen_observations(self):
        problem = random_problem(3, 10, 4, [2, 2])
        with pytest.raises(ValueError):
            solve_batch(problem.design, problem.y, problem.lam, problem.partition)
