import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import duality_gap, random_problem

from gldof import solver
from gldof.core import BlockPartition, Design, delta_P_matrix
from gldof.datagen import ScenarioSpec, generate
from gldof.dof import dof_estimate
from gldof.solver import (
    ConvergenceError,
    Problem,
    SolverOptions,
    block_soft_threshold,
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
    gap, primal = duality_gap(problem, sol.beta.values)
    assert gap <= 1e-10 * primal


def prox_objective(z, v, t):
    return 0.5 * np.sum((np.asarray(z) - v) ** 2) + t * np.linalg.norm(z)


class TestBlockSoftThreshold:
    def test_boundary_collapses_to_zero(self):
        assert block_soft_threshold([3.0, 4.0], 5.0).tolist() == [0.0, 0.0]

    def test_zero_input(self):
        assert block_soft_threshold([0.0, 0.0], 2.0).tolist() == [0.0, 0.0]

    def test_shrinks_radially(self):
        out = block_soft_threshold([3.0, 4.0], 1.0)
        assert np.allclose(out, [2.4, 3.2], atol=1e-15)

    def test_against_numeric_minimization_oracle(self):
        # the prox must match the argmin of 0.5||v - z||^2 + t||z||
        v = np.array([3.0, 4.0])
        res = scipy.optimize.minimize(prox_objective, x0=[1.0, 1.0], args=(v, 1.0),
                                      method="Nelder-Mead",
                                      options={"xatol": 1e-10, "fatol": 1e-14,
                                               "maxiter": 10000})
        assert np.allclose(block_soft_threshold(v, 1.0), res.x, atol=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_prox_optimality_on_random_blocks(self, seed):
        rng = np.random.default_rng(seed)
        v = 3.0 * rng.standard_normal(2)
        t = float(rng.uniform(0.1, 4.0))
        z = block_soft_threshold(v, t)
        base = prox_objective(z, v, t)
        # no grid point may beat the prox output
        grid = np.linspace(-6, 6, 121)
        values = [prox_objective([a, b], v, t) for a in grid for b in grid]
        assert base <= min(values) + 1e-9

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            block_soft_threshold([1.0], 0.0)


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
        assert np.all(sol.beta.values == 0.0)
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
        assert np.max(np.abs(sol.beta.values - exact)) < 1e-12
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
        assert np.max(np.abs(sol.beta.values - exact)) < 1e-12
        assert_gap_closed(problem, sol)

    def test_matches_independent_convex_solver(self):
        pytest.importorskip("cvxpy")
        problem = random_problem(7, 12, 6, [3, 3])
        sol = solve(problem, SolverOptions(kkt_tol=1e-10))
        oracle = cvxpy_solve(problem)
        assert np.max(np.abs(sol.beta.values - oracle)) < 1e-6

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_oracle_various_instances(self, seed):
        pytest.importorskip("cvxpy")
        problem = random_problem(seed, 20, 9, [3, 3, 3], lam_frac=0.4)
        sol = solve(problem, SolverOptions(kkt_tol=1e-10))
        oracle = cvxpy_solve(problem)
        assert np.max(np.abs(sol.beta.values - oracle)) < 1e-6

    def test_objective_recomputed_matches_definition(self):
        problem = random_problem(5, 15, 6, [2, 2, 2])
        sol = solve(problem)
        resid = problem.y - problem.design.matrix @ sol.beta.values
        pen = sum(np.linalg.norm(sol.beta.block(i)) for i in range(3))
        assert sol.objective == pytest.approx(0.5 * resid @ resid + problem.lam * pen)
        assert_gap_closed(problem, sol)

    def test_objective_history_monotone(self):
        problem = random_problem(9, 30, 12, [3, 3, 3, 3], lam_frac=0.1)
        sol = solve(problem, SolverOptions(kkt_tol=1e-12, track_objective=True))
        hist = np.array(sol.objective_history)
        increases = np.diff(hist)
        assert np.all(increases <= 1e-14 * np.abs(hist[:-1]))

    def test_warm_start_shortcut(self):
        problem = random_problem(13, 20, 8, [2, 2, 2, 2])
        sol = solve(problem, SolverOptions(kkt_tol=1e-10))
        again = solve(problem, SolverOptions(kkt_tol=1e-8,
                                             warm_start=sol.beta.values))
        assert again.iterations == 0
        assert np.allclose(again.beta.values, sol.beta.values)
        assert_gap_closed(problem, again)

    def test_iteration_budget_exhaustion_carries_best_iterate(self):
        problem = random_problem(21, 40, 16, [4, 4, 4, 4], lam_frac=0.05)
        with pytest.raises(ConvergenceError) as err:
            solve(problem, SolverOptions(kkt_tol=1e-13, max_iter=3))
        assert err.value.kkt_residual > 0
        assert err.value.beta.values.shape == (16,)
        assert err.value.iterations == 3

    def test_certified_point_is_the_unique_minimizer(self):
        # solving twice from different starts lands on the same point
        problem = random_problem(17, 18, 8, [2, 2, 4], lam_frac=0.3)
        a = solve(problem, SolverOptions(kkt_tol=1e-11))
        rng = np.random.default_rng(0)
        b = solve(problem, SolverOptions(kkt_tol=1e-11,
                                         warm_start=rng.standard_normal(8)))
        assert np.max(np.abs(a.beta.values - b.beta.values)) < 1e-9
        assert_gap_closed(problem, a)
        assert_gap_closed(problem, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_duality_gap_closes_only_at_the_minimizer(self, seed):
        problem = random_problem(seed, 30, 12, [3, 3, 2, 4], lam_frac=0.2)
        sol = solve(problem)
        assert_gap_closed(problem, sol)
        # the oracle is not blind: moving off the minimizer opens the gap
        nudged = sol.beta.values + 1e-3 * np.random.default_rng(seed).standard_normal(12)
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
        sol = solve(problem, SolverOptions(warm_start=np.ones(4)))
        assert np.all(sol.beta.values == 0.0) and sol.kkt_residual == 0.0

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


def system_matrix(problem, sol):
    """X_I'X_I + lambda * deltaP at the returned beta, built from scratch."""
    idx = sol.support.indices
    xi = problem.design.columns(idx)
    beta_i = sol.support.restrict(sol.beta.values)
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
        assert np.max(np.abs(loose.beta.values - tight.beta.values)) <= 1e-12
        assert_gap_closed(problem, loose)

    def test_rejected_polish_keeps_fista_point_with_its_factor(self, monkeypatch):
        problem = random_problem(2, 20, 9, [3, 3, 3], lam_frac=0.2)
        opts = SolverOptions(kkt_tol=1e-6)
        polished = solve(problem, opts)
        # every polished point now looks worse than the FISTA point
        monkeypatch.setattr(solver, "kkt_check", lambda *args: (np.inf, False))
        kept = solve(problem, opts)
        assert kept.iterations == polished.iterations
        assert kept.kkt_residual > polished.kkt_residual
        assert not np.array_equal(kept.beta.values, polished.beta.values)
        assert kept.support.active == polished.support.active
        a = system_matrix(problem, kept)
        err = np.linalg.norm(rebuilt_from_factor(kept) - a) / np.linalg.norm(a)
        assert err <= 1e-12


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
            err = np.max(np.abs(sol.beta.values / s - base.beta.values))
            assert err <= 1e-12 * np.max(np.abs(base.beta.values))
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
        err = np.max(np.abs(sol.beta.values - ref.beta.values))
        assert err <= 1e-12 * np.max(np.abs(ref.beta.values))
        dof = dof_estimate(problem, sol).divergence
        assert dof == pytest.approx(dof_estimate(problem, ref).divergence, rel=1e-10)
        assert sol.kkt_residual <= SolverOptions().kkt_tol
        # at lambda < 1e-6 s(y) (the 1e9 y column) the gap of the exact
        # minimizer rounded to doubles is already about 1e-10 P(beta)
        if problem.lam >= 1e-6 * lambda_max(problem.design, problem.y, problem.partition):
            assert_gap_closed(problem, sol)
        # bit-identical run to run for the same input and K
        assert np.array_equal(rerun.beta.values, sol.beta.values)
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
                                      [1.0, -2.0, 2.0], [1.0, np.nan, 2.0]])
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
        assert failed.beta.values.shape == (16,)
        assert solved.support.is_empty and solved.iterations == 0

    def test_columns_beyond_one_chunk_keep_their_order(self, monkeypatch):
        problem = random_problem(8, 20, 9, [3, 3, 3], lam_frac=0.2)
        ys = problem.y[:, None] * np.linspace(0.5, 2.0, 7)
        whole = list(solve_batch(problem.design, ys, problem.lam, problem.partition))
        monkeypatch.setattr(solver, "BATCH_COLUMNS", 3)
        chunked = list(solve_batch(problem.design, ys, problem.lam, problem.partition))
        for a, b in zip(whole, chunked, strict=True):
            assert np.max(np.abs(a.beta.values - b.beta.values)) <= \
                1e-12 * np.max(np.abs(a.beta.values))

    @pytest.mark.parametrize("opts", [SolverOptions(warm_start=np.zeros(4)),
                                      SolverOptions(track_objective=True)])
    def test_rejects_per_solve_options(self, opts):
        problem = random_problem(3, 10, 4, [2, 2])
        with pytest.raises(ValueError):
            solve_batch(problem.design, problem.y[:, None], problem.lam,
                        problem.partition, opts)

    def test_rejects_misshapen_observations(self):
        problem = random_problem(3, 10, 4, [2, 2])
        with pytest.raises(ValueError):
            solve_batch(problem.design, problem.y, problem.lam, problem.partition)
