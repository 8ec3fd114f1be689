import json

import numpy as np
import pytest
import scipy.linalg

from helpers import block_soft_threshold, random_problem, transition_instance

from gldof.core import BlockPartition, Design
from gldof.dof import (
    coordinate_radius,
    differential,
    dof_estimate,
    dof_identity_closed_form,
    transition_proximity,
)
from gldof.solver import (
    Problem,
    SolverOptions,
    lambda_max,
    solve,
)
from gldof.validate import TransitionCrossingError, fd_oracle

TIGHT = SolverOptions(kkt_tol=1e-12)


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
        sol = solve(problem.with_lam(2 * lmax), TIGHT)
        with pytest.raises(ValueError):
            differential(problem.with_lam(2 * lmax), sol)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fd_jacobian_on_generic_instances(self, seed):
        problem = random_problem(seed, 18, 8, [2, 2, 2, 2], lam_frac=0.35)
        sol = solve(problem, TIGHT)
        _, _, warned = transition_proximity(problem, sol)
        if warned or sol.support.is_empty:
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
        big = problem.with_lam(2 * lmax)
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
        nearly = problem.with_lam(lmax * (1 + 1e-9))
        sol = solve(nearly, TIGHT)
        tm, sm, warn = transition_proximity(nearly, sol)
        assert sol.support.is_empty and sm == np.inf
        assert tm == pytest.approx(lmax * 1e-9, rel=1e-3)
        assert warn

    @pytest.mark.parametrize("seed", range(5))
    def test_generic_interior_instances_do_not_warn(self, seed):
        problem = random_problem(seed + 100, 20, 8, [2, 2, 2, 2], lam_frac=0.3)
        sol = solve(problem, TIGHT)
        tm, sm, warn = transition_proximity(problem, sol)
        assert not warn
        assert tm > 1e-6 * problem.lam

    @pytest.mark.parametrize("seed", range(4))
    def test_hand_constructed_boundary_instance_warns(self, seed):
        problem = transition_instance(seed)
        sol = solve(problem, SolverOptions(kkt_tol=1e-10))
        tm, sm, warn = transition_proximity(problem, sol)
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
        tm, _, _ = transition_proximity(problem, sol)
        assert tm == np.inf


class TestCoordinateRadius:
    def test_identity_design_closed_form(self):
        # inactive block (0.5, 0.5): lambda - ||y_b|| along a unit speed;
        # the active block of norm 5 is 4 from zero at speed below 1
        problem = identity_problem([3.0, 4.0, 0.5, 0.5], 1.0, [2, 2])
        sol = solve(problem, TIGHT)
        assert coordinate_radius(problem, sol) == pytest.approx(1.0 - np.sqrt(0.5),
                                                                rel=1e-12)

    def test_empty_support(self):
        problem = identity_problem([3.0, 4.0, 0.3, 0.1], 6.0, [2, 2])
        sol = solve(problem, TIGHT)
        assert sol.support.is_empty
        assert coordinate_radius(problem, sol) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_boundary_instance_has_no_room(self, seed):
        problem = transition_instance(seed)
        sol = solve(problem, TIGHT)
        assert coordinate_radius(problem, sol) <= 1e-6 * np.max(np.abs(problem.y))

    @pytest.mark.parametrize("seed", range(4))
    def test_half_the_radius_keeps_the_support(self, seed):
        # lambda near a block's entry point puts the radius below the default step
        problem = random_problem(seed, 14, 6, [2, 2, 2], lam_frac=0.9)
        sol = solve(problem, TIGHT)
        radius = coordinate_radius(problem, sol)
        fd_oracle(problem, 0.5 * radius, base=sol)
        # well past the radius some probe crosses
        with pytest.raises(TransitionCrossingError):
            fd_oracle(problem, 4.0 * radius, base=sol)


class TestDofReportSerialization:
    def test_json_keys_and_infinity_handling(self):
        problem = random_problem(2, 10, 4, [2, 2])
        lmax = lambda_max(problem.design, problem.y, problem.partition)
        big = problem.with_lam(2 * lmax)
        report = dof_estimate(big, solve(big, TIGHT))
        d = json.loads(report.to_json())
        assert set(d) == {"divergence", "active_blocks", "active_dim",
                          "transition_margin", "support_margin",
                          "condition_estimate", "warning"}
        assert d["support_margin"] is None  # +inf serialized as null
        assert d["active_blocks"] == []
        assert d["divergence"] == 0.0
        assert d["warning"] in (True, False)
