import dataclasses
import json
import pathlib

import numpy as np
import pytest

from helpers import random_problem, transition_instance

from gldof import solver, validate
from gldof.core import BlockPartition, BlockSupport, Design
from gldof.datagen import ScenarioSpec, generate, load_problem
from gldof.dof import (
    differential,
    dof_estimate,
    dof_identity_closed_form,
    fd_step,
)
from gldof.solver import Problem, SolverOptions, kkt_check, solve
from gldof.validate import (
    ORACLE_KKT_TOL,
    TransitionCrossingError,
    fd_oracle,
    mc_dof,
    replicate_rng,
)


def identity_problem(y, lam, sizes):
    y = np.asarray(y, dtype=float)
    return Problem(Design.identity(y.size), y, lam, BlockPartition.from_sizes(sizes))


class TestFdDivergence:
    def test_zero_when_everything_thresholded(self):
        problem = identity_problem([0.4, 0.3, -0.2, 0.1], 2.0, [2, 2])
        assert fd_oracle(problem)[1] == 0.0

    def test_identity_worked_example(self):
        problem = identity_problem([3.0, 4.0, 0.5, 0.5], 1.0, [2, 2])
        fd = fd_oracle(problem)[1]
        closed = dof_identity_closed_form(problem.y, 1.0, problem.partition)
        assert fd == pytest.approx(closed, abs=1e-6)
        assert fd == pytest.approx(1.8, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_agrees_with_divergence_formula(self, seed):
        problem = random_problem(seed + 30, 16, 6, [2, 2, 2], lam_frac=0.35)
        report = dof_estimate(problem, solve(problem, SolverOptions(kkt_tol=1e-12)))
        assert fd_oracle(problem)[1] == pytest.approx(report.divergence,
                                                       rel=1e-4, abs=1e-8)

    def test_empty_support_probe_crossing_raises(self):
        # beta = 0, but lambda sits just above lambda_max = 5: y[1] + h
        # activates the first block
        problem = identity_problem([3.0, 4.0, 0.3, 0.1], 5.0 * (1 + 1e-9), [2, 2])
        with pytest.raises(TransitionCrossingError):
            fd_oracle(problem)

    def test_empty_support_returns_an_empty_jacobian(self):
        problem = identity_problem([0.4, 0.3, -0.2, 0.1], 2.0, [2, 2])
        jac, div = fd_oracle(problem)
        assert jac.shape == (0, 4) and div == 0.0

    def test_rejects_bad_step(self):
        problem = identity_problem([1.0, 2.0], 0.5, [2])
        # an infinite step once passed, and failed in the probes' solve
        for h in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                fd_oracle(problem, h=h)
        # a step that leaves some y[i] +/- h equal to y[i] once gave a zero
        # Jacobian column
        for h in (1e-16, 1e-300):
            with pytest.raises(ValueError, match="below the resolution of y"):
                fd_oracle(problem, h=h)


class TestFdJacobian:
    def test_scalar_soft_threshold_slope(self):
        problem = identity_problem([2.0, 0.1], 0.5, [1, 1])
        jac = fd_oracle(problem)[0]
        assert jac.shape == (1, 2)
        assert jac[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert jac[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_identity_active_block_closed_form(self):
        problem = identity_problem([3.0, 4.0, 0.5, 0.5], 1.0, [2, 2])
        jac = fd_oracle(problem)[0]
        u = problem.y[:2] / 5.0
        closed = np.eye(2) - 0.2 * (np.eye(2) - np.outer(u, u))
        assert np.allclose(jac[:, :2], closed, atol=1e-7)
        assert np.allclose(jac[:, 2:], 0.0, atol=1e-9)

    def test_divides_by_the_step_the_floats_take(self):
        # y_i +/- 3e-13 rounds to the floats next to 3000 and -4000, 4.5e-13
        # away, so those probes step 9.1e-13, not 2h; with blocks of size 1
        # each active beta_i is y_i - lambda sign(y_i), so the differences
        # are exact
        y, lam, h = np.array([3000.0, -4000.0, 0.3, 0.1]), 5.0, 3e-13
        problem = identity_problem(y, lam, [1, 1, 1, 1])
        assert not np.all((y + h) - (y - h) == 2.0 * h)
        jac, div = fd_oracle(problem, h)
        assert np.all(jac[:, :2] == np.eye(2)) and not jac[:, 2:].any()
        closed = dof_identity_closed_form(y, lam, problem.partition)
        assert div == pytest.approx(closed, rel=0.0, abs=1e-12)

    def test_matches_differential_on_random_instance(self):
        problem = random_problem(44, 18, 8, [2, 2, 2, 2], lam_frac=0.3)
        sol = solve(problem, SolverOptions(kkt_tol=1e-12))
        d = differential(problem, sol)
        jac = fd_oracle(problem)[0]
        denom = np.maximum(np.abs(jac), 1e-4)
        assert np.max(np.abs(d - jac) / denom) < 1e-4

    def test_trace_consistency_with_fd_divergence(self):
        problem = random_problem(45, 14, 6, [3, 3], lam_frac=0.4)
        sol = solve(problem, SolverOptions(kkt_tol=1e-12))
        jac, div = fd_oracle(problem)
        xi = problem.design.columns(sol.support.indices)
        assert float(np.trace(xi @ jac)) == pytest.approx(div,
                                                          abs=1e-6)

    def test_matches_per_probe_solves(self):
        problem = random_problem(46, 16, 8, [3, 1, 4], lam_frac=0.3)
        h = 1e-5 * np.max(np.abs(problem.y))
        opts = SolverOptions(kkt_tol=ORACLE_KKT_TOL)
        support = solve(problem, opts).support
        ref = np.empty((support.active_dim, problem.design.Q))
        for i in range(problem.design.Q):
            step = np.zeros(problem.design.Q)
            step[i] = h
            plus = solve(problem.with_y(problem.y + step), opts).beta
            minus = solve(problem.with_y(problem.y - step), opts).beta
            ref[:, i] = (support.restrict(plus) - support.restrict(minus)) / (2.0 * h)
        jac = fd_oracle(problem)[0]
        assert np.max(np.abs(jac - ref)) <= 1e-9 * np.max(np.abs(ref))

    @staticmethod
    def per_probe_reference(problem, h, base):
        """The oracle probe by probe: each probe's Solution from
        `solve_batch(..., base=)`, the first uncertified or off-support one
        in column order raised, and the differences of `support.restrict`."""
        q, support = problem.design.Q, base.support
        ys = problem.y[:, None] + h * np.kron(np.eye(q), [1.0, -1.0])
        steps = (problem.y + h) - (problem.y - h)
        results = list(solver.solve_batch(problem.design, ys, problem.lam, problem.partition,
                                          SolverOptions(kkt_tol=ORACLE_KKT_TOL,
                                                        max_iter=validate.ORACLE_MAX_ITER),
                                          base=base))
        jac = np.empty((support.active_dim, q))
        for i in range(q):
            for sol, sign in zip(results[2 * i:2 * i + 2], "+-"):
                if isinstance(sol, solver.ConvergenceError):
                    raise sol
                if sol.support != support:
                    raise TransitionCrossingError(f"support changed at probe y[{i}] {sign} h")
            plus, minus = (support.restrict(sol.beta) for sol in results[2 * i:2 * i + 2])
            jac[:, i] = (plus - minus) / steps[i]
        return jac, float(np.sum(problem.design.columns(support.indices) * jac.T))

    @pytest.mark.parametrize("instance", ["random", "empty", "fd_seed316_round62"])
    def test_matches_the_per_probe_reference_bit_for_bit(self, instance):
        if instance == "random":
            problem = random_problem(46, 16, 8, [3, 1, 4], lam_frac=0.3)
        elif instance == "empty":
            problem = identity_problem([0.4, 0.3, -0.2, 0.1], 2.0, [2, 2])
        else:
            loaded = load_problem(str(pathlib.Path(__file__).parent / "fixtures"
                                      / f"{instance}.json"))
            problem = loaded.problem(loaded.lam)
        base = solve(problem, SolverOptions(kkt_tol=ORACLE_KKT_TOL))
        h = min(fd_step(problem), 0.5 * dof_estimate(problem, base).radius)
        jac, div = fd_oracle(problem, h, base=base)
        ref_jac, ref_div = self.per_probe_reference(problem, h, base)
        assert jac.shape == ref_jac.shape and jac.tobytes() == ref_jac.tobytes()
        assert np.float64(div).tobytes() == np.float64(ref_div).tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_crossing_is_reported_at_the_reference_probe(self, seed):
        problem = transition_instance(seed)
        base = solve(problem, SolverOptions(kkt_tol=ORACLE_KKT_TOL))
        with pytest.raises(TransitionCrossingError) as ref:
            self.per_probe_reference(problem, fd_step(problem), base)
        with pytest.raises(TransitionCrossingError,
                           match=r"support changed at probe y\[\d+\] [+-] h$") as raised:
            fd_oracle(problem, base=base)
        assert str(raised.value) == str(ref.value)

    def test_boundary_instance_reports_transition_crossing(self):
        problem = transition_instance(1)
        with pytest.raises(TransitionCrossingError):
            fd_oracle(problem)[0]

    def test_a_block_that_falls_below_the_support_rule_is_a_crossing(self):
        # the second block's norm is 3.9965e-5, just above the rule's
        # 1e-8 * max|beta| = 3.996e-5, and y[2] - h takes it below: still
        # nonzero and certified on the base support, but not in the support
        y = [3e3, 4e3, 3.0 * (1 + 7.993e-6), 4.0 * (1 + 7.993e-6)]
        with pytest.raises(TransitionCrossingError, match=r"probe y\[2\] - h"):
            fd_oracle(identity_problem(y, 5.0, [2, 2]), 2e-8)

    def test_a_crossing_probe_resumes_fista_and_is_reported(self, monkeypatch):
        problem = transition_instance(1)
        base = solve(problem, SolverOptions(kkt_tol=ORACLE_KKT_TOL))
        chunks, bases, starts, widths = solver.solve_chunks, [], [], []
        fista = solver._fista

        def recording(design, partition, c, lams, scales, tol, max_iter, start=None):
            starts.append(start)
            widths.append(c.shape[1])
            return fista(design, partition, c, lams, scales, tol, max_iter, start)

        def cold_chunks(design, ys, lam, partition, opts, base):
            bases.append(base)
            return chunks(design, ys, lam, partition, opts)

        # the message of every probe solved cold, as the oracle once did
        monkeypatch.setattr(validate, "solve_chunks", cold_chunks)
        monkeypatch.setattr(solver, "_fista", recording)
        with pytest.raises(TransitionCrossingError) as cold:
            fd_oracle(problem, base=base)
        # the seam dropped the oracle's base, and all 2Q probes ran FISTA from zeros
        assert bases == [base]
        assert starts[0] is None and widths[0] == 2 * problem.design.Q
        monkeypatch.undo()
        starts.clear()
        monkeypatch.setattr(solver, "_fista", recording)
        with pytest.raises(TransitionCrossingError) as near:
            fd_oracle(problem, base=base)
        assert str(near.value) == str(cold.value)
        # every probe's finish starts at base.beta, and only the probes that
        # the chord steps do not finish resume FISTA, from there
        (resumed,) = starts
        assert 0 < resumed.shape[1] < 2 * problem.design.Q
        assert np.array_equal(resumed, np.repeat(base.beta[:, None], resumed.shape[1], axis=1))

    def test_near_boundary_probes_are_certified_at_the_oracle_tolerance(self, monkeypatch):
        # fd at seed 316: its probes sit 2e-6 lambda from a transition, where a
        # FISTA point short of kkt_tol is likeliest to carry another support
        loaded = load_problem(str(pathlib.Path(__file__).parent / "fixtures"
                                  / "fd_seed316_round62.json"))
        problem = loaded.problem(loaded.lam)
        base = solve(problem, SolverOptions(kkt_tol=ORACLE_KKT_TOL))
        probes, chunks = [], validate.solve_chunks

        def recording(design, ys, *args, **kwargs):
            lo = 0
            for chunk in chunks(design, ys, *args, **kwargs):
                probes.extend((ys[:, lo + i], chunk, i) for i in range(chunk.size))
                lo += chunk.size
                yield chunk

        monkeypatch.setattr(validate, "solve_chunks", recording)
        # the step of `validate fd`
        fd_oracle(problem, min(fd_step(problem), 0.5 * dof_estimate(problem, base).radius),
                  base=base)
        assert len(probes) == 2 * problem.design.Q
        for y, chunk, i in probes:
            assert not chunk.failed[i] and chunk.kkt_residual[i] <= ORACLE_KKT_TOL
            on = BlockSupport(problem.partition, tuple(np.flatnonzero(chunk.active[:, i])))
            assert on == base.support
            # the certificate again, from X, y and beta alone
            assert kkt_check(problem.with_y(y), chunk.beta[:, i], ORACLE_KKT_TOL)[1]


def small_scenario(seed=3, sizes=(2, 2, 2, 2, 2), q=20, sigma=0.5):
    return generate(ScenarioSpec(Q=q, N=sum(sizes), block_sizes=sizes,
                                 k_active=2, signal_scale=1.0, sigma=sigma,
                                 seed=seed))


class TestMcDof:
    def test_everything_thresholded_gives_zero(self):
        scenario = small_scenario()
        result = mc_dof(scenario, lam=50.0, replicates=20, seed=1)
        assert result.mc_dof == 0.0
        assert result.mean_divergence == 0.0
        assert result.consistent()

    def test_lasso_specialization_counts_active_coordinates(self):
        scenario = generate(ScenarioSpec(Q=16, N=6, block_sizes=(1,) * 6,
                                         k_active=3, sigma=0.4, seed=7))
        lam = 0.35
        # with size-1 blocks the divergence is exactly the active-set size
        for k in range(5):
            y = scenario.draw_y(seed=11, replicate=k)
            problem = Problem(scenario.design, y, lam, scenario.partition)
            report = dof_estimate(problem, solve(problem))
            assert report.divergence == pytest.approx(report.support.active_dim,
                                                      abs=1e-8)
        result = mc_dof(scenario, lam, replicates=300, seed=11)
        assert abs(result.mc_dof - result.mean_divergence) <= \
            3.0 * result.combined_stderr

    def test_group_instance_unbiasedness_small(self):
        scenario = small_scenario()
        from gldof.solver import lambda_max

        lam = 0.5 * lambda_max(scenario.design, scenario.mu0, scenario.partition)
        result = mc_dof(scenario, lam, replicates=400, seed=2)
        assert result.consistent()
        assert result.n_failed == 0

    def test_matches_per_replicate_solves(self):
        scenario = small_scenario()
        design, mu0, sigma, lam = scenario.design, scenario.mu0, scenario.sigma, 0.4
        stein, divs, warned = [], [], []
        for k in range(80):
            y = mu0 + sigma * replicate_rng(9, k).standard_normal(design.Q)
            problem = Problem(design, y, lam, scenario.partition)
            sol = solve(problem)
            report = dof_estimate(problem, sol)
            stein.append((y - mu0) @ (design.matrix @ sol.beta) / sigma**2)
            divs.append(report.divergence)
            warned.append(report.warning)
        result = mc_dof(scenario, lam, replicates=80, seed=9)
        rel = pytest.approx
        assert result.mc_dof == rel(np.mean(stein), rel=1e-12)
        assert result.mc_stderr == rel(np.std(stein, ddof=1) / np.sqrt(80), rel=1e-12)
        assert result.mean_divergence == rel(np.mean(divs), rel=1e-12)
        assert result.div_stderr == rel(np.std(divs, ddof=1) / np.sqrt(80), rel=1e-12)
        assert result.n_warned == sum(warned) and result.n_failed == 0

    def test_seeded_determinism(self):
        scenario = small_scenario()
        a = mc_dof(scenario, lam=0.4, replicates=50, seed=123)
        b = mc_dof(scenario, lam=0.4, replicates=50, seed=123)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_different_seed_changes_draws(self):
        scenario = small_scenario()
        a = mc_dof(scenario, lam=0.4, replicates=40, seed=1)
        b = mc_dof(scenario, lam=0.4, replicates=40, seed=2)
        assert a.mc_dof != b.mc_dof

    def test_exclude_warned_toggle(self):
        scenario = small_scenario()
        kept = mc_dof(scenario, lam=0.4, replicates=60, seed=4)
        dropped = mc_dof(scenario, lam=0.4, replicates=60, seed=4,
                         exclude_warned=True)
        assert kept.replicates == 60
        assert dropped.replicates == 60 - kept.n_warned

    def test_validates_inputs(self):
        scenario = small_scenario()
        with pytest.raises(ValueError):
            mc_dof(scenario, lam=0.4, replicates=1, seed=0)
        with pytest.raises(ValueError):
            mc_dof(scenario, lam=0.0, replicates=10, seed=0)

    def test_json_round_trip(self):
        scenario = small_scenario()
        result = mc_dof(scenario, lam=0.4, replicates=30, seed=6)
        d = json.loads(json.dumps(result.to_dict()))
        assert d["replicates"] == 30
        assert d["mc_dof"] == result.mc_dof
        assert d["consistent_3sigma"] == result.consistent()


class TestReplicateRng:
    def test_streams_are_independent_of_order(self):
        a = [replicate_rng(5, k).standard_normal(3).tolist() for k in range(4)]
        b = [replicate_rng(5, k).standard_normal(3).tolist()
             for k in reversed(range(4))]
        assert a == list(reversed(b))

    def test_distinct_replicates_differ(self):
        x = replicate_rng(0, 0).standard_normal(4)
        y = replicate_rng(0, 1).standard_normal(4)
        assert not np.allclose(x, y)
