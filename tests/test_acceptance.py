"""Acceptance suite: one test per stated criterion, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see a PASS/FAIL line per
criterion (without -s, pytest shows the lines for failing criteria only).
"""

import time

import numpy as np
import pytest

from helpers import random_problem, transition_instance

from gldof.core import BlockPartition, Design
from gldof.datagen import ScenarioSpec, generate
from gldof.dof import (
    differential,
    dof_estimate,
    dof_identity_closed_form,
    transition_proximity,
)
from gldof.risk import aic, cp, sure
from gldof.solver import Problem, SolverOptions, lambda_max, solve
from gldof.validate import fd_oracle, mc_dof, replicate_rng

FD_REL = 1e-4
FD_ABS = 1e-8


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}  ({detail})",
          flush=True)


def unwarned_instances(count, q, n, sizes, lam_frac, kkt_tol=1e-12):
    """First `count` seeded instances whose solution has no transition warning."""
    out = []
    seed = 0
    while len(out) < count:
        assert seed < 10 * count, "too many warned draws; generator is broken"
        problem = random_problem(seed, q, n, sizes, lam_frac)
        seed += 1
        sol = solve(problem, SolverOptions(kkt_tol=kkt_tol))
        if sol.support.is_empty:
            continue
        _, _, warned = transition_proximity(problem, sol)
        if warned:
            continue
        out.append((problem, sol))
    return out


@pytest.fixture(scope="module")
def mc_scenario():
    # the unbiasedness scenario shared by criteria 5 and 7
    scenario = generate(ScenarioSpec(Q=20, N=10, block_sizes=(2,) * 5,
                                     k_active=2, signal_scale=1.0, sigma=0.5,
                                     seed=42))
    lam = 0.5 * lambda_max(scenario.design, scenario.mu0, scenario.partition)
    return scenario, lam


def test_criterion_1_kkt_certification():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(100):
        problem = random_problem(seed, 50, 20, [4] * 5, 1 / 3)
        sol = solve(problem)
        worst = max(worst, sol.kkt_residual)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    report("criterion-1 kkt-certification", ok,
           f"worst residual {worst:.3e} <= 1e-8, {elapsed:.1f}s < 30s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_2_differential_vs_finite_differences():
    worst_jac = 0.0
    worst_div = 0.0
    for problem, sol in unwarned_instances(20, 30, 12, [3] * 4, 1 / 3):
        d = differential(problem, sol)
        fd, fdd = fd_oracle(problem, base=sol)
        allowed = np.maximum(FD_REL * np.abs(fd), FD_ABS)
        worst_jac = max(worst_jac, float(np.max(np.abs(d - fd) / allowed)))

        div = dof_estimate(problem, sol).divergence
        worst_div = max(worst_div,
                        abs(div - fdd) / max(FD_REL * abs(fdd), FD_ABS))
    ok = worst_jac < 1.0 and worst_div < 1.0
    report("criterion-2 differential-vs-fd", ok,
           f"worst jacobian ratio {worst_jac:.3e}, "
           f"worst divergence ratio {worst_div:.3e} (allowed < 1)")
    assert worst_jac < 1.0
    assert worst_div < 1.0


def test_criterion_3_identity_closed_form():
    rng = np.random.default_rng(2024)
    tight = SolverOptions(kkt_tol=1e-13)
    worst = 0.0
    for _ in range(1000):
        sizes = rng.integers(1, 4, size=rng.integers(2, 6)).tolist()
        n = int(sum(sizes))
        y = 2.0 * rng.standard_normal(n)
        lam = float(rng.uniform(0.2, 2.0))
        partition = BlockPartition.from_sizes(sizes)
        problem = Problem(Design.identity(n), y, lam, partition)
        estimate = dof_estimate(problem, solve(problem, tight)).divergence
        closed = dof_identity_closed_form(y, lam, partition)
        worst = max(worst, abs(estimate - closed))
    ok = worst <= 1e-10
    report("criterion-3 identity-closed-form", ok,
           f"worst |estimate - closed form| {worst:.3e} <= 1e-10 over 1000 draws")
    assert worst <= 1e-10


def test_criterion_4_lasso_specialization():
    tight = SolverOptions(kkt_tol=1e-12)
    worst = 0.0
    for seed in range(50):
        problem = random_problem(1000 + seed, 15, 6, [1] * 6, lam_frac=0.4)
        rep = dof_estimate(problem, solve(problem, tight))
        worst = max(worst, abs(rep.divergence - rep.support.active_dim))
    ok = worst <= 1e-8
    report("criterion-4 lasso-active-count", ok,
           f"worst |divergence - active size| {worst:.3e} <= 1e-8 over 50 instances")
    assert worst <= 1e-8


def test_criterion_5_unbiasedness(mc_scenario):
    scenario, lam = mc_scenario
    t0 = time.monotonic()
    result = mc_dof(scenario, lam, replicates=5000, seed=7)
    elapsed = time.monotonic() - t0
    gap = abs(result.mean_divergence - result.mc_dof)
    ok = (gap <= 3.0 * result.combined_stderr and elapsed < 300.0
          and result.n_failed == 0)
    report("criterion-5 unbiasedness", ok,
           f"|{result.mean_divergence:.4f} - {result.mc_dof:.4f}| = {gap:.4f} "
           f"<= 3 x {result.combined_stderr:.4f}, {elapsed:.0f}s < 300s")
    assert result.n_failed == 0
    assert gap <= 3.0 * result.combined_stderr
    assert elapsed < 300.0


def test_criterion_6_local_support_constancy():
    tight = SolverOptions(kkt_tol=1e-10)
    changes = 0
    for idx, (problem, sol) in enumerate(
            unwarned_instances(20, 30, 12, [3] * 4, 1 / 3)):
        eps = 1e-6 * float(np.linalg.norm(problem.y))
        rng = np.random.default_rng(5000 + idx)
        for _ in range(50):
            u = rng.standard_normal(problem.design.Q)
            u /= np.linalg.norm(u)
            probe = solve(problem.with_y(problem.y + eps * u), tight)
            if probe.support.active != sol.support.active:
                changes += 1
    ok = changes == 0
    report("criterion-6 support-constancy", ok,
           f"{changes} support changes over 20 x 50 perturbations at 1e-6*||y||")
    assert changes == 0


def test_criterion_7_risk_identities(mc_scenario):
    rng = np.random.default_rng(77)
    worst_sure = 0.0
    worst_aic = 0.0
    for _ in range(1000):
        rss = float(rng.uniform(0.0, 50.0))
        dof = float(rng.uniform(0.0, 9.0))
        sigma = float(rng.uniform(0.1, 3.0))
        q = int(rng.integers(10, 200))
        s = sure(rss, dof, sigma, q)
        c = cp(rss, dof, sigma, q)
        a = aic(rss, dof, sigma, q)
        scale = abs(rss / sigma**2) + q + 2 * dof + 1.0
        worst_sure = max(worst_sure, abs(s - sigma**2 * c) / (sigma**2 * scale))
        worst_aic = max(worst_aic, abs((a - c) - q) / scale)
    identities_ok = worst_sure <= 1e-12 and worst_aic <= 1e-12

    # SURE is an unbiased risk estimate: compare against the true loss
    # computed from the known mu0, paired over replicates
    scenario, lam = mc_scenario
    q = scenario.design.Q
    sigma = scenario.sigma
    diffs = []
    for k in range(2000):
        y = scenario.mu0 + sigma * replicate_rng(11, k).standard_normal(q)
        problem = Problem(scenario.design, y, lam, scenario.partition)
        sol = solve(problem)
        mu_hat = scenario.design.matrix @ sol.beta
        rss = float(np.sum((y - mu_hat) ** 2))
        div = dof_estimate(problem, sol).divergence
        loss = float(np.sum((mu_hat - scenario.mu0) ** 2))
        diffs.append(sure(rss, div, sigma, q) - loss)
    diffs = np.asarray(diffs)
    stderr = float(np.std(diffs, ddof=1) / np.sqrt(len(diffs)))
    bias = float(np.mean(diffs))
    sure_ok = abs(bias) <= 3.0 * stderr

    ok = identities_ok and sure_ok
    report("criterion-7 risk-identities", ok,
           f"identity residuals {worst_sure:.2e}/{worst_aic:.2e} <= 1e-12; "
           f"SURE bias |{bias:.4f}| <= 3 x {stderr:.4f}")
    assert worst_sure <= 1e-12
    assert worst_aic <= 1e-12
    assert sure_ok


def test_criterion_8_transition_detection():
    boundary = transition_instance(0)
    sol = solve(boundary, SolverOptions(kkt_tol=1e-10))
    margin, _, warned_on_boundary = transition_proximity(boundary, sol)

    rng = np.random.default_rng(99)
    scenario = generate(ScenarioSpec(Q=25, N=10, block_sizes=(2,) * 5,
                                     k_active=2, sigma=0.5, seed=3))
    false_alarms = 0
    for _ in range(1000):
        y = scenario.mu0 + 0.5 * rng.standard_normal(25)
        lam = lambda_max(scenario.design, y, scenario.partition) / 3.0
        problem = Problem(scenario.design, y, lam, scenario.partition)
        _, _, warned = transition_proximity(problem, solve(problem))
        if warned:
            false_alarms += 1
    ok = warned_on_boundary and false_alarms == 0
    report("criterion-8 transition-detection", ok,
           f"boundary margin {margin:.2e} warned={warned_on_boundary}; "
           f"{false_alarms}/1000 generic false alarms")
    assert warned_on_boundary
    assert false_alarms == 0
