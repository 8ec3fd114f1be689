"""Independent numerical oracles for the sensitivity and DOF results.

Nothing here reuses the closed-form differential: Jacobians and divergences
come from central finite differences of re-solved problems, and the DOF is
re-estimated from Monte Carlo replicates of the noise model.  Agreement
between these oracles and the analytic formulas is the package's main
correctness evidence.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .dof import dof_estimate
from .solver import ConvergenceError, Problem, SolverOptions, solve

# oracle solves are tightened well below the comparison tolerances so that
# solver noise does not leak into the finite differences
ORACLE_KKT_TOL = 1e-12


class TransitionCrossingError(RuntimeError):
    """A finite-difference probe changed the block support."""


def _fd_step(problem: Problem, h) -> float:
    """The given step, else 1e-5 * max|y| (1e-5 when y = 0): relative to y,
    so a rescaled problem takes the rescaled step."""
    if h is None:
        return 1e-5 * (float(np.max(np.abs(problem.y))) or 1.0)
    if not h > 0:
        raise ValueError("step h must be positive")
    return float(h)


def _probe_pairs(problem: Problem, h: float, opts: SolverOptions):
    """Yield (i, solution at y + h e_i, solution at y - h e_i) for each i."""
    for i in range(problem.design.Q):
        pair = []
        for sign in (+1.0, -1.0):
            y = problem.y.copy()
            y[i] += sign * h
            pair.append(solve(problem.with_y(y), opts))
        yield i, pair[0], pair[1]


def fd_jacobian(problem: Problem, h: float | None = None, *,
                kkt_tol: float = ORACLE_KKT_TOL, max_iter: int = 200_000) -> np.ndarray:
    """Central-difference Jacobian of y -> beta(y)_I on the fixed support.

    Solves the problem at y +/- h e_i for every observation coordinate.
    Raises TransitionCrossingError if any probe's block support differs
    from the base solution's, since the restriction to I is then invalid.
    """
    h = _fd_step(problem, h)
    opts = SolverOptions(kkt_tol=kkt_tol, max_iter=max_iter)
    support = solve(problem, opts).support
    jac = np.empty((support.active_dim, problem.design.Q))
    for i, plus, minus in _probe_pairs(problem, h, opts):
        for sol, sign in ((plus, "+"), (minus, "-")):
            if sol.support.active != support.active:
                raise TransitionCrossingError(f"support changed at probe y[{i}] {sign} h")
        jac[:, i] = (support.restrict(plus.beta.values)
                     - support.restrict(minus.beta.values)) / (2.0 * h)
    return jac


def fd_divergence(problem: Problem, h: float | None = None, *,
                  kkt_tol: float = ORACLE_KKT_TOL, max_iter: int = 200_000) -> float:
    """Central-difference divergence of the prediction map y -> X beta(y)."""
    h = _fd_step(problem, h)
    opts = SolverOptions(kkt_tol=kkt_tol, max_iter=max_iter)
    x = problem.design.matrix
    total = 0.0
    for i, plus, minus in _probe_pairs(problem, h, opts):
        total += (float(x[i] @ plus.beta.values)
                  - float(x[i] @ minus.beta.values)) / (2.0 * h)
    return total


@dataclasses.dataclass(frozen=True)
class McDofResult:
    """Monte Carlo DOF estimates with their standard errors.

    `mc_dof` is the Stein-identity estimator mean_k sum_i (y_i - mu0_i)
    mu_hat_i / sigma^2 (unbiased for the DOF given the true mu0).
    `mean_divergence` averages the closed-form divergence over replicates.
    """

    replicates: int
    mc_dof: float
    mc_stderr: float
    mean_divergence: float
    div_stderr: float
    sigma: float
    n_failed: int = 0
    n_warned: int = 0

    @property
    def combined_stderr(self) -> float:
        return math.hypot(self.mc_stderr, self.div_stderr)

    def consistent(self, n_sigma: float = 3.0) -> bool:
        """Unbiasedness verdict: divergence within n_sigma of the MC DOF."""
        return abs(self.mean_divergence - self.mc_dof) <= n_sigma * self.combined_stderr

    def to_dict(self) -> dict:
        return dict(dataclasses.asdict(self), combined_stderr=self.combined_stderr,
                    consistent_3sigma=self.consistent())

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def replicate_rng(seed: int, k: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for replicate k of a seeded run."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def mc_dof(scenario, lam: float, replicates: int, seed: int = 0, *,
           exclude_warned: bool = False,
           opts: SolverOptions | None = None) -> McDofResult:
    """Monte Carlo DOF of the group lasso at fixed lambda, from known mu0.

    Draws y_k = mu0 + sigma * xi_k with a per-replicate derived RNG stream,
    so results are bit-identical for a given seed.  Solves use fresh cold
    starts.  Replicates
    whose solve fails to certify are excluded and counted in n_failed;
    replicates carrying a transition warning are excluded only when
    `exclude_warned` is set (the warned set has probability zero in theory).
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    sigma = float(scenario.sigma)
    if not sigma > 0:
        raise ValueError("scenario sigma must be positive")
    opts = opts or SolverOptions()
    mu0 = scenario.mu0
    q = scenario.design.Q

    def run_one(k):
        y = mu0 + sigma * replicate_rng(seed, k).standard_normal(q)
        problem = Problem(scenario.design, y, lam, scenario.partition)
        try:
            sol = solve(problem, opts)
        except ConvergenceError:
            return None
        report = dof_estimate(problem, sol)
        mu_hat = scenario.design.matrix @ sol.beta.values
        return y, mu_hat, report.divergence, report.warning

    outcomes = [run_one(k) for k in range(replicates)]

    kept = [o for o in outcomes if o is not None]
    n_failed = replicates - len(kept)
    n_warned = sum(1 for o in kept if o[3])
    if exclude_warned:
        kept = [o for o in kept if not o[3]]
    n = len(kept)
    if n < 2:
        raise ValueError(f"only {n} usable replicates (of {replicates} requested)")

    ys = np.stack([o[0] for o in kept])
    mus = np.stack([o[1] for o in kept])
    divs = np.array([o[2] for o in kept])

    stein = np.sum((ys - mu0) * mus, axis=1) / sigma**2

    return McDofResult(
        replicates=n,
        mc_dof=float(stein.mean()),
        mc_stderr=float(np.std(stein, ddof=1) / math.sqrt(n)),
        mean_divergence=float(divs.mean()),
        div_stderr=float(np.std(divs, ddof=1) / math.sqrt(n)),
        sigma=sigma,
        n_failed=n_failed,
        n_warned=n_warned,
    )
