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
from .solver import ConvergenceError, Problem, Solution, SolverOptions, solve, solve_batch

# oracle solves are tightened well below the comparison tolerances so that
# solver noise does not leak into the finite differences; such a tolerance
# needs a larger iteration budget than `solve`'s default
ORACLE_KKT_TOL = 1e-12
ORACLE_MAX_ITER = 200_000


class TransitionCrossingError(RuntimeError):
    """A finite-difference probe changed the block support."""


def fd_step(problem: Problem) -> float:
    """The default fd step, 1e-5 * max|y| (1e-5 when y = 0): relative to y,
    so a rescaled problem takes the rescaled step."""
    return 1e-5 * (float(np.max(np.abs(problem.y))) or 1.0)


def fd_oracle(problem: Problem, h: float | None = None, *, base: Solution | None = None,
              kkt_tol: float = ORACLE_KKT_TOL,
              max_iter: int = ORACLE_MAX_ITER) -> tuple[np.ndarray, float]:
    """Central differences of y -> beta(y) on the support of `base`.

    Solves the problem at y +/- h e_i for every observation coordinate, as
    one `solve_batch` of 2Q columns (h defaults to `fd_step`).  `base` is the
    solution at y itself, solved here when not given.  Returns the |I| x Q
    Jacobian of y -> beta(y)_I and the divergence of y -> X beta(y),
    sum_i x_i'(beta(y + h e_i) - beta(y - h e_i)) / 2h, which for an empty
    support is 0.  Raises TransitionCrossingError if any probe's block
    support differs from that of `base` (the restriction to I, and the
    divergence of a fixed support, are then invalid), and the
    ConvergenceError of an uncertified probe.
    """
    h = fd_step(problem) if h is None else h
    if not h > 0:
        raise ValueError("step h must be positive")
    opts = SolverOptions(kkt_tol=kkt_tol, max_iter=max_iter)
    support = (base if base is not None else solve(problem, opts)).support
    q = problem.design.Q
    # columns y + h e_0, y - h e_0, y + h e_1, ...
    ys = problem.y[:, None] + h * np.kron(np.eye(q), [1.0, -1.0])
    results = solve_batch(problem.design, ys, problem.lam, problem.partition, opts)
    jac = np.empty((support.active_dim, q))
    for i, pair in enumerate(zip(results, results)):
        for sol, sign in zip(pair, "+-"):
            if isinstance(sol, ConvergenceError):
                raise sol
            if sol.support.active != support.active:
                raise TransitionCrossingError(f"support changed at probe y[{i}] {sign} h")
        plus, minus = (support.restrict(sol.beta) for sol in pair)
        jac[:, i] = (plus - minus) / (2.0 * h)
    # on the fixed support x_i'(beta+ - beta-) / 2h is x_{i,I}' jac[:, i]
    divergence = float(np.sum(problem.design.columns(support.indices) * jac.T))
    return jac, divergence


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

    Draws y_k = mu0 + sigma * xi_k with a per-replicate derived RNG stream
    and solves all replicates as one `solve_batch` (cold starts), so results
    are bit-identical for a given seed and replicate count.  Replicates
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
    design, partition, mu0 = scenario.design, scenario.partition, scenario.mu0
    ys = mu0[:, None] + sigma * np.column_stack(
        [replicate_rng(seed, k).standard_normal(design.Q) for k in range(replicates)])

    # per kept replicate: Stein term, divergence, transition warning
    kept = []
    for y, sol in zip(ys.T, solve_batch(design, ys, lam, partition, opts)):
        if isinstance(sol, ConvergenceError):
            continue
        report = dof_estimate(Problem(design, y, lam, partition), sol)
        stein = float((y - mu0) @ (design.matrix @ sol.beta)) / sigma**2
        kept.append((stein, report.divergence, report.warning))
    n_failed = replicates - len(kept)
    n_warned = sum(1 for o in kept if o[2])
    if exclude_warned:
        kept = [o for o in kept if not o[2]]
    n = len(kept)
    if n < 2:
        raise ValueError(f"only {n} usable replicates (of {replicates} requested)")

    stein, divs = np.array([o[:2] for o in kept]).T
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
