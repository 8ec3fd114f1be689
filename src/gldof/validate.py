"""Independent numerical oracles for the sensitivity and DOF results.

Jacobians and divergences come from central finite differences of
re-solved problems, and the DOF is re-estimated from Monte Carlo replicates
of the noise model.  Agreement between these oracles and the analytic
formulas is the package's main correctness evidence.  The finite-difference
probes step on the base solution's factor, which the differential reads
too, for speed alone: a probe is kept only at the solver's stationarity stop,
on its start support and with its own KKT certificate, none of which reads
the factor, so a wrong factor slows the probes, or sends them back to FISTA,
but does not move them.  The probes are read as the solver's arrays, one
`solver.Chunk` per finish chunk, and no Solution is built for them.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .dof import dof_batch, fd_step
from .solver import Problem, Solution, SolverOptions, solve, solve_chunks

# oracle solves are tightened well below the comparison tolerances so that
# solver noise does not leak into the finite differences; such a tolerance
# needs a larger iteration budget than `solve`'s default
ORACLE_KKT_TOL = 1e-12
ORACLE_MAX_ITER = 200_000


class TransitionCrossingError(RuntimeError):
    """A finite-difference probe changed the block support."""


def fd_oracle(problem: Problem, h: float | None = None, *, base: Solution | None = None,
              max_iter: int = ORACLE_MAX_ITER) -> tuple[np.ndarray, float]:
    """Central differences of y -> beta(y) on the support of `base`.

    Solves the problem at y +/- h e_i for every observation coordinate, as
    one `solve_chunks` of 2Q columns from `base` (h defaults to `fd_step`,
    and no probe may equal y), read as arrays: the Jacobian is (B[I, 0::2]
    - B[I, 1::2]) / d from the N x 2Q matrix B of the probes' points.  `base` is the solution at y itself, solved
    here when not given; its factor sets the probes' speed, not their values
    (module docstring).  Returns the |I| x Q Jacobian of y -> beta(y)_I and
    the divergence of y -> X beta(y), sum_i x_i'(beta(y + h e_i) -
    beta(y - h e_i)) / d_i, 0 for an empty support; d_i = (y_i + h) -
    (y_i - h) is the step the floats take, 2h only up to the spacing of the
    floats at y_i.  Raises, at the first offending probe in column order,
    the ConvergenceError of an uncertified probe, or TransitionCrossingError
    if its block support differs from that of `base` (the restriction to I,
    and the divergence of a fixed support, are then invalid).
    """
    h = fd_step(problem) if h is None else h
    if not 0.0 < h < math.inf:
        raise ValueError("step h must be positive and finite")
    if not step_resolves(problem.y, h):
        raise ValueError(f"step h = {h:g} is below the resolution of y: some probe "
                         "y +/- h e_i equals y")
    opts = SolverOptions(kkt_tol=ORACLE_KKT_TOL, max_iter=max_iter)
    base = base if base is not None else solve(problem, opts)
    support, partition, q = base.support, problem.partition, problem.design.Q
    mask = np.zeros((partition.n_blocks, 1), dtype=bool)
    mask[list(support.active)] = True
    # columns y + h e_0, y - h e_0, y + h e_1, ...
    ys = problem.y[:, None] + h * np.kron(np.eye(q), [1.0, -1.0])
    steps = (problem.y + h) - (problem.y - h)
    lo, on_support = 0, []
    for chunk in solve_chunks(problem.design, ys, problem.lam, partition, opts, base=base):
        # the first uncertified probe, or probe off base's support, in column order
        bad = np.flatnonzero(chunk.failed | (chunk.active != mask).any(axis=0))
        if bad.size:
            if chunk.failed[bad[0]]:
                raise chunk.result(bad[0], partition, opts, {})
            i, sign = divmod(lo + int(bad[0]), 2)
            raise TransitionCrossingError(f"support changed at probe y[{i}] {'+-'[sign]} h")
        on_support.append(chunk.beta[support.indices])
        lo += chunk.size
    betas = np.hstack(on_support)
    jac = (betas[:, 0::2] - betas[:, 1::2]) / steps
    # on the fixed support x_i'(beta+ - beta-) / d_i is x_{i,I}' jac[:, i]
    divergence = float(np.sum(problem.design.columns(support.indices) * jac.T))
    return jac, divergence


def step_resolves(y, h: float) -> bool:
    """Whether every probe y +/- h e_i of `fd_oracle` differs from y: a step
    below half the spacing of the floats at y_i leaves y_i as it is."""
    y = np.asarray(y, dtype=float)
    return bool(np.all((y + h != y) & (y - h != y)))


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

    def consistent(self) -> bool:
        """Unbiasedness verdict: divergence within 3 combined standard errors
        of the MC DOF."""
        return abs(self.mean_divergence - self.mc_dof) <= 3.0 * self.combined_stderr

    def to_dict(self) -> dict:
        return dict(dataclasses.asdict(self), combined_stderr=self.combined_stderr,
                    consistent_3sigma=self.consistent())


def replicate_rng(seed: int, k: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for replicate k of a seeded run."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def mc_dof(scenario, lam: float, replicates: int, seed: int = 0, *,
           exclude_warned: bool = False) -> McDofResult:
    """Monte Carlo DOF of the group lasso at fixed lambda, from known mu0.

    Draws y_k = mu0 + sigma * xi_k with a per-replicate derived RNG stream
    and solves all replicates, with their DOF reports, as one `dof_batch`
    (cold starts), so results are bit-identical for a given seed and
    replicate count.  Replicates whose solve fails to certify are excluded
    and counted in n_failed; replicates carrying a transition warning are
    excluded only when `exclude_warned` is set (the warned set has
    probability zero in theory).
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
    for y, (sol, report) in zip(ys.T, dof_batch(design, ys, lam, partition)):
        if report is None:
            continue
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
