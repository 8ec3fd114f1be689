"""Sensitivity of the group lasso solution and its degrees of freedom.

Away from a Lebesgue-null set of observations, the solution map y -> beta(y)
is differentiable with a constant block support, and its on-support Jacobian
is the solve

    (X_I' X_I + lambda * deltaP(beta_I))  d  =  X_I'

where deltaP is the block-diagonal scaled-projector operator from `core`.
The trace of X_I d is the divergence of the prediction map y -> X beta(y),
which is an unbiased estimate of the degrees of freedom under Gaussian
noise.  Near the exceptional set the formula is numerically fragile; the
proximity diagnostics below quantify how close an instance is.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import BlockPartition, BlockSupport
from .solver import Problem, Solution, factor_solve

# margins below these relative thresholds flag the differential as fragile
TRANSITION_RTOL = 1e-6
SUPPORT_RTOL = 1e-6


@dataclass(frozen=True)
class DofReport:
    """Divergence-based DOF estimate plus transition-proximity diagnostics."""

    divergence: float
    support: BlockSupport
    transition_margin: float
    support_margin: float
    warning: bool
    # the solution's factor, kept for `condition_estimate`; None when the
    # support is empty
    factor: tuple[np.ndarray, bool] | None = field(default=None, compare=False,
                                                    repr=False)

    @functools.cached_property
    def condition_estimate(self) -> float:
        """LAPACK 1-norm estimate of the system matrix's condition number
        (1 for an empty support), computed on first read."""
        return 1.0 if self.factor is None else _condition(self.factor)

    def to_dict(self) -> dict:
        def finite(x):
            return None if math.isinf(x) else x

        return {
            "divergence": self.divergence,
            "active_blocks": list(self.support.active),
            "active_dim": self.support.active_dim,
            "transition_margin": finite(self.transition_margin),
            "support_margin": finite(self.support_margin),
            "condition_estimate": self.condition_estimate,
            "warning": self.warning,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _condition(factor) -> float:
    """1-norm condition estimate 1/rcond of the matrix factored in `factor`."""
    low = np.tril(factor[0])
    anorm = float(np.max(np.sum(np.abs(low @ low.T), axis=0)))
    rcond, _ = scipy.linalg.lapack.dpocon(low, anorm, uplo="L")
    return 1.0 / rcond if rcond > 0 else math.inf


def differential(problem: Problem, solution: Solution) -> np.ndarray:
    """On-support Jacobian of y -> beta(y), as an |I| x Q matrix.

    Rows are indexed by the active coordinates (stacked in block order);
    rows of the full differential outside the support are identically zero.
    Requires a nonempty support; the solve reuses the solution's Cholesky
    factor of the system matrix.
    """
    if solution.support.is_empty:
        raise ValueError("differential requires a nonempty block support")
    xi = problem.design.columns(solution.support.indices)
    return factor_solve(solution.factor, xi.T)


def _room(problem: Problem, solution: Solution):
    """(active, room): the active-block mask and each block's room before
    the support changes, ||beta_b|| if active and lambda - ||X_b'r|| if not."""
    partition, beta = problem.partition, solution.beta
    active = np.zeros(partition.n_blocks, dtype=bool)
    active[list(solution.support.active)] = True
    corr_norms = partition.block_norms(problem.xty() - problem.design.gram @ beta)
    return active, np.where(active, partition.block_norms(beta), problem.lam - corr_norms)


def transition_proximity(problem: Problem, solution: Solution,
                         transition_rtol: float = TRANSITION_RTOL,
                         support_rtol: float = SUPPORT_RTOL):
    """Distance of a certified solution from a support-changing boundary.

    Returns (transition_margin, support_margin, warning):

      * transition_margin: min over inactive blocks of lambda - ||X_b' r||,
        +inf when every block is active;
      * support_margin: min active block norm, +inf when the support is empty;
      * warning: True when either margin falls below its relative threshold,
        meaning the differential formula is numerically fragile at y.
    """
    active, room = _room(problem, solution)
    transition_margin = float(np.min(room[~active], initial=math.inf))
    support_margin = float(np.min(room[active], initial=math.inf))
    scale = np.max(np.abs(solution.beta))
    warning = bool(transition_margin < transition_rtol * problem.lam
                   or support_margin < support_rtol * scale)
    return max(transition_margin, 0.0), max(support_margin, 0.0), warning


def coordinate_radius(problem: Problem, solution: Solution) -> float:
    """First-order radius of the support along the coordinate directions.

    The largest h such that the linearization of the solution at y keeps
    the block support at every y + t e_i, |t| <= h:

        min over inactive b and i of (lambda - ||X_b'r||) / ||X_b'(I - X_I J) e_i||
        min over active b and i of  ||beta_b|| / ||J_b e_i||

    with r = y - X beta and J = `differential` (zero on an empty support),
    in the units of y; +inf when no coordinate moves the solution toward a
    boundary.  It costs O(Q N |I|), so only `validate fd` computes it.
    """
    support = solution.support
    # d(X'r)/dy and d(beta)/dy, both N x Q
    dcorr = problem.design.matrix.T.copy()
    dbeta = np.zeros_like(dcorr)
    if not support.is_empty:
        jac = differential(problem, solution)
        dcorr -= problem.design.gram[:, support.indices] @ jac
        dbeta[support.indices] = jac
    active, room = _room(problem, solution)
    speed = np.where(active[:, None], problem.partition.block_norms(dbeta),
                     problem.partition.block_norms(dcorr)).max(axis=1)
    radii = np.divide(np.maximum(room, 0.0), speed, out=np.full(room.shape, math.inf),
                      where=speed > 0.0)
    return float(radii.min())


def dof_estimate(problem: Problem, solution: Solution) -> DofReport:
    """Unbiased DOF estimate tr(X_I d(y)) with proximity diagnostics.

    An empty support means the prediction map is locally constant at zero,
    so the divergence is 0.  Otherwise the trace and `condition_estimate`
    (a LAPACK 1-norm estimate, computed only when read) both come from the
    solution's factor.
    """
    transition_margin, support_margin, warning = transition_proximity(problem, solution)
    if solution.support.is_empty:
        return DofReport(0.0, solution.support, transition_margin,
                         support_margin, warning)

    idx = solution.support.indices
    gram_ii = problem.design.gram[idx[:, None], idx]
    # tr(X_I A^{-1} X_I') = tr(A^{-1} X_I' X_I)
    divergence = float(np.trace(factor_solve(solution.factor, gram_ii)))
    return DofReport(divergence, solution.support, transition_margin,
                     support_margin, warning, solution.factor)


def dof_identity_closed_form(y, lam: float, partition: BlockPartition) -> float:
    """DOF of block soft thresholding (identity design), in closed form.

    Sums |b| - lam * (|b| - 1) / ||y_b|| over the blocks with ||y_b|| > lam.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    norms = partition.block_norms(y)
    sizes = partition.block_sizes
    live = norms > lam
    return float(np.sum(sizes[live] - lam * (sizes[live] - 1) / norms[live]))
