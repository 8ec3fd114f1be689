"""Sensitivity of the group lasso solution and its degrees of freedom.

Away from a Lebesgue-null set of observations, the solution map y -> beta(y)
is differentiable with a constant block support, and its on-support Jacobian
is the solve

    (X_I' X_I + lambda * deltaP(beta_I))  d  =  X_I'

where deltaP is block diagonal, (Id - u_b u_b') / ||beta_b|| on each active
block b with u_b = beta_b / ||beta_b||, assembled by the solver's finish.
The trace of X_I d is the divergence of the prediction map y -> X beta(y),
which is an unbiased estimate of the degrees of freedom under Gaussian
noise.  Near the exceptional set the formula is numerically fragile: the
report turns the solution's two margins from a support change, computed by
the solver's finish, into a certified radius of the support and a warning.

The divergence needs the solution alone.  With A = X_I'X_I + lambda deltaP
= L L' the matrix that the solution's factor L factors, and W = L^-1,

    tr(A^-1 X_I'X_I) = m - lambda tr(A^-1 deltaP)
                     = m - lambda sum_b ||W_b (Id - u_b u_b')||_F^2 / ||beta_b||,

since A^-1 = W'W and deltaP is block diagonal; W_b holds the columns of W
of block b.  Inverting L (LAPACK `dtrtri`, Higham, "Accuracy and Stability
of Numerical Algorithms", 2nd ed., ch. 14) costs m^3/3 flops, as the
factorization does, against 2m^3 for a solve on m right-hand sides.  The
projector is applied to W_b before squaring: on a block of small norm W_b
is nearly W_b u_b u_b', and the equal ||W_b||^2 - ||W_b u_b||^2 would lose
the small part it leaves to cancellation, then divide it by ||beta_b||.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import BlockPartition, BlockSupport
from .solver import Problem, Solution, factor_solve


@dataclass(frozen=True)
class DofReport:
    """Divergence-based DOF estimate plus transition-proximity diagnostics."""

    divergence: float
    support: BlockSupport
    transition_margin: float
    support_margin: float
    # certified first-order radius of the support, in the units of y
    radius: float
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


def fd_step(problem: Problem) -> float:
    """The default fd step, 1e-5 * max|y| (1e-5 when y = 0): relative to y,
    so a rescaled problem takes the rescaled step."""
    return 1e-5 * (float(np.max(np.abs(problem.y))) or 1.0)


def dof_estimate(problem: Problem, solution: Solution) -> DofReport:
    """Unbiased DOF estimate tr(X_I d(y)) with proximity diagnostics.

    An empty support means the prediction map is locally constant at zero,
    so the divergence is 0.  Otherwise the trace and `condition_estimate`
    (a LAPACK 1-norm estimate, computed only when read) both come from the
    solution's factor: the trace as m - lambda sum_b ||W_b (Id - u_b u_b')||_F^2
    / ||beta_b|| with W the inverse of the factor, by triangular inversion
    (m^3/3 flops) and no Gram matrix (module docstring).

    The margins are the solution's, from the solver's finish.  `radius` is
    r = min(transition_margin / sqrt(L), support_margin * sqrt(lambda_min(X'X))),
    L = `Design.lipschitz`: along every unit direction of y the linearized
    solution keeps its support for steps below r, since an inactive
    ||X_b'r|| moves at speed ||X_b'(I - X_I J)|| <= sqrt(L) and an active
    beta_b at speed ||J|| <= ||A^-1||^(1/2) <= lambda_min(X'X)^(-1/2), with
    J = `differential` and A = X_I'X_I + lambda deltaP, deltaP >= 0.
    `warning` is r < `fd_step`: the differential is numerically fragile at y.
    """
    transition_margin, support_margin = solution.transition_margin, solution.support_margin
    radius = transition_margin / math.sqrt(problem.design.lipschitz)
    if support_margin < math.inf:  # an empty support bounds nothing, even if lambda_min = 0
        radius = min(radius, support_margin * math.sqrt(problem.design.min_eigenvalue))
    warning = radius < fd_step(problem)
    if solution.support.is_empty:
        return DofReport(0.0, solution.support, transition_margin, support_margin, radius,
                         warning)

    support = solution.support
    ind = support.indicator
    beta_i = solution.beta[support.indices]
    # ||beta_b|| at each active coordinate, and U', the active blocks x m
    # matrix whose row b holds u_b on block b's coordinates
    norms = np.sqrt(ind @ np.square(beta_i)) @ ind
    units = ind * (beta_i / norms)
    # W (Id - U U') holds W_b (Id - u_b u_b') in the columns of each block b;
    # W = L^-1 keeps the factor's zeros above the diagonal
    w = scipy.linalg.lapack.dtrtri(solution.factor[0], lower=1)[0]
    proj = w - (w @ units.T) @ units
    divergence = support.active_dim - problem.lam * float(
        np.square(proj).sum(axis=0) @ (1.0 / norms))
    return DofReport(divergence, solution.support, transition_margin, support_margin, radius,
                     warning, solution.factor)


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
