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

`dof_batch` gives the solutions of `solver.solve_batch` on the columns of a
Q x K matrix of observations (Monte Carlo replicates, or one y at each
lambda of a path) with their reports, one chunk of the solver's finish at a
time.  The reports of a chunk are one pass: each column's W, by one
`dtrtri`, goes into a stack padded to the chunk's largest support, in the
block order of `BlockSupport.indices`, and the W_b u_b of every active
block of every column are sums over the runs of one block in that order,
read from `BlockPartition.block_index`; no other m^3 work is done, and no
Problem or per-column support index is built.  `dof_estimate` is that pass
on one column.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import BlockPartition, BlockSupport, Design, stacked_coordinates
from .solver import Problem, Solution, SolverOptions, factor_solve, solve_chunks


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
    return float(_fd_steps(problem.y[:, None])[0])


def _fd_steps(ys) -> np.ndarray:
    """`fd_step` of each column of a Q x K matrix of observations."""
    scale = np.max(np.abs(ys), axis=0)
    return 1e-5 * np.where(scale == 0.0, 1.0, scale)


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
    This is the code of `dof_batch` at K = 1.
    """
    (report,) = _reports(problem.design, problem.partition, np.array([problem.lam]),
                         _fd_steps(problem.y[:, None]), [solution])
    return report


def dof_batch(design: Design, ys, lam, partition: BlockPartition,
              opts: SolverOptions | None = None):
    """`solve_batch` of each column of `ys` at `lam`, with its DOF report.

    Returns an iterator over the columns in order, yielding (Solution,
    DofReport) for a certified column and (ConvergenceError, None) for one
    that does not certify.  The reports of each chunk of the finish
    (`solve_chunks`: c columns whose supports have at most m_max
    coordinates, with c x m_max^2 <= `solver.CHUNK_ENTRIES`, or one column)
    are one pass of `dof_estimate`'s code, before the next chunk is
    finished, so memory stays bounded by the chunk and no report is kept
    once yielded.
    """
    chunks = solve_chunks(design, ys, lam, partition, opts)
    ys = np.asarray(ys, dtype=float)
    lams = np.broadcast_to(np.asarray(lam, dtype=float), ys.shape[1:])
    return _paired(design, partition, lams, _fd_steps(ys), chunks)


def _paired(design, partition, lams, steps, chunks):
    """Each result of `solve_chunks` with its report (None for a
    ConvergenceError), the reports of a chunk from one `_reports` pass."""
    lo = 0
    for chunk in chunks:
        cols = [lo + i for i, sol in enumerate(chunk) if isinstance(sol, Solution)]
        reports = iter(_reports(design, partition, lams[cols], steps[cols],
                                [sol for sol in chunk if isinstance(sol, Solution)]))
        lo += len(chunk)
        for sol in chunk:
            yield sol, (next(reports) if isinstance(sol, Solution) else None)
        # no result of this chunk is held while the next one is finished
        del chunk, reports


def _reports(design, partition, lams, steps, solutions):
    """The DofReport of each Solution, at its lambda and `fd_step`, in one
    pass: the inverse factors W of the columns with a nonempty support are
    stacked c x m_max x m_max, and each block's W_b (Id - u_b u_b') is formed
    from the stack's block sums, runs of `BlockPartition.block_index`."""
    t_margin = np.array([s.transition_margin for s in solutions])
    s_margin = np.array([s.support_margin for s in solutions])
    radius = t_margin / math.sqrt(design.lipschitz)
    # an empty support bounds nothing, even if lambda_min = 0
    bounded = s_margin < math.inf
    if bounded.any():
        radius[bounded] = np.minimum(radius[bounded], s_margin[bounded]
                                     * math.sqrt(design.min_eigenvalue))
    divergence = np.zeros(len(solutions))
    live = [t for t, s in enumerate(solutions) if not s.support.is_empty]
    if live:
        divergence[live] = _divergences(partition, lams[live], [solutions[t] for t in live])
    return [DofReport(float(d), s.support, float(tm), float(sm), float(r), bool(r < h),
                      s.factor)
            for d, s, tm, sm, r, h in zip(divergence, solutions, t_margin, s_margin, radius,
                                          steps)]


def _divergences(partition, lams, solutions):
    """m - lambda sum_b ||W_b (Id - u_b u_b')||_F^2 / ||beta_b|| of each
    Solution (nonempty supports), W = L^-1 by one `dtrtri` per column."""
    g = len(solutions)
    active = np.zeros((partition.n_blocks, g), dtype=bool)
    for t, s in enumerate(solutions):
        active[list(s.support.active), t] = True
    idx, real, dims = stacked_coordinates(partition, active)
    width = idx.shape[1]
    # row t * width + r holds column r of W_t, the inverse of column t's
    # factor, whose zeros above the diagonal it keeps; pads are zero rows
    rows = np.zeros((g, width, width))
    for t, s in enumerate(solutions):
        m = dims[t]
        rows[t, :m, :m] = scipy.linalg.lapack.dtrtri(s.factor[0], lower=1)[0].T
    rows = rows.reshape(g * width, width)
    # the runs of one block in the stacked coordinates, each column's first
    # run starting a new one: a pad joins its column's last run
    label = partition.block_index[idx]
    first = real.copy()
    first[:, 1:] &= label[:, 1:] != label[:, :-1]
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    betas = np.column_stack([s.beta for s in solutions])
    beta_i = np.where(real, betas[idx, np.arange(g)[:, None]], 0.0).ravel()
    # ||beta_b|| at each stacked coordinate, and u_b there (0 at the pads)
    norms = np.sqrt(np.add.reduceat(np.square(beta_i), starts))[run]
    units = beta_i / norms
    # W_b u_b of every run, then W_b (Id - u_b u_b') in the columns of block
    # b, in place: no more than one other array of the stack's size is held
    scaled = rows * units[:, None]
    wu = np.add.reduceat(scaled, starts, axis=0)
    np.take(wu, run, axis=0, out=scaled)
    scaled *= units[:, None]
    rows -= scaled
    del scaled
    sums = (np.square(rows, out=rows).sum(axis=1) / norms).reshape(g, width).sum(axis=1)
    return dims - lams * sums


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
