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
time.  The reports of a chunk are one pass over its `solver.Chunk`, the
record of arrays that the finish yields: each column's W, by one `dtrtri`,
goes into a stack padded to the chunk's largest support, in the block order
of `BlockSupport.indices`, and the W_b u_b of every active block of every
column are sums over the runs of one block in that order, read from the
chunk's masks and `BlockPartition.block_index`; no other m^3 work is done,
and no Problem or per-column support index is built.  `dof_estimate` is
that pass on one column, its Solution's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import BlockPartition, BlockSupport, Design, stacked_coordinates
from .solver import (ConvergenceError, Problem, Solution, SolverOptions, factor_solve,
                     solve_chunks)


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
    partition, support = problem.partition, solution.support
    active = np.zeros((partition.n_blocks, 1), dtype=bool)
    active[list(support.active)] = True
    (divergence,), (radius,) = _reports(
        problem.design, partition, np.array([problem.lam]), solution.beta[:, None], active,
        np.array([solution.transition_margin]), np.array([solution.support_margin]),
        [solution.factor])
    return _report(solution, divergence, radius, fd_step(problem))


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
    opts = opts or SolverOptions()
    chunks = solve_chunks(design, ys, lam, partition, opts)
    ys = np.asarray(ys, dtype=float)
    lams = np.broadcast_to(np.asarray(lam, dtype=float), ys.shape[1:])
    return _paired(design, partition, lams, _fd_steps(ys), chunks, opts)


def _paired(design, partition, lams, steps, chunks, opts):
    """Each column of the `Chunk`s of `solve_chunks`, as `Chunk.result`,
    with its report (None for a ConvergenceError), the reports of a chunk
    from one `_reports` pass."""
    lo, supports = 0, {}
    for chunk in chunks:
        hi = lo + chunk.size
        divergence, radius = _reports(design, partition, lams[lo:hi], chunk.beta, chunk.active,
                                      chunk.transition_margin, chunk.support_margin,
                                      chunk.factors)
        for result, d, r, h in zip(chunk.results(partition, opts, supports), divergence,
                                   radius, steps[lo:hi]):
            yield result, (None if isinstance(result, ConvergenceError)
                           else _report(result, d, r, h))
        lo = hi
        # no result of this chunk is held while the next one is finished
        del chunk, result


def _report(solution, divergence, radius, step) -> DofReport:
    """The DofReport of a Solution, its divergence and radius, at `fd_step`."""
    return DofReport(float(divergence), solution.support, solution.transition_margin,
                     solution.support_margin, float(radius), bool(radius < step),
                     solution.factor)


def _reports(design, partition, lams, beta, active, t_margin, s_margin, factors):
    """The divergence and the radius of each column of a finish chunk, from
    its point (N x c), block mask, two margins and factor, at its lambda, in
    one pass: the inverse factors W of the columns with a nonempty mask are
    stacked c x m_max x m_max, and each block's W_b (Id - u_b u_b') is formed
    from the stack's block sums, runs of `BlockPartition.block_index`.  A
    failed column's mask is empty, so it costs no m^3 work."""
    radius = t_margin / math.sqrt(design.lipschitz)
    # an empty support bounds nothing, even if lambda_min = 0
    bounded = s_margin < math.inf
    if bounded.any():
        radius[bounded] = np.minimum(radius[bounded], s_margin[bounded]
                                     * math.sqrt(design.min_eigenvalue))
    divergence = np.zeros(active.shape[1])
    live = np.flatnonzero(active.any(axis=0))
    if live.size:
        divergence[live] = _divergences(partition, lams[live], beta[:, live], active[:, live],
                                        [factors[t] for t in live])
    return divergence, radius


def _divergences(partition, lams, betas, active, factors):
    """m - lambda sum_b ||W_b (Id - u_b u_b')||_F^2 / ||beta_b|| of each
    column of the points `betas` (N x g) with a nonempty mask `active`,
    W = L^-1 by one `dtrtri` per column's factor."""
    g = active.shape[1]
    idx, real, dims = stacked_coordinates(partition, active)
    width = idx.shape[1]
    # row t * width + r holds column r of W_t, the inverse of column t's
    # factor, whose zeros above the diagonal it keeps; pads are zero rows
    rows = np.zeros((g, width, width))
    for t, factor in enumerate(factors):
        m = dims[t]
        rows[t, :m, :m] = scipy.linalg.lapack.dtrtri(factor[0], lower=1)[0].T
    rows = rows.reshape(g * width, width)
    # the runs of one block in the stacked coordinates, each column's first
    # run starting a new one: a pad joins its column's last run
    label = partition.block_index[idx]
    first = real.copy()
    first[:, 1:] &= label[:, 1:] != label[:, :-1]
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1
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
