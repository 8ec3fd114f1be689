"""Group lasso solver: accelerated proximal gradient with a KKT certificate.

The objective  0.5 ||y - X b||^2 + lambda * sum_b ||b_b||  is strictly convex
for a full-column-rank design, so there is exactly one minimizer.  A solution
is returned only when the exact first-order conditions hold to ``kkt_tol``:

  * on every active block b:      X_b'(y - X b) = lambda * b_b / ||b_b||
  * on every inactive block b:  ||X_b'(y - X b)|| <= lambda

The solver first identifies the block support: it iterates FISTA with step
1/L (L the largest eigenvalue of X'X) and a monotone restart until the
conditions hold to the looser of ``kkt_tol`` and IDENTIFY_TOL, by when
forward-backward methods have found the support.  On that support the
conditions are smooth equations, and chord (simplified Newton) steps solve
them, all on the factor of their Jacobian X_I'X_I + lambda * deltaP(b_I),
the matrix of the solution's local differential, at the FISTA point; the
factor at the point reached is kept on the solution.  That point is kept
if it met the Newton stop, keeps the support and certifies no worse than
the FISTA point; a column whose kept point misses ``kkt_tol`` resumes FISTA
at ``kkt_tol`` and is finished again.  The finish also gives each solution
its two margins from a support change, which the DOF report reads.

`solve` takes one right-hand side.  `solve_batch` runs the same iteration
on the K columns of a Q x K matrix of observations sharing the design and
the partition, at one lambda (Monte Carlo replicates) or at one lambda per
column (a lambda path), with per-column momentum, restart, threshold and
certificate, and one batched finish: columns are finished and yielded in
order, a chunk at a time, and each chord step of a chunk is one pass over
all its columns whatever their supports.  The points stay N x c, as in
FISTA, and only the system matrices are compact: each column's X_I'X_I is
gathered once into a stack padded to the chunk's largest support
(c x m_max^2 entries, at most CHUNK_ENTRIES or one column's).
`solve` is that same code at K = 1: one FISTA start and iteration, one prox,
one certificate (`_violation`, which `kkt_check` evaluates too) and one
finish, equal to a column-by-column finish up to round-off.  The finish
yields one `Chunk` per chunk, a record of arrays (points, support masks,
certificates, margins, factors); `solve`, `solve_batch` and
`dof.dof_batch` turn its columns into Solutions with `Chunk.result`, one
BlockSupport per distinct mask, and `solve_chunks` hands the records
themselves to callers that read arrays.  Given a `base` Solution of nearby
observations (finite-difference probes), every column's finish starts at
base.beta and steps on base.factor, in one solve per step.

Tolerance policy.  Solving (s y, s lambda) gives s beta(y) and the same DOF,
so no tolerance is absolute:

  * certificate: the largest violation of the two conditions over
    s(y) = max_b ||X_b'y|| (`lambda_max` of y), the unit of `kkt_tol`,
    `kkt_residual` and `kkt_check`; when s(y) = 0 it is 0 at beta = 0, the
    solution, and +inf elsewhere;
  * support identification: FISTA's first stop, a certificate of at most
    max(kkt_tol, IDENTIFY_TOL) = 1e-5 by default, in the same unit;
  * active blocks: a block is active in the certificate exactly when its
    norm is nonzero (the prox sets inactive blocks to exact zeros);
  * support: norm above 1e-8 * max|beta|, the one rule, `core.block_support`;
  * Newton stop: stationarity residual at most NEWTON_STOP * s(y), met
    within NEWTON_STEPS chord steps, the last of them taken after it is met;
  * transition margin: a slack lambda - ||X_b'(y - X beta)|| within its own
    rounding bound reads as 0;
  * data scale: max(max|X'y|, lambda) within [1/SCALE_LIMIT, SCALE_LIMIT],
    the one absolute bound, from the range of the doubles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .core import BlockPartition, BlockSupport, Design, stacked_coordinates, support_mask

# chord steps of a column at most, the last one after it meets the Newton
# stop; they converge linearly: on the benchmark's inputs most take 4, one
# in 200 takes 8 to 14 (next to a small active block), and none needs more
NEWTON_STEPS = 16
# the Newton stop, relative to s(y): differencing divides the coefficient
# error by the step, so even a 1e-12 certificate leaves visible noise in
# finite-difference Jacobians
NEWTON_STOP = 1e-15
# a column's data scale max(max|X'y|, lambda) lies within [1/this, this], so
# that 2^-63 to 2^63 times it squares to normal doubles in every block norm
SCALE_LIMIT = 2.0**448
# columns `solve_batch` iterates on at once: its working memory is O(N x this)
BATCH_COLUMNS = 256
# padded system-matrix entries of a finish chunk, c x m_max^2 (1 MB), whatever
# N: a whole `validate mc` batch (50 columns with m <= 40) is one chunk, and a
# lambda path at N = 200 still goes in chunks of a few columns
CHUNK_ENTRIES = 2**17
# FISTA stops at this certificate, relative to s(y), when kkt_tol is tighter:
# the support is identified by then, and the chord finish certifies.
IDENTIFY_TOL = 1e-5


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before the KKT certificate was met.

    Carries the best iterate seen (`beta`, a read-only length-N array), its
    relative certificate value (`kkt_residual`) and the iteration count.
    """

    def __init__(self, message, beta, kkt_residual, iterations):
        super().__init__(message)
        self.beta = beta
        self.kkt_residual = kkt_residual
        self.iterations = iterations


@dataclass(frozen=True)
class Problem:
    """One group lasso instance: design, observations, lambda, partition."""

    design: Design
    y: np.ndarray
    lam: float
    partition: BlockPartition

    def __post_init__(self):
        y = np.ascontiguousarray(self.y, dtype=float)
        if y.ndim != 1 or y.size != self.design.Q or not np.isfinite(y).all():
            raise ValueError(f"y must be a finite vector of length Q={self.design.Q}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        if self.partition.total_dim != self.design.N:
            raise ValueError("partition dimension does not match design columns")
        y = y.copy()
        y.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "lam", float(self.lam))

    def with_y(self, y) -> "Problem":
        return replace(self, y=y)


def _gamma(design):
    """gamma_n = n u / (1 - n u), u the unit round-off, with n = Q + 2N + 4
    for X'y, X'X, (X'X) beta, the norm and the difference of a slack."""
    nu = (design.Q + 2 * design.N + 4) * np.finfo(float).eps / 2
    return nu / (1 - nu)


def _slack_bound(design, partition, ys, lams, beta):
    """The rounding bound of each slack lambda - ||X_b'(y - X beta)|| at each
    column of an N x K matrix of points, with observations ys (Q x K) and one
    lambda per column: gamma_n (||(|X|'(|y| + |X||beta|))_b|| + lambda)
    (Higham, 2nd ed., ch. 3: |fl(x'y) - x'y| <= gamma_n |x|'|y|)."""
    ax = np.abs(design.matrix)
    return _gamma(design) * (partition.block_norms(ax.T @ (np.abs(ys) + ax @ np.abs(beta)))
                             + lams)


def _cheap_slack_bound(design, partition, ys, lams, beta_norms):
    """An upper bound of `_slack_bound` from norms alone, given beta's block
    norms: ||(|X|'v)_b|| <= ||X_b||_F ||v|| and ||v|| <= ||y|| + ||X||_F
    ||beta|| for v = |y| + |X||beta|, doubled against its own rounding.
    ||X_b||_F^2 sums the diagonal of X'X over block b."""
    frob = np.sqrt(partition.indicator @ np.diagonal(design.gram))
    v = (np.sqrt(np.einsum("ij,ij->j", ys, ys))
         + math.sqrt(np.square(frob).sum()) * np.sqrt(np.square(beta_norms).sum(axis=0)))
    return 2.0 * _gamma(design) * (frob[:, None] * v + lams)


def _objective_and_margins(design, partition, ys, lams, beta, corr, beta_norms, on):
    """0.5 ||y - X b||^2 + lambda * sum of block norms, from scratch, and the
    `transition_margin` and `support_margin` of `Solution`, at each column
    of an N x K matrix of points, with the observations ys (Q x K), one
    lambda per column, corr = X'(y - X beta), beta's block norms and the
    block mask `on` of each column's support.  A slack lambda - ||X_b'r||
    within its rounding bound (`_slack_bound`) reads as 0; that bound is
    formed only for the columns where some inactive slack lies within
    `_cheap_slack_bound`, which dominates it."""
    fit = ys - design.matrix @ beta
    slack = lams - partition.block_norms(corr)
    near = np.flatnonzero(
        (~on & (slack <= _cheap_slack_bound(design, partition, ys, lams, beta_norms))).any(axis=0))
    if near.size:
        bound = _slack_bound(design, partition, ys[:, near], lams[near], beta[:, near])
        slack[:, near] = np.where(slack[:, near] <= bound, 0.0, slack[:, near])
    return (0.5 * np.einsum("ij,ij->j", fit, fit) + lams * beta_norms.sum(axis=0),
            np.where(on, math.inf, slack).min(axis=0),
            np.where(on, beta_norms, math.inf).min(axis=0))


@dataclass(frozen=True)
class SolverOptions:
    """The tolerance policy (module docstring) of every solve."""

    kkt_tol: float = 1e-8
    max_iter: int = 100_000

    def __post_init__(self):
        if not 0.0 < self.kkt_tol < math.inf:
            raise ValueError("kkt_tol must be positive and finite")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 0:
            raise ValueError("max_iter must be a non-negative integer")


@dataclass(frozen=True)
class Solution:
    """Certified minimizer with support, objective, and diagnostics."""

    beta: np.ndarray  # read-only, length N
    support: BlockSupport
    objective: float
    kkt_residual: float
    iterations: int
    # lambda - ||X_b'(y - X beta)|| of the tightest inactive block, clipped at
    # 0, and the smallest active block norm; +inf where there is no such block
    transition_margin: float
    support_margin: float
    # scipy.linalg.cho_factor pair of X_I'X_I + lambda * deltaP(beta_I) at
    # `beta`, lower triangle with zeros above it; None when the support is
    # empty, and on a column that stepped on a `base` factor
    factor: tuple[np.ndarray, bool] | None = field(default=None, compare=False,
                                                    repr=False)


@dataclass(frozen=True)
class Chunk:
    """The results of the c consecutive columns of one finish chunk, as
    arrays: column i of each belongs to the chunk's i-th column.  The fields
    are those of `Solution`, with each column's block mask in place of its
    BlockSupport, and `failed` marks the columns that did not certify, whose
    mask is empty and whose `iterations` is the budget.  Every array is
    read-only."""

    beta: np.ndarray  # N x c
    active: np.ndarray  # n_blocks x c
    objective: np.ndarray
    kkt_residual: np.ndarray
    iterations: np.ndarray
    transition_margin: np.ndarray
    support_margin: np.ndarray
    failed: np.ndarray
    factors: tuple = field(compare=False, repr=False)

    def __post_init__(self):
        for a in (self.beta, self.active, self.objective, self.kkt_residual, self.iterations,
                  self.transition_margin, self.support_margin, self.failed):
            a.setflags(write=False)

    @property
    def size(self) -> int:
        return self.failed.size

    def result(self, i: int, partition: BlockPartition, opts: SolverOptions, supports: dict):
        """Column i as `solve` returns it, a Solution, or as it raises it, a
        ConvergenceError, with a copy of its beta, so that no result pins
        the chunk.  `supports` holds the BlockSupport of each mask met so
        far, keyed by its bytes; columns with one mask share it."""
        beta = self.beta[:, i].copy()
        beta.setflags(write=False)
        if self.failed[i]:
            return ConvergenceError(
                f"no KKT certificate <= {opts.kkt_tol:g} within {opts.max_iter} iterations "
                f"(best residual {self.kkt_residual[i]:g})",
                beta=beta, kkt_residual=float(self.kkt_residual[i]), iterations=opts.max_iter)
        key = self.active[:, i].tobytes()
        if key not in supports:
            supports[key] = BlockSupport(partition, tuple(np.flatnonzero(self.active[:, i])))
        return Solution(
            beta=beta, support=supports[key], objective=float(self.objective[i]),
            kkt_residual=float(self.kkt_residual[i]), iterations=int(self.iterations[i]),
            transition_margin=float(self.transition_margin[i]),
            support_margin=float(self.support_margin[i]), factor=self.factors[i])

    def results(self, partition: BlockPartition, opts: SolverOptions, supports: dict) -> list:
        """`result` of every column, in order."""
        return [self.result(i, partition, opts, supports) for i in range(self.size)]


def _violation(partition: BlockPartition, corr, beta, beta_norms, lam):
    """Largest KKT violation at a point, or at each column of an N x K
    matrix of points: the one certificate of the solver, in units of X'y.

    corr = X'(y - X beta), beta_norms the block norms of beta, lam one
    value per column.  A block is active when its norm is nonzero.  The
    value is negative when every block is inactive with room to spare,
    which certifies as 0 does.
    """
    inactive = beta_norms == 0.0
    # beta_b / ||beta_b|| on active blocks; inactive blocks are exact zeros
    unit = beta / (beta_norms + inactive)[partition.block_index]
    dev = np.sqrt(partition.indicator @ np.square(corr - lam * unit))
    return (dev - lam * inactive).max(axis=0)


def _relative(viol, scale):
    """The certificate value viol / s(y), clipped at 0; where s(y) = 0 it is
    0 at a zero violation and +inf otherwise."""
    viol = np.maximum(viol, 0.0)
    return np.divide(viol, scale, out=np.where(viol == 0.0, 0.0, math.inf),
                     where=scale > 0.0)


def _residuals(partition: BlockPartition, gram, xty, beta, lam, scales):
    """`_violation` / s(y) at a point, or at each column of an N x K matrix
    of points: what `kkt_check` reports and the chord polish may not worsen."""
    viol = _violation(partition, xty - gram @ beta, beta, partition.block_norms(beta), lam)
    return _relative(viol, scales)


def kkt_check(problem: Problem, beta, tol: float = 0.0):
    """Evaluate the first-order optimality certificate at `beta`.

    Blocks with nonzero norm are treated as active; the residual is relative
    to s(y) = max_b ||X_b'y|| (see the module docstring).  Returns
    (kkt_residual, is_optimal) with is_optimal = residual <= tol.
    """
    partition, xty = problem.partition, problem.design.matrix.T @ problem.y
    resid = float(_residuals(partition, problem.design.gram, xty,
                             np.asarray(beta, dtype=float), problem.lam,
                             partition.block_norms(xty).max()))
    return resid, resid <= tol


def lambda_max(design: Design, y, partition: BlockPartition) -> float:
    """Smallest lambda for which beta = 0 is optimal: max_b ||X_b' y||."""
    return float(partition.block_norms(design.matrix.T @ np.asarray(y, dtype=float)).max())


def solve(problem: Problem, opts: SolverOptions | None = None, start=None) -> Solution:
    """Minimize the group lasso objective to a certified KKT residual.

    FISTA with step 1/L and monotone restart: whenever an accelerated step
    would increase the objective, momentum is dropped and a plain proximal
    gradient step (guaranteed descent) is taken instead.  All iterations run
    in Gram coordinates (X'X, X'y), so the per-iteration cost is O(N^2)
    independent of Q.  FISTA stops at max(kkt_tol, IDENTIFY_TOL), and chord
    steps on the support finish the solve (module docstring).  This is the
    code of `solve_batch` on one column.

    Parameters
    ----------
    problem : Problem
        The instance to solve.
    opts : SolverOptions, optional
        kkt_tol : relative certificate tolerance, default 1e-8.  Support
        blocks and downstream sensitivity analysis rely on a tight solve.
        max_iter : iteration budget, default 100_000.
    start : finite array of length N, optional
        Initial coefficients (default zero), as read by `gldof solve
        --warm-start`.

    Returns
    -------
    Solution
        The certified minimizer, `beta` a read-only length-N array.
        `support` is `block_support` of the FISTA point.  On that support up
        to NEWTON_STEPS chord steps polish beta toward machine precision;
        the polished point is kept only as the module docstring says.  If
        the point kept misses kkt_tol, FISTA resumes from its FISTA point
        until it certifies at kkt_tol, and that point is finished the same
        way.  `iterations` counts the FISTA iterations of both phases alone.
        Raises ConvergenceError (carrying the best iterate and its residual)
        if the budget runs out uncertified, LinAlgError if the system matrix
        at a FISTA point is not numerically positive definite, and
        ValueError if the data scale lies outside the range of SCALE_LIMIT.
    """
    if start is not None:
        start = np.array(start, dtype=float)
        if start.shape != (problem.design.N,) or not np.isfinite(start).all():
            raise ValueError(f"warm start must be a finite vector of length N={problem.design.N}")
        start = start[:, None]
    opts = opts or SolverOptions()
    [chunk] = _solve_columns(problem.design, problem.partition, problem.y[:, None],
                             np.array([problem.lam]), opts, start)
    result = chunk.result(0, problem.partition, opts, {})
    if isinstance(result, ConvergenceError):
        raise result
    return result


def solve_batch(design: Design, ys, lam: float | np.ndarray, partition: BlockPartition,
                opts: SolverOptions | None = None, *, base: Solution | None = None):
    """Certified solves of one design for each column of `ys`.

    `ys` (Q x K) must be finite, and `lam` is one lambda for every column
    or a length-K vector of lambdas, one per column, positive and finite.
    The FISTA of `solve` runs on up to BATCH_COLUMNS columns at once, each
    column with its own lambda, momentum, monotone restart and certificate
    relative to its own s(y).  A column is frozen at the first iteration at
    which its certificate is at most max(kkt_tol, IDENTIFY_TOL); the frozen
    columns then get the support rule, chord finish and factor of `solve`
    at their own lambda, a chunk at a time: c columns whose supports have
    at most m_max coordinates, with c x m_max^2 <= CHUNK_ENTRIES (or one
    column), take each chord step in one pass, their points N x c and
    their system matrices in one padded stack (module docstring).
    Within its chunk, before the chunk yields, a column whose kept point
    misses kkt_tol resumes FISTA from its FISTA point, at kkt_tol and with
    what is left of `max_iter`, and is finished again; so memory stays
    bounded by the chunk.

    Given `base`, a Solution of observations near those of `ys` (the probes
    of `validate.fd_oracle`), every column's finish starts at base.beta,
    uncertified, and steps on base.factor, which sets only its speed: a
    column kept has no factor, and one that fails resumes FISTA there.

    Returns an iterator over the columns in order, yielding the Solution of
    each certified column and, for a column that does not certify within
    `max_iter`, the ConvergenceError `solve` would raise (yielded, not
    raised, so the other columns still finish).  Results are bit-identical
    run to run for the same input and K.  `solve` is this code at K = 1,
    so a column agrees with `solve` up to round-off, not bit for bit.
    Each column is `Chunk.result` of its chunk (`solve_chunks`), and the
    columns with one support share its BlockSupport.
    """
    opts, supports = opts or SolverOptions(), {}
    return itertools.chain.from_iterable(
        chunk.results(partition, opts, supports)
        for chunk in solve_chunks(design, ys, lam, partition, opts, base=base))


def solve_chunks(design: Design, ys, lam: float | np.ndarray, partition: BlockPartition,
                 opts: SolverOptions | None = None, *, base: Solution | None = None):
    """What `solve_batch` yields, a chunk at a time and as arrays: an
    iterator over the `Chunk` of each chunk of the finish, in column order,
    yielded when all its columns are finished.  The arguments are checked
    here, before the iterator is returned."""
    # private copies: the finish reads them lazily, between yields
    ys = np.array(ys, dtype=float, order="C")
    if ys.ndim != 2 or ys.shape[0] != design.Q or not np.isfinite(ys).all():
        raise ValueError(f"ys must be a finite Q x K matrix with Q={design.Q}")
    if partition.total_dim != design.N:
        raise ValueError("partition dimension does not match design columns")
    lams = np.array(lam, dtype=float)
    lams = np.full(ys.shape[1], lams) if lams.ndim == 0 else lams
    if lams.shape != ys.shape[1:]:
        raise ValueError(f"lambda must be a scalar or one value per column (K={ys.shape[1]})")
    if not np.all((lams > 0) & (lams < math.inf)):
        raise ValueError("lambda must be positive and finite")
    return itertools.chain.from_iterable(
        _solve_columns(design, partition, ys[:, lo:lo + BATCH_COLUMNS],
                       lams[lo:lo + BATCH_COLUMNS], opts or SolverOptions(), base=base)
        for lo in range(0, ys.shape[1], BATCH_COLUMNS))


def _solve_columns(design, partition, ys, lams, opts, start=None, base=None):
    """Certified solves of the columns of ys (Q x K), one lambda each
    (`lams`), sharing a design and a partition, from `start` (N x K, zeros
    when None), or from a Solution `base` as `solve_batch` describes.

    ValueError is raised first if a column's data scale lies outside
    [1/SCALE_LIMIT, SCALE_LIMIT].  `_fista` iterates on all columns at once
    to the looser of kkt_tol and IDENTIFY_TOL.  Then, in order, a chunk at a
    time: `_newton` finishes the chunk's columns; a column whose kept point
    misses kkt_tol resumes FISTA from its FISTA point at kkt_tol, with what
    is left of `max_iter`, and is finished again on its own factor; and the
    chunk's `Chunk` is yielded, with each column's point, final mask and
    margins, `failed` marking a column still uncertified after `max_iter`
    iterations in all.
    """
    gram, tol, max_iter = design.gram, opts.kkt_tol, opts.max_iter
    xty = design.matrix.T @ ys
    # no block norm is squared before this check
    data = np.maximum(np.abs(xty).max(axis=0, initial=0.0), lams)
    if not np.all((data >= 1.0 / SCALE_LIMIT) & (data <= SCALE_LIMIT)):
        raise ValueError("the data scale max(max|X'y|, lambda) must lie within "
                         f"[{1 / SCALE_LIMIT:.3g}, {SCALE_LIMIT:.3g}]")
    scales = partition.block_norms(xty).max(axis=0)
    k = ys.shape[1]
    if base is None:
        fista, fista_resid, iters, failed = _fista(design, partition, xty, lams, scales,
                                                   max(tol, IDENTIFY_TOL), max_iter, start)
    else:
        # every column's finish starts at base.beta, uncertified
        fista, fista_resid = np.repeat(base.beta[:, None], k, axis=1), np.full(k, math.inf)
        iters, failed = np.zeros(k, dtype=int), np.zeros(k, dtype=bool)
    # the support rule of `core.block_support`, on every certified column
    active = support_mask(partition, fista) & ~failed
    dims = partition.block_sizes @ active
    # a column stepping on base's factor has no system matrix of its own
    sized, shared = (dims, {}) if base is None else (0 * dims, {"shared": base.factor})
    lo = 0
    while lo < k:
        # finish in column order, a chunk of c columns at a time whose padded
        # system matrices, c x m_max^2 entries, hold at most CHUNK_ENTRIES
        # (or one column's)
        padded = np.arange(1, k - lo + 1) * np.maximum.accumulate(sized[lo:]) ** 2
        hi = lo + max(1, int(np.searchsorted(padded, CHUNK_ENTRIES, side="right")))
        beta, resid, factors = _newton(
            gram, partition, xty[:, lo:hi], lams[lo:hi], fista[:, lo:hi], fista_resid[lo:hi],
            active[:, lo:hi], scales[lo:hi], **shared)
        miss = np.flatnonzero((resid > tol) & ~failed[lo:hi])
        if miss.size:
            js = lo + miss
            left = max_iter - iters[js]
            # columns with the same budget left resume together
            for budget in np.unique(left):
                g = js[left == budget]
                fista[:, g], fista_resid[g], more, failed[g] = _fista(
                    design, partition, xty[:, g], lams[g], scales[g], tol, budget, fista[:, g])
                iters[g] += more
            active[:, js] = support_mask(partition, fista[:, js]) & ~failed[js]
            beta[:, miss], resid[miss], again = _newton(
                gram, partition, xty[:, js], lams[js], fista[:, js], fista_resid[js],
                active[:, js], scales[js])
            for i, factor in zip(miss, again):
                factors[i] = factor
        # the margins of the points returned, on the masks of their supports
        on = active[:, lo:hi].copy()
        objective, t_margin, s_margin = _objective_and_margins(
            design, partition, ys[:, lo:hi], lams[lo:hi], beta, xty[:, lo:hi] - gram @ beta,
            partition.block_norms(beta), on)
        yield Chunk(beta=beta, active=on, objective=objective, kkt_residual=resid,
                    iterations=iters[lo:hi].copy(), transition_margin=t_margin,
                    support_margin=s_margin, failed=failed[lo:hi].copy(),
                    factors=tuple(factors))
        # the chunk's arrays go before the next chunk is finished
        del beta, factors
        lo = hi


def _fista(design, partition, c, lams, scales, tol, max_iter, start=None):
    """The one FISTA loop, on the columns of c = X'Y (N x K), one lambda
    (`lams`) and one s(y) (`scales`) each, from `start` (N x K, zeros when
    None), which is evaluated as any iterate is.

    A column is frozen at the first iteration at which its `_violation` is
    at most tol * s(y) (for s(y) = 0: exactly 0).  Returns each column's
    frozen point, its certificate (`_relative`) and iteration count, and
    which columns failed: a column still above its bound after `max_iter`
    iterations reports its best iterate, its certificate and `max_iter`.
    """
    block, indicator = partition.block_index, partition.indicator
    gram, step = design.gram, 1.0 / design.lipschitz

    def norms(a):
        return np.sqrt(indicator @ np.square(a))

    def prox(v, thresh):
        nv = norms(v)
        out_norms = np.maximum(nv - thresh, 0.0)
        # out_norms is 0 wherever nv <= thresh, and thresh > 0
        return v * (out_norms / np.maximum(nv, thresh))[block], out_norms

    def value(b, gb, bn, c, lam):
        # the objective less its constant 0.5 ||y||^2, per column
        return np.einsum("ij,ij->j", b, 0.5 * gb - c) + lam * bn.sum(axis=0)

    n, k = c.shape
    beta_out = np.zeros((n, k))
    viol_out = np.zeros(k)
    iters_out = np.full(k, max_iter)

    # working columns: `cols` maps them to the output, `live` marks those not
    # yet frozen; the frozen ones are dropped once they are half of the
    # working set, and a frozen column's bound is -inf
    cols, lam, thresh, bound = np.arange(k), lams, step * lams, tol * scales
    beta = np.zeros((n, k)) if start is None else start
    gbeta, bnorms = gram @ beta, norms(beta)
    obj = value(beta, gbeta, bnorms, c, lam)
    viol = _violation(partition, c - gbeta, beta, bnorms, lam)
    t_mom, live = np.ones(k), np.ones(k, dtype=bool)
    best_beta, best_viol = beta, viol
    z, gz = beta, gbeta
    for it in range(max_iter + 1):
        new = viol <= bound
        if np.count_nonzero(new):
            beta_out[:, cols[new]] = beta[:, new]
            viol_out[cols[new]] = viol[new]
            iters_out[cols[new]] = it
            live &= ~new
            bound[new] = -math.inf
            n_live = np.count_nonzero(live)
            if n_live == 0:
                break
            if 2 * n_live <= live.size:
                c, beta, gbeta, z, gz, best_beta, bnorms = (
                    a[:, live] for a in (c, beta, gbeta, z, gz, best_beta, bnorms))
                cols, lam, thresh, bound, obj, t_mom, viol, best_viol, live = (
                    a[live] for a in (cols, lam, thresh, bound, obj, t_mom, viol,
                                      best_viol, live))
        if it == max_iter:
            break
        cand, cand_norms = prox(z - step * (gz - c), thresh)
        gcand = gram @ cand
        cand_obj = value(cand, gcand, cand_norms, c, lam)

        restart = (cand_obj > obj) & (t_mom > 1.0) & live
        if np.count_nonzero(restart):
            # monotone restart, per column: drop momentum and take the plain
            # descent step from beta instead (non-increasing up to round-off)
            t_mom[restart] = 1.0
            cr, nr = prox(beta[:, restart] - step * (gbeta[:, restart] - c[:, restart]),
                          thresh[restart])
            gr = gram @ cr
            cand[:, restart], cand_norms[:, restart], gcand[:, restart] = cr, nr, gr
            cand_obj[restart] = value(cr, gr, nr, c[:, restart], lam[restart])

        # 0.5 + sqrt(0.25 + t^2) is 0.5 * (1 + sqrt(1 + 4 t^2)) to the bit
        t_next = 0.5 + np.sqrt(0.25 + t_mom * t_mom)
        m = (t_mom - 1.0) / t_next
        z = cand + m * (cand - beta)
        gz = gcand + m * (gcand - gbeta)
        beta, gbeta, bnorms, obj, t_mom = cand, gcand, cand_norms, cand_obj, t_next

        viol = _violation(partition, c - gbeta, beta, bnorms, lam)
        better = viol < best_viol
        n_better = np.count_nonzero(better)
        if n_better == better.size:
            # beta and viol are new arrays every iteration: share, not copy
            best_beta, best_viol = beta, viol
        elif n_better:
            best_beta, best_viol = best_beta.copy(), best_viol.copy()
            best_beta[:, better], best_viol[better] = beta[:, better], viol[better]

    # a column still live after max_iter reports its best iterate
    failed = np.zeros(k, dtype=bool)
    failed[cols[live]] = True
    beta_out[:, cols[live]], viol_out[cols[live]] = best_beta[:, live], best_viol[live]
    return beta_out, _relative(viol_out, scales), iters_out, failed


def _cholesky(a):
    """Lower Cholesky factor of a symmetric matrix as a `scipy.linalg.cho_factor`
    pair (LAPACK `dpotrf` directly, which zeroes the upper triangle), or None
    if it is not positive definite."""
    low, info = scipy.linalg.lapack.dpotrf(a, lower=1)
    return (low, True) if info == 0 else None


def factor_solve(factor, rhs) -> np.ndarray:
    """A^{-1} rhs for the `Solution.factor` pair of A (LAPACK `dpotrs`)."""
    return scipy.linalg.lapack.dpotrs(factor[0], rhs, lower=1)[0]


def _stationarity(gram, partition, xty, lam, point, on):
    """X'X point - X'y + lambda * u, u = point_b/||point_b|| (0 on a zero
    block), at each column of an N x c matrix of points on the blocks of its
    support mask `on` (n_blocks x c, or x 1), 0 off them; and u and each
    coordinate's block norm (1 on a zero block).  Block norms are summed
    block by block in partition order (`BlockPartition.order`), as
    `BlockSupport.restrict` stacks them."""
    block, sizes = partition.block_index, partition.block_sizes
    sq = np.add.reduceat(np.square(point[partition.order]), np.cumsum(sizes) - sizes, axis=0)
    # inactive blocks, and the zero blocks of a column falling back, divide by 1
    norms = np.sqrt(np.where(sq == 0.0, 1.0, sq))[block]
    unit = point / norms
    return np.where(on[block], gram @ point - xty + lam * unit, 0.0), unit, norms


def _system_stack(gram, partition, lam, active, cols):
    """For the columns `cols` (nonempty supports) of a block mask `active`:
    the flat positions in an N x c matrix of their active coordinates, in
    `BlockSupport.indices` order padded with coordinate 0, the mask of the
    real ones, and the assembly of each X_I'X_I + lambda * deltaP(b_I), from
    `_stationarity`'s unit vectors and norms, in a padded stack."""
    idx, real, _ = stacked_coordinates(partition, active[:, cols])
    n, c, width = gram.shape[0], active.shape[1], idx.shape[1]
    gram_ii = gram.take(idx[:, :, None] * n + idx[:, None, :])
    cell = idx * c + cols[:, None]
    # the same-block pairs (r, q) of every column t: their flat positions in
    # the stack, and those of their two coordinates in an N x c matrix
    label = np.where(real, partition.block_index[idx], -1)
    at = np.flatnonzero((label[:, :, None] == label[:, None, :]) & real[:, :, None])
    tr, q = np.divmod(at, width)
    t, r = np.divmod(tr, width)
    at_r, at_q, lam_k, diag = cell.flat[tr], cell.flat[t * width + q], lam[cols][t], r == q

    def assemble(unit, norms):
        u, nr = unit.ravel(), norms.ravel()
        mats = gram_ii.copy()
        mats.reshape(-1)[at] += lam_k * ((diag - u[at_r] * u[at_q]) / nr[at_r])
        return mats

    return cell, real, assemble


def _newton(gram, partition, xty, lam, beta, resid, active, scales, shared=None):
    """Up to NEWTON_STEPS chord steps on X_I'(X_I b - y) + lambda * b_b/||b_b||
    = 0 (`_stationarity`) for each column of `beta`, a FISTA point with
    certificate `resid`, on its support `active`: all on `shared`, the factor
    of the one nonempty support of the chunk, if given, and otherwise on the
    column's own factor of X_I'X_I + lambda * deltaP(b_I) at its FISTA point.
    A column steps until it has taken one step from a point whose residual
    meets NEWTON_STOP * s(y).  It is kept if it met that stop, its point
    keeps its mask and certifies (`_residuals`) no worse than its FISTA
    point, and the matrix there has a factor (none on `shared`); any other
    column falls back to its FISTA point, certificate and start factor.
    Returns the points, certificates and factors; raises LinAlgError if a
    matrix at a FISTA point is not positive definite.  The points are N x c
    with zeros off each support; only the matrices are compact.
    """
    g, point = beta.shape[1], np.where(active[partition.block_index], beta, 0.0)
    dims = partition.block_sizes @ active
    stat, unit, norms = _stationarity(gram, partition, xty, lam, point, active)
    if shared is None:
        own = np.flatnonzero(dims)
        cell, real, assemble = _system_stack(gram, partition, lam, active, own)
    else:
        own = np.zeros(0, dtype=int)
        # the coordinates of the shared support, in block order
        rows = partition.order[active[partition.block_index[partition.order], np.argmax(dims)]]

    def factored(unit, norms, pos):
        # the factors at `point` of the columns own[pos]; the support rule
        # leaves no zero block at a FISTA point, nor the mask test at a kept one
        mats = assemble(unit, norms) if pos.size else None
        return [_cholesky(mats[i, :dims[j], :dims[j]]) for i, j in zip(pos, own[pos])]

    start = [None] * g
    for j, f in zip(own, factored(unit, norms, np.arange(own.size))):
        if f is None:
            raise scipy.linalg.LinAlgError("system matrix is not positive definite")
        start[j] = f
    floor, going = NEWTON_STOP * scales, dims > 0
    # a column whose steps diverge turns non-finite and is not kept
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(NEWTON_STEPS):
            moving = going.copy()
            if not moving.any():
                break
            every = moving.all()
            cols = slice(None) if every else np.flatnonzero(moving)
            if step:
                stat[:, cols] = _stationarity(gram, partition, xty[:, cols], lam[cols],
                                              point[:, cols], active[:, cols])[0]
            # a column that meets the stop takes this step, and no other
            going[cols] = ~(np.abs(stat[:, cols]).max(axis=0) <= floor[cols])
            if shared is not None:
                delta = factor_solve(shared, stat[rows])
                point[rows] -= delta if every else np.where(moving, delta, 0.0)
                continue
            mo = np.flatnonzero(moving[own])
            rhs = stat.reshape(-1)[cell[mo]]
            for i, j in enumerate(own[mo]):
                rhs[i, :dims[j]] = factor_solve(start[j], rhs[i, :dims[j]])
            point.reshape(-1)[cell[mo][real[mo]]] -= rhs[real[mo]]
        polished = _residuals(partition, gram, xty, point, lam, scales)
        same = (support_mask(partition, point) == active).all(axis=0)
        keep = ~going & (polished <= resid) & same
    factors, pos = list(start), np.flatnonzero(keep[own])
    if pos.size:
        _, unit, norms = _stationarity(gram, partition, xty, lam, point, active)
    for j, f in zip(own[pos], factored(unit, norms, pos)):
        keep[j] = f is not None
        factors[j] = start[j] if f is None else f
    return np.where(keep, point, beta), np.where(keep, polished, resid), factors
