"""Group lasso solver: accelerated proximal gradient with a KKT certificate.

The objective  0.5 ||y - X b||^2 + lambda * sum_b ||b_b||  is strictly convex
for a full-column-rank design, so there is exactly one minimizer.  The solver
iterates FISTA with step 1/L (L the largest eigenvalue of X'X) and a monotone
restart, and terminates only when the exact first-order conditions hold to
``kkt_tol``:

  * on every active block b:      X_b'(y - X b) = lambda * b_b / ||b_b||
  * on every inactive block b:  ||X_b'(y - X b)|| <= lambda

The certified point is then polished by Newton steps on the active-block
equations, whose Jacobian X_I'X_I + lambda * deltaP(b_I) is the matrix of the
solution's local differential; its Cholesky factor is kept on the solution.

`solve` takes one right-hand side.  `solve_batch` runs the same iteration
on the K columns of a Q x K matrix of observations sharing the design and
the partition, at one lambda (Monte Carlo replicates, finite-difference
probes) or at one lambda per column (a lambda path), with per-column
momentum, restart, threshold and certificate, and one batched finish:
columns sharing a support share X_I'X_I, and columns are finished and
yielded in order, in chunks of O(N x BATCH_COLUMNS) system-matrix entries.
`solve` is that same code at K = 1: one FISTA iteration, one prox, one
certificate (`_violation`, which `kkt_check` evaluates too) and one finish,
equal to a column-by-column finish up to round-off.

Tolerance policy.  Solving (s y, s lambda) gives s beta(y) and the same DOF,
so no tolerance is absolute:

  * certificate: the largest violation of the two conditions over
    s(y) = max_b ||X_b'y|| (`lambda_max` of y), the unit of `kkt_tol`,
    `kkt_residual` and `kkt_check`; when s(y) = 0 it is 0 at beta = 0, the
    solution, and +inf elsewhere;
  * active blocks: a block is active in the certificate exactly when its
    norm is nonzero (the prox sets inactive blocks to exact zeros);
  * support: norm above 1e-8 * max|beta|, the one rule, `core.block_support`;
  * Newton stop: stationarity residual at most 1e-15 * s(y).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .core import BlockPartition, BlockSupport, Design, support_mask, unit_and_delta_P

# Newton steps on the active-block equations after the certified solve
NEWTON_STEPS = 4
# columns `solve_batch` iterates on at once: its working memory is O(N x this)
BATCH_COLUMNS = 256


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

    def with_lam(self, lam: float) -> "Problem":
        return replace(self, lam=lam)

    def xty(self) -> np.ndarray:
        return self.design.matrix.T @ self.y

    def objective(self, values) -> float:
        """0.5 ||y - X b||^2 + lambda * sum of block norms, from scratch."""
        b = np.asarray(values, dtype=float)[:, None]
        return float(_objective(self.design, self.partition, self.y[:, None], self.lam, b)[0])


def _objective(design: Design, partition: BlockPartition, ys, lams, beta):
    """`Problem.objective` at each column of an N x K matrix of points, with
    the observations ys (Q x K) and one lambda per column."""
    fit = ys - design.matrix @ beta
    return 0.5 * np.einsum("ij,ij->j", fit, fit) + lams * partition.block_norms(beta).sum(axis=0)


@dataclass(frozen=True)
class SolverOptions:
    """The tolerance policy (module docstring) of every solve."""

    kkt_tol: float = 1e-8
    max_iter: int = 100_000


@dataclass(frozen=True)
class Solution:
    """Certified minimizer with support, objective, and diagnostics."""

    beta: np.ndarray  # read-only, length N
    support: BlockSupport
    objective: float
    kkt_residual: float
    iterations: int
    # scipy.linalg.cho_factor pair of X_I'X_I + lambda * deltaP(beta_I) at
    # `beta`, lower triangle; None when the support is empty
    factor: tuple[np.ndarray, bool] | None = field(default=None, compare=False,
                                                    repr=False)


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
    of points: what `kkt_check` reports and a Newton polish may not worsen."""
    viol = _violation(partition, xty - gram @ beta, beta, partition.block_norms(beta), lam)
    return _relative(viol, scales)


def kkt_check(problem: Problem, beta, tol: float = 0.0):
    """Evaluate the first-order optimality certificate at `beta`.

    Blocks with nonzero norm are treated as active; the residual is relative
    to s(y) = max_b ||X_b'y|| (see the module docstring).  Returns
    (kkt_residual, is_optimal) with is_optimal = residual <= tol.
    """
    partition, xty = problem.partition, problem.xty()
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
    independent of Q.  This is the loop of `solve_batch` on one column.

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
        `support` is `block_support` of the certified point.  On that
        support up to NEWTON_STEPS Newton steps polish beta toward machine
        precision; the polished point is kept only if its KKT certificate
        is no worse (the finish of `solve_batch` at K = 1).  `iterations` counts the FISTA iterations alone.  Raises
        ConvergenceError (carrying the best iterate and its residual) if the
        budget runs out uncertified, and LinAlgError if the system matrix at
        the returned beta is not numerically positive definite.
    """
    if start is not None:
        start = np.array(start, dtype=float)
        if start.shape != (problem.design.N,) or not np.isfinite(start).all():
            raise ValueError(f"warm start must be a finite vector of length N={problem.design.N}")
        start = start[:, None]
    (result,) = _solve_columns(problem.design, problem.partition, problem.y[:, None],
                               np.array([problem.lam]), opts or SolverOptions(), start)
    if isinstance(result, ConvergenceError):
        raise result
    return result


def solve_batch(design: Design, ys, lam: float | np.ndarray, partition: BlockPartition,
                opts: SolverOptions | None = None):
    """Certified solves of one design for each column of `ys`.

    `ys` (Q x K) must be finite, and `lam` is one lambda for every column
    or a length-K vector of lambdas, one per column, positive and finite.
    The FISTA of `solve` runs on up to BATCH_COLUMNS columns at once, each
    column with its own lambda, momentum, monotone restart and certificate
    relative to its own s(y).  A column is frozen at the first iteration at which it certifies;
    the certified columns then get the support rule, Newton polish and
    factor of `solve` at their own lambda, together (module docstring), a
    chunk of at most N x BATCH_COLUMNS system-matrix entries (or one
    column's) at a time.

    Returns an iterator over the columns in order, yielding the Solution of
    each certified column and, for a column that does not certify within
    `max_iter`, the ConvergenceError `solve` would raise (yielded, not
    raised, so the other columns still finish).  Results are bit-identical
    run to run for the same input and K.  `solve` is this code at K = 1,
    so a column agrees with `solve` up to round-off, not bit for bit.
    """
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
                       lams[lo:lo + BATCH_COLUMNS], opts or SolverOptions())
        for lo in range(0, ys.shape[1], BATCH_COLUMNS))


def _solve_columns(design, partition, ys, lams, opts, start=None):
    """The one FISTA loop, on the columns of ys (Q x K), one lambda each
    (`lams`), sharing a design and a partition.

    Iterates on all columns at once from `start` (N x K, zeros when None),
    then yields, in order, each column's Solution, finished by `_newton` a
    chunk at a time, or the ConvergenceError of a column still uncertified
    after `max_iter`.
    """
    block, indicator = partition.block_index, partition.indicator
    gram, step, tol = design.gram, 1.0 / design.lipschitz, opts.kkt_tol

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

    xty = c = design.matrix.T @ ys
    scales = norms(c).max(axis=0)
    n, k = c.shape
    beta_out = np.zeros((n, k))
    viol_out = np.zeros(k)
    iters_out = np.zeros(k, dtype=int)

    # working columns: `cols` maps them to the output, `live` marks those not
    # yet frozen; the frozen ones are dropped once they are half of the
    # working set.  A column certifies when its violation is at most
    # kkt_tol * s(y) (for s(y) = 0: exactly 0); a frozen column's bound is -inf.
    cols, lam, thresh, bound = np.arange(k), lams, step * lams, tol * scales
    if start is None:
        beta, gbeta = np.zeros((n, k)), np.zeros((n, k))
        bnorms, obj = np.zeros((partition.n_blocks, k)), np.zeros(k)
        # `_violation` at beta = 0, where every block is inactive
        viol = scales - lam
    else:
        beta = start
        gbeta, bnorms = gram @ beta, norms(beta)
        obj = value(beta, gbeta, bnorms, c, lam)
        viol = _violation(partition, c - gbeta, beta, bnorms, lam)
    t_mom, live = np.ones(k), np.ones(k, dtype=bool)
    best_beta, best_viol = beta, viol
    z, gz = beta, gbeta
    for it in range(opts.max_iter + 1):
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
        if it == opts.max_iter:
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
    resid_out = _relative(viol_out, scales)
    # the support rule of `core.block_support`, on every certified column
    active = support_mask(partition, beta_out) & ~failed
    entries = (partition.block_sizes @ active) ** 2
    lo = 0
    while lo < k:
        # finish in column order, a chunk of columns at a time whose system
        # matrices hold at most N x BATCH_COLUMNS entries (or one column's)
        hi = lo + 1 + int(np.searchsorted(np.cumsum(entries[lo + 1:]),
                                          n * BATCH_COLUMNS - entries[lo], side="right"))
        beta, resid, supports, factors = _newton(
            gram, partition, xty[:, lo:hi], lams[lo:hi], beta_out[:, lo:hi],
            resid_out[lo:hi], active[:, lo:hi], scales[lo:hi])
        objective = _objective(design, partition, ys[:, lo:hi], lams[lo:hi], beta)
        for i, j in enumerate(range(lo, hi)):
            # a copy, so that no result pins its chunk
            b = beta[:, i].copy()
            b.setflags(write=False)
            if failed[j]:
                yield ConvergenceError(
                    f"no KKT certificate <= {tol:g} within {opts.max_iter} iterations "
                    f"(best residual {resid[i]:g})",
                    beta=b, kkt_residual=float(resid[i]), iterations=opts.max_iter)
            else:
                yield Solution(beta=b, support=supports[i], objective=float(objective[i]),
                               kkt_residual=float(resid[i]), iterations=int(iters_out[j]),
                               factor=factors[i])
        lo = hi


def _cholesky(a):
    """Lower Cholesky factor of a symmetric matrix as a `scipy.linalg.cho_factor`
    pair (LAPACK `dpotrf` directly), or None if it is not positive definite."""
    low, info = scipy.linalg.lapack.dpotrf(a, lower=1)
    return (low, True) if info == 0 else None


def factor_solve(factor, rhs) -> np.ndarray:
    """A^{-1} rhs for the `Solution.factor` pair of A (LAPACK `dpotrs`)."""
    return scipy.linalg.lapack.dpotrs(factor[0], rhs, lower=1)[0]


def _newton(gram, partition, xty, lam, beta, resid, active, scales):
    """Up to NEWTON_STEPS Newton steps on X_I'(X_I b - y) + lambda * b_b/||b_b||
    = 0, to a residual of 1e-15 * s(y), for each certified column of `beta`
    on its support `active`: differencing divides the coefficient error by
    the step, so even a 1e-12 certificate leaves visible noise in
    finite-difference Jacobians.  A column keeps its FISTA point and start
    factor if a step zeroes a block or is not positive definite, or if its
    polished certificate (`_residuals`) is worse.  Returns the points kept
    and their certificates, supports and factors.
    """
    g = beta.shape[1]
    point = np.where(active[partition.block_index], beta, 0.0)
    supports, start, factors = [BlockSupport(partition, ())] * g, [None] * g, [None] * g
    groups = {}
    for j in np.flatnonzero(active.any(axis=0)):
        groups.setdefault(active[:, j].tobytes(), []).append(j)
    for js in map(np.array, groups.values()):
        # columns sharing a support share X_I'X_I; `js` keeps the columns still
        # stepping, and a column that falls back is left without a factor
        support = BlockSupport(partition, tuple(np.flatnonzero(active[:, js[0]])))
        idx, (rows, cols) = support.indices, support.block_pairs
        gram_ii = gram[idx[:, None], idx]

        def factor(js):
            # each column's factor and stationarity residual at its point
            b = point[idx[:, None], js].T
            unit, entries = unit_and_delta_P(b, support)
            mats = np.repeat(gram_ii[None], js.size, axis=0)
            mats[:, rows, cols] = gram_ii[rows, cols] + lam[js, None] * entries
            for j, a in zip(js, mats):
                factors[j] = _cholesky(a)
            return b @ gram_ii - xty[idx[:, None], js].T + lam[js, None] * unit

        stat = factor(js)
        for j in js:
            if factors[j] is None:
                raise scipy.linalg.LinAlgError("system matrix is not positive definite")
            supports[j], start[j] = support, factors[j]
        for _ in range(NEWTON_STEPS):
            move = [factors[j] is not None and r > 1e-15 * scales[j]
                    for j, r in zip(js, np.abs(stat).max(axis=1))]
            js, stat = js[move], stat[move]
            for j, s in zip(js, stat):
                point[idx, j] -= factor_solve(factors[j], s)
            # a column whose step zeroed a block falls back
            zero = ~np.add.reduceat(np.square(point[idx[:, None], js]),
                                    support.offsets[:-1]).all(axis=0)
            for j in js[zero]:
                factors[j] = None
            js = js[~zero]
            if not js.size:
                break
            stat = factor(js)
    tried = np.array([f is not None for f in factors])
    polished = np.full(g, math.inf)
    polished[tried] = _residuals(partition, gram, xty[:, tried], point[:, tried], lam[tried],
                                 scales[tried])
    keep = polished <= resid
    return (np.where(keep, point, beta), np.where(keep, polished, resid), supports,
            [f if k else s for f, s, k in zip(factors, start, keep)])
