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
momentum, restart, threshold and certificate, and finishes each column as
`solve` does.  `solve` is that same loop at K = 1: there is one FISTA
iteration, one prox and one certificate (`_violation`, which `kkt_check`
evaluates too).

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

from .core import (BlockPartition, BlockSupport, Coefficients, Design, block_support,
                   delta_P_matrix, normalize_blocks)

# Newton steps on the active-block equations after the certified solve
NEWTON_STEPS = 4
# columns `solve_batch` iterates on at once: its working memory is O(N x this)
BATCH_COLUMNS = 256


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before the KKT certificate was met.

    Carries the best iterate seen (`beta`), its relative certificate value
    (`kkt_residual`) and the iteration count.
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
        if y.ndim != 1 or y.size != self.design.Q:
            raise ValueError(f"y must have length Q={self.design.Q}")
        if not self.lam > 0:
            raise ValueError("lambda must be positive")
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
        resid = self.y - self.design.matrix @ np.asarray(values, dtype=float)
        penalty = self.partition.block_norms(values).sum()
        return 0.5 * float(resid @ resid) + self.lam * float(penalty)


@dataclass(frozen=True)
class SolverOptions:
    kkt_tol: float = 1e-8
    max_iter: int = 100_000
    warm_start: np.ndarray | None = None
    track_objective: bool = False


@dataclass(frozen=True)
class Solution:
    """Certified minimizer with support, objective, and diagnostics."""

    beta: Coefficients
    support: BlockSupport
    objective: float
    kkt_residual: float
    iterations: int
    objective_history: tuple[float, ...] | None = None
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


def kkt_check(problem: Problem, beta, tol: float = 0.0):
    """Evaluate the first-order optimality certificate at `beta`.

    Blocks with nonzero norm are treated as active; the residual is relative
    to s(y) = max_b ||X_b'y|| (see the module docstring).  Returns
    (kkt_residual, is_optimal) with is_optimal = residual <= tol.
    """
    values = beta.values if isinstance(beta, Coefficients) else np.asarray(beta, dtype=float)
    partition = problem.partition
    xty = problem.xty()
    viol = _violation(partition, xty - problem.design.gram @ values, values,
                      partition.block_norms(values), problem.lam)
    resid = float(_relative(viol, partition.block_norms(xty).max()))
    return resid, resid <= tol


def lambda_max(design: Design, y, partition: BlockPartition) -> float:
    """Smallest lambda for which beta = 0 is optimal: max_b ||X_b' y||."""
    return float(partition.block_norms(design.matrix.T @ np.asarray(y, dtype=float)).max())


def solve(problem: Problem, opts: SolverOptions | None = None) -> Solution:
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
        warm_start : initial coefficients (default zero), as read by
        `gldof solve --warm-start`.
        track_objective : record the objective sequence in the solution.

    Returns
    -------
    Solution
        The certified minimizer.  `support` is `block_support` of the
        certified point.  On that support up to NEWTON_STEPS Newton steps
        polish beta toward machine precision; the polished point is kept
        only if its KKT certificate is no worse.  `iterations` counts the
        FISTA iterations alone.  Raises ConvergenceError (carrying the best
        iterate and its residual) if the budget runs out uncertified, and
        LinAlgError if the system matrix at the returned beta is not
        numerically positive definite.
    """
    opts = opts or SolverOptions()
    start = None
    if opts.warm_start is not None:
        start = np.array(opts.warm_start, dtype=float)
        if start.shape != (problem.design.N,):
            raise ValueError("warm start has wrong length")
        start = start[:, None]
    (result,) = _solve_columns([problem], opts, start)
    if isinstance(result, ConvergenceError):
        raise result
    return result


def solve_batch(design: Design, ys, lam: float | np.ndarray, partition: BlockPartition,
                opts: SolverOptions | None = None):
    """Certified solves of one design for each column of `ys`.

    `lam` is one lambda for every column or a length-K vector of positive
    lambdas, one per column.  The FISTA of `solve` runs on up to
    BATCH_COLUMNS columns of ys (Q x K) at once, each column with its own
    lambda, momentum, monotone restart and certificate relative to its own
    s(y).  A column is frozen at the first iteration at which it certifies;
    each certified column then gets the support rule, Newton polish and
    factor of `solve` at its own lambda.  Only `kkt_tol` and `max_iter` of
    `opts` apply.

    Returns an iterator over the columns in order, yielding the Solution of
    each certified column and, for a column that does not certify within
    `max_iter`, the ConvergenceError `solve` would raise (yielded, not
    raised, so the other columns still finish).  Results are bit-identical
    run to run for the same input and K.  `solve` is this loop at K = 1,
    so a column agrees with `solve` up to round-off, not bit for bit.
    """
    opts = opts or SolverOptions()
    if opts.warm_start is not None or opts.track_objective:
        raise ValueError("solve_batch takes neither warm_start nor track_objective")
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 2 or ys.shape[0] != design.Q:
        raise ValueError(f"ys must be a Q x K matrix with Q={design.Q}")
    lams = np.asarray(lam, dtype=float)
    if lams.ndim == 0:
        lams = np.full(ys.shape[1], lams)
    if lams.shape != ys.shape[1:]:
        raise ValueError(f"lambda must be a scalar or one value per column (K={ys.shape[1]})")
    if not np.all(lams > 0):
        raise ValueError("lambda must be positive")
    return itertools.chain.from_iterable(
        _solve_columns([Problem(design, y, lam, partition)
                        for y, lam in zip(ys[:, start:start + BATCH_COLUMNS].T,
                                          lams[start:start + BATCH_COLUMNS])], opts)
        for start in range(0, ys.shape[1], BATCH_COLUMNS))


def _solve_columns(problems, opts, start=None):
    """The one FISTA loop, on problems sharing a design and a partition.

    Iterates on all columns at once from `start` (N x K, zeros when None),
    then yields, in order, each column's `_finish`ed Solution or the
    ConvergenceError of a column still uncertified after `max_iter`.  With
    `track_objective` the first column's objective is recorded at each
    iteration (`solve`, K = 1).
    """
    design, partition = problems[0].design, problems[0].partition
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

    lam = np.array([p.lam for p in problems])
    c = design.matrix.T @ np.column_stack([p.y for p in problems])
    scales = norms(c).max(axis=0)
    n, k = c.shape
    beta_out = np.zeros((n, k))
    viol_out = np.zeros(k)
    iters_out = np.zeros(k, dtype=int)

    # working columns: `cols` maps them to the output, `live` marks those not
    # yet frozen; the frozen ones are dropped once they are half of the
    # working set.  A column certifies when its violation is at most
    # kkt_tol * s(y) (for s(y) = 0: exactly 0); a frozen column's bound is -inf.
    cols, thresh, bound = np.arange(k), step * lam, tol * scales
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
    history = None
    if opts.track_objective:
        const = 0.5 * float(problems[0].y @ problems[0].y)
        history = [float(obj[0]) + const]
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
        if history is not None:
            history.append(float(obj[0]) + const)

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
    for j, problem in enumerate(problems):
        if failed[j]:
            yield ConvergenceError(
                f"no KKT certificate <= {tol:g} within {opts.max_iter} iterations "
                f"(best residual {resid_out[j]:g})",
                beta=Coefficients(beta_out[:, j], partition),
                kkt_residual=float(resid_out[j]), iterations=opts.max_iter)
        else:
            yield _finish(problem, beta_out[:, j], float(resid_out[j]), int(iters_out[j]),
                          history, float(scales[j]))


def _finish(problem, beta, resid, iterations, history, scale) -> Solution:
    support = block_support(Coefficients(beta, problem.partition))
    factor = None
    if not support.is_empty:
        beta, resid, factor = _polish(problem, support, beta, resid, scale)
    return Solution(
        beta=Coefficients(beta, problem.partition),
        support=support,
        objective=problem.objective(beta),
        kkt_residual=resid,
        iterations=iterations,
        objective_history=tuple(history) if history is not None else None,
        factor=factor,
    )


def _system_factor(gram_ii, lam, beta_i, support):
    """Lower Cholesky factor of X_I'X_I + lambda * deltaP(beta_I), as a
    `scipy.linalg.cho_factor` pair (LAPACK directly: this runs per solve)."""
    low, info = scipy.linalg.lapack.dpotrf(gram_ii + lam * delta_P_matrix(beta_i, support),
                                           lower=1)
    if info != 0:
        raise scipy.linalg.LinAlgError("system matrix is not positive definite")
    return low, True


def factor_solve(factor, rhs) -> np.ndarray:
    """A^{-1} rhs for the `Solution.factor` pair of A (LAPACK `dpotrs`)."""
    return scipy.linalg.lapack.dpotrs(factor[0], rhs, lower=1)[0]


def _polish(problem, support, beta, resid, scale):
    """Newton steps on X_I'(X_I b - y) + lambda * b_b/||b_b|| = 0 over `support`.

    Differencing divides the per-solve coefficient error by the step, so
    even a 1e-12 certificate leaves visible noise in finite-difference
    Jacobians; a few Newton steps from the certified point remove it.  The
    polished point is accepted only if its independently evaluated KKT
    certificate is no worse, so the result stays a certified minimizer.
    Returns (beta, residual, factor) with the system factor at that beta.
    """
    idx = support.indices
    gram_ii = problem.design.gram[idx[:, None], idx]
    xty_i = problem.xty()[idx]
    lam = problem.lam
    beta_i = support.restrict(beta)
    start = factor = _system_factor(gram_ii, lam, beta_i, support)
    floor = 1e-15 * scale
    for _ in range(NEWTON_STEPS):
        stat = gram_ii @ beta_i - xty_i + lam * normalize_blocks(beta_i, support)
        if np.max(np.abs(stat)) <= floor:
            break
        beta_i = beta_i - factor_solve(factor, stat)
        try:
            factor = _system_factor(gram_ii, lam, beta_i, support)
        except (ValueError, scipy.linalg.LinAlgError):
            # a block collapsed to zero or the step left the SPD region
            return beta, resid, start
    candidate = support.embed(beta_i)
    polished_resid, _ = kkt_check(problem, candidate)
    if polished_resid <= resid:
        return candidate, polished_resid, factor
    return beta, resid, start
