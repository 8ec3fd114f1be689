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
`solve` does.  Single solves keep the scalar loop, which has less overhead
per iteration than a batch of one.

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


def block_soft_threshold(v, threshold: float) -> np.ndarray:
    """Proximal map of threshold * ||.||_2 on a single block.

    Returns 0 when ||v|| <= threshold, else (1 - threshold/||v||) * v.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm <= threshold:
        return np.zeros_like(v)
    return (1.0 - threshold / nrm) * v


def _group_prox(values, partition: BlockPartition, threshold: float):
    """Blockwise soft threshold of a full vector.

    Returns the proximal point and its per-block norms, which are
    max(||v_b|| - threshold, 0) by construction.
    """
    perm = partition.perm
    sizes = partition.block_sizes
    stacked = values[perm]
    norms = np.sqrt(np.add.reduceat(stacked**2, partition.offsets))
    out_norms = np.maximum(norms - threshold, 0.0)
    scale = np.zeros_like(norms)
    live = norms > threshold
    scale[live] = out_norms[live] / norms[live]
    out = np.empty_like(values)
    out[perm] = stacked * np.repeat(scale, sizes)
    return out, out_norms


def _certificate(partition: BlockPartition, corr, beta, beta_norms, lam, scale):
    """Max KKT violation over scale = s(y), given corr = X'(y - X b)."""
    perm = partition.perm
    sizes = partition.block_sizes
    offsets = partition.offsets
    corr_stacked = corr[perm]
    active = beta_norms > 0.0

    resid = 0.0
    if not active.all():
        corr_norms = np.sqrt(np.add.reduceat(corr_stacked**2, offsets))
        resid = max(resid, np.max(corr_norms[~active] - lam, initial=0.0))
    if active.any():
        safe = np.where(active, beta_norms, 1.0)
        unit = beta[perm] * np.repeat(1.0 / safe, sizes)
        dev = corr_stacked - lam * unit
        dev_norms = np.sqrt(np.add.reduceat(dev**2, offsets))
        resid = max(resid, float(np.max(dev_norms[active])))
    if scale > 0.0:
        return float(resid) / scale
    return 0.0 if resid == 0.0 else math.inf


def kkt_check(problem: Problem, beta, tol: float = 0.0):
    """Evaluate the first-order optimality certificate at `beta`.

    Blocks with nonzero norm are treated as active; the residual is relative
    to s(y) = max_b ||X_b'y|| (see the module docstring).  Returns
    (kkt_residual, is_optimal) with is_optimal = residual <= tol.
    """
    values = beta.values if isinstance(beta, Coefficients) else np.asarray(beta, dtype=float)
    xty = problem.xty()
    corr = xty - problem.design.gram @ values
    norms = problem.partition.block_norms(values)
    resid = _certificate(problem.partition, corr, values, norms, problem.lam,
                         _scale(problem.partition, xty))
    return resid, resid <= tol


def _scale(partition: BlockPartition, xty) -> float:
    """s(y) = max_b ||X_b'y|| from xty = X'y: the unit of the certificate."""
    return float(partition.block_norms(xty).max())


def lambda_max(design: Design, y, partition: BlockPartition) -> float:
    """Smallest lambda for which beta = 0 is optimal: max_b ||X_b' y||."""
    return _scale(partition, design.matrix.T @ np.asarray(y, dtype=float))


def solve(problem: Problem, opts: SolverOptions | None = None) -> Solution:
    """Minimize the group lasso objective to a certified KKT residual.

    FISTA with step 1/L and monotone restart: whenever an accelerated step
    would increase the objective, momentum is dropped and a plain proximal
    gradient step (guaranteed descent) is taken instead.  All iterations run
    in Gram coordinates (X'X, X'y), so the per-iteration cost is O(N^2)
    independent of Q.

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
    gram = problem.design.gram
    c = problem.xty()
    lam = problem.lam
    partition = problem.partition
    yty = float(problem.y @ problem.y)
    scale = _scale(partition, c)

    step = 1.0 / problem.design.lipschitz
    thresh = step * lam

    if opts.warm_start is not None:
        beta = np.array(opts.warm_start, dtype=float)
        if beta.shape != (problem.design.N,):
            raise ValueError("warm start has wrong length")
    else:
        beta = np.zeros(problem.design.N)

    def value(b, gb, norms):
        return 0.5 * float(b @ gb) - float(c @ b) + 0.5 * yty + lam * norms.sum()

    gbeta = gram @ beta
    beta_norms = partition.block_norms(beta)
    obj = value(beta, gbeta, beta_norms)
    history = [obj] if opts.track_objective else None

    resid = _certificate(partition, c - gbeta, beta, beta_norms, lam, scale)
    if resid <= opts.kkt_tol:
        return _finish(problem, beta, resid, 0, history, scale)

    z, gz = beta, gbeta
    t_mom = 1.0
    best = (resid, beta)

    for k in range(1, opts.max_iter + 1):
        cand, cand_norms = _group_prox(z - step * (gz - c), partition, thresh)
        gcand = gram @ cand
        cand_obj = value(cand, gcand, cand_norms)

        if cand_obj > obj and t_mom > 1.0:
            # monotone restart: drop momentum, take the plain descent step
            # from beta instead (non-increasing up to round-off)
            t_mom = 1.0
            cand, cand_norms = _group_prox(beta - step * (gbeta - c), partition, thresh)
            gcand = gram @ cand
            cand_obj = value(cand, gcand, cand_norms)

        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        m = (t_mom - 1.0) / t_next
        z = cand + m * (cand - beta)
        gz = gcand + m * (gcand - gbeta)
        beta, gbeta, beta_norms, obj = cand, gcand, cand_norms, cand_obj
        t_mom = t_next
        if history is not None:
            history.append(obj)

        resid = _certificate(partition, c - gbeta, beta, beta_norms, lam, scale)
        if resid < best[0]:
            best = (resid, beta)
        if resid <= opts.kkt_tol:
            return _finish(problem, beta, resid, k, history, scale)

    raise ConvergenceError(
        f"no KKT certificate <= {opts.kkt_tol:g} within {opts.max_iter} iterations "
        f"(best residual {best[0]:g})",
        beta=Coefficients(best[1], partition),
        kkt_residual=best[0],
        iterations=opts.max_iter,
    )


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
    run to run for the same input and K, and agree with `solve` column by
    column up to round-off, not bit for bit.
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
        _solve_columns(design, ys[:, start:start + BATCH_COLUMNS],
                       lams[start:start + BATCH_COLUMNS], partition, opts)
        for start in range(0, ys.shape[1], BATCH_COLUMNS))


def _solve_columns(design, ys, lams, partition, opts):
    """`solve_batch` on one set of columns: the batched FISTA, then `_finish`."""
    problems = [Problem(design, y, lam, partition) for y, lam in zip(ys.T, lams)]
    n_blocks, tol = partition.n_blocks, opts.kkt_tol
    # block of each coordinate, and the blocks x coordinates indicator whose
    # product with a squared N x K matrix sums every block of every column
    block = np.empty(design.N, dtype=int)
    block[partition.perm] = np.repeat(np.arange(n_blocks), partition.block_sizes)
    indicator = np.zeros((n_blocks, design.N))
    indicator[block, np.arange(design.N)] = 1.0

    def norms(a):
        return np.sqrt(indicator @ np.square(a))

    def prox(v, thresh):
        nv = norms(v)
        out_norms = np.maximum(nv - thresh, 0.0)
        shrink = np.divide(out_norms, nv, out=np.zeros_like(nv), where=nv > thresh)
        return v * shrink[block], out_norms

    def value(b, gb, bn, c, lam):
        # the objective less its constant 0.5 ||y||^2, per column
        return np.einsum("ij,ij->j", b, 0.5 * gb - c) + lam * bn.sum(axis=0)

    def certificate(c, gb, b, bn, s, lam):
        active = bn > 0.0
        dev = norms(c - gb - lam * (b / np.where(active, bn, 1.0)[block]))
        viol = np.maximum(np.max(dev - lam * ~active, axis=0), 0.0)
        return np.divide(viol, s, out=np.where(viol == 0.0, 0.0, math.inf), where=s > 0.0)

    gram = design.gram
    step = 1.0 / design.lipschitz
    c = design.matrix.T @ ys
    scales = norms(c).max(axis=0)
    n, k = c.shape
    beta_out = np.zeros((n, k))
    resid_out = np.full(k, math.inf)
    iters_out = np.zeros(k, dtype=int)

    # working columns: `cols` maps them to the output, `done` marks the frozen
    # ones, which are dropped once they are half of the working set
    cols, s, lam = np.arange(k), scales, lams
    beta, gbeta, bnorms = np.zeros((n, k)), np.zeros((n, k)), np.zeros((n_blocks, k))
    obj, t_mom, done = np.zeros(k), np.ones(k), np.zeros(k, dtype=bool)
    resid = certificate(c, gbeta, beta, bnorms, s, lam)
    best_beta, best_resid = beta.copy(), resid.copy()
    z, gz = beta, gbeta
    it = 0
    while True:
        new = (resid <= tol) & ~done
        if new.any():
            beta_out[:, cols[new]] = beta[:, new]
            resid_out[cols[new]] = resid[new]
            iters_out[cols[new]] = it
            done |= new
            if 2 * np.count_nonzero(done) >= done.size:
                keep = ~done
                c, beta, gbeta, z, gz, best_beta = (
                    a[:, keep] for a in (c, beta, gbeta, z, gz, best_beta))
                bnorms = bnorms[:, keep]
                cols, s, lam, obj, t_mom, resid, best_resid, done = (
                    a[keep] for a in (cols, s, lam, obj, t_mom, resid, best_resid, done))
        if done.all() or it == opts.max_iter:
            break
        it += 1
        cand, cand_norms = prox(z - step * (gz - c), step * lam)
        gcand = gram @ cand
        cand_obj = value(cand, gcand, cand_norms, c, lam)

        restart = np.flatnonzero((cand_obj > obj) & (t_mom > 1.0) & ~done)
        if restart.size:
            # monotone restart, per column, as in `solve`
            t_mom[restart] = 1.0
            cr, nr = prox(beta[:, restart] - step * (gbeta[:, restart] - c[:, restart]),
                          step * lam[restart])
            gr = gram @ cr
            cand[:, restart], cand_norms[:, restart], gcand[:, restart] = cr, nr, gr
            cand_obj[restart] = value(cr, gr, nr, c[:, restart], lam[restart])

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        m = (t_mom - 1.0) / t_next
        z = cand + m * (cand - beta)
        gz = gcand + m * (gcand - gbeta)
        beta, gbeta, bnorms, obj, t_mom = cand, gcand, cand_norms, cand_obj, t_next

        resid = certificate(c, gbeta, beta, bnorms, s, lam)
        np.copyto(best_beta, beta, where=resid < best_resid)
        np.minimum(best_resid, resid, out=best_resid)

    failed = dict(zip(cols[~done].tolist(), zip(best_beta[:, ~done].T, best_resid[~done])))
    for j, problem in enumerate(problems):
        if j in failed:
            best, best_r = failed[j]
            yield ConvergenceError(
                f"no KKT certificate <= {tol:g} within {opts.max_iter} iterations "
                f"(best residual {best_r:g})",
                beta=Coefficients(best, partition), kkt_residual=float(best_r),
                iterations=opts.max_iter)
        else:
            yield _finish(problem, beta_out[:, j], float(resid_out[j]),
                          int(iters_out[j]), None, float(scales[j]))


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
