"""Shared instance builders for the test suite."""

import math

import numpy as np
import scipy.linalg

from gldof.core import BlockPartition, BlockSupport, Design, block_support
from gldof.solver import NEWTON_STEPS, Problem, factor_solve, kkt_check, lambda_max


def random_problem(seed, q, n, sizes, lam_frac=1 / 3):
    """Seeded Gaussian design instance with lambda a fraction of lambda_max."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((q, n)) / np.sqrt(q)
    y = rng.standard_normal(q)
    partition = BlockPartition.from_sizes(sizes)
    design = Design(x)
    lam = lam_frac * lambda_max(design, y, partition)
    return Problem(design, y, lam, partition)


def transition_instance(seed, q=12, sizes=(2, 2, 2), attempts=200):
    """An observation sitting exactly on the transition boundary.

    Builds y = X_I beta_I + r where r satisfies the active first-order
    condition X_I' r = lam * n(beta_I) on block 0 while the dual constraint
    of block 1 is tight, ||X_b1' r|| = lam, and every other inactive block
    stays strictly inside.  beta (block 0 active, rest zero) is then the
    minimizer and y lies on the boundary across which the support changes.
    """
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    x = rng.standard_normal((q, n)) / np.sqrt(q)
    design = Design(x)
    partition = BlockPartition.from_sizes(sizes)
    sup = BlockSupport(partition, (0,))
    xi = design.columns(sup.indices)
    beta_i = rng.standard_normal(sup.active_dim)
    beta_i /= np.linalg.norm(beta_i)
    unit = unit_and_dense_delta_P(beta_i, sup)[0]

    z = scipy.linalg.null_space(xi.T)
    tight = np.array(partition.blocks[1], dtype=int)
    others = [np.array(partition.blocks[k], dtype=int) for k in range(2, len(sizes))]

    # r = X_I a + Z w keeps the active condition for any w in the null space;
    # lam is chosen large enough that the tightness equation has real roots
    a0 = scipy.linalg.solve(xi.T @ xi, unit)
    lam = 2.0 * np.linalg.norm(x[:, tight].T @ (xi @ a0)) + 1.0
    a = lam * a0
    c1 = x[:, tight].T @ (xi @ a)

    for _ in range(attempts):
        u = rng.standard_normal(z.shape[1])
        u /= np.linalg.norm(u)
        g1u = x[:, tight].T @ (z @ u)
        qa = g1u @ g1u
        qb = 2.0 * (c1 @ g1u)
        qc = c1 @ c1 - lam**2
        disc = qb * qb - 4.0 * qa * qc
        if disc <= 0:
            continue
        for t in ((-qb + np.sqrt(disc)) / (2 * qa), (-qb - np.sqrt(disc)) / (2 * qa)):
            r = xi @ a + z @ (t * u)
            if all(np.linalg.norm(x[:, b].T @ r) < 0.95 * lam for b in others):
                y = xi @ beta_i + r
                return Problem(design, y, lam, partition)
    raise RuntimeError(f"no boundary instance found for seed {seed}")


def duality_gap(problem, beta):
    """(P(beta) - D(theta), P(beta)) at the Gap Safe dual point.

    With r = y - X beta, theta = r * min(1, lambda / max_b ||X_b'r||) is
    feasible for the dual  max 0.5||y||^2 - 0.5||y - theta||^2  subject to
    ||X_b'theta|| <= lambda (Ndiaye et al., "Gap Safe screening rules for
    sparsity enforcing penalties", JMLR 2017), so the gap bounds
    P(beta) - min P and closes only at the minimizer.  Built from X, y and
    the blocks alone, independent of the solver's KKT certificate.
    """
    x, y, lam = problem.design.matrix, problem.y, problem.lam
    beta = np.asarray(beta, dtype=float)
    blocks = [list(b) for b in problem.partition]
    r = y - x @ beta
    primal = 0.5 * (r @ r) + lam * sum(np.linalg.norm(beta[b]) for b in blocks)
    dual_norm = max(np.linalg.norm(x[:, b].T @ r) for b in blocks)
    theta = r * min(1.0, lam / dual_norm) if dual_norm > 0 else r
    dual = 0.5 * (y @ y) - 0.5 * np.sum((y - theta) ** 2)
    return float(primal - dual), float(primal)


def reference_margins(problem, beta, support):
    """(transition_margin, support_margin) of `beta` on `support`, from X, y
    and beta alone: the slack lambda - ||X_b'(y - X beta)|| of the tightest
    inactive block, clipped at 0 (+inf when every block is active), and the
    smallest active block norm (+inf on an empty support).  The independent
    check of the margins the solver's finish puts on each Solution."""
    partition, beta = problem.partition, np.asarray(beta, dtype=float)
    active = np.zeros(partition.n_blocks, dtype=bool)
    active[list(support.active)] = True
    corr_norms = partition.block_norms(problem.design.matrix.T @ problem.y
                                       - problem.design.gram @ beta)
    transition_margin = max(float(np.min(problem.lam - corr_norms[~active], initial=math.inf)),
                            0.0)
    support_margin = float(np.min(partition.block_norms(beta)[active], initial=math.inf))
    return transition_margin, support_margin


def block_soft_threshold(v, threshold):
    """Proximal map of threshold * ||.||_2 on one block, in closed form:
    0 when ||v|| <= threshold, else (1 - threshold / ||v||) v.  The group
    lasso solution of an identity design is this map on every block."""
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm <= threshold:
        return np.zeros_like(v)
    return (1.0 - threshold / nrm) * v


def kkt_residual(problem, beta):
    """The KKT certificate of `kkt_check`, one block at a time.

    Largest violation of X_b'r = lambda * beta_b / ||beta_b|| over blocks
    with nonzero norm and of ||X_b'r|| <= lambda over the others, with
    r = y - X beta, divided by s(y) = max_b ||X_b'y||; when s(y) = 0 it is
    0 at a zero violation and +inf otherwise.
    """
    x, y, lam = problem.design.matrix, problem.y, problem.lam
    beta = np.asarray(beta, dtype=float)
    r = y - x @ beta
    worst = 0.0
    for b in problem.partition:
        b = list(b)
        corr = x[:, b].T @ r
        nrm = np.linalg.norm(beta[b])
        if nrm > 0:
            worst = max(worst, np.linalg.norm(corr - lam * beta[b] / nrm))
        else:
            worst = max(worst, np.linalg.norm(corr) - lam)
    scale = max(np.linalg.norm(x[:, list(b)].T @ y) for b in problem.partition)
    if scale > 0:
        return worst / scale
    return 0.0 if worst == 0.0 else np.inf


def unit_and_dense_delta_P(beta_i, support):
    """The blockwise unit vector u of a stacked on-support vector and deltaP
    as a dense matrix, (I - u u' on same-block pairs) / ||beta_b|| row by
    row: the formula the solver's block-diagonal assembly must reproduce to
    the bit.  Computed in the precision of `beta_i` (at least double).
    Raises ValueError on a zero block."""
    v = np.asarray(beta_i)
    v = v.astype(np.result_type(v.dtype, float))
    sizes = support.partition.block_sizes[list(support.active)]
    norms = np.sqrt(np.add.reduceat(v * v, np.cumsum(sizes) - sizes))
    if not norms.all():
        raise ValueError(f"zero block at active position {np.argmin(norms)}")
    norms = np.repeat(norms, sizes)
    block = np.repeat(np.arange(support.n_active), sizes)
    same_block = (block[:, None] == block).astype(float)
    u = v / norms
    return u, (np.eye(v.size) - u[:, None] * u * same_block) / norms[:, None]


def system_matrix(problem, sol, dtype=float):
    """X_I'X_I + lambda * deltaP at the returned beta, built from X and beta in
    `dtype`."""
    idx = sol.support.indices
    xi = problem.design.columns(idx).astype(dtype)
    beta_i = sol.support.restrict(sol.beta).astype(dtype)
    return xi.T @ xi + dtype(problem.lam) * unit_and_dense_delta_P(beta_i, sol.support)[1]


def reference_divergence(problem, sol):
    """tr(A^-1 X_I'X_I) at the returned beta, with A = `system_matrix`
    factored afresh by `scipy.linalg.cho_factor`, never read from
    `Solution.factor`; 0 on an empty support.  A and X_I'X_I are formed in
    extended precision (`np.longdouble`), and two steps of iterative
    refinement on their residual correct the double solve: on a draw with
    an active block of norm 5.6e-5, rounding A's lambda/||beta_b|| entries
    to doubles alone moved the trace by 5.5e-13 relative."""
    if sol.support.is_empty:
        return 0.0
    ld = np.longdouble
    xi = problem.design.columns(sol.support.indices).astype(ld)
    a, g = system_matrix(problem, sol, ld), xi.T @ xi
    low = scipy.linalg.cho_factor(a.astype(float))
    x = scipy.linalg.cho_solve(low, g.astype(float)).astype(ld)
    for _ in range(2):
        x += scipy.linalg.cho_solve(low, (g - a @ x).astype(float))
    return float(np.trace(x))


def system_factor(gram_ii, lam, beta_i, support):
    """Lower Cholesky factor of X_I'X_I + lambda * deltaP(beta_I) as a
    `scipy.linalg.cho_factor` pair, built with the dense deltaP of
    `unit_and_dense_delta_P`."""
    low, info = scipy.linalg.lapack.dpotrf(
        gram_ii + lam * unit_and_dense_delta_P(beta_i, support)[1], lower=1)
    if info != 0:
        raise scipy.linalg.LinAlgError("system matrix is not positive definite")
    return low, True


def polish(problem, beta, resid, certificate=kkt_check):
    """The solver's finish, one column at a time: the support rule, then
    NEWTON_STEPS Newton steps on X_I'(X_I b - y) + lambda * b_b/||b_b|| = 0
    from the certified FISTA point `beta` (certificate `resid`), stopping at
    a stationarity residual of 1e-15 * s(y).  A step that zeroes a block or
    leaves the positive definite region, or a polished point whose
    `certificate(problem, point)[0]` is worse, keeps the FISTA point and its
    factor.  Returns (beta, resid, support, factor)."""
    support = block_support(problem.partition, beta)
    if support.is_empty:
        return beta, resid, support, None
    idx = support.indices
    gram_ii = problem.design.gram[idx[:, None], idx]
    xty_i = (problem.design.matrix.T @ problem.y)[idx]
    lam = problem.lam
    beta_i = support.restrict(beta)
    start = factor = system_factor(gram_ii, lam, beta_i, support)
    floor = 1e-15 * lambda_max(problem.design, problem.y, problem.partition)
    for _ in range(NEWTON_STEPS):
        stat = gram_ii @ beta_i - xty_i + lam * unit_and_dense_delta_P(beta_i, support)[0]
        if np.max(np.abs(stat)) <= floor:
            break
        beta_i = beta_i - factor_solve(factor, stat)
        try:
            factor = system_factor(gram_ii, lam, beta_i, support)
        except (ValueError, scipy.linalg.LinAlgError):
            return beta, resid, support, start
    candidate = np.zeros(problem.design.N)
    candidate[idx] = beta_i
    polished_resid, _ = certificate(problem, candidate)
    if polished_resid <= resid:
        return candidate, polished_resid, support, factor
    return beta, resid, support, start
