"""Shared instance builders for the test suite."""

import numpy as np
import scipy.linalg

from gldof.core import (BlockPartition, BlockSupport, DegenerateBlockError, Design, block_support,
                        normalize_blocks)
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
    unit = normalize_blocks(beta_i, sup)

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
    the bit.  Raises DegenerateBlockError on a zero block."""
    v = np.asarray(beta_i, dtype=float)
    norms = np.sqrt(np.add.reduceat(v * v, support.offsets[:-1]))
    if not norms.all():
        raise DegenerateBlockError(f"zero block at active position {np.argmin(norms)}")
    norms = np.repeat(norms, support.sizes)
    block = np.repeat(np.arange(support.n_active), support.sizes)
    same_block = (block[:, None] == block).astype(float)
    u = v / norms
    return u, (np.eye(v.size) - u[:, None] * u * same_block) / norms[:, None]


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
    xty_i = problem.xty()[idx]
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
    candidate = support.embed(beta_i)
    polished_resid, _ = certificate(problem, candidate)
    if polished_resid <= resid:
        return candidate, polished_resid, support, factor
    return beta, resid, support, start
