"""Shared instance builders for the test suite."""

import numpy as np
import scipy.linalg

from gldof.core import BlockPartition, BlockSupport, Design, normalize_blocks
from gldof.solver import Problem, lambda_max


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
