"""How the group lasso solution moves when the observations move.

Away from a measure-zero set of observations, the solution map y -> beta(y)
is locally smooth with a constant block support, and its on-support Jacobian
solves a small SPD system.  This script computes that Jacobian on a random
instance, checks it entry-by-entry against central finite differences of
re-solved problems, and probes the local support stability directly.
"""

import numpy as np

from gldof import (
    BlockPartition,
    Design,
    Problem,
    SolverOptions,
    differential,
    dof_estimate,
    fd_oracle,
    lambda_max,
    solve,
    transition_proximity,
)

rng = np.random.default_rng(8)
Q, N = 30, 12
partition = BlockPartition.from_sizes([3, 3, 3, 3])
design = Design(rng.standard_normal((Q, N)) / np.sqrt(Q))
y = rng.standard_normal(Q)
lam = lambda_max(design, y, partition) / 2.5
problem = Problem(design, y, lam, partition)

solution = solve(problem, SolverOptions(kkt_tol=1e-12))
print(f"solved: {solution.iterations} iterations, "
      f"kkt residual {solution.kkt_residual:.2e}")
print(f"active blocks: {solution.support.active} "
      f"({solution.support.active_dim} of {N} coordinates)")

margin_t, margin_s, warned = transition_proximity(problem, solution)
print(f"distance to a support change: dual margin {margin_t:.4f}, "
      f"smallest active block norm {margin_s:.4f}, fragile={warned}")

# closed-form Jacobian vs finite differences of the solution map
d = differential(problem, solution)
fd, fd_div = fd_oracle(problem, base=solution)
entry_err = np.max(np.abs(d - fd))
print(f"\nJacobian of y -> beta(y) on the support: {d.shape[0]} x {d.shape[1]}")
print(f"worst entry disagreement vs finite differences: {entry_err:.2e} "
      f"(entries up to {np.max(np.abs(d)):.2f})")

report = dof_estimate(problem, solution)
print(f"divergence of y -> X beta(y): closed form {report.divergence:.8f}, "
      f"finite differences {fd_div:.8f}")

# the support really is locally constant: perturb y in random directions
eps = 1e-6 * np.linalg.norm(y)
flips = 0
for _ in range(50):
    u = rng.standard_normal(Q)
    probe = solve(problem.with_y(y + eps * (u / np.linalg.norm(u))),
                  SolverOptions(kkt_tol=1e-10))
    flips += probe.support.active != solution.support.active
print(f"\nsupport changes over 50 perturbations of size {eps:.2e}: {flips}")
