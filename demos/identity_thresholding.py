"""Block soft thresholding and its exact degrees of freedom.

For the identity design the group lasso decouples: each block of y is
shrunk radially toward zero and killed outright once its norm drops to
lambda.  The DOF of that estimator has a closed form, and this script
shows the divergence-based estimate reproducing it to near machine
precision, at a sweep of lambdas.
"""

import numpy as np

from gldof import (
    BlockPartition,
    Design,
    Problem,
    SolverOptions,
    dof_estimate,
    dof_identity_closed_form,
    solve,
)

rng = np.random.default_rng(1)

# three blocks with very different energies
partition = BlockPartition.from_sizes([2, 3, 2])
y = np.concatenate([
    [3.0, 4.0],                  # norm 5: survives all lambdas below 5
    0.3 * rng.standard_normal(3),  # small block: dies early
    [1.2, -0.9],                 # norm 1.5: dies in the middle
])
design = Design.identity(7)

print("per-block soft thresholding at lambda = 1:")
for i, block in enumerate(partition):
    vb = y[list(block)]
    # the prox of lambda * ||.||: shrink the block's norm by lambda, or kill it
    shrunk = max(1.0 - 1.0 / np.linalg.norm(vb), 0.0) * vb
    print(f"  block {i}: |y_b| = {np.linalg.norm(vb):.3f} -> "
          f"|shrunk| = {np.linalg.norm(shrunk):.3f}")

print()
print(f"{'lambda':>8} {'active dim':>10} {'dof estimate':>14} "
      f"{'closed form':>14} {'abs diff':>10}")
for lam in [0.25, 0.5, 1.0, 1.5, 2.5, 4.0, 6.0]:
    problem = Problem(design, y, lam, partition)
    solution = solve(problem, SolverOptions(kkt_tol=1e-13))
    report = dof_estimate(problem, solution)
    closed = dof_identity_closed_form(y, lam, partition)
    print(f"{lam:8.2f} {report.support.active_dim:10d} "
          f"{report.divergence:14.10f} {closed:14.10f} "
          f"{abs(report.divergence - closed):10.2e}")

print()
print("note how the DOF is not just the active dimension: each surviving")
print("block of size s contributes s - lambda*(s-1)/|y_b|, i.e. the radial")
print("shrinkage gives back some of the dimensions it keeps.")
