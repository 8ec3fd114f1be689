"""Choosing lambda from the data: risk criteria along the whole path.

With an unbiased DOF estimate, SURE turns the residual norm into an
unbiased estimate of the prediction risk, so the lambda minimizing SURE
should land near the lambda minimizing the true risk.  On synthetic data
the truth is known, so the script can show both curves side by side and
write the full table as CSV.
"""

import numpy as np

from gldof import (
    ScenarioSpec,
    SolverOptions,
    generate,
    lambda_path,
    solve_batch,
)

scenario = generate(ScenarioSpec(Q=40, N=12, block_sizes=(3, 3, 3, 3),
                                 k_active=2, signal_scale=1.2, sigma=0.4,
                                 seed=5))
y = scenario.draw_y(seed=1)

curve = lambda_path(scenario.design, y, scenario.partition,
                    sigma=scenario.sigma, n_points=40, decades=2.0)

# the ground truth risk ||X beta(y) - mu0||^2, computable here only because
# the data is synthetic: one batch of solves, a column of y per lambda,
# each solution's beta a plain length-N array
ys = np.repeat(y[:, None], len(curve), axis=1)
solutions = solve_batch(scenario.design, ys, curve.lambdas, scenario.partition,
                        SolverOptions(kkt_tol=1e-10))
true_risk = np.array([np.sum((scenario.design.matrix @ sol.beta - scenario.mu0) ** 2)
                      for sol in solutions])

best_sure = curve.select("sure")
best_gcv = curve.select("gcv")
best_true = curve.lambdas[np.argmin(true_risk)]

print(f"{'lambda':>10} {'active':>6} {'dof':>8} {'sure':>10} {'gcv':>10} "
      f"{'true loss':>10}")
for i in range(0, len(curve), 4):
    print(f"{curve.lambdas[i]:10.4f} {curve.active_dim[i]:6d} "
          f"{curve.dof[i]:8.3f} {curve.sure[i]:10.4f} {curve.gcv[i]:10.4f} "
          f"{true_risk[i]:10.4f}")

print()
print(f"argmin SURE:      lambda = {best_sure:.4f}")
print(f"argmin GCV:       lambda = {best_gcv:.4f}")
print(f"argmin true loss: lambda = {best_true:.4f} (needs the unknown truth)")

curve.write_csv("lambda_path.csv")
print("\nfull table written to lambda_path.csv")
