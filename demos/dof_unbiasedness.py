"""The divergence formula is an unbiased estimate of the degrees of freedom.

The DOF of an estimator mu_hat under Gaussian noise is
sum_i cov(y_i, mu_hat_i) / sigma^2.  Estimating that covariance by Monte
Carlo needs thousands of fresh solves; the divergence formula needs one
small trace per instance.  This script runs both on the same replicates
and shows they agree within Monte Carlo error.
"""

import time

import numpy as np

from gldof import ScenarioSpec, generate, lambda_max, mc_dof

scenario = generate(ScenarioSpec(Q=20, N=10, block_sizes=(2, 2, 2, 2, 2),
                                 k_active=2, signal_scale=1.0, sigma=0.5,
                                 seed=42))
lam = 0.5 * lambda_max(scenario.design, scenario.mu0, scenario.partition)
print(f"scenario: Q=20, N=10, five blocks of 2, two active, sigma=0.5")
print(f"lambda = {lam:.4f} (half the noiseless lambda_max)\n")

print(f"{'replicates':>10} {'mean divergence':>16} {'stein mc dof':>14} "
      f"{'|diff|':>8} {'3x stderr':>10} {'verdict':>8}")
for replicates in (250, 1000, 4000):
    t0 = time.time()
    result = mc_dof(scenario, lam, replicates=replicates, seed=7)
    gap = abs(result.mean_divergence - result.mc_dof)
    bound = 3 * result.combined_stderr
    verdict = "ok" if result.consistent() else "MISMATCH"
    print(f"{replicates:10d} {result.mean_divergence:16.4f} "
          f"{result.mc_dof:14.4f} {gap:8.4f} {bound:10.4f} {verdict:>8}"
          f"   [{time.time() - t0:.1f}s]")

print(f"\nreplicates near a support boundary (flagged, kept): {result.n_warned}")
