#!/usr/bin/env python3
"""Desk-scale Monte Carlo comparison of balancing scores.

Replays a scenario where the two treatment arms have different
outcome-informative directions, so ambient matching pays for ten noisy
dimensions while reduced-covariate matching works in one per group. With more
replicates (R in the hundreds) the table stabilizes further; this demo keeps
R small so it runs in seconds.
"""

import time

from sdrmatch import run_monte_carlo, scenario

R = 100
spec = scenario(
    "case1-III", n=500,
    methods=("ambient", "ps-logistic", "ps-true", "sdr-oracle", "sdr"),
)

start = time.time()
report = run_monte_carlo(spec, reps=R, seed=11, n_matches=1)
elapsed = time.time() - start

print(f"scenario {report.scenario}: true effect {report.truth:.4f} "
      f"({report.truth_source}), {R} replicates, {elapsed:.1f}s")
print(f"{'method':<20}{'bias':>10}{'sd':>10}{'rmse':>10}")
for method, res in report.methods.items():
    print(f"{method:<20}{res.bias:>10.4f}{res.sd:>10.4f}{res.rmse:>10.4f}")

print("\nreduced covariates should dominate ambient matching on both bias and")
print("variance here, and track the oracle reduction closely.")
