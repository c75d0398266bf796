#!/usr/bin/env python3
"""Estimating the outcome-informative subspace with sliced inverse regression.

We simulate a single-index outcome, walk through the SIR steps by hand
(standardize, slice, slice means, candidate matrix, eigen-decomposition,
sequential rank test), and show that the one-call estimator recovers the true
direction.
"""

import numpy as np

from sdrmatch import (
    ObservationalSample,
    RngStream,
    apply_standardization,
    candidate_matrix,
    estimate_central_subspace,
    fit_standardization,
    reduce_covariates,
    sequential_rank_test,
    slice_by_quantiles,
    sym_eigen,
)

rng = RngStream(seed=2024)
n, p = 1500, 6

# one direction drives the outcome; everything else is noise
direction = np.array([3.0, 1.0, -2.0, 0.0, 0.0, 0.0])
direction /= np.linalg.norm(direction)
x = rng.normal((n, p))
index = x @ direction
y = np.sin(index) + 0.5 * index ** 2 + 0.2 * rng.normal(n)

sample = ObservationalSample(x, np.zeros(n, dtype=int), y)

print("== step by step ==")
smap = fit_standardization(sample, group=0)
z = apply_standardization(smap, x)
sliced = slice_by_quantiles(y, z, n_slices=5)
print(f"slice sizes: {sliced.slice_sizes.tolist()}")

m_hat = candidate_matrix(sliced)
eig = sym_eigen(m_hat)
print(f"eigenvalues of the slice-mean moment matrix: "
      f"{np.round(eig.eigenvalues, 4).tolist()}")

rank, pvalues = sequential_rank_test(eig.eigenvalues, n, p, sliced.slice_sizes.size,
                                     alpha=0.05)
print(f"sequential test p-values: {np.round(pvalues, 4).tolist()}")
print(f"selected rank: {rank}")

print("\n== one call ==")
estimate = estimate_central_subspace(sample, group=0, n_slices=5, alpha=0.05)
recovered = estimate.composite_map[:, 0]
recovered /= np.linalg.norm(recovered)
cosine = abs(recovered @ direction)
print(f"selected rank: {estimate.selected_rank}"
      f"{' (fallback)' if estimate.rank_fallback else ''}")
print(f"|cos| between recovered and true direction: {cosine:.4f}")

reduced = reduce_covariates(estimate, x)
print(f"reduced covariates shape: {reduced.shape}")
print(f"corr(reduced_1, true index): "
      f"{abs(np.corrcoef(reduced[:, 0], index)[0, 1]):.4f}")
