"""Sliced inverse regression per treatment group.

Pipeline: standardize the group's covariates, slice its outcomes at empirical
quantiles, average the standardized covariates within each slice, build the
slice-mean second-moment matrix, eigen-decompose it, and pick the subspace
rank with a sequential chi-square test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .dataset import (
    ObservationalSample,
    StandardizationMap,
    apply_standardization,
    fit_standardization,
)
from .errors import InsufficientData, InvalidArgument, SliceError

__all__ = [
    "SlicedMoments",
    "CentralSubspaceEstimate",
    "slice_by_quantiles",
    "candidate_matrix",
    "sequential_rank_test",
    "estimate_central_subspace",
    "reduce_covariates",
]


@dataclass(frozen=True)
class SlicedMoments:
    """Per-slice means of standardized covariates.

    The slice count H = slice_sizes.size counts the slices that survived tie
    collapsing, so it can be smaller than the requested count for discrete
    outcomes.
    """

    slice_means: np.ndarray     # (H, p)
    slice_sizes: np.ndarray     # (H,), sums to the group size


@dataclass(frozen=True)
class CentralSubspaceEstimate:
    """Estimated outcome-informative subspace for one treatment group.

    `basis` lives in the standardized scale. reduce_covariates computes
    reduced covariates in two steps: standardize through `standardization`,
    then apply `basis`.
    """

    standardization: StandardizationMap
    eigenvalues: np.ndarray
    basis: np.ndarray
    test_pvalues: np.ndarray
    rank_fallback: bool

    @property
    def selected_rank(self) -> int:
        """Columns of basis: the tested rank, or 1 after a fallback."""
        return self.basis.shape[1]

    @property
    def composite_map(self) -> np.ndarray:
        """inv_sqrt_cov @ basis: reduce_covariates' map on the raw scale, up to
        the mean shift and rounding, so each basis direction in raw units."""
        return self.standardization.inv_sqrt_cov @ self.basis


def check_tuning(n_slices: int = 2, alpha: float = 0.5) -> None:
    """Reject SIR tuning that no fit could run with: n_slices < 2, alpha outside (0, 1)."""
    if n_slices < 2:
        raise InvalidArgument(f"need at least 2 slices, got {n_slices}")
    if not 0.0 < alpha < 1.0:
        raise InvalidArgument(f"alpha must be in (0, 1), got {alpha}")


def slice_by_quantiles(outcomes, standardized_covariates, n_slices: int) -> SlicedMoments:
    """Assign subjects to outcome slices and average their covariate rows.

    Slice j is the half-open interval (q_{j-1}, q_j], with q_j the order
    statistic at index ceil(j * n / H) (1-based) and q_0 = -inf. Duplicate
    boundaries (outcome ties) are collapsed by merging slices.

    Raises:
        InvalidArgument: n_slices < 2 or fewer subjects than slices.
        SliceError: fewer than two slices survive tie collapsing; the message
            states the effective slice count.
    """
    y = np.asarray(outcomes, dtype=float)
    z = np.atleast_2d(np.asarray(standardized_covariates, dtype=float))
    check_tuning(n_slices)
    n = y.shape[0]
    if z.shape[0] != n:
        raise InvalidArgument("outcomes and covariate rows must align")
    if n < n_slices:
        raise InvalidArgument(f"group size {n} is smaller than {n_slices} slices")

    cuts = np.sort(y)[[math.ceil(j * n / n_slices) - 1 for j in range(1, n_slices + 1)]]
    # as np.unique (which imports numpy.ma): each distinct cut once, the NaNs merged into one
    boundaries = cuts[np.concatenate(([True], (cuts[1:] != cuts[:-1]) & ~np.isnan(cuts[:-1])))]
    if boundaries.shape[0] < 2:
        raise SliceError(f"outcome ties leave {boundaries.shape[0]} usable slice(s)")

    # every boundary is an observed outcome, so no slice is empty
    assignment = np.searchsorted(boundaries, y, side="left")
    sizes = np.bincount(assignment, minlength=boundaries.shape[0])

    k = boundaries.shape[0]
    means = np.empty((k, z.shape[1]))
    for j in range(k):
        means[j] = z[assignment == j].mean(axis=0)
    return SlicedMoments(slice_means=means, slice_sizes=sizes)


def candidate_matrix(sliced: SlicedMoments) -> np.ndarray:
    """Slice-size-weighted second moment of the slice means:
    sum_j (n_j / n) mu_j mu_j'.

    These are the weights under which n times the trailing eigenvalues is
    asymptotically chi-square (Li 1991, JASA 86:316), so the rank test holds
    its size when outcome ties leave the slices of unequal size.
    """
    weights = sliced.slice_sizes / sliced.slice_sizes.sum()
    m = (sliced.slice_means.T * weights) @ sliced.slice_means
    return 0.5 * (m + m.T)


def sequential_rank_test(eigenvalues, n_obs: int, p: int, n_slices: int,
                         alpha: float) -> tuple[int, np.ndarray]:
    """Sequential chi-square test for the subspace rank.

    For hypothesized rank d the statistic is n_obs times the sum of the
    eigenvalues beyond d, referred to a chi-square with (p - d)(H - 1 - d)
    degrees of freedom. The selected rank is the smallest d whose p-value
    exceeds alpha, capped at min(p, H - 1).

    Returns:
        (selected_rank, p-values for d = 0, 1, ..., cap - 1)

    Raises:
        InvalidArgument: alpha outside (0, 1), NaN included.
    """
    check_tuning(alpha=alpha)
    lam = np.asarray(eigenvalues, dtype=float)
    cap = min(p, n_slices - 1)
    pvalues = np.empty(cap)
    for d in range(cap):
        stat = n_obs * max(float(lam[d:].sum()), 0.0)
        pvalues[d] = numerics.chi_square_sf(stat, (p - d) * (n_slices - 1 - d))
    above = np.flatnonzero(pvalues > alpha)
    return (int(above[0]) if above.size else cap), pvalues


def estimate_central_subspace(sample: ObservationalSample, group: int,
                              n_slices: int = 5, alpha: float = 0.05) -> CentralSubspaceEstimate:
    """Run the full per-group reduction: standardize, slice, eigen, rank test.

    A selected rank of zero falls back to rank one (matching needs at least
    one coordinate); the estimate's rank_fallback flag records this.

    Raises:
        InsufficientData: group smaller than max(n_slices, p + 1).
    """
    members = sample.group_indices(group)
    p = sample.n_covariates
    if members.size < max(n_slices, p + 1):
        raise InsufficientData(
            f"group {group} has {members.size} subjects; "
            f"need at least {max(n_slices, p + 1)}"
        )
    smap = fit_standardization(sample, group)
    z = apply_standardization(smap, sample.covariates[members])
    sliced = slice_by_quantiles(sample.outcome[members], z, n_slices)
    eig = numerics.sym_eigen(candidate_matrix(sliced))
    selected, pvalues = sequential_rank_test(
        eig.eigenvalues, members.size, p, sliced.slice_sizes.size, alpha
    )
    return CentralSubspaceEstimate(
        standardization=smap,
        eigenvalues=eig.eigenvalues,
        basis=eig.eigenvectors[:, :max(selected, 1)],
        test_pvalues=pvalues,
        rank_fallback=selected == 0,
    )


def reduce_covariates(estimate: CentralSubspaceEstimate, covariates) -> np.ndarray:
    """Project raw covariates (any subjects) onto the estimated subspace.

    Equivalent to standardizing through the fitting group's map and applying
    the basis; returns an (n, rank) matrix.
    """
    return apply_standardization(estimate.standardization, covariates) @ estimate.basis
