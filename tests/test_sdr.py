import dataclasses

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdrmatch.dataset import ObservationalSample
from sdrmatch.errors import InsufficientData, InvalidArgument, SliceError
from sdrmatch.numerics import RngStream
from sdrmatch.sdr import (
    CentralSubspaceEstimate,
    SlicedMoments,
    candidate_matrix,
    estimate_central_subspace,
    reduce_covariates,
    sequential_rank_test,
    slice_by_quantiles,
)
from sdrmatch.simulation import generate, scenario


def make_sample(x, t, y):
    return ObservationalSample(np.asarray(x, float), np.asarray(t), np.asarray(y, float))


def unique_slices(y, z, n_slices):
    """slice_by_quantiles as written with np.unique: (boundaries, sizes, means)."""
    n = y.shape[0]
    idx = np.asarray([math.ceil(j * n / n_slices) for j in range(1, n_slices + 1)])
    boundaries = np.unique(np.sort(y)[idx - 1])
    assignment = np.searchsorted(boundaries, y, side="left")
    sizes = np.bincount(assignment, minlength=boundaries.shape[0])
    means = np.array([z[assignment == j].mean(axis=0) for j in range(boundaries.shape[0])])
    return boundaries, sizes, means


class TestSlicing:
    def test_order_statistic_boundaries(self):
        y = np.arange(1.0, 11.0)
        z = np.arange(10.0).reshape(-1, 1)
        sliced = slice_by_quantiles(y, z, 5)
        # q_j = y_(2j): slice j holds z = 2j - 2 and 2j - 1
        assert sliced.slice_sizes.tolist() == [2, 2, 2, 2, 2]
        assert sliced.slice_means[:, 0].tolist() == [0.5, 2.5, 4.5, 6.5, 8.5]

    def test_all_ties_raises(self):
        y = np.ones(8)
        z = np.zeros((8, 2))
        with pytest.raises(SliceError, match=r"^outcome ties leave 1 usable slice\(s\)$"):
            slice_by_quantiles(y, z, 2)

    def test_single_slice_rejected(self):
        with pytest.raises(InvalidArgument):
            slice_by_quantiles(np.arange(5.0), np.zeros((5, 1)), 1)

    def test_misaligned_rows_rejected(self):
        with pytest.raises(InvalidArgument, match="^outcomes and covariate rows must align$"):
            slice_by_quantiles(np.arange(6.0), np.zeros((5, 1)), 2)

    def test_group_smaller_than_slice_count_rejected(self):
        with pytest.raises(InvalidArgument, match="^group size 4 is smaller than 5 slices$"):
            slice_by_quantiles(np.arange(4.0), np.zeros((4, 1)), 5)

    def test_partial_ties_merge(self):
        # heavy ties at zero should merge, leaving at least two slices
        y = np.array([0.0] * 6 + [1.0, 2.0, 3.0, 4.0])
        z = np.arange(10.0).reshape(-1, 1)
        sliced = slice_by_quantiles(y, z, 5)
        assert 2 <= sliced.slice_sizes.size <= 5
        assert sliced.slice_sizes.sum() == 10

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.5, -3.0, 1e300]),
                    min_size=2, max_size=60),
           st.integers(2, 12))
    def test_boundaries_are_np_unique_of_the_cuts(self, values, n_slices):
        # tie-heavy outcomes: the neighbour mask over the sorted cuts keeps the
        # slices np.unique's distinct boundaries gave
        y = np.asarray(values)
        z = np.arange(2.0 * y.size).reshape(-1, 2)
        if y.size < n_slices:
            return
        boundaries, sizes, means = unique_slices(y, z, n_slices)
        if boundaries.size < 2:
            with pytest.raises(SliceError, match=f"leave {boundaries.size} usable"):
                slice_by_quantiles(y, z, n_slices)
            return
        sliced = slice_by_quantiles(y, z, n_slices)
        assert np.array_equal(sliced.slice_sizes, sizes)
        assert sliced.slice_means.tobytes() == means.tobytes()

    def test_nan_cuts_merge_into_one_boundary_as_np_unique_merges_them(self):
        y = np.array([2.0, np.nan, 1.0, np.nan, 3.0, np.nan, 0.0, np.nan, np.nan, 4.0])
        z = np.arange(10.0).reshape(-1, 1)
        with np.errstate(invalid="ignore"):
            boundaries, sizes, means = unique_slices(y, z, 5)
            sliced = slice_by_quantiles(y, z, 5)
        assert boundaries.size == 3 and np.isnan(boundaries[-1])   # three NaN cuts
        assert np.array_equal(sliced.slice_sizes, sizes)
        assert sliced.slice_means.tobytes() == means.tobytes()

    def test_sizes_cover_group(self):
        rng = RngStream(21)
        y = rng.normal(97)
        z = rng.normal((97, 3))
        sliced = slice_by_quantiles(y, z, 5)
        assert sliced.slice_sizes.sum() == 97
        assert (sliced.slice_sizes > 0).all()
        # tie-heavy integer outcomes: every slice is still non-empty
        for rep in range(200):
            n = 5 + int(rng.uniform() * 60)
            y = np.floor(rng.uniform(n) * (1 + int(rng.uniform() * 6)))
            n_slices = 2 + int(rng.uniform() * min(n - 1, 9))
            try:
                sliced = slice_by_quantiles(y, np.zeros((n, 1)), n_slices)
            except SliceError:
                continue
            assert sliced.slice_sizes.sum() == n
            assert (sliced.slice_sizes > 0).all()
            assert sliced.slice_means.shape == (sliced.slice_sizes.size, 1)


class TestCandidateMatrix:
    def test_single_slice_zero_mean(self):
        # single slice: its mean is the standardized overall mean, i.e. zero
        sliced = SlicedMoments(
            slice_means=np.zeros((1, 3)),
            slice_sizes=np.array([10]),
        )
        assert np.array_equal(candidate_matrix(sliced), np.zeros((3, 3)))

    def test_two_slice_hand_example(self):
        sliced = SlicedMoments(
            slice_means=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            slice_sizes=np.array([5, 5]),
        )
        assert np.allclose(candidate_matrix(sliced), np.diag([1.0, 0.0]))

    def test_slices_weighted_by_size(self):
        sliced = SlicedMoments(
            slice_means=np.array([[2.0], [-0.5]]),
            slice_sizes=np.array([2, 8]),
        )
        # 0.2 * 2^2 + 0.8 * 0.5^2; equal weights would give 2.125
        assert np.allclose(candidate_matrix(sliced), [[1.0]])

    def test_single_index_recovery(self):
        rng = RngStream(33)
        n, p = 2000, 5
        x = rng.normal((n, p))
        y = (x[:, 0] + 0.5) ** 2 + 0.1 * rng.normal(n)
        sliced = slice_by_quantiles(y, x - x.mean(axis=0), 5)
        m = candidate_matrix(sliced)
        from sdrmatch.numerics import sym_eigen
        top = sym_eigen(m).eigenvectors[:, 0]
        cosine = abs(top[0]) / np.linalg.norm(top)
        assert cosine >= 0.95

    def test_psd(self):
        rng = RngStream(35)
        means = rng.normal((4, 3))
        sliced = SlicedMoments(means, np.full(4, 5))
        from sdrmatch.numerics import sym_eigen
        values = sym_eigen(candidate_matrix(sliced)).eigenvalues
        assert values.min() >= -1e-10


class TestSequentialRankTest:
    def test_all_zero_eigenvalues(self):
        rank, pvalues = sequential_rank_test(np.zeros(6), 100, 6, 5, 0.05)
        assert rank == 0
        assert pvalues[0] == 1.0

    def test_one_strong_direction(self):
        lam = np.array([0.5, 1e-9] + [0.0] * 8)
        rank, pvalues = sequential_rank_test(lam, 250, 10, 5, 0.05)
        assert rank == 1
        assert pvalues[0] < 0.05 < pvalues[1]

    @pytest.mark.parametrize("alpha", [float("nan"), 1.5, -1.0, 0.0, 1.0])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(InvalidArgument, match=r"^alpha must be in \(0, 1\)"):
            sequential_rank_test(np.zeros(6), 100, 6, 5, alpha)

    def test_cap_when_everything_significant(self):
        lam = np.full(10, 5.0)
        rank, _ = sequential_rank_test(lam, 1000, 10, 5, 0.05)
        assert rank == min(10, 5 - 1)


class TestRankTestSize:
    """Under y independent of X the rank test rejects rank 0 at about alpha."""

    @staticmethod
    def rejection_rate(tied_share, reps=1000, n=250, p=10, alpha=0.05):
        rejections = 0
        for rep in range(reps):
            rng = RngStream(2024, rep)
            x = rng.normal((n, p))
            y = rng.normal(n)
            y = np.where(rng.uniform(n) < tied_share, 0.0, y)
            sample = make_sample(x, np.zeros(n, dtype=int), y)
            est = estimate_central_subspace(sample, 0, n_slices=5, alpha=alpha)
            rejections += est.test_pvalues[0] <= alpha
        return rejections / reps

    def test_size_with_tied_outcomes(self):
        # 30% of outcomes tied at zero leave the slices of unequal size
        assert 0.02 <= self.rejection_rate(0.3) <= 0.08

    def test_size_with_continuous_outcomes(self):
        assert 0.02 <= self.rejection_rate(0.0) <= 0.08


class TestRankOneTestSize:
    """Under y = x_1 + 0.5 e with normal X, the true rank is 1 and the rank test
    rejects rank 1 at about alpha (Li 1991's chi-square holds at d >= 1 for normal X)."""

    @staticmethod
    def rejection_rate(n, reps=1000, p=10, alpha=0.05):
        rejections = 0
        for rep in range(reps):
            rng = RngStream(2025, rep)
            x = rng.normal((n, p))
            y = x[:, 0] + 0.5 * rng.normal(n)
            sample = make_sample(x, np.zeros(n, dtype=int), y)
            est = estimate_central_subspace(sample, 0, n_slices=5, alpha=alpha)
            rejections += est.test_pvalues[1] <= alpha
        return rejections / reps

    @pytest.mark.parametrize("n", [250, 1000])
    def test_size_with_continuous_outcomes(self, n):
        assert 0.02 <= self.rejection_rate(n) <= 0.08


class TestEstimateCentralSubspace:
    def test_model_one_control_group(self):
        spec = scenario("case1-I")
        ranks, cosines = [], []
        for rep in range(40):
            data = generate(spec, RngStream(77, rep))
            est = estimate_central_subspace(data.sample, 0)
            ranks.append(0 if est.rank_fallback else est.selected_rank)
            lead = est.composite_map[:, 0]
            cosines.append(abs(lead[0]) / np.linalg.norm(lead))
        assert np.mean(np.asarray(ranks) == 1) >= 0.8
        assert np.mean(cosines) >= 0.9

    def test_pure_noise_falls_back(self):
        flags = []
        for rep in range(40):
            rng = RngStream(78, rep)
            x = rng.normal((200, 4))
            y = rng.normal(200)
            sample = make_sample(x, np.zeros(200, dtype=int), y)
            est = estimate_central_subspace(sample, 0)
            flags.append(est.rank_fallback)
        assert np.mean(flags) > 0.5

    def test_rank_respects_cap(self):
        spec = scenario("case1-III")
        data = generate(spec, RngStream(79, 0))
        est = estimate_central_subspace(data.sample, 0, n_slices=5)
        assert 1 <= est.selected_rank <= 4

    def test_small_group_rejected(self):
        x = np.vstack([np.eye(3), np.eye(3), np.eye(3)])
        t = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1])
        sample = make_sample(x, t, np.arange(9.0))
        with pytest.raises(InsufficientData):
            estimate_central_subspace(sample, 0)

    def test_basis_columns_orthonormal(self):
        spec = scenario("case1-III")
        data = generate(spec, RngStream(80, 1))
        est = estimate_central_subspace(data.sample, 1)
        gram = est.basis.T @ est.basis
        assert np.abs(gram - np.eye(est.selected_rank)).max() < 1e-8


class TestReduceCovariates:
    def test_composite_equals_basis_after_standardization(self):
        spec = scenario("case1-II")
        data = generate(spec, RngStream(81, 0))
        est = estimate_central_subspace(data.sample, 0)
        x = data.sample.covariates
        from sdrmatch.dataset import apply_standardization
        direct = reduce_covariates(est, x)
        via_std = apply_standardization(est.standardization, x) @ est.basis
        assert np.array_equal(direct, via_std)

    def test_coordinate_selector(self):
        from sdrmatch.dataset import StandardizationMap
        from sdrmatch.sdr import CentralSubspaceEstimate
        basis = np.array([[1.0], [0.0], [0.0]])
        est = CentralSubspaceEstimate(
            standardization=StandardizationMap(np.zeros(3), np.eye(3)),
            eigenvalues=np.zeros(3),
            basis=basis,
            test_pvalues=np.zeros(1),
            rank_fallback=False,
        )
        x = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(reduce_covariates(est, x)[:, 0], x[:, 0])

    def test_rank_two_selector_drops_third(self):
        from sdrmatch.dataset import StandardizationMap
        from sdrmatch.sdr import CentralSubspaceEstimate
        basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        est = CentralSubspaceEstimate(
            standardization=StandardizationMap(np.zeros(3), np.eye(3)),
            eigenvalues=np.zeros(3),
            basis=basis,
            test_pvalues=np.zeros(1),
            rank_fallback=False,
        )
        x = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(reduce_covariates(est, x), x[:, :2])

    def test_dimension_mismatch(self):
        spec = scenario("case1-I")
        data = generate(spec, RngStream(82, 0))
        est = estimate_central_subspace(data.sample, 0)
        with pytest.raises(InvalidArgument):
            reduce_covariates(est, np.ones((2, 3)))


class TestInvariants:
    def test_slice_mean_identity(self):
        # size-weighted slice means of standardized covariates sum to zero
        rng = RngStream(83)
        x = rng.normal((150, 4))
        y = x[:, 0] + 0.2 * rng.normal(150)
        sample = make_sample(x, np.zeros(150, dtype=int), y)
        from sdrmatch.dataset import apply_standardization, fit_standardization
        smap = fit_standardization(sample, 0)
        z = apply_standardization(smap, x)
        sliced = slice_by_quantiles(y, z, 5)
        weighted = (sliced.slice_sizes[:, None] * sliced.slice_means).sum(axis=0)
        assert np.abs(weighted).max() < 1e-8 * 150

    def test_monotone_outcome_transform_leaves_candidate_unchanged(self):
        rng = RngStream(84)
        x = rng.normal((120, 3))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(120)
        z = x - x.mean(axis=0)
        before = candidate_matrix(slice_by_quantiles(y, z, 5))
        after = candidate_matrix(slice_by_quantiles(np.exp(y), z, 5))
        assert np.array_equal(before, after)


class TestDerivedFields:
    """selected_rank and composite_map are read from basis, never stored."""

    def test_not_stored_fields(self):
        names = {f.name for f in dataclasses.fields(CentralSubspaceEstimate)}
        assert not names & {"selected_rank", "composite_map"}

    @pytest.mark.parametrize("case, seed", [("case1-III", 91), ("case1-II", 92)])
    def test_properties_equal_their_expressions(self, case, seed):
        data = generate(scenario(case), RngStream(seed, 0))
        for group in (0, 1):
            est = estimate_central_subspace(data.sample, group)
            assert est.selected_rank == est.basis.shape[1]
            assert type(est.selected_rank) is int
            assert np.array_equal(est.composite_map,
                                  est.standardization.inv_sqrt_cov @ est.basis)
