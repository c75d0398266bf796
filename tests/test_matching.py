import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sdrmatch.dataset import ObservationalSample, load_csv
from sdrmatch import matching
from sdrmatch.errors import InsufficientData, InsufficientDonors, InvalidArgument, InvalidMatrix
from sdrmatch.matching import (
    FOR_CONTROL,
    FOR_TREATED,
    BalancingScore,
    MahalanobisMetric,
    balancing_score,
    build_metric,
    estimate,
    find_matches,
    impute,
)
from sdrmatch.numerics import RngStream, inverse_sqrt_spd
from sdrmatch.propensity import fit_logistic, predict_ps
from sdrmatch.simulation import generate, scenario

LALONDE = Path(__file__).resolve().parents[1] / "data" / "lalonde_cps3_synthetic.csv"


def sdr_score(sample, estimand):
    return balancing_score("sdr", sample, estimand=estimand, n_slices=5, alpha=0.05)


def unridged_metric(scores):
    """build_metric without its ridge: the exact inverse square root of the pooled covariance."""
    return MahalanobisMetric(inverse_sqrt_spd(np.cov(scores, rowvar=False), 0.0))


def make_sample(x, t, y):
    return ObservationalSample(
        np.atleast_2d(np.asarray(x, float).T).T.reshape(len(t), -1),
        np.asarray(t),
        np.asarray(y, float),
    )


def brute_force_matches(scores, treatment, inv_cov, n_matches, direction):
    """Independent re-implementation: python loops, definition-form distances."""
    scores = np.atleast_2d(np.asarray(scores, float))
    t = np.asarray(treatment)
    query_label = 1 if direction == FOR_TREATED else 0
    queries = [i for i in range(len(t)) if t[i] == query_label]
    donors = [i for i in range(len(t)) if t[i] == 1 - query_label]
    out = []
    for q in queries:
        scored = []
        for d in donors:
            diff = scores[q] - scores[d]
            d2 = 0.0
            for a in range(len(diff)):
                for b in range(len(diff)):
                    d2 += diff[a] * inv_cov[a, b] * diff[b]
            scored.append((d2, d))
        scored.sort()
        out.append([d for _, d in scored[:n_matches]])
    return queries, out


def brute_force_distances(scores, queries, donors, inv_cov):
    """sqrt of the definition-form squared distance, clamped at 0, per (query, donor)."""
    scores = np.atleast_2d(np.asarray(scores, float))
    out = []
    for q, row in zip(queries, donors):
        dists = []
        for d in row:
            diff = scores[q] - scores[d]
            d2 = 0.0
            for a in range(len(diff)):
                for b in range(len(diff)):
                    d2 += diff[a] * inv_cov[a, b] * diff[b]
            dists.append(float(np.sqrt(max(d2, 0.0))))
        out.append(dists)
    return out


class TestBuildMetric:
    def test_identity_covariance_gives_euclidean(self):
        rng = RngStream(50)
        z = rng.normal((500, 2))
        # force exact identity sample covariance by whitening
        cov = np.cov(z, rowvar=False, ddof=1)
        from sdrmatch.numerics import inverse_sqrt_spd
        z = (z - z.mean(axis=0)) @ inverse_sqrt_spd(cov, ridge=0.0)
        metric = build_metric(z)
        assert np.abs(metric.inverse_covariance - np.eye(2)).max() < 1e-6

    def test_scalar_score_variance_four(self):
        # var 4 means D(a, b) = |a - b| / 2
        z = np.array([[0.0], [1.0], [4.0], [-4.0], [-1.0], [2.0]])
        z = z * np.sqrt(4.0 / np.var(z, ddof=1))
        assert np.var(z, ddof=1) == pytest.approx(4.0)
        metric = build_metric(z)
        t = np.array([1, 0, 0, 0, 0, 0])
        matches = find_matches(z, t, metric, 1, FOR_TREATED)
        assert matches.donor_indices[0, 0] == 1
        assert matches.distances[0, 0] == pytest.approx(
            abs(z[0, 0] - z[1, 0]) / 2.0, rel=1e-6
        )

    def test_constant_column_contributes_nothing(self):
        rng = RngStream(51)
        varying = rng.normal((50, 1))
        z = np.column_stack([varying, np.full(50, 3.0)])
        metric = build_metric(z)
        t = np.zeros(50, dtype=int)
        t[:10] = 1
        matches = find_matches(z, t, metric, 1, FOR_TREATED)
        only = find_matches(varying, t, build_metric(varying), 1, FOR_TREATED)
        assert np.array_equal(matches.donor_indices, only.donor_indices)

    def test_too_few_rows(self):
        with pytest.raises(InvalidArgument):
            build_metric(np.ones((1, 2)))

    def test_one_dimensional_scores_raise(self):
        # a length-n propensity vector is n subjects, not one row of n scores
        ps = RngStream(53).uniform(40)
        with pytest.raises(InvalidArgument) as info:
            build_metric(ps)
        assert str(info.value) == "scores must be n x k, such as ps[:, None]; got shape (40,)"

    def test_covariance_bits_equal_np_cov(self):
        # the pooled covariance is np.cov's arithmetic written out on a
        # C-contiguous copy of the scores, so the whitening map keeps np.cov's
        # bits of that copy for C, Fortran and strided scores
        rng = RngStream(52)
        x = np.round(np.exp(rng.normal((300, 10)) + 9.0), 2)
        ps = rng.uniform(300)
        for z in (x, np.asfortranarray(x), x[:, ::3], x[:, 4:5], ps[:, None],
                  rng.normal((2, 3)), 1e6 + rng.normal((41, 2))):
            cov = np.atleast_2d(np.cov(np.ascontiguousarray(z), rowvar=False, ddof=1))
            expected = inverse_sqrt_spd(cov)
            assert np.array_equal(build_metric(z).whitening, expected)


class TestFindMatches:
    def test_nearest_by_absolute_difference(self):
        z = np.array([[0.0], [1.0], [0.4], [2.0]])
        t = np.array([1, 0, 0, 0])
        matches = find_matches(z, t, MahalanobisMetric(np.eye(1)), 1, FOR_TREATED)
        assert matches.donor_indices[0, 0] == 2

    def test_tie_breaks_to_lower_index(self):
        z = np.array([[0.0], [1.0], [-1.0]])
        t = np.array([1, 0, 0])
        matches = find_matches(z, t, MahalanobisMetric(np.eye(1)), 1, FOR_TREATED)
        assert matches.donor_indices[0, 0] == 1

    def test_two_smallest(self):
        z = np.array([[0.0], [1.0], [0.4], [2.0]])
        t = np.array([1, 0, 0, 0])
        matches = find_matches(z, t, MahalanobisMetric(np.eye(1)), 2, FOR_TREATED)
        assert matches.donor_indices[0].tolist() == [2, 1]
        assert matches.distances[0, 0] <= matches.distances[0, 1]

    def test_insufficient_donors(self):
        z = np.zeros((3, 1))
        t = np.array([1, 1, 0])
        with pytest.raises(InsufficientDonors):
            find_matches(z, t, MahalanobisMetric(np.eye(1)), 2, FOR_TREATED)

    def test_empty_query_group(self):
        z = np.zeros((3, 1))
        t = np.array([0, 0, 0])
        with pytest.raises(InvalidArgument):
            find_matches(z, t, MahalanobisMetric(np.eye(1)), 1, FOR_TREATED)

    @pytest.mark.parametrize("n_matches, direction, message", [
        (1, "sideways", "unknown direction 'sideways'"),
        (0, FOR_TREATED, "n_matches must be >= 1, got 0"),
    ])
    def test_bad_direction_or_match_count(self, n_matches, direction, message):
        z = np.array([[0.0], [1.0], [0.4]])
        t = np.array([1, 0, 0])
        with pytest.raises(InvalidArgument, match=rf"^{re.escape(message)}$"):
            find_matches(z, t, MahalanobisMetric(np.eye(1)), n_matches, direction)

    def test_one_dimensional_scores_raise(self):
        ps = RngStream(54).uniform(40)
        t = np.array([1, 0] * 20)
        with pytest.raises(InvalidArgument) as info:
            find_matches(ps, t, MahalanobisMetric(np.eye(1)), 1, FOR_TREATED)
        assert str(info.value) == "scores must be n x k, such as ps[:, None]; got shape (40,)"
        sample = ObservationalSample(ps[:, None], t, ps)
        for make_score in (lambda: BalancingScore(ps, ps), lambda: BalancingScore.ambient(ps)):
            with pytest.raises(InvalidArgument, match=r"got shape \(40,\)"):
                estimate(sample, make_score())

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_treatment_other_than_zero_or_one_raises(self, bad):
        # a subject in neither group would otherwise be left out of both
        t = np.array([0, 1, bad, 0, 1, 0])
        for k in (1, 2):
            z = np.arange(6.0 * k).reshape(6, k)
            for direction in (FOR_TREATED, FOR_CONTROL):
                with pytest.raises(InvalidArgument,
                                   match=r"^treatment entries must be 0 or 1$"):
                    find_matches(z, t, MahalanobisMetric(np.eye(k)), 1, direction)
        with pytest.raises(InvalidArgument, match=r"^treatment entries must be 0 or 1$"):
            find_matches(np.arange(6.0)[:, None], np.array([0, 1, 2, 0, 1, 7]),
                         MahalanobisMetric(np.eye(1)), 1, FOR_TREATED)

    def test_bool_treatment(self):
        z = np.array([[0.0], [1.0], [0.4], [2.0], [1.7], [-0.3]])
        t = np.array([1, 0, 0, 1, 0, 1])
        metric = MahalanobisMetric(np.eye(1))
        for direction in (FOR_TREATED, FOR_CONTROL):
            expected = find_matches(z, t, metric, 2, direction)
            got = find_matches(z, t.astype(bool), metric, 2, direction)
            assert got.query_indices.tolist() == expected.query_indices.tolist()
            assert got.donor_indices.tolist() == expected.donor_indices.tolist()
            assert got.distances.tolist() == expected.distances.tolist()

    def test_whitening_map_must_be_k_by_k(self):
        z = np.array([[0.0, 1.0], [1.0, 0.0], [0.4, 0.2], [2.0, 1.0]])
        t = np.array([1, 0, 0, 0])
        for w in (np.eye(1), np.eye(3), np.ones((2, 3))):
            with pytest.raises(InvalidArgument):
                find_matches(z, t, MahalanobisMetric(w), 1, FOR_TREATED)

    def test_zero_score_columns_raise(self):
        # an n x 0 score matrix with its 0 x 0 whitening map passes the shape
        # checks; it has no column to match on
        z, t = np.empty((6, 0)), np.array([1, 0, 0, 1, 0, 0])
        for direction in (FOR_TREATED, FOR_CONTROL):
            with pytest.raises(InvalidArgument, match=r"^scores have no columns$"):
                find_matches(z, t, MahalanobisMetric(np.empty((0, 0))), 1, direction)

    @pytest.mark.parametrize("w", [1.0, -3e-170, 2.0 ** -537, 1.3e154, np.nan, np.inf])
    def test_one_column_metric_forms_no_product(self, monkeypatch, w):
        # k = 1 reads c = w^2, which has the bits of W W' (a subnormal at
        # 2^-537), and keeps the error where 2 w^2 overflows (1.3e154)
        metric = MahalanobisMetric(np.array([[w]]))
        with np.errstate(over="ignore", invalid="ignore"):
            inv = metric.inverse_covariance
        monkeypatch.setattr(MahalanobisMetric, "inverse_covariance",
                            property(lambda self: pytest.fail("W W' formed for k = 1")))
        z = np.array([[0.0], [1.0], [0.4], [2.0], [-0.7]])
        t = np.array([1, 0, 0, 1, 0])
        if not np.isfinite(inv).all():
            with pytest.raises(InvalidArgument, match=r"^metric contains NaN or inf$"):
                find_matches(z, t, metric, 2, FOR_TREATED)
            return
        assert inv[0, 0] == w * w
        got = find_matches(z, t, metric, 2, FOR_TREATED)
        diff = z[got.query_indices] - z[got.donor_indices][..., 0]
        assert got.distances.tolist() == np.sqrt(diff * inv[0, 0] * diff).tolist()

    def test_agrees_with_brute_force(self):
        rng = RngStream(52)
        for rep in range(20):
            n = 20 + int(rng.uniform() * 60)
            k = 1 + int(rng.uniform() * 4)
            m = 1 + int(rng.uniform() * 2)
            z = rng.normal((n, k))
            t = (rng.uniform(n) < 0.4).astype(int)
            if t.sum() < m + 1 or (1 - t).sum() < m + 1:
                continue
            metric = build_metric(z)
            for direction in (FOR_TREATED, FOR_CONTROL):
                mine = find_matches(z, t, metric, m, direction)
                queries, expected = brute_force_matches(
                    z, t, metric.inverse_covariance, m, direction
                )
                assert mine.query_indices.tolist() == queries
                assert mine.donor_indices.tolist() == expected


    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_donors_tied_in_the_first_column_agree_with_brute_force(self, k):
        # first-column values shared by many donors (some of them -0.0 and
        # 0.0, equal as values), later columns distinct or duplicated: the
        # duplicate collapse must keep exactly the brute-force picks
        rng = RngStream(61 + k)
        for rep in range(12):
            n = 30 + int(rng.uniform() * 60)
            z = rng.normal((n, k))
            z[:, 0] = np.round(z[:, 0] * 2.0) / 2.0
            signed_zero = rng.uniform(n) < 0.3
            z[signed_zero, 0] = np.where(rng.uniform(int(signed_zero.sum())) < 0.5, -0.0, 0.0)
            if rep % 3 == 0:
                z[n // 2:] = z[:n - n // 2]     # whole rows repeated
            t = (rng.uniform(n) < 0.5).astype(int)
            m = 1 + rep % 3
            if t.sum() < m + 1 or (1 - t).sum() < m + 1:
                continue
            metric = MahalanobisMetric(np.eye(k) + 0.3 * np.tri(k, k, -1))
            for direction in (FOR_TREATED, FOR_CONTROL):
                mine = find_matches(z, t, metric, m, direction)
                queries, expected = brute_force_matches(
                    z, t, metric.inverse_covariance, m, direction
                )
                assert mine.query_indices.tolist() == queries
                assert mine.donor_indices.tolist() == expected
                assert mine.distances.tolist() == brute_force_distances(
                    z, queries, expected, metric.inverse_covariance)

    def test_signed_zero_first_columns_tie(self):
        # -0.0 == 0.0: donors 1 and 2 are the same point for k = 1 and tie by
        # index; for k = 2 the second column separates them
        t = np.array([1, 0, 0, 0])
        for z, first in (([[0.1], [-0.0], [0.0], [1.0]], [1, 2]),
                         ([[0.0, 0.0], [-0.0, 0.5], [0.0, 0.25], [0.0, 0.5]], [2, 1])):
            z = np.array(z)
            metric = MahalanobisMetric(np.eye(z.shape[1]))
            got = find_matches(z, t, metric, 2, FOR_TREATED)
            assert got.donor_indices.tolist() == [first]
            _, expected = brute_force_matches(z, t, metric.inverse_covariance, 2, FOR_TREATED)
            assert expected == [first]

    @pytest.mark.parametrize("seed, m", [(64, 1), (76, 3)])
    def test_k_columns_search_holds_one_copy_of_the_scores(self, seed, m):
        """The k >= 2 search's traced peak at n = 20,000, k = 10 (q + d = n) is
        under 2 MiB of block buffer, plus a re-rank budget of 2 MiB (one block's
        pairs past it are a few hundred here), plus 16 (q + d)(k + 1) bytes:
        the float32 product factors (4 per entry), one group's float64 centred
        and whitened rows while the factors are filled (at most 8 per entry),
        and the per-row tolerances, indices and results. That is 4 MiB +
        3.52 MB, about 7.4 MiB; copies of the scores beside the block buffer,
        or a last re-rank beside it, exceed it."""
        rng = RngStream(seed)
        n, k = 20_000, 10
        z = rng.normal((n, k))
        t = (rng.uniform(n) < 0.5).astype(int)
        bound = 2 * matching._BLOCK_BYTES + 16 * n * (k + 1)
        assert TestExactness.traced_peak(z, t, m) < bound

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_donors_equal_by_value_collapse_for_every_k(self, monkeypatch, m):
        # four k = 2 donors differ only in the sign of a zero: d2's sum starts
        # at +0.0, so they tie for every query and are one point, like repeated
        # rows; rows that tie only in the first column stay apart. Only the
        # first m of each distinct-by-value row reach the filter
        filter_candidates, seen = matching._filter_candidates, []

        def recording(z, queries, donors, w, n_matches):
            seen.append(donors.size)
            return filter_candidates(z, queries, donors, w, n_matches)

        monkeypatch.setattr(matching, "_filter_candidates", recording)
        z = np.array([[0.0, 0.0], [1.0, 2.0], [-0.0, 0.0], [1.0, -1.0], [0.0, -0.0],
                      [1.0, 2.0], [0.0, 0.5], [-0.0, -0.0], [1.0, 0.5], [1.0, 2.0],
                      [0.0, 0.0], [-0.0, 0.3], [1.0, 1.0], [0.5, -0.0], [-0.0, 2.0]])
        t = np.array([0] * 10 + [1] * 5)
        for metric in (MahalanobisMetric(np.eye(2)), MahalanobisMetric(np.array([[1.0, 0.0],
                                                                                 [0.4, 0.8]]))):
            for direction in (FOR_TREATED, FOR_CONTROL):
                seen.clear()
                mine = find_matches(z, t, metric, m, direction)
                rows = z[t == int(direction == FOR_CONTROL)] + 0.0     # -0.0 + 0.0 is 0.0
                _, counts = np.unique(rows, axis=0, return_counts=True)
                assert seen == [np.minimum(counts, m).sum()]
                queries, expected = brute_force_matches(
                    z, t, metric.inverse_covariance, m, direction)
                assert mine.donor_indices.tolist() == expected
                assert mine.distances.tolist() == brute_force_distances(
                    z, queries, expected, metric.inverse_covariance)


def loop_squared_distances(diff, inv):
    """The canonical squared distance of each (P, k) row, summed by a loop over
    score columns with add.accumulate along each row: the reference for the
    column-layout kernel, which must give the same bits."""
    d2 = np.zeros(diff.shape[0])
    for k in range(diff.shape[1]):
        terms = diff[:, k, None] * inv[k]
        terms *= diff
        terms[:, 0] += d2
        d2 = np.add.accumulate(terms, axis=1)[:, -1]
    return np.maximum(d2, 0.0)


class TestCanonicalKernel:
    """_squared_distances adds the terms in row-major (k, l) order whatever P is."""

    @staticmethod
    def draw(pairs, k):
        rng = RngStream(90 + k, pairs)
        diff = rng.normal((pairs, k)) * np.exp(4.0 * rng.normal((pairs, k)))
        special = np.array([-0.0, 0.0, 5e-324, -1e-310, 1e150, -1e150])
        pick = rng.uniform((pairs, k))
        diff = np.where(pick < 0.3, special[(pick * 20.0).astype(int) % 6], diff)
        a = rng.normal((k, k))
        return diff, a @ a.T / k - 0.1 * np.eye(k)       # indefinite as well

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 40])
    @pytest.mark.parametrize("pairs", [1, 2, 3, 7, 245, 2477])
    def test_bits_equal_the_row_loop(self, pairs, k):
        diff, inv = self.draw(pairs, k)
        expected = loop_squared_distances(diff, inv)
        got = matching._squared_distances(diff.T.copy(), inv)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        # a pair's bits do not depend on the pairs that share its call
        for i in {0, pairs // 2, pairs - 1}:
            alone = matching._squared_distances(diff[i:i + 1].T.copy(), inv)
            assert alone.view(np.uint64)[0] == expected.view(np.uint64)[i]

    def test_one_pair_is_not_summed_pairwise(self):
        # terms 1, u, ..., u (u = 2^-53): added in turn each u rounds away, but
        # np.add.reduce over one contiguous column sums them pairwise and keeps
        # some; the kernel pads a single pair to two so that it adds in turn
        u, k = 2.0 ** -53, 16
        inv = np.zeros((k, k))
        inv[0] = [1.0] + [u] * (k - 1)
        column = np.concatenate([[0.0], inv[0]])
        assert np.add.reduce(column) > 1.0 == np.add.accumulate(column)[-1]
        assert matching._squared_distances(np.ones((k, 1)), inv).tolist() == [1.0]
        assert matching._squared_distances(np.ones((k, 2)), inv).tolist() == [1.0, 1.0]


class TestExactness:
    """Matcher vs the loop reference on ties, scale and degenerate shapes."""

    @staticmethod
    def draw_scores(rng, kind, n, k):
        if kind == "integer":
            return np.floor(rng.uniform((n, k)) * 3.0)
        z = rng.normal((n, k))
        if kind == "constant-column":
            z[:, 0] = 3.0
        elif kind == "offset":
            z[:, -1] += 1e6
        elif kind == "mixed-scale":
            # LaLonde-like: binary indicators next to earnings around 1e4
            binary = (rng.uniform((n, k)) < 0.4).astype(float)
            earnings = np.round(np.exp(z + 9.0), 2)
            z = np.where(np.arange(k) % 2 == 0, binary, earnings)
        return z

    def check(self, z, t, m, direction, metric=None):
        metric = metric or build_metric(z)
        mine = find_matches(z, t, metric, m, direction)
        with np.errstate(over="ignore", invalid="ignore"):  # the loop reference may overflow
            queries, expected = brute_force_matches(
                z, t, metric.inverse_covariance, m, direction
            )
            distances = brute_force_distances(z, queries, expected, metric.inverse_covariance)
        assert mine.query_indices.tolist() == queries
        assert mine.donor_indices.tolist() == expected
        assert mine.distances.tolist() == distances

    def test_ties_and_scales(self):
        rng = RngStream(61)
        kinds = ("integer", "constant-column", "offset", "mixed-scale")
        checked = 0
        for rep in range(80):
            kind = kinds[rep % len(kinds)]
            k = 1 + (rep // len(kinds)) % 10
            m = 1 + rep % 5
            n = 2 * m + 8 + int(rng.uniform() * 50)
            z = self.draw_scores(rng, kind, n, k)
            t = (rng.uniform(n) < 0.5).astype(int)
            if t.sum() < m or (1 - t).sum() < m:
                continue
            for direction in (FOR_TREATED, FOR_CONTROL):
                self.check(z, t, m, direction)
            checked += 1
        assert checked >= 70

    def test_donors_equal_matches(self):
        rng = RngStream(62)
        for k in (3, 1):
            for m in range(1, 6):
                z = np.floor(rng.uniform((m + 12, k)) * 3.0)
                t = np.ones(m + 12, dtype=int)
                t[-m:] = 0
                self.check(z, t, m, FOR_TREATED)
                self.check(z, 1 - t, m, FOR_CONTROL)

    @staticmethod
    def draw_tied_rows(rng, kind, n, k, m):
        """Scores and treatment where many donor rows are identical."""
        t = (rng.uniform(n) < 0.5).astype(int)
        if kind == "all-equal":
            return np.full((n, k), 2.5), t
        # integer rows with one row sum: a key that sums the row ties them all
        pool = np.array([np.roll(np.arange(k) % 3, shift) for shift in range(4)], float)
        if kind == "equal-sums":
            return pool[np.floor(rng.uniform(n) * 4.0).astype(int)], t
        if kind == "m-distinct-donors":
            # the control group holds exactly m distinct rows, each repeated
            z = rng.normal((n, k))
            z[t == 0] = z[:m][np.arange((t == 0).sum()) % m] + 5.0
            return z, t
        # interleaved-key: copies of a and of b, a with two columns negated,
        # alternate. Each negation flips only bit 63 of one column, so a
        # wrapping integer mix of the row bits with odd multipliers would give
        # a and b one key; their runs interleave in index order
        a = np.floor(rng.uniform(k) * 3.0) + 1.0
        b = a.copy()
        b[:2] *= -1.0
        z = np.where(np.arange(n)[:, None] % 2 == 0, a, b)
        z[::5] = np.floor(rng.uniform((z[::5].shape[0], k)) * 3.0)
        return z, t

    @pytest.mark.parametrize("kind", ["all-equal", "equal-sums", "m-distinct-donors",
                                      "interleaved-key"])
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_duplicate_donor_rows(self, kind, k):
        # identical donor rows tie for every query, and only the first m of
        # them can be picked
        rng = RngStream(73)
        for m in range(1, 6):
            z, t = self.draw_tied_rows(rng, kind, 2 * m + 26, k, m)
            if t.sum() < m or (1 - t).sum() < m:
                continue
            for direction in (FOR_TREATED, FOR_CONTROL):
                self.check(z, t, m, direction)

    @pytest.mark.parametrize("k", [8, 10])
    def test_identical_rows_far_apart(self, k):
        # a BLAS matrix-vector product may round identical rows apart when
        # they sit in different blocks of its kernel (here the last rows of
        # 31 or 33), so a sort key it computed could misorder them
        rng = RngStream(77)
        for n_donors in (31, 33):
            row = np.round(rng.normal(k) * 10.0 ** np.floor(rng.uniform(k) * 6.0 - 2.0), 3)
            z = np.vstack([np.tile(row, (n_donors, 1)), rng.normal((4, k)) + row])
            t = np.r_[np.zeros(n_donors, dtype=int), np.ones(4, dtype=int)]
            for m in (1, 2, 3):
                self.check(z, t, m, FOR_TREATED)

    @staticmethod
    def draw_column(rng, kind, n):
        if kind == "integer":
            return np.floor(rng.uniform(n) * 4.0)
        if kind == "midway":
            # half-integers: many queries sit exactly midway between two donors
            return np.floor(rng.uniform(n) * 6.0) / 2.0
        if kind == "all-equal":
            return np.full(n, 2.5)
        if kind == "long-runs":
            # three values, so equal runs are longer than m
            return np.array([0.5, 1.5, -2.0])[np.floor(rng.uniform(n) * 3.0).astype(int)]
        if kind == "far":
            # near 2^55 the spacing is 8, so x - s rounds alike for several
            # distinct small s: distinct scores tie in distance past the m
            # nearest in sorted order
            z = np.floor(rng.uniform(n) * 8.0)
            z[::4] = 2.0 ** 55 + 8.0 * np.floor(rng.uniform(z[::4].size) * 3.0)
            return z
        if kind == "subnormal-grid":
            # multiples of the smallest subnormal: differences are exact and
            # every canonical d2 underflows to 0
            return (np.floor(rng.uniform(n) * 9.0) - 4.0) * 5e-324
        if kind == "ulp-grid":
            # neighbouring doubles above 1
            return 1.0 + np.floor(rng.uniform(n) * 30.0) * 2.0 ** -52
        z = rng.normal(n)
        scale = {"offset": 1.0, "tiny": 1e-8, "large": 1e8, "near-1e150": 1e150,
                 "near-1e-170": 1e-170}[kind]
        return z * scale + (1e6 if kind == "offset" else 0.0)

    @pytest.mark.parametrize("kind", ["integer", "midway", "all-equal", "long-runs", "far",
                                      "offset", "tiny", "large", "near-1e150", "near-1e-170",
                                      "subnormal-grid", "ulp-grid"])
    def test_one_column(self, kind, monkeypatch):
        # one score column takes the sorted-window search, not the filter,
        # and never the canonical re-rank
        seen = self.count_reranked_pairs(monkeypatch)
        rng = RngStream(68)
        checked = 0
        for m in range(1, 6):
            for rep in range(6):
                n = 2 * m + 10 + int(rng.uniform() * 40)
                z = self.draw_column(rng, kind, n)[:, None]
                t = (rng.uniform(n) < 0.5).astype(int)
                if t.sum() < m or (1 - t).sum() < m:
                    continue
                for direction in (FOR_TREATED, FOR_CONTROL):
                    self.check(z, t, m, direction)
                checked += 1
        assert checked >= 25 and seen == []

    @pytest.mark.parametrize("w", [1e-160, 1e150, 0.0])
    def test_one_column_extreme_metric(self, w, monkeypatch):
        # c = w^2 is subnormal, near the top of the range or 0: canonical d2
        # ties at 0 or a few subnormal steps, or every donor ties
        seen = self.count_reranked_pairs(monkeypatch)
        rng = RngStream(78)
        metric = MahalanobisMetric(np.array([[w]]))
        for m in range(1, 6):
            for kind in ("integer", "offset", "tiny", "near-1e-170", "subnormal-grid",
                         "ulp-grid"):
                n = 2 * m + 10 + int(rng.uniform() * 40)
                z = self.draw_column(rng, kind, n)[:, None]
                t = (rng.uniform(n) < 0.5).astype(int)
                if t.sum() < m or (1 - t).sum() < m:
                    continue
                for direction in (FOR_TREATED, FOR_CONTROL):
                    self.check(z, t, m, direction, metric)
        assert seen == []

    @pytest.mark.parametrize("m", [1, 3])
    def test_window_next_donor_out_ties_t(self, monkeypatch, m):
        # ulp-spaced donors above 1 seen from +-2^55 (spacing 4 inside, 8
        # outside): every difference rounds to +-2^55, so every donor ties and
        # the next donor out of the window, on either side, ties T. The
        # smallest indices sit mid-range, so each row is read again from
        # wider windows until one holds all 12 donors (2 width >= 12) and
        # picks by index
        seen = self.count_reranked_pairs(monkeypatch)
        widths = self.window_widths(monkeypatch)
        donors = 1.0 + np.array([5, 6, 4, 7, 3, 8, 2, 9, 1, 10, 0, 11]) * 2.0 ** -52
        z = np.r_[donors, -(2.0 ** 55), 2.0 ** 55, 2.0 ** 55 + 8.0][:, None]
        t = np.r_[np.zeros(12, dtype=int), 1, 1, 1]
        self.check(z, t, m, FOR_TREATED, MahalanobisMetric(np.eye(1)))
        assert seen == []
        assert widths[-1][1] == 3 and widths[-1][0] < 12 <= 2 * widths[-1][0]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_window_symmetric_donors_tie_by_index(self, monkeypatch, m):
        # donors at +-j/4 around a query at 0 tie in pairs, and the smaller
        # index of each pair sits on alternate sides, so the far side of the
        # sorted window holds it as often as the near one. The next pair out
        # is strictly farther, so the window settles every row
        seen = self.count_reranked_pairs(monkeypatch)
        j = np.arange(1, 6) / 4.0
        pairs = np.where(np.arange(5) % 2 == 0, 1.0, -1.0)[:, None] * np.c_[j, -j]
        z = np.r_[pairs.ravel(), 0.0][:, None]
        t = np.r_[np.zeros(10, dtype=int), 1]
        self.check(z, t, m, FOR_TREATED, MahalanobisMetric(np.eye(1)))
        assert seen == []

    @pytest.mark.parametrize("w", [1.0, 0.0])
    def test_window_constant_score(self, monkeypatch, w):
        # every difference is 0, so every donor ties at c 0 = 0 and the
        # collapse keeps m of them. Past the donors the window reads inf
        # (c > 0) and settles; at c = 0 it reads nan there, but the first
        # window already holds all m donors, so no row is read again
        seen = self.count_reranked_pairs(monkeypatch)
        widths = self.window_widths(monkeypatch)
        rng = RngStream(91)
        z = np.full((30, 1), 2.5)
        t = (rng.uniform(30) < 0.5).astype(int)
        for m in range(1, 6):
            for direction in (FOR_TREATED, FOR_CONTROL):
                widths.clear()
                self.check(z, t, m, direction, MahalanobisMetric(np.array([[w]])))
                assert [width for width, _ in widths] == [m]
        assert seen == []

    def test_window_duplicate_runs_straddle_its_edge(self, monkeypatch):
        # m = 3: runs of identical donors, kept to their first 3 by index,
        # that the window's edge cuts where a query's third pick lies (0.4
        # and 1.0). Left of a query the window holds a run's largest indices,
        # so a row whose next donor out ties T must be read again, wider
        seen = self.count_reranked_pairs(monkeypatch)
        widths = self.window_widths(monkeypatch)
        values = np.r_[0.3, [-1.0] * 6, 1.4, [2.0] * 6, [5.0] * 4]
        order = np.argsort(RngStream(92).uniform(values.size))
        queries = [0.4, 1.0, 0.5, -1.0, 2.0, 3.0, -4.0, 7.0]
        z = np.r_[values[order], queries][:, None]
        t = np.r_[np.zeros(values.size, dtype=int), np.ones(len(queries), dtype=int)]
        for direction in (FOR_TREATED, FOR_CONTROL):
            self.check(z, t, 3, direction, MahalanobisMetric(np.eye(1)))
        assert seen == [] and max(width for width, _ in widths) > 3

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_window_widens_until_it_holds_every_donor(self, monkeypatch, m):
        # every donor ties for the queries at either sorted end: ulp-spaced
        # donors above 1 seen from -2^55 and 2^55 (W = 1), and donors within
        # 0.5 of each other seen from just past either end, whose d2 rounds
        # to 0 or 2^-1074 (W = 2^-537, so c is the smallest subnormal). The
        # smallest indices sit anywhere, so those rows are read from windows
        # of 2m, 4m, 8m, ... donors until the first that holds all 40 (2 width
        # >= 40): two or more widenings. A third query amid the donors ties
        # them too under W = 2^-537, and is settled in the first window under
        # W = 1
        seen = self.count_reranked_pairs(monkeypatch)
        widths = self.window_widths(monkeypatch)
        order = np.argsort(RngStream(97).uniform(40)).astype(float)
        for donors, ends, w, tied in ((1.0 + order * 2.0 ** -52, 2.0 ** 55, 1.0, 2),
                                      (order / 80.0, 0.05, 2.0 ** -537, 3)):
            z = np.r_[donors, donors.min() - ends, donors.max() + ends, donors[7]][:, None]
            t = np.r_[np.zeros(40, dtype=int), 1, 1, 1]
            widths.clear()
            self.check(z, t, m, FOR_TREATED, MahalanobisMetric(np.array([[w]])))
            assert len(widths) >= 3 and widths[-1][1] == tied
            assert widths[-1][0] < 40 <= 2 * widths[-1][0]
        assert seen == []

    @pytest.mark.parametrize("w", [1.0, 0.0, 2.0 ** -537])
    def test_window_holds_every_donor_when_donors_equal_matches(self, monkeypatch, w):
        # with exactly m donors the first window holds them all, so every row
        # is final in one pass, whether or not its outer neighbours settle it
        widths = self.window_widths(monkeypatch)
        rng = RngStream(98)
        for m in range(1, 6):
            donors = 1.0 + np.floor(rng.uniform(m) * 3.0) * 2.0 ** -52
            z = np.r_[donors, -(2.0 ** 55), 1.0, 0.5, 2.0 ** 55][:, None]
            t = np.r_[np.zeros(m, dtype=int), 1, 1, 1, 1]
            widths.clear()
            self.check(z, t, m, FOR_TREATED, MahalanobisMetric(np.array([[w]])))
            assert widths == [(m, 4)]

    def test_window_widens_across_block_edges(self, monkeypatch):
        # with a budget below d, each window pass holds a few queries per
        # block, and one query per block once a window holds every donor: at
        # c = 0 every row is read again until then, so the widened passes
        # cross block edges
        monkeypatch.setattr(matching, "_BLOCK_BYTES", 1)
        widths = self.window_widths(monkeypatch)
        rng, crossed = RngStream(99), 0
        for w in (1.0, 0.0, 2.0 ** -537):
            for kind in ("integer", "far", "ulp-grid", "long-runs", "subnormal-grid"):
                for m in range(1, 6):
                    z = self.draw_column(rng, kind, 60)[:, None]
                    t = (rng.uniform(60) < 0.5).astype(int)
                    if t.sum() < m or (1 - t).sum() < m:
                        continue
                    for direction in (FOR_TREATED, FOR_CONTROL):
                        widths.clear()
                        self.check(z, t, m, direction, MahalanobisMetric(np.array([[w]])))
                        if w == 0.0 and widths[0][0] < widths[-1][0]:
                            assert widths[-1][1] == widths[0][1] > 1
                            crossed += 1
        assert crossed >= 40

    def test_one_column_huge_scores_overflow(self):
        # one-column scores of 1e150 to 1e155: a squared difference can
        # overflow. A query whose m-th pick overflows has T = inf, is read
        # again until its window holds every donor, and makes the call raise;
        # without those queries the rest match
        rng = RngStream(93)
        checked = raised = 0
        for rep in range(40):
            m = 1 + rep % 3
            sign = np.where(rng.uniform((30, 1)) < 0.5, -1.0, 1.0)
            z = sign * 10.0 ** (150.0 + 5.0 * rng.uniform((30, 1)))
            t = (rng.uniform(30) < 0.5).astype(int)
            metric = MahalanobisMetric(np.array([[1.0 + 9.0 * rng.uniform()]]))
            inv = metric.inverse_covariance
            for direction in (FOR_TREATED, FOR_CONTROL):
                with np.errstate(over="ignore"):    # the loop reference overflows
                    queries, expected = brute_force_matches(z, t, inv, m, direction)
                    distances = brute_force_distances(z, queries, expected, inv)
                overflow = [q for q, row in zip(queries, distances)
                            if not np.isfinite(row).all()]
                if overflow:
                    with pytest.raises(InvalidArgument, match="overflows"):
                        find_matches(z, t, metric, m, direction)
                    raised += 1
                keep = np.setdiff1d(np.arange(30), overflow)
                if len(overflow) < len(queries):
                    self.check(z[keep], t[keep], m, direction, metric)
                    checked += len(queries) - len(overflow)
        assert raised >= 20 and checked >= 200

    def test_one_query_per_block(self, monkeypatch):
        # with a budget below d, each block holds as few queries as fit in d
        # candidate pairs, so block edges fall everywhere
        monkeypatch.setattr(matching, "_BLOCK_BYTES", 1)
        rng = RngStream(70)
        for k in (1, 3):
            for m in range(1, 6):
                z = np.floor(rng.uniform((40, k)) * 4.0)
                t = (rng.uniform(40) < 0.5).astype(int)
                for direction in (FOR_TREATED, FOR_CONTROL):
                    self.check(z, t, m, direction)
        for m in range(1, 6):       # tie-free: the window settles rows a few at a time
            z = rng.normal((40, 1))
            t = (rng.uniform(40) < 0.5).astype(int)
            for direction in (FOR_TREATED, FOR_CONTROL):
                self.check(z, t, m, direction)

    def test_many_matches_one_query_per_block(self, monkeypatch):
        # m = 6-10 on tied integer rows, one query per block
        monkeypatch.setattr(matching, "_BLOCK_BYTES", 1)
        rng = RngStream(79)
        for k in (2, 3, 10):
            for m in range(6, 11):
                n = 2 * m + 30
                z = np.floor(rng.uniform((n, k)) * 3.0)
                t = (rng.uniform(n) < 0.5).astype(int)
                if t.sum() < m or (1 - t).sum() < m:
                    continue
                for direction in (FOR_TREATED, FOR_CONTROL):
                    self.check(z, t, m, direction)

    @staticmethod
    def product_dtypes(monkeypatch):
        """A list that receives the dtype of each filter product (np.dot with out=)."""
        dot, seen = np.dot, []

        def recording(a, b, out=None):
            if out is not None:
                seen.append(out.dtype)
            return dot(a, b, out=out)

        monkeypatch.setattr(np, "dot", recording)
        return seen

    @pytest.mark.parametrize("side", ["float32", "float64"])
    @pytest.mark.parametrize("switch", ["range", "floor"])
    def test_float32_switch(self, monkeypatch, switch, side):
        # W = c I sets a quantity at twice or half its float32 threshold:
        # "range", 2^100 / ((k+1)^2 L max|e|^2), with c near 2^45, where every
        # product value fits float32 (past it, an exact rescale keeps float32);
        # "floor", 2^-30 max|w|^2 over the float32 floor, with c near 2^-53,
        # where the cut stays sharp
        seen = self.product_dtypes(monkeypatch)
        factor = 2.0 if side == "float32" else 0.5
        expected = np.dtype(np.float32 if switch == "range" else side)
        rng = RngStream(85)
        for k in (2, 3):
            z = rng.normal((30, k))
            t = (rng.uniform(30) < 0.5).astype(int)
            for direction, label in ((FOR_TREATED, 1), (FOR_CONTROL, 0)):
                e = z - z[t != label].mean(axis=0)
                e_max = np.sqrt((e * e).sum(axis=1).max())
                if switch == "range":
                    c = 2.0 ** 50 / ((k + 1) * np.sqrt(k) * e_max) / np.sqrt(factor)
                else:
                    c = (k + 1) ** 1.5 * (1.0 + e_max) / (2.0 ** 55 * e_max) * np.sqrt(factor)
                for m in range(1, 6):
                    seen.clear()
                    self.check(z, t, m, direction, MahalanobisMetric(c * np.eye(k)))
                    assert seen and set(seen) == {expected}

    def test_float32_where_w_underflows(self, monkeypatch):
        # most rows lie within 1e-22 of 0, so their |w|^2 of about 1e-44 and
        # their products are float32 subnormals or 0; rows at +-1 in both
        # groups keep max|w|^2 near 1, the donor mean near 0 and float32 on
        seen = self.product_dtypes(monkeypatch)
        rng = RngStream(86)
        for rep in range(8):
            k = 2 + rep % 2
            z = rng.normal((30, k)) * 1e-22
            z[:4] = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
            t = (rng.uniform(30) < 0.5).astype(int)
            t[:4] = [1, 1, 0, 0]
            for m in range(1, 6):
                for direction in (FOR_TREATED, FOR_CONTROL):
                    self.check(z, t, m, direction, MahalanobisMetric(np.eye(k)))
        assert set(seen) == {np.dtype(np.float32)}

    @staticmethod
    def check_identity_metric(z, t, m, direction):
        """find_matches with W = I against a vectorised reference: the
        canonical d2 adds the squared differences in column order (the
        off-diagonal terms are zeros), so an accumulate over columns and a
        stable sort by d2 give the picks and distances."""
        label = int(direction == FOR_TREATED)
        mine = find_matches(z, t, MahalanobisMetric(np.eye(z.shape[1])), m, direction)
        queries, donors = np.flatnonzero(t == label), np.flatnonzero(t != label)
        diff = z[queries, None, :] - z[None, donors, :]
        d2 = np.add.accumulate(diff * diff, axis=2)[:, :, -1]
        first = np.argsort(d2, axis=1, kind="stable")[:, :m]
        assert mine.query_indices.tolist() == queries.tolist()
        assert mine.donor_indices.tolist() == donors[first].tolist()
        assert mine.distances.tolist() == np.sqrt(np.take_along_axis(d2, first, axis=1)).tolist()

    @pytest.mark.parametrize("k, expected", [(999, np.float32), (1000, np.float64)])
    def test_float32_only_below_a_thousand_columns(self, monkeypatch, k, expected):
        # the float32 tolerance is proven for k below 1,000
        seen = self.product_dtypes(monkeypatch)
        rng = RngStream(87)
        z = rng.normal((24, k))
        t = np.arange(24) % 2
        for m in (1, 3):
            for direction in (FOR_TREATED, FOR_CONTROL):
                self.check_identity_metric(z, t, m, direction)
        assert set(seen) == {np.dtype(expected)}

    def test_score_columns_up_to_the_filter_bound(self):
        # the float64 allowance is proven up to k = 4,502: one more column
        # raises before W W' is formed, and k = 4,502 still matches exactly
        rng = RngStream(96)
        z = rng.normal((8, 4503))
        t = np.arange(8) % 2
        with pytest.raises(InvalidArgument,
                           match=r"^at most 4502 score columns can be matched, got 4503$"):
            find_matches(z, t, MahalanobisMetric(np.eye(4503)), 1, FOR_TREATED)
        self.check_identity_metric(z[:, :4502], t, 3, FOR_TREATED)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), min_size=2, max_size=40),
           st.integers(1, 5), st.sampled_from([1.0, 0.0, 2.0 ** -537]), st.booleans())
    def test_one_column_few_values_property(self, subjects, m, w, ulp_spaced):
        # six values: a few spread ones, or neighbouring doubles above 1
        values = (1.0 + np.arange(6) * 2.0 ** -52 if ulp_spaced
                  else np.array([-1.5, 0.0, 0.25, 0.5, 1.0, 3.0]))
        z = np.array([[values[value]] for value, _ in subjects])
        t = np.array([label for _, label in subjects])
        assume(min(t.sum(), (1 - t).sum()) >= m)
        metric = MahalanobisMetric(np.array([[w]]))
        for direction in (FOR_TREATED, FOR_CONTROL):
            self.check(z, t, m, direction, metric)

    def test_single_query(self):
        rng = RngStream(63)
        for k in (1, 4, 10):
            z = self.draw_scores(rng, "mixed-scale", 40, k)
            t = np.zeros(40, dtype=int)
            t[17] = 1
            for m in (1, 5):
                self.check(z, t, m, FOR_TREATED)

    def test_far_query_with_mirror_tied_donors(self):
        # whitening [[2, 1], [1, 2]] gives the inverse covariance [[5, 4], [4, 5]]:
        # for a query on the diagonal, donors (a, b) and (b, a) are tied under
        # it; far from them, rounding decides the canonical order
        metric = MahalanobisMetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
        rng = RngStream(65)
        for rep in range(200):
            far = 10.0 ** (2.0 + 6.0 * rng.uniform())
            a, b = np.round(rng.normal(2), 3)
            z = np.array([[far, far], [a, b], [b, a], [5.0, -7.0]])
            self.check(z, np.array([1, 0, 0, 0]), 1, FOR_TREATED, metric)

    def test_far_query_near_collinear_columns(self):
        # columns that differ by tiny tied offsets make W, and so the
        # rounding of the canonical sum, large where |zW| is not: only the
        # L |e|^2 part of the tolerance keeps the canonical first donor
        rng = RngStream(67)
        for rep in range(150):
            k = 2 + rep % 3
            shift = 10.0 ** (-2.0 - 4.0 * rng.uniform())
            z = (np.floor(rng.uniform((40, 1)) * 3.0)
                 + shift * np.floor(rng.uniform((40, k)) * 3.0))
            z[0] = 10.0 ** (1.0 + 7.0 * rng.uniform()) * (1.0 + 1e-3 * rng.normal(k))
            t = np.zeros(40, dtype=int)
            t[0] = 1
            self.check(z, t, 1, FOR_TREATED, build_metric(z[1:]))

    def test_triangular_whitening(self):
        # a lower-triangular W (a Cholesky-like factor of Sigma^-1) is not
        # symmetric; the filter whitens with it, the re-rank reads W W'
        rng = RngStream(66)
        kinds = ("normal", "integer", "offset", "mixed-scale")
        for rep in range(40):
            k = 1 + rep % 4
            w = np.tril(rng.normal((k, k)))
            w[np.diag_indices(k)] = np.abs(w.diagonal()) + 0.1
            z = self.draw_scores(rng, kinds[rep % len(kinds)], 40, k)
            t = (rng.uniform(40) < 0.5).astype(int)
            if t.sum() < 2 or (1 - t).sum() < 2:
                continue
            for direction in (FOR_TREATED, FOR_CONTROL):
                self.check(z, t, 2, direction, MahalanobisMetric(w))

    def test_huge_scores_whitened_norms_overflow(self):
        # |e W|^2 overflows near 1e308 while many canonical d^2 stay finite.
        # A call that would pick an overflowing d^2 raises, so each direction
        # is also checked without the queries whose first m overflow
        rng = RngStream(71)
        checked = 0
        for rep in range(40):
            k, m = 2 + rep % 2, 1 + rep % 3
            sign = np.where(rng.uniform((30, k)) < 0.5, -1.0, 1.0)
            z = sign * 10.0 ** (150.0 + 5.0 * rng.uniform((30, k)))
            t = (rng.uniform(30) < 0.5).astype(int)
            metric = MahalanobisMetric((1.0 + 99.0 * rng.uniform()) * np.eye(k))
            inv = metric.inverse_covariance
            for direction in (FOR_TREATED, FOR_CONTROL):
                with np.errstate(over="ignore"):    # the loop reference overflows
                    queries, expected = brute_force_matches(z, t, inv, m, direction)
                    distances = brute_force_distances(z, queries, expected, inv)
                overflow = [q for q, row in zip(queries, distances)
                            if not np.isfinite(row).all()]
                if overflow:
                    with pytest.raises(InvalidArgument, match="overflows"):
                        find_matches(z, t, metric, m, direction)
                keep = np.setdiff1d(np.arange(30), overflow)
                if len(overflow) < len(queries):
                    self.check(z[keep], t[keep], m, direction, metric)
                    checked += len(queries) - len(overflow)
        assert checked >= 200

    def test_overflowing_distance_raises(self):
        # every candidate's d^2 overflows: a tie at inf would pick donor 1,
        # though donor 3 is half as far
        z = np.array([[1e155, 0.0], [-1e155, 0.0], [-2e155, 0.0], [0.0, 0.0]])
        t = np.array([1, 0, 0, 0])
        with pytest.raises(InvalidArgument, match="overflows"):
            find_matches(z, t, MahalanobisMetric(np.eye(2)), 1, FOR_TREATED)

    def test_extreme_scales(self):
        # scores near 1e+-300 and whitening maps near 1e+-150, a third of them
        # tied integer rows: past float32's range the filter rescales exactly,
        # and a call whose reference picks an overflowing distance raises
        rng = RngStream(87)
        rescaled = 0
        for rep in range(120):
            k, m = 2 + rep % 9, 1 + rep % 5
            n = 2 * m + 8 + int(rng.uniform() * 16)
            z = np.floor(rng.uniform((n, k)) * 3.0) if rep % 3 == 0 else rng.normal((n, k))
            size = 340.0 * rng.uniform() - 170.0             # log10 of |z W|
            scale = np.clip(size + 300.0 * rng.uniform() - 150.0, -300.0, 300.0)
            z = z * 10.0 ** scale
            metric = MahalanobisMetric(rng.normal((k, k)) * 10.0 ** (size - scale))
            t = (rng.uniform(n) < 0.5).astype(int)
            if t.sum() < m or (1 - t).sum() < m:
                continue
            inv = metric.inverse_covariance
            for direction in (FOR_TREATED, FOR_CONTROL):
                with np.errstate(over="ignore", invalid="ignore"):  # the loop reference overflows
                    queries, expected = brute_force_matches(z, t, inv, m, direction)
                    distances = brute_force_distances(z, queries, expected, inv)
                if np.isfinite(distances).all():
                    self.check(z, t, m, direction, metric)
                    rescaled += size > 15.0
                else:
                    with pytest.raises(InvalidArgument, match="overflows"):
                        find_matches(z, t, metric, m, direction)
        assert rescaled >= 50

    def test_extreme_inputs_raise_without_a_warning(self):
        # finite scores near 1e+-307 and whitening maps near 1e+-160: every
        # call returns or raises InvalidArgument, and numpy warns of nothing
        rng = RngStream(88)
        for rep in range(300):
            k, m = 1 + rep % 6, 1 + rep % 3
            z = rng.normal((24, k)) * 10.0 ** (614.0 * rng.uniform() - 307.0)
            w = rng.normal((k, k)) * 10.0 ** (320.0 * rng.uniform() - 160.0)
            t = (rng.uniform(24) < 0.5).astype(int)
            if t.sum() < m or (1 - t).sum() < m:
                continue
            for direction in (FOR_TREATED, FOR_CONTROL):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        find_matches(z, t, MahalanobisMetric(w), m, direction)
                    except InvalidArgument:
                        pass

    def test_tiny_scores_tolerance_underflows(self):
        # d^2 near or below the smallest normal float: the relative
        # tolerance underflows to 0, and canonical values tie at 0 or a few
        # subnormal steps
        rng = RngStream(72)
        for rep in range(40):
            k = 2 + rep % 2
            z = rng.normal((30, k)) * 10.0 ** (-5.0 + 10.0 * rng.uniform())
            t = (rng.uniform(30) < 0.5).astype(int)
            metric = MahalanobisMetric(10.0 ** (-165.0 + 15.0 * rng.uniform()) * np.eye(k))
            for direction in (FOR_TREATED, FOR_CONTROL):
                self.check(z, t, 1 + rep % 3, direction, metric)

    @staticmethod
    def traced_peak(z, t, m):
        metric = build_metric(z)
        tracemalloc.start()
        try:
            matched = find_matches(z, t, metric, m, FOR_TREATED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matched.donor_indices.shape == (int(t.sum()), m)
        return peak

    def test_memory_stays_bounded_at_large_n(self):
        # the full (n/2)^2 * p difference tensor would need about 8 GB here
        rng = RngStream(64)
        n, p = 20_000, 10
        z = rng.normal((n, p))
        t = (rng.uniform(n) < 0.5).astype(int)
        assert self.traced_peak(z, t, 1) < 64 * 2**20

    def test_memory_stays_bounded_at_large_n_several_matches(self):
        rng = RngStream(76)
        n, p = 20_000, 10
        z = rng.normal((n, p))
        t = (rng.uniform(n) < 0.5).astype(int)
        assert self.traced_peak(z, t, 3) < 64 * 2**20

    @staticmethod
    def count_reranked_pairs(monkeypatch):
        """A list that receives the pair count of each canonical re-rank call."""
        canonical, seen = matching._squared_distances, []

        def counting(diff, inv):
            seen.append(diff.shape[1])      # diff holds one pair per column
            return canonical(diff, inv)

        monkeypatch.setattr(matching, "_squared_distances", counting)
        return seen

    @staticmethod
    def window_widths(monkeypatch):
        """A list that receives (width, queries) for each one-column window pass."""
        pick, seen = matching._window_pick, []

        def recording(xq, xp, c, donors, m, width):
            seen.append((width, xq.size))
            return pick(xq, xp, c, donors, m, width)

        monkeypatch.setattr(matching, "_window_pick", recording)
        return seen

    @pytest.mark.parametrize("m", [1, 3])
    def test_all_tied_rows_reach_the_re_rank_once(self, monkeypatch, m):
        # every donor ties with every other for every query: unless duplicate
        # donors are dropped, all (n/2)^2 pairs go to the canonical re-rank
        seen = self.count_reranked_pairs(monkeypatch)
        n = 20_000
        z = np.ones((n, 10))
        t = (RngStream(75).uniform(n) < 0.5).astype(int)
        assert self.traced_peak(z, t, m) < 64 * 2**20
        assert sum(seen) <= t.sum() * m

    @pytest.mark.parametrize("m", [1, 3])
    def test_out_of_range_scores_re_rank_about_m_pairs(self, monkeypatch, m):
        # scores near 1e160 with W = 1e-158 I take (k+1)^2 L max|e|^2 past
        # float32's range; after an exact rescale the filter still keeps about
        # m pairs per query, where every pair would be about (n/2)^2
        seen = self.count_reranked_pairs(monkeypatch)
        rng = RngStream(89)
        n, k = 2_000, 5
        z = rng.normal((n, k)) * 1e160
        t = (rng.uniform(n) < 0.5).astype(int)
        metric = MahalanobisMetric(1e-158 * np.eye(k))
        for direction in (FOR_TREATED, FOR_CONTROL):
            seen.clear()
            matched = find_matches(z, t, metric, m, direction)
            assert sum(seen) <= 1.2 * matched.query_indices.size * m

    @staticmethod
    def shipped_sample():
        return load_csv(LALONDE, "treat", "re78", ["age", "educ", "black", "hisp", "married",
                                                   "nodegr", "re74", "re75", "u74", "u75"])

    def test_filter_keeps_few_pairs_on_shipped_csv(self, monkeypatch):
        # the ambient ACE on the shipped CSV re-ranks at most 210 pairs
        # for-treated and 453 for-control; a looser cut, such as one that
        # takes the largest donor tolerance for every donor, keeps thousands
        sample = self.shipped_sample()
        seen = self.count_reranked_pairs(monkeypatch)
        metric = build_metric(sample.covariates)
        for direction, most in ((FOR_TREATED, 210), (FOR_CONTROL, 453)):
            seen.clear()
            find_matches(sample.covariates, sample.treatment, metric, 1, direction)
            assert sum(seen) <= most

    def test_filter_keeps_few_pairs_on_normal_scores(self, monkeypatch):
        # ambient m = 1 on seeded 10-D normal scores: the float32 bound
        # re-ranked 2,501 pairs for 2,486 treated queries and 2,528 for 2,514
        # controls; a tolerance ten times looser re-ranks 2,625 and 2,649
        seen = self.count_reranked_pairs(monkeypatch)
        rng = RngStream(81)
        n = 5_000
        z = rng.normal((n, 10))
        t = (rng.uniform(n) < 0.5).astype(int)
        metric = build_metric(z)
        for direction, most in ((FOR_TREATED, 2_550), (FOR_CONTROL, 2_580)):
            seen.clear()
            find_matches(z, t, metric, 1, direction)
            assert sum(seen) <= most

    def test_filter_blocks_re_ranked_together(self, monkeypatch):
        # n = 5,000, k = 10: a dozen filter products per direction, one re-rank;
        # a smaller budget flushes once the pairs' 2k + 6 re-rank values fill
        # it, and the matches keep their bits
        rng = RngStream(82)
        n = 5_000
        z = rng.normal((n, 10))
        t = (rng.uniform(n) < 0.5).astype(int)
        metric = build_metric(z)
        products = self.product_dtypes(monkeypatch)
        seen = self.count_reranked_pairs(monkeypatch)
        whole = find_matches(z, t, metric, 2, FOR_TREATED)
        assert len(products) >= 10 and len(seen) == 1
        monkeypatch.setattr(matching, "_BLOCK_BYTES", 1 << 16)
        products.clear()
        seen.clear()
        parts = find_matches(z, t, metric, 2, FOR_TREATED)
        assert len(products) > 100 and 2 <= len(seen) < 25
        assert all(size * (2 * 10 + 6) * 8 >= 1 << 16 for size in seen[:-1])
        assert np.array_equal(parts.donor_indices, whole.donor_indices)
        assert np.array_equal(parts.distances, whole.distances)

    @pytest.mark.parametrize("m", [1, 3])
    def test_one_column_re_ranks_about_m_pairs(self, monkeypatch, m):
        # on tie-free scores, under the ridged metric, each query ranks the
        # 2m donors around it and no pair reaches the canonical re-rank; no
        # row is read again from a wider window
        seen = self.count_reranked_pairs(monkeypatch)
        widths = self.window_widths(monkeypatch)
        rng = RngStream(80)
        n = 5_000
        z = rng.normal((n, 1))
        t = (rng.uniform(n) < 0.5).astype(int)
        metric = build_metric(z)
        for direction in (FOR_TREATED, FOR_CONTROL):
            widths.clear()
            matched = find_matches(z, t, metric, m, direction)
            assert widths == [(m, matched.query_indices.size)]
        assert seen == []

    @pytest.mark.parametrize("m", [1, 3])
    def test_one_column_tie_free_scores_skip_the_re_rank(self, monkeypatch, m):
        # on tie-free normal scores the next donor out on each side of every
        # window is strictly farther than the query's m-th pick, so no pair
        # reaches the canonical re-rank. With W = 1 the canonical d2 is
        # (diff * c) * diff, and a stable sort by it is the reference
        seen = self.count_reranked_pairs(monkeypatch)
        rng = RngStream(94)
        n = 5_000
        z = rng.normal((n, 1))
        t = (rng.uniform(n) < 0.5).astype(int)
        for direction, label in ((FOR_TREATED, 1), (FOR_CONTROL, 0)):
            matched = find_matches(z, t, MahalanobisMetric(np.eye(1)), m, direction)
            queries, donors = np.flatnonzero(t == label), np.flatnonzero(t != label)
            diff = z[queries] - z[donors, 0]
            d2 = diff * 1.0 * diff
            first = np.argsort(d2, axis=1, kind="stable")[:, :m]
            assert matched.donor_indices.tolist() == donors[first].tolist()
            assert matched.distances.tolist() == np.sqrt(
                np.take_along_axis(d2, first, axis=1)).tolist()
        assert seen == []

    @pytest.mark.parametrize("m, most", [(1, (0, 0)), (3, (1, 1))])
    def test_one_column_keeps_few_pairs_on_shipped_csv(self, monkeypatch, m, most):
        # the ps-logistic ACE on the shipped CSV, whose scores tie often: no
        # pair reaches the canonical re-rank, and at most one row per
        # direction (of 185 and 429) is read again from a wider window
        sample = self.shipped_sample()
        score = balancing_score("ps-logistic", sample, estimand="ace", n_slices=5, alpha=0.05)
        seen = self.count_reranked_pairs(monkeypatch)
        widths = self.window_widths(monkeypatch)
        metric = build_metric(score.into_control)
        for direction, bound in zip((FOR_TREATED, FOR_CONTROL), most):
            widths.clear()
            find_matches(score.into_control, sample.treatment, metric, m, direction)
            assert sum(queries for _, queries in widths[1:]) <= bound
        assert seen == []

    @pytest.mark.parametrize("equal", [False, True])
    def test_memory_stays_bounded_one_column(self, equal):
        # with all scores equal, every donor ties with every other for every query
        rng = RngStream(69)
        n = 20_000
        z = np.ones((n, 1)) if equal else rng.normal((n, 1))
        t = (rng.uniform(n) < 0.5).astype(int)
        assert self.traced_peak(z, t, 5) < 32 * 2**20

    def test_memory_stays_bounded_one_column_many_matches(self):
        # m = 2,000: each window block holds 4,002 donors per query, so the
        # 2 MiB budget leaves a few dozen queries per block
        rng = RngStream(95)
        n = 20_000
        z = rng.normal((n, 1))
        t = (rng.uniform(n) < 0.01).astype(int)
        assert self.traced_peak(z, t, 2_000) < 32 * 2**20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        z = np.array([[0.0], [1.0], [0.4], [2.0]])
        t = np.array([1, 0, 0, 0])
        for row in (0, 2):              # a query, then a donor
            broken = z.copy()
            broken[row, 0] = bad
            with pytest.raises(InvalidArgument):
                find_matches(broken, t, MahalanobisMetric(np.eye(1)), 1, FOR_TREATED)
        with pytest.raises(InvalidArgument):
            find_matches(z, t, MahalanobisMetric(np.array([[bad]])), 1, FOR_TREATED)


class TestImpute:
    def test_mean_of_matched_outcomes(self):
        sample = make_sample(np.zeros(4), [1, 0, 0, 0], [0.0, 1.0, 2.0, 6.0])
        from sdrmatch.matching import MatchedSet
        one = MatchedSet(np.array([0]), np.array([[3]]), np.zeros((1, 1)), FOR_TREATED)
        assert impute(sample, one)[0] == 6.0
        two = MatchedSet(np.array([0]), np.array([[1, 3]]), np.zeros((1, 2)), FOR_TREATED)
        # outcomes 1 and 6 do not appear; use 4 and 6 for the stated average
        sample2 = make_sample(np.zeros(4), [1, 0, 0, 0], [0.0, 4.0, 2.0, 6.0])
        assert impute(sample2, two)[0] == 5.0
        three = MatchedSet(np.array([0]), np.array([[1, 2, 3]]), np.zeros((1, 3)), FOR_TREATED)
        sample3 = make_sample(np.zeros(4), [1, 0, 0, 0], [0.0, 1.0, 2.0, 6.0])
        assert impute(sample3, three)[0] == 3.0


class TestEstimators:
    def test_ace_hand_example(self):
        # treated at 0, 10, 12 match controls at 1, 11, 11: contrasts 3-2, 5-4, 9-4;
        # controls at 1, 11 match treated at 0, 10 (11 ties 10 and 12, lower
        # index wins): contrasts 3-2, 5-4; mean (1+1+5+1+1)/5
        x = np.array([[0.0], [10.0], [12.0], [1.0], [11.0]])
        t = np.array([1, 1, 1, 0, 0])
        y = np.array([3.0, 5.0, 9.0, 2.0, 4.0])
        est = estimate(ObservationalSample(x, t, y), BalancingScore.ambient(x), "ace", 1)
        assert est.imputed.tolist() == [2.0, 4.0, 4.0, 3.0, 5.0]
        assert est.value == pytest.approx(1.8)

    def test_constant_outcomes_exact(self):
        rng = RngStream(53)
        x = rng.normal((40, 2))
        t = np.array([1] * 15 + [0] * 25)
        y = np.where(t == 1, 7.0, 3.0)
        sample = ObservationalSample(x, t, y.astype(float))
        est = estimate(sample, BalancingScore.ambient(x), "ace", 1)
        assert est.value == pytest.approx(4.0)

    def test_duplicate_subject_zero_distance_match(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 1.0], [0.0, 0.0]])
        t = np.array([1, 0, 0, 0])
        y = np.array([10.0, 4.5, 1.0, 2.0])
        sample = ObservationalSample(x, t, y)
        est = estimate(sample, BalancingScore.ambient(x), "acet", 1)
        assert est.imputed[0] == 4.5
        assert est.value == pytest.approx(10.0 - 4.5)

    def test_acet_hand_example(self):
        # treated at 0 and 10 match the controls at 1 and 9 (the control at 20
        # is nobody's nearest): contrasts 3-1 and 8-2, mean 4; the ACET
        # imputes no control
        x = np.array([[0.0], [10.0], [1.0], [9.0], [20.0]])
        t = np.array([1, 1, 0, 0, 0])
        y = np.array([3.0, 8.0, 1.0, 2.0, 50.0])
        est = estimate(ObservationalSample(x, t, y), BalancingScore.ambient(x), "acet", 1)
        assert est.imputed[:2].tolist() == [1.0, 2.0]
        assert np.isnan(est.imputed[2:]).all()
        assert est.value == 4.0

    def test_acet_single_treated(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        t = np.array([1, 0, 0, 0])
        y = np.array([9.0, 1.0, 2.0, 3.0])
        sample = ObservationalSample(x, t, y)
        est = estimate(sample, BalancingScore.ambient(x), "acet", 1)
        assert est.value == pytest.approx(9.0 - 1.0)

    def test_scores_must_have_one_row_per_subject(self):
        # queries and donors come from the treatment vector, so extra score
        # rows would be matched silently
        rng = RngStream(55)
        x = rng.normal((40, 2))
        sample = ObservationalSample(x, np.array([1, 0] * 20), rng.normal(40))
        ps = rng.uniform(80)[:, None]
        for score in (BalancingScore.ambient(np.vstack([x, x])), BalancingScore(ps, ps)):
            with pytest.raises(InvalidArgument):
                estimate(sample, score, "ace", 1)

    def test_zero_column_scores_raise_typed_error(self):
        rng = RngStream(56)
        sample = ObservationalSample(np.empty((40, 0)), np.array([1, 0] * 20), rng.normal(40))
        for method in ("ambient", "sdr"):
            with pytest.raises(InvalidMatrix):
                estimate(sample, balancing_score(method, sample, estimand="ace",
                                                 n_slices=5, alpha=0.05))

    def test_ace_needs_both_scores(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        sample = ObservationalSample(x, np.array([1, 0, 1, 0]), np.arange(4.0))
        with pytest.raises(InvalidArgument):
            estimate(sample, BalancingScore(x), "ace", 1)

    def test_replacement_counts(self):
        rng = RngStream(54)
        n = 60
        x = rng.normal((n, 2))
        t = (rng.uniform(n) < 0.5).astype(int)
        y = rng.normal(n)
        sample = ObservationalSample(x, t, y)
        m = 2
        est = estimate(sample, BalancingScore.ambient(x), "ace", m)
        donors = np.concatenate([mset.donor_indices.ravel() for mset in est.matches])
        reuse = np.bincount(donors, minlength=n)
        assert reuse.sum() == m * n

    def test_estimate_returns_its_matched_sets(self):
        rng = RngStream(64)
        n = 50
        x = rng.normal((n, 2))
        t = (rng.uniform(n) < 0.5).astype(int)
        sample = ObservationalSample(x, t, rng.normal(n))
        score = BalancingScore.ambient(x)
        metric = build_metric(x)
        ace = estimate(sample, score, "ace", 2)
        assert [mset.direction for mset in ace.matches] == [FOR_TREATED, FOR_CONTROL]
        for mset in ace.matches:
            ref = find_matches(x, t, metric, 2, mset.direction)
            assert np.array_equal(mset.query_indices, ref.query_indices)
            assert np.array_equal(mset.donor_indices, ref.donor_indices)
            assert np.array_equal(mset.distances, ref.distances)
            assert np.array_equal(ace.imputed[mset.query_indices], impute(sample, mset))
        acet = estimate(sample, score, "acet", 2)
        assert [mset.direction for mset in acet.matches] == [FOR_TREATED]
        assert np.array_equal(acet.matches[0].query_indices, np.flatnonzero(t == 1))


    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("seed", [71, 72, 73, 74])
    def test_value_is_the_mean_contrast_bit_for_bit(self, k, m, seed):
        # scores rounded to one decimal, so most queries tie with several donors
        rng = RngStream(seed)
        n = 80
        x = np.round(rng.normal((n, k)), 1)
        t = (rng.uniform(n) < 0.4).astype(np.int64)
        y = rng.normal(n) + t
        sample = ObservationalSample(x, t, y)
        score = BalancingScore.ambient(x)
        tr = t == 1
        acet = estimate(sample, score, "acet", m)
        assert acet.value == float((y[tr] - acet.imputed[tr]).mean())
        ace = estimate(sample, score, "ace", m)
        assert ace.value == float(((2 * t - 1) * (y - ace.imputed)).mean())


class TestPipelineAndInvariants:
    def test_metric_affine_invariance(self):
        rng = RngStream(55)
        n, k = 80, 3
        z = rng.normal((n, k))
        t = (rng.uniform(n) < 0.5).astype(int)
        a = rng.normal((k, k)) + 2.0 * np.eye(k)
        b = rng.normal(k)
        w = z @ a + b
        base = find_matches(z, t, unridged_metric(z), 2, FOR_TREATED)
        moved = find_matches(w, t, unridged_metric(w), 2, FOR_TREATED)
        assert np.array_equal(base.donor_indices, moved.donor_indices)
        assert np.abs(base.distances - moved.distances).max() < 1e-8

    def test_basis_rotation_leaves_matches_unchanged(self):
        rng = RngStream(56)
        n, r = 70, 2
        z = rng.normal((n, r))
        t = (rng.uniform(n) < 0.5).astype(int)
        theta = 0.7
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        base = find_matches(z, t, unridged_metric(z), 1, FOR_CONTROL)
        spun = find_matches(z @ q, t, unridged_metric(z @ q), 1, FOR_CONTROL)
        assert np.array_equal(base.donor_indices, spun.donor_indices)

    def test_permutation_invariance(self):
        rng = RngStream(57)
        n = 50
        x = rng.normal((n, 2))
        t = (rng.uniform(n) < 0.5).astype(int)
        y = rng.normal(n)
        sample = ObservationalSample(x, t, y)
        value = estimate(sample, BalancingScore.ambient(x), "ace", 1).value
        perm = np.argsort(rng.uniform(n))
        shuffled = ObservationalSample(x[perm], t[perm], y[perm])
        value_perm = estimate(shuffled, BalancingScore.ambient(x[perm]), "ace", 1).value
        assert value_perm == pytest.approx(value, abs=1e-12)

    @staticmethod
    def sdr_values(sample, estimands=("ace", "acet")):
        return [estimate(sample, sdr_score(sample, e), e).value for e in estimands]

    def test_sdr_affine_invariance(self):
        # SIR standardizes within each group, so x -> x A + b only rotates the
        # standardized covariates; the reduced scores, and so the matches, agree
        for rep in range(8):
            rng = RngStream(73, rep)
            data = generate(scenario(("case1-II", "case1-III")[rep % 2], n=300), rng)
            x, p = data.sample.covariates, data.sample.n_covariates
            a = rng.normal((p, p)) + 3.0 * np.eye(p)
            moved = ObservationalSample(x @ a + rng.normal(p) * 10.0,
                                        data.sample.treatment, data.sample.outcome)
            for base, value in zip(self.sdr_values(data.sample), self.sdr_values(moved)):
                assert value == pytest.approx(base, rel=1e-9, abs=0.0)

    def test_sdr_label_swap_negates_ace(self):
        # swapping the labels swaps the two per-group reductions and the two
        # matching directions, so every donor set is reused and the ACE
        # negates exactly
        for rep in range(8):
            data = generate(scenario("case1-III", n=300), RngStream(74, rep))
            sample = data.sample
            swapped = ObservationalSample(sample.covariates, 1 - sample.treatment,
                                          sample.outcome)
            base = estimate(sample, sdr_score(sample, "ace"), "ace")
            flip = estimate(swapped, sdr_score(swapped, "ace"), "ace")
            assert flip.value == -base.value
            for mine, theirs in zip(flip.matches, reversed(base.matches)):
                assert np.array_equal(mine.query_indices, theirs.query_indices)
                assert np.array_equal(mine.donor_indices, theirs.donor_indices)

    def test_sdr_permutation_invariance(self):
        # continuous outcomes and covariates: no ties in slicing or matching
        for rep in range(8):
            rng = RngStream(75, rep)
            data = generate(scenario("case1-III", n=300), rng)
            sample = data.sample
            perm = np.argsort(rng.uniform(sample.n_subjects))
            shuffled = ObservationalSample(sample.covariates[perm], sample.treatment[perm],
                                           sample.outcome[perm])
            for base, value in zip(self.sdr_values(sample), self.sdr_values(shuffled)):
                assert value == pytest.approx(base, rel=1e-9, abs=0.0)

    def test_ace_decomposition_identity(self):
        rng = RngStream(58)
        n = 60
        x = rng.normal((n, 3))
        t = (rng.uniform(n) < 0.5).astype(int)
        y = rng.normal(n)
        sample = ObservationalSample(x, t, y)
        est = estimate(sample, BalancingScore.ambient(x), "ace", 1)
        y1 = np.where(t == 1, y, est.imputed)
        y0 = np.where(t == 0, y, est.imputed)
        assert est.value == float((y1 - y0).mean())

    def test_pipeline_model_two_close_to_truth(self):
        spec = scenario("case1-II")
        data = generate(spec, RngStream(59, 0))
        est = estimate(data.sample, sdr_score(data.sample, "ace"), "ace")
        # constant effect 1; single-run tolerance of three Monte Carlo SDs
        assert abs(est.value - 1.0) <= 3.0 * 0.0551 + 0.03
        assert est.diagnostics["rank_control"] >= 1

    def test_pipeline_acet_skips_treated_reduction(self):
        spec = scenario("case1-I")
        data = generate(spec, RngStream(60, 0))
        est = estimate(data.sample, sdr_score(data.sample, "acet"), "acet")
        assert est.diagnostics["rank_treated"] is None
        treated = data.sample.treatment == 1
        assert np.isfinite(est.imputed[treated]).all()
        assert np.isnan(est.imputed[~treated]).all()

    def test_estimate_bits_do_not_depend_on_memory_layout(self):
        # the record stores C-contiguous covariates and outcome, so a sample
        # passed in Fortran order gives the C-order sample's bits
        sample = TestExactness.shipped_sample()
        x, t, y = sample.covariates, sample.treatment, sample.outcome
        fortran = ObservationalSample(np.asfortranarray(x), t, np.stack([y, y], axis=1)[:, 0])
        assert fortran.covariates.flags.c_contiguous and fortran.outcome.flags.c_contiguous
        for method in ("ambient", "ps-logistic", "sdr"):
            for estimand in ("ace", "acet"):
                base, other = (estimate(s, balancing_score(method, s, estimand=estimand,
                                                           n_slices=5, alpha=0.05), estimand)
                               for s in (sample, fortran))
                assert other.value == base.value, (method, estimand)
                assert np.array_equal(other.imputed, base.imputed, equal_nan=True)
                assert len(other.matches) == len(base.matches)
                for mine, theirs in zip(other.matches, base.matches):
                    assert np.array_equal(mine.donor_indices, theirs.donor_indices)
                    assert np.array_equal(mine.distances, theirs.distances), (method, estimand)

    def test_score_intakes_do_not_depend_on_memory_layout(self):
        # build_metric, find_matches, fit_logistic and predict_ps read a
        # C-contiguous copy of what they are given: the same values give the
        # same bits in any memory layout
        sample = TestExactness.shipped_sample()
        x, t = sample.covariates, sample.treatment
        metric = build_metric(x)
        matched = find_matches(x, t, metric, 2, FOR_TREATED)
        model = fit_logistic(x, t)
        ps = predict_ps(model, x)
        wide = np.zeros((2 * x.shape[0], 3 * x.shape[1]))
        wide[::2, 1::3] = x
        for other in (np.asfortranarray(x), wide[::2, 1::3]):   # the last strided on both axes
            assert np.array_equal(other, x)
            assert np.array_equal(build_metric(other).whitening, metric.whitening)
            again = find_matches(other, t, metric, 2, FOR_TREATED)
            assert np.array_equal(again.donor_indices, matched.donor_indices)
            assert np.array_equal(again.distances, matched.distances)
            fitted = fit_logistic(other, t)
            assert np.array_equal(fitted.coefficients, model.coefficients)
            assert (fitted.intercept, fitted.converged, fitted.iterations) == (
                model.intercept, model.converged, model.iterations)
            assert np.array_equal(predict_ps(model, other), ps)


class TestBalancingScoreRegistry:
    def test_truth_methods_need_truth(self):
        data = generate(scenario("case1-II"), RngStream(61, 0))
        for method in ("ps-true", "sdr-oracle", "active-set-oracle"):
            with pytest.raises(InvalidArgument):
                balancing_score(method, data.sample, estimand="ace", n_slices=5, alpha=0.05)
            score = balancing_score(method, data.sample, estimand="ace", n_slices=5,
                                    alpha=0.05, truth=data)
            assert estimate(data.sample, score, "ace").value == pytest.approx(1.0, abs=0.5)

    @pytest.mark.parametrize("method", list(matching.METHODS))
    @pytest.mark.parametrize("n_slices, alpha, message", [
        (1, 0.05, "need at least 2 slices, got 1"),
        (5, 1.0, "alpha must be in (0, 1), got 1.0"),
    ])
    def test_every_method_checks_the_tuning(self, method, n_slices, alpha, message):
        data = generate(scenario("case1-II", n=60), RngStream(65, 0))
        with pytest.raises(InvalidArgument, match=rf"^{re.escape(message)}$"):
            balancing_score(method, data.sample, estimand="ace", n_slices=n_slices,
                            alpha=alpha, truth=data)

    def test_unknown_method_and_estimand(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        sample = ObservationalSample(x, np.array([1, 0, 1, 0]), np.arange(4.0))
        with pytest.raises(InvalidArgument):
            balancing_score("nearest", sample, estimand="ace", n_slices=5, alpha=0.05)
        with pytest.raises(InvalidArgument):
            estimate(sample, BalancingScore.ambient(x), "att", 1)

    def test_acet_sdr_fits_control_group_only(self):
        # three treated subjects are too few for a treated-group SIR fit
        rng = RngStream(62)
        x = rng.normal((60, 3))
        t = np.array([1] * 3 + [0] * 57)
        sample = ObservationalSample(x, t, x[:, 0] + rng.normal(60))
        with pytest.raises(InsufficientData):
            sdr_score(sample, "ace")
        est = estimate(sample, sdr_score(sample, "acet"), "acet")
        assert est.diagnostics["rank_control"] >= 1
        assert est.diagnostics["rank_treated"] is None
        assert "rank_fallback_treated" not in est.diagnostics

    def test_score_diagnostics_reach_the_estimate(self):
        data = generate(scenario("case1-II"), RngStream(63, 0))
        score = balancing_score("ps-logistic", data.sample, estimand="acet",
                                n_slices=5, alpha=0.05)
        est = estimate(data.sample, score, "acet")
        assert est.diagnostics == score.diagnostics == {"logistic_converged": True}
        assert est.diagnostics is not score.diagnostics

    def test_ace_builds_one_metric_for_a_shared_score(self, monkeypatch):
        calls = []

        def counting_build_metric(scores):
            calls.append(scores)
            return build_metric(scores)

        monkeypatch.setattr(matching, "build_metric", counting_build_metric)
        data = generate(scenario("case1-III"), RngStream(64, 0))
        estimate(data.sample, BalancingScore.ambient(data.sample.covariates), "ace")
        assert len(calls) == 1
        estimate(data.sample, sdr_score(data.sample, "ace"), "ace")
        assert len(calls) == 3
        for method in ("ps-logistic", "ps-true"):
            score = balancing_score(method, data.sample, estimand="ace", n_slices=5,
                                    alpha=0.05, truth=data)
            estimate(data.sample, score, "ace")
        assert len(calls) == 5
