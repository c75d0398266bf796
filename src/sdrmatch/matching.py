"""Mahalanobis nearest-neighbor matching with replacement and effect estimators.

Matching runs on a balancing score: the raw covariates, a propensity score, or
per-group reduced covariates. Each subject's missing potential outcome is
imputed as the mean observed outcome of its m closest opposite-group subjects,
and the average effect is read off the completed data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import sdr
from .dataset import ObservationalSample, whitening_fit
from .errors import InsufficientDonors, InvalidArgument
from .propensity import fit_logistic, predict_ps

__all__ = [
    "ESTIMANDS",
    "METHODS",
    "BalancingScore",
    "MahalanobisMetric",
    "MatchedSet",
    "CausalEstimate",
    "balancing_score",
    "build_metric",
    "find_matches",
    "impute",
    "estimate",
]

FOR_TREATED = "for-treated"
FOR_CONTROL = "for-control"

ESTIMANDS = ("ace", "acet")
# method id -> (text-report label, reads the data-generating truth), in the
# order simulation.scenario runs them by default
METHODS = {
    "ambient": ("Ambient (original covariates)", False),
    "ps-logistic": ("Estimated PS (logistic)", False),
    "ps-true": ("True PS", True),
    "sdr": ("SDR (SIR-estimated)", False),
    "sdr-oracle": ("SDR (oracle)", True),
    "active-set-oracle": ("Active set (oracle)", True),
}


@dataclass(frozen=True)
class BalancingScore:
    """Score columns used when searching each donor group.

    into_control feeds searches for donors in the control group (imputing
    Y(0) for treated subjects); into_treated feeds the reverse direction. For
    ambient and propensity scores the two are the same matrix; per-group
    reduced covariates differ by construction. diagnostics records how the
    score was fitted (SIR ranks and fallbacks, logistic convergence); the
    estimate carries a copy of it.
    """

    into_control: np.ndarray
    into_treated: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def ambient(cls, covariates) -> "BalancingScore":
        x = _score_matrix(covariates)
        return cls(into_control=x, into_treated=x)


def balancing_score(method: str, sample: ObservationalSample, *, estimand: str,
                    n_slices: int, alpha: float, truth=None) -> BalancingScore:
    """The balancing score a method id matches on.

    Methods: "ambient" (raw covariates), "ps-logistic" (fitted logistic
    propensity), "sdr" (per-group SIR reduction; the treated group's
    reduction is fitted only for estimand "ace", the only estimand that
    matches into the treated group), and three that read the data-generating
    truth, a simulation's GeneratedData: "ps-true" (true propensity),
    "sdr-oracle" (true per-group bases) and "active-set-oracle" (the
    covariates the outcome depends on).

    Raises:
        InvalidArgument: unknown method, a truth-based method without truth,
            n_slices < 2 or alpha outside (0, 1), whichever the method.
    """
    if method not in METHODS:
        raise InvalidArgument(f"unknown method {method!r}")
    sdr.check_tuning(n_slices, alpha)
    if truth is None and METHODS[method][1]:
        raise InvalidArgument(f"method {method!r} needs the data-generating truth")
    x = sample.covariates
    if method == "ambient":
        return BalancingScore.ambient(x)
    if method == "ps-logistic":
        model = fit_logistic(x, sample.treatment)
        ps = predict_ps(model, x)[:, None]
        return BalancingScore(ps, ps, {"logistic_converged": model.converged})
    if method == "ps-true":
        ps = truth.true_ps[:, None]
        return BalancingScore(ps, ps)
    if method == "sdr":
        est0 = sdr.estimate_central_subspace(sample, 0, n_slices, alpha)
        diagnostics = {"rank_control": est0.selected_rank, "rank_treated": None,
                       "rank_fallback_control": est0.rank_fallback}
        z1 = None
        if estimand == "ace":
            est1 = sdr.estimate_central_subspace(sample, 1, n_slices, alpha)
            z1 = sdr.reduce_covariates(est1, x)
            diagnostics.update(rank_treated=est1.selected_rank,
                               rank_fallback_treated=est1.rank_fallback)
        return BalancingScore(sdr.reduce_covariates(est0, x), z1, diagnostics)
    if method == "sdr-oracle":
        return BalancingScore(x @ truth.spec.oracle_basis_control,
                              x @ truth.spec.oracle_basis_treated)
    return BalancingScore.ambient(x[:, list(truth.spec.active_columns)])  # active-set-oracle


@dataclass(frozen=True)
class MahalanobisMetric:
    """D(a, b) = sqrt((a-b)' Sigma^-1 (a-b)) = |(a-b) W|, held as its whitening
    map W (W W' = Sigma^-1; W need not be symmetric), so matching on the
    whitened scores z W is plain Euclidean search."""

    whitening: np.ndarray

    @property
    def inverse_covariance(self) -> np.ndarray:
        """Sigma^-1 = W W', symmetrised; the canonical distance reads it."""
        w = np.asarray(self.whitening, dtype=float)
        inv = w @ w.T
        return 0.5 * (inv + inv.T)


@dataclass(frozen=True)
class MatchedSet:
    """m nearest opposite-group donors per queried subject.

    donor lists are sorted by (distance, donor index); distance ties break
    toward the smaller donor index. Indices are positions in the full sample.
    """

    query_indices: np.ndarray     # (q,)
    donor_indices: np.ndarray     # (q, m)
    distances: np.ndarray         # (q, m), nondecreasing within each row
    direction: str


@dataclass(frozen=True)
class CausalEstimate:
    """An effect estimate and the matched sets it imputed from: for-treated
    first, then for-control for the ACE. diagnostics copies the balancing
    score's fit diagnostics."""

    value: float
    imputed: np.ndarray           # per-subject imputed Y(1-T); NaN where not required
    matches: tuple[MatchedSet, ...]
    diagnostics: dict


def _score_matrix(scores) -> np.ndarray:
    z = np.asarray(scores, dtype=float)
    if z.ndim != 2:
        raise InvalidArgument(f"scores must be n x k, such as ps[:, None]; got shape {z.shape}")
    return z


def build_metric(scores) -> MahalanobisMetric:
    """Metric from the pooled (all-subject) sample covariance of the scores.

    The whitening map is the ridge-stabilized inverse square root of that
    covariance (inverse_sqrt_spd's default ridge), so a constant score column
    degenerates cleanly: pairwise differences along it are zero and
    contribute nothing. Scores are an (n, k) array, as in find_matches.
    """
    z = _score_matrix(scores)
    if z.shape[0] < 2:
        raise InvalidArgument("need at least 2 rows to pool a covariance")
    fit = whitening_fit(z, "the score covariance is not finite; rescale the scores")
    return MahalanobisMetric(fit.inv_sqrt_cov)


def _squared_distances(diff: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Canonical squared distance d' inv d for each column d of diff (k x P), clamped at 0.

    The terms (d_k inv_kl) d_l are added one at a time, starting from 0, in
    row-major (k, l) order: the order in which numpy's einsum("qdk,kl,qdl->qd")
    sums a block of three or more pairs (numpy 2.4). np.add.reduce adds the rows
    [total; k terms] in turn when they hold two or more pairs; one pair it would
    sum pairwise, so it is padded to two. No pair's bits depend on the others.
    """
    size = diff.shape[1]
    total = np.zeros((diff.shape[0] + 1, max(size, 2)))     # row 0: the running sum
    for k in range(diff.shape[0]):
        np.multiply(inv[k, :, None], diff[k], out=total[1:, :size])
        total[1:, :size] *= diff
        total[0] = np.add.reduce(total, axis=0)
    return np.maximum(total[0, :size], 0.0)


# Filter blocks hold at most max(this / itemsize, d) (query, donor) entries,
# 2^18 per float64 array and 2^19 per float32 one; window blocks hold at most
# max(2^18, d + 2).
_BLOCK_BYTES = 1 << 21
# Floating-point error allowed per score dimension, about 4500 unit roundoffs.
_ROUNDING = 1e-12


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises InvalidArgument below
def find_matches(scores, treatment, metric: MahalanobisMetric, n_matches: int,
                 direction: str) -> MatchedSet:
    """Exact m-nearest-neighbor search with replacement.

    direction "for-treated" finds donors in the control group for every
    treated subject; "for-control" is the reverse.

    Donors are ranked by the squared distance that _squared_distances
    defines, ties going to the smaller donor index. Donor rows equal by value
    tie for every query, so only the first m of each are kept. With q queries
    and d donors, the search follows the number k of score columns:

    - k >= 2: per block, a whitened product (float32 for k < 1,000 unless its
      floor is too coarse) bounds each distance below, m argmin passes over
      the m lowest set each query's cut, and a min pass finds the few queries
      with more under it; these pairs go to a canonical re-rank. Time is
      O(d log d + q d (k + m)).
    - k = 1: the donors are sorted by score, between one -inf and one +inf.
      d2 does not decrease away from a query's sorted position, so its first
      m by (d2, donor index) among the min(2w, d) donors around it (w = m at
      first) are final when the next donor out on each side is strictly
      farther, or once 2w >= d. Other queries are read again with w doubled.
      Time is O(d log d + q (m log m + log d)) when scores rarely tie in d2.

    Filter blocks of at most max(2^18, d) pairs, 2^19 for a float32 product
    (2 MiB either way), share a buffer made once per call, and are re-ranked
    together while their pairs' k columns fit 2 MiB; a window block holds at
    most max(2^18, d + 2) entries. Memory is O((max(2^19, d) + q + d) k) floats.

    Raises:
        InvalidArgument: scores not n x k, unknown direction, n_matches < 1,
            scores and treatment of different lengths, a treatment entry
            other than 0 or 1, a whitening map that is not k x k, k > 4,502,
            no subjects to match, NaN/inf in the scores or the metric, or a
            picked squared distance that overflows.
        InsufficientDonors: donor group smaller than n_matches.
    """
    z = _score_matrix(scores)
    w = np.asarray(metric.whitening, dtype=float)
    t = np.asarray(treatment)
    if direction not in (FOR_TREATED, FOR_CONTROL):
        raise InvalidArgument(f"unknown direction {direction!r}")
    query_label = int(direction == FOR_TREATED)
    if n_matches < 1:
        raise InvalidArgument(f"n_matches must be >= 1, got {n_matches}")
    if t.shape != (z.shape[0],):
        raise InvalidArgument(
            f"scores have {z.shape[0]} rows, treatment has shape {t.shape}"
        )
    if w.shape != (z.shape[1], z.shape[1]):
        raise InvalidArgument(
            f"whitening map has shape {w.shape}, scores have {z.shape[1]} columns"
        )
    if z.shape[1] > 4502:   # the most the filter's rounding bound covers
        raise InvalidArgument(f"at most 4502 score columns can be matched, got {z.shape[1]}")
    if not np.isfinite(z).all():
        raise InvalidArgument("scores contain NaN or inf")
    # for k = 1, the property's 0.5 (W W' + (W W')') without forming W W'
    inv = 0.5 * (w * w + w * w) if z.shape[1] == 1 else metric.inverse_covariance
    if not np.isfinite(inv).all():      # non-finite wherever w is
        raise InvalidArgument("metric contains NaN or inf")

    queries = np.flatnonzero(t == query_label)
    donors = np.flatnonzero(t == 1 - query_label)
    if queries.size + donors.size != t.size:
        raise InvalidArgument("treatment entries must be 0 or 1")
    if queries.size == 0:
        raise InvalidArgument(f"no subjects to match {direction}")
    if donors.size < n_matches:
        raise InsufficientDonors(
            f"{donors.size} donors available, {n_matches} matches requested"
        )

    # Only the first m of identical donor rows can be picked: rows equal by value
    # (-0.0 == 0.0) get the same d2 bits for every query, as its sum starts at +0.0.
    # Two can be identical only if a stable sort on the first column (the k = 1
    # window's order) has equal neighbours. Then a stable lexicographic sort puts
    # them in runs in index order; keep each run's first m.
    zq, zd = z[queries], z[donors]
    kept = np.argsort(zd[:, 0], kind="stable")
    if (np.diff(zd[kept, 0]) == 0.0).any():    # finite: a - b == 0 iff a == b, -0.0 == 0.0
        kept = np.lexsort(zd.T[::-1])       # the first column is the primary key
        key, pos, run = zd[kept], np.arange(kept.size), np.ones(kept.size, dtype=bool)
        run[1:] = (key[1:] != key[:-1]).any(axis=1)         # True where a run starts
        kept = kept[pos - np.maximum.accumulate(pos * run) < n_matches]
    donors, zd = donors[kept], zd[kept]
    if z.shape[1] == 1:
        xp = np.concatenate(([-np.inf], zd[:, 0], [np.inf]))
        picked, d2_picked = _window_pick(zq[:, 0], xp, inv[0, 0], donors, n_matches, n_matches)
    else:
        picked = np.empty((queries.size, n_matches), dtype=np.int64)
        d2_picked = np.empty((queries.size, n_matches))
        for at, row, col in _filter_candidates(zq, zd, w, n_matches):
            d2 = _squared_distances((zq[at][row] - zd[col]).T.copy(), inv)
            col = donors[col]                   # ties break by sample index
            # lexsort groups pairs by row, so row j's run starts at sum(counts[:j])
            order = np.lexsort((col, d2, row))
            counts = np.bincount(row)         # every row has m or more
            first = order[(np.cumsum(counts) - counts)[:, None] + np.arange(n_matches)]
            picked[at] = col[first]
            d2_picked[at] = d2[first]
    if not np.isfinite(d2_picked).all():
        raise InvalidArgument("a squared match distance overflows; rescale the scores")
    return MatchedSet(
        query_indices=queries,
        donor_indices=picked,
        distances=np.sqrt(d2_picked),
        direction=direction,
    )


def _filter_candidates(zq, zd, w, n_matches):
    """Yield (at, row, col) blocks: rows zq[at][row] paired with the donors
    zd[col], holding every pair that a whitened bound cannot rule out
    of a query's canonical first n_matches."""
    # Filter bound. Let inv be the computed W W' that the canonical value D
    # reads, c the donor mean, e = z - c, w = e W, diff = z_a - z_b, S = |e_a|^2
    # + |e_b|^2 (so |diff|^2 <= 2S), L = |W|_F^2 (at least the norm of |W||W|',
    # so of |inv|) and u = 2^-53. approx = |w_a|^2 + |w_b|^2 - 2 w_a.w_b differs
    # from D by the rounding of D, a sum of k^2 products ((k^2+2) u L 2S), of
    # inv, e and e W ((4k+10) u L S) and of w (2k u (|w_a|^2 + |w_b|^2)), each
    # to a factor 1 + 1e-8. tau = tau_a + tau_b, tau_x = C (k+1) (|w_x|^2 +
    # L |e_x|^2), C = 1e-12, covers these and the float64 product's rounding
    # below while 2k^2 + 4k + 14 <= (1 - 1e-6) (C / u) (k+1) (the |w|^2 terms
    # need far less): up to k = 4,502, the most find_matches takes. approx +-
    # tau bound max(D, 0). lower, the product of [-2 w_a, 1] and [w_b, |w_b|^2
    # - tol_b] rounded to float32 (v = 2^-24) or float64 (v = u) and summed in
    # any order, with or without FMA, is within (k+3) v (|w_a|^2 + 2 |w_b|^2 +
    # tol_b) of approx - |w_a|^2 - tol_b. In float32, tol_x is tau_x with
    # C' = 1e-5 (about 170 v) for C on |w_x|^2, which covers that for k below
    # 1,000; in float64, tol = tau and C's slack covers it. Over a row's m
    # donors of smallest lower, D <= lower + 2 tol_b + |w_a|^2 + tol_a, so with
    # cut = max(lower + 2 tol_b) + 2 tol_a, rounded upward, T, the m-th smallest
    # max(D, 0), is at most cut + |w_a|^2 - tol_a. A donor of the canonical
    # first m, ties included, has approx - tau <= T, so lower <= cut: it is
    # kept, and the re-rank sees the exact order.
    # Range. Every value the filter forms, and every term and partial sum of
    # D, is at most about 4 k^2 L max|e|^2: float32 holds them when (k+1)^2 L
    # max|e|^2 < 2^100. Else W is divided by a power of two to max|W| <= 1 and
    # the scores by one to max|z| < 2^(49 - exponent((k+1) k^1.5)), so L <= k^2
    # and the test holds. Exact division only goes down: D and the filter's
    # values scale by one power of four, and the re-rank reads unscaled values.
    # Underflow adds at most 2^-1075 (2^-150 in float32) to an input or product,
    # scaled later by up to 4 max|e|^2 (D) or 2 max|w| (lower), as max|W| <= 1
    # after a rescale; the floor (k+1)^3 (s (1 + max|e| + max|w|))^2, s = 2^-535
    # (2^-70), added to each tol_x covers this. Float32 needs its floor under
    # 2^-30 max|w|^2. A D that overflows unscaled is not bounded: a pick raises.
    k, n_donors = zq.shape[1], zd.shape[0]
    for rescaled in (False, True):      # at most one rescale
        centre = zd.mean(axis=0)
        eq, ed = zq - centre, zd - centre
        eq2, ed2 = np.einsum("ij,ij->i", eq, eq), np.einsum("ij,ij->i", ed, ed)
        big_l = np.einsum("ij,ij->", w, w)
        e2_max = max(eq2.max(), ed2.max())
        if rescaled or (k + 1) ** 2 * big_l * e2_max < 2.0 ** 100:
            break
        room = 49 - np.frexp((k + 1) * k ** 1.5)[1]
        shift = max(0, np.frexp(max(np.abs(zq).max(), np.abs(zd).max()))[1] - room)
        w = np.ldexp(w, -max(0, np.frexp(np.abs(w).max())[1]))
        zq, zd = np.ldexp(zq, -shift), np.ldexp(zd, -shift)
    wq, wd = eq @ w, ed @ w
    wq2, nd = np.einsum("ij,ij->i", wq, wq), np.einsum("ij,ij->i", wd, wd)
    w2_max = max(wq2.max(), nd.max())
    spread = (k + 1) ** 1.5 * (1.0 + np.sqrt(e2_max) + np.sqrt(w2_max))
    dtype, c_w, s = ((np.float32, 1e-5, -70) if k < 1000 and spread ** 2 < 2.0 ** 110 * w2_max
                     else (np.float64, _ROUNDING, -535))
    floor, per_w, per_e = (2.0 ** s * spread) ** 2, c_w * (k + 1), _ROUNDING * (k + 1) * big_l
    tol_q = per_w * wq2 + per_e * eq2 + floor
    tol_d = per_w * nd + per_e * ed2 + floor
    wq = np.column_stack([-2.0 * wq, np.ones(zq.shape[0])]).astype(dtype)
    wd = np.vstack([wd.T, nd - tol_d]).astype(dtype)
    step = max(1, _BLOCK_BYTES // wq.itemsize // n_donors)
    buf = np.empty((min(step, zq.shape[0]), n_donors), dtype)  # reused by every block
    rows, cols, start = [], [], 0   # consecutive blocks' pairs, re-ranked together
    for lo in range(0, zq.shape[0], step):
        hi = min(lo + step, zq.shape[0])
        lower, r = np.dot(wq[lo:hi], wd, out=buf[:hi - lo]), np.arange(hi - lo)
        first, low = [], []
        for _ in range(n_matches):      # m argmins beat an argpartition for small m
            first.append(lower.argmin(axis=1))
            low.append(lower[r, first[-1]])
            lower[r, first[-1]] = np.inf                # hidden from the next argmin
        cut = (np.array(low) + 2.0 * tol_d[first]).max(axis=0) + 2.0 * tol_q[lo:hi]
        cut = np.nextafter(cut.astype(dtype), np.inf)   # rounded upward
        more = np.flatnonzero(lower.min(axis=1) <= cut)  # rows that keep more than their m
        row, col = np.nonzero(lower[more] <= cut[more, None])
        rows += [np.repeat(r + (lo - start), n_matches), more[row] + (lo - start)]
        cols += [np.ravel(first, order="F"), col]
        if hi == zq.shape[0] or sum(map(len, cols)) * k >= _BLOCK_BYTES // 8:
            yield slice(start, hi), np.concatenate(rows), np.concatenate(cols)
            rows, cols, start = [], [], hi


def _window_pick(xq, xp, c, donors, m, width):
    """For one score column: xq are the query scores, xp the sorted, collapsed
    donor scores (see find_matches) between one -inf and one +inf, donors their
    sample indices and c the 1 x 1 inverse covariance's entry. Returns each
    query's first m donors and their d2, read from min(2 width, d) donors."""
    # The canonical d2 of a pair is fl(fl(|diff| c) |diff|), diff = fl(x_a - x_b):
    # the bits of the window's diff * c * diff. Rounding is monotone, so d2 does
    # not decrease away from a query's sorted position on either side. The window
    # starts width + 1 before it, held inside xp, so its outer entries lie either
    # side of it, and T, the m-th smallest (d2, donor index) among its donors, is
    # final when both are strictly farther, or when it holds every donor.
    span = min(2 * width, xp.size - 2) + 2    # >= m + 2
    start = np.minimum(np.maximum(np.searchsorted(xp, xq) - width - 1, 0), xp.size - span)
    picked, d2_picked = np.empty((xq.size, m), dtype=np.int64), np.empty((xq.size, m))
    settled = np.empty(xq.size, dtype=bool)
    step = max(1, max(_BLOCK_BYTES // 8, xp.size) // span)    # float64 blocks
    for lo in range(0, xq.size, step):
        pos = start[lo:lo + step, None] + np.arange(span)
        diff = xq[lo:lo + step, None] - xp[pos]     # at xp's ends d2 is inf (nan at c = 0)
        d2, index = diff * c * diff, donors[pos[:, 1:-1] - 1]
        rows, first = np.arange(pos.shape[0])[:, None], np.lexsort((index, d2[:, 1:-1]))[:, :m]
        picked[lo:lo + step] = index[rows, first]
        d2_picked[lo:lo + step] = cut = d2[:, 1:-1][rows, first]
        settled[lo:lo + step] = (d2[:, 0] > cut[:, -1]) & (d2[:, -1] > cut[:, -1])
    rest = np.flatnonzero(~settled)
    if rest.size and span < xp.size:
        picked[rest], d2_picked[rest] = _window_pick(xq[rest], xp, c, donors, m, 2 * width)
    return picked, d2_picked


def impute(sample: ObservationalSample, matched: MatchedSet) -> np.ndarray:
    """Mean observed outcome over each subject's matched set."""
    return sample.outcome[matched.donor_indices].mean(axis=1)


def estimate(sample: ObservationalSample, score: BalancingScore, estimand: str = "ace",
             n_matches: int = 1) -> CausalEstimate:
    """Matching estimate of the average causal effect ("ace") or of the
    average effect on the treated ("acet").

    Imputes Y(0) for every treated subject from its control-group matches on
    the into_control score; the ACE also imputes Y(1) for every control from
    its treated-group matches on the into_treated score (the ACET leaves them
    NaN). The value averages one contrast, (2T - 1)(Y - imputed Y(1 - T)),
    over the imputed subjects: all n for the ACE, the treated for the ACET.

    Raises:
        InvalidArgument: unknown estimand, an ACE without an into_treated
            score, or a value that overflows (outcomes near the largest double).
    """
    if estimand not in ESTIMANDS:
        raise InvalidArgument(f"unknown estimand {estimand!r}")
    if estimand == "ace" and score.into_treated is None:
        raise InvalidArgument("ACE needs an into_treated score")
    t, y = sample.treatment, sample.outcome
    metric = build_metric(score.into_control)
    matched = [find_matches(score.into_control, t, metric, n_matches, FOR_TREATED)]
    if estimand == "ace":
        if score.into_treated is not score.into_control:
            metric = build_metric(score.into_treated)
        matched.append(find_matches(score.into_treated, t, metric, n_matches, FOR_CONTROL))

    imputed = np.full(sample.n_subjects, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):     # a non-finite value raises below
        for mset in matched:
            imputed[mset.query_indices] = impute(sample, mset)
        value = float(((2 * t - 1) * (y - imputed))[(t == 1) | (estimand == "ace")].mean())
    if not np.isfinite(value):
        raise InvalidArgument("the effect estimate overflows; rescale the outcome")
    return CausalEstimate(value, imputed, tuple(matched), dict(score.diagnostics))
