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

from . import numerics, sdr
from .dataset import ObservationalSample
from .errors import InsufficientDonors, InvalidArgument
from .propensity import fit_logistic, predict_ps

__all__ = [
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
        x = np.atleast_2d(np.asarray(covariates, dtype=float))
        return cls(into_control=x, into_treated=x)

    @classmethod
    def propensity(cls, scores, diagnostics=None) -> "BalancingScore":
        s = np.asarray(scores, dtype=float).reshape(-1, 1)
        return cls(into_control=s, into_treated=s, diagnostics=diagnostics or {})

    @classmethod
    def reduced(cls, into_control, into_treated=None, diagnostics=None) -> "BalancingScore":
        z0 = np.atleast_2d(np.asarray(into_control, dtype=float))
        z1 = None if into_treated is None else np.atleast_2d(np.asarray(into_treated, dtype=float))
        return cls(into_control=z0, into_treated=z1, diagnostics=diagnostics or {})


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
        InvalidArgument: unknown method, or a truth-based method without truth.
    """
    x = sample.covariates
    if truth is None and method in ("ps-true", "sdr-oracle", "active-set-oracle"):
        raise InvalidArgument(f"method {method!r} needs the data-generating truth")
    if method == "ambient":
        return BalancingScore.ambient(x)
    if method == "ps-logistic":
        model = fit_logistic(x, sample.treatment)
        return BalancingScore.propensity(predict_ps(model, x),
                                         {"logistic_converged": model.converged})
    if method == "ps-true":
        return BalancingScore.propensity(truth.true_ps)
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
        return BalancingScore.reduced(sdr.reduce_covariates(est0, x), z1, diagnostics)
    if method == "sdr-oracle":
        return BalancingScore.reduced(x @ truth.oracle_basis_control,
                                      x @ truth.oracle_basis_treated)
    if method == "active-set-oracle":
        return BalancingScore.ambient(x[:, list(truth.active_columns)])
    raise InvalidArgument(f"unknown method {method!r}")


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

    estimand: str
    value: float
    imputed: np.ndarray           # per-subject imputed Y(1-T); NaN where not required
    matches: tuple[MatchedSet, ...]
    diagnostics: dict = field(default_factory=dict)


def build_metric(scores, ridge: float | None = None) -> MahalanobisMetric:
    """Metric from the pooled (all-subject) sample covariance of the scores.

    The whitening map is the ridge-stabilized inverse square root of that
    covariance, so a constant score column degenerates cleanly: pairwise
    differences along it are zero and contribute nothing.
    """
    z = np.atleast_2d(np.asarray(scores, dtype=float))
    if z.shape[0] < 2:
        raise InvalidArgument("need at least 2 rows to pool a covariance")
    cov = np.atleast_2d(np.cov(z, rowvar=False, ddof=1))
    return MahalanobisMetric(numerics.inverse_sqrt_spd(cov, ridge))


def _squared_distances(diff: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Canonical squared distance diff' inv diff for each row of diff, clamped at 0.

    The terms (diff_k inv_kl) diff_l are added one at a time, starting from 0,
    in row-major (k, l) order: the order in which numpy's
    einsum("qdk,kl,qdl->qd") sums a block of three or more pairs (numpy 2.4).
    Written out, a pair's bits do not depend on which other pairs share the
    call; einsum takes another order for one or two pairs.
    """
    d2 = np.zeros(diff.shape[0])
    for k in range(diff.shape[1]):
        terms = diff[:, k, None] * inv[k]
        terms *= diff
        terms[:, 0] += d2
        d2 = np.add.accumulate(terms, axis=1)[:, -1]
    return np.maximum(d2, 0.0)


# Candidate blocks hold at most max(this, d) (query, donor) entries: 2 MiB
# per float64 array.
_BLOCK_ENTRIES = 1 << 18
# Floating-point error allowed per score dimension, about 4500 unit roundoffs.
_ROUNDING = 1e-12


def find_matches(scores, treatment, metric: MahalanobisMetric, n_matches: int,
                 direction: str) -> MatchedSet:
    """Exact m-nearest-neighbor search with replacement.

    direction "for-treated" finds donors in the control group for every
    treated subject; "for-control" is the reverse.

    Donors are ranked by the squared distance that _squared_distances
    defines, ties going to the smaller donor index. A candidate generator
    picks, per block of queries, a set of (query, donor) pairs that holds
    each query's canonical first m; only those pairs are evaluated in the
    canonical form and re-ranked. The generator follows the number of score
    columns k:

    - k >= 2: a whitened matrix product bounds every distance and drops the
      pairs that bound rules out. Time is O(q d k) for q queries and d
      donors.
    - k = 1: the donors are sorted once, and each query reads the m donors
      on either side of its sorted position, plus any further donors tied
      with the m-th of those. Time is O(d log d + q (m + log d)) when
      distinct scores rarely tie in distance.

    Each block holds at most max(2^18, d) pairs, so working memory is
    O((max(2^18, d) + q + d) k) floats, whatever q and d are.

    Raises:
        InvalidArgument: unknown direction, n_matches < 1, scores and
            treatment of different lengths, a whitening map that is not
            k x k, no subjects to match, NaN/inf in the scores or the
            metric, or a picked squared distance that overflows.
        InsufficientDonors: donor group smaller than n_matches.
    """
    z = np.atleast_2d(np.asarray(scores, dtype=float))
    w = np.asarray(metric.whitening, dtype=float)
    t = np.asarray(treatment)
    if direction == FOR_TREATED:
        query_label = 1
    elif direction == FOR_CONTROL:
        query_label = 0
    else:
        raise InvalidArgument(f"unknown direction {direction!r}")
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
    if not np.isfinite(z).all():
        raise InvalidArgument("scores contain NaN or inf")
    inv = metric.inverse_covariance     # non-finite wherever w is
    if not np.isfinite(inv).all():
        raise InvalidArgument("metric contains NaN or inf")

    queries = np.flatnonzero(t == query_label)
    donors = np.flatnonzero(t == 1 - query_label)
    if queries.size == 0:
        raise InvalidArgument(f"no subjects to match {direction}")
    if donors.size < n_matches:
        raise InsufficientDonors(
            f"{donors.size} donors available, {n_matches} matches requested"
        )

    zq, zd = z[queries], z[donors]
    if z.shape[1] == 1:
        blocks = _window_candidates(zq[:, 0], zd[:, 0], inv[0, 0], n_matches)
    else:
        blocks = _filter_candidates(zq, zd, w, n_matches)
    picked = np.empty((queries.size, n_matches), dtype=np.int64)
    d2_picked = np.empty((queries.size, n_matches))
    for lo, hi, row, col in blocks:
        d2 = _squared_distances(zq[lo + row] - zd[col], inv)
        # row is ascending, so each row's run starts where it did before sorting
        order = np.lexsort((col, d2, row))
        counts = np.bincount(row, minlength=hi - lo)
        first = order[(np.cumsum(counts) - counts)[:, None] + np.arange(n_matches)]
        picked[lo:hi] = donors[col[first]]
        d2_picked[lo:hi] = d2[first]
    if not np.isfinite(d2_picked).all():
        raise InvalidArgument("a squared match distance overflows; rescale the scores")
    return MatchedSet(
        query_indices=queries,
        donor_indices=picked,
        distances=np.sqrt(d2_picked),
        direction=direction,
    )


def _filter_candidates(zq, zd, w, n_matches):
    """Yield (lo, hi, row, col) blocks: rows lo + row of zq paired with the
    donors zd[col], row ascending, holding every pair that a whitened bound
    cannot rule out of a query's canonical first n_matches."""
    # Filter bound. Let inv be the computed W W' that the canonical value D
    # reads, c the donor mean, e = z - c, w = e W, diff = z_a - z_b,
    # S = |e_a|^2 + |e_b|^2 (so |diff|^2 <= 2S), L = |W|_F^2 (at least the
    # norm of |W||W|', so of |inv|) and u = 2^-53. The expansion
    # approx = |w_a|^2 + |w_b|^2 - 2 w_a.w_b differs from D by at most
    #   - the rounding of D, a sum of k^2 products: (k^2+2) u L 2S;
    #   - plus the rounding of inv, of e and of e W: O(k u L S);
    #   - plus the rounding of the expansion: O(k u (|w_a|^2 + |w_b|^2)).
    # tol = tol_a + tol_b with tol_x = C (k+1) (|w_x|^2 + L |e_x|^2) and
    # C = 1e-12 covers these and the rounding of the filter's own sums up to
    # k of about 4,000; typical errors are far smaller. The expansion of a
    # squared norm rounds below 0 by less than tol, so approx +- tol also
    # bound max(D, 0). Per row let T be the m-th smallest approx + tol. At
    # least m donors have max(D, 0) <= T, so each donor of the canonical
    # first m, ties included, has approx - tol <= T and is kept: the re-rank
    # sees the exact order. |w_a|^2 is common to a row, so the filter drops
    # it from both sides of that test.
    #
    # Range. Every value the filter forms, and every term and partial sum
    # of D, is at most about 4 k^2 L max|e|^2, so when (k+1)^2 L max|e|^2 is
    # below 2^1000 nothing overflows; above it, every pair goes to the
    # re-rank. Underflow adds at most 2^-1075 to a product, which later
    # products scale by up to |diff|^2 <= 4 max|e|^2 (D, through inv) or
    # max|w| (the filter). The floor (k+1)^3 2^-1070 (1 + max|e| + max|w|)^2,
    # added to each tol_x, covers these, so the bound still holds where tol
    # itself underflows.
    k, n_donors = zq.shape[1], zd.shape[0]
    centre = zd.mean(axis=0)
    eq, ed = zq - centre, zd - centre
    eq2, ed2 = np.einsum("ij,ij->i", eq, eq), np.einsum("ij,ij->i", ed, ed)
    big_l = np.einsum("ij,ij->", w, w)
    e2_max = max(eq2.max(), ed2.max())
    step = max(1, _BLOCK_ENTRIES // n_donors)
    if not (k + 1) ** 2 * big_l * e2_max < 2.0 ** 1000:
        for lo in range(0, zq.shape[0], step):
            hi = min(lo + step, zq.shape[0])
            row, col = divmod(np.arange((hi - lo) * n_donors), n_donors)
            yield lo, hi, row, col
        return
    wq, wd = eq @ w, ed @ w
    wq2, nd = np.einsum("ij,ij->i", wq, wq), np.einsum("ij,ij->i", wd, wd)
    floor = (k + 1) ** 3 * (
        2.0 ** -535 * (1.0 + np.sqrt(e2_max) + np.sqrt(max(wq2.max(), nd.max())))) ** 2
    per_w = _ROUNDING * (k + 1)
    per_e = per_w * big_l
    tol_q = per_w * wq2 + per_e * eq2 + floor
    tol_d = per_w * nd + per_e * ed2 + floor
    upper_d, lower_d = nd + tol_d, nd - tol_d
    wq, wd = -2.0 * wq, np.ascontiguousarray(wd.T)

    for lo in range(0, zq.shape[0], step):
        hi = min(lo + step, zq.shape[0])
        cross = np.dot(wq[lo:hi], wd)                  # -2 w_a.w_b
        upper = cross + upper_d
        cut = (upper.min(axis=1) if n_matches == 1   # a row-wise partition is slower
               else np.partition(upper, n_matches - 1, axis=1)[:, n_matches - 1])
        cut += 2.0 * tol_q[lo:hi]
        cross += lower_d
        row, col = divmod(np.flatnonzero(cross <= cut[:, None]), n_donors)
        yield lo, hi, row, col


def _window_candidates(xq, xd, c, n_matches):
    """Yield (lo, hi, row, col) blocks like _filter_candidates for one score
    column: xq and xd are the query and donor scores, c the 1 x 1 inverse
    covariance's entry."""
    # The canonical d2 of a pair is fl(fl(diff c) diff) with diff = fl(x_a - x_b),
    # which d2() below gives up to the sign of a zero.
    # Rounding is monotone and symmetric in sign, so among the donors below a
    # query, and among those at or above it, d2 never falls with distance
    # in sorted order. Donors with equal scores tie for every query, and only
    # the first m of such a run (the smallest indices) can be picked.
    m = n_matches
    order = np.argsort(xd, kind="stable")
    xs = xd[order]
    keep = np.r_[np.ones(m, dtype=bool), xs[m:] != xs[:-m]]
    order, xs = order[keep], xs[keep]
    size = xs.size                          # at least m

    def d2(rows, pos):
        diff = xq[rows] - xs[pos]
        return diff * c * diff

    def first_true(a, b, test):
        # per row, the smallest i in [a, b) where test(i) holds, b if none;
        # test must hold from some i on
        while (a < b).any():
            mid = (a + b) // 2
            ok = test(np.minimum(mid, size - 1))
            a, b = np.where(ok | (a == b), a, mid + 1), np.where(ok, mid, b)
        return a

    # Per query the m donors either side of its split hold every donor with
    # d2 below T, the m-th smallest d2 among them; donors tied at T may run
    # past them on either side and are found by bisection.
    split = np.searchsorted(xs, xq, side="left")
    start, stop = np.maximum(split - m, 0), np.minimum(split + m, size)
    offsets = np.arange(-m, m)
    step = max(1, max(_BLOCK_ENTRIES, size) // (2 * m))
    for lo in range(0, xq.size, step):
        rows = np.arange(lo, min(lo + step, xq.size))
        pos = split[rows, None] + offsets
        inside = (pos >= 0) & (pos < size)
        window = np.where(inside, d2(rows[:, None], np.clip(pos, 0, size - 1)), np.inf)
        cut = np.partition(window, m - 1, axis=1)[:, m - 1]
        a, b = start[rows], stop[rows]
        grow = (a > 0) & (d2(rows, np.maximum(a - 1, 0)) <= cut)
        start[rows] = first_true(np.where(grow, 0, a), np.where(grow, a - 1, a),
                                 lambda i: d2(rows, i) <= cut)
        grow = (b < size) & (d2(rows, np.minimum(b, size - 1)) <= cut)
        stop[rows] = first_true(np.where(grow, b + 1, b), np.where(grow, size, b),
                                lambda i: d2(rows, i) > cut)

    # Blocks of whole queries with at most max(2^18, d) candidates each; one
    # query has at most d. Candidate f of the flat list sits at sorted
    # position f + shift of its query.
    ends = np.cumsum(stop - start)
    shift = stop - ends
    lo = 0
    while lo < xq.size:
        base = ends[lo - 1] if lo else 0
        hi = int(np.searchsorted(ends, base + max(_BLOCK_ENTRIES, size), side="right"))
        row = np.repeat(np.arange(hi - lo), stop[lo:hi] - start[lo:hi])
        yield lo, hi, row, order[np.arange(base, ends[hi - 1]) + shift[lo:hi][row]]
        lo = hi


def impute(sample: ObservationalSample, matched: MatchedSet) -> np.ndarray:
    """Mean observed outcome over each subject's matched set."""
    return sample.outcome[matched.donor_indices].mean(axis=1)


def estimate(sample: ObservationalSample, score: BalancingScore, estimand: str = "ace",
             n_matches: int = 1) -> CausalEstimate:
    """Matching estimate of the average causal effect ("ace") or of the
    average effect on the treated ("acet").

    Imputes Y(0) for every treated subject from its control-group matches on
    the into_control score. For the ACE it also imputes Y(1) for every control
    from its treated-group matches on the into_treated score and averages the
    completed contrasts over all n subjects; the ACET averages them over the
    treated only, and controls' imputations stay NaN.

    Raises:
        InvalidArgument: unknown estimand, or an ACE without an into_treated
            score.
    """
    if estimand not in ("ace", "acet"):
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
    for mset in matched:
        imputed[mset.query_indices] = impute(sample, mset)
    treated = matched[0].query_indices
    if estimand == "ace":
        # treated contribute Y(1) - imputed Y(0), controls imputed Y(1) - Y(0)
        value = float(((2 * t - 1) * (y - imputed)).mean())
    else:
        value = float((y[treated] - imputed[treated]).mean())
    return CausalEstimate(estimand, value, imputed, tuple(matched), dict(score.diagnostics))
