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
from .errors import InsufficientDonors, InvalidArgument, InvalidMatrix
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
    if method == "active-set-oracle":
        return BalancingScore.ambient(x[:, list(truth.spec.active_columns)])
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


def build_metric(scores) -> MahalanobisMetric:
    """Metric from the pooled (all-subject) sample covariance of the scores.

    The whitening map is the ridge-stabilized inverse square root of that
    covariance (inverse_sqrt_spd's default ridge), so a constant score column
    degenerates cleanly: pairwise differences along it are zero and
    contribute nothing.
    """
    z = np.atleast_2d(np.asarray(scores, dtype=float))
    if z.shape[0] < 2:
        raise InvalidArgument("need at least 2 rows to pool a covariance")
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        cov = np.atleast_2d(np.cov(z, rowvar=False, ddof=1))
    if not np.isfinite(cov).all():
        raise InvalidMatrix("the score covariance is not finite; rescale the scores")
    return MahalanobisMetric(numerics.inverse_sqrt_spd(cov))


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
    canonical form and re-ranked. Identical donor rows tie for every query,
    so only the first m of each are kept; the generator follows the number
    of score columns k:

    - k >= 2: one whitened product per block bounds each distance below;
      m argmin passes set a query's cut and one compare drops the pairs
      above it. Time is O(d log d + q d (k + m)) for q queries and d donors.
    - k = 1: the donors are sorted by score; the m-th smallest distance to
      the m donors either side of a query bounds a value interval around it
      that holds its first m, read off by two bisections. Time is
      O(d log d + q (m + log d)) when distinct scores rarely tie in distance.

    Blocks of at most max(2^18, d) pairs share buffers made once per call, so
    working memory is O((max(2^18, d) + q + d) k) floats, whatever q and d are.

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

    # Only the first m of identical donor rows can be picked. A stable sort on
    # the score for k = 1 (the order the window search reads), else on an exact,
    # wrapping integer mix of each row's bits, puts them in runs in index order
    # (rows sharing a key may split a run); keep each run's first m.
    zq, zd = z[queries], z[donors]
    bits = zd.view(np.uint64)
    mix = np.cumprod(np.full(z.shape[1], 0x9E3779B97F4A7C15, dtype=np.uint64))
    kept = np.argsort(zd[:, 0] if z.shape[1] == 1 else bits @ mix, kind="stable")
    bits, pos, run = bits[kept], np.arange(kept.size), np.ones(kept.size, dtype=bool)
    run[1:] = (bits[1:] != bits[:-1]).any(axis=1)       # True where a run starts
    donors = donors[kept[pos - np.maximum.accumulate(pos * run) < n_matches]]
    zd = z[donors]
    if z.shape[1] == 1:
        blocks = _window_candidates(zq[:, 0], zd[:, 0], inv[0, 0], n_matches)
    else:
        blocks = _filter_candidates(zq, zd, w, n_matches)
    picked = np.empty((queries.size, n_matches), dtype=np.int64)
    d2_picked = np.empty((queries.size, n_matches))
    for lo, hi, row, col in blocks:
        d2 = _squared_distances(zq[lo + row] - zd[col], inv)
        col = donors[col]                   # ties break by sample index
        # row is ascending, so each row's run starts where it did before sorting
        order = np.lexsort((col, d2, row))
        counts = np.bincount(row, minlength=hi - lo)
        first = order[(np.cumsum(counts) - counts)[:, None] + np.arange(n_matches)]
        picked[lo:hi] = col[first]
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
    # bound max(D, 0). One product of k+1 terms, -2 w_a.w_b and |w_b|^2 - tol_b,
    # gives lower = approx - |w_a|^2 - tol_b. Over a row's m donors of smallest
    # lower, cut = max(lower + 2 tol_b) + 2 tol_a bounds approx + tol - |w_a|^2
    # + tol_a, so T, the m-th smallest max(D, 0), is at most cut + |w_a|^2 -
    # tol_a. A donor of the canonical first m, ties included, has approx - tol
    # <= T, so lower <= cut: it is kept, and the re-rank sees the exact order.
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
            yield lo, hi, *divmod(np.arange((hi - lo) * n_donors), n_donors)
        return
    wq, wd = eq @ w, ed @ w
    wq2, nd = np.einsum("ij,ij->i", wq, wq), np.einsum("ij,ij->i", wd, wd)
    floor = (k + 1) ** 3 * (
        2.0 ** -535 * (1.0 + np.sqrt(e2_max) + np.sqrt(max(wq2.max(), nd.max())))) ** 2
    per_w = _ROUNDING * (k + 1)
    per_e = per_w * big_l
    tol_q = per_w * wq2 + per_e * eq2 + floor
    tol_d = per_w * nd + per_e * ed2 + floor
    wq, wd = np.column_stack([-2.0 * wq, np.ones(zq.shape[0])]), np.vstack([wd.T, nd - tol_d])
    buf = np.empty((min(step, zq.shape[0]), n_donors))  # reused by every block
    mask = np.empty(buf.shape, dtype=bool)

    for lo in range(0, zq.shape[0], step):
        hi = min(lo + step, zq.shape[0])
        lower, r = np.dot(wq[lo:hi], wd, out=buf[:hi - lo]), np.arange(hi - lo)
        first, low = [], []
        for _ in range(n_matches):      # m argmins beat an argpartition for small m
            first.append(lower.argmin(axis=1))
            low.append(lower[r, first[-1]])
            lower[r, first[-1]] = np.inf                # hidden from the next argmin
        cut = (np.array(low) + 2.0 * tol_d[first]).max(axis=0) + 2.0 * tol_q[lo:hi]
        keep = np.less_equal(lower, cut[:, None], out=mask[:hi - lo])
        keep[r, first] = True                           # the hidden m
        yield lo, hi, *divmod(np.flatnonzero(keep), n_donors)


def _window_candidates(xq, xs, c, n_matches):
    """Yield (lo, hi, row, col) blocks like _filter_candidates for one score
    column: xq are the query scores, xs the donor scores, sorted and
    collapsed (see find_matches), and c the 1 x 1 inverse covariance's entry."""
    # The canonical d2 of a pair is fl(fl(|diff| c) |diff|), diff = fl(x_a - x_b).
    # T, a query's m-th smallest d2 among the m donors either side of its
    # sorted position, is at least its m-th smallest over all donors. With
    # u = 2^-53 and e = 2^-1075, fl(y) >= y (1 - u) - e for y >= 0, and a
    # difference whose result is subnormal is exact, so d2 <= T forces
    # |x_a - x_b| <= (e / c + sqrt(T + e) / sqrt(c)) / (1 - u)^2. r exceeds
    # that bound (sqrt((T + e) / c) would underflow to 0 at T = 0 once c >~ 1),
    # and nextafter widens the interval by one more step each side. c = 0
    # gives r = inf: every donor ties.
    m, size = n_matches, xs.size            # size >= m
    split = np.searchsorted(xs, xq, side="left")
    cut = np.empty(xq.size)
    step = max(1, max(_BLOCK_ENTRIES, size) // (2 * m))
    for lo in range(0, xq.size, step):
        pos = split[lo:lo + step, None] + np.arange(-m, m)
        diff = xq[lo:lo + step, None] - np.take(xs, pos, mode="clip")
        window = np.where((pos >= 0) & (pos < size), diff * c * diff, np.inf)
        cut[lo:lo + step] = np.partition(window, m - 1, axis=1)[:, m - 1]
    tiny = 2.0 ** -1074
    with np.errstate(divide="ignore", over="ignore"):
        r = (tiny / c + np.sqrt(cut + tiny) / np.sqrt(c)) * (1.0 + 2.0 ** -48)
        start = np.searchsorted(xs, np.nextafter(xq - r, -np.inf), side="left")
        stop = np.searchsorted(xs, np.nextafter(xq + r, np.inf), side="right")

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
        yield lo, hi, row, np.arange(base, ends[hi - 1]) + shift[lo:hi][row]
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
