"""Bounded-memory brute-force matcher used to check the program's imputations.

The canonical order of donors is (squared distance, donor index), with the
squared distance taken under the program's public ``build_metric``. Distances
equal within a relative 1e-12 count as ties.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

TIE_RTOL = 1e-12
BLOCK = 128            # queries per block: BLOCK x donors x k floats at a time
MAX_COMBINATIONS = 20_000
SLICES, ALPHA = 5, 0.05   # the CLI defaults, which the checked runs use


def load_columns(path: str, treatment: str, outcome: str, covariates: list) -> tuple:
    """(x, t, y) read with this module's own parser."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header = [h.strip() for h in rows[0]]
    body = [r for r in rows[1:] if r]
    pick = lambda name: np.array([float(r[header.index(name)]) for r in body])  # noqa: E731
    x = np.column_stack([pick(c) for c in covariates])
    return x, pick(treatment).astype(np.int64), pick(outcome)


def read_imputations(path: str) -> np.ndarray:
    """Per-subject imputed values from an ``estimate --output`` file (NaN if blank)."""
    with open(path, newline="", encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    reader = csv.DictReader(lines)
    return np.array([float(r["imputed"]) if r["imputed"] else math.nan for r in reader])


def _inverse_covariance(metric) -> np.ndarray:
    inv = getattr(metric, "inverse_covariance", None)
    if inv is not None:
        return np.asarray(inv, dtype=float)
    whitening = getattr(metric, "whitening", None)
    if whitening is not None:
        w = np.asarray(whitening, dtype=float)
        return w @ w.T
    raise TypeError(f"cannot read a quadratic form from {type(metric).__name__}")


def check_direction(scores, t, y, metric, m: int, query_label: int,
                    imputed: np.ndarray) -> list:
    """Subjects whose imputation no canonical choice of m donors explains."""
    z = np.asarray(scores, dtype=float).reshape(t.shape[0], -1)
    inv = _inverse_covariance(metric)
    queries = np.flatnonzero(t == query_label)
    donors = np.flatnonzero(t != query_label)
    zd = z[donors]
    bad = []
    for lo in range(0, queries.size, BLOCK):
        block = queries[lo:lo + BLOCK]
        diff = z[block][:, None, :] - zd[None, :, :]
        d2 = np.maximum(((diff @ inv) * diff).sum(axis=2), 0.0)
        for row, subject in enumerate(block):
            if not _explained(d2[row], y[donors], m, imputed[subject]):
                bad.append(int(subject))
    return bad


def _explained(d2: np.ndarray, y_donor: np.ndarray, m: int, value: float) -> bool:
    """Whether `value` is the mean outcome of an acceptable set of m donors.

    Donors strictly closer than the m-th distance must all be in the set. The
    rest come from the group tied with the m-th distance. Within that group,
    donors whose squared distances are bit-equal must be taken in donor-index
    order; donors that differ only within the tolerance may be taken in
    either order, since two exact computations may round them differently.
    """
    vm = np.partition(d2, m - 1)[m - 1]
    tol = TIE_RTOL * vm
    sure = np.flatnonzero(d2 < vm - tol)
    tied = np.flatnonzero(np.abs(d2 - vm) <= tol)     # ascending donor index
    need = m - sure.size
    classes = [tied[d2[tied] == v] for v in np.unique(d2[tied])]
    ranges = [range(min(c.size, need) + 1) for c in classes]
    if math.prod(len(r) for r in ranges) > MAX_COMBINATIONS:
        ranges = None
    base = y_donor[sure]
    for counts in (itertools.product(*ranges) if ranges else [()]):
        if ranges and sum(counts) != need:
            continue
        chosen = (np.concatenate([c[:k] for c, k in zip(classes, counts)]) if ranges
                  else tied[:need])
        picked = np.concatenate([base, y_donor[chosen]])
        # the program may sum its donors in another order
        if abs(picked.mean() - value) <= TIE_RTOL * max(abs(value), np.abs(picked).max()):
            return True
    return False


def check_estimate(sdrmatch, path: str, columns: tuple, method: str, estimand: str,
                   m: int, output_path: str, stdout: str) -> list:
    """Problems found in one ``estimate`` run (empty when it is correct)."""
    treatment, outcome, covariates = columns[1], columns[3], columns[5].split(",")
    x, t, y = load_columns(path, treatment, outcome, covariates)
    imputed = read_imputations(output_path)
    problems = []
    if imputed.shape[0] != t.shape[0]:
        return [f"{imputed.shape[0]} imputations for {t.shape[0]} subjects"]

    sample = sdrmatch.ObservationalSample(covariates=x, treatment=t, outcome=y)
    if method == "ambient":
        into_control = into_treated = x
    else:
        est0 = sdrmatch.estimate_central_subspace(sample, 0, SLICES, ALPHA)
        into_control = sdrmatch.reduce_covariates(est0, x)
        into_treated = None
        if estimand == "ace":
            est1 = sdrmatch.estimate_central_subspace(sample, 1, SLICES, ALPHA)
            into_treated = sdrmatch.reduce_covariates(est1, x)

    directions = [(into_control, 1)]
    if estimand == "ace":
        directions.append((into_treated, 0))
    for scores, query_label in directions:
        metric = sdrmatch.build_metric(scores)
        bad = check_direction(scores, t, y, metric, m, query_label, imputed)
        if bad:
            problems.append(f"{len(bad)} subjects with group {query_label} mismatch the "
                            f"reference matcher (first: subject {bad[0]})")

    sign = 2 * t - 1
    if estimand == "ace":
        expected = float((sign * (y - imputed)).mean())
    else:
        expected = float((y - imputed)[t == 1].mean())
    printed = _printed_value(stdout)
    if printed is None or not math.isfinite(printed):
        problems.append(f"printed value is {printed!r}")
    elif abs(printed - expected) > 1e-9 * max(1.0, abs(expected)):
        problems.append(f"printed value {printed!r} != {expected!r} from the imputations")
    return problems


def _printed_value(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("value "):
            try:
                return float(line.split()[1])
            except ValueError:
                return None
    return None
