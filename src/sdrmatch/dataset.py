"""Observational data container, CSV ingestion, and within-group standardization."""

from __future__ import annotations

import csv
import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import numerics
from .errors import InsufficientData, InvalidArgument, InvalidMatrix, ParseError, SchemaError

__all__ = [
    "ObservationalSample",
    "StandardizationMap",
    "load_csv",
    "fit_standardization",
    "apply_standardization",
]


@dataclass(frozen=True)
class ObservationalSample:
    """Covariate matrix X (n x p), binary treatment T, and observed outcome Y(T).

    Immutable after construction; safe to share across threads.
    """

    covariates: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.covariates, dtype=float)
        t = np.asarray(self.treatment)
        y = np.asarray(self.outcome, dtype=float)
        if x.ndim != 2:
            raise InvalidArgument(f"covariates must be 2-D, got ndim={x.ndim}")
        if t.shape != (x.shape[0],) or y.shape != (x.shape[0],):
            raise InvalidArgument("treatment/outcome length must match covariate rows")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise InvalidArgument("covariates and outcomes must be finite")
        if not np.isin(t, (0, 1)).all():
            raise InvalidArgument("treatment entries must be 0 or 1")
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "treatment", t.astype(np.int64))
        object.__setattr__(self, "outcome", y)

    @property
    def n_subjects(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    def group_indices(self, group: int) -> np.ndarray:
        return np.flatnonzero(self.treatment == group)


@dataclass(frozen=True)
class StandardizationMap:
    """Affine map z = S (x - mean) fitted on one treatment group.

    S is the (ridge-stabilized) inverse square root of the group's sample
    covariance; applying the map to the fitting group gives mean ~0 and
    covariance ~identity.
    """

    group_mean: np.ndarray
    inv_sqrt_cov: np.ndarray


def _parse_cell(raw: str, row: int, column: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ParseError(
            f"row {row}, column '{column}': cannot parse {raw!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}, column '{column}': non-finite value {raw!r}")
    return value


def load_csv(path, treatment: str, outcome: str, covariates: Sequence[str]) -> ObservationalSample:
    """Read an observational sample from a headered, comma-separated file.

    The data lines stream from the file, about 64 KiB at a time, into one
    vectorised pass over the referenced columns. When that pass fails, or
    yields a non-finite value or a treatment outside {0, 1}, the file is read
    again and parsed row by row: that loop defines which input is valid, names
    the bad cell, and also accepts what ``float`` reads but numpy does not.

    Args:
        path: CSV file with a header row; UTF-8 with or without a byte-order
            mark, '.' decimal point. It must be seekable.
        treatment: name of the 0/1 treatment column.
        outcome: name of the observed-outcome column.
        covariates: names of the covariate columns, in the desired order.

    Raises:
        SchemaError: a named column is missing from the header.
        ParseError: a referenced cell is non-numeric, missing, or a treatment
            value outside {0, 1}; the message names the row and column. Also
            raised, naming the file, for bytes that are not UTF-8 and for CSV
            the csv module cannot read.
    """
    names = [treatment, outcome, *covariates]
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            header = _read_header(handle)
            if header is None:
                raise SchemaError(f"{path}: file is empty, expected a header row")
            header = [h.strip() for h in header]
            for name in names:
                if name not in header:
                    raise SchemaError(f"missing column '{name}' in {path}")
            columns = [header.index(name) for name in names]
            # about 64 KiB of lines at a time: as fast as one list of every line
            lines = itertools.chain.from_iterable(iter(lambda: handle.readlines(1 << 16), []))
            peeked = [next(lines, "")]      # up to the first non-blank line: with
            while peeked[-1] and not peeked[-1].strip():    # none, loadtxt warns "no data"
                peeked.append(next(lines, ""))
            data = None
            if peeked[-1]:
                try:
                    data = np.loadtxt(itertools.chain(peeked, lines), dtype=float, delimiter=",",
                                      quotechar='"', comments=None, usecols=columns, ndmin=2)
                except UnicodeDecodeError:
                    raise
                except ValueError:
                    for _ in handle:        # decode the rest: a bad byte anywhere outranks
                        pass                # a bad cell, as when the file was read whole
            if data is None or not (np.isfinite(data).all() and np.isin(data[:, 0], (0, 1)).all()):
                _read_header(handle)
                data = _parse_rows(path, handle, names, columns)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None
    return ObservationalSample(
        covariates=np.ascontiguousarray(data[:, 2:]),
        treatment=data[:, 0].astype(np.int64),
        outcome=np.ascontiguousarray(data[:, 1]),
    )


def _read_header(handle) -> list[str] | None:
    """Seek to the start, past a byte-order mark, and read the header record."""
    handle.seek(0)
    if handle.read(1) != "\ufeff":     # skip a byte-order mark, as utf-8-sig
        handle.seek(0)                  # would, without loading that codec
    return next(csv.reader(handle), None)


def _parse_rows(path, lines: Iterable[str], names: list[str], columns: list[int]) -> np.ndarray:
    """Parse the data lines one by one into columns (treatment, outcome, covariates).

    Raises the ParseError that names the first bad row and column."""
    needed = max(columns)
    values = array("d")
    for i, row in enumerate(csv.reader(lines), start=1):
        if not row:
            continue
        if len(row) <= needed:
            raise ParseError(f"row {i}: expected {needed + 1} fields, got {len(row)}")
        t_val = _parse_cell(row[columns[0]], i, names[0])
        if t_val not in (0.0, 1.0):
            raise ParseError(
                f"row {i}, column '{names[0]}': treatment must be 0 or 1, got {t_val:g}"
            )
        values.append(t_val)
        values.extend(_parse_cell(row[j], i, name) for name, j in zip(names[1:], columns[1:]))
    if not values:
        raise ParseError(f"{path}: no data rows")
    return np.frombuffer(values).reshape(-1, len(names))


def fit_standardization(sample: ObservationalSample, group: int) -> StandardizationMap:
    """Fit the standardizing map on one treatment group.

    Uses the group sample mean and the n_t - 1 denominator covariance; the
    inverse square root is ridge-stabilized so near-constant columns (e.g.
    binary covariates that barely vary inside a group) do not blow up.

    Raises:
        InsufficientData: fewer than p + 1 subjects in the group.
        InvalidMatrix: the group's covariance overflows.
    """
    rows = sample.covariates[sample.group_indices(group)]
    p = sample.n_covariates
    if rows.shape[0] < p + 1:
        raise InsufficientData(
            f"group {group} has {rows.shape[0]} subjects; need at least {p + 1}"
        )
    return whitening_fit(rows, f"the covariate covariance in group {group} is not finite; "
                               "rescale the covariates")


def whitening_fit(rows: np.ndarray, message: str) -> StandardizationMap:
    """The rows' mean and the ridged inverse square root of their sample covariance,
    which has np.cov(rows, rowvar=False)'s bits; InvalidMatrix(message) if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        mean = rows.mean(axis=0)
        e = rows - mean
        cov = (e.T @ e) * (1.0 / (rows.shape[0] - 1))
    if not np.isfinite(cov).all():
        raise InvalidMatrix(message)
    return StandardizationMap(group_mean=mean, inv_sqrt_cov=numerics.inverse_sqrt_spd(cov))


def apply_standardization(smap: StandardizationMap, covariates) -> np.ndarray:
    """Apply z = S (x - mean) row-wise; works on subjects from any group."""
    x = np.atleast_2d(np.asarray(covariates, dtype=float))
    if x.shape[1] != smap.group_mean.shape[0]:
        raise InvalidArgument(
            f"expected {smap.group_mean.shape[0]} columns, got {x.shape[1]}"
        )
    return (x - smap.group_mean) @ smap.inv_sqrt_cov
