"""Command-line surface: estimate, simulate, diagnose.

All flags are long-form. Error paths exit nonzero with a single-line message
prefixed ``error:``; schema/parse/config problems exit 2, estimation failures
exit 3. Output files are byte-identical for identical flags and inputs; the
thread count never changes output bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys

import numpy as np

from . import __version__, matching
from .dataset import load_csv
from .errors import (
    ConfigError,
    InvalidArgument,
    ParseError,
    SchemaError,
    SdrMatchError,
)

USAGE_EXIT = 2
ESTIMATION_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _five_number(values: np.ndarray) -> np.ndarray:
    """np.quantile(values, [0, .25, .5, .75, 1]), op for op as numpy 2.4's 'linear' method."""
    arr = np.asarray(values).flatten()
    virtual = (arr.size - 1) * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    lo = [int(v) if v < arr.size - 1 else -1 for v in virtual]
    hi = [k + 1 if k >= 0 else k for k in lo]
    arr.partition(sorted({*lo, *hi}))   # numpy passes np.unique(kth), which imports numpy.ma
    gamma, diff = virtual - lo, arr[hi] - arr[lo]
    result = np.add(arr[lo], diff * gamma)
    np.subtract(arr[hi], diff * (1 - gamma), out=result, where=gamma >= 0.5)
    return np.full(5, arr[-1]) if np.isnan(arr[-1]) else result   # NaN sorts last


def _add_data_flags(parser):
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--treatment", required=True, help="0/1 treatment column")
    parser.add_argument("--outcome", required=True, help="observed outcome column")
    parser.add_argument("--covariates", required=True,
                        help="comma-separated covariate column names")


def _add_tuning_flags(parser):
    parser.add_argument("--slices", type=int, default=5, help="outcome slices for SIR")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="rank-test significance level, in (0, 1)")


@functools.cache  # main parses with one parser per process, built on first use
def build_parser() -> _Parser:
    parser = _Parser(prog="sdrmatch")
    parser.add_argument("--version", action="version", version=f"sdrmatch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate a causal effect from CSV data")
    _add_data_flags(est)
    est.add_argument("--estimand", choices=matching.ESTIMANDS, default="ace")
    est.add_argument("--method", default="sdr",
                     choices=[m for m, (_, truth) in matching.METHODS.items() if not truth])
    est.add_argument("--m", type=int, default=1, help="matches per subject")
    _add_tuning_flags(est)
    est.add_argument("--output", help="write per-subject imputations CSV here")

    sim = sub.add_parser("simulate", help="run a Monte Carlo comparison")
    sim.add_argument("--scenario", required=True,
                     help="scenario id, e.g. case1-II, case2-II*, case3-A")
    sim.add_argument("--n", type=int, default=500, help="sample size per replicate")
    sim.add_argument("--p", type=int, default=10, help="covariate dimension")
    sim.add_argument("--reps", type=int, required=True, help="replicates (>= 2)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--estimand", choices=matching.ESTIMANDS, default="ace")
    sim.add_argument("--methods", default="ambient,ps-logistic,ps-true,sdr",
                     help="comma-separated method ids")
    sim.add_argument("--threads", type=int, default=1,
                     help="worker threads (default 1); never affects output bytes")
    sim.add_argument("--coef-config", help="coefficient config (required for case3)")
    sim.add_argument("--output", help="report path (default: stdout)")
    sim.add_argument("--format", choices=("csv", "text"), default="csv")
    sim.add_argument("--m", type=int, default=1, help="matches per subject")
    _add_tuning_flags(sim)

    diag = sub.add_parser("diagnose", help="overlap diagnostics for reduced covariates")
    _add_data_flags(diag)
    diag.add_argument("--bins", type=int, default=20, help="histogram bins")
    _add_tuning_flags(diag)
    diag.add_argument("--output", help="diagnostics CSV path (default: stdout)")

    return parser


# =============================================================================
# estimate
# =============================================================================

def _load_sample(args):
    covariates = [c.strip() for c in args.covariates.split(",") if c.strip()]
    if not covariates:
        raise SchemaError("no covariate columns given")
    return load_csv(args.input, args.treatment, args.outcome, covariates)


def _balancing_score(method: str, sample, args, estimand: str):
    score = matching.balancing_score(method, sample, estimand=estimand,
                                     n_slices=args.slices, alpha=args.alpha)
    if score.diagnostics.get("logistic_converged") is False:
        print("warning: logistic propensity fit did not converge", file=sys.stderr)
    return score


def cmd_estimate(args) -> int:
    if args.m < 1:
        raise InvalidArgument(f"n_matches must be >= 1, got {args.m}")
    sample = _load_sample(args)
    score = _balancing_score(args.method, sample, args, args.estimand)
    result = matching.estimate(sample, score, args.estimand, args.m)
    rank_control, rank_treated = (
        "-" if score.diagnostics.get(key) is None else score.diagnostics[key]
        for key in ("rank_control", "rank_treated")
    )
    n_treated = result.matches[0].query_indices.size

    lines = [
        f"estimand {args.estimand}",
        f"method {args.method}",
        f"value {result.value!r}",
        f"rank_control {rank_control}",
        f"rank_treated {rank_treated}",
        f"n {sample.n_subjects}",
        f"treated {n_treated}",
        f"control {sample.n_subjects - n_treated}",
    ]
    for mset in sorted(result.matches, key=lambda mset: mset.direction):
        pretty = " ".join(repr(float(q)) for q in _five_number(mset.distances))
        lines.append(f"match_distance_quantiles {mset.direction} {pretty}")
    _write(lines, None)

    if args.output is not None:
        rows = zip(sample.treatment, sample.outcome, result.imputed, np.isfinite(result.imputed))
        _write(itertools.chain([_header_line(args), "subject,treatment,outcome,imputed"], (
            f"{i},{int(t)},{float(y)!r},{repr(float(imp)) if finite else ''}"
            for i, (t, y, imp, finite) in enumerate(rows))), args.output)
    return 0


# =============================================================================
# simulate
# =============================================================================

def _header_line(args) -> str:
    pairs = (f"{key.replace('_', '-')}={value}" for key, value in sorted(vars(args).items())
             if key not in ("command", "threads", "output") and value is not None)
    return f"# sdrmatch {__version__} {args.command} " + " ".join(pairs)


def _check_output(path) -> None:
    """Raise now, before any work, the OSError that writing to path would raise;
    leave an existing file as it is and no new one behind."""
    if path is not None and os.path.exists(path):
        open(path, "a", encoding="utf-8").close()
    elif path is not None:
        open(path, "x", encoding="utf-8").close()
        os.remove(path)


def _write(lines, path) -> None:
    """Write each line and a newline to the file at path, or to stdout when no path is given."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8") if path is not None else contextlib.nullcontext(
            sys.stdout) as handle:
        while batch := list(itertools.islice(lines, 4096)):   # one write per 4,096 lines: as
            handle.write("\n".join(batch) + "\n")          # fast as one string, bounded memory


def _format_report_csv(report, header: str) -> list[str]:
    lines = [header, "method,bias,sd,rmse,truth,reps,failures"]
    for method, res in report.methods.items():
        lines.append(
            f"{method},{res.bias!r},{res.sd!r},{res.rmse!r},"
            f"{report.truth!r},{report.reps},{res.failures}"
        )
    return lines


def _format_report_text(report, header: str) -> list[str]:
    lines = [
        header,
        f"scenario {report.scenario} estimand {report.estimand} "
        f"truth {report.truth!r} ({report.truth_source}) reps {report.reps}",
        f"{'method':<32}{'bias':>12}{'sd':>12}{'rmse':>12}{'failures':>10}",
    ]
    for method, res in report.methods.items():
        label = matching.METHODS[method][0]
        lines.append(   # one space, then right-aligned in the rest of the header's field
            f"{label:<32} {res.bias:>11.4f} {res.sd:>11.4f} {res.rmse:>11.4f}"
            f" {res.failures:>9d}"
        )
    return lines


def cmd_simulate(args) -> int:
    if args.reps < 2:
        raise InvalidArgument(f"--reps must be at least 2, got {args.reps}")
    if args.threads < 1:
        raise InvalidArgument(f"--threads must be >= 1, got {args.threads}")
    from . import simulation    # on first use: estimate and diagnose never load it
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    coefficients = None
    if args.scenario.startswith("case3"):
        if not args.coef_config:
            raise ConfigError("case3 scenarios require --coef-config")
        coefficients = simulation.load_case3_config(args.coef_config)
    spec = simulation.scenario(
        args.scenario, n=args.n, p=args.p, methods=methods, coefficients=coefficients
    )
    report = simulation.run_monte_carlo(
        spec, args.reps, seed=args.seed, n_matches=args.m, n_slices=args.slices,
        alpha=args.alpha, threads=args.threads, estimand=args.estimand,
    )
    fmt = _format_report_csv if args.format == "csv" else _format_report_text
    _write(fmt(report, _header_line(args)), args.output)
    return 0


# =============================================================================
# diagnose
# =============================================================================

def _histogram_rows(name: str, values: np.ndarray, treatment: np.ndarray,
                    bins: int) -> list[str]:
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    rows = []
    for group, label in ((1, "treated"), (0, "control")):
        subset = values[treatment == group]
        counts, _ = np.histogram(subset, bins=edges)
        for k, q in enumerate(_five_number(subset)):
            rows.append(f"{name},{label},quantile,{k},,,{float(q)!r}")
        for k in range(bins):
            rows.append(
                f"{name},{label},bin,{k},{float(edges[k])!r},"
                f"{float(edges[k + 1])!r},{int(counts[k])}"
            )
    return rows


def cmd_diagnose(args) -> int:
    if args.bins < 1:
        raise InvalidArgument(f"--bins must be >= 1, got {args.bins}")
    sample = _load_sample(args)
    # the control group's reduction, as matching treated subjects uses it
    reduced = _balancing_score("sdr", sample, args, "acet").into_control
    scores = _balancing_score("ps-logistic", sample, args, "acet").into_control[:, 0]

    rows = [_header_line(args), "variable,group,kind,index,lower,upper,value"]
    for j in range(reduced.shape[1]):
        rows.extend(
            _histogram_rows(f"reduced_{j + 1}", reduced[:, j], sample.treatment, args.bins)
        )
    rows.extend(_histogram_rows("propensity", scores, sample.treatment, args.bins))
    _write(rows, args.output)
    return 0


# =============================================================================
# entry point
# =============================================================================

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        _check_output(args.output)
        if args.command == "estimate":
            return cmd_estimate(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_diagnose(args)
    except (SchemaError, ParseError, ConfigError, InvalidArgument, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except SdrMatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ESTIMATION_EXIT
