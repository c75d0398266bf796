"""Outside-in span tracer for the sdrmatch layers.

`install()` replaces every module-level binding under ``sdrmatch.*`` that is
the same function object as a named target with a timing wrapper, so copies
made by ``from .propensity import fit_logistic`` are traced too. Each thread
keeps its own span stack: a span's self time is its duration minus the time
of the spans it called on the same thread. A target that no longer exists is
reported as missing, never as an error.

Run as a script, it traces one fresh-interpreter CLI run and writes the
aggregates to a JSON file:

    python3 perfbench/tracer.py OUT.json -- estimate --input data.csv ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

TARGETS = {
    "cli": ("main",),
    "dataset": ("load_csv", "fit_standardization"),
    "sdr": ("estimate_central_subspace", "slice_by_quantiles", "reduce_covariates"),
    "numerics": ("sym_eigen", "inverse_sqrt_spd", "psd_sqrt"),
    "propensity": ("fit_logistic", "true_ps_bayes"),
    "matching": ("build_metric", "find_matches", "impute", "estimate_ace",
                 "estimate_acet", "sdr_matching_pipeline"),
    "simulation": ("generate", "true_effect", "run_monte_carlo"),
}

_MIB = float(1 << 20)


class Tracer:
    """Span aggregates (calls, total, self seconds) plus per-layer counters."""

    def __init__(self):
        self.spans = {}        # name -> [calls, total_s, self_s, process_cpu_s]
        self.counters = {}     # name -> number
        self.missing = []      # targets or counters that could not be traced
        self._lock = threading.Lock()
        self._local = threading.local()

    # ----------------------------------------------------------------- install
    def install(self) -> None:
        for module_name, functions in TARGETS.items():
            try:
                module = importlib.import_module(f"sdrmatch.{module_name}")
            except ImportError:
                self.missing.extend(f"{module_name}.{f}" for f in functions)
                continue
            for fname in functions:
                original = getattr(module, fname, None)
                if not callable(original):
                    self.missing.append(f"{module_name}.{fname}")
                    continue
                wrapper = self._wrap(f"{module_name}.{fname}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "sdrmatch"
                                           or mod_name.startswith("sdrmatch.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = _signature(fn) if count is not None else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            frame = [0.0]
            stack.append(frame)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                with self._lock:
                    agg = self.spans.setdefault(name, [0, 0.0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += wall
                    agg[2] += wall - frame[0]
                    agg[3] += cpu
            if count is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments if signature else {}
                    counts = count(bound, result)
                except (TypeError, AttributeError, ValueError, IndexError):
                    counts = None
                with self._lock:
                    if counts is None:
                        if f"{name} counters" not in self.missing:
                            self.missing.append(f"{name} counters")
                    else:
                        _add_counts(self.counters, counts)
            return result

        return span

    # ------------------------------------------------------------------ output
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters),
                "missing": list(self.missing),
            }


def _count_find_matches(bound, result):
    scores = bound["scores"]
    k = scores.shape[1] if getattr(scores, "ndim", 1) == 2 else 1
    queries = int(result.query_indices.size)
    donors = int(len(bound["treatment"])) - queries
    return {
        "matching.find_matches.pairs": queries * donors,
        "matching.find_matches.max_pair_tensor_mb": queries * donors * k * 8 / _MIB,
    }


# per-layer counters, read from a target's arguments and result
COUNTERS = {
    "matching.find_matches": _count_find_matches,
    "sdr.estimate_central_subspace": lambda bound, result: {
        "sdr.fits": 1, "sdr.rank_fallbacks": int(bool(result.rank_fallback))},
    "propensity.fit_logistic": lambda bound, result: {
        "propensity.fit_logistic.iterations": int(result.iterations),
        "propensity.fit_logistic.nonconverged": int(not result.converged)},
    "dataset.load_csv": lambda bound, result: {
        "dataset.load_csv.rows": int(len(result.treatment))},
}


def _add_counts(counters: dict, counts: dict) -> None:
    """Counters add up, except the largest-tensor size, which is a maximum."""
    for key, value in counts.items():
        if key.endswith(".max_pair_tensor_mb"):
            counters[key] = max(counters.get(key, 0.0), value)
        else:
            counters[key] = counters.get(key, 0) + value


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def merge(snapshots) -> dict:
    """Sum span aggregates and counters of several traced processes."""
    out = {"spans": {}, "counters": {}, "missing": []}
    for snap in snapshots:
        for name, agg in snap["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0, 0.0])
            for i, value in enumerate(agg):
                acc[i] += value
        _add_counts(out["counters"], snap["counters"])
        for item in snap["missing"]:
            if item not in out["missing"]:
                out["missing"].append(item)
    return out


def _traced_cli(out_path: str, argv: list) -> int:
    import sdrmatch.cli   # the import is outside the spans

    tracer = Tracer()
    tracer.install()
    code = sdrmatch.cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.snapshot(), handle)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py OUT.json -- <sdrmatch arguments>", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(_traced_cli(sys.argv[1], sys.argv[3:]))
