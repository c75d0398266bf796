"""sdrmatch benchmark: end-to-end metrics, output checks and per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workload and metric names come from
BENCHMARK.json; ``--workload all`` runs every workload untraced and traced.

--trace 0 measures the closed loop untraced for about S seconds of whole
cycles and reports the end-to-end metrics. --trace 1 runs a fixed list of
operations traced, with its two halves also run untraced before and after,
and reports the per-layer metrics and the tracing overhead. Either way the
output checks run afterwards, outside the timed phase, and every operation
that fails or mismatches counts in `failed`. The last line of standard
output is the JSON result; a fuller record goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import reference
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 4          # fresh imports before the timed loop, and again after it
DEADLINE_S = 170.0
ACE_TRUTH = 10.0 ** -0.5            # case1-III: analytic ACE


class BenchmarkError(Exception):
    """The benchmark itself cannot run here (no program, worker crashed)."""


# =============================================================================
# processes
# =============================================================================

def workload_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Starts the workload's processes, each bounded by the run's deadline."""

    def __init__(self, workdir: str, env: dict):
        self.workdir = workdir
        self.env = env
        self.deadline = time.monotonic() + DEADLINE_S
        self.jobs = 0

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchmarkError("run exceeded its time limit")
        return left

    def setup_times(self, warm_up: bool) -> list:
        """Wall time of fresh interpreters importing sdrmatch and sdrmatch.cli.

        A warm-up import, which byte-compiles the package, is not counted."""
        cmd = [sys.executable, "-c", "import sdrmatch, sdrmatch.cli"]
        times = []
        for i in range(SETUP_RUNS + warm_up):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=self._timeout())
            if proc.returncode != 0:
                raise BenchmarkError(f"cannot import sdrmatch: {proc.stderr.strip()}")
            if i or not warm_up:
                times.append(time.perf_counter() - t0)
        return times

    def worker(self, job: dict) -> dict:
        self.jobs += 1
        job_path = os.path.join(self.workdir, f"job{self.jobs}.json")
        result_path = os.path.join(self.workdir, f"result{self.jobs}.json")
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump({**job, "workdir": self.workdir}, handle)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               job_path, result_path],
                              env=self.env, capture_output=True, text=True,
                              timeout=self._timeout())
        if proc.returncode != 0:
            raise BenchmarkError(f"worker failed: {proc.stderr.strip()[-2000:]}")
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle)


# =============================================================================
# validating one operation
# =============================================================================

def validate(rec: dict) -> tuple:
    """(failed units, problems) for one operation's exit code and output."""
    problems = []
    if rec["code"] != 0:
        problems.append(f"exit code {rec['code']}")
    if any(line.startswith("error:") for line in rec["stderr"].splitlines()):
        problems.append("printed an error: line")
    failed_reps = 0
    if not problems:
        if rec["label"] == "simulate":
            failed_reps, more = _validate_report(rec)
            problems += more
        elif rec["label"] == "diagnose":
            problems += _validate_diagnose(rec["stdout"])
        else:
            problems += _validate_estimate(rec["stdout"])
    failed = rec["units"] if problems else min(rec["units"], failed_reps)
    return failed, problems


def _validate_report(rec: dict) -> tuple:
    lines = rec["stdout"].splitlines()
    if len(lines) < 2 or lines[1] != "method,bias,sd,rmse,truth,reps,failures":
        return 0, ["report has no method table"]
    rows = [line.split(",") for line in lines[2:]]
    problems = []
    if sorted(r[0] for r in rows) != sorted(workloads.MC_METHODS.split(",")):
        problems.append(f"report methods {[r[0] for r in rows]}")
    failures = 0
    for row in rows:
        values = [float(v) for v in row[1:5]]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{row[0]}: non-finite value")
        if int(row[5]) != rec["units"]:
            problems.append(f"{row[0]}: reps {row[5]}")
        failures += int(row[6])
        if values[3] != ACE_TRUTH:
            problems.append(f"truth {values[3]!r}, expected {ACE_TRUTH!r}")
    return failures, problems


def _validate_estimate(stdout: str) -> list:
    fields = dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)
    try:
        value = float(fields["value"])
        n, treated, control = (int(fields[k]) for k in ("n", "treated", "control"))
    except (KeyError, ValueError):
        return ["estimate output lacks value/n/treated/control"]
    problems = []
    if not math.isfinite(value):
        problems.append(f"value {value!r}")
    if treated + control != n:
        problems.append(f"treated {treated} + control {control} != n {n}")
    return problems


def _validate_diagnose(stdout: str) -> list:
    lines = stdout.splitlines()
    if len(lines) < 3 or lines[1] != "variable,group,kind,index,lower,upper,value":
        return ["diagnose output has no table"]
    try:
        values = [float(line.rsplit(",", 1)[1]) for line in lines[2:]]
    except (IndexError, ValueError):
        return ["diagnose table has an unparsable value"]
    if not all(math.isfinite(v) for v in values):
        return ["diagnose table has a non-finite value"]
    if not any(line.startswith("propensity,") for line in lines[2:]):
        return ["diagnose table lacks the propensity rows"]
    return []


# =============================================================================
# output checks (outside the timed phase)
# =============================================================================

def run_checks(runner: Runner, name: str, inputs: dict, timed: list, traced) -> list:
    """Check records: each a dict with `what`, `units`, `problems`."""
    checks = []
    if name == "mc-ace-1t":
        # reports must not depend on tracing or on the thread count
        if traced is not None:
            for rec, again in zip(timed, traced):
                checks.append(_same_bytes("traced replay", rec, again))
        first = {k: timed[0][k] for k in ("label", "argv", "units")}
        replay = [first, {**first, "argv": workloads.with_flag(first["argv"], "--threads", "2")}]
        again = runner.worker(_job(name, inputs, ops=replay, trace=True))["ops"]
        checks.append(_same_bytes("traced replay", timed[0], again[0]))
        checks.append(_same_bytes("traced --threads 2 replay", timed[0], again[1]))
        return checks

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import sdrmatch   # the program's public API, for the reference matcher

    wanted = {}
    for rec in timed:
        method = rec["argv"][rec["argv"].index("--method") + 1] if "--method" in rec["argv"] else None
        if method in ("ambient", "sdr"):
            wanted.setdefault(tuple(rec["argv"]), rec)
    replay = []
    for i, rec in enumerate(wanted.values()):
        out = os.path.join(runner.workdir, f"imputations{i}.csv")
        replay.append({**{k: rec[k] for k in ("label", "units")},
                       "argv": workloads.with_flag(rec["argv"], "--output", out)})
    again = runner.worker(_job(name, inputs, ops=replay, trace=False))["ops"]
    columns = (workloads.N5000_COLUMNS if name == "estimate-n5000"
               else workloads.LALONDE_COLUMNS)
    for rec, spec, result in zip(wanted.values(), replay, again):
        argv = spec["argv"]
        flag = lambda f, default: argv[argv.index(f) + 1] if f in argv else default  # noqa: E731
        check = _same_bytes("--output replay", rec, result)
        check["problems"] += validate(result)[1]
        if not check["problems"]:
            check["problems"] += reference.check_estimate(
                sdrmatch, inputs["csv"], columns, flag("--method", "sdr"),
                flag("--estimand", "ace"), int(flag("--m", "1")),
                flag("--output", None), result["stdout"])
        check["what"] = f"reference matcher: {rec['label']}"
        checks.append(check)
    return checks


def _same_bytes(what: str, rec: dict, again: dict) -> dict:
    problems = [] if rec["stdout"] == again["stdout"] else ["output bytes differ"]
    if again["code"] != 0:
        problems.append(f"exit code {again['code']}")
    return {"what": f"{what}: {rec['label']}", "units": rec["units"], "problems": problems}


# =============================================================================
# metrics
# =============================================================================

def tail(times: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten operations
    beyond it, or the maximum when fewer than 21 operations leave no such
    percentile above the median."""
    ordered = sorted(times)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def end_to_end(ops: list, cycle: int, setup: list, peak_rss_mb: float) -> tuple:
    """Throughput is the total over the run. The median is taken over cycles
    (mean operation time within each), as a cycle mixes operations of
    different cost and a median over single operations would pick whichever
    kind sits at the middle rank. The tail is taken over single operations."""
    units = sum(r["units"] for r in ops)
    busy = sum(r["seconds"] for r in ops)
    cycles = [ops[i:i + cycle] for i in range(0, len(ops), cycle)]
    per_cycle = [sum(r["seconds"] for r in c) / sum(r["units"] for r in c) for c in cycles]
    per_op = [r["seconds"] / r["units"] for r in ops]
    tail_value, tail_pct = tail(per_op)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": units / busy,
        "op_p50_s": statistics.median(per_cycle),
        "op_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports",
        "ops_per_s": f"{units} operations in {busy:.3f} s",
        "op_p50_s": f"median over {len(cycles)} cycles of {cycle} calls",
        "op_tail_s": (f"p{tail_pct:.1f} of {len(ops)} timed calls" if tail_pct < 100
                      else f"max of {len(ops)} timed calls (fewer than 21)"),
        "peak_rss_mb": "getrusage ru_maxrss",
    }
    return values, notes


def per_layer(trace: dict, untraced_s: float, traced_s: float, n_ops: int) -> dict:
    spans, counters = trace["spans"], trace["counters"]
    self_s = lambda name: spans.get(name, [0, 0.0, 0.0, 0.0])[2]  # noqa: E731
    calls = lambda name: spans.get(name, [0, 0.0, 0.0, 0.0])[0]  # noqa: E731
    mc = spans.get("simulation.run_monte_carlo", [0, 0.0, 0.0, 0.0])
    values = {
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.wall_s": traced_s,
        "trace.ops": n_ops,
        "matching.find_matches.wall_share": self_s("matching.find_matches") / traced_s,
        "matching.find_matches.calls": calls("matching.find_matches"),
        "matching.find_matches.pairs": counters.get("matching.find_matches.pairs", 0),
        "matching.find_matches.max_pair_tensor_mb":
            counters.get("matching.find_matches.max_pair_tensor_mb", 0.0),
        "matching.estimator.self_s": sum(self_s(f"matching.{f}") for f in (
            "estimate_ace", "estimate_acet", "sdr_matching_pipeline")),
        "sdr.estimate_central_subspace.calls": calls("sdr.estimate_central_subspace"),
        "sdr.rank_fallback_frac": (counters.get("sdr.rank_fallbacks", 0)
                                   / counters["sdr.fits"] if counters.get("sdr.fits") else 0.0),
        "propensity.fit_logistic.calls": calls("propensity.fit_logistic"),
        "propensity.fit_logistic.iterations":
            counters.get("propensity.fit_logistic.iterations", 0),
        "propensity.fit_logistic.nonconverged":
            counters.get("propensity.fit_logistic.nonconverged", 0),
        "simulation.generate.calls": calls("simulation.generate"),
        "simulation.run_monte_carlo.cpu_per_wall": mc[3] / mc[1] if mc[1] else 0.0,
        "dataset.load_csv.rows": counters.get("dataset.load_csv.rows", 0),
        "cli.main.calls": calls("cli.main"),
    }
    for module, functions in tracer.TARGETS.items():
        for function in functions:
            values[f"{module}.{function}.self_s"] = self_s(f"{module}.{function}")
    return values


# =============================================================================
# one run
# =============================================================================

def _job(name: str, inputs: dict, seed: int = 0, seconds: float = 0.0,
         ops=None, trace: bool = False) -> dict:
    return {"workload": name, "fresh": workloads.WORKLOADS[name].fresh, "seed": seed,
            "seconds": seconds, "inputs": inputs, "ops": ops, "trace": trace}


def run_one(spec: dict, name: str, seed: int, seconds: int, trace: bool,
            tiny: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "sdrmatch", "cli.py")):
        raise BenchmarkError(f"no sdrmatch sources under {SRC}; run from a checkout root")
    workdir = os.path.join(".perfbench", f"run-{os.getpid()}-{name}-{int(trace)}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workdir, workload_env())
        inputs = workloads.make_inputs(name, seed, workdir, tiny)
        wl = workloads.WORKLOADS[name]
        details = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                   "environment": environment(runner.env), "inputs": inputs["digests"]}
        if not trace:
            setup = runner.setup_times(warm_up=True)
            timed = runner.worker(_job(name, inputs, seed, seconds))
            ops = timed["ops"]
            checks = run_checks(runner, name, inputs, ops, None)
            # imports on both sides of the run sample more of the machine's
            # speed over time than imports in one burst
            setup += runner.setup_times(warm_up=False)
            values, notes = end_to_end(ops, wl.cycle, setup, timed["peak_rss_mb"])
            wanted = spec["end_to_end"]
        else:
            cycles = 1 if tiny else max(1, round(seconds * wl.trace_cycles_per_s))
            plan = [workloads.op(name, i, seed, inputs) for i in range(cycles * wl.cycle)]
            # untraced halves before and after the traced pass, so that a slow
            # drift in machine speed cancels out of the overhead
            half = len(plan) // 2
            untraced = runner.worker(_job(name, inputs, seed, ops=plan[:half]))["ops"]
            traced = runner.worker(_job(name, inputs, seed, ops=plan, trace=True))
            untraced += runner.worker(_job(name, inputs, seed, ops=plan[half:]))["ops"]
            ops = untraced + traced["ops"]
            checks = run_checks(runner, name, inputs, untraced, traced["ops"])
            busy = lambda records: sum(r["seconds"] for r in records)  # noqa: E731
            values = per_layer(traced["trace"], busy(untraced), busy(traced["ops"]), len(plan))
            notes = {}
            details["missing"] = traced["trace"]["missing"]
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    problems = []
    for rec in ops:
        f, p = validate(rec)
        attempted += rec["units"]
        failed += f
        problems += [f"{rec['label']}: {x}" for x in p]
    for check in checks:
        attempted += check["units"]
        if check["problems"]:
            failed += check["units"]
            problems += [f"{check['what']}: {x}" for x in check["problems"]]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"benchmark computes no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    details.update(checks=[{"what": c["what"], "ok": not c["problems"]} for c in checks],
                   problems=problems, notes=notes,
                   op_seconds=[[r["label"], r["seconds"]] for r in ops])
    return {"correct": failed == 0 and bool(checks), "attempted": attempted,
            "failed": failed, "metrics": metrics, "details": details}


def environment(env: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": git_sha(),
        **{var: env[var] for var in BLAS_VARS},
    }


def git_sha():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# =============================================================================
# entry point
# =============================================================================

def report(result: dict) -> None:
    d = result["details"]
    print(f"workload {d['workload']} seed {d['seed']} seconds {d['seconds']} trace {d['trace']}")
    print("environment " + json.dumps(d["environment"], sort_keys=True))
    print("inputs " + json.dumps(d["inputs"], sort_keys=True))
    for name, metric in result["metrics"].items():
        note = d["notes"].get(name, "")
        print(f"  {name} {metric['value']!r} {metric['unit']}" + (f"  ({note})" if note else ""))
    frac = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"  failed_frac {frac!r} ratio  ({result['failed']} of {result['attempted']})")
    counts = {}
    for check in d["checks"]:
        key = ("ok  " if check["ok"] else "FAIL", check["what"])
        counts[key] = counts.get(key, 0) + 1
    for (status, what), count in counts.items():
        print(f"  check {status} {what}" + (f" (x{count})" if count > 1 else ""))
    for problem in d["problems"]:
        print(f"  problem {problem}")
    if d.get("missing"):
        print("  missing " + ", ".join(d["missing"]))


def main(argv=None) -> int:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, one cycle: a smoke check of the benchmark")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed at least 0")

    runs = ([(n, t) for n in names for t in (False, True)] if args.workload == "all"
            else [(args.workload, bool(args.trace))])
    results = []
    for name, trace in runs:
        try:
            result = run_one(spec, name, args.seed, args.seconds, trace, args.tiny)
        except (BenchmarkError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(result)
        os.makedirs(os.path.join(".perfbench", "results"), exist_ok=True)
        with open(os.path.join(".perfbench", "results",
                               f"{name}-seed{args.seed}-trace{int(trace)}.json"),
                  "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
        results.append((name, result))

    if len(results) == 1:
        final = {k: results[0][1][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}:{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
