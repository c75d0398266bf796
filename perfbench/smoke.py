"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py        (from the root of a checkout)

Runs every workload named in BENCHMARK.json at its smallest size, untraced
and traced, and asserts that the last line of output is the JSON result with
exactly the named end-to-end or per-layer metrics, each with its unit, that
the output checks ran and passed, and that every per-layer metric has an
entry in plan.json. Finally it asserts that the benchmark refuses to run
(nonzero exit, no result) in a directory holding only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(args: list, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_workload(spec: dict, name: str, trace: int) -> list:
    proc = _run(["--workload", name, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--tiny"])
    where = f"{name} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = _last_json(proc.stdout)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"{where}: last line is not the result object"]
    problems = []
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    for metric in wanted:
        got = result["metrics"].get(metric["name"], {})
        if got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {metric['name']} is {got}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct {result['correct']}, "
                        f"failed {result['failed']} of {result['attempted']}")
    path = os.path.join(".perfbench", "results", f"{name}-seed1-trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        checks = json.load(handle)["details"]["checks"]
    if not checks or not all(c["ok"] for c in checks):
        problems.append(f"{where}: output checks {checks}")
    return problems


def check_refuses_without_program(spec: dict) -> list:
    bare = os.path.join(".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        name = spec["workloads"][0]["name"]
        proc = _run(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"],
                    cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or _last_json(proc.stdout) is not None:
        return ["without the program: the benchmark did not refuse to run"]
    return []


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "plan.json"), encoding="utf-8") as handle:
        plan = json.load(handle)
    problems = [f"plan.json has no entry for {m['name']}"
                for m in spec["per_layer"] if m["name"] not in plan["per_layer"]]
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_workload(spec, workload["name"], trace)
    problems += check_refuses_without_program(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
