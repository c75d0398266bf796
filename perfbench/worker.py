"""Workload process: runs operations in a closed loop and records each one.

    python3 perfbench/worker.py JOB.json RESULT.json

The job names the workload, its inputs, whether to trace, and either a fixed
list of operations or a number of seconds to loop for (whole cycles). The
result holds every operation's arguments, wall time, exit code and captured
output, the process's peak RSS (of its children for fresh-interpreter
operations), and the span aggregates when traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _run_in_process(cli, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # an operation that raises is recorded as failed
            traceback.print_exc()
            code = -1
    seconds = time.perf_counter() - t0
    return seconds, code, out.getvalue(), err.getvalue()


def _run_fresh(argv: list, trace_path: str | None) -> tuple:
    if trace_path is None:
        cmd = [sys.executable, "-m", "sdrmatch", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path, "--", *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    return seconds, proc.returncode, proc.stdout, proc.stderr


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    name, fresh = job["workload"], job["fresh"]
    tracer = None
    cli = None
    if not fresh:
        import sdrmatch.cli as cli
        if job["trace"]:
            tracer = tracing.Tracer()
            tracer.install()

    fixed = job["ops"]
    cycle = workloads.WORKLOADS[name].cycle
    records, snapshots = [], []
    start = cycle_start = time.perf_counter()
    index = 0
    while True:
        if fixed is not None:
            if index >= len(fixed):
                break
            spec = fixed[index]
        else:
            if index % cycle == 0 and index:
                # stop where the loop ends nearest to the requested duration
                now = time.perf_counter()
                if now - start + (now - cycle_start) / 2 >= job["seconds"]:
                    break
                cycle_start = now
            spec = workloads.op(name, index, job["seed"], job["inputs"])
        if fresh:
            trace_path = (os.path.join(job["workdir"], f"trace-{index}.json")
                          if job["trace"] else None)
            seconds, code, out, err = _run_fresh(spec["argv"], trace_path)
            if trace_path is not None and os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as handle:
                    snapshots.append(json.load(handle))
                os.remove(trace_path)
        else:
            seconds, code, out, err = _run_in_process(cli, spec["argv"])
        records.append({**spec, "seconds": seconds, "code": code,
                        "stdout": out, "stderr": err})
        index += 1

    who = resource.RUSAGE_CHILDREN if fresh else resource.RUSAGE_SELF
    result = {
        "ops": records,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "trace": None,
    }
    if job["trace"]:
        result["trace"] = tracing.merge(snapshots) if fresh else tracer.snapshot()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
