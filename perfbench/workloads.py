"""Workload definitions and benchmark-owned inputs.

Every workload is a closed loop with one caller: operation i+1 starts when
operation i has returned. An operation is one CLI invocation, either a call
of ``sdrmatch.cli.main(argv)`` inside the worker process or a fresh
interpreter running ``python3 -m sdrmatch``. Operations are grouped into
cycles; a run always completes whole cycles.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

LALONDE = "data/lalonde_cps3_synthetic.csv"
LALONDE_COLUMNS = ("--treatment", "treat", "--outcome", "re78", "--covariates",
                   "age,educ,black,hisp,married,nodegr,re74,re75,u74,u75")
MC_METHODS = "ambient,ps-logistic,ps-true,sdr"
N5000_P = 10
N5000_COLUMNS = ("--treatment", "t", "--outcome", "y", "--covariates",
                 ",".join(f"x{j + 1}" for j in range(N5000_P)))


@dataclass(frozen=True)
class Workload:
    fresh: bool            # operations run as fresh interpreters
    cycle: int             # operations per cycle
    # size of each traced-mode pass in cycles per --seconds, set so that a
    # pass took about half of --seconds on a 2-vCPU x86 VM when this was
    # written; fixed so that the traced pass repeats its counts exactly
    trace_cycles_per_s: float


# Replicates per simulate call: as few as the CLI allows, so that a run holds
# enough calls for a tail percentile.
MC_REPS = 2

WORKLOADS = {
    "mc-ace-1t": Workload(fresh=False, cycle=1, trace_cycles_per_s=5.0),
    "estimate-n5000": Workload(fresh=False, cycle=3, trace_cycles_per_s=0.06),
    "cli-lalonde": Workload(fresh=True, cycle=5, trace_cycles_per_s=0.17),
}


def make_inputs(name: str, seed: int, workdir: str, tiny: bool) -> dict:
    """Write the workload's generated inputs; return their paths and digests."""
    if name == "estimate-n5000":
        path = os.path.join(workdir, f"n5000-seed{seed}.csv")
        _write_case1_iii_csv(path, 400 if tiny else 5000, N5000_P, seed)
        return {"csv": path, "digests": {path: _sha256(path)}}
    if name == "cli-lalonde":
        return {"csv": LALONDE, "digests": {LALONDE: _sha256(LALONDE)}}
    return {"digests": {}}


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _write_case1_iii_csv(path: str, n: int, p: int, seed: int) -> None:
    """Case1-III-like design drawn with this file's own numpy code.

    Treatment is Bernoulli(0.5); each arm's covariates are Gaussian with
    AR(1) correlation 0.2, the treated arm shifted by p^-1/2 in every column;
    the outcome is x1 + x2 + x3 + t (x4 + x5) + N(0, 0.5^2).
    """
    rng = np.random.default_rng([seed, 5000])
    lag = np.arange(p)
    root = np.linalg.cholesky(0.2 ** np.abs(lag[:, None] - lag[None, :]))
    t = (rng.random(n) < 0.5).astype(np.int64)
    x = rng.standard_normal((n, p)) @ root.T + np.where(t[:, None] == 1, p ** -0.5, 0.0)
    y = x[:, :3].sum(axis=1) + t * (x[:, 3] + x[:, 4]) + 0.5 * rng.standard_normal(n)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("t,y," + ",".join(f"x{j + 1}" for j in range(p)) + "\n")
        for i in range(n):
            handle.write(f"{t[i]},{float(y[i])!r},"
                         + ",".join(repr(float(v)) for v in x[i]) + "\n")


def op(name: str, index: int, seed: int, inputs: dict) -> dict:
    """Operation `index` of the workload: its CLI arguments and its size.

    `units` is the number of operations it counts for: replicates for the
    Monte Carlo workloads, one otherwise.
    """
    if name == "mc-ace-1t":
        argv = ["simulate", "--scenario", "case1-III", "--n", "500", "--p", "10",
                "--reps", str(MC_REPS), "--seed", str(seed * 100_000 + index),
                "--methods", MC_METHODS, "--estimand", "ace", "--threads", "1"]
        return {"label": "simulate", "argv": argv, "units": MC_REPS}
    if name == "estimate-n5000":
        method = ("ambient", "sdr", "ps-logistic")[index % 3]
        argv = ["estimate", "--input", inputs["csv"], *N5000_COLUMNS,
                "--estimand", "ace", "--method", method]
        return {"label": f"estimate-{method}-ace", "argv": argv, "units": 1}
    # cli-lalonde: the input is the shipped file, so the seed only rotates
    # where in the cycle the run starts
    kinds = (("sdr", "acet", "1"), ("sdr", "ace", "3"), ("ambient", "ace", "1"),
             ("ps-logistic", "ace", "1"), None)
    kind = kinds[(index + seed) % 5]
    if kind is None:
        argv = ["diagnose", "--input", inputs["csv"], *LALONDE_COLUMNS, "--bins", "20"]
        return {"label": "diagnose", "argv": argv, "units": 1}
    method, estimand, m = kind
    argv = ["estimate", "--input", inputs["csv"], *LALONDE_COLUMNS,
            "--estimand", estimand, "--method", method, "--m", m]
    return {"label": f"estimate-{method}-{estimand}-m{m}", "argv": argv, "units": 1}


def with_flag(argv: list, flag: str, value: str) -> list:
    """argv with `flag` set to `value` (replaced if present, else appended)."""
    out = list(argv)
    if flag in out:
        out[out.index(flag) + 1] = value
    else:
        out += [flag, value]
    return out
