"""Golden outputs: the CLI must reproduce these bytes exactly.

Each case runs ``sdrmatch.cli.main`` in process from the repository root and
compares its stdout (and its ``--output`` file, for ``estimate``) with the
files under ``tests/golden/``. The ``match_distance_quantiles`` lines print
``repr(float)``, so the goldens also pin the match-distance bits.

Regenerate after an intended output change with
``PYTHONPATH=src python tests/test_golden.py`` and record the numerical reason
in CHANGES.md.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from sdrmatch.cli import main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
LALONDE = ["--input", "data/lalonde_cps3_synthetic.csv", "--treatment", "treat",
           "--outcome", "re78", "--covariates",
           "age,educ,black,hisp,married,nodegr,re74,re75,u74,u75"]
SIMULATE = ["simulate", "--scenario", "case1-III", "--n", "500", "--reps", "20",
            "--seed", "11"]
# small runs that reach the other generators, truth paths and score builders
SMALL = ["--n", "200", "--reps", "5", "--seed", "11"]
ALL_METHODS = ["--methods", "ambient,ps-logistic,ps-true,sdr,sdr-oracle,active-set-oracle"]

CASES = {
    "estimate-sdr-acet-m1": ["estimate", *LALONDE, "--method", "sdr",
                             "--estimand", "acet", "--m", "1"],
    "estimate-sdr-ace-m3": ["estimate", *LALONDE, "--method", "sdr",
                            "--estimand", "ace", "--m", "3"],
    "estimate-ambient-ace-m1": ["estimate", *LALONDE, "--method", "ambient",
                                "--estimand", "ace", "--m", "1"],
    "estimate-ps-logistic-ace-m1": ["estimate", *LALONDE, "--method", "ps-logistic",
                                    "--estimand", "ace", "--m", "1"],
    "estimate-ambient-acet-m1": ["estimate", *LALONDE, "--method", "ambient",
                                 "--estimand", "acet", "--m", "1"],
    "estimate-ps-logistic-acet-m1": ["estimate", *LALONDE, "--method", "ps-logistic",
                                     "--estimand", "acet", "--m", "1"],
    "diagnose-bins20": ["diagnose", *LALONDE, "--bins", "20"],
    "simulate-case1-III-ace": [*SIMULATE, "--estimand", "ace"],
    "simulate-case1-III-acet": [*SIMULATE, "--estimand", "acet"],
    # case1-IV has no analytic truth, so both branches of the case-1 sampler run
    "simulate-case1-IV-ace": ["simulate", "--scenario", "case1-IV", *SMALL,
                              "--estimand", "ace"],
    "simulate-case1-IV-acet": ["simulate", "--scenario", "case1-IV", *SMALL,
                               "--estimand", "acet"],
    # the only output that reaches model IV's oracle basis (sdr-oracle)
    "simulate-case1-IV-all-ace": ["simulate", "--scenario", "case1-IV", *SMALL,
                                  *ALL_METHODS, "--estimand", "ace"],
    "simulate-case2-Istar-acet": ["simulate", "--scenario", "case2-I*", *SMALL,
                                  *ALL_METHODS, "--estimand", "acet"],
    "simulate-case3-A-acet": ["simulate", "--scenario", "case3-A", *SMALL, *ALL_METHODS,
                              "--coef-config", "configs/case3_coefficients.json",
                              "--estimand", "acet"],
}


def run_case(name: str, workdir: str) -> dict:
    """{golden file name: bytes} produced by one case, run from the repo root."""
    argv = list(CASES[name])
    output = None
    if argv[0] == "estimate":
        output = os.path.join(workdir, f"{name}.csv")
        argv += ["--output", output]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{name} exited {code}"
    produced = {f"{name}.stdout": stdout.getvalue().encode("utf-8")}
    if output is not None:
        produced[f"{name}.output.csv"] = Path(output).read_bytes()
    return produced


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    for file_name, produced in run_case(name, str(tmp_path)).items():
        expected = (GOLDEN / file_name).read_bytes()
        assert produced == expected, f"{file_name} differs from its golden copy"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for case in sorted(CASES):
            for file_name, data in run_case(case, workdir).items():
                (GOLDEN / file_name).write_bytes(data)
                print(f"wrote {file_name} ({len(data)} bytes)", file=sys.stderr)
