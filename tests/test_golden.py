"""Golden outputs: the CLI must reproduce these bytes exactly.

Each case runs ``sdrmatch.cli.main`` in process from the repository root and
compares its stdout (and its ``--output`` file, for ``estimate``) with the
files under ``tests/golden/``. The ``match_distance_quantiles`` lines print
``repr(float)``, so the goldens also pin the match-distance bits.

Regenerate after an intended output change with
``PYTHONPATH=src python tests/test_golden.py [CASE ...]``, which rewrites the
named cases, or every case when none is named, and record the numerical reason
in CHANGES.md. An unknown case name exits 2 and writes nothing.
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


def test_regenerate_writes_only_named_cases(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    assert regenerate(["diagnose-bins20"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["diagnose-bins20.stdout"]
    assert ((tmp_path / "diagnose-bins20.stdout").read_bytes()
            == (REPO / "tests" / "golden" / "diagnose-bins20.stdout").read_bytes())


def test_regenerate_rejects_unknown_case(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    assert regenerate(["diagnose-bins20", "no-such-case"]) == 2
    assert list(tmp_path.iterdir()) == []
    assert "error: unknown case(s): no-such-case" in capsys.readouterr().err


def regenerate(names) -> int:
    """Rewrite the golden files of the named cases (all when none); 2 on an
    unknown name."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        print(f"error: unknown case(s): {', '.join(unknown)}; known: "
              f"{', '.join(sorted(CASES))}", file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for case in sorted(set(names) or CASES):
            for file_name, data in run_case(case, workdir).items():
                (GOLDEN / file_name).write_bytes(data)
                print(f"wrote {file_name} ({len(data)} bytes)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(regenerate(sys.argv[1:]))
