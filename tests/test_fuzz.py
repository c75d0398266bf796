"""Whole-pipeline fuzz gate: every drawn CSV gives a finite estimate or one typed error.

Each example writes one CSV and runs ``estimate`` (every method that needs no
data-generating truth, both estimands, m in {1, 2, 3, 7}, each with ``--output``)
and ``diagnose`` through ``cli.main`` in process. RuntimeWarning is an error
(pytest settings), so a numpy warning on the way fails the example too.
"""

import contextlib
import io
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from sdrmatch import matching
from sdrmatch.cli import main

WARNING = "warning: logistic propensity fit did not converge"
METHODS = [m for m, (_, truth) in matching.METHODS.items() if not truth]
# the ordinary case is listed more than once, so that about half the runs
# get as far as an estimate and its --output file
COLUMN_KINDS = ("normal",) * 4 + ("constant", "duplicate", "tied", "binary")
SCALES = (1.0,) * 8 + (1e300, 1e-300, 1e150, 1e-160)
TREATMENTS = ("bernoulli",) * 3 + ("one-arm", "one-treated", "one-control")
OUTCOMES = ("continuous", "continuous", "tied", "constant")
OUTCOME_SCALES = (1.0,) * 3 + (1e-300, 1e300, 1.7e308)


@st.composite
def datasets(draw):
    n = draw(st.integers(2, 120))
    p = draw(st.integers(1, 5))
    columns = draw(st.lists(st.tuples(st.sampled_from(COLUMN_KINDS), st.sampled_from(SCALES)),
                            min_size=p, max_size=p))
    return (n, columns, draw(st.sampled_from(TREATMENTS)), draw(st.sampled_from(OUTCOMES)),
            draw(st.sampled_from(OUTCOME_SCALES)), draw(st.sampled_from([2, 3, 5, 10])),
            draw(st.integers(0, 2**32 - 1)))


def write_csv(path, n, columns, treatment, outcome, outcome_scale, seed):
    rng = np.random.default_rng(seed)
    t = (rng.random(n) < 0.5).astype(int)
    if treatment == "one-arm":
        t[:] = rng.integers(2)
    elif treatment != "bernoulli":
        t[:] = treatment == "one-control"
        t[rng.integers(n)] = treatment == "one-treated"
    x = np.empty((n, len(columns)))
    for j, (kind, scale) in enumerate(columns):
        if kind == "duplicate" and j:
            x[:, j] = x[:, j - 1]
            continue
        x[:, j] = scale * {
            "normal": lambda: rng.normal(size=n),
            "constant": lambda: np.full(n, 3.0),
            "duplicate": lambda: rng.normal(size=n),     # the first column copies none
            "tied": lambda: np.round(rng.normal(size=n)),
            "binary": lambda: (rng.random(n) < 0.5).astype(float),
        }[kind]()
    y = {
        "continuous": lambda: x[:, 0] / columns[0][1] + t + rng.normal(size=n),
        "tied": lambda: np.round(rng.normal(size=n) + t),
        "constant": lambda: np.ones(n),
    }[outcome]()
    y = y / max(np.abs(y).max(), 1.0) * outcome_scale      # |y| <= outcome_scale
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("T,Y," + ",".join(f"x{j}" for j in range(len(columns))) + "\n")
        for i in range(n):
            handle.write(",".join([str(t[i]), *(repr(float(v)) for v in (y[i], *x[i]))]) + "\n")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_failure(code, out, err):
    """Exit 2 or 3: one error line, after at most the logistic warning; nothing on stdout."""
    assert code in (2, 3), (code, err)
    assert out == ""
    lines = err.splitlines()
    assert err.endswith("\n") and lines[-1].startswith("error: "), err
    assert all(line == WARNING for line in lines[:-1]), err


def check_warnings_only(err):
    assert all(line == WARNING for line in err.splitlines()), err
    assert err == "" or err.endswith("\n")


class TestPipelineFuzz:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(datasets())
    def test_finite_estimate_or_one_error_line(self, drawn):
        n, columns, treatment, outcome, outcome_scale, slices, seed = drawn
        with tempfile.TemporaryDirectory() as tmp:
            data = os.path.join(tmp, "d.csv")
            write_csv(data, n, columns, treatment, outcome, outcome_scale, seed)
            flags = ["--input", data, "--treatment", "T", "--outcome", "Y", "--covariates",
                     ",".join(f"x{j}" for j in range(len(columns))), "--slices", str(slices)]
            for method in METHODS:
                for estimand in matching.ESTIMANDS:
                    for m in ("1", "2", "3", "7"):
                        target = os.path.join(tmp, f"{method}-{estimand}-{m}.csv")
                        code, out, err = run(["estimate", *flags, "--method", method,
                                              "--estimand", estimand, "--m", m,
                                              "--output", target])
                        if code != 0:
                            check_failure(code, out, err)
                            assert not os.path.exists(target)
                            continue
                        check_warnings_only(err)
                        values = [line for line in out.splitlines() if line.startswith("value ")]
                        assert len(values) == 1 and math.isfinite(float(values[0][6:])), out
                        with open(target, encoding="utf-8") as handle:
                            written = handle.read()
                        assert written.endswith("\n")
                        assert written.count("\n") == n + 2
            code, out, err = run(["diagnose", *flags])
            if code != 0:
                check_failure(code, out, err)
            else:
                check_warnings_only(err)
                assert out.startswith("# sdrmatch ") and out.endswith("\n")
