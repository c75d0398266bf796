"""Whole-pipeline fuzz gate: every drawn input gives finite output or one typed error.

Each CSV example writes one CSV and runs ``estimate`` (every method that needs
no data-generating truth, both estimands, m in {1, 2, 3, 7}, each with
``--output``) and ``diagnose`` through ``cli.main`` in process. Each
``simulate`` example runs one Monte Carlo comparison on a scenario whose truth
is analytic, with family-3 coefficients from the shipped config or a mutated
copy of it. RuntimeWarning is an error (pytest settings), so a numpy warning
on the way fails the example too.
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from sdrmatch import matching, simulation
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


SHIPPED_CONFIG = json.loads((Path(__file__).resolve().parents[1] / "configs"
                             / "case3_coefficients.json").read_text(encoding="utf-8"))
# the family-1/2 scenario/estimand pairs whose truth is analytic, so that no
# example pays for the 10^6-draw Monte Carlo truth (family 3's always is)
ANALYTIC = (("case1-I", "ace"), ("case1-II", "ace"), ("case1-III", "ace"), ("case1-II", "acet"),
            ("case2-I*", "ace"), ("case2-II*", "ace"), ("case2-II*", "acet"))
NUMBERS = (0.0, -0.5, 1e-300, 1e160, -1e160, 1e308, -1e308)
WRONG = ("1", None, True, [1.0], {})
INDICES = (1, 4, 7, 10, 0, 11, 2.5, "4", True)
NUMBER = r"(nan|-?inf|-?\d+\.\d{4})"


@st.composite
def config_mutations(draw):
    """(path, value) to set in the config, value None deleting it, or
    (path, "append", term) to add a term to a scenario's list."""
    value = st.sampled_from(NUMBERS + WRONG)
    kind = draw(st.sampled_from(["coefficient", "delete", "replace", "outcome", "term", "term"]))
    if kind == "coefficient":
        key = draw(st.sampled_from([str(j) for j in range(1, 11)] + ["0", "11", "x", ""]))
        return ("outcome", "coefficients", key), draw(value)
    if kind == "outcome":
        key = draw(st.sampled_from(["noise_sd", "treatment_effect", "intercept"]))
        return ("outcome", key), draw(value)
    letter = draw(st.sampled_from("ABCDEFG"))
    if kind == "term":
        coef = draw(st.sampled_from((1e308, -1e308, 1e160, 0.5) + WRONG))
        term = draw(st.sampled_from([["quad", draw(st.sampled_from(INDICES)), coef],
                                     ["inter", draw(st.sampled_from(INDICES)),
                                      draw(st.sampled_from(INDICES)), coef]]))
        return ("scenarios", letter), "append", term
    if kind == "delete":
        return draw(st.sampled_from([("outcome",), ("scenarios",), ("outcome", "coefficients"),
                                     ("outcome", "treatment_effect"), ("scenarios", letter)])), None
    return draw(st.sampled_from([("scenarios", letter), ("outcome", "coefficients"), ("outcome",),
                                 ("scenarios",)])), draw(
        st.sampled_from([[], {}, "A", [["quad"]], [["linear", 4, 1.0, 2.0]], 3.0]))


def mutated_config(mutations):
    config = copy.deepcopy(SHIPPED_CONFIG)
    for path, *change in mutations:
        node = config
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue                # an earlier mutation removed or replaced a parent
        if len(change) == 2:
            if isinstance(node.get(path[-1]), list):
                node[path[-1]].append(change[1])
        elif change[0] is None:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = change[0]
    return config


@st.composite
def simulations(draw):
    config = None
    if draw(st.booleans()):
        scenario, estimand = draw(st.sampled_from(ANALYTIC))
    else:
        scenario = "case3-" + draw(st.sampled_from("ABCDEFG"))
        estimand = draw(st.sampled_from(matching.ESTIMANDS))
        config = mutated_config(draw(st.lists(config_mutations(), max_size=3)))
    methods = draw(st.lists(st.sampled_from(list(matching.METHODS)), min_size=1, unique=True))
    # hypothesis leans to the ends of a list and to small integers, so that
    # is where the valid values go
    flags = ["--scenario", scenario, "--estimand", estimand,
             "--n", str(150 - draw(st.integers(0, 110))),
             "--p", draw(st.sampled_from(["10", "5", "10", "2", "3", "10"])),
             "--reps", draw(st.sampled_from(["2", "3", "2", "1", "3", "2", "3"])),
             "--seed", str(draw(st.integers(0, 2**32 - 1))),
             "--methods", ",".join(methods),
             "--m", draw(st.sampled_from(["1", "2", "3", "7"])),
             "--slices", draw(st.sampled_from(["5", "2", "5", "1", "3", "0", "10", "5"])),
             "--alpha", draw(st.sampled_from(["0.05", "0.5", "0.05", "0", "1e-300", "nan",
                                              "0.05", "1", "0.05"])),
             "--format", draw(st.sampled_from(["csv", "text"])),
             "--threads", draw(st.sampled_from(["1", "2"]))]
    return flags, methods, config, draw(st.booleans())


def report_rows(text, fmt, methods):
    """(bias, sd, rmse, failures) for each report row, after checking the
    header, the column line and that the rows name the methods in order."""
    lines = text.splitlines()
    assert text.endswith("\n") and lines[0].startswith("# sdrmatch ") and " simulate " in lines[0]
    if fmt == "csv":
        assert lines[1] == "method,bias,sd,rmse,truth,reps,failures"
        rows = [line.split(",") for line in lines[2:]]
        assert [row[0] for row in rows] == methods and math.isfinite(float(rows[0][4]))
        return [(*map(float, row[1:4]), int(row[6])) for row in rows]
    assert lines[1].startswith("scenario ") and lines[2].split() == [
        "method", "bias", "sd", "rmse", "failures"]
    rows = lines[3:]
    assert [row[:32].rstrip() for row in rows] == [matching.METHODS[m][0] for m in methods]
    # a value wider than its 12-character column runs into the next one, but
    # each has exactly four decimals
    fields = [re.fullmatch(rf"{NUMBER} *{NUMBER} *{NUMBER} *(\d+)", row[32:].lstrip())
              for row in rows]
    assert all(fields), rows
    return [(*map(float, field.groups()[:3]), int(field[4])) for field in fields]


class TestSimulateFuzz:
    def test_drawn_scenarios_have_analytic_truths(self):
        for case, estimand in ANALYTIC:
            spec = simulation.scenario(case, p=10)
            assert simulation.true_effect(spec, estimand, 0)[1] == "analytic"

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(simulations())
    def test_finite_report_or_one_error_line(self, drawn):
        flags, methods, config, to_file = drawn
        reps = int(flags[flags.index("--reps") + 1])
        fmt = flags[flags.index("--format") + 1]
        with tempfile.TemporaryDirectory() as tmp:
            target, argv = os.path.join(tmp, "report.txt"), ["simulate", *flags]
            if config is not None:
                argv += ["--coef-config", os.path.join(tmp, "config.json")]
                with open(argv[-1], "w", encoding="utf-8") as handle:
                    json.dump(config, handle)
            code, out, err = run(argv + (["--output", target] if to_file else []))
            if code != 0:
                assert code in (2, 3) and out == "", (code, err)
                assert err.count("\n") == 1 and err.startswith("error: "), err
                assert not os.path.exists(target)
                return
            assert err == ""
            if to_file:
                assert out == ""
                with open(target, encoding="utf-8") as handle:
                    out = handle.read()
            for bias, sd, rmse, failures in report_rows(out, fmt, methods):
                assert 0 <= failures <= reps
                stats = (bias, sd, rmse)
                assert all(map(math.isfinite, stats)) or all(map(math.isnan, stats)), stats
