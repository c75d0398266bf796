import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdrmatch import cli, propensity, sdr, simulation
from sdrmatch.cli import main

REPO = Path(__file__).resolve().parents[1]
LALONDE = REPO / "data" / "lalonde_cps3_synthetic.csv"
COEF_CONFIG = REPO / "configs" / "case3_coefficients.json"
LALONDE_COVARIATES = "age,educ,black,hisp,married,nodegr,re74,re75,u74,u75"


def write_toy_csv(path, n=60, seed=3, scale=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    t = (rng.uniform(size=n) < 0.5).astype(int)
    y = x[:, 0] + t + 0.1 * rng.normal(size=n)
    x *= scale
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("T,Y,a,b,c\n")
        for i in range(n):
            handle.write(f"{t[i]},{float(y[i])!r},{float(x[i,0])!r},"
                         f"{float(x[i,1])!r},{float(x[i,2])!r}\n")


class TestEstimate:
    def test_ambient_on_toy_data(self, tmp_path, capsys):
        f = tmp_path / "toy.csv"
        write_toy_csv(f)
        code = main([
            "estimate", "--input", str(f), "--treatment", "T", "--outcome", "Y",
            "--covariates", "a,b,c", "--estimand", "ace", "--method", "ambient",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "value " in out
        assert "method ambient" in out

    def test_missing_column_exits_two(self, tmp_path, capsys):
        f = tmp_path / "toy.csv"
        write_toy_csv(f)
        code = main([
            "estimate", "--input", str(f), "--treatment", "T", "--outcome", "Z",
            "--covariates", "a,b,c",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Z" in err

    def test_estimation_failure_exits_three(self, tmp_path, capsys):
        # one donor but two matches requested
        f = tmp_path / "toy.csv"
        with open(f, "w", encoding="utf-8") as handle:
            handle.write("T,Y,a\n")
            for i in range(12):
                handle.write(f"{1 if i else 0},{float(i)!r},{float(i)!r}\n")
        code = main([
            "estimate", "--input", str(f), "--treatment", "T", "--outcome", "Y",
            "--covariates", "a", "--estimand", "acet", "--method", "ambient",
            "--m", "2",
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:")

    def test_lalonde_sdr_acet(self, tmp_path, capsys):
        out_file = tmp_path / "imputations.csv"
        code = main([
            "estimate", "--input", str(LALONDE), "--treatment", "treat",
            "--outcome", "re78", "--covariates", LALONDE_COVARIATES,
            "--estimand", "acet", "--method", "sdr", "--m", "1",
            "--output", str(out_file),
        ])
        out = capsys.readouterr().out
        assert code == 0
        value = float(out.split("value ")[1].splitlines()[0])
        assert value > 0
        assert "rank_control 2" in out
        lines = out_file.read_text().splitlines()
        assert lines[1] == "subject,treatment,outcome,imputed"
        assert len(lines) == 2 + 614

    def test_lalonde_ambient_negative(self, capsys):
        code = main([
            "estimate", "--input", str(LALONDE), "--treatment", "treat",
            "--outcome", "re78", "--covariates", LALONDE_COVARIATES,
            "--estimand", "acet", "--method", "ambient",
        ])
        out = capsys.readouterr().out
        assert code == 0
        value = float(out.split("value ")[1].splitlines()[0])
        assert value < 0

    def test_byte_identical_outputs(self, tmp_path, capsys):
        f = tmp_path / "toy.csv"
        write_toy_csv(f)
        outputs = []
        for name in ("one.csv", "two.csv"):
            out_file = tmp_path / name
            main([
                "estimate", "--input", str(f), "--treatment", "T", "--outcome", "Y",
                "--covariates", "a,b,c", "--method", "sdr", "--estimand", "ace",
                "--slices", "3", "--output", str(out_file),
            ])
            outputs.append(out_file.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]


class TestSimulate:
    def test_report_columns_and_ordering(self, tmp_path, capsys):
        out_file = tmp_path / "report.csv"
        code = main([
            "simulate", "--scenario", "case1-II", "--n", "300", "--reps", "40",
            "--seed", "7", "--methods", "sdr,ambient,ps-true",
            "--output", str(out_file),
        ])
        capsys.readouterr()
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("# sdrmatch")
        assert lines[1] == "method,bias,sd,rmse,truth,reps,failures"
        rows = {line.split(",")[0]: line.split(",") for line in lines[2:]}
        assert set(rows) == {"sdr", "ambient", "ps-true"}
        assert float(rows["sdr"][3]) < float(rows["ambient"][3])  # rmse ordering

    def test_single_rep_rejected(self, capsys):
        code = main(["simulate", "--scenario", "case1-I", "--reps", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")

    def test_case3_requires_coef_config(self, capsys):
        code = main(["simulate", "--scenario", "case3-A", "--reps", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert "coef-config" in err

    def test_case3_with_config_runs(self, tmp_path, capsys):
        out_file = tmp_path / "c3.csv"
        code = main([
            "simulate", "--scenario", "case3-A", "--n", "300", "--reps", "4",
            "--methods", "ambient,sdr", "--coef-config", str(COEF_CONFIG),
            "--output", str(out_file),
        ])
        capsys.readouterr()
        assert code == 0
        assert "-0.4" in out_file.read_text()

    def test_unknown_scenario_exits_two(self, capsys):
        code = main(["simulate", "--scenario", "case9-Z", "--reps", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")

    def test_thread_count_byte_identical(self, tmp_path, capsys):
        files = []
        for name, threads in (("a.csv", "1"), ("b.csv", "4")):
            out_file = tmp_path / name
            code = main([
                "simulate", "--scenario", "case1-II", "--n", "200", "--reps", "12",
                "--seed", "3", "--methods", "sdr,ambient", "--threads", threads,
                "--output", str(out_file),
            ])
            assert code == 0
            files.append(out_file.read_bytes())
        capsys.readouterr()
        assert files[0] == files[1]

    def test_default_threads_is_one_whatever_the_cpus(self, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        seen = []
        real = simulation.run_monte_carlo

        def spy(*args, **kwargs):
            seen.append(kwargs["threads"])
            return real(*args, **kwargs)

        monkeypatch.setattr(simulation, "run_monte_carlo", spy)
        code = main(["simulate", "--scenario", "case1-I", "--n", "60", "--reps", "2",
                     "--methods", "ambient"])
        capsys.readouterr()
        assert code == 0
        assert seen == [1]

    def test_text_format(self, capsys):
        code = main([
            "simulate", "--scenario", "case1-II", "--n", "200", "--reps", "6",
            "--methods", "ambient,ps-logistic", "--format", "text",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Estimated PS (logistic)" in out
        assert "Ambient (original covariates)" in out


EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.0)


@st.composite
def quantile_inputs(draw):
    """1 to 2,000 values, 1-D or 2-D, drawn from a few distinct ones (so with ties)
    among ±0.0, subnormals, ±1e300 and any finite float; as drawn, sorted or reversed."""
    pool = draw(st.lists(st.one_of(st.sampled_from(EDGE_VALUES),
                                   st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=1, max_size=8))
    shape = draw(st.one_of(st.tuples(st.integers(1, 2000)),
                           st.tuples(st.integers(1, 40), st.integers(1, 50))))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    values = np.random.default_rng(seed).choice(np.asarray(pool, dtype=float), size=shape)
    order = draw(st.sampled_from(("as drawn", "sorted", "reversed")))
    if order != "as drawn":
        values = np.sort(values, axis=None).reshape(shape)
    return values[::-1].copy() if order == "reversed" else values


class TestFiveNumber:
    """cli._five_number is np.quantile at [0, .25, .5, .75, 1], bit for bit."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(quantile_inputs())
    def test_equals_np_quantile_bit_for_bit(self, values):
        before = values.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # ±1e300 spans overflow in both
            expected = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
            got = cli._five_number(values)
        assert got.dtype == expected.dtype and got.shape == expected.shape == (5,)
        assert got.tobytes() == expected.tobytes(), (got, expected)
        assert values.tobytes() == before.tobytes()    # the input is left as it was

    def test_nan_makes_every_quantile_nan_as_in_numpy(self):
        values = np.array([3.0, np.nan, 1.0, 2.0])
        expected = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert cli._five_number(values).tobytes() == expected.tobytes()


class TestOneParser:
    """main builds its parser on first use and reuses it; no output byte changes."""

    RUNS = (
        ["estimate", "--input", str(LALONDE), "--treatment", "treat", "--outcome", "re78",
         "--covariates", LALONDE_COVARIATES, "--method", "ambient"],
        ["simulate", "--scenario", "case1-I", "--n", "60", "--reps", "2",
         "--methods", "ambient,ps-true"],
        ["--version"],
        ["simulate", "--scenario", "case1-I", "--reps", "two"],
    )

    def test_one_parser_gives_a_fresh_parser_s_bytes(self, capsysbinary):
        from sdrmatch import cli

        fresh = []
        for argv in self.RUNS:
            cli.build_parser.cache_clear()
            fresh.append((main(argv), capsysbinary.readouterr()))
        assert [code for code, _ in fresh] == [0, 0, 0, 2]
        cli.build_parser.cache_clear()
        reused = []
        for argv in self.RUNS * 2:
            reused.append((main(argv), capsysbinary.readouterr()))
        assert cli.build_parser.cache_info().misses == 1
        assert reused == fresh * 2

    def test_import_builds_no_parser(self):
        code = ("import sdrmatch.cli as cli; "
                "assert cli.build_parser.cache_info().currsize == 0")
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestDiagnose:
    def test_lalonde_reduced_blocks(self, tmp_path, capsys):
        out_file = tmp_path / "diag.csv"
        code = main([
            "diagnose", "--input", str(LALONDE), "--treatment", "treat",
            "--outcome", "re78", "--covariates", LALONDE_COVARIATES,
            "--output", str(out_file),
        ])
        capsys.readouterr()
        assert code == 0
        text = out_file.read_text()
        # rank two in the control group: two reduced-covariate blocks
        assert "reduced_1," in text
        assert "reduced_2," in text
        assert "reduced_3," not in text
        assert "propensity," in text

    def test_bins_contract(self, tmp_path, capsys):
        f = tmp_path / "toy.csv"
        write_toy_csv(f, n=80)
        out_file = tmp_path / "diag.csv"
        code = main([
            "diagnose", "--input", str(f), "--treatment", "T", "--outcome", "Y",
            "--covariates", "a,b,c", "--bins", "10", "--output", str(out_file),
        ])
        capsys.readouterr()
        assert code == 0
        lines = out_file.read_text().splitlines()
        for variable in ("reduced_1", "propensity"):
            for group in ("treated", "control"):
                rows = [
                    ln for ln in lines
                    if ln.startswith(f"{variable},{group},bin,")
                ]
                assert len(rows) == 10

    def test_matches_flag_is_rejected(self, tmp_path, capsys):
        # diagnose matches no subjects, so --m is not one of its flags
        f = tmp_path / "toy.csv"
        write_toy_csv(f)
        code = main([
            "diagnose", "--input", str(f), "--treatment", "T", "--outcome", "Y",
            "--covariates", "a,b,c", "--m", "1",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert "--m" in captured.err

    def test_constant_covariate_no_crash(self, tmp_path, capsys):
        f = tmp_path / "const.csv"
        rng = np.random.default_rng(9)
        with open(f, "w", encoding="utf-8") as handle:
            handle.write("T,Y,a,b\n")
            for i in range(60):
                t = i % 2
                handle.write(f"{t},{float(rng.normal())!r},{float(rng.normal())!r},5.0\n")
        code = main([
            "diagnose", "--input", str(f), "--treatment", "T", "--outcome", "Y",
            "--covariates", "a,b", "--bins", "20",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "propensity," in out

    def test_constant_variable_range_is_widened(self, tmp_path, capsys):
        # every covariate constant: the reduced covariate is 0 and the fitted
        # propensity 0.5 for all, so each histogram spans its value +- 0.5
        f = tmp_path / "const.csv"
        f.write_text("T,Y,a,b\n" + "".join(f"{i % 2},{i}.0,2.0,-1.0\n" for i in range(40)))
        code = main(["diagnose", "--input", str(f), "--treatment", "T", "--outcome", "Y",
                     "--covariates", "a,b", "--bins", "2"])
        bins = [line for line in capsys.readouterr().out.splitlines() if ",bin," in line]
        assert code == 0
        assert bins == [f"{name},{group},bin,{k},{lo},{hi},{count}"
                        for name, edges in (("reduced_1", (-0.5, 0.0, 0.5)),
                                            ("propensity", (0.0, 0.5, 1.0)))
                        for group in ("treated", "control")
                        for k, (lo, hi, count) in enumerate(zip(edges, edges[1:], (0, 20)))]


class TestOutputFile:
    """--output writes exactly the bytes the same run prints without it."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "case1-II", "--n", "200", "--reps", "4", "--seed", "5",
         "--methods", "ambient,sdr"],
        ["simulate", "--scenario", "case1-II", "--n", "200", "--reps", "4", "--seed", "5",
         "--methods", "ambient,sdr", "--format", "text"],
        ["diagnose", "--input", str(LALONDE), "--treatment", "treat", "--outcome", "re78",
         "--covariates", LALONDE_COVARIATES, "--bins", "7"],
    ])
    def test_file_bytes_equal_stdout_bytes(self, tmp_path, argv, capsysbinary):
        assert main(argv) == 0
        printed = capsysbinary.readouterr().out
        out_file = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out_file)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert out_file.read_bytes() == printed
        assert printed.startswith(b"# sdrmatch ")


    @pytest.mark.parametrize("argv", [
        ["estimate", "--input", str(LALONDE), "--treatment", "treat", "--outcome", "re78",
         "--covariates", LALONDE_COVARIATES, "--method", "ambient"],
        ["simulate", "--scenario", "case1-II", "--n", "200", "--reps", "2", "--seed", "5",
         "--methods", "ambient"],
        ["diagnose", "--input", str(LALONDE), "--treatment", "treat", "--outcome", "re78",
         "--covariates", LALONDE_COVARIATES, "--bins", "7"],
    ], ids=["estimate", "simulate", "diagnose"])
    def test_empty_path_exits_two(self, argv, capsys):
        # "" names no file that can be opened; it does not mean stdout
        assert main([*argv, "--output", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: [Errno 2] No such file or directory: ''\n"
        assert captured.out == ""      # nothing is printed before the path fails

    def test_bad_path_fails_before_the_replicates(self, tmp_path, monkeypatch, capsys):
        calls = []
        original = simulation.run_monte_carlo

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(simulation, "run_monte_carlo", spy)
        target = tmp_path / "no" / "such" / "r.csv"
        argv = ["simulate", "--scenario", "case1-II", "--n", "200", "--reps", "2",
                "--methods", "ambient", "--output", str(target)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno 2] No such file or directory: '{target}'\n"
        assert captured.out == ""
        assert calls == []
        assert main(argv[:-1] + [str(tmp_path / "r.csv")]) == 0
        assert calls == [1]

    def test_directory_path_exits_two(self, tmp_path, capsys):
        argv = ["diagnose", "--input", str(LALONDE), "--treatment", "treat",
                "--outcome", "re78", "--covariates", LALONDE_COVARIATES,
                "--output", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert captured.out == ""

    def test_later_failure_leaves_files_as_they_were(self, tmp_path, capsys):
        # two matches from a group of one donor: exit 3 after the path check
        f = tmp_path / "toy.csv"
        f.write_text("T,Y,a\n1,1.0,0.5\n0,0.0,0.1\n1,2.0,0.7\n", encoding="utf-8")
        existing, new = tmp_path / "existing.csv", tmp_path / "new.csv"
        existing.write_bytes(b"keep me\n")
        for out_file in (existing, new):
            code = main(["estimate", "--input", str(f), "--treatment", "T", "--outcome",
                         "Y", "--covariates", "a", "--method", "ambient", "--m", "2",
                         "--output", str(out_file)])
            assert code == 3
            assert capsys.readouterr().err.startswith("error: ")
        assert existing.read_bytes() == b"keep me\n"
        assert not new.exists()

    def test_success_replaces_an_existing_file(self, tmp_path, capsysbinary):
        argv = ["simulate", "--scenario", "case1-II", "--n", "200", "--reps", "2",
                "--seed", "5", "--methods", "ambient"]
        assert main(argv) == 0
        printed = capsysbinary.readouterr().out
        out_file = tmp_path / "r.csv"
        out_file.write_bytes(b"x" * (len(printed) + 100))
        assert main([*argv, "--output", str(out_file)]) == 0
        assert out_file.read_bytes() == printed

    def test_lines_stream_to_the_file(self, tmp_path):
        # 100,000 lines make a 2.3 MB file; held as a list and joined into one
        # string, they peak at about 10 MB
        def lines():
            return (f"{i},{i / 7!r}" for i in range(100_000))

        out_file = tmp_path / "lines.csv"
        tracemalloc.start()
        try:
            cli._write(lines(), str(out_file))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert out_file.read_text(encoding="utf-8") == "".join(f"{line}\n" for line in lines())


def write_separated_csv(path, n=40):
    """T = 1 exactly when a > 0: the logistic MLE does not exist."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("T,Y,a,b\n")
        for i in range(n):
            a = -2.0 + 4.0 * i / (n - 1)
            b = float((i * 7) % 11) / 11.0
            t = int(a > 0.0)
            handle.write(f"{t},{a + b + t!r},{a!r},{b!r}\n")


class TestNonConvergenceWarning:
    WARNING = "warning: logistic propensity fit did not converge\n"

    def test_estimate_warns(self, tmp_path, capsys):
        f = tmp_path / "separated.csv"
        write_separated_csv(f)
        code = main([
            "estimate", "--input", str(f), "--treatment", "T", "--outcome", "Y",
            "--covariates", "a,b", "--method", "ps-logistic",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == self.WARNING
        assert "method ps-logistic" in captured.out

    def test_estimate_warns_at_the_iteration_cap(self, tmp_path, capsys, monkeypatch):
        # no separation: the fit stops unconverged only because of the cap
        f = tmp_path / "toy.csv"
        write_toy_csv(f)
        argv = ["estimate", "--input", str(f), "--treatment", "T", "--outcome", "Y",
                "--covariates", "a,b,c", "--method", "ps-logistic"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(propensity, "_MAX_ITER", 1)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == self.WARNING
        assert "method ps-logistic" in captured.out
        assert "warning" not in captured.out

    def test_diagnose_warns_on_stderr_only(self, tmp_path, capsys):
        f = tmp_path / "separated.csv"
        write_separated_csv(f)
        code = main([
            "diagnose", "--input", str(f), "--treatment", "T", "--outcome", "Y",
            "--covariates", "a,b",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == self.WARNING
        # below the header (which names the temporary input path), the bytes
        # diagnose printed on this file before it warned at all
        body = captured.out.split("\n", 1)[1]
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        assert digest == "6b92076e719bd7827ae64b15ad3f2a8a15c9b0d12f11a7273ca5369cb2089a95"


class TestErrorFormat:
    def test_error_prefix_single_line(self, capsys):
        code = main(["simulate", "--scenario", "case1-I", "--reps", "1"])
        err = capsys.readouterr().err.strip()
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_two(self, threads, capsys):
        code = main(["simulate", "--scenario", "case1-I", "--reps", "4",
                     "--threads", threads])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --threads must be >= 1, got {threads}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--m", "0"], "n_matches must be >= 1, got 0"),
        (["--slices", "1"], "need at least 2 slices, got 1"),
        (["--alpha", "nan"], "alpha must be in (0, 1), got nan"),
        (["--alpha", "1.5"], "alpha must be in (0, 1), got 1.5"),
        (["--methods", ","], "no methods given"),
        (["--methods", "sdr,sdr"], "repeated methods: sdr"),
    ])
    def test_simulate_argument_errors_exit_two(self, flags, message, capsys):
        # rejected before any replicate runs, not counted as replicate failures
        code = main(["simulate", "--scenario", "case1-I", "--n", "200", "--reps", "2",
                     "--methods", "ambient,sdr", "--threads", "1", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("method", ["sdr", "ambient", "ps-logistic"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "nan", "alpha must be in (0, 1), got nan"),
        ("--alpha", "1.5", "alpha must be in (0, 1), got 1.5"),
        ("--slices", "1", "need at least 2 slices, got 1"),
    ], ids=["nan", "1.5", "slices-1"])
    def test_estimate_alpha_outside_unit_interval_exits_two(self, tmp_path, method, flag,
                                                            value, message, capsys):
        # every method checks the tuning flags its output header records
        out_file = tmp_path / "out.csv"
        code = main(["estimate", "--input", str(LALONDE), "--treatment", "treat",
                     "--outcome", "re78", "--covariates", LALONDE_COVARIATES,
                     "--method", method, flag, value, "--output", str(out_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_estimate_m_below_one_exits_two_before_any_work(self, tmp_path, monkeypatch, m,
                                                            capsys):
        # --m is rejected before the CSV is read or any score is fitted
        calls = []

        def counting(name, original):
            def spy(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return spy

        monkeypatch.setattr(cli, "load_csv", counting("load_csv", cli.load_csv))
        monkeypatch.setattr(sdr, "estimate_central_subspace",
                            counting("sir", sdr.estimate_central_subspace))
        out_file = tmp_path / "out.csv"
        code = main(["estimate", "--input", str(LALONDE), "--treatment", "treat",
                     "--outcome", "re78", "--covariates", LALONDE_COVARIATES,
                     "--method", "sdr", "--m", m, "--output", str(out_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: n_matches must be >= 1, got {m}\n"
        assert calls == []
        assert not out_file.exists()

    @pytest.mark.parametrize("body, reason", [
        (b"0,1,2\n1,\xff2,3\n", "not UTF-8 text (invalid start byte)"),
        (b"0,1,2\n1,2," + b"3" * 200_000 + b"\n", "field larger than field limit (131072)"),
    ], ids=["not-utf8", "field-too-large"])
    def test_unreadable_input_exits_two(self, tmp_path, body, reason, capsys):
        # the bad byte stops the first read; the long field parses as inf,
        # so the row loop meets the csv module's field limit
        f = tmp_path / "bad.csv"
        f.write_bytes(b"t,y,x\n" + body)
        code = main(["estimate", "--input", str(f), "--treatment", "t", "--outcome", "y",
                     "--covariates", "x"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {f}: {reason}\n"

    @pytest.mark.parametrize("argv, start", [
        (["estimate", "--input", "x.csv", "--treatment", "T", "--outcome", "Y",
          "--covariates", "a", "--method", "bogus"],
         "error: argument --method: invalid choice: 'bogus'"),
        (["simulate", "--scenario", "case1-I", "--reps", "two"],
         "error: argument --reps: invalid int value: 'two'"),
        (["simulate", "--scenario", "case1-I"],
         "error: the following arguments are required: --reps"),
        ([], "error: the following arguments are required: command"),
    ], ids=["bad-choice", "bad-int", "missing-flag", "no-command"])
    def test_argparse_errors_exit_two(self, argv, start, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(start)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--input", str(LALONDE), "--treatment", "treat", "--outcome", "re78",
          "--covariates", ","], "no covariate columns given"),
        (["diagnose", "--input", str(LALONDE), "--treatment", "treat", "--outcome", "re78",
          "--covariates", LALONDE_COVARIATES, "--bins", "0"], "--bins must be >= 1, got 0"),
    ], ids=["no-covariates", "zero-bins"])
    def test_flag_errors_exit_two(self, argv, message, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_empty_csv_exits_two(self, tmp_path, capsys):
        f = tmp_path / "empty.csv"
        f.write_bytes(b"")
        code = main(["estimate", "--input", str(f), "--treatment", "T", "--outcome", "Y",
                     "--covariates", "a"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {f}: file is empty, expected a header row\n"

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--method", "ambient"],
         "the score covariance is not finite; rescale the scores"),
        (["estimate", "--method", "sdr"],
         "the covariate covariance in group 0 is not finite; rescale the covariates"),
        (["diagnose"],
         "the covariate covariance in group 0 is not finite; rescale the covariates"),
        (["estimate", "--method", "ps-logistic"],
         "the logistic Hessian is not finite; rescale the covariates"),
    ])
    def test_overflowing_covariance_exits_three(self, tmp_path, argv, message):
        # a fresh interpreter, since pytest captures the RuntimeWarning that
        # numpy would print above the error line
        f = tmp_path / "huge.csv"
        write_toy_csv(f, scale=1e200)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-m", "sdrmatch", argv[0], "--input", str(f), "--treatment", "T",
             "--outcome", "Y", "--covariates", "a,b,c", *argv[1:]],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", ["1", "3"])
    @pytest.mark.parametrize("method", ["ambient", "ps-logistic", "sdr"])
    def test_overflowing_outcome_exits_two(self, tmp_path, method, m, capsys):
        # finite outcomes up to 1.7e308 of either sign: the contrast (and at
        # m = 3 the imputed mean) overflows, where "value inf" was printed
        rng = np.random.default_rng(3)
        t = np.arange(40) % 2
        y = (2 * t - 1) * 1.7e308 * rng.uniform(0.5, 1.0, size=40)
        x = rng.normal(size=(40, 2))
        f, out_file = tmp_path / "huge_y.csv", tmp_path / "out.csv"
        f.write_text("t,y,a,b\n" + "".join(
            f"{t[i]},{float(y[i])!r},{float(x[i, 0])!r},{float(x[i, 1])!r}\n"
            for i in range(40)), encoding="utf-8")
        code = main(["estimate", "--input", str(f), "--treatment", "t", "--outcome", "y",
                     "--covariates", "a,b", "--method", method, "--m", m,
                     "--output", str(out_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: the effect estimate overflows; rescale the outcome\n"
        assert not out_file.exists()

    def test_missing_file(self, capsys):
        code = main([
            "estimate", "--input", "/nonexistent.csv", "--treatment", "T",
            "--outcome", "Y", "--covariates", "a",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")


# Runs in a fresh interpreter, since pytest itself has loaded scipy by now.
_SCIPY_FOOTPRINT = """
import sys
import sdrmatch, sdrmatch.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), ("import", scipy_modules())
# ingest loads nothing that importing the CLI has not
imported = set(sys.modules)
sdrmatch.dataset.load_csv({lalonde!r}, "treat", "re78", {covariates!r}.split(","))
assert set(sys.modules) == imported, sorted(set(sys.modules) - imported)
data = ["--input", {lalonde!r}, "--treatment", "treat", "--outcome", "re78",
        "--covariates", {covariates!r}]
for argv in (["estimate", *data, "--method", "sdr"],
             ["estimate", *data, "--method", "ps-logistic"],
             ["estimate", *data, "--method", "ambient"],
             ["diagnose", *data],
             ["simulate", "--scenario", "case1-II", "--n", "100", "--reps", "4",
              "--methods", "ambient"]):
    assert sdrmatch.cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv[0], scipy_modules())
# normals need numpy alone, here drawn from two worker threads at once
argv = ["simulate", "--scenario", "case1-II", "--n", "100", "--reps", "4",
        "--methods", "ambient", "--threads", "2"]
assert sdrmatch.cli.main(argv) == 0
assert not scipy_modules(), ("simulate --threads 2", scipy_modules())
"""


# Each run goes through `python -m sdrmatch`'s entry point, all in one fresh interpreter.
_STARTUP_FOOTPRINT = """
import contextlib, io, runpy, sys
from sdrmatch import cli    # as a library user would, before any run

data = ["--input", {lalonde!r}, "--treatment", "treat", "--outcome", "re78",
        "--covariates", {covariates!r}]
for argv in (["estimate", *data, "--method", "ambient"],
             ["estimate", *data, "--method", "ps-logistic"],
             ["estimate", *data, "--method", "sdr", "--estimand", "ace", "--m", "3"],
             ["estimate", *data, "--method", "sdr", "--estimand", "acet"],
             ["diagnose", *data]):
    sys.argv = ["sdrmatch", *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("sdrmatch", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
    else:
        raise AssertionError(("no exit code", argv))
loaded = sorted({{"numpy.ma", "sdrmatch.simulation"}} & set(sys.modules))
assert not loaded, loaded
"""

# simulation still loads on first use, in the same kind of process
_SIMULATION_ON_FIRST_USE = """
import contextlib, io, sys
import sdrmatch, sdrmatch.cli

assert "sdrmatch.simulation" not in sys.modules
report = sdrmatch.run_monte_carlo(sdrmatch.scenario("case1-I", n=60, methods=("ambient",)), 2)
assert report.reps == 2 and sdrmatch.simulation.run_monte_carlo is sdrmatch.run_monte_carlo
namespace = {{}}
exec("from sdrmatch import *", namespace)
assert namespace["run_monte_carlo"] is sdrmatch.run_monte_carlo
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = sdrmatch.cli.main(["simulate", "--scenario", "case1-I", "--n", "60", "--reps", "2",
                              "--methods", "ambient"])
assert code == 0 and out.getvalue().splitlines()[1] == "method,bias,sd,rmse,truth,reps,failures"
"""


class TestImportFootprint:
    @staticmethod
    def run_fresh(script):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
        )
        script = script.format(lalonde=str(LALONDE), covariates=LALONDE_COVARIATES)
        result = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr

    def test_no_subcommand_loads_scipy(self):
        self.run_fresh(_SCIPY_FOOTPRINT)

    def test_estimate_and_diagnose_load_neither_numpy_ma_nor_simulation(self):
        self.run_fresh(_STARTUP_FOOTPRINT)

    def test_simulation_loads_on_first_use(self):
        self.run_fresh(_SIMULATION_ON_FIRST_USE)
