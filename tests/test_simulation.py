import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from sdrmatch.cli import main
from sdrmatch.errors import ConfigError, InvalidArgument
from sdrmatch.numerics import RngStream
from sdrmatch.simulation import (
    CASE3_BINARY,
    CASE3_CORRELATION_PAIRS,
    effect_function,
    generate,
    load_case3_config,
    monte_carlo_truth,
    run_monte_carlo,
    scenario,
    true_effect,
)

REPO = Path(__file__).resolve().parents[1]
COEF_CONFIG = REPO / "configs" / "case3_coefficients.json"


def case3_realized_correlation(i: int, j: int, target: float) -> float:
    """Product-moment correlation the calibrated latent design actually yields."""
    bi = i in CASE3_BINARY
    bj = j in CASE3_BINARY
    # latent rho: binary pairs invert the tetrachoric relation (2/pi) arcsin(rho);
    # the other pairs' targets are taken as latent correlations
    rho = float(np.sin(np.pi * target / 2.0)) if bi and bj else target
    if bi and bj:
        return float(2.0 / np.pi * np.arcsin(rho))
    if bi or bj:
        # point-biserial: a dichotomized standard normal scales rho by phi(0)/0.5
        return float(rho * np.exp(-0.5 * np.log(2 * np.pi)) / 0.5)
    return rho


class TestScenarioSpecs:
    def test_model_four_mean_norm(self):
        spec = scenario("case1-IV")
        assert np.linalg.norm(spec.design.mean1) == pytest.approx(0.5)
        # first component is c1 * 1
        assert spec.design.mean1[0] == pytest.approx(0.02548, abs=2e-5)

    def test_unknown_scenario(self):
        with pytest.raises(InvalidArgument):
            scenario("case1-X")

    def test_case3_requires_config(self):
        with pytest.raises(ConfigError):
            scenario("case3-A")

    def test_small_n_rejected(self):
        with pytest.raises(InvalidArgument):
            scenario("case1-I", n=20)

    def test_empty_methods_rejected(self):
        with pytest.raises(InvalidArgument, match="no methods"):
            scenario("case1-I", methods=())

    def test_repeated_methods_rejected(self):
        # a repeat would fit and match the method twice per replicate for one row
        with pytest.raises(InvalidArgument, match="repeated methods: sdr"):
            scenario("case1-I", methods=("sdr", "ambient", "sdr"))

    @pytest.mark.parametrize("case, p, methods, message", [
        ("case1-I", 1, None, "p must be >= 2, got 1"),
        ("case1-III", 4, None, "model III needs p >= 5"),
        ("case2-II*", 2, None, "model II needs p >= 3"),
        ("case1-I", 10, ("sdr", "bogus", "x"), "unknown methods: bogus, x"),
    ])
    def test_bad_dimension_or_methods_rejected(self, case, p, methods, message):
        with pytest.raises(InvalidArgument, match=rf"^{re.escape(message)}$"):
            scenario(case, p=p, methods=methods)

    def test_case3_dimension_is_fixed(self, config):
        with pytest.raises(InvalidArgument, match="fixed at p=10"):
            scenario("case3-A", p=9, coefficients=config)

    def test_case3_letter_missing_from_config(self, config):
        cfg = dataclasses.replace(config, scenarios={"A": config.scenarios["A"]})
        with pytest.raises(ConfigError, match=r"^config has no scenario 'B'$"):
            scenario("case3-B", coefficients=cfg)


class TestCase1Generator:
    def test_marginal_first_covariate_variance(self):
        spec = scenario("case1-I", n=10000)
        data = generate(spec, RngStream(61, 0))
        assert np.var(data.sample.covariates[:, 0]) == pytest.approx(1.0, abs=0.05)

    def test_group_proportions(self):
        spec = scenario("case1-II", n=10000)
        data = generate(spec, RngStream(62, 0))
        assert data.sample.treatment.mean() == pytest.approx(0.5, abs=0.03)

    def test_group_conditional_means(self):
        spec = scenario("case1-III", n=20000)
        data = generate(spec, RngStream(63, 0))
        x = data.sample.covariates
        t = data.sample.treatment
        assert np.abs(x[t == 0].mean(axis=0)).max() < 0.05
        assert np.abs(x[t == 1].mean(axis=0) - 10 ** -0.5).max() < 0.05

    def test_true_ps_tracks_assignment_rate(self):
        spec = scenario("case1-I", n=20000)
        data = generate(spec, RngStream(64, 0))
        assert data.true_ps.mean() == pytest.approx(0.5, abs=0.02)

    def test_covariance_changed_in_place_is_not_served_stale(self):
        # each arm's root is cached by the covariance's bytes, not its identity
        spec = scenario("case1-III", n=200)
        before = generate(spec, RngStream(66, 0)).sample.covariates
        spec.design.cov1[:] = 4.0 * spec.design.cov1
        after = generate(spec, RngStream(66, 0))
        t = after.sample.treatment == 1
        assert np.array_equal(after.sample.covariates[~t], before[~t])
        shift = 10 ** -0.5      # case1-III's treated mean in every column
        assert np.allclose(after.sample.covariates[t] - shift, 2.0 * (before[t] - shift))

    def test_determinism(self):
        spec = scenario("case1-I")
        a = generate(spec, RngStream(65, 3))
        b = generate(spec, RngStream(65, 3))
        assert np.array_equal(a.sample.covariates, b.sample.covariates)
        assert np.array_equal(a.sample.outcome, b.sample.outcome)


class TestCase2Generator:
    def test_all_ps_in_unit_interval(self):
        spec = scenario("case2-II*", n=10000)
        data = generate(spec, RngStream(66, 0))
        assert (data.true_ps > 0).all() and (data.true_ps < 1).all()

    def test_treated_fraction_matches_mean_ps(self):
        # the assignment mechanism is Bernoulli(pi(x)), so the realized
        # treated fraction must track the mean propensity
        spec = scenario("case2-II*", n=20000)
        data = generate(spec, RngStream(67, 0))
        assert data.sample.treatment.mean() == pytest.approx(
            data.true_ps.mean(), abs=0.01
        )

    def test_mean_ps_derived_value(self):
        # no symmetry forces 0.5 here: with unequal arm covariances the Bayes
        # ratio under the N(0, I) marginal favors the tighter-determinant arm
        spec = scenario("case2-II*", n=20000)
        data = generate(spec, RngStream(68, 0))
        assert data.true_ps.mean() == pytest.approx(0.27, abs=0.03)

    def test_identical_arms_give_half(self):
        import dataclasses
        spec = scenario("case2-I*", n=5000)
        design = dataclasses.replace(spec.design, cov1=spec.design.cov0.copy(),
                                     mean1=spec.design.mean0.copy())
        spec = dataclasses.replace(spec, design=design)
        data = generate(spec, RngStream(69, 0))
        assert np.allclose(data.true_ps, 0.5)


@pytest.fixture(scope="module")
def config():
    return load_case3_config(COEF_CONFIG)


class TestCase3Generator:
    def test_truth_is_constant_effect(self, config):
        for letter in "ABCDEFG":
            spec = scenario(f"case3-{letter}", coefficients=config)
            value, source = true_effect(spec, "ace", seed=0)
            assert value == -0.4
            assert source == "analytic"

    def test_marginals(self, config):
        spec = scenario("case3-A", n=20000, coefficients=config)
        data = generate(spec, RngStream(70, 0))
        x = data.sample.covariates
        for idx in (1, 3, 5, 6, 8, 9):
            assert x[:, idx - 1].mean() == pytest.approx(0.5, abs=0.02)
        for idx in (2, 4, 7, 10):
            assert x[:, idx - 1].mean() == pytest.approx(0.0, abs=0.03)
            assert x[:, idx - 1].std() == pytest.approx(1.0, abs=0.03)

    def test_calibrated_correlations(self, config):
        spec = scenario("case3-A", n=20000, coefficients=config)
        data = generate(spec, RngStream(71, 0))
        x = data.sample.covariates
        for i, j, target in CASE3_CORRELATION_PAIRS:
            realized = np.corrcoef(x[:, i - 1], x[:, j - 1])[0, 1]
            expected = case3_realized_correlation(i, j, target)
            assert realized == pytest.approx(expected, abs=0.05)

    def test_latent_root_built_once_per_process(self, config, monkeypatch):
        from sdrmatch import simulation
        simulation._case3_latent_root()     # built by now, whatever ran before
        calls = []
        monkeypatch.setattr(simulation, "spd_power", lambda *a: calls.append(a))
        spec = scenario("case3-A", n=200, coefficients=config)
        first = generate(spec, RngStream(73, 0)).sample.covariates
        second = generate(spec, RngStream(73, 0)).sample.covariates
        assert calls == []
        assert np.array_equal(first, second)

    def test_binary_binary_pairs_hit_stated_target(self, config):
        # the 0.2 pairs are feasible and calibrated to the stated value
        assert case3_realized_correlation(1, 5, 0.2) == pytest.approx(0.2, abs=1e-12)
        assert case3_realized_correlation(3, 8, 0.2) == pytest.approx(0.2, abs=1e-12)

    def test_outcome_model(self, config):
        spec = scenario("case3-B", n=5000, coefficients=config)
        data = generate(spec, RngStream(72, 0))
        x, t, y = data.sample.covariates, data.sample.treatment, data.sample.outcome
        resid = y - (config.outcome_intercept + x @ config.outcome_coefficients
                     - 0.4 * t)
        assert resid.mean() == pytest.approx(0.0, abs=0.01)
        assert resid.std() == pytest.approx(0.1, abs=0.01)

    def test_noise_level_comes_from_the_config(self, config):
        # the config is the only place the family-3 noise level is held
        import dataclasses
        cfg = dataclasses.replace(config, noise_sd=2.0)
        spec = scenario("case3-B", n=5000, coefficients=cfg)
        assert spec.noise_sd == 2.0
        data = generate(spec, RngStream(72, 0))
        x, t, y = data.sample.covariates, data.sample.treatment, data.sample.outcome
        resid = y - (cfg.outcome_intercept + x @ cfg.outcome_coefficients - 0.4 * t)
        assert resid.std() == pytest.approx(2.0, rel=0.05)

    def test_zero_coefficients_give_half_ps(self, config):
        import dataclasses
        cfg = dataclasses.replace(config, scenarios={"A": [("const", 0.0)]})
        spec = scenario("case3-A", n=5000, coefficients=cfg)
        data = generate(spec, RngStream(73, 0))
        assert np.allclose(data.true_ps, 0.5)
        assert data.sample.treatment.mean() == pytest.approx(0.5, abs=0.03)

    def test_bad_term_index_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"outcome": {"coefficients": {"1": 1.0}, "treatment_effect": -0.4},'
            ' "scenarios": {"A": [["linear", 11, 1.0]]}}'
        )
        with pytest.raises(ConfigError):
            load_case3_config(bad)

    def test_missing_config_file(self):
        with pytest.raises(ConfigError):
            load_case3_config("/nonexistent/coefficients.json")

    def test_interaction_term_sets_true_ps(self, config):
        cfg = dataclasses.replace(config, scenarios={"A": [("inter", 4, 7, 0.8)]})
        data = generate(scenario("case3-A", n=200, coefficients=cfg), RngStream(75, 0))
        x = data.sample.covariates
        expected = 1.0 / (1.0 + np.exp(-0.8 * x[:, 3] * x[:, 6]))
        np.testing.assert_allclose(data.true_ps, expected, rtol=1e-15, atol=0.0)
        assert np.ptp(data.true_ps) > 0.5

    def test_overflowing_logit_gives_zero_ps_without_a_warning(self, tmp_path, capsys):
        # exp(800) overflows to inf, and 1 / (1 + inf) = 0 is the intended propensity
        path = tmp_path / "coefficients.json"
        path.write_bytes(_set_scenarios({"A": [["const", -800.0], ["linear", 4, 0.8]]}))
        data = generate(scenario("case3-A", n=100, coefficients=load_case3_config(path)),
                        RngStream(76, 0))
        assert (data.true_ps == 0.0).all()
        code = main(["simulate", "--scenario", "case3-A", "--n", "100", "--reps", "2",
                     "--methods", "ambient", "--coef-config", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == [
            "method,bias,sd,rmse,truth,reps,failures",
            "ambient,nan,nan,nan,-0.4,2,2",
        ]

    def test_overflowing_noise_exits_two_without_a_warning(self, tmp_path, capsys):
        # noise_sd 1e308 times a normal draw beyond 1.8 overflows; generate
        # names the scenario and the outcome, and no RuntimeWarning comes first
        path = tmp_path / "coefficients.json"
        path.write_bytes(_set_outcome("noise_sd", 1e308))
        message = "scenario A: the simulated outcome is not finite; rescale the config's outcome"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            generate(scenario("case3-A", n=100, coefficients=load_case3_config(path)),
                     RngStream(77, 0))
        code = main(["simulate", "--scenario", "case3-A", "--n", "100", "--reps", "2",
                     "--methods", "ambient", "--coef-config", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("terms", [[["quad", 4, 1e308], ["quad", 7, -1e308]],
                                       [["inter", 4, 5, 1e308]]], ids=["opposite", "inf-times-0"])
    def test_nan_logit_exits_two_without_a_warning(self, tmp_path, capsys, terms):
        # inf - inf, or 1e308 x_4 overflowing before it meets a binary x_5 = 0,
        # gives a NaN logit; uniform < NaN would put such a row in control
        path = tmp_path / "coefficients.json"
        path.write_bytes(_edited_config(lambda cfg: cfg["scenarios"]["A"].extend(terms)))
        message = "scenario A: the treatment logit is not a number; rescale its coefficients"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            generate(scenario("case3-A", n=100, coefficients=load_case3_config(path)),
                     RngStream(78, 0))
        code = main(["simulate", "--scenario", "case3-A", "--n", "100", "--reps", "2",
                     "--methods", "ambient", "--threads", "2", "--coef-config", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_overflowing_summary_exits_two_without_a_warning(self, tmp_path, capsys):
        # with noise_sd 1e160 each estimate is finite, near 1e159, but the
        # squares in its SD and RMSE overflow; the report would print inf
        path = tmp_path / "coefficients.json"
        path.write_bytes(_set_outcome("noise_sd", 1e160))
        spec = scenario("case3-A", n=100, methods=("ambient",),
                        coefficients=load_case3_config(path))
        with pytest.raises(InvalidArgument, match="^the ambient summary overflows; rescale the "
                                                  "outcome$"):
            run_monte_carlo(spec, 3)
        code = main(["simulate", "--scenario", "case3-A", "--n", "100", "--reps", "3",
                     "--methods", "ambient", "--coef-config", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: the ambient summary overflows; rescale the outcome\n"

    def test_text_report_splits_values_wider_than_their_fields(self, tmp_path, capsys):
        # with treatment_effect -1e160 the bias and RMSE print 145 digits before
        # the point, wider than their 12-character fields
        path = tmp_path / "coefficients.json"
        path.write_bytes(_set_outcome("treatment_effect", -1e160))
        argv = ["simulate", "--scenario", "case3-A", "--n", "100", "--reps", "3",
                "--methods", "ambient,sdr", "--coef-config", str(path)]
        assert main(argv) == 0
        csv_rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[2:]]
        assert main([*argv, "--format", "text"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        text_rows = [row[32:].split() for row in captured.out.splitlines()[3:]]
        assert [len(row) for row in text_rows] == [4, 4]
        assert len(text_rows[0][0]) > 12
        for text, csv in zip(text_rows, csv_rows):
            np.testing.assert_array_equal([float(v) for v in text[:3]],
                                          [float(v) for v in csv[1:4]])
            assert text[3] == csv[6]


def _edited_config(edit) -> bytes:
    cfg = json.loads(COEF_CONFIG.read_text(encoding="utf-8"))
    edit(cfg)
    return json.dumps(cfg).encode("utf-8")


def _set_outcome(key, value):
    return _edited_config(lambda cfg: cfg["outcome"].__setitem__(key, value))


def _set_scenarios(value):
    return _edited_config(lambda cfg: cfg.__setitem__("scenarios", value))


def _add_term(term):
    return _edited_config(lambda cfg: cfg["scenarios"]["A"].append(term))


# well-formed JSON with wrong types or values, missing keys, invalid JSON and
# bytes that are not UTF-8: (config file bytes, the ConfigError message)
MALFORMED_CONFIGS = {
    "coefficient-key-not-an-index": (
        _set_outcome("coefficients", {"x": 1}), "outcome coefficient index x outside 1..10"),
    "coefficient-index-out-of-range": (
        _set_outcome("coefficients", {"11": 1.0}), "outcome coefficient index 11 outside 1..10"),
    "coefficients-a-list": (
        _set_outcome("coefficients", [1, 2]),
        "outcome coefficients and scenarios must be JSON objects"),
    "coefficient-infinite": (
        _set_outcome("coefficients", {"1": float("inf")}),
        "outcome coefficient 1 must be a finite number, got inf"),
    "coefficients-norm-overflows": (
        _set_outcome("coefficients", {"1": 1e160}),
        "outcome coefficients must have a finite, nonzero norm, got inf"),
    "coefficients-all-zero": (
        _set_outcome("coefficients", {"3": 0.0}),
        "outcome coefficients must have a finite, nonzero norm, got 0.0"),
    "effect-nan": (
        _set_outcome("treatment_effect", float("nan")),
        "treatment_effect must be a finite number, got nan"),
    "intercept-beyond-float": (
        _set_outcome("intercept", 10 ** 400),
        f"intercept must be a finite number, got {10 ** 400}"),
    "intercept-a-string": (
        _set_outcome("intercept", "high"), "intercept must be a finite number, got 'high'"),
    "noise-sd-negative": (_set_outcome("noise_sd", -0.1), "noise_sd must be >= 0, got -0.1"),
    "scenarios-a-list": (
        _set_scenarios([]), "outcome coefficients and scenarios must be JSON objects"),
    "terms-not-a-list": (
        _set_scenarios({"A": "linear"}), "scenario A: terms must be a non-empty list"),
    "term-not-a-list": (_add_term(5), "scenario A: malformed term 5"),
    "term-kind-a-list": (_add_term([["const"], 0]), "scenario A: unknown term kind ['const']"),
    "term-kind-unknown": (_add_term(["cubic", 1, 1.0]), "scenario A: unknown term kind 'cubic'"),
    "term-wrong-arity": (
        _add_term(["linear", 1]), "scenario A: term ['linear', 1] has wrong arity"),
    "term-index-null": (
        _add_term(["linear", None, 1]),
        "scenario A: term ['linear', None, 1] references covariate None, valid range is 1..10"),
    "term-coefficient-a-string": (
        _add_term(["linear", 2, "abc"]),
        "scenario A: term ['linear', 2, 'abc'] coefficient must be a finite number, got 'abc'"),
    "term-index-bool": (
        _add_term(["linear", True, 0.5]),
        "scenario A: term ['linear', True, 0.5] references covariate True, "
        "valid range is 1..10"),
    "term-coefficient-bool": (
        _add_term(["const", False]),
        "scenario A: term ['const', False] coefficient must be a finite number, got False"),
    "term-coefficient-nan": (
        _add_term(["quad", 4, float("nan")]),
        "scenario A: term ['quad', 4, nan] coefficient must be a finite number, got nan"),
    "missing-key": (
        _edited_config(lambda cfg: cfg.pop("scenarios")),
        "coefficient config missing required key: 'scenarios'"),
    "invalid-json": (
        b'{"outcome": ', "coefficient config is not valid JSON: Expecting value: "
                         "line 1 column 13 (char 12)"),
    "not-utf8": (b'{"outcome": "\xff"}', "coefficient config is not valid JSON: 'utf-8' "
                                          "codec can't decode byte 0xff in position 13: "
                                          "invalid start byte"),
}


@pytest.mark.parametrize("body, message", MALFORMED_CONFIGS.values(),
                         ids=MALFORMED_CONFIGS.keys())
class TestMalformedConfig:
    def test_load_raises_config_error(self, tmp_path, body, message):
        path = tmp_path / "coefficients.json"
        path.write_bytes(body)
        with pytest.raises(ConfigError) as err:
            load_case3_config(path)
        assert str(err.value) == message

    def test_cli_exits_two_with_one_error_line(self, tmp_path, capsys, body, message):
        path = tmp_path / "coefficients.json"
        path.write_bytes(body)
        code = main(["simulate", "--scenario", "case3-A", "--n", "60", "--reps", "2",
                     "--methods", "ambient", "--coef-config", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestTruths:
    def test_analytic_values(self):
        assert true_effect(scenario("case1-I"), "ace", 0)[0] == 4.25
        assert true_effect(scenario("case1-II"), "ace", 0)[0] == 1.0
        assert true_effect(scenario("case1-III"), "ace", 0)[0] == pytest.approx(10 ** -0.5)
        assert true_effect(scenario("case2-I*"), "ace", 0)[0] == 4.25
        assert true_effect(scenario("case2-II*"), "ace", 0)[0] == 1.0

    @pytest.mark.parametrize("p", [5, 10, 20])
    def test_analytic_truths_match_monte_carlo(self, p):
        # the analytic values against 100,000 draws (model I's s.e. is about
        # 0.01): model III's ACE is p^-0.5, 0.09 or more from 10^-0.5 at p = 5, 20
        for case, estimand in [("case1-I", "ace"), ("case1-II", "ace"), ("case1-II", "acet"),
                               ("case1-III", "ace"), ("case2-I*", "ace"), ("case2-II*", "ace"),
                               ("case2-II*", "acet")]:
            spec = scenario(case, p=p)
            assert true_effect(spec, estimand, seed=0)[1] == "analytic"
            mc = monte_carlo_truth(spec, estimand, seed=3, n_draws=100_000)
            assert true_effect(spec, estimand, seed=0)[0] == pytest.approx(mc, abs=0.05), case

    def test_monte_carlo_truth_matches_analytic(self):
        # generator-level check at reduced draw count; the acceptance suite
        # runs the full million-draw version
        spec = scenario("case1-II")
        assert monte_carlo_truth(spec, "ace", seed=0, n_draws=100000) == pytest.approx(
            1.0, abs=0.01
        )

    def test_model_four_truth_is_mc(self):
        value, source = true_effect(scenario("case1-IV"), "ace", seed=0)
        assert source == "monte-carlo"
        assert np.isfinite(value)

    def test_acet_truth_uses_treated_arm(self):
        spec = scenario("case1-I")
        value = monte_carlo_truth(spec, "acet", seed=0, n_draws=200000)
        # model I treated arm is standard normal in X1, so the effect mean
        # matches the ACE value here
        assert value == pytest.approx(4.25, abs=0.05)

    def test_case3_monte_carlo_truth_is_the_config_effect(self, config):
        spec = scenario("case3-C", coefficients=config)
        for estimand in ("ace", "acet"):
            assert monte_carlo_truth(spec, estimand, seed=0) == config.treatment_effect == -0.4

    def test_unknown_estimand(self):
        with pytest.raises(InvalidArgument, match=r"^unknown estimand 'att'$"):
            true_effect(scenario("case1-I"), "att", 0)

    @pytest.mark.parametrize("case", ["case1-IV", "case2-I*"])
    def test_monte_carlo_truth_rejects_unknown_estimand(self, case):
        with pytest.raises(InvalidArgument, match=r"^unknown estimand 'bogus'$"):
            monte_carlo_truth(scenario(case), "bogus", seed=0, n_draws=1000)

    @pytest.mark.parametrize("case", ["case1-IV", "case2-I*"])
    @pytest.mark.parametrize("n_draws", [0, -5])
    def test_monte_carlo_truth_rejects_no_draws(self, case, n_draws):
        with pytest.raises(InvalidArgument, match=rf"^n_draws must be >= 1, got {n_draws}$"):
            monte_carlo_truth(scenario(case), "ace", seed=0, n_draws=n_draws)


class TestMonteCarloHarness:
    def test_reps_minimum(self):
        with pytest.raises(InvalidArgument):
            run_monte_carlo(scenario("case1-I"), 1)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_minimum(self, threads):
        with pytest.raises(InvalidArgument, match=rf"^threads must be >= 1, got {threads}$"):
            run_monte_carlo(scenario("case1-I", n=200, methods=("ambient",)), 2,
                            threads=threads)

    def test_report_identity(self):
        spec = scenario("case1-II", n=200, methods=("ambient",))
        report = run_monte_carlo(spec, 12, seed=5)
        res = report.methods["ambient"]
        r = report.reps - res.failures
        lhs = res.rmse ** 2
        rhs = res.bias ** 2 + res.sd ** 2 * (r - 1) / r
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_two_replicates_finite(self):
        spec = scenario("case1-II", n=200, methods=("ambient",))
        report = run_monte_carlo(spec, 2, seed=6)
        assert np.isfinite(report.methods["ambient"].sd)

    def test_thread_count_never_changes_results(self):
        spec = scenario("case1-II", n=200, methods=("sdr", "ambient"))
        serial = run_monte_carlo(spec, 6, seed=7, threads=1)
        threaded = run_monte_carlo(spec, 6, seed=7, threads=4)
        for method in spec.methods:
            assert serial.methods[method] == threaded.methods[method]
        assert serial.truth == threaded.truth

    def test_all_methods_run(self):
        spec = scenario("case1-III", n=200)
        report = run_monte_carlo(spec, 3, seed=8)
        assert set(report.methods) == set(spec.methods)
        for res in report.methods.values():
            assert res.failures == 0

    def test_acet_estimand(self):
        spec = scenario("case1-II", n=200, methods=("sdr",))
        report = run_monte_carlo(spec, 4, seed=9, estimand="acet")
        assert report.estimand == "acet"
        assert report.truth == 1.0

    def test_case3_recovers_constant_effect(self, config):
        spec = scenario("case3-A", n=500, methods=("sdr",), coefficients=config)
        report = run_monte_carlo(spec, 60, seed=10)
        res = report.methods["sdr"]
        assert report.truth == -0.4
        assert abs(res.bias) <= 3.0 * res.sd / np.sqrt(report.reps - res.failures)


class TestFailureAccounting:
    """Replicates whose fits raise. At n = 50 the smaller case1-I arm has 19-25
    subjects in the first eight replicates of seed 3, so an n_matches above
    that leaves too few donors, and 26 slices exceed either arm, so sdr fails
    in every replicate."""

    REPS = 8
    SEED = 3

    def smaller_arms(self, spec):
        sizes = []
        for rep in range(self.REPS):
            treated = int(generate(spec, RngStream(self.SEED, rep)).sample.treatment.sum())
            sizes.append(min(treated, spec.n - treated))
        return sizes

    def run(self, methods, n_matches):
        spec = scenario("case1-I", n=50, methods=methods)
        return run_monte_carlo(spec, self.REPS, seed=self.SEED, n_matches=n_matches,
                               n_slices=26)

    def test_failures_counted_per_replicate_and_method(self):
        n_matches = 22
        short = sum(size < n_matches for size in self.smaller_arms(scenario("case1-I", n=50)))
        assert 0 < short < self.REPS
        report = self.run(("ambient", "sdr"), n_matches)
        ambient = report.methods["ambient"]
        assert ambient.failures == short
        assert np.isfinite([ambient.bias, ambient.sd, ambient.rmse]).all()
        assert report.methods["sdr"].failures == self.REPS
        # sdr failing in every replicate leaves ambient's values as they are alone
        assert ambient == self.run(("ambient",), n_matches).methods["ambient"]

    @pytest.mark.parametrize("n_matches, good", [(24, 1), (26, 0)])
    def test_fewer_than_two_good_values_give_nan(self, n_matches, good):
        sizes = self.smaller_arms(scenario("case1-I", n=50))
        assert sum(size >= n_matches for size in sizes) == good
        res = self.run(("ambient",), n_matches).methods["ambient"]
        assert res.failures == self.REPS - good
        assert np.isnan([res.bias, res.sd, res.rmse]).all()

    def test_cli_reports_nan_and_exits_zero(self, capsys):
        code = main(["simulate", "--scenario", "case1-I", "--n", "50", "--reps", "3",
                     "--seed", str(self.SEED), "--methods", "ambient", "--m", "26"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == [
            "method,bias,sd,rmse,truth,reps,failures",
            "ambient,nan,nan,nan,4.25,3,3",
        ]
