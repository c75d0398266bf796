import numpy as np
import pytest

from sdrmatch import propensity
from sdrmatch.errors import DegenerateLabels, InvalidArgument, InvalidMatrix, NotPSD
from sdrmatch.numerics import RngStream
from sdrmatch.propensity import (
    GaussianMixtureDesign,
    LogisticModel,
    fit_logistic,
    predict_ps,
    true_ps_bayes,
)


class TestFitLogistic:
    def test_symmetric_data_gives_zero_model(self):
        x = np.array([[-1.0], [-1.0], [1.0], [1.0]])
        t = np.array([0, 1, 0, 1])
        model = fit_logistic(x, t)
        assert abs(model.intercept) < 1e-6
        assert abs(model.coefficients[0]) < 1e-6
        assert model.converged

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            fit_logistic(np.ones((3, 1)), np.array([1, 1, 1]))

    def test_misaligned_input_rejected(self):
        with pytest.raises(InvalidArgument, match="^covariates and treatment must align$"):
            fit_logistic(np.ones((4, 1)), np.array([0, 1, 0]))

    def test_perfect_separation_not_converged(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        t = np.array([0, 0, 1, 1])
        model = fit_logistic(x, t)
        assert not model.converged

    def test_failed_step_halving_keeps_current_iterate(self, monkeypatch):
        # every move away from the start lowers this log-likelihood by more
        # than any step can gain, so no halved Newton step is acceptable
        x = np.array([[-2.0], [-1.0], [0.5], [1.0], [2.0]])
        t = np.array([0, 1, 0, 1, 1])
        true_log_likelihood = propensity._log_likelihood

        def lowered_off_start(y, eta):
            value = true_log_likelihood(y, eta)
            return value - 1e3 if eta.any() else value

        monkeypatch.setattr(propensity, "_log_likelihood", lowered_off_start)
        model = fit_logistic(x, t)
        assert not model.converged
        assert model.intercept == 0.0
        assert not model.coefficients.any()

    def test_singular_hessian_keeps_the_starting_iterate(self, monkeypatch):
        # the start is not a solution, so the fit reaches the Newton solve
        x = np.array([[-2.0], [-1.0], [0.5], [1.0], [2.0]])
        t = np.array([0, 1, 0, 1, 1])
        assert np.abs(np.column_stack([np.ones(5), x]).T @ (t - 0.5)).max() > 0.0

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(propensity.np.linalg, "solve", singular)
        model = fit_logistic(x, t)
        assert not model.converged
        assert model.iterations == 0
        assert model.intercept == 0.0
        assert not model.coefficients.any()

    def test_converges_in_large_units(self):
        # a raw score entry sums 20,000 terms of size 1e6: its rounding alone
        # exceeds an absolute 1e-8, so only the unit-scale test can pass
        rng = np.random.default_rng(17)
        n = 20_000
        z = rng.standard_normal((n, 3))
        logit = 0.3 + z @ np.array([0.5, -0.25, 0.1])
        t = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
        model = fit_logistic(z * 1e6, t)
        assert model.converged
        assert model.iterations < 20
        unit = fit_logistic(z, t)
        assert np.allclose(model.coefficients * 1e6, unit.coefficients, rtol=1e-9)

    def test_line_search_accepts_steps_within_the_log_likelihood_rounding(self):
        # |loglik| is about 8.5e4 on these 140,000 rows, where one ulp (1.5e-11)
        # exceeds an absolute slack of 1e-12: rounding alone rejected the last
        # Newton steps, and the fit took 7-14 iterations instead of 5
        n, p = 200_000, 10      # a case1-III-like draw; the fit reads its first 140,000 rows
        rng = np.random.default_rng([11, 5000])
        lag = np.arange(p)
        root = np.linalg.cholesky(0.2 ** np.abs(lag[:, None] - lag[None, :]))
        t = (rng.random(n) < 0.5).astype(np.int64)
        x = rng.standard_normal((n, p)) @ root.T + np.where(t[:, None] == 1, p ** -0.5, 0.0)
        model = fit_logistic(x[:140_000], t[:140_000])
        assert model.converged
        assert model.iterations <= 6

    def test_iteration_cap_stops_unconverged(self, monkeypatch):
        # overlapping arms, so the MLE exists; one Newton step from zero does not reach it
        rng = RngStream(46)
        x = rng.normal((200, 2))
        t = (rng.uniform(200) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(int)
        assert fit_logistic(x, t).converged
        monkeypatch.setattr(propensity, "_MAX_ITER", 1)
        model = fit_logistic(x, t)
        assert model.converged is False
        assert model.iterations == 1

    @pytest.mark.parametrize("scale", [1e154, 1e200])
    def test_overflowing_hessian_raises_typed_error(self, scale):
        # the Hessian sums squared covariates, so from about 1e154 it overflows
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 3))
        t = (rng.uniform(size=60) < 0.5).astype(int)
        with pytest.raises(InvalidMatrix) as info:
            fit_logistic(x * scale, t)
        assert str(info.value) == "the logistic Hessian is not finite; rescale the covariates"

    def test_fits_just_below_the_overflow(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 3))
        t = (rng.uniform(size=60) < 0.5).astype(int)
        unit = fit_logistic(x, t)
        for scale in (1e150, 1e153):
            model = fit_logistic(x * scale, t)
            assert model.converged
            assert model.intercept == pytest.approx(unit.intercept, rel=1e-12)
            assert np.allclose(model.coefficients * scale, unit.coefficients, rtol=1e-12)

    def test_gradient_small_at_reported_convergence(self):
        rng = RngStream(41)
        x = rng.normal((400, 3))
        logit = 0.5 + x @ np.array([1.0, -0.5, 0.25])
        t = (rng.uniform(400) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
        model = fit_logistic(x, t)
        assert model.converged
        design = np.column_stack([np.ones(400), x])
        eta = model.intercept + x @ model.coefficients
        prob = 1.0 / (1.0 + np.exp(-eta))
        score = design.T @ (t - prob)
        assert np.abs(score).max() <= 1e-8

    def test_recovers_equal_covariance_logit(self):
        # equal within-group covariances make the true logit affine in x
        rng = RngStream(42)
        n, p = 20000, 4
        mean1 = np.array([1.0, 0.5, -0.5, 0.25])
        t = (rng.uniform(n) < 0.5).astype(np.int64)
        z = rng.normal((n, p))
        x = z + np.outer(t, mean1)
        model = fit_logistic(x, t)
        truth = mean1  # Sigma^{-1}(mu1 - mu0) with Sigma = I
        cosine = truth @ model.coefficients / (
            np.linalg.norm(truth) * np.linalg.norm(model.coefficients)
        )
        assert model.converged
        assert cosine >= 0.95


class TestPredictPs:
    def test_zero_model(self):
        model = LogisticModel(0.0, np.zeros(2), True, 0)
        out = predict_ps(model, np.random.default_rng(0).normal(size=(5, 2)))
        assert np.allclose(out, 0.5)

    def test_intercept_only(self):
        model = LogisticModel(np.log(3.0), np.zeros(0), True, 0)
        out = predict_ps(model, np.empty((4, 0)))
        assert np.allclose(out, 0.75)

    def test_clamps_extremes(self):
        model = LogisticModel(0.0, np.array([100.0]), True, 0)
        out = predict_ps(model, np.array([[1000.0]]))
        assert out[0] == 1.0 - 1e-12

    def test_dimension_mismatch(self):
        model = LogisticModel(0.0, np.zeros(2), True, 0)
        with pytest.raises(InvalidArgument):
            predict_ps(model, np.ones((3, 5)))


class TestTruePsBayes:
    def test_identical_arms_give_half(self):
        design = GaussianMixtureDesign(
            np.zeros(2), np.zeros(2), np.eye(2), np.eye(2), 0.5
        )
        x = RngStream(43).normal((50, 2))
        assert np.allclose(true_ps_bayes(design, x), 0.5)

    def test_equidistant_point(self):
        design = GaussianMixtureDesign(
            np.array([0.0]), np.array([1.0]), np.eye(1), np.eye(1), 0.5
        )
        assert true_ps_bayes(design, np.array([[0.5]]))[0] == pytest.approx(0.5)

    def test_at_treated_mean(self):
        p = 3
        mean1 = np.zeros(p)
        mean1[0] = 1.0
        design = GaussianMixtureDesign(np.zeros(p), mean1, np.eye(p), np.eye(p), 0.5)
        out = true_ps_bayes(design, mean1.reshape(1, -1))
        # log-density gap is 1/2, so pi = logistic(0.5)
        assert out[0] == pytest.approx(1.0 / (1.0 + np.exp(-0.5)), abs=1e-12)

    def test_role_swap_sums_to_one(self):
        rng = RngStream(44)
        a = rng.normal((5, 3))
        cov0 = a.T @ a / 5 + np.eye(3)
        b = rng.normal((5, 3))
        cov1 = b.T @ b / 5 + np.eye(3)
        design = GaussianMixtureDesign(rng.normal(3), rng.normal(3), cov0, cov1, 0.3)
        swapped = GaussianMixtureDesign(
            design.mean1, design.mean0, design.cov1, design.cov0, 0.7
        )
        x = rng.normal((200, 3))
        total = true_ps_bayes(design, x) + true_ps_bayes(swapped, x)
        assert np.abs(total - 1.0).max() < 1e-12

    def test_covariance_changed_in_place_is_not_served_stale(self):
        # the decomposition is cached by the covariance's bytes, not its identity
        cov = np.eye(2)
        design = GaussianMixtureDesign(np.zeros(2), np.ones(2), np.eye(2), cov, 0.5)
        x = RngStream(45).normal((20, 2))
        first = true_ps_bayes(design, x)
        cov[0, 1] = cov[1, 0] = 0.5
        fresh = GaussianMixtureDesign(np.zeros(2), np.ones(2), np.eye(2), cov.copy(), 0.5)
        assert np.array_equal(true_ps_bayes(design, x), true_ps_bayes(fresh, x))
        assert not np.array_equal(true_ps_bayes(design, x), first)

    def test_singular_covariance_rejected(self):
        design = GaussianMixtureDesign(
            np.zeros(2), np.zeros(2), np.diag([1.0, 0.0]), np.eye(2), 0.5
        )
        with pytest.raises(NotPSD):
            true_ps_bayes(design, np.zeros((1, 2)))

    def test_covariance_in_small_units_is_not_singular(self):
        # the singularity test is relative to the largest eigenvalue: the design in units
        # 1e7 times smaller, covariances 1e-13 I, gives the same probabilities
        scale = 1e7
        mean1 = np.array([1.0, -0.5])
        x = RngStream(46).normal((30, 2)) * np.sqrt(10.0)
        big = GaussianMixtureDesign(np.zeros(2), mean1, 10.0 * np.eye(2), 10.0 * np.eye(2), 0.4)
        small = GaussianMixtureDesign(np.zeros(2), mean1 / scale, 1e-13 * np.eye(2),
                                      1e-13 * np.eye(2), 0.4)
        np.testing.assert_allclose(true_ps_bayes(small, x / scale), true_ps_bayes(big, x),
                                   rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("unit", [1e-13, 1.0, 1e13])
    @pytest.mark.parametrize("smallest", [0.0, 1e-13])
    def test_singular_covariance_rejected_in_any_units(self, unit, smallest):
        cov = unit * np.diag([1.0, smallest])
        design = GaussianMixtureDesign(np.zeros(2), np.zeros(2), np.eye(2), cov, 0.5)
        with pytest.raises(NotPSD, match="^covariance is singular; density undefined$"):
            true_ps_bayes(design, np.zeros((1, 2)))

    def test_wrong_column_count_rejected(self):
        design = GaussianMixtureDesign(np.zeros(2), np.zeros(2), np.eye(2), np.eye(2), 0.5)
        with pytest.raises(InvalidArgument, match="^expected 2 columns, got 3$"):
            true_ps_bayes(design, np.zeros((4, 3)))

    def test_bad_treat_prob_rejected(self):
        with pytest.raises(InvalidArgument):
            GaussianMixtureDesign(np.zeros(1), np.zeros(1), np.eye(1), np.eye(1), 1.0)
