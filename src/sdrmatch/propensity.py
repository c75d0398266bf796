"""Propensity-score baselines.

Two sources of scores: a from-scratch Newton-Raphson logistic MLE (the
"estimated PS" baseline) and the exact Bayes-rule propensity for designs where
each treatment arm draws covariates from a known Gaussian (the "true PS").
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DegenerateLabels, InvalidArgument, InvalidMatrix, NotPSD

__all__ = [
    "LogisticModel",
    "GaussianMixtureDesign",
    "fit_logistic",
    "predict_ps",
    "true_ps_bayes",
]

_PROB_CLAMP = 1e-12
_MAX_ITER = 100
_TOL = 1e-8


@dataclass(frozen=True)
class LogisticModel:
    intercept: float
    coefficients: np.ndarray
    converged: bool
    iterations: int


@dataclass(frozen=True)
class GaussianMixtureDesign:
    """Two-arm Gaussian design: X | T=t ~ N(mean_t, cov_t), P(T=1) = treat_prob."""

    mean0: np.ndarray
    mean1: np.ndarray
    cov0: np.ndarray
    cov1: np.ndarray
    treat_prob: float

    def __post_init__(self):
        if not 0.0 < self.treat_prob < 1.0:
            raise InvalidArgument(f"treat_prob must be in (0, 1), got {self.treat_prob}")

    def factors(self, t: int) -> tuple[np.ndarray, numerics.EigenDecomposition]:
        """Arm t's (spd_power(cov_t, 0.5), sym_eigen(cov_t)), cached read-only by value."""
        cov = np.asarray(self.cov1 if t else self.cov0, dtype=float)
        return _frozen_factors(cov.tobytes(), cov.shape)


@functools.lru_cache(maxsize=16)
def _frozen_factors(data: bytes, shape: tuple) -> tuple[np.ndarray, numerics.EigenDecomposition]:
    cov = np.frombuffer(data).reshape(shape)
    root, eig = numerics.spd_power(cov, 0.5), numerics.sym_eigen(cov)
    for part in (root, *eig):
        part.flags.writeable = False
    return root, eig


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _log_likelihood(y: np.ndarray, eta: np.ndarray) -> float:
    # log sigma(eta) for y=1 plus log sigma(-eta) for y=0, stably
    return float(-np.logaddexp(0.0, np.where(y == 1, -eta, eta)).sum())


def fit_logistic(covariates, treatment) -> LogisticModel:
    """Newton-Raphson logistic MLE with step halving, at most 100 iterations.

    Convergence means the score (log-likelihood gradient) is at most
    tol = 1e-8 at unit scale: max_j |g_j| / max(1, max_i |design_ij|) <= tol.
    Score entry j sums design column j, so for covariates in large units its
    rounding alone can exceed a raw tol; the division removes the units.
    Under separation the gradient also vanishes while the coefficients
    diverge, so the fit additionally stops with converged=False once every
    fitted probability sits within 10*tol of its label. A step may lower the
    log-likelihood by its rounding, 1e-12 relative; when 30 halvings of a
    Newton step all lower it further, the fit keeps the current coefficients
    and stops with converged=False.

    Raises:
        DegenerateLabels: treatment contains a single class.
        InvalidMatrix: the gradient or Hessian is not finite (covariates too large to square).
    """
    x = np.atleast_2d(np.asarray(covariates, dtype=float, order="C"))
    y = np.asarray(treatment, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise InvalidArgument("covariates and treatment must align")
    if y.min() == y.max():
        raise DegenerateLabels("treatment contains a single class")

    design = np.column_stack([np.ones(x.shape[0]), x])
    column_size = np.maximum(1.0, np.abs(design).max(axis=0))
    beta = np.zeros(design.shape[1])
    eta = design @ beta
    loglik = _log_likelihood(y, eta)
    converged = False
    for iterations in range(_MAX_ITER + 1):
        prob = _sigmoid(eta)
        residual = y - prob
        if np.abs(residual).max() < 10.0 * _TOL:
            break  # saturated fit: separation, MLE at infinity
        with np.errstate(over="ignore", invalid="ignore"):
            gradient = design.T @ residual
        if (np.abs(gradient) / column_size).max() <= _TOL:
            converged = True
            break
        if iterations == _MAX_ITER:
            break
        weights = prob * (1.0 - prob)
        with np.errstate(over="ignore", invalid="ignore"):
            hessian = design.T @ (design * weights[:, None])
        if not (np.isfinite(gradient).all() and np.isfinite(hessian).all()):
            raise InvalidMatrix("the logistic Hessian is not finite; rescale the covariates")
        hessian[np.diag_indices_from(hessian)] += 1e-12
        try:
            step = np.linalg.solve(hessian, gradient)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            cand_eta = design @ candidate
            cand_ll = _log_likelihood(y, cand_eta)
            if cand_ll >= loglik - 1e-12 * max(1.0, abs(loglik)):
                break
            scale *= 0.5
        else:
            break  # no step recovers the log-likelihood: keep the current iterate
        beta, eta, loglik = candidate, cand_eta, cand_ll

    return LogisticModel(
        intercept=float(beta[0]),
        coefficients=beta[1:].copy(),
        converged=converged,
        iterations=iterations,
    )


def predict_ps(model: LogisticModel, covariates) -> np.ndarray:
    """Fitted treatment probabilities, clamped away from 0 and 1."""
    x = np.atleast_2d(np.asarray(covariates, dtype=float, order="C"))
    if x.shape[1] != model.coefficients.shape[0]:
        raise InvalidArgument(
            f"expected {model.coefficients.shape[0]} columns, got {x.shape[1]}"
        )
    eta = model.intercept + x @ model.coefficients
    return np.clip(_sigmoid(eta), _PROB_CLAMP, 1.0 - _PROB_CLAMP)


def _log_mvn_density(x: np.ndarray, mean: np.ndarray,
                     eig: numerics.EigenDecomposition) -> np.ndarray:
    values = eig.eigenvalues
    if values.min() <= 1e-12 * values.max():
        raise NotPSD("covariance is singular; density undefined")
    centered = x - mean
    proj = centered @ eig.eigenvectors
    quad = (proj ** 2 / values).sum(axis=1)
    logdet = float(np.log(values).sum())
    k = mean.shape[0]
    return -0.5 * (k * np.log(2.0 * np.pi) + logdet + quad)


def true_ps_bayes(design: GaussianMixtureDesign, covariates) -> np.ndarray:
    """Exact P(T=1 | X=x) for a two-arm Gaussian design, in log space.

    pi(x) = q phi(x; mean1, cov1) / {(1-q) phi(x; mean0, cov0) + q phi(x; mean1, cov1)}
    """
    x = np.atleast_2d(np.asarray(covariates, dtype=float))
    mean0 = np.asarray(design.mean0, dtype=float)
    mean1 = np.asarray(design.mean1, dtype=float)
    if x.shape[1] != mean0.shape[0]:
        raise InvalidArgument(f"expected {mean0.shape[0]} columns, got {x.shape[1]}")
    log1 = np.log(design.treat_prob) + _log_mvn_density(x, mean1, design.factors(1)[1])
    log0 = np.log(1.0 - design.treat_prob) + _log_mvn_density(x, mean0, design.factors(0)[1])
    return np.exp(log1 - np.logaddexp(log0, log1))
