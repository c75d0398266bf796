"""Data-generating processes and a seeded Monte Carlo comparison harness.

Three simulation families are supported:

* family 1 -- treatment drawn marginally, covariates Gaussian within each arm
  with AR(1) correlation, four outcome models (I-IV);
* family 2 -- covariates standard normal in the merged sample, treatment
  drawn from the family-1 Bayes propensity functional (models I*, II*);
* family 3 -- ten mixed binary/continuous covariates with a logit treatment
  model whose coefficients and quadratic/interaction terms come from a
  user-supplied config file, linear outcome with a constant effect.

run_monte_carlo replays R independent replicates, each on its own random
stream, runs every requested matching method on the identical dataset, and
aggregates bias/SD/RMSE against the scenario's true effect.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from . import matching, sdr
from .dataset import ObservationalSample
from .errors import ConfigError, InvalidArgument, SdrMatchError
from .numerics import RngStream, spd_power
from .propensity import GaussianMixtureDesign, true_ps_bayes

__all__ = [
    "ScenarioSpec",
    "GeneratedData",
    "Case3Config",
    "MethodResult",
    "MonteCarloReport",
    "SCENARIO_IDS",
    "scenario",
    "load_case3_config",
    "generate",
    "effect_function",
    "monte_carlo_truth",
    "true_effect",
    "run_monte_carlo",
]

CASE1_IDS = ("case1-I", "case1-II", "case1-III", "case1-IV")
CASE2_IDS = ("case2-I*", "case2-II*")
CASE3_IDS = tuple(f"case3-{s}" for s in "ABCDEFG")
SCENARIO_IDS = CASE1_IDS + CASE2_IDS + CASE3_IDS

TRUTH_STREAM = (1 << 63) - 1
_TRUTH_DRAWS = 10 ** 6
_CHUNK = 200_000

# family 3 covariate structure: 1-based indices of the binary columns and the
# (i, j, target correlation) pairs from the mixed-covariate design
CASE3_P = 10
CASE3_BINARY = (1, 3, 5, 6, 8, 9)
CASE3_CORRELATION_PAIRS = ((1, 5, 0.2), (3, 8, 0.2), (2, 6, 0.9), (4, 9, 0.9))


# =============================================================================
# Scenario specifications
# =============================================================================

@dataclass(frozen=True)
class Case3Config:
    """Coefficients for the family-3 logit treatment model and linear outcome."""

    outcome_intercept: float
    outcome_coefficients: np.ndarray        # length 10
    treatment_effect: float
    noise_sd: float
    scenarios: dict                          # letter -> list of term tuples


@dataclass(frozen=True)
class ScenarioSpec:
    """One data-generating process plus the methods compared on it.

    design is the family's payload: the arms' Gaussian covariate laws
    (GaussianMixtureDesign) for families 1 and 2, the coefficient config
    (Case3Config) for family 3.
    """

    case: str
    family: str
    model: str
    n: int
    p: int
    methods: tuple
    design: GaussianMixtureDesign | Case3Config
    oracle_basis_control: np.ndarray
    oracle_basis_treated: np.ndarray
    active_columns: tuple

    @property
    def noise_sd(self) -> float:
        """Outcome noise s.d.: 0.5 in families 1 and 2, the config's in family 3."""
        return self.design.noise_sd if self.family == "case3" else 0.5


def _ar1_covariance(p: int, delta: float) -> np.ndarray:
    idx = np.arange(p)
    return delta ** np.abs(idx[:, None] - idx[None, :])


def _unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _case1_parameters(model: str, p: int):
    """(mean1, delta1, oracle bases, active columns) for models I-IV; scenario()
    has already checked the model id."""
    e = np.eye(p)
    if model == "I":
        mean1 = np.zeros(p)
        basis0 = basis1 = _unit(e[0])
        active = (0,)
        delta1 = 0.5
    elif model == "II":
        mean1 = np.where(np.arange(p) < 3, 1.0 / 3.0, 0.0)
        basis0 = basis1 = _unit(e[0] + e[1] - e[2])
        active = (0, 1, 2)
        delta1 = 0.5
    elif model == "III":
        mean1 = np.full(p, p ** -0.5)
        basis0 = _unit(e[0] + e[1] + e[2])
        basis1 = _unit(e[0] + e[1] + e[2] + e[3] + e[4])
        active = (0, 1, 2, 3, 4)
        delta1 = 0.2
    else:  # model IV
        k = np.arange(1, p + 1, dtype=float)
        mean1 = 0.5 * k / np.linalg.norm(k)
        delta1 = 0.2
        # the outcome's index direction, cov1^-1 mean1 (see _mean_outcome)
        basis0 = basis1 = _unit(np.linalg.solve(_ar1_covariance(p, delta1), mean1))
        active = tuple(range(p))
    return mean1, delta1, basis0, basis1, active


def scenario(case: str, n: int = 500, p: int = 10, methods=None,
             coefficients: Case3Config | None = None) -> ScenarioSpec:
    """Build a ScenarioSpec from a scenario id such as 'case1-II' or 'case3-A'.

    Family-3 scenarios require a Case3Config (see load_case3_config).

    Raises:
        InvalidArgument: unknown scenario or method, no methods, a method id
            given twice, or n or p too small.
    """
    if case not in SCENARIO_IDS:
        raise InvalidArgument(f"unknown scenario {case!r}; known: {', '.join(SCENARIO_IDS)}")
    if n < 50:
        raise InvalidArgument(f"n must be >= 50, got {n}")
    if p < 2:
        raise InvalidArgument(f"p must be >= 2, got {p}")
    methods = tuple(methods) if methods is not None else tuple(matching.METHODS)
    unknown = [m for m in methods if m not in matching.METHODS]
    if unknown:
        raise InvalidArgument(f"unknown methods: {', '.join(unknown)}")
    if not methods:
        raise InvalidArgument("no methods given")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise InvalidArgument(f"repeated methods: {', '.join(repeated)}")

    family, model = case.split("-", 1)
    if family in ("case1", "case2"):
        base_model = model.rstrip("*")
        if base_model in ("III", "IV") and p < 5:
            raise InvalidArgument(f"model {base_model} needs p >= 5")
        if base_model == "II" and p < 3:
            raise InvalidArgument("model II needs p >= 3")
        mean1, delta1, basis0, basis1, active = _case1_parameters(base_model, p)
        design = GaussianMixtureDesign(mean0=np.zeros(p), mean1=mean1,
                                       cov0=_ar1_covariance(p, 0.2),
                                       cov1=_ar1_covariance(p, delta1), treat_prob=0.5)
        return ScenarioSpec(
            case=case, family=family, model=base_model, n=n, p=p, methods=methods,
            design=design,
            oracle_basis_control=basis0.reshape(-1, 1),
            oracle_basis_treated=basis1.reshape(-1, 1),
            active_columns=active,
        )

    if coefficients is None:
        raise ConfigError(f"scenario {case} requires a coefficient config")
    if p != CASE3_P:
        raise InvalidArgument(f"family-3 scenarios are fixed at p={CASE3_P}")
    if model not in coefficients.scenarios:
        raise ConfigError(f"config has no scenario {model!r}")
    omega = coefficients.outcome_coefficients
    basis = _unit(omega).reshape(-1, 1)
    active = tuple(int(i) for i in np.flatnonzero(omega != 0.0))
    return ScenarioSpec(
        case=case, family="case3", model=model, n=n, p=CASE3_P, methods=methods,
        design=coefficients,
        oracle_basis_control=basis, oracle_basis_treated=basis,
        active_columns=active,
    )


# =============================================================================
# Family-3 coefficient config
# =============================================================================

_TERM_KINDS = {"const": 0, "linear": 1, "quad": 1, "inter": 2}


def _finite(value, what: str) -> float:
    if type(value) in (int, float) and abs(value) <= float(np.finfo(float).max):  # not bool
        return float(value)
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def _parse_terms(raw, letter: str) -> list:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"scenario {letter}: terms must be a non-empty list")
    terms = []
    for item in raw:
        if not isinstance(item, list) or not item:
            raise ConfigError(f"scenario {letter}: malformed term {item!r}")
        kind = item[0]
        if not isinstance(kind, str) or kind not in _TERM_KINDS:
            raise ConfigError(f"scenario {letter}: unknown term kind {kind!r}")
        n_idx = _TERM_KINDS[kind]
        if len(item) != n_idx + 2:
            raise ConfigError(f"scenario {letter}: term {item!r} has wrong arity")
        indices = item[1:1 + n_idx]
        for idx in indices:
            if type(idx) not in (int, float) or idx not in range(1, CASE3_P + 1):
                raise ConfigError(
                    f"scenario {letter}: term {item!r} references covariate {idx}, "
                    f"valid range is 1..{CASE3_P}"
                )
        coef = _finite(item[-1], f"scenario {letter}: term {item!r} coefficient")
        terms.append((kind, *(int(i) for i in indices), coef))
    return terms


def load_case3_config(path) -> Case3Config:
    """Parse the family-3 coefficient config (JSON: key/value + term lists).

    Raises ConfigError for any bad file, key or value, including outcome
    coefficients whose norm is 0 or overflows (the oracle basis divides by it)."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"coefficient config not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"coefficient config is not valid JSON: {exc}") from None

    try:
        outcome = raw["outcome"]
        coef_map = outcome["coefficients"]
        effect = _finite(outcome["treatment_effect"], "treatment_effect")
        noise_sd = _finite(outcome.get("noise_sd", 0.1), "noise_sd")
        intercept = _finite(outcome.get("intercept", 0.0), "intercept")
        scenarios_raw = raw["scenarios"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"coefficient config missing required key: {exc}") from None
    if noise_sd < 0.0:
        raise ConfigError(f"noise_sd must be >= 0, got {noise_sd!r}")
    if not isinstance(coef_map, dict) or not isinstance(scenarios_raw, dict):
        raise ConfigError("outcome coefficients and scenarios must be JSON objects")

    omega = np.zeros(CASE3_P)
    for key, value in coef_map.items():
        if not key.isdecimal() or not 1 <= int(key) <= CASE3_P:
            raise ConfigError(f"outcome coefficient index {key} outside 1..{CASE3_P}")
        omega[int(key) - 1] = _finite(value, f"outcome coefficient {key}")
    with np.errstate(over="ignore"):    # the oracle basis is omega / norm
        norm = float(np.linalg.norm(omega))
    if not 0.0 < norm < np.inf:
        raise ConfigError(f"outcome coefficients must have a finite, nonzero norm, got {norm!r}")

    scenarios = {
        letter: _parse_terms(terms, letter) for letter, terms in scenarios_raw.items()
    }
    return Case3Config(outcome_intercept=intercept, outcome_coefficients=omega,
                       treatment_effect=effect, noise_sd=noise_sd, scenarios=scenarios)


def _eval_terms(terms, x: np.ndarray) -> np.ndarray:
    out = np.zeros(x.shape[0])
    for term in terms:
        kind = term[0]
        if kind == "const":
            out += term[1]
        elif kind == "linear":
            out += term[2] * x[:, term[1] - 1]
        elif kind == "quad":
            out += term[2] * x[:, term[1] - 1] ** 2
        else:  # inter
            out += term[3] * x[:, term[1] - 1] * x[:, term[2] - 1]
    return out


# =============================================================================
# Outcome models and generators
# =============================================================================

def _mean_outcome(spec: ScenarioSpec, x: np.ndarray, t) -> np.ndarray:
    """Noise-free potential outcome mean for each row of x at treatment t."""
    t = np.asarray(t, dtype=float)
    if spec.family == "case3":
        cfg = spec.design
        return cfg.outcome_intercept + x @ cfg.outcome_coefficients + cfg.treatment_effect * t
    model = spec.model
    if model == "I":
        return (t + 2.0) * (x[:, 0] + 1.5) ** 2 + t
    if model == "II":
        return 2.0 * np.sin(0.5 * (x[:, 0] + x[:, 1] - x[:, 2])) + t
    if model == "III":
        return x[:, 0] + x[:, 1] + x[:, 2] + t * (x[:, 3] + x[:, 4])
    # model IV
    index = x @ np.linalg.solve(spec.design.cov1, spec.design.mean1)
    return 3.0 * np.sin(index / 3.0) + t * index ** 2 / 3.0


def effect_function(spec: ScenarioSpec, x: np.ndarray) -> np.ndarray:
    """Per-subject effect Y(1) - Y(0) as a function of covariates (noise-free)."""
    return _mean_outcome(spec, x, 1.0) - _mean_outcome(spec, x, 0.0)


@dataclass(frozen=True)
class GeneratedData:
    sample: ObservationalSample
    true_ps: np.ndarray
    spec: ScenarioSpec


def _case1_arms(spec: ScenarioSpec, rng: RngStream, n: int):
    """Marginal Bernoulli(0.5) treatment, Gaussian covariates within each arm."""
    design = spec.design
    t = (rng.uniform(n) < design.treat_prob).astype(np.int64)
    z = rng.normal((n, spec.p))
    x = np.empty((n, spec.p))
    is1 = t == 1
    x[~is1] = design.mean0 + z[~is1] @ design.factors(0)[0]
    x[is1] = design.mean1 + z[is1] @ design.factors(1)[0]
    return t, x


@functools.cache
def _case3_latent_root() -> np.ndarray:
    """Root of the latent Gaussian correlation that dichotomizes to the targets.

    Binary-binary pairs invert the tetrachoric relation phi-corr =
    (2/pi) arcsin(rho). The binary-continuous targets (0.9) exceed the
    attainable point-biserial maximum, phi(0)/0.5 ~ 0.798, so they are used
    as latent correlations, matching the source designs this family mirrors.
    """
    corr = np.eye(CASE3_P)
    for i, j, target in CASE3_CORRELATION_PAIRS:
        both = i in CASE3_BINARY and j in CASE3_BINARY
        rho = float(np.sin(np.pi * target / 2.0)) if both else target
        corr[i - 1, j - 1] = corr[j - 1, i - 1] = rho
    return spd_power(corr, 0.5)


def _case3_covariates(rng: RngStream, n: int) -> np.ndarray:
    """Mixed binary/continuous covariates: a latent Gaussian, some columns dichotomized."""
    latent = rng.normal((n, CASE3_P)) @ _case3_latent_root()
    x = latent.copy()
    for idx in CASE3_BINARY:
        x[:, idx - 1] = (latent[:, idx - 1] > 0.0).astype(float)
    return x


def generate(spec: ScenarioSpec, rng: RngStream) -> GeneratedData:
    """One replicate drawn from the scenario's data-generating process.

    Family 1 draws treatment first, then covariates within each arm; families
    2 and 3 draw covariates, then treatment from the true propensity (the
    family-1 Bayes functional, or the config's logit model). A family-3 logit
    that is not a number, or an outcome that is not finite, raises ConfigError.
    """
    n = spec.n
    if spec.family == "case1":
        t, x = _case1_arms(spec, rng, n)
        ps = true_ps_bayes(spec.design, x)
    else:
        if spec.family == "case2":
            x = rng.normal((n, spec.p))
            ps = true_ps_bayes(spec.design, x)
        else:
            x = _case3_covariates(rng, n)
            with np.errstate(over="ignore", invalid="ignore"):  # exp(-logit) = inf gives ps = 0
                ps = 1.0 / (1.0 + np.exp(-_eval_terms(spec.design.scenarios[spec.model], x)))
            if np.isnan(ps).any():      # such as inf - inf from opposite terms
                raise ConfigError(f"scenario {spec.model}: the treatment logit is not a number; "
                                  "rescale its coefficients")
        t = (rng.uniform(n) < ps).astype(np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        eps = rng.normal(n) * spec.noise_sd
        y = _mean_outcome(spec, x, t) + eps
    if not np.isfinite(y).all():    # only a family-3 config can scale the outcome this far
        raise ConfigError(f"scenario {spec.model}: the simulated outcome is not finite; "
                          "rescale the config's outcome")
    return GeneratedData(
        sample=ObservationalSample(covariates=x, treatment=t, outcome=y),
        true_ps=ps,
        spec=spec,
    )


# =============================================================================
# True effects
# =============================================================================

def monte_carlo_truth(spec: ScenarioSpec, estimand: str, seed: int,
                      n_draws: int = _TRUTH_DRAWS) -> float:
    """High-n Monte Carlo oracle for the true effect, on a dedicated stream.

    Raises:
        InvalidArgument: an estimand other than "ace" or "acet", or n_draws < 1.
    """
    if estimand not in matching.ESTIMANDS:
        raise InvalidArgument(f"unknown estimand {estimand!r}")
    if n_draws < 1:
        raise InvalidArgument(f"n_draws must be >= 1, got {n_draws}")
    if spec.family == "case3":
        return float(spec.design.treatment_effect)
    rng = RngStream(seed, TRUTH_STREAM)
    total = 0.0
    weight = 0.0
    remaining = n_draws
    while remaining > 0:
        m = min(_CHUNK, remaining)
        remaining -= m
        w = np.ones(m)
        if spec.family == "case2":
            x = rng.normal((m, spec.p))
            if estimand == "acet":
                w = true_ps_bayes(spec.design, x)
        elif estimand == "acet":
            # the treated arm alone: ACET averages the effect over the treated
            x = spec.design.mean1 + rng.normal((m, spec.p)) @ spec.design.factors(1)[0]
        else:
            x = _case1_arms(spec, rng, m)[1]
        total += float((w * effect_function(spec, x)).sum())
        weight += float(w.sum())
    return total / weight


def true_effect(spec: ScenarioSpec, estimand: str, seed: int) -> tuple[float, str]:
    """True effect value plus its source ('analytic' or 'monte-carlo')."""
    if estimand not in matching.ESTIMANDS:
        raise InvalidArgument(f"unknown estimand {estimand!r}")
    if spec.family == "case3":
        return float(spec.design.treatment_effect), "analytic"
    if estimand == "ace" and spec.model in ("I", "II", "III"):
        # model III: half the treated arm's mean of x_4 + x_5, 2 p^-0.5
        return {"I": 4.25, "II": 1.0, "III": spec.p ** -0.5}[spec.model], "analytic"
    if estimand == "acet" and spec.model == "II":
        # constant effect: ACET equals ACE exactly
        return 1.0, "analytic"
    return monte_carlo_truth(spec, estimand, seed), "monte-carlo"


# =============================================================================
# Monte Carlo harness
# =============================================================================

@dataclass(frozen=True)
class MethodResult:
    bias: float
    sd: float
    rmse: float
    failures: int


@dataclass(frozen=True)
class MonteCarloReport:
    scenario: str
    estimand: str
    truth: float
    truth_source: str
    reps: int
    methods: dict   # method id -> MethodResult


def _one_replicate(spec: ScenarioSpec, rep: int, seed: int, estimand: str,
                   n_matches: int, n_slices: int, alpha: float) -> dict:
    rng = RngStream(seed, rep)
    data = generate(spec, rng)
    out = {}
    for method in spec.methods:
        try:
            score = matching.balancing_score(method, data.sample, estimand=estimand,
                                             n_slices=n_slices, alpha=alpha, truth=data)
            out[method] = matching.estimate(data.sample, score, estimand, n_matches).value
        except SdrMatchError:
            out[method] = np.nan
    return out


def run_monte_carlo(spec: ScenarioSpec, reps: int, seed: int = 0,
                    n_matches: int = 1, n_slices: int = 5, alpha: float = 0.05,
                    threads: int = 1, estimand: str = "ace") -> MonteCarloReport:
    """Replay `reps` independent replicates and aggregate per-method accuracy.

    Replicate r draws from RngStream(seed, r); all requested methods see the
    identical dataset within a replicate. Per-replicate failures are recorded
    per method, not fatal. The report is fully determined by
    (spec, reps, seed, n_matches, n_slices, alpha, estimand) -- the thread
    count only changes scheduling. Replicates run serially by default: a
    replicate is many short numpy calls that hold the GIL, so threads > 1
    only pays at large n with BLAS held to one thread.

    Raises:
        InvalidArgument: reps < 2, threads < 1, n_matches < 1, n_slices < 2
            or alpha outside (0, 1): arguments no replicate could run with; or
            a method's bias, SD or RMSE that overflows.
    """
    if reps < 2:
        raise InvalidArgument(f"need at least 2 replicates, got {reps}")
    if threads < 1:
        raise InvalidArgument(f"threads must be >= 1, got {threads}")
    if n_matches < 1:
        raise InvalidArgument(f"n_matches must be >= 1, got {n_matches}")
    sdr.check_tuning(n_slices, alpha)
    truth, source = true_effect(spec, estimand, seed)

    def work(rep: int) -> dict:
        return _one_replicate(spec, rep, seed, estimand, n_matches, n_slices, alpha)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, range(reps)))
    else:
        results = [work(r) for r in range(reps)]

    methods = {}
    for method in spec.methods:
        values = np.array([res[method] for res in results])
        good = values[np.isfinite(values)]
        failures = int(values.size - good.size)
        if good.size >= 2:
            with np.errstate(over="ignore", invalid="ignore"):     # an overflow raises below
                bias = float(good.mean() - truth)
                sd = float(good.std(ddof=1))
                rmse = float(np.sqrt(np.mean((good - truth) ** 2)))
            if not np.isfinite([bias, sd, rmse]).all():
                raise InvalidArgument(f"the {method} summary overflows; rescale the outcome")
        else:
            bias = sd = rmse = float("nan")
        methods[method] = MethodResult(bias=bias, sd=sd, rmse=rmse, failures=failures)
    return MonteCarloReport(scenario=spec.case, estimand=estimand, truth=truth,
                            truth_source=source, reps=reps, methods=methods)
