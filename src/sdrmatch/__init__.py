"""Matching-based causal effect estimation on dimension-reduced covariates.

The package estimates average causal effects from observational data by
nearest-neighbor matching on balancing scores. Its distinguishing score is the
set of reduced covariates from sliced inverse regression, fitted separately in
each treatment arm; ambient-covariate and propensity-score matching are
included as baselines, together with a seeded Monte Carlo harness that
compares them on known data-generating processes.
"""

__version__ = "0.1.0"

from . import errors
from .dataset import (
    ObservationalSample,
    StandardizationMap,
    apply_standardization,
    fit_standardization,
    load_csv,
    write_csv,
)
from .matching import (
    BalancingScore,
    CausalEstimate,
    MahalanobisMetric,
    MatchedSet,
    balancing_score,
    build_metric,
    estimate,
    find_matches,
    impute,
)
from .numerics import (
    EigenDecomposition,
    RngStream,
    chi_square_sf,
    inverse_sqrt_spd,
    sample_bernoulli,
    sym_eigen,
)
from .propensity import (
    GaussianMixtureDesign,
    LogisticModel,
    fit_logistic,
    predict_ps,
    true_ps_bayes,
)
from .sdr import (
    CentralSubspaceEstimate,
    SlicedMoments,
    candidate_matrix,
    estimate_central_subspace,
    reduce_covariates,
    sequential_rank_test,
    slice_by_quantiles,
)
from .simulation import (
    MonteCarloReport,
    ScenarioSpec,
    generate,
    load_case3_config,
    monte_carlo_truth,
    run_monte_carlo,
    scenario,
    true_effect,
)

__all__ = [
    "__version__",
    "errors",
    "ObservationalSample",
    "StandardizationMap",
    "apply_standardization",
    "fit_standardization",
    "load_csv",
    "write_csv",
    "BalancingScore",
    "CausalEstimate",
    "MahalanobisMetric",
    "MatchedSet",
    "balancing_score",
    "build_metric",
    "estimate",
    "find_matches",
    "impute",
    "EigenDecomposition",
    "RngStream",
    "chi_square_sf",
    "inverse_sqrt_spd",
    "sample_bernoulli",
    "sym_eigen",
    "GaussianMixtureDesign",
    "LogisticModel",
    "fit_logistic",
    "predict_ps",
    "true_ps_bayes",
    "CentralSubspaceEstimate",
    "SlicedMoments",
    "candidate_matrix",
    "estimate_central_subspace",
    "reduce_covariates",
    "sequential_rank_test",
    "slice_by_quantiles",
    "MonteCarloReport",
    "ScenarioSpec",
    "generate",
    "load_case3_config",
    "monte_carlo_truth",
    "run_monte_carlo",
    "scenario",
    "true_effect",
]
