"""Matching-based causal effect estimation on dimension-reduced covariates.

The package estimates average causal effects from observational data by
nearest-neighbor matching on balancing scores. Its distinguishing score is the
set of reduced covariates from sliced inverse regression, fitted separately in
each treatment arm; ambient-covariate and propensity-score matching are
included as baselines, together with a seeded Monte Carlo harness that
compares them on known data-generating processes.
"""

__version__ = "0.1.0"

from . import dataset, errors, matching, numerics, propensity, sdr, simulation
from .dataset import *
from .matching import *
from .numerics import *
from .propensity import *
from .sdr import *
from .simulation import *

# a name is public exactly when its module's __all__ lists it
__all__ = ["__version__", "errors", *dataset.__all__, *matching.__all__, *numerics.__all__,
           *propensity.__all__, *sdr.__all__, *simulation.__all__]
