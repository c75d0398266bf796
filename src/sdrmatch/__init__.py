"""Matching-based causal effect estimation on dimension-reduced covariates.

The package estimates average causal effects from observational data by
nearest-neighbor matching on balancing scores. Its distinguishing score is the
set of reduced covariates from sliced inverse regression, fitted separately in
each treatment arm; ambient-covariate and propensity-score matching are
included as baselines, together with a seeded Monte Carlo harness that
compares them on known data-generating processes.
"""

__version__ = "0.1.0"

import importlib

from . import dataset, errors, matching, numerics, propensity, sdr
from .dataset import *
from .matching import *
from .numerics import *
from .propensity import *
from .sdr import *


def __getattr__(name):
    """Import simulation, which estimate and diagnose never use, when it is first needed."""
    if name == "__all__" or (not name.startswith("__") and name != "cli"):  # cli: a submodule
        simulation = importlib.import_module(".simulation", __name__)  # `from .` comes back here
        modules = (dataset, matching, numerics, propensity, sdr, simulation)
        globals().update({n: getattr(simulation, n) for n in simulation.__all__}, __all__=[
            "__version__", "errors", *(n for module in modules for n in module.__all__)])
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]
