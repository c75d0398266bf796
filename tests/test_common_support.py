"""Weaker common support: overlap is needed on the reduced covariates only.

The paper claims that matching on the per-group SIR reduction is consistent
under a weaker common-support condition than matching on the propensity
score. Where the treatment logit is steep in a covariate that the outcome
does not read, the propensity score nears 0 and 1, so propensity matching
lacks overlap (Crump, Hotz, Imbens & Mitnik 2009, Biometrika 96:187; Khan &
Tamer 2010, Econometrica 78:2021), while the reduced covariates, which
ignore that covariate, keep it.

The design keeps the shipped family-3 outcome and sets the treatment logit
to C * x4 + 0.7 * x10, with C = 8; x4 is continuous and the outcome does not
read it. The seed, replicate counts and factors were fixed from theory and
the Monte Carlo error before the first run; a failure is a finding, not a
cue to re-pick them:

* An RMSE from 150 replicates has at most about 6% Monte Carlo error
  (1 / sqrt(2 * 150) when the variance dominates), so a ratio of two has at
  most about 8%.
* At n = 2,000, ps-logistic's and ps-true's RMSE are each at least 5 times
  sdr's. An exploratory run of this design (another seed) read 17 and 18.
* sdr is root-n consistent: its root-n RMSE at n = 500 and n = 2,000 differ
  by a factor of at most 1.5 (exploratory: 1.21, so 2.6 standard errors
  inside the bound).
* ps-logistic's RMSE at n = 2,000 is at least 0.6 of its RMSE at n = 500.
  Root-n convergence would give 0.5, 2.2 standard errors below the bound;
  the exploratory run read 0.75, 2.7 standard errors above it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from sdrmatch.simulation import load_case3_config, run_monte_carlo, scenario

C = 8.0
SEED = 2024
REPS = 150
SIZES = (500, 2000)
METHODS = ("sdr", "ps-logistic", "ps-true")
SHIPPED = Path(__file__).resolve().parents[1] / "configs" / "case3_coefficients.json"


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    raw = json.loads(SHIPPED.read_text(encoding="utf-8"))
    raw["scenarios"] = {"A": [["const", 0.0], ["linear", 4, C], ["linear", 10, 0.7]]}
    path = tmp_path_factory.mktemp("support") / "steep_x4.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    config = load_case3_config(path)
    return {n: run_monte_carlo(scenario("case3-A", n=n, methods=METHODS, coefficients=config),
                               REPS, seed=SEED).methods for n in SIZES}


def test_propensity_matching_is_far_worse_at_large_n(reports):
    rmse = {method: result.rmse for method, result in reports[SIZES[-1]].items()}
    assert rmse["ps-logistic"] >= 5.0 * rmse["sdr"], rmse
    assert rmse["ps-true"] >= 5.0 * rmse["sdr"], rmse


def test_sdr_root_n_rmse_is_flat(reports):
    scaled = [np.sqrt(n) * reports[n]["sdr"].rmse for n in SIZES]
    assert max(scaled) / min(scaled) <= 1.5, dict(zip(SIZES, scaled))


def test_ps_logistic_rmse_shrinks_slower_than_root_n(reports):
    small, large = (reports[n]["ps-logistic"].rmse for n in SIZES)
    assert large >= 0.6 * small, (small, large)
