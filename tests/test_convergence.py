"""Rate of convergence: reduced covariates are sufficient, raw covariates are not.

Nearest-neighbour matching on k continuous variables has a conditional bias of
order n^(-1/k) (Abadie & Imbens 2006, Econometrica 74:235). On case1-III each
arm's outcome depends on one linear index, so matching on the rank-1 SIR
reduction should be root-n consistent (root-n times RMSE flat in n), while
matching on the ten raw covariates leaves a bias whose root-n multiple grows
like n^(1/2 - 1/10).

The seed, replicate counts and factors were fixed from that theory and the
Monte Carlo error before the first run; a failure is a finding, not a cue to
re-pick them:

* sdr: root-n RMSE from 100 replicates has about 7% Monte Carlo error, so the
  largest of three values may exceed the smallest by 1.5 at most.
* ambient: n^0.4 predicts root-n |bias| grows 16^0.4 = 3.0-fold from n = 250
  to 4,000; at least 1.6-fold is required. Its bias is several times its
  per-replicate SD, so 30 replicates suffice.
* rank: with two 5%-level rank tests, both arms pick rank 1 in about 90% of
  replicates at n = 4,000; at least 85 of 100 is required.
"""

import numpy as np
import pytest

from sdrmatch.matching import balancing_score, estimate
from sdrmatch.numerics import RngStream
from sdrmatch.simulation import generate, scenario, true_effect

SEED = 2017
SIZES = (250, 1000, 4000)
SDR_REPS = 100
AMBIENT_REPS = 30


def replicate(n: int, rep: int, method: str):
    """One serial case1-III ACE replicate with m = 1: (estimate, diagnostics)."""
    spec = scenario("case1-III", n=n, methods=(method,))
    data = generate(spec, RngStream(SEED, rep))
    score = balancing_score(method, data.sample, estimand="ace", n_slices=5, alpha=0.05)
    return estimate(data.sample, score, "ace", 1).value, score.diagnostics


@pytest.fixture(scope="module")
def truth():
    return true_effect(scenario("case1-III"), "ace", SEED)[0]


@pytest.fixture(scope="module")
def sdr_runs():
    return {n: [replicate(n, rep, "sdr") for rep in range(SDR_REPS)] for n in SIZES}


def test_sdr_root_n_rmse_is_flat(sdr_runs, truth):
    scaled = []
    for n in SIZES:
        values = np.array([value for value, _ in sdr_runs[n]])
        scaled.append(np.sqrt(n) * np.sqrt(np.mean((values - truth) ** 2)))
    assert max(scaled) / min(scaled) <= 1.5, dict(zip(SIZES, scaled))


def test_ambient_root_n_bias_grows(truth):
    scaled = {}
    for n in (SIZES[0], SIZES[-1]):
        values = np.array([replicate(n, rep, "ambient")[0] for rep in range(AMBIENT_REPS)])
        scaled[n] = np.sqrt(n) * abs(values.mean() - truth)
    assert scaled[SIZES[-1]] >= 1.6 * scaled[SIZES[0]], scaled


def test_sir_selects_rank_one_at_large_n(sdr_runs):
    hits = sum(
        diagnostics["rank_control"] == 1 and diagnostics["rank_treated"] == 1
        for _, diagnostics in sdr_runs[SIZES[-1]]
    )
    assert hits >= 85, hits
