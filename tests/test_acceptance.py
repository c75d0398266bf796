"""Acceptance suite.

Each test exercises one release criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with `pytest -s` or in captured output).
"""

from pathlib import Path

import numpy as np
import pytest

from sdrmatch.cli import main as cli_main
from sdrmatch.dataset import load_csv
from sdrmatch.matching import (
    FOR_CONTROL,
    FOR_TREATED,
    BalancingScore,
    balancing_score,
    build_metric,
    estimate,
    find_matches,
)
from sdrmatch.numerics import RngStream, chi_square_sf, inverse_sqrt_spd, sym_eigen
from sdrmatch.sdr import estimate_central_subspace
from sdrmatch.simulation import generate, run_monte_carlo, scenario, monte_carlo_truth

REPO = Path(__file__).resolve().parents[1]
LALONDE = REPO / "data" / "lalonde_cps3_synthetic.csv"
LALONDE_COVARIATES = ["age", "educ", "black", "hisp", "married", "nodegr",
                      "re74", "re75", "u74", "u75"]


def report(number, description, ok, detail):
    print(f"[acceptance] criterion {number:2d} {'PASS' if ok else 'FAIL'} "
          f"- {description}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_model_three_bias_ordering():
    spec = scenario("case1-III", n=500, methods=("sdr", "ambient"))
    rep = run_monte_carlo(spec, 300, seed=101, n_matches=1)
    b_sdr = rep.methods["sdr"].bias
    b_amb = rep.methods["ambient"].bias
    ok = abs(b_sdr) < abs(b_amb) and -0.08 <= b_sdr <= 0.08 and b_amb > 0.3
    report(1, "model III bias ordering (anchors 0.0220 vs 0.4764)", ok,
           f"bias sdr={b_sdr:.4f}, ambient={b_amb:.4f}")


def test_criterion_02_model_one_sd_ordering():
    spec = scenario("case1-I", n=500, methods=("sdr", "ps-true"))
    rep = run_monte_carlo(spec, 300, seed=102, n_matches=1)
    ratio = rep.methods["sdr"].sd / rep.methods["ps-true"].sd
    ok = ratio < 0.5
    report(2, "model I SD ordering (anchors 0.1788 vs 1.1884)", ok,
           f"sd sdr={rep.methods['sdr'].sd:.4f}, ps-true={rep.methods['ps-true'].sd:.4f}, "
           f"ratio={ratio:.3f}")


def test_criterion_03_model_two_calibration():
    spec = scenario("case1-II", n=500, methods=("sdr",))
    rep = run_monte_carlo(spec, 200, seed=103, n_matches=1)
    bias = rep.methods["sdr"].bias
    ok = abs(bias) <= 0.015
    report(3, "model II calibration (|mean - 1| <= 0.015)", ok, f"bias={bias:.4f}")


def test_criterion_04_case_two_rmse():
    spec = scenario("case2-II*", n=500, methods=("sdr", "ps-true"))
    rep = run_monte_carlo(spec, 200, seed=104, n_matches=1)
    r_sdr = rep.methods["sdr"].rmse
    r_ps = rep.methods["ps-true"].rmse
    ok = r_sdr <= 0.10 and r_sdr < r_ps
    report(4, "model II* RMSE (anchors 0.0653 vs 0.2996)", ok,
           f"rmse sdr={r_sdr:.4f}, ps-true={r_ps:.4f}")


def test_criterion_05_rank_recovery():
    spec = scenario("case1-I", n=500)
    ranks, cosines = [], []
    for rep in range(200):
        data = generate(spec, RngStream(105, rep))
        est = estimate_central_subspace(data.sample, 0, n_slices=5, alpha=0.05)
        ranks.append(0 if est.rank_fallback else est.selected_rank)
        lead = est.composite_map[:, 0]
        cosines.append(abs(lead[0]) / np.linalg.norm(lead))
    frac_rank_one = float(np.mean(np.asarray(ranks) == 1))
    mean_cos = float(np.mean(cosines))
    ok = frac_rank_one >= 0.70 and mean_cos >= 0.9
    report(5, "rank recovery on model I control group", ok,
           f"rank-1 fraction={frac_rank_one:.3f}, mean |cos|={mean_cos:.3f}")


def brute_force_matches(scores, treatment, inv_cov, n_matches, direction):
    scores = np.atleast_2d(np.asarray(scores, float))
    t = np.asarray(treatment)
    query_label = 1 if direction == FOR_TREATED else 0
    queries = [i for i in range(len(t)) if t[i] == query_label]
    donors = [i for i in range(len(t)) if t[i] == 1 - query_label]
    out = []
    for q in queries:
        scored = []
        for d in donors:
            diff = scores[q] - scores[d]
            d2 = 0.0
            for a in range(len(diff)):
                for b in range(len(diff)):
                    d2 += diff[a] * inv_cov[a, b] * diff[b]
            scored.append((d2, d))
        scored.sort()
        out.append([d for _, d in scored[:n_matches]])
    return queries, out


def test_criterion_06_oracle_equivalence():
    rng = RngStream(106)
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 400
        n = 20 + int(rng.uniform() * 181)
        k = 1 + int(rng.uniform() * 5)
        m = 1 + int(rng.uniform() * 3)
        z = rng.normal((n, k))
        t = (rng.uniform(n) < 0.45).astype(int)
        if t.sum() < m + 1 or (1 - t).sum() < m + 1:
            continue
        metric = build_metric(z)
        direction = FOR_TREATED if checked % 2 == 0 else FOR_CONTROL
        mine = find_matches(z, t, metric, m, direction)
        queries, expected = brute_force_matches(
            z, t, metric.inverse_covariance, m, direction
        )
        assert mine.query_indices.tolist() == queries
        assert mine.donor_indices.tolist() == expected
        checked += 1
    report(6, "matching equals independent brute force on 100 instances", True,
           f"{checked} instances, exact agreement")


def test_criterion_07_numerics_suite():
    rng = RngStream(107)
    worst_recon = 0.0
    worst_orth = 0.0
    for _ in range(500):
        p = 2 + int(rng.uniform() * 19)
        a = rng.normal((p, p))
        m = a + a.T
        eig = sym_eigen(m)
        recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
        worst_recon = max(
            worst_recon, float(np.abs(recon - m).max() / (1.0 + np.abs(m).max()))
        )
        gram = eig.eigenvectors.T @ eig.eigenvectors
        worst_orth = max(worst_orth, float(np.abs(gram - np.eye(p)).max()))
    chi_err = abs(chi_square_sf(2.0, 2) - np.exp(-1.0))
    inv_identity = np.abs(inverse_sqrt_spd(np.eye(2), ridge=0.0) - np.eye(2)).max()
    inv_diag = np.abs(
        inverse_sqrt_spd(np.diag([4.0, 9.0]), ridge=0.0) - np.diag([0.5, 1.0 / 3.0])
    ).max()
    b = rng.normal((12, 5))
    spd = b.T @ b / 12 + np.eye(5)
    s = inverse_sqrt_spd(spd, ridge=0.0)
    inv_round_trip = np.abs(s @ s @ spd - np.eye(5)).max()
    ok = (worst_recon <= 1e-8 and worst_orth <= 1e-8 and chi_err <= 1e-9
          and inv_identity <= 1e-12 and inv_diag <= 1e-12 and inv_round_trip <= 1e-6)
    report(7, "numerics suite (500 matrices, chi-square, inverse sqrt)", ok,
           f"recon={worst_recon:.2e}, orth={worst_orth:.2e}, chi={chi_err:.2e}, "
           f"invsqrt={inv_round_trip:.2e}")


def test_criterion_08_analytic_effect_oracles():
    expectations = {"case1-I": 4.25, "case1-II": 1.0, "case1-III": 10.0 ** -0.5}
    details = []
    ok = True
    for case, truth in expectations.items():
        spec = scenario(case, n=500)
        mc = monte_carlo_truth(spec, "ace", seed=108, n_draws=10 ** 6)
        details.append(f"{case}: mc={mc:.4f} vs {truth:.4f}")
        ok = ok and abs(mc - truth) <= 0.01
    report(8, "generator-level effect means match derived truths", ok,
           "; ".join(details))


def test_criterion_09_observational_sign_split():
    sample = load_csv(LALONDE, "treat", "re78", LALONDE_COVARIATES)
    sdr_est = estimate(sample, balancing_score("sdr", sample, estimand="acet", n_slices=5,
                                               alpha=0.05), "acet", n_matches=1)
    amb_est = estimate(sample, BalancingScore.ambient(sample.covariates), "acet", 1)
    ok = sdr_est.value > 0 and amb_est.value < 0
    report(9, "shipped reproduction config: SDR ACET > 0 > ambient ACET "
              "(paper anchors 205 vs -361)", ok,
           f"sdr={sdr_est.value:.1f} (rank {sdr_est.diagnostics['rank_control']}), "
           f"ambient={amb_est.value:.1f}")


def test_criterion_10_thread_determinism(tmp_path):
    outputs = []
    for name, threads in (("t1.csv", "1"), ("t3.csv", "3"), ("t8.csv", "8")):
        out_file = tmp_path / name
        code = cli_main([
            "simulate", "--scenario", "case1-II", "--n", "300", "--reps", "20",
            "--seed", "9", "--methods", "sdr,ambient,ps-true",
            "--threads", threads, "--output", str(out_file),
        ])
        assert code == 0
        outputs.append(out_file.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(10, "simulate reports byte-identical across thread counts", ok,
           f"{len(outputs[0])} bytes, threads 1/3/8")
