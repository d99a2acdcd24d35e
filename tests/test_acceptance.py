"""Acceptance suite: end-to-end statistical and numerical guarantees.

Each test prints one PASS/FAIL line. The Monte Carlo criteria run at 500
replications with fixed seeds; the reference-bias criterion aggregates
single-large-sample values over a fixed seed set by their median (the
inverse-weighting references are tail-dominated, see the module docstring
of pbrdr.bias_surface). Expected total runtime: a few minutes on two cores.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import expit

from conftest import random_dataset
from pbrdr import (
    Dataset,
    NuisanceFit,
    ScenarioSpec,
    SurfaceDgp,
    compute_metrics,
    dr_estimate,
    evaluate_surface,
    fit_calibration_lasso,
    fit_weighted_outcome_lasso,
    iptw_estimate,
    or_estimate,
    run_monte_carlo,
)
from pbrdr.solvers import (
    Coefficients,
    _calibration_value_grad,
    _logistic_value_grad,
)

ACCEPT_SEED = 20260808
REPS = 500
JOBS = 2


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}"
    print(line, file=sys.stderr)
    assert passed, line


# ---------------------------------------------------------------------------
# shared Monte Carlo runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table_s1_correct():
    spec = ScenarioSpec("S1", 200, 40, False, True, True, REPS, ACCEPT_SEED)
    return run_monte_carlo(spec, ["P-BR", "LASSO"], n_jobs=JOBS)


@pytest.fixture(scope="module")
def tables_s1_or_incorrect():
    out = {}
    for n in (200, 1000, 2000):
        spec = ScenarioSpec("S1", n, 40, False, False, True, REPS, ACCEPT_SEED)
        out[n] = run_monte_carlo(spec, ["P-BR", "LASSO"], n_jobs=JOBS)
    return out


@pytest.fixture(scope="module")
def table_s2_correct():
    spec = ScenarioSpec("S2", 200, 40, False, True, True, REPS, ACCEPT_SEED)
    tags = ["MLE", "LASSO", "DS-LASSO", "Post-LASSO", "P-BR", "DS-P-BR"]
    return run_monte_carlo(spec, tags, n_jobs=JOBS)


# ---------------------------------------------------------------------------
# criterion 1: headline benchmark cell
# ---------------------------------------------------------------------------


def test_criterion_1_benchmark_cell(table_s1_correct):
    pbr = table_s1_correct.rows["P-BR"]
    lasso = table_s1_correct.rows["LASSO"]
    ok = (
        abs(pbr.bias - 0.144) <= 0.03
        and abs(pbr.cov - 0.765) <= 0.05
        and abs(lasso.bias - 0.222) <= 0.04
    )
    report(
        1,
        ok,
        f"S1 correct/correct n=200: P-BR bias {pbr.bias:.3f} (0.144±0.03), "
        f"cov {pbr.cov:.3f} (0.765±0.05); LASSO bias {lasso.bias:.3f} (0.222±0.04)",
    )


# ---------------------------------------------------------------------------
# criterion 2: misspecification robustness
# ---------------------------------------------------------------------------


def test_criterion_2_misspecification_robustness(tables_s1_or_incorrect):
    pbr = tables_s1_or_incorrect[200].rows["P-BR"]
    lasso = tables_s1_or_incorrect[200].rows["LASSO"]
    ok = abs(pbr.bias - (-0.010)) <= 0.05 and pbr.cov >= 0.85 and lasso.cov <= 0.92
    report(
        2,
        ok,
        f"S1 OR-incorrect n=200: P-BR bias {pbr.bias:.3f} (-0.010±0.05), "
        f"cov {pbr.cov:.3f} (>=0.85); LASSO cov {lasso.cov:.3f} (<=0.92)",
    )


# ---------------------------------------------------------------------------
# criterion 3: sample-size trend under outcome misspecification
# ---------------------------------------------------------------------------


def test_criterion_3_sample_size_trend(tables_s1_or_incorrect):
    targets = {200: -0.074, 1000: -0.117, 2000: -0.123}
    pbr_ok = all(abs(tables_s1_or_incorrect[n].rows["P-BR"].bias) <= 0.02 for n in targets)
    lasso_bias = {n: tables_s1_or_incorrect[n].rows["LASSO"].bias for n in targets}
    in_band = all(abs(lasso_bias[n] - targets[n]) <= 0.03 for n in targets)
    monotone = abs(lasso_bias[200]) < abs(lasso_bias[1000]) < abs(lasso_bias[2000])
    ok = pbr_ok and in_band and monotone
    pbr_str = ", ".join(
        f"n={n}: {tables_s1_or_incorrect[n].rows['P-BR'].bias:+.4f}" for n in targets
    )
    lasso_str = ", ".join(f"n={n}: {lasso_bias[n]:+.4f}" for n in targets)
    report(
        3,
        ok,
        f"P-BR |bias|<=0.02 ({pbr_str}); LASSO within ±0.03 of "
        f"(-0.074,-0.117,-0.123) and |bias| increasing ({lasso_str})",
    )


def test_consistency_invariant_bias_decreases_with_n(table_s1_correct):
    # stated invariant (not a numbered criterion): with the propensity model
    # correct, the P-BR bias decreases monotonically across the n-sweep
    biases = [table_s1_correct.rows["P-BR"].bias]
    for n in (400, 1000, 2000):
        spec = ScenarioSpec("S1", n, 40, False, True, True, REPS, ACCEPT_SEED)
        biases.append(run_monte_carlo(spec, ["P-BR"], n_jobs=JOBS).rows["P-BR"].bias)
    ok = all(abs(b2) < abs(b1) for b1, b2 in zip(biases, biases[1:]))
    report(
        "consistency",
        ok,
        "P-BR |bias| decreasing over n in (200, 400, 1000, 2000): "
        + ", ".join(f"{b:+.4f}" for b in biases),
    )


# ---------------------------------------------------------------------------
# criterion 4: second-scenario sanity for every DR estimator
# ---------------------------------------------------------------------------


def test_criterion_4_s2_dr_sanity(table_s2_correct):
    bad = []
    for tag, row in sorted(table_s2_correct.rows.items()):
        if not (0.93 <= row.cov <= 0.97 and abs(row.bias) <= 0.3):
            bad.append(f"{tag} (bias {row.bias:.3f}, cov {row.cov:.3f})")
    detail = "; ".join(
        f"{tag}: bias {row.bias:+.3f}, cov {row.cov:.3f}"
        for tag, row in sorted(table_s2_correct.rows.items())
    )
    report(4, not bad, f"S2 correct/correct, all DR estimators vs (|bias|<=0.3, cov in [0.93,0.97]): {detail}")


# ---------------------------------------------------------------------------
# criterion 5: reference biases of the bias-surface study
# ---------------------------------------------------------------------------


def test_criterion_5_surface_reference_biases():
    targets = {
        "fig1": {"BR": 2.34, "MLE-DR": 94.6, "IPW": 71.5, "IMP": 0.07},
        "fig2": {"BR": -9.4, "MLE-DR": -592.0, "IPW": -633.0, "IMP": 0.27},
    }
    seeds = range(12)
    lines = []
    ok = True
    for variant, refs in targets.items():
        collected = {tag: [] for tag in refs}
        for seed in seeds:
            grid = evaluate_surface(SurfaceDgp(variant, 100_000, seed), [0.0], [0.0])
            for tag in refs:
                collected[tag].append(grid.reference_biases[tag])
        for tag, target in refs.items():
            value = float(np.median(collected[tag]))
            tol = max(0.15 * abs(target), 1.0)
            good = abs(value - target) <= tol
            ok = ok and good
            lines.append(f"{variant}/{tag}: {value:.3g} vs {target} (±{tol:.3g})")
    report(5, ok, "median over 12 fixed seeds at n=100000: " + "; ".join(lines))


# ---------------------------------------------------------------------------
# criterion 6: KKT stationarity on random instances
# ---------------------------------------------------------------------------


def _unit_sd(data):
    """Factors ``[1, s]``, ``s`` the covariates' sample SDs (ddof=1): the
    fitters penalise ``coef * [1, s]``, the coefficients of ``design / [1, s]``."""
    return np.concatenate([[1.0], np.std(data.x, axis=0, ddof=1)])


def _stationarity_violation(grad, coef, lam):
    out = [abs(grad[0])]
    for j in range(1, coef.shape[0]):
        if coef[j] != 0.0:
            out.append(abs(grad[j] + lam * np.sign(coef[j])))
        else:
            out.append(max(abs(grad[j]) - lam, 0.0))
    return max(out)


def test_criterion_6_kkt_property_suite():
    rng = np.random.default_rng(606)
    worst_f1 = worst_f2 = worst_exact = 0.0
    for k in range(100):
        n = int(rng.integers(60, 200))
        p = int(rng.integers(1, 8))
        lam = float(rng.choice([0.0, 0.02, 0.08, 0.15, 0.3])) if p <= 3 else float(
            rng.choice([0.02, 0.08, 0.15, 0.3])
        )
        data = random_dataset(1000 + k, n=n, p=p)
        gamma = fit_calibration_lasso(data, lam)
        s = _unit_sd(data)
        z, g = data.design() / s, gamma.coef * s
        pi = expit(z @ g)
        score_g = z.T @ (1.0 - data.a / pi) / n
        worst_f1 = max(worst_f1, _stationarity_violation(score_g, g, lam))
        beta = fit_weighted_outcome_lasso(data, gamma, lam)
        b = beta.coef * s
        w = np.where(data.a == 1.0, np.exp(-(z @ g)), 0.0)
        grad_b = -z.T @ (w * (data.y - z @ b)) / n
        worst_f2 = max(worst_f2, _stationarity_violation(grad_b, b, lam))
        if lam == 0.0:
            worst_exact = max(
                worst_exact, float(np.max(np.abs(score_g))), float(np.max(np.abs(grad_b)))
            )
    ok = worst_f1 <= 1e-6 and worst_f2 <= 1e-6 and worst_exact <= 1e-6
    report(
        6,
        ok,
        f"100 random instances per solver: worst stationarity residual "
        f"stage-1 {worst_f1:.2e}, stage-2 {worst_f2:.2e}, zero-penalty exact-score "
        f"{worst_exact:.2e} (<= 1e-6)",
    )


# ---------------------------------------------------------------------------
# criterion 7: oracle equivalences
# ---------------------------------------------------------------------------


def test_criterion_7_oracle_equivalences():
    # (a) stage-2 solver vs the closed-form soft threshold on orthonormal
    # designs, on the unit-SD scale it penalises (the columns stay
    # orthogonal); a zero propensity vector gives pi = 1/2 and unit
    # inverse-odds weights exactly, so every coordinate separates
    rng = np.random.default_rng(707)
    n, p = 120, 5
    gamma = Coefficients(np.zeros(p + 1), 0.0, 0.0)
    worst_soft = 0.0
    for _ in range(5):
        basis, _ = np.linalg.qr(np.hstack([np.ones((n, 1)), rng.standard_normal((n, p))]))
        x = basis[:, 1:]
        y = rng.standard_normal(n)
        data = Dataset(y, np.ones(n), x)
        lam = 0.0005
        fit = fit_weighted_outcome_lasso(data, gamma, lam)
        s = _unit_sd(data)
        z = data.design() / s
        gram_diag = np.sum(z**2, axis=0) / n
        lin = z.T @ y / n
        expected = np.empty(p + 1)
        expected[0] = lin[0] / gram_diag[0]
        for j in range(1, p + 1):
            expected[j] = math.copysign(max(abs(lin[j]) - lam, 0.0), lin[j]) / gram_diag[j]
        worst_soft = max(worst_soft, float(np.max(np.abs(fit.coef * s - expected))))

    # (b) metric computation vs a naive two-pass reference
    est = list(rng.normal(3.0, 1.5, size=51))
    ses = list(rng.uniform(0.2, 0.8, size=51))
    hits = list(rng.random(51) < 0.9)
    mu0 = 3.3
    row = compute_metrics(est, ses, hits, mu0)
    errs = [e - mu0 for e in est]
    mean_est = sum(est) / len(est)
    naive = {
        "bias": sum(errs) / len(errs),
        "rmse": math.sqrt(sum(e * e for e in errs) / len(errs)),
        "mae": sorted(abs(e) for e in errs)[(len(errs) - 1) // 2],
        "mcsd": math.sqrt(sum((e - mean_est) ** 2 for e in est) / (len(est) - 1)),
        "asse": sum(ses) / len(ses),
        "cov": sum(hits) / len(hits),
    }
    worst_metric = max(abs(getattr(row, k) - v) for k, v in naive.items())

    # (c) analytic gradients vs central finite differences
    data = random_dataset(7070, n=100, p=4)
    z = data.design()
    w_fd = data.a * 0.7
    objectives = {
        "stage1": _calibration_value_grad(z, data.a),
        "logistic": _logistic_value_grad(z, data.a),
        "stage2": lambda c: (
            float(np.sum(w_fd * (data.y - z @ c) ** 2)) / (2 * data.n),
            -z.T @ (w_fd * (data.y - z @ c)) / data.n,
        ),
    }
    worst_fd = 0.0
    h = 1e-6
    for vg in objectives.values():
        for _ in range(20):
            point = 0.5 * rng.standard_normal(5)
            _, g_analytic = vg(point)
            g_fd = np.zeros(5)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                g_fd[j] = (vg(point + e)[0] - vg(point - e)[0]) / (2 * h)
            denom = max(1.0, float(np.max(np.abs(g_analytic))))
            worst_fd = max(worst_fd, float(np.max(np.abs(g_analytic - g_fd))) / denom)

    ok = worst_soft <= 1e-8 and worst_metric <= 1e-12 and worst_fd <= 1e-5
    report(
        7,
        ok,
        f"soft-threshold closed form {worst_soft:.2e} (<=1e-8); metrics vs naive "
        f"two-pass {worst_metric:.2e} (<=1e-12); gradients vs finite differences "
        f"{worst_fd:.2e} (<=1e-5)",
    )


# ---------------------------------------------------------------------------
# criterion 8: exact double-robustness algebra
# ---------------------------------------------------------------------------


def test_criterion_8_double_robustness_algebra():
    rng = np.random.default_rng(808)
    worst_or = worst_iptw = 0.0
    for k in range(20):
        n, p = 80, 4
        x = rng.standard_normal((n, p))
        a = (rng.random(n) < 0.5).astype(float)
        z = np.hstack([np.ones((n, 1)), x])
        beta_vec = rng.standard_normal(p + 1)
        gamma_vec = 0.6 * rng.standard_normal(p + 1)
        g = Coefficients(gamma_vec, 0.0, 0.0)
        # (a) outcome model interpolating treated units: DR == OR
        y = z @ beta_vec
        data = Dataset(y, a, x)
        b = Coefficients(beta_vec, 0.0, 0.0)
        dr = dr_estimate(data, NuisanceFit(g, b, "MLE"))
        orr = or_estimate(data, b)
        worst_or = max(worst_or, abs(dr.mu_hat - orr.mu_hat))
        # (b) outcome model identically zero: DR == IPTW
        data2 = Dataset(rng.standard_normal(n), a, x)
        b0 = Coefficients(np.zeros(p + 1), 0.0, 0.0)
        dr2 = dr_estimate(data2, NuisanceFit(g, b0, "MLE"))
        ipw = iptw_estimate(data2, g)
        worst_iptw = max(worst_iptw, abs(dr2.mu_hat - ipw.mu_hat))
    ok = worst_or <= 1e-12 and worst_iptw <= 1e-12
    report(
        8,
        ok,
        f"20 random fits: |DR-OR| <= {worst_or:.2e}, |DR-IPTW| <= {worst_iptw:.2e} "
        "(machine tolerance) when the outcome model interpolates / vanishes",
    )


# ---------------------------------------------------------------------------
# criterion 9: byte-identical simulation outputs
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "scenario = S1\nn = 150\np = 15\ncorrelated = false\nor_correct = true\n"
        "ps_correct = true\nreps = 8\nseed = 99\n"
    )
    outputs = []
    for idx, threads in enumerate(("1", "1", "2")):
        out = tmp_path / f"run{idx}"
        proc = subprocess.run(
            [sys.executable, "-m", "pbrdr", "simulate", "--config", str(cfg), "--out", str(out),
             "--threads", threads],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "S1_uncorr_ORcorrect_PScorrect_n150_p15.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(
        9,
        ok,
        f"simulate outputs byte-identical across repeated runs and serial vs "
        f"parallel execution ({len(outputs[0])} bytes)",
    )
