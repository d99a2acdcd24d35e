"""Solver-level tests: closed-form oracles, stationarity conditions, error contracts."""

import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.special import expit, ndtri

from conftest import random_dataset
from pbrdr import (
    Dataset,
    DegenerateData,
    DegenerateWeights,
    NonConvergence,
    NuisanceFit,
    RankDeficient,
    Separation,
    UnboundedObjective,
    default_penalties,
    fit_br_refit,
    fit_calibration_lasso,
    fit_linear_lasso,
    fit_logistic_lasso,
    fit_logistic_mle,
    fit_ols,
    fit_weighted_outcome_lasso,
    post_lasso_refit,
)
from pbrdr import solvers
from pbrdr.estimators import estimate_suite
from pbrdr.simulation import ScenarioSpec, build_model, draw_dataset


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def phi_erf(x: float) -> float:
    """Normal CDF through math.erf, independent of scipy."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def quantile_bisect(q: float) -> float:
    """High-precision normal quantile by bisection on the erf-based CDF."""
    lo, hi = -12.0, 12.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi_erf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def calibration_score(data: Dataset, gamma: np.ndarray) -> np.ndarray:
    """(1/n) sum_i {1 - A_i/pi_i} z_i computed by direct summation."""
    z = data.design()
    pi = expit(z @ gamma)
    return z.T @ (1.0 - data.a / pi) / data.n


def weighted_outcome_score(data: Dataset, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(1/n) sum_i w_i A_i (y_i - b.z_i) z_i computed by direct summation."""
    z = data.design()
    u = z @ gamma
    w = np.where(data.a == 1.0, np.exp(-u), 0.0)
    resid = data.y - z @ beta
    return z.T @ (w * resid) / data.n


def unit_sd(data: Dataset) -> np.ndarray:
    """Factors ``[1, s]`` with ``s`` the covariates' sample SDs (ddof=1).

    The fitters penalise coefficients on the unit-SD scale: there the
    coefficients are ``coef * unit_sd`` and a score is ``score / unit_sd``.
    """
    return np.concatenate([[1.0], np.std(data.x, axis=0, ddof=1)])


def l1_violation(score: np.ndarray, coef: np.ndarray, lam: float) -> float:
    """Sup-norm violation of the subgradient conditions, intercept unpenalized."""
    out = [abs(score[0])]
    for j in range(1, coef.shape[0]):
        if coef[j] != 0.0:
            out.append(abs(score[j] + lam * np.sign(coef[j])))
        else:
            out.append(max(abs(score[j]) - lam, 0.0))
    return max(out)


def coordinate_descent(gram, lin, lam, x, tol=1e-12):
    """Minimiser of ``0.5 x'Gx - lin'x + lam * ||x[1:]||_1`` by plain cyclic
    coordinate descent on the dense ``gram``, run to the KKT residual ``tol``."""
    x = x.copy()
    for _ in range(100_000):
        if l1_violation(gram @ x - lin, x, lam) <= tol:
            return x
        for j in range(x.size):
            rho = lin[j] - gram[j] @ x + gram[j, j] * x[j]
            shrunk = rho if j == 0 else math.copysign(max(abs(rho) - lam, 0.0), rho)
            x[j] = shrunk / gram[j, j]
    raise AssertionError("reference coordinate descent did not converge")


def proximal_gradient(value_grad, x, lam, tol=1e-10):
    """Minimiser of a smooth convex part plus ``lam * ||x[1:]||_1`` by
    accelerated proximal gradient with backtracking, restarted whenever the
    objective would rise, run to the KKT residual ``tol``. ``value_grad(x)``
    returns the smooth part's value and gradient."""
    f, g = value_grad(x)
    big_f = f + lam * np.abs(x[1:]).sum()
    x_prev, t, step = x, 1.0, 1.0
    for _ in range(100_000):
        sub = np.where(x != 0.0, g + lam * np.sign(x), np.maximum(np.abs(g) - lam, 0.0))
        if max(abs(g[0]), float(np.max(np.abs(sub[1:])))) <= tol:
            return x
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x + ((t - 1.0) / t_next) * (x - x_prev)
        fy, gy = value_grad(y)
        step *= 1.25
        while True:
            z = y - step * gy
            z[1:] = np.sign(z[1:]) * np.maximum(np.abs(z[1:]) - step * lam, 0.0)
            fz, gz = value_grad(z)
            d = z - y
            # the slacks keep rounding near the optimum from stalling the search
            if np.isfinite(fz) and fz <= fy + gy @ d + 0.5 * (d @ d) / step + 1e-15 * (1.0 + abs(fy)):
                break
            step *= 0.5
        big_fz = fz + lam * np.abs(z[1:]).sum()
        if big_fz > big_f + 1e-15 * (1.0 + abs(big_f)):
            x_prev, t = x, 1.0
        else:
            x_prev, x, g, big_f, t = x, z, gz, big_fz, t_next
    raise AssertionError("reference proximal gradient did not converge")


# ---------------------------------------------------------------------------
# default penalties
# ---------------------------------------------------------------------------


def test_normal_quantile_matches_ndtri_at_penalty_quantiles():
    # the normal quantile inside default_penalties (NormalDist.inv_cdf) against
    # scipy's ndtri at the tail probabilities it asks for; 1e-15 relative is a
    # few ulp at these values
    for n in (40, 200, 500, 2000, 5000):
        for p in (4, 40, 100, 1000):
            tail = 1.0 - 0.05 / max(float(n), p * math.log(n))
            lam_gamma, _ = default_penalties(n, p)
            want = 1.1 / (2.0 * math.sqrt(n)) * ndtri(tail)
            assert abs(lam_gamma - want) <= 1e-15 * abs(want)


def test_expit_matches_scipy_without_warnings():
    # Both are 1/(1 + exp(-v)); numpy's exp and the C library's differ in
    # the last bits, and the largest difference seen on this grid is 4 ulp.
    v = np.linspace(-800.0, 800.0, 400_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = solvers.expit(v)
        assert solvers.expit(-800.0) == 0.0 and solvers.expit(800.0) == 1.0
    assert ours[0] == 0.0 and ours[-1] == 1.0
    ulps = np.abs(ours.view(np.int64) - expit(v).view(np.int64))
    assert ulps.max() <= 4


def test_expit_writes_into_out_with_the_same_bits():
    v = np.linspace(-800.0, 800.0, 4001)
    want = solvers.expit(v)
    with np.errstate(over="ignore"):
        assert np.array_equal(want, 1.0 / (1.0 + np.exp(-v)))
    buf = np.empty_like(v)
    assert solvers.expit(v, out=buf) is buf
    assert np.array_equal(buf, want)
    same = v.copy()
    assert solvers.expit(same, out=same) is same  # in place over the input
    assert np.array_equal(same, want)


def test_newton_divergence_guard_is_silent_on_overflow():
    # one Newton step lands at 1e300, whose square overflows; the norm is then
    # inf, which still trips the guard, and no RuntimeWarning escapes
    def value_grad(x):
        return -float(x[0]), np.array([-1.0])

    value_grad.hess = lambda x: np.array([[1e-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnboundedObjective):
            solvers._newton(value_grad, np.zeros(1), UnboundedObjective("diverged"))


def test_import_leaves_scipy_unloaded():
    code = "import sys, pbrdr; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_default_penalties_reference_value():
    lam_gamma, lam_beta = default_penalties(200, 40)
    # frozen values from the erf-bisection oracle
    assert lam_gamma == pytest.approx(0.13597218137789974, abs=1e-9)
    assert lam_beta == pytest.approx(0.2719443627557995, abs=1e-9)
    # recompute through the independent oracle
    tail = 1.0 - 0.05 / max(200.0, 40 * math.log(200))
    lam_oracle = 1.1 / (2.0 * math.sqrt(200)) * quantile_bisect(tail)
    assert lam_gamma == pytest.approx(lam_oracle, abs=1e-10)


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=5000))
def test_default_penalties_ratio(n, p):
    lam_gamma, lam_beta = default_penalties(n, p)
    assert lam_beta == 2.0 * lam_gamma
    assert lam_gamma > 0.0


def test_default_penalties_decrease_in_n():
    lam_200, _ = default_penalties(200, 3)
    lam_800, _ = default_penalties(800, 3)
    assert lam_800 < lam_200


def test_default_penalties_validation():
    with pytest.raises(ValueError):
        default_penalties(1, 5)
    with pytest.raises(ValueError):
        default_penalties(100, 0)


# ---------------------------------------------------------------------------
# calibration lasso (stage 1)
# ---------------------------------------------------------------------------


def test_calibration_intercept_only():
    rng = np.random.default_rng(1)
    a = (rng.random(60) < 0.35).astype(float)
    data = Dataset(rng.standard_normal(60), a, np.zeros((60, 0)))
    fit = fit_calibration_lasso(data, 0.0)
    assert expit(fit.coef[0]) == pytest.approx(a.mean(), abs=1e-8)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("lam", [0.05, 0.2])
def test_calibration_kkt(seed, lam):
    data = random_dataset(seed, n=150, p=6)
    fit = fit_calibration_lasso(data, lam)
    s = unit_sd(data)
    score = calibration_score(data, fit.coef) / s
    assert l1_violation(score, fit.coef * s, lam) <= lam * 1e-4 + 1e-8
    assert fit.active_set == tuple(j for j in range(1, 7) if fit.coef[j] != 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_calibration_identity(seed):
    data = random_dataset(seed, n=120, p=4)
    fit = fit_calibration_lasso(data, 0.1)
    pi = expit(data.design() @ fit.coef)
    assert np.mean(data.a / pi) == pytest.approx(1.0, abs=1e-7)


def test_calibration_error_shrinks_with_n():
    # Monte Carlo oracle: average coefficient error at n=2000 below n=200
    spec = ScenarioSpec("S1", 200, 15, False, True, True, reps=1, seed=0)
    model = build_model(spec)
    g_true = np.zeros(16)
    g_true[1:11] = 1.0 / np.arange(1, 11)
    lam_small, _ = default_penalties(200, 15)
    lam_large, _ = default_penalties(2000, 15)
    err_small, err_large = [], []
    for r in range(50):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=42, spawn_key=(r,)))
        data = draw_dataset(model, 2000, 15, False, rng)
        small = Dataset(data.y[:200], data.a[:200], data.x[:200])
        f_small = fit_calibration_lasso(small, lam_small)
        f_large = fit_calibration_lasso(data, lam_large)
        err_small.append(np.linalg.norm(f_small.coef - g_true))
        err_large.append(np.linalg.norm(f_large.coef - g_true))
    assert np.mean(err_large) < np.mean(err_small)


def test_calibration_requires_both_arms():
    rng = np.random.default_rng(0)
    data = Dataset(rng.standard_normal(30), np.ones(30), rng.standard_normal((30, 2)))
    with pytest.raises(DegenerateData):
        fit_calibration_lasso(data, 0.1)


def test_calibration_unbounded_on_separable_data():
    # treatment perfectly separated by the covariate: no minimum at lambda=0
    x = np.linspace(-2, 2, 80).reshape(-1, 1)
    a = (x[:, 0] > 0).astype(float)
    data = Dataset(np.zeros(80), a, x)
    with pytest.raises(UnboundedObjective):
        fit_calibration_lasso(data, 0.0)


# ---------------------------------------------------------------------------
# weighted outcome lasso (stage 2)
# ---------------------------------------------------------------------------


def _unit_gamma(p):
    from pbrdr.solvers import Coefficients

    g = np.zeros(p + 1)
    g[0] = 40.0  # pi ~ 1, so w = exp(-u) ~ 0; not used by these tests
    return Coefficients(g, 0.0, 0.0)


def test_weighted_lasso_soft_threshold_oracle():
    # single covariate orthogonal to the intercept, every unit treated (unit weights)
    rng = np.random.default_rng(3)
    n = 80
    x = rng.standard_normal(n)
    x = (x - x.mean()) / x.std(ddof=0)  # exactly orthogonal to the intercept
    y = 0.8 * x + rng.standard_normal(n)
    data = Dataset(y, np.ones(n), x.reshape(-1, 1))
    lam = 0.15
    fit = fit_linear_lasso(data, lam)
    # closed form on the unit-SD covariate: soft threshold of the OLS slope
    s = unit_sd(data)[1]
    x, slope = x / s, fit.coef[1] * s
    b_ols = float(x @ (y - y.mean())) / float(x @ x)
    expected = math.copysign(max(abs(b_ols) - n * lam / float(x @ x), 0.0), b_ols)
    assert slope == pytest.approx(expected, abs=1e-8)
    # brute-force 1-D grid minimizer of the objective around the solution
    grid = np.linspace(slope - 0.05, slope + 0.05, 2001)
    b0 = fit.coef[0]
    objs = [np.mean((y - b0 - b * x) ** 2) / 2 + lam * abs(b) for b in grid]
    assert abs(grid[int(np.argmin(objs))] - slope) <= 5e-5


@pytest.mark.parametrize("seed", range(4))
def test_weighted_lasso_kkt(seed):
    data = random_dataset(seed, n=160, p=5)
    gamma = fit_calibration_lasso(data, 0.08)
    lam = 0.12
    beta = fit_weighted_outcome_lasso(data, gamma, lam)
    # the objective gradient is the negative of the weighted score
    s = unit_sd(data)
    grad = -weighted_outcome_score(data, gamma.coef, beta.coef) / s
    assert l1_violation(grad, beta.coef * s, beta.lam) <= beta.lam * 1e-4 + 1e-8


def test_weighted_lasso_level_is_weight_total_over_n():
    # the loss is normalized by the weight total, so the level on the mean
    # scale is lambda times the treated units' inverse-odds weight total over n
    data = random_dataset(2, n=160, p=5)
    gamma = fit_calibration_lasso(data, 0.08)
    pi_t = expit(data.design() @ gamma.coef)[data.a == 1.0]
    beta = fit_weighted_outcome_lasso(data, gamma, 0.12)
    assert beta.lam == pytest.approx(0.12 * float(np.sum((1.0 - pi_t) / pi_t)) / data.n, rel=1e-12)


def test_weighted_lasso_zero_lambda_normal_equations(dataset):
    gamma = fit_calibration_lasso(dataset, 0.05)
    beta = fit_weighted_outcome_lasso(dataset, gamma, 0.0)
    score = weighted_outcome_score(dataset, gamma.coef, beta.coef) / unit_sd(dataset)
    assert np.max(np.abs(score)) <= 1e-8


def test_weighted_lasso_constant_outcome():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((90, 3))
    a = np.zeros(90)
    a[:45] = 1.0
    y = np.where(a == 1.0, 4.2, rng.standard_normal(90))
    data = Dataset(y, a, x)
    gamma = fit_calibration_lasso(data, 0.0)
    beta = fit_weighted_outcome_lasso(data, gamma, 0.0)
    assert beta.coef[0] == pytest.approx(4.2, abs=1e-7)
    assert np.max(np.abs(beta.coef[1:])) <= 1e-7


def test_weighted_lasso_degenerate_weights():
    from pbrdr.solvers import Coefficients

    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 1))
    a = np.ones(40)
    a[:10] = 0.0
    data = Dataset(rng.standard_normal(40), a, x)
    gamma = Coefficients(np.array([-50.0, 0.0]), 0.0, 0.0)  # pi ~ 0 on treated
    with pytest.raises(DegenerateWeights):
        fit_weighted_outcome_lasso(data, gamma, 0.1)


def _outcome_lasso_case(p, weighted):
    """(data, weights, lam, fit) of an outcome lasso at the suite's penalty level;
    the weighted fit takes a logistic-lasso propensity, which cannot diverge."""
    data = random_dataset(30 + p, n=100, p=p)
    lam_gamma, lam_beta = default_penalties(data.n, data.p)
    if not weighted:
        lam = lam_beta * data.n_treated / data.n
        return data, data.a, lam, fit_linear_lasso(data, lam)
    gamma = fit_logistic_lasso(data, lam_gamma)
    weights = np.where(data.a == 1.0, np.exp(-(data.design() @ gamma.coef)), 0.0)
    fit = fit_weighted_outcome_lasso(data, gamma, lam_beta)
    return data, weights, fit.lam, fit


@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "linear"])
@pytest.mark.parametrize("p", [400, 40])
def test_working_set_lasso_matches_dense_coordinate_descent(p, weighted):
    from pbrdr.solvers import DEFAULT_TOL

    data, weights, lam, fit = _outcome_lasso_case(p, weighted)
    # the same problem on the full dense Gram matrix, standardized independently
    scales = np.std(data.x, axis=0, ddof=1)
    z = np.hstack([np.ones((data.n, 1)), data.x / scales])
    gram = (z * weights[:, None]).T @ z / data.n
    lin = z.T @ (weights * data.y) / data.n
    x0 = np.zeros(p + 1)
    x0[0] = lin[0] / gram[0, 0]
    dense = coordinate_descent(gram, lin, lam, x0)
    coef_std = fit.coef.copy()
    coef_std[1:] *= scales
    assert np.max(np.abs(coef_std - dense)) <= 1e-7
    assert 0 < len(fit.active_set) < p
    # the reported residual is the full-design one, recomputed here from scratch
    grad = z.T @ (weights * (z @ coef_std - data.y)) / data.n
    assert fit.kkt_residual <= DEFAULT_TOL
    assert l1_violation(grad, coef_std, lam) == pytest.approx(fit.kkt_residual, abs=1e-12)


@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "linear"])
def test_working_set_lasso_budget_exhaustion(weighted, monkeypatch):
    assert _outcome_lasso_case(400, weighted)[3].n_iter > 1
    monkeypatch.setattr(solvers, "DEFAULT_NEWTON_ITER", 1)
    with pytest.raises(NonConvergence):
        _outcome_lasso_case(400, weighted)


@given(
    st.integers(min_value=30, max_value=80),
    st.integers(min_value=2, max_value=120),
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=0.0, max_value=6.0),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_screened_outcome_lasso_matches_coordinate_descent(n, p, frac, log_scale, weighted, seed):
    # p ranges past the treated count, the level over most of the lasso path
    # and the outcome scale from 1 to 1e6; the working-set Newton solve must
    # find the dense reference's support and coefficients
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    a = np.zeros(n)
    a[rng.permutation(n)[: n // 2]] = 1.0
    y = 10.0**log_scale * (x[:, 0] - 0.5 * x[:, -1] + rng.standard_normal(n))
    weights = a * rng.uniform(0.2, 5.0, n) if weighted else a
    data = Dataset(y, a, x)
    scales = np.std(x, axis=0, ddof=1)
    z = np.hstack([np.ones((n, 1)), x / scales])
    gram = (z * weights[:, None]).T @ z / n
    lin = z.T @ (weights * y) / n
    x0 = np.zeros(p + 1)
    x0[0] = lin[0] / gram[0, 0]
    lam = frac * float(np.max(np.abs(gram[1:, 0] * x0[0] - lin[1:])))
    fit = solvers._weighted_lasso(data, weights, lam)
    # float resolution, and so each tolerance, is relative to the units of y
    ref_tol = 1e-12 * max(1.0, float(np.max(np.abs(lin))))
    ref = coordinate_descent(gram, lin, lam, x0, ref_tol)
    coef_std = fit.coef.copy()
    coef_std[1:] *= scales
    assert fit.active_set == tuple(int(j) + 1 for j in np.flatnonzero(ref[1:]))
    # On one support and sign pattern the coefficient gap is the active Gram
    # matrix's inverse times the gap of the two KKT residuals, so near
    # interpolation it may exceed 1e-7 of the coefficients' scale by that much.
    active = np.flatnonzero(ref)
    eig_min = np.linalg.eigvalsh(gram[np.ix_(active, active)])[0]
    allowed = np.sqrt(active.size) * (fit.kkt_residual + ref_tol) / eig_min
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(coef_std - ref)) <= max(1e-7 * scale, allowed)
    floor = max(solvers.DEFAULT_TOL, 64.0 * np.finfo(float).eps * float(np.max(np.abs(lin))))
    assert fit.kkt_residual <= floor
    assert l1_violation(z.T @ (weights * (z @ coef_std - y)) / n, coef_std, lam) <= floor


def test_outcome_lasso_near_interpolation_stops_within_its_budget():
    # y x 1e3 leaves the absolute penalty far below the outcome's scale, so at
    # p >> n the fit is near interpolation and does not converge; it must spend
    # its Newton budget in seconds and name the working set it stalled on
    spec = ScenarioSpec("S1", 200, 1000, False, True, True, reps=1, seed=0)
    data = draw_dataset(build_model(spec), 200, 1000, False, np.random.default_rng([0, 200, 1000, 9]))
    data = Dataset(data.y * 1e3, data.a, data.x)
    lam = default_penalties(data.n, data.p)[1] * data.n_treated / data.n
    with pytest.raises(NonConvergence, match="on a working set of"):
        fit_linear_lasso(data, lam)


def _propensity_lasso_case(p, fitter):
    """(data, lam, fit) of a propensity lasso at the suite's penalty level."""
    data = random_dataset(30 + p, n=200, p=p, signal=2.0)  # nonempty active sets
    lam = default_penalties(data.n, data.p)[0]
    return data, lam, fitter(data, lam)


PROPENSITY_LASSOS = pytest.mark.parametrize(
    "fitter", [fit_calibration_lasso, fit_logistic_lasso], ids=["calibration", "logistic"]
)


@PROPENSITY_LASSOS
@pytest.mark.parametrize("p", [400, 40])
def test_screened_propensity_lasso_matches_full_proximal_gradient(p, fitter):
    data, lam, fit = _propensity_lasso_case(p, fitter)
    calibration = fitter is fit_calibration_lasso
    loss = solvers._calibration_value_grad if calibration else solvers._logistic_value_grad
    # the same problem on the full design, standardized independently
    scales = np.std(data.x, axis=0, ddof=1)
    z = np.hstack([np.ones((data.n, 1)), data.x / scales])
    x0 = np.zeros(p + 1)
    x0[0] = math.log(data.a.mean() / (1.0 - data.a.mean()))
    full = proximal_gradient(loss(z, data.a), x0, lam)
    coef_std = fit.coef.copy()
    coef_std[1:] *= scales
    assert np.max(np.abs(coef_std - full)) <= 1e-7
    assert 0 < len(fit.active_set) < p
    # the reported residual is the full-design one, recomputed here from scratch
    u = z @ coef_std
    score = z.T @ ((1.0 - data.a / expit(u)) if calibration else (expit(u) - data.a)) / data.n
    assert fit.kkt_residual <= solvers.DEFAULT_TOL
    assert l1_violation(score, coef_std, lam) == pytest.approx(fit.kkt_residual, abs=1e-12)


@PROPENSITY_LASSOS
def test_screened_propensity_lasso_budget_is_shared_by_its_passes(fitter, monkeypatch):
    total = _propensity_lasso_case(400, fitter)[2].n_iter
    assert total > 1
    monkeypatch.setattr(solvers, "DEFAULT_NEWTON_ITER", total)
    assert _propensity_lasso_case(400, fitter)[2].n_iter == total
    for budget in (1, total - 1):
        monkeypatch.setattr(solvers, "DEFAULT_NEWTON_ITER", budget)
        with pytest.raises(NonConvergence, match="shared by all passes"):
            _propensity_lasso_case(400, fitter)


def test_calibration_unbounded_at_p_much_larger_than_n():
    # S1 draws on which no treated reweighting balances the controls to
    # within the default penalty; the screened fit must still name the cause,
    # a certified direction and its level lambda_d
    for n, p, k in ((200, 1000, 5), (200, 1000, 11), (40, 200, 18)):
        spec = ScenarioSpec("S1", n, p, False, True, True, reps=1, seed=11)
        data = draw_dataset(build_model(spec), n, p, False, np.random.default_rng([11, k]))
        with pytest.raises(UnboundedObjective, match="lambda_d"):
            fit_calibration_lasso(data, default_penalties(n, p)[0])


def test_calibration_lasso_with_a_minimum_converges_at_p_much_larger_than_n():
    # a draw whose penalised calibration loss has a minimum, close to the
    # level below which it has none; the fit must reach it, and so must the
    # estimators built on it
    spec = ScenarioSpec("S1", 40, 200, False, True, True, reps=1, seed=11)
    data = draw_dataset(build_model(spec), 40, 200, False, np.random.default_rng([11, 1, 2]))
    lam = default_penalties(40, 200)[0]
    fit = fit_calibration_lasso(data, lam)
    assert fit.kkt_residual <= solvers.DEFAULT_TOL
    s = unit_sd(data)
    assert l1_violation(calibration_score(data, fit.coef) / s, fit.coef * s, lam) <= 1.01e-8
    suite = estimate_suite(data, ["P-BR", "DS-P-BR"])
    assert [suite[tag].error for tag in ("P-BR", "DS-P-BR")] == [None, None]


def _lp_lambda_star(z, a):
    """``max(0, -min{c.d : z_t.d >= 0, ||d[1:]||_1 <= 1})`` by linear programming,
    ``c`` the control rows' sum over ``n``: the calibration lasso has a minimum
    for every larger penalty and none below (Zhao 2019)."""
    n, k = z.shape
    c = z[a == 0.0].sum(axis=0) / n
    # variables: d[0], then d[1:] = u - v with u, v >= 0
    cost = np.concatenate([c, -c[1:]])
    z_t = z[a == 1.0]
    a_ub = np.vstack([-np.hstack([z_t, -z_t[:, 1:]]), np.r_[0.0, np.ones(2 * (k - 1))]])
    b_ub = np.r_[np.zeros(z_t.shape[0]), 1.0]
    bounds = [(None, None)] + [(0.0, None)] * (2 * (k - 1))
    lp = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert lp.status == 0, lp.message
    return max(0.0, -lp.fun)


@given(
    st.integers(min_value=20, max_value=79),
    st.floats(min_value=1.0, max_value=2.99),
    st.floats(min_value=0.2, max_value=0.8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# two draws on which a Newton step pushed a coordinate across zero: a line
# search that only halves let it approach zero by ever shorter steps and stall
@example(34, 2.479226631824126, 0.4739332827041749, 250047049)
@example(51, 1.8789912005008025, 0.36508774541751127, 3478651281)
def test_calibration_lasso_is_unbounded_exactly_below_the_lp_level(n, ratio, frac, seed):
    # at p >= n the LP oracle's level sits inside the range of default
    # penalties; 1% above it the fit must converge, 1% below it must name the
    # missing minimum by the certificate
    p = int(ratio * n)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    a = np.zeros(n)
    a[rng.permutation(n)[: max(2, min(n - 2, round(frac * n)))]] = 1.0
    data = Dataset(rng.standard_normal(n), a, x)
    z = np.hstack([np.ones((n, 1)), x / np.std(x, axis=0, ddof=1)])
    lam_star = _lp_lambda_star(z, a)
    assert lam_star > 0.0
    fit = fit_calibration_lasso(data, 1.01 * lam_star)
    assert fit.kkt_residual <= solvers.DEFAULT_TOL
    with pytest.raises(UnboundedObjective, match="lambda_d"):
        fit_calibration_lasso(data, 0.99 * lam_star)


@given(
    st.integers(min_value=4, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=5, max_size=5),
    st.one_of(st.floats(min_value=0.0, max_value=2.0), st.floats(1.0 - 1e-9, 1.0 + 1e-9)),
    st.sampled_from(["intercept", "slopes", "one slope"]),
)
def test_calibration_certificate_holds_in_exact_arithmetic(n, p, seed, d, factor, design):
    # whenever the certificate fires, its direction must hold in rational
    # arithmetic, and whenever it does not, the direction must fail or come
    # within 1e-8 of holding; lambda is a multiple of the direction's own
    # level lambda_d, and within 1e-9 of it float rounding decides. Without
    # an intercept column (the bias surface's slopes) d is tested as given,
    # and a one-column design has no penalised coordinate: lambda_d is inf
    rng = np.random.default_rng(seed)
    z = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-3, 3, p)])
    if design != "intercept":
        z[:, 0] = rng.standard_normal(n)
    if design == "one slope":
        z = z[:, :1]
    a = np.zeros(n)
    a[rng.permutation(n)[: n // 2]] = 1.0
    d = np.array([v if abs(v) > 1e-6 else 0.0 for v in d[: z.shape[1]]])
    # point d[1:] from the controls' mean towards the treated mean
    d[1:] *= np.sign(z[a == 1.0, 1:].mean(axis=0) @ d[1:] - z[a == 0.0, 1:].mean(axis=0) @ d[1:]) or 1.0
    shifted = d.copy()
    if design == "intercept":
        shifted[0] -= min(0.0, float(np.min(z[a == 1.0] @ d)))
    else:
        # turn most treated rows to the side of d, so that z_t.d >= 0 often holds
        turn = (z[a == 1.0] @ d < 0.0) & (rng.random(n // 2) < 0.9)
        z[np.flatnonzero(a == 1.0)[turn]] *= -1.0
    lam_d = -float(z[a == 0.0].sum(axis=0) @ shifted) / n / (np.abs(d[1:]).sum() or 1.0)
    lam = factor * max(0.0, lam_d)
    given_d = d.copy()
    try:
        solvers._calibration_value_grad(z, a).certify(d, lam)  # may raise d[0] in place
        message = None
    except UnboundedObjective as exc:
        message = str(exc)
    fired = message is not None
    assert design == "intercept" or np.array_equal(d, given_d)
    dq = [Fraction(v) for v in d]
    z_d = [sum(Fraction(v) * w for v, w in zip(row, dq)) for row in z]
    l1 = sum(abs(v) for v in dq[1:])
    value = sum(u for u, ai in zip(z_d, a) if ai == 0.0) / n + Fraction(lam) * l1
    holds = (l1 > 0 or design != "intercept") and all(u >= 0 for u, ai in zip(z_d, a) if ai == 1.0)
    if fired:
        assert holds and value < 0
        assert ("lambda_d = inf" in message) == (l1 == 0)
    elif holds:
        scale = float(np.abs(z).max() * np.abs(d).sum()) + lam * float(l1)
        assert value >= -1e-8 * scale


@pytest.mark.parametrize("seed", range(4))
def test_calibration_minimum_is_its_dual_value_above_the_lower_bound(seed):
    data = random_dataset(seed, n=150, p=6)
    lam = 0.05
    fit = fit_calibration_lasso(data, lam)
    z = data.design()
    u = z @ fit.coef
    treated = data.a == 1.0
    w = np.exp(-u[treated])  # the dual weights: treated inverse odds
    primal = (w.sum() + u[~treated].sum()) / data.n + lam * np.abs(fit.coef * unit_sd(data))[1:].sum()
    dual = np.sum(w - w * np.log(w)) / data.n
    assert primal == pytest.approx(dual, abs=1e-7)
    # the treated weights sum to n_c (the intercept's equation), so
    # sum w log w <= n_c log n_c: no minimum lies below (n_c/n)(1 - log n_c)
    n_c = data.n - data.n_treated
    assert primal > n_c * (1.0 - math.log(n_c)) / data.n


@pytest.mark.parametrize("columns", [[], [4], [1, 3], [5, 2, 4], [1, 2, 3, 4, 5]])
def test_restrict_builds_the_dataset_the_constructor_would(columns):
    # ``restrict`` skips the constructor's checks on arrays already checked;
    # what it builds is what the constructor makes of the same columns, with
    # this dataset's design and standardized design cut to them
    data = random_dataset(31, n=40, p=5)
    selected, sub = data.restrict(columns, "selected")
    index = [0] + selected
    checked = Dataset(data.y, data.a, data.x[:, [j - 1 for j in selected]])
    pairs = [(sub.y, checked.y), (sub.a, checked.a), (sub.x, checked.x), (sub.design(), checked.design())]
    for mine, theirs in pairs:
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
        assert mine.flags.c_contiguous and not mine.flags.writeable
    z, scales = data.standardized()
    z_sub, scales_sub = sub.standardized()
    assert z_sub.tobytes() == z.take(index, axis=1).tobytes()
    assert scales_sub.tobytes() == scales.take([j - 1 for j in selected]).tobytes()
    assert sub.design() is sub.design() and sub.standardized() is sub.standardized()
    assert (sub.n, sub.p, sub.n_treated) == (checked.n, checked.p, checked.n_treated)


def test_dataset_is_read_only_and_builds_its_design_once():
    x = np.random.default_rng(12).standard_normal((30, 3))
    a = np.tile([0.0, 1.0], 15)
    y = np.arange(30.0)
    data = Dataset(y, a, x)
    # writeable input is copied, so later writes by the caller do not leak in
    x[0, 0] = 99.0
    assert data.x[0, 0] != 99.0
    z = data.design()
    assert data.design() is z
    for arr in (z, data.x, data.y, data.a):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(AttributeError):
        data.x = x
    # read-only input is shared, and so is everything the recoded arm reuses
    again = Dataset(data.y, data.a, data.x)
    assert again.x is data.x and again.y is data.y
    swapped = data.swap_treatment()
    assert swapped.x is data.x and swapped.y is data.y and swapped.design() is z
    assert np.array_equal(swapped.a, 1.0 - data.a)
    # a restriction shares y and a, and cuts the cached arrays to its columns
    selected, sub = data.restrict([3, 1, 3], "selected")
    assert selected == [1, 3] and sub.y is data.y and sub.a is data.a
    z_std, scales = data.standardized()
    for part, whole, index in [
        (sub.x, data.x, [0, 2]),
        (sub.design(), z, [0, 1, 3]),
        (sub.standardized()[0], z_std, [0, 1, 3]),
        (sub.standardized()[1], scales, [0, 2]),
    ]:
        assert part.flags.c_contiguous and not part.flags.writeable
        assert part.tobytes() == whole.take(index, axis=-1).tobytes()
    # so refits on two or more columns are bit for bit those on a dataset of the columns
    fresh = Dataset(y, a, data.x[:, [0, 2]])

    def refits(d, columns):
        br = fit_br_refit(d, columns, 0.1)
        refit = [post_lasso_refit(d, columns, which) for which in ("propensity", "outcome")]
        return refit + [br.gamma, br.beta]

    for mine, theirs in zip(refits(data, [1, 3]), refits(fresh, [1, 2])):
        assert mine.coef[2] == 0.0 and mine.coef[[0, 1, 3]].tobytes() == theirs.coef.tobytes()
        assert (mine.lam, mine.kkt_residual, mine.n_iter) == (
            theirs.lam, theirs.kkt_residual, theirs.n_iter
        )


# ---------------------------------------------------------------------------
# logistic MLE / logistic lasso
# ---------------------------------------------------------------------------


def test_logistic_mle_intercept_only():
    rng = np.random.default_rng(7)
    a = (rng.random(200) < 0.62).astype(float)
    data = Dataset(rng.standard_normal(200), a, np.zeros((200, 0)))
    fit = fit_logistic_mle(data)
    assert expit(fit.coef[0]) == pytest.approx(a.mean(), abs=1e-9)


def test_logistic_mle_independent_treatment():
    rng = np.random.default_rng(8)
    n = 100_000
    x = rng.standard_normal((n, 3))
    a = (rng.random(n) < 0.5).astype(float)
    data = Dataset(rng.standard_normal(n), a, x)
    fit = fit_logistic_mle(data)
    assert np.max(np.abs(fit.coef[1:])) < 0.05


def test_logistic_mle_two_cell_log_odds():
    # replicated binary design with known cell frequencies: MLE matches the
    # log-odds computed by hand enumeration
    x = np.array([0.0] * 40 + [1.0] * 40).reshape(-1, 1)
    a = np.array([1.0] * 10 + [0.0] * 30 + [1.0] * 30 + [0.0] * 10)
    data = Dataset(np.zeros(80), a, x)
    fit = fit_logistic_mle(data)
    logit = lambda p: math.log(p / (1 - p))
    assert fit.coef[0] == pytest.approx(logit(0.25), abs=1e-7)
    assert fit.coef[1] == pytest.approx(logit(0.75) - logit(0.25), abs=1e-7)


def test_logistic_mle_separation():
    x = np.linspace(-1, 1, 60).reshape(-1, 1)
    a = (x[:, 0] > 0).astype(float)
    data = Dataset(np.zeros(60), a, x)
    with pytest.raises(Separation):
        fit_logistic_mle(data)


def test_logistic_mle_constant_covariate_is_rank_deficient():
    # a constant column duplicates the intercept: Newton diverges along the
    # null space, and the error names the collinearity, not separation
    data = random_dataset(0, n=200, p=20)
    x = data.x.copy()
    x[:, 3] = 2.5
    with pytest.raises(RankDeficient):
        fit_logistic_mle(Dataset(data.y, data.a, x))


def test_logistic_mle_is_plain_newton_on_a_balanced_sample():
    # exactly half the units treated: the intercept's score is exactly 0 at the
    # start, and the unpenalized engine must still take every full Newton step
    # on every coordinate, bit for bit
    rng = np.random.default_rng(3)
    n, p = 120, 4
    a = np.zeros(n)
    a[rng.permutation(n)[: n // 2]] = 1.0
    data = Dataset(rng.standard_normal(n), a, rng.standard_normal((n, p)))
    fit = fit_logistic_mle(data)
    z, scales = data.standardized()
    coef = np.zeros(p + 1)
    for it in range(solvers.DEFAULT_NEWTON_ITER):
        pi = solvers.expit(z @ coef)
        grad = z.T @ (pi - a) / n
        assert it or grad[0] == 0.0
        if np.max(np.abs(grad)) <= solvers.DEFAULT_TOL:
            break
        coef = coef + np.linalg.solve((z * (pi * (1.0 - pi))[:, None]).T @ z / n, -grad)
    assert fit.n_iter == it > 1
    assert np.array_equal(fit.coef[0], coef[0])
    assert np.array_equal(fit.coef[1:], coef[1:] / scales)


def test_logistic_lasso_full_shrinkage(dataset):
    fit = fit_logistic_lasso(dataset, 5.0)
    assert fit.active_set == ()
    assert expit(fit.coef[0]) == pytest.approx(dataset.a.mean(), abs=1e-7)


def test_logistic_lasso_zero_lambda_equals_mle(dataset):
    lasso = fit_logistic_lasso(dataset, 0.0)
    mle = fit_logistic_mle(dataset)
    assert np.allclose(lasso.coef, mle.coef, atol=2e-5)


@pytest.mark.parametrize("seed", range(4))
def test_logistic_lasso_kkt(seed):
    data = random_dataset(seed, n=140, p=6)
    lam = 0.07
    fit = fit_logistic_lasso(data, lam)
    z = data.design()
    s = unit_sd(data)
    score = z.T @ (expit(z @ fit.coef) - data.a) / data.n / s
    assert l1_violation(score, fit.coef * s, lam) <= lam * 1e-4 + 1e-8


@pytest.mark.parametrize("at_zero", [False, True], ids=["suite_lambda", "zero_lambda"])
@pytest.mark.parametrize("fitter", [fit_calibration_lasso, fit_logistic_lasso],
                         ids=["calibration", "logistic"])
def test_propensity_lasso_reports_its_kkt_residual(fitter, at_zero):
    data = random_dataset(21, n=200, p=10, signal=1.5)  # nonempty active sets
    lam = 0.0 if at_zero else default_penalties(data.n, data.p)[0]
    fit = fitter(data, lam)
    z = data.design()
    if fitter is fit_calibration_lasso:
        score = calibration_score(data, fit.coef)
    else:
        score = z.T @ (expit(z @ fit.coef) - data.a) / data.n
    s = unit_sd(data)
    assert fit.kkt_residual <= solvers.DEFAULT_TOL
    assert l1_violation(score / s, fit.coef * s, lam) == pytest.approx(fit.kkt_residual, abs=1e-12)


# ---------------------------------------------------------------------------
# OLS and plain lasso
# ---------------------------------------------------------------------------


def test_ols_interpolation():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((50, 3))
    beta_true = np.array([1.0, -2.0, 0.5, 3.0])
    y = np.hstack([np.ones((50, 1)), x]) @ beta_true
    data = Dataset(y, np.ones(50), x)
    fit = fit_ols(data)
    assert np.allclose(fit.coef, beta_true, atol=1e-10)


def test_ols_intercept_only():
    rng = np.random.default_rng(10)
    y = rng.standard_normal(40)
    a = np.zeros(40)
    a[:25] = 1.0
    data = Dataset(y, a, np.zeros((40, 0)))
    fit = fit_ols(data)
    assert fit.coef[0] == pytest.approx(y[:25].mean(), abs=1e-12)


def test_ols_matches_normal_equations(dataset):
    fit = fit_ols(dataset)
    sel = dataset.a == 1.0
    z = dataset.design()[sel]
    oracle = np.linalg.solve(z.T @ z, z.T @ dataset.y[sel])
    assert np.allclose(fit.coef, oracle, atol=1e-9)
    # residual orthogonality on the standardized design, the scale of the
    # problem solved, and on the 1/n mean scale of every fitter
    z_std, scales = dataset.standardized()
    z_std, coef_std = z_std[sel], fit.coef * np.concatenate([[1.0], scales])
    resid = float(np.max(np.abs(z_std.T @ (dataset.y[sel] - z_std @ coef_std)))) / dataset.n
    assert fit.kkt_residual == pytest.approx(resid, rel=1e-3, abs=0.0)


def test_ols_rank_deficient():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((30, 2))
    x = np.hstack([x, x[:, :1]])  # duplicated column
    data = Dataset(rng.standard_normal(30), np.ones(30), x)
    with pytest.raises(RankDeficient):
        fit_ols(data)


def test_linear_lasso_full_shrinkage(dataset):
    fit = fit_linear_lasso(dataset, 50.0)
    assert fit.active_set == ()
    treated_mean = dataset.y[dataset.a == 1.0].mean()
    assert fit.coef[0] == pytest.approx(treated_mean, abs=1e-7)


def test_linear_lasso_zero_equals_ols(dataset):
    lasso = fit_linear_lasso(dataset, 0.0)
    ols = fit_ols(dataset)
    assert np.allclose(lasso.coef, ols.coef, atol=1e-7)


def test_linear_lasso_options_are_keyword_only(dataset):
    # the old ``treated_only`` flag, passed third, must not be silently ignored
    with pytest.raises(TypeError):
        fit_linear_lasso(dataset, 0.1, False)


def test_solver_options_are_removed(dataset):
    # fitters take data and lambda only; an old options call fails loudly
    with pytest.raises(ImportError):
        from pbrdr import SolverOptions  # noqa: F401
    with pytest.raises(TypeError):
        fit_linear_lasso(dataset, 0.1, opts=None)
    # nor do fits carry an objective trace
    with pytest.raises(TypeError):
        solvers.Coefficients(np.zeros(2), 0.1, 0.0, 1, objective_trace=None)


def test_linear_lasso_orthonormal_soft_threshold():
    # columns orthonormal and orthogonal to the intercept: every slope is an
    # independent soft threshold of its OLS value
    rng = np.random.default_rng(12)
    n, p = 64, 4
    basis, _ = np.linalg.qr(np.hstack([np.ones((n, 1)), rng.standard_normal((n, p))]))
    x = basis[:, 1:]
    beta_true = np.array([0.9, -0.4, 0.05, 0.0])
    y = x @ beta_true + 0.1 * rng.standard_normal(n)
    data = Dataset(y, np.ones(n), x)
    lam = 0.002
    fit = fit_linear_lasso(data, lam)
    # the slopes separate on the unit-SD columns too, which stay orthogonal
    s = unit_sd(data)
    x, slopes = x / s[1:], fit.coef[1:] * s[1:]
    for j in range(p):
        col = x[:, j]
        b_ols = float(col @ y) / float(col @ col)
        expected = math.copysign(max(abs(b_ols) - n * lam / float(col @ col), 0.0), b_ols)
        assert slopes[j] == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# post-selection refits
# ---------------------------------------------------------------------------


def test_post_lasso_empty_selection(dataset):
    fit = post_lasso_refit(dataset, [], "propensity")
    assert expit(fit.coef[0]) == pytest.approx(dataset.a.mean(), abs=1e-8)
    assert np.all(fit.coef[1:] == 0.0)
    fit_o = post_lasso_refit(dataset, [], "outcome")
    assert fit_o.coef[0] == pytest.approx(dataset.y[dataset.a == 1.0].mean(), abs=1e-8)


def test_post_lasso_full_selection(dataset):
    full = list(range(1, dataset.p + 1))
    refit = post_lasso_refit(dataset, full, "propensity")
    mle = fit_logistic_mle(dataset)
    assert np.allclose(refit.coef, mle.coef, atol=1e-7)
    refit_o = post_lasso_refit(dataset, full, "outcome")
    ols = fit_ols(dataset)
    assert np.allclose(refit_o.coef, ols.coef, atol=1e-9)


def test_post_lasso_removes_shrinkage():
    # refit coefficients exceed the lasso values in magnitude on the selected
    # set for a clear majority of draws
    wins = total = 0
    for seed in range(10):
        data = random_dataset(seed, n=150, p=6)
        lam, _ = default_penalties(data.n, data.p)
        lasso = fit_logistic_lasso(data, lam)
        if not lasso.active_set:
            continue
        refit = post_lasso_refit(data, lasso.active_set, "propensity")
        for j in lasso.active_set:
            total += 1
            if abs(refit.coef[j]) >= abs(lasso.coef[j]):
                wins += 1
    assert total > 0 and wins / total > 0.5


def test_post_lasso_validates_indices(dataset):
    with pytest.raises(ValueError):
        post_lasso_refit(dataset, [0], "propensity")
    with pytest.raises(ValueError):
        post_lasso_refit(dataset, [dataset.p + 1], "outcome")


# ---------------------------------------------------------------------------
# ridge-stabilised double-selection refit
# ---------------------------------------------------------------------------


def test_br_refit_empty_selection(dataset):
    fit = fit_br_refit(dataset, [], 0.05)
    assert np.all(fit.gamma.coef[1:] == 0.0)
    # intercept ridge-exempt: the scalar calibration equation holds exactly
    pi0 = expit(fit.gamma.coef[0])
    assert np.mean(dataset.a / pi0) == pytest.approx(1.0, abs=1e-7)
    # outcome intercept: weighted treated mean
    w = dataset.a * (1.0 - pi0) / pi0
    expected = float(w @ dataset.y) / float(w.sum())
    assert fit.beta.coef[0] == pytest.approx(expected, abs=1e-7)


def test_br_refit_ridge_to_zero_limit(dataset):
    selected = [1, 2]
    small = fit_br_refit(dataset, selected, 1e-10)
    sub = Dataset(dataset.y, dataset.a, dataset.x[:, :2])
    g0 = fit_calibration_lasso(sub, 0.0)
    b0 = fit_weighted_outcome_lasso(sub, g0, 0.0)
    assert np.allclose(small.gamma.coef[[0, 1, 2]], g0.coef, atol=1e-4)
    assert np.allclose(small.beta.coef[[0, 1, 2]], b0.coef, atol=1e-4)


def test_br_refit_residual_at_solution(dataset):
    lam_ridge = 0.1
    fit = fit_br_refit(dataset, [1, 3], lam_ridge)
    idx = [0, 1, 3]
    score = calibration_score(dataset, fit.gamma.coef)[idx]
    # the ridge acts on the unit-SD scale: on the raw scale its gradient is
    # 2 lam s_j^2 g_j
    ridge_term = 2.0 * lam_ridge * unit_sd(dataset)[idx] ** 2 * fit.gamma.coef[idx]
    ridge_term[0] = 0.0  # intercept exempt
    assert np.max(np.abs(score + ridge_term)) <= 1e-7
    out_score = weighted_outcome_score(dataset, fit.gamma.coef, fit.beta.coef)[idx]
    assert np.max(np.abs(out_score)) <= 1e-7


def test_br_refit_duplicated_column_is_minimum_norm(dataset):
    # A repeated covariate leaves the outcome equations rank deficient; the
    # refit returns their minimum-norm solution, which splits the weight evenly.
    x = np.column_stack([dataset.x[:, :2], dataset.x[:, 0]])
    data = Dataset(dataset.y, dataset.a, x)
    fit = fit_br_refit(data, [1, 2, 3], 0.05)
    assert np.all(np.isfinite(fit.beta.coef))
    assert fit.beta.coef[1] == pytest.approx(fit.beta.coef[3], rel=1e-8)
    out_score = weighted_outcome_score(data, fit.gamma.coef, fit.beta.coef)
    assert np.max(np.abs(out_score)) <= 1e-7


# ---------------------------------------------------------------------------
# analytic gradients vs central finite differences
# ---------------------------------------------------------------------------


def _fd_grad(fun, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


@pytest.mark.parametrize("objective", ["calibration", "weighted_ls", "logistic"])
def test_gradients_match_finite_differences(objective):
    from pbrdr.solvers import _calibration_value_grad, _logistic_value_grad

    rng = np.random.default_rng(17)
    data = random_dataset(99, n=90, p=4)
    z = data.design()
    if objective == "calibration":
        vg = _calibration_value_grad(z, data.a)
        fun = lambda c: vg(c)[0]
        grad = lambda c: vg(c)[1]
    elif objective == "logistic":
        vg = _logistic_value_grad(z, data.a)
        fun = lambda c: vg(c)[0]
        grad = lambda c: vg(c)[1]
    else:
        w = data.a * 0.8
        fun = lambda c: float(np.sum(w * (data.y - z @ c) ** 2)) / (2 * data.n)
        grad = lambda c: -z.T @ (w * (data.y - z @ c)) / data.n
    for _ in range(20):
        point = 0.5 * rng.standard_normal(5)
        g_analytic = grad(point)
        g_fd = _fd_grad(fun, point)
        denom = max(1.0, float(np.max(np.abs(g_analytic))))
        assert np.max(np.abs(g_analytic - g_fd)) / denom <= 1e-5


@pytest.mark.parametrize("objective", ["calibration", "logistic"])
def test_hessians_match_finite_differences(objective):
    from pbrdr.solvers import _calibration_value_grad, _logistic_value_grad

    loss = _calibration_value_grad if objective == "calibration" else _logistic_value_grad
    rng = np.random.default_rng(18)
    data = random_dataset(99, n=90, p=4)
    vg = loss(data.design(), data.a)
    for _ in range(20):
        point = 0.5 * rng.standard_normal(5)
        h_analytic = vg.hess(point)
        h_fd = np.column_stack([_fd_grad(lambda c: vg(c)[1][j], point) for j in range(5)])
        assert np.allclose(h_analytic, h_analytic.T)
        denom = max(1.0, float(np.max(np.abs(h_analytic))))
        assert np.max(np.abs(h_analytic - h_fd)) / denom <= 1e-5


@pytest.mark.parametrize("closure", ["logistic", "calibration", "ridged"])
def test_hessian_reuses_only_its_own_points_weights(closure, monkeypatch):
    # a closure keeps the weights of the point it evaluated last, and its
    # Hessian reuses them for that very object only: an earlier point, or an
    # equal copy of the last one, has its weights recomputed
    data = random_dataset(99, n=90, p=4)
    z = data.standardized()[0]
    treated = data.a == 1.0
    ridge = np.zeros(5)
    if closure == "ridged":
        ridge[1:] = 2.0 * 0.1
        losses = []
        fit = solvers._fit
        monkeypatch.setattr(solvers, "_fit", lambda loss, *args, **kw: losses.append(loss) or fit(loss, *args, **kw))
        fit_br_refit(data, range(1, 5), 0.1)
        make = losses[0]
    else:
        loss = solvers._logistic_value_grad if closure == "logistic" else solvers._calibration_value_grad
        make = lambda z: loss(z, data.a)
    x_a, x_b = 0.5 * np.random.default_rng(19).standard_normal((2, 5))
    vg = make(z)
    vg(x_a)
    vg(x_b)
    assert vg.hess(x_a).tobytes() == make(z).hess(x_a).tobytes()
    u = z @ x_b
    if closure == "logistic":
        pi = solvers.expit(u)
        closed = (z * (pi * (1.0 - pi))[:, None]).T @ z / data.n
    else:
        z_t = z[treated]
        closed = (z_t * np.exp(-u[treated])[:, None]).T @ z_t / data.n + np.diag(ridge)
    exps = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda *args, **kw: exps.append(1) or exp(*args, **kw))
    assert vg.hess(x_b).tobytes() == closed.tobytes()
    assert not exps
    assert vg.hess(x_b.copy()).tobytes() == closed.tobytes()
    assert len(exps) == 1


# ---------------------------------------------------------------------------
# scale equivariance and low-dimensional reduction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("factor", [0.02, 7.5])
def test_scale_equivariance(factor):
    data = random_dataset(21, n=130, p=4)
    scaled = Dataset(data.y, data.a, data.x * np.array([factor, 1, 1, 1]))
    lam, lam_b = default_penalties(data.n, data.p)
    g1 = fit_calibration_lasso(data, lam)
    g2 = fit_calibration_lasso(scaled, lam)
    pi1 = expit(data.design() @ g1.coef)
    pi2 = expit(scaled.design() @ g2.coef)
    assert np.allclose(pi1, pi2, atol=1e-6)
    assert g2.coef[1] == pytest.approx(g1.coef[1] / factor, rel=1e-5, abs=1e-10)
    b1 = fit_weighted_outcome_lasso(data, g1, lam_b)
    b2 = fit_weighted_outcome_lasso(scaled, g2, lam_b)
    m1 = data.design() @ b1.coef
    m2 = scaled.design() @ b2.coef
    assert np.allclose(m1, m2, atol=1e-6)
    assert b2.coef[1] == pytest.approx(b1.coef[1] / factor, rel=1e-5, abs=1e-10)


def test_zero_lambda_low_dimensional_reduction():
    # with both penalties at zero the fits solve the unpenalized bias-reduced
    # equations: all scores vanish
    data = random_dataset(33, n=200, p=2)
    gamma = fit_calibration_lasso(data, 0.0)
    beta = fit_weighted_outcome_lasso(data, gamma, 0.0)
    assert np.max(np.abs(calibration_score(data, gamma.coef))) <= 1e-7
    assert np.max(np.abs(weighted_outcome_score(data, gamma.coef, beta.coef))) <= 1e-7


def test_nuisance_fit_dimension_check():
    from pbrdr.solvers import Coefficients

    g = Coefficients(np.zeros(3), 0.0, 0.0)
    b = Coefficients(np.zeros(4), 0.0, 0.0)
    with pytest.raises(ValueError):
        NuisanceFit(g, b)


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


def _control_only(d):
    return Dataset(d.y, np.zeros(d.n), d.x)


def _coef(d, value=0.0):
    return solvers.Coefficients(np.full(d.p + 1, value), 0.0, 0.0)


@pytest.mark.parametrize(
    "call, exc, fragment",
    [
        (lambda d: fit_calibration_lasso(d, -0.1), ValueError, "lambda must be nonnegative"),
        (lambda d: fit_calibration_lasso(d, math.nan), ValueError, "lambda must be nonnegative"),
        (lambda d: fit_logistic_lasso(d, math.nan), ValueError, "lambda must be nonnegative"),
        (lambda d: fit_weighted_outcome_lasso(d, _coef(d), -0.1), ValueError, "lambda_beta must be nonnegative"),
        (
            lambda d: fit_weighted_outcome_lasso(d, _coef(d), math.nan),
            ValueError,
            "lambda_beta must be nonnegative",
        ),
        (
            lambda d: fit_weighted_outcome_lasso(_control_only(d), _coef(d), 0.1),
            DegenerateData,
            "no treated units; the outcome model cannot be fit",
        ),
        (lambda d: fit_weighted_outcome_lasso(d, _coef(d, np.nan), 0.1), ValueError, "gamma_hat must be finite"),
        (lambda d: fit_linear_lasso(d, -0.1), ValueError, "lambda must be nonnegative"),
        (lambda d: fit_linear_lasso(d, math.nan), ValueError, "lambda must be nonnegative"),
        (
            lambda d: fit_linear_lasso(_control_only(d), 0.1),
            DegenerateData,
            "no treated units; the outcome lasso cannot be fit",
        ),
        (lambda d: fit_ols(_control_only(d)), DegenerateData, "no treated units; OLS cannot be fit"),
        (lambda d: post_lasso_refit(d, [1], "both"), ValueError, "which must be 'propensity' or 'outcome'"),
        (lambda d: fit_br_refit(d, [1], 0.0), ValueError, "lambda_ridge must be positive"),
        (lambda d: fit_br_refit(d, [1, 2], math.nan), ValueError, "lambda_ridge must be positive"),
        (lambda d: fit_br_refit(d, [1, 2], math.inf), ValueError, "lambda_ridge must be positive"),
    ],
    ids=[
        "calibration-lambda", "calibration-nan", "logistic-nan", "weighted-lambda", "weighted-nan",
        "weighted-no-treated", "weighted-gamma", "linear-lambda", "linear-nan", "linear-no-treated",
        "ols-no-treated", "refit-which", "br-ridge", "br-ridge-nan", "br-ridge-inf",
    ],
)
def test_input_checks(dataset, call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call(dataset)


@pytest.mark.parametrize("which", ["propensity", "outcome"])
def test_post_lasso_refit_size_guard_at_p_much_larger_than_n(which):
    # a selection as large as the sample, as lasso unions reach at p >> n
    data = random_dataset(4, n=40, p=200)
    relevant = data.n if which == "propensity" else data.n_treated
    with pytest.raises(RankDeficient, match=f"{relevant} selected covariates cannot be refit on {relevant} "):
        post_lasso_refit(data, range(1, relevant + 1), which)
