"""Solver-level tests: closed-form oracles, stationarity conditions, error contracts."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from conftest import random_dataset
from pbrdr import (
    Dataset,
    DegenerateData,
    DegenerateWeights,
    DomainError,
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
    normal_quantile,
    post_lasso_refit,
)
from pbrdr import solvers
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


# ---------------------------------------------------------------------------
# normal quantile and default penalties
# ---------------------------------------------------------------------------


def test_normal_quantile_center():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_normal_quantile_upper_tail():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(0.975) == pytest.approx(quantile_bisect(0.975), abs=1e-10)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_normal_quantile_symmetry(q):
    assert normal_quantile(q) == pytest.approx(-normal_quantile(1.0 - q), abs=1e-9)


@given(st.floats(min_value=1e-4, max_value=1 - 1e-4))
def test_normal_quantile_roundtrip(q):
    assert phi_erf(normal_quantile(q)) == pytest.approx(q, abs=1e-12)


@pytest.mark.parametrize("q", [0.0, 1.0, -0.3, 1.7])
def test_normal_quantile_domain(q):
    with pytest.raises(DomainError):
        normal_quantile(q)


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


def test_calibration_objective_trace_monotone(dataset):
    fit = fit_calibration_lasso(dataset, 0.05)
    trace = fit.objective_trace
    assert trace is not None and len(trace) == fit.n_iter + 1
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))


def test_coordinate_descent_objective_trace_monotone(dataset):
    gamma = fit_calibration_lasso(dataset, 0.05)
    beta = fit_weighted_outcome_lasso(dataset, gamma, 0.1)
    trace = beta.objective_trace
    assert trace is not None and len(trace) == beta.n_iter + 1
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))


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
    assert l1_violation(grad, beta.coef * s, lam) <= lam * 1e-4 + 1e-8


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
    lam = lam_beta * float(weights.sum()) / data.n
    return data, weights, lam, fit_weighted_outcome_lasso(data, gamma, lam)


@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "linear"])
@pytest.mark.parametrize("p", [400, 40])
def test_working_set_lasso_matches_dense_coordinate_descent(p, weighted):
    from pbrdr.solvers import DEFAULT_CD_SWEEPS, DEFAULT_TOL, _cd_quadratic

    data, weights, lam, fit = _outcome_lasso_case(p, weighted)
    # the same problem on the full dense Gram matrix, standardized independently
    scales = np.std(data.x, axis=0, ddof=1)
    z = np.hstack([np.ones((data.n, 1)), data.x / scales])
    gram = (z * weights[:, None]).T @ z / data.n
    lin = z.T @ (weights * data.y) / data.n
    x0 = np.zeros(p + 1)
    x0[0] = lin[0] / gram[0, 0]
    penalized = np.arange(p + 1) > 0
    dense, *_ = _cd_quadratic(gram, lin, lam, penalized, x0, DEFAULT_TOL, DEFAULT_CD_SWEEPS)
    coef_std = fit.coef.copy()
    coef_std[1:] *= scales
    assert np.max(np.abs(coef_std - dense)) <= 1e-7
    assert 0 < len(fit.active_set) < p
    # the reported residual is the full-design one, recomputed here from scratch
    grad = z.T @ (weights * (z @ coef_std - data.y)) / data.n
    assert fit.kkt_residual <= DEFAULT_TOL
    assert l1_violation(grad, coef_std, lam) == pytest.approx(fit.kkt_residual, abs=1e-12)
    trace = fit.objective_trace
    assert len(trace) == fit.n_iter + 1
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))


@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "linear"])
def test_working_set_lasso_budget_exhaustion(weighted, monkeypatch):
    assert _outcome_lasso_case(400, weighted)[3].n_iter > 1
    monkeypatch.setattr(solvers, "DEFAULT_CD_SWEEPS", 1)
    with pytest.raises(NonConvergence):
        _outcome_lasso_case(400, weighted)


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
    # residual orthogonality on the 1/n mean scale of every fitter
    resid = float(np.max(np.abs(z.T @ (dataset.y[sel] - z @ fit.coef)))) / dataset.n
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
        NuisanceFit(g, b, "MLE")
