"""Estimator-level tests: influence identities, double-robustness algebra, the suite, ATE."""

import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from conftest import random_dataset
from pbrdr import (
    DEFAULT_ROSTER,
    ConfigError,
    Dataset,
    DegenerateData,
    NuisanceFit,
    PositivityViolation,
    RankDeficient,
    ate_estimate,
    dr_estimate,
    estimate_one,
    estimate_suite,
    influence_values,
    iptw_estimate,
    or_estimate,
    pop_iptw_estimate,
)
from pbrdr import estimators, solvers
from pbrdr.simulation import ScenarioSpec, build_model, draw_dataset
from pbrdr.solvers import Coefficients, fit_ols


def make_fit(gamma, beta):
    gamma = np.asarray(gamma, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return NuisanceFit(Coefficients(gamma, 0.0, 0.0), Coefficients(beta, 0.0, 0.0))


def random_fit(rng, p):
    return make_fit(0.4 * rng.standard_normal(p + 1), rng.standard_normal(p + 1))


# ---------------------------------------------------------------------------
# influence values
# ---------------------------------------------------------------------------


def test_influence_untreated_units_are_fitted_values(dataset):
    rng = np.random.default_rng(0)
    fit = random_fit(rng, dataset.p)
    u = influence_values(dataset, fit)
    m = dataset.design() @ fit.beta.coef
    untreated = dataset.a == 0.0
    assert np.array_equal(u[untreated], m[untreated])


def test_influence_interpolating_outcome_model():
    # if the outcome model reproduces y on treated units, the weights drop out
    rng = np.random.default_rng(1)
    x = rng.standard_normal((60, 2))
    beta = np.array([0.5, 1.0, -2.0])
    y = np.hstack([np.ones((60, 1)), x]) @ beta
    a = (rng.random(60) < 0.5).astype(float)
    data = Dataset(y, a, x)
    fit = make_fit(rng.standard_normal(3), beta)
    u = influence_values(data, fit)
    assert np.allclose(u, y, rtol=0, atol=1e-12)


def test_influence_all_treated_unit_propensity():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(40)
    data = Dataset(y, np.ones(40), np.zeros((40, 0)))
    fit = make_fit([60.0], [0.0])  # expit(60) == 1.0 in float
    u = influence_values(data, fit)
    assert np.allclose(u, y, atol=1e-12)
    assert dr_estimate(data, fit).mu_hat == pytest.approx(y.mean(), abs=1e-14)


def test_influence_positivity_guard():
    rng = np.random.default_rng(3)
    data = Dataset(rng.standard_normal(30), np.ones(30), np.zeros((30, 0)))
    fit = make_fit([-20.0], [0.0])  # pi ~ 2e-9 < 1e-6
    with pytest.raises(PositivityViolation):
        influence_values(data, fit)


# ---------------------------------------------------------------------------
# double-robustness algebra (exact finite-sample identities)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_dr_equals_or_when_outcome_interpolates(seed):
    rng = np.random.default_rng(seed)
    n, p = 70, 3
    x = rng.standard_normal((n, p))
    beta = rng.standard_normal(p + 1)
    a = (rng.random(n) < 0.5).astype(float)
    z = np.hstack([np.ones((n, 1)), x])
    y = z @ beta  # outcome model interpolates every unit
    data = Dataset(y, a, x)
    gamma = 0.5 * rng.standard_normal(p + 1)  # arbitrary finite propensity fit
    fit = make_fit(gamma, beta)
    dr = dr_estimate(data, fit)
    or_res = or_estimate(data, fit.beta)
    assert dr.mu_hat == pytest.approx(or_res.mu_hat, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_dr_equals_iptw_when_outcome_model_zero(seed):
    rng = np.random.default_rng(seed + 10)
    data = random_dataset(seed, n=90, p=4)
    gamma = 0.5 * rng.standard_normal(5)
    fit = make_fit(gamma, np.zeros(5))
    dr = dr_estimate(data, fit)
    iptw = iptw_estimate(data, fit.gamma)
    assert dr.mu_hat == pytest.approx(iptw.mu_hat, abs=1e-12)
    assert np.allclose(dr.influence, iptw.influence, atol=1e-12)


# ---------------------------------------------------------------------------
# result construction
# ---------------------------------------------------------------------------


def test_influence_mean_identity(dataset):
    rng = np.random.default_rng(4)
    fit = random_fit(rng, dataset.p)
    for res in (
        dr_estimate(dataset, fit),
        or_estimate(dataset, fit.beta),
        iptw_estimate(dataset, fit.gamma),
        pop_iptw_estimate(dataset, fit.gamma),
    ):
        assert res.mu_hat == float(np.mean(res.influence))
        assert res.se == res.sigma_hat / math.sqrt(dataset.n)
        assert res.ci[0] == res.mu_hat - 1.96 * res.se
        assert res.ci[1] == res.mu_hat + 1.96 * res.se
        assert res.ci[0] <= res.mu_hat <= res.ci[1]


def test_sigma_matches_two_pass_oracle(dataset):
    rng = np.random.default_rng(5)
    fit = random_fit(rng, dataset.p)
    res = dr_estimate(dataset, fit)
    u = res.influence
    mean = sum(u) / len(u)
    two_pass = math.sqrt(sum((v - mean) ** 2 for v in u) / (len(u) - 1))
    assert res.sigma_hat == pytest.approx(two_pass, rel=1e-12)


def test_constant_influence_zero_width_ci():
    y = np.full(25, 3.5)
    data = Dataset(y, np.ones(25), np.zeros((25, 0)))
    fit = make_fit([0.0], [3.5])
    res = dr_estimate(data, fit)
    assert res.sigma_hat == 0.0
    assert res.ci == (res.mu_hat, res.mu_hat)


def test_or_estimate_constant_model(dataset):
    beta = Coefficients(np.array([2.5] + [0.0] * dataset.p), 0.0, 0.0)
    res = or_estimate(dataset, beta)
    assert res.mu_hat == pytest.approx(2.5, abs=1e-12)
    assert res.se_is_naive


def test_or_estimate_linear_truth():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((80, 2))
    beta_true = np.array([1.0, 0.7, -0.3])
    z = np.hstack([np.ones((80, 1)), x])
    y = z @ beta_true
    a = np.zeros(80)
    a[:50] = 1.0
    data = Dataset(y, a, x)
    fit = fit_ols(data)
    res = or_estimate(data, fit)
    assert res.mu_hat == pytest.approx(float(np.mean(z @ beta_true)), abs=1e-10)


def test_iptw_constant_weights():
    rng = np.random.default_rng(7)
    n = 400
    a = (rng.random(n) < 0.4).astype(float)
    y = rng.standard_normal(n) + 2.0
    data = Dataset(y, a, np.zeros((n, 0)))
    abar = a.mean()
    gamma = Coefficients(np.array([math.log(abar / (1 - abar))]), 0.0, 0.0)
    res = iptw_estimate(data, gamma)
    expected = y[a == 1.0].mean() * (a.sum() / (n * abar))
    assert res.mu_hat == pytest.approx(expected, abs=1e-10)
    assert res.mu_hat == pytest.approx(y[a == 1.0].mean(), abs=1e-10)


def test_pop_iptw_constant_weights_gives_treated_mean():
    rng = np.random.default_rng(8)
    n = 100
    a = (rng.random(n) < 0.5).astype(float)
    y = rng.standard_normal(n)
    data = Dataset(y, a, np.zeros((n, 0)))
    gamma = Coefficients(np.array([0.3]), 0.0, 0.0)
    res = pop_iptw_estimate(data, gamma)
    assert res.mu_hat == pytest.approx(y[a == 1.0].mean(), abs=1e-12)


def test_pop_iptw_constant_outcome(dataset):
    rng = np.random.default_rng(9)
    data = Dataset(np.full(dataset.n, -1.7), dataset.a, dataset.x)
    gamma = Coefficients(0.3 * rng.standard_normal(dataset.p + 1), 0.0, 0.0)
    res = pop_iptw_estimate(data, gamma)
    assert res.mu_hat == pytest.approx(-1.7, abs=1e-12)


@given(st.floats(min_value=-50, max_value=50))
def test_pop_iptw_location_equivariance(shift):
    data = random_dataset(11, n=80, p=2)
    rng = np.random.default_rng(12)
    gamma = Coefficients(0.3 * rng.standard_normal(3), 0.0, 0.0)
    base = pop_iptw_estimate(data, gamma)
    shifted = pop_iptw_estimate(Dataset(data.y + shift, data.a, data.x), gamma)
    assert shifted.mu_hat == pytest.approx(base.mu_hat + shift, abs=1e-9)


def test_dr_or_plus_weighted_residual_oracle(dataset):
    # mu_hat decomposes as the OR estimate plus the mean weighted residual,
    # verified by direct summation
    rng = np.random.default_rng(13)
    beta = fit_ols(dataset)
    gamma = Coefficients(0.4 * rng.standard_normal(dataset.p + 1), 0.0, 0.0)
    fit = NuisanceFit(gamma, beta)
    res = dr_estimate(dataset, fit)
    z = dataset.design()
    m = z @ beta.coef
    pi = expit(z @ gamma.coef)
    direct = 0.0
    for i in range(dataset.n):
        direct += m[i]
        if dataset.a[i] == 1.0:
            direct += (dataset.y[i] - m[i]) / pi[i]
    or_part = float(np.mean(m))
    assert res.mu_hat == pytest.approx(direct / dataset.n, rel=1e-12)
    resid_part = res.mu_hat - or_part
    direct_resid = float(np.mean(np.where(dataset.a == 1.0, (dataset.y - m) / pi, 0.0)))
    assert resid_part == pytest.approx(direct_resid, abs=1e-10)


# ---------------------------------------------------------------------------
# the estimator suite
# ---------------------------------------------------------------------------


def test_suite_default_roster(dataset):
    suite = estimate_suite(dataset)
    assert set(suite) == set(DEFAULT_ROSTER)
    for tag, entry in suite.items():
        assert entry.ok, f"{tag} failed with {entry.error}"


def test_suite_deterministic(dataset):
    s1 = estimate_suite(dataset)
    s2 = estimate_suite(dataset)
    for tag in s1:
        assert s1[tag].result.mu_hat == s2[tag].result.mu_hat
        assert s1[tag].result.se == s2[tag].result.se


def test_suite_mle_rank_deficient_when_n_at_most_p_plus_1():
    data = random_dataset(3, n=12, p=11)
    suite = estimate_suite(data, ["MLE"])
    entry = suite["MLE"]
    assert not entry.ok
    assert entry.error == "RankDeficient"


def test_suite_unknown_tag(dataset):
    for tag in ("no-such-estimator", "IPTW-MLE"):  # IPTW-MLE is off the roster
        with pytest.raises(ConfigError) as err:
            estimate_suite(dataset, [tag])
        assert "valid tags" in str(err.value)


def test_suite_shares_error_across_dependents():
    # separated propensity: every MLE-based estimator reports the same error,
    # the rest still run
    rng = np.random.default_rng(14)
    n = 60
    x = np.linspace(-1, 1, n).reshape(-1, 1)
    x = np.hstack([x, rng.standard_normal((n, 1))])
    a = (x[:, 0] > 0).astype(float)
    y = rng.standard_normal(n)
    data = Dataset(y, a, x)
    suite = estimate_suite(data, ["MLE", "Pop-IPTW-MLE", "OR-OLS"])
    assert suite["MLE"].error == "Separation"
    assert suite["Pop-IPTW-MLE"].error == "Separation"
    assert suite["OR-OLS"].ok


def test_suite_errors_do_not_keep_data_alive():
    # a stored error holds no frames, so dropping the suite frees the dataset
    # without the cyclic garbage collector
    data = random_dataset(5, n=12, p=11)
    ref = weakref.ref(data)
    gc.disable()
    try:
        suite = estimate_suite(data, ["OR-OLS", "Pop-IPTW-MLE"])
        assert suite["OR-OLS"].error == "RankDeficient"
        del suite, data
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "tag, budget", [("LASSO", "DEFAULT_NEWTON_ITER"), ("P-BR", "DEFAULT_NEWTON_ITER")]
)
def test_suite_chained_errors_do_not_keep_data_alive(tag, budget, monkeypatch):
    # a working-set fit re-raises a spent budget from the engine's error,
    # whose traceback must not survive in the stored one either
    monkeypatch.setattr(solvers, budget, 1)
    data = random_dataset(5, n=200, p=40, signal=2.0)
    ref = weakref.ref(data)
    gc.disable()
    try:
        suite = estimate_suite(data, [tag])
        assert suite[tag].error == "NonConvergence"
        del suite, data
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "seed, n, p, tag",
    [(0, 120, 5, "DS-P-BR"), (2, 120, 5, "LASSO"), (16, 60, 20, "P-BR")],
    ids=["DS-P-BR", "LASSO", "P-BR-working-set"],
)
def test_ds_pbr_large_outcome_scale(seed, n, p, tag):
    # the unpenalized normal equations of the refit and the lasso outcome fits
    # are solved to float precision relative to the units of y; the last case
    # stalls if the working set's residual is taken from the design products
    data = random_dataset(seed, n=n, p=p)
    entry = estimate_suite(Dataset(data.y * 1e8, data.a, data.x), [tag])[tag]
    assert entry.ok, entry.error
    assert math.isfinite(entry.result.mu_hat)


def test_estimate_one_raises(dataset):
    res = estimate_one(dataset, "P-BR")
    assert res.fit is not None
    small = random_dataset(5, n=12, p=11)
    with pytest.raises(Exception):
        estimate_one(small, "MLE")


def test_pbr_carries_active_sets(dataset):
    res = estimate_one(dataset, "P-BR")
    assert res.fit.gamma.active_set == tuple(
        j for j in range(1, dataset.p + 1) if res.fit.gamma.coef[j] != 0.0
    )


def test_suite_looks_its_fitters_up_at_call_time(monkeypatch):
    # the benchmark's tracer swaps ``estimators.<fitter>`` in place; a table
    # holding the function objects would bypass the swap. P-BR and DS-P-BR
    # share the one calibration fit.
    calls = []
    fit = estimators.fit_calibration_lasso

    def counting(*args, **kwargs):
        calls.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(estimators, "fit_calibration_lasso", counting)
    suite = estimate_suite(random_dataset(4, n=200, p=10), ["P-BR", "DS-P-BR"])
    assert suite["P-BR"].ok and suite["DS-P-BR"].ok
    assert len(calls) == 1


def test_suite_refits_each_column_set_once(monkeypatch):
    # on this grid draw the propensity lasso selects no column the outcome
    # lasso misses, so DS-LASSO's outcome refit is Post-LASSO's: OLS runs for
    # OR-OLS and for that one refit (three times if each tag refit its own)
    spec = ScenarioSpec("S1", 200, 40, False, True, True, reps=1, seed=0)
    data = draw_dataset(build_model(spec), 200, 40, False, np.random.default_rng(0))
    fits = estimators._NuisanceFits(data)
    assert fits.union("g_lasso", "b_lasso") == fits("b_lasso").active_set
    calls = []

    def counting(d):
        calls.append(d.p)
        return fit_ols(d)

    monkeypatch.setattr(estimators, "fit_ols", counting)
    monkeypatch.setattr(solvers, "fit_ols", counting)
    suite = estimate_suite(data)
    assert sorted(calls) == [len(fits("b_lasso").active_set), 40]
    assert suite["DS-LASSO"].result.fit.beta is suite["Post-LASSO"].result.fit.beta

    # a failing shared refit fails both tags with the one error, fit once
    def failing(d):
        calls.append(d.p)
        raise RankDeficient("refit failed")

    calls.clear()
    monkeypatch.setattr(solvers, "fit_ols", failing)
    suite = estimate_suite(data, ["DS-LASSO", "Post-LASSO"])
    assert len(calls) == 1
    assert suite["DS-LASSO"].exception is suite["Post-LASSO"].exception
    assert suite["DS-LASSO"].error == "RankDeficient"


def test_all_tags_sorted_and_complete():
    assert list(DEFAULT_ROSTER) == sorted(DEFAULT_ROSTER)
    assert len(set(DEFAULT_ROSTER)) == 10


@pytest.mark.parametrize("tag", ["P-BR", "OR-OLS"])
def test_fortran_ordered_read_only_covariates_give_the_same_bits(tag):
    d = random_dataset(7, n=120, p=4)
    xf = np.asfortranarray(d.x)
    xf.flags.writeable = False
    fortran = Dataset(d.y, d.a, xf)
    assert fortran.x.flags.c_contiguous
    assert estimate_one(fortran, tag).mu_hat == estimate_one(d, tag).mu_hat


@pytest.mark.parametrize("units", [1e-300, 1e-200, 1e-12, 1e14, 1e200, 1e300])
@pytest.mark.parametrize("scenario, correlated", [("S1", False), ("S2", True)], ids=["S1", "S2-AR1"])
def test_covariate_units_change_no_estimate(scenario, correlated, units):
    # every fitter solves on unit-SD covariates and maps its coefficients back,
    # so x in other units moves no estimate beyond rounding: at 1e-200 the
    # squared deviations behind the SDs underflow and at 1e200 they overflow,
    # and at 1e14 a raw least-squares design loses its intercept's rank
    spec = ScenarioSpec(scenario, 200, 40, correlated, True, True, reps=1, seed=0)
    data = draw_dataset(build_model(spec), 200, 40, correlated, np.random.default_rng(0))
    scaled = estimate_suite(Dataset(data.y, data.a, data.x * units))
    for tag, entry in estimate_suite(data).items():
        if entry.result is None:
            assert type(scaled[tag].exception) is type(entry.exception), tag
        else:
            assert scaled[tag].ok, (tag, scaled[tag].error)
            assert scaled[tag].result.mu_hat == pytest.approx(entry.result.mu_hat, rel=1e-12, abs=0.0), tag


# ---------------------------------------------------------------------------
# ATE
# ---------------------------------------------------------------------------


def test_ate_antisymmetry(dataset):
    res = ate_estimate(dataset, "P-BR")
    swapped = ate_estimate(dataset.swap_treatment(), "P-BR")
    assert swapped.ate == pytest.approx(-res.ate, abs=1e-12)
    assert swapped.se == pytest.approx(res.se, abs=1e-12)
    assert res.ate == res.arm1.mu_hat - res.arm0.mu_hat


def test_ate_null_effect_covers_zero():
    rng = np.random.default_rng(15)
    n = 400
    x = rng.standard_normal((n, 3))
    a = (rng.random(n) < 0.5).astype(float)
    y = rng.standard_normal(n)  # outcome independent of treatment
    data = Dataset(y, a, x)
    res = ate_estimate(data, "P-BR")
    assert abs(res.ate) < 0.3
    assert res.ci[0] <= 0.0 <= res.ci[1]


def test_ate_illustration_shape_smoke():
    # workflow-sized input: n=152, p=9, must run end to end with finite output
    rng = np.random.default_rng(16)
    n, p = 152, 9
    x = rng.standard_normal((n, p))
    pi = expit(0.3 * x[:, 0] - 0.2 * x[:, 1])
    a = (rng.random(n) < pi).astype(float)
    y = 2.0 + x @ (0.5 / np.arange(1, p + 1)) - 1.5 * a + rng.standard_normal(n)
    data = Dataset(y, a, x)
    for tag in ("P-BR", "DS-P-BR", "MLE", "Pop-IPTW-MLE"):
        res = ate_estimate(data, tag)
        assert math.isfinite(res.ate) and math.isfinite(res.se) and res.se > 0
        assert res.ate == pytest.approx(res.arm1.mu_hat - res.arm0.mu_hat, abs=1e-12)


def test_readme_library_quick_start_runs(capsys):
    # the documented calls must keep matching the public signatures
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    data = random_dataset(0)
    exec(code, {"y": data.y, "a": data.a, "x": data.x})
    assert "P-BR" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


def _zero_fit(d):
    return Coefficients(np.zeros(d.p + 1), 0.0, 0.0)


@pytest.mark.parametrize(
    "call, exc, fragment",
    [
        (lambda d: Dataset(d.y[:-1], d.a, d.x), ValueError, "inconsistent lengths: y has 119, a has 120"),
        (lambda d: Dataset(d.y, 2.0 * d.a, d.x), ValueError, "treatment vector must contain only 0/1"),
        (
            lambda d: or_estimate(d, Coefficients(np.full(d.p + 1, np.nan), 0.0, 0.0)),
            ValueError,
            "beta must be finite",
        ),
        (
            lambda d: pop_iptw_estimate(Dataset(d.y, np.zeros(d.n), d.x), _zero_fit(d)),
            DegenerateData,
            "no treated units; normalized weights are undefined",
        ),
    ],
    ids=["lengths", "treatment-codes", "or-beta", "pop-iptw-no-treated"],
)
def test_input_checks(dataset, call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call(dataset)
