"""Bias-surface study: DGP moments, grid evaluation, saddle geometry, CSV round-trip."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from pbrdr import (
    ConfigError,
    DegenerateData,
    SurfaceDgp,
    evaluate_surface,
    export_surface,
    rescale_bias,
    surface_dataset,
    UnboundedObjective,
    target_mean,
)
from pbrdr.bias_surface import _reference_slope, _scalar_dr_bias
from pbrdr.estimators import POSITIVITY_THRESHOLD
from pbrdr.solvers import _calibration_value_grad, _logistic_value_grad


def test_surface_dataset_first_moment():
    # E[X] = 2 since E[V] = 1
    data = surface_dataset(SurfaceDgp("fig1", 1_000_000, 0))
    x = data.x[:, 0]
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - 2.0) < 3 * se


def test_surface_dataset_treated_fraction():
    # direct Monte Carlo oracle of E[expit(-1 + X^2)]
    rng = np.random.default_rng(123)
    x_oracle = 3.0 - rng.gamma(1.0, 1.0, size=2_000_000)
    target = float(np.mean(expit(-1.0 + x_oracle**2)))
    data = surface_dataset(SurfaceDgp("fig1", 400_000, 1))
    se = math.sqrt(target * (1 - target) / data.n)
    assert abs(data.a.mean() - target) < 4 * se


def test_surface_dataset_deterministic():
    d1 = surface_dataset(SurfaceDgp("fig2", 1000, 5))
    d2 = surface_dataset(SurfaceDgp("fig2", 1000, 5))
    assert np.array_equal(d1.y, d2.y) and np.array_equal(d1.a, d2.a)


def test_target_mean_oracle_vs_closed_forms():
    # E[X^2] = 5 and E[X^3 - X^2] = 7 for X = 3 - V, V ~ Gamma(1, 1), from the
    # moments E[V^k] = k!; the recorded 10^7-draw oracle lies within 3 of its
    # standard errors (exact variances 8 and 89, so abs 0.0027 and 0.0090)
    x = np.polynomial.Polynomial([3.0, -1.0])

    def expectation(poly):
        return sum(c * math.factorial(k) for k, c in enumerate(poly.coef))

    for variant, outcome, exact in (("fig1", x * x, 5.0), ("fig2", x * x * x - x * x, 7.0)):
        assert expectation(outcome) == pytest.approx(exact, abs=1e-12)
        oracle_se = math.sqrt((expectation(outcome * outcome) - exact**2) / 10_000_000)
        assert abs(target_mean(variant) - exact) < 3 * oracle_se


def test_rescale_examples():
    assert rescale_bias(4.0) == pytest.approx(2.0)
    assert rescale_bias(-9.0) == pytest.approx(-3.0)
    assert rescale_bias(0.0) == 0.0


@given(st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=-1e6, max_value=1e6))
def test_rescale_sign_preserving_and_monotone(a, b):
    ra, rb = rescale_bias(a), rescale_bias(b)
    assert np.sign(ra) == np.sign(a)
    if abs(a) < abs(b):
        assert abs(ra) <= abs(rb)


def test_scalar_fits_satisfy_score_equations():
    data = surface_dataset(SurfaceDgp("fig1", 30_000, 3))
    x = data.x[:, 0]
    a = data.a
    g_cal = _reference_slope(_calibration_value_grad, x, a)
    pi = expit(g_cal * x)
    assert np.mean((1.0 - a / pi) * x) == pytest.approx(0.0, abs=1e-9)
    g_mle = _reference_slope(_logistic_value_grad, x, a)
    pi_mle = expit(g_mle * x)
    assert np.mean((a - pi_mle) * x) == pytest.approx(0.0, abs=1e-9)


def test_calibration_reference_slope_on_an_intercept_free_design_has_its_minimum():
    # the loss's minimum, -46.2 at slope -192.07, lies below (n_c/n)(1 - log
    # n_c) = 1/3, the least value of a minimum only on a design with an
    # intercept; the certificate, which here takes each direction as given,
    # must not fire on the way down
    x, a = np.array([0.01, 0.02, 1.0]), np.array([1.0, 1.0, 0.0])
    slope = _reference_slope(_calibration_value_grad, x, a)
    assert slope == pytest.approx(-192.07, abs=0.01)
    assert np.mean((1.0 - a / expit(slope * x)) * x) == pytest.approx(0.0, abs=1e-9)


def test_reference_fits_converge_at_float_noise_floor():
    # at this seed the float noise floor of the calibration score is ~5e-10,
    # so the reference fits must stop on a tolerance above it
    grid = evaluate_surface(SurfaceDgp("fig2", 100_000, 1934987794), [0.0], [0.0])
    assert all(math.isfinite(v) for v in grid.br_point)
    assert all(math.isfinite(v) for v in grid.reference_biases.values())


def test_surface_values_match_direct_plugin():
    # each grid value equals the DR plug-in computed by direct summation, and
    # the module's own cell-by-cell plug-in
    dgp = SurfaceDgp("fig1", 20_000, 2)
    gammas = [0.4, 0.8]
    betas = [-3.0, 0.0, 2.0]
    grid = evaluate_surface(dgp, gammas, betas)
    data = surface_dataset(dgp)
    mu0 = target_mean("fig1")
    x = data.x[:, 0]
    for i, gs in enumerate(gammas):
        pi = expit(gs * x)
        for j, bs in enumerate(betas):
            m = bs * x
            u = np.where(data.a == 1.0, m + (data.y - m) / pi, m)
            raw = float(np.mean(u)) - mu0
            assert grid.rescaled_bias[i, j] == pytest.approx(rescale_bias(raw), abs=1e-10)
            cell = _scalar_dr_bias(x, data.a, data.y, gs, bs, mu0)
            assert grid.rescaled_bias[i, j] == pytest.approx(rescale_bias(cell), abs=1e-10)


@pytest.mark.parametrize("variant", ["fig1", "fig2"])
@pytest.mark.parametrize("seed", [2, 5])
def test_surface_rows_match_the_plain_row_loop_bit_for_bit(variant, seed):
    # the plain loop: a fresh propensity array per row, its minimum over every
    # treated unit, then 1/pi; on a slope grid across the positivity onset, so
    # the NaN rows must match too
    dgp = SurfaceDgp(variant, 20_000, seed)
    gammas = np.linspace(-1.0, 3.0, 81)
    betas = np.array([-30.0, -2.5, 0.0, 4.0])
    data = surface_dataset(dgp)
    x, mu0 = data.x[:, 0], target_mean(variant)
    treated = data.a == 1.0
    x_t, y_t = x[treated], data.y[treated]
    want = np.full((gammas.size, betas.size), np.nan)
    for i, gs in enumerate(gammas):
        with np.errstate(over="ignore"):
            pi_t = 1.0 / (1.0 + np.exp(-(gs * x_t)))
        if np.min(pi_t) < POSITIVITY_THRESHOLD:
            continue
        inv_pi_t = 1.0 / pi_t
        t1 = (float(x.sum()) - float(x_t @ inv_pi_t)) / data.n
        t2 = float(y_t @ inv_pi_t) / data.n
        want[i, :] = betas * t1 + t2 - mu0
    nan_rows = np.isnan(want[:, 0])
    assert nan_rows.any() and not nan_rows.all()
    grid = evaluate_surface(dgp, gammas, betas)
    assert np.array_equal(grid.rescaled_bias, rescale_bias(want), equal_nan=True)


def test_surface_sample_without_treated_units_is_degenerate():
    # at n_large 2 this seed draws two controls; no inverse weight exists
    assert surface_dataset(SurfaceDgp("fig1", 2, 11)).a.sum() == 0.0
    with pytest.raises(DegenerateData, match="treated arm is empty"):
        evaluate_surface(SurfaceDgp("fig1", 2, 11), [0.0], [0.0])


@pytest.mark.parametrize("seed", [3, 5])
def test_surface_sample_without_control_units_is_degenerate(seed):
    # at n_large 2 these seeds draw two treated units; the calibration loss of
    # the BR reference then has no minimum, so no reference point exists
    assert surface_dataset(SurfaceDgp("fig1", 2, seed)).a.sum() == 2.0
    with pytest.raises(DegenerateData, match="control arm is empty"):
        evaluate_surface(SurfaceDgp("fig1", 2, seed), [0.0], [0.0])


def test_diverging_reference_fit_raises_without_overflow_warning():
    # in each sample every treated x is positive and the controls' x sum is
    # negative, so the calibration loss of the BR slope falls without end
    # along g > 0: the certificate must name that direction (lambda_d is inf
    # on the one-column design), and no overflow on the way may warn
    for dgp in (SurfaceDgp("fig1", 10, 11), SurfaceDgp("fig1", 3, 166), SurfaceDgp("fig1", 5, 0)):
        data = surface_dataset(dgp)
        x, treated = data.x[:, 0], data.a == 1.0
        assert x[treated].min() > 0.0 > x[~treated].sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(UnboundedObjective, match="lambda_d = inf"):
                evaluate_surface(dgp, [0.0], [0.0])


def test_gamma_draws_are_unit_exponential_draws():
    # X = 3 - V with V ~ Gamma(1, 1): the sample and the oracle draw V as a
    # unit exponential, which numpy takes from the same stream as gamma(1, 1)
    data = surface_dataset(SurfaceDgp("fig2", 50_000, 5))
    rng_x = np.random.default_rng(np.random.SeedSequence(entropy=5)).spawn(3)[0]
    assert np.array_equal(data.x[:, 0], 3.0 - rng_x.gamma(shape=1.0, scale=1.0, size=50_000))


def test_surface_br_point_is_saddle():
    # the raw bias around the bias-reduced point: exactly flat along the
    # outcome-slope axis, curved along the propensity-slope axis, and the
    # second-difference Hessian has negative determinant (saddle geometry)
    dgp = SurfaceDgp("fig1", 50_000, 1)
    probe = evaluate_surface(dgp, [0.0], [0.0])
    g0, b0 = probe.br_point
    h_g, h_b = 0.08, 2.0
    gammas = [g0 - h_g, g0, g0 + h_g]
    betas = [b0 - h_b, b0, b0 + h_b]
    grid = evaluate_surface(dgp, gammas, betas)
    raw = np.sign(grid.rescaled_bias) * grid.rescaled_bias**2  # undo the rescale
    assert np.all(np.isfinite(raw))
    center = raw[1, 1]
    assert center == pytest.approx(grid.reference_biases["BR"], abs=1e-6)
    d2_gamma = raw[2, 1] - 2 * center + raw[0, 1]
    d2_beta = raw[1, 2] - 2 * center + raw[1, 0]
    cross = (raw[2, 2] - raw[2, 0] - raw[0, 2] + raw[0, 0]) / 4.0
    # beta axis flat (the plug-in mean is affine in the outcome slope with a
    # vanishing coefficient at the calibration solution)
    assert abs(raw[1, 2] - raw[1, 0]) < 1e-6
    assert abs(d2_beta) < 1e-6
    # gamma axis genuinely curved, and the determinant is negative
    assert abs(d2_gamma) > 1e-4
    det = d2_gamma * d2_beta - cross**2
    assert det < 0.0
    assert abs(cross) > 1e-4


def test_surface_reference_bias_ordering():
    # bias-reduced solution beats the MLE-based DR and inverse weighting,
    # majority vote over three seeds
    for variant in ("fig1", "fig2"):
        wins_mle = wins_ipw = 0
        for seed in (0, 1, 2):
            grid = evaluate_surface(SurfaceDgp(variant, 100_000, seed), [0.0], [0.0])
            refs = grid.reference_biases
            if abs(refs["BR"]) < abs(refs["MLE-DR"]):
                wins_mle += 1
            if abs(refs["BR"]) < abs(refs["IPW"]):
                wins_ipw += 1
        assert wins_mle >= 2 and wins_ipw >= 2


def test_positivity_marks_cells_not_fatal():
    # a very steep propensity slope sends some treated fitted values below the
    # guard: the row is NaN, other rows still evaluated
    dgp = SurfaceDgp("fig1", 20_000, 4)
    grid = evaluate_surface(dgp, [8.0, 0.5], [0.0])
    assert math.isnan(grid.rescaled_bias[0, 0])
    assert math.isfinite(grid.rescaled_bias[1, 0])


def test_grid_validation():
    dgp = SurfaceDgp("fig1", 1000, 0)
    with pytest.raises(ConfigError):
        evaluate_surface(dgp, [], [0.0])
    with pytest.raises(ConfigError):
        evaluate_surface(dgp, [0.0], [math.inf])
    with pytest.raises(ConfigError):
        SurfaceDgp("fig3", 1000, 0)
    with pytest.raises(ConfigError):
        target_mean("fig3")


def test_export_roundtrip(tmp_path):
    grid = evaluate_surface(SurfaceDgp("fig2", 5_000, 7), [0.1, 0.9], [-2.0, 1.0])
    main_path, sidecar = export_surface(grid, tmp_path / "surface.csv")
    text = main_path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "gamma_slope,beta_slope,rescaled_bias"
    assert len(lines) == 1 + 4  # 2x2 grid
    side_lines = sidecar.read_text().strip().split("\n")
    tags = [ln.split(",")[0] for ln in side_lines[1:]]
    assert tags == ["BR", "MLE-DR", "IPW", "IMP", "br_point_gamma", "br_point_beta"]
    assert len([t for t in tags if not t.startswith("br_point")]) == 4
    gammas, betas = np.meshgrid(grid.gamma_slopes, grid.beta_slopes, indexing="ij")
    want = np.column_stack([gammas.ravel(), betas.ravel(), grid.rescaled_bias.ravel()])
    assert np.array_equal(np.loadtxt(main_path, delimiter=",", skiprows=1), want)
    side = dict(ln.split(",") for ln in side_lines[1:])
    assert {t: float(side[t]) for t in grid.reference_biases} == grid.reference_biases
    assert (float(side["br_point_gamma"]), float(side["br_point_beta"])) == grid.br_point
