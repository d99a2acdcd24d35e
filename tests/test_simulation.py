"""Data-generating processes, metrics, the Monte Carlo runner, and config files."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pbrdr import (
    DEFAULT_ROSTER,
    ConfigError,
    DimensionError,
    ScenarioSpec,
    compute_metrics,
    gen_covariates,
    parse_config,
    parse_config_text,
    run_monte_carlo,
    scenario1_model,
    scenario2_model,
    serialize_config,
)
from pbrdr.simulation import _s1_coefficients, _s2_features, build_model, draw_dataset


def spec_s1(**kw):
    base = dict(
        scenario="S1", n=200, p=40, correlated=False, or_correct=True,
        ps_correct=True, reps=2, seed=7,
    )
    base.update(kw)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------------
# covariate generation
# ---------------------------------------------------------------------------


def test_gen_covariates_uncorrelated_moments():
    rng = np.random.default_rng(0)
    x = gen_covariates(100_000, 3, False, rng)
    cov = np.cov(x, rowvar=False)
    assert np.max(np.abs(cov - np.eye(3))) < 0.02


def test_gen_covariates_ar1_moments():
    rng = np.random.default_rng(1)
    x = gen_covariates(100_000, 3, True, rng)
    corr = np.corrcoef(x, rowvar=False)
    assert corr[0, 1] == pytest.approx(0.5, abs=0.02)
    assert corr[0, 2] == pytest.approx(0.25, abs=0.02)
    assert np.allclose(np.var(x, axis=0), 1.0, atol=0.02)


def test_gen_covariates_deterministic():
    a = gen_covariates(50, 4, True, np.random.default_rng(9))
    b = gen_covariates(50, 4, True, np.random.default_rng(9))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# scenario S1
# ---------------------------------------------------------------------------


def test_s1_coefficient_patterns():
    b, g = _s1_coefficients(40)
    # positions quoted 1-based: b[1]=1, b[5]=1/5, b[6..10]=0, b[11]=1
    assert b[0] == 1.0 and b[4] == 1.0 / 5.0 and b[10] == 1.0
    assert np.all(b[5:10] == 0.0) and np.all(b[15:] == 0.0)
    assert np.all(g[:10] == 1.0 / np.arange(1, 11)) and np.all(g[10:] == 0.0)


def test_s1_correct_models_at_origin():
    model = scenario1_model(spec_s1())
    zero = np.zeros((1, 40))
    assert model.pi0(zero)[0] == pytest.approx(0.5, abs=1e-12)
    assert model.m0(zero)[0] == pytest.approx(1.0, abs=1e-12)
    assert model.mu0 == 1.0


@pytest.mark.parametrize("correlated", [False, True])
def test_s1_misspecified_target_mean(correlated):
    # Monte Carlo oracle of E{m0(X)} for the misspecified outcome model
    model = scenario1_model(spec_s1(or_correct=False, correlated=correlated))
    rng = np.random.default_rng(2)
    x = gen_covariates(1_000_000, 40, correlated, rng)
    draws = model.m0(x)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 1.0) < 3 * se + 1e-12
    assert model.mu0 == 1.0


def test_s1_dimension_guard():
    with pytest.raises(DimensionError):
        scenario1_model(spec_s1(scenario="S2", p=14))  # S2 accepts p=14, S1 does not
    with pytest.raises(DimensionError):
        ScenarioSpec("S1", 200, 14, False, True, True, 1, 0)


# ---------------------------------------------------------------------------
# scenario S2
# ---------------------------------------------------------------------------


def s2_spec(**kw):
    base = dict(
        scenario="S2", n=200, p=40, correlated=False, or_correct=True,
        ps_correct=True, reps=1, seed=0,
    )
    base.update(kw)
    return ScenarioSpec(**base)


def test_s2_correct_models_at_origin():
    model = scenario2_model(s2_spec())
    zero = np.zeros((1, 40))
    assert model.m0(zero)[0] == pytest.approx(210.0, abs=1e-12)
    assert model.pi0(zero)[0] == pytest.approx(0.5, abs=1e-12)
    assert model.mu0 == 210.0


def test_s2_transform_values():
    x = np.zeros((1, 4))
    feats = _s2_features(x, transformed=True)
    assert feats[0, 0] == pytest.approx(1.0)  # exp(0/2)
    assert feats[0, 1] == pytest.approx(10.0)  # x2/(1+exp(x1)) + 10 at 0
    assert feats[0, 2] == pytest.approx(0.6**3)
    assert feats[0, 3] == 0.0


def test_s2_misspecified_mu0_oracle_vs_analytic():
    # uncorrelated case has a closed form: E[M1]=e^{1/8}, E[M2]=10,
    # E[M3]=0.216 + 1.8/625
    model = scenario2_model(s2_spec(or_correct=False))
    analytic = 210.0 + 27.4 * math.exp(1.0 / 8.0) + 13.7 * 10.0 + 13.7 * (0.216 + 1.8 / 625.0)
    assert model.mu0 == pytest.approx(analytic, abs=0.05)


def test_s2_dimension_guard():
    with pytest.raises(DimensionError):
        ScenarioSpec("S2", 200, 3, False, True, True, 1, 0)


# ---------------------------------------------------------------------------
# dataset drawing
# ---------------------------------------------------------------------------


def test_draw_all_treated_when_pi_is_one():
    from pbrdr.simulation import TrueModel

    model = TrueModel(lambda x: np.zeros(x.shape[0]), lambda x: np.ones(x.shape[0]), 0.0)
    data = draw_dataset(model, 200, 2, False, np.random.default_rng(3))
    assert np.all(data.a == 1.0)


def test_draw_s2_outcome_mean():
    model = scenario2_model(s2_spec(p=4))
    data = draw_dataset(model, 1_000_000, 4, False, np.random.default_rng(4))
    se = data.y.std(ddof=1) / math.sqrt(data.n)
    assert abs(data.y.mean() - 210.0) < 3 * se


def test_draw_deterministic():
    model = scenario1_model(spec_s1())
    d1 = draw_dataset(model, 100, 40, False, np.random.default_rng(5))
    d2 = draw_dataset(model, 100, 40, False, np.random.default_rng(5))
    assert np.array_equal(d1.y, d2.y) and np.array_equal(d1.a, d2.a) and np.array_equal(d1.x, d2.x)


def test_draws_nest_across_sample_sizes():
    model = scenario1_model(spec_s1())
    small = draw_dataset(model, 150, 40, False, np.random.default_rng(6))
    large = draw_dataset(model, 400, 40, False, np.random.default_rng(6))
    assert np.array_equal(large.x[:150], small.x)
    assert np.array_equal(large.a[:150], small.a)
    assert np.array_equal(large.y[:150], small.y)


@pytest.mark.parametrize("scenario", ["S1", "S2"])
@pytest.mark.parametrize("ps_correct", [True, False])
def test_treatment_prevalence_matches_model(scenario, ps_correct):
    kw = dict(scenario=scenario, n=100_000, ps_correct=ps_correct, reps=1, seed=0,
              p=40, correlated=False, or_correct=True)
    spec = ScenarioSpec(**kw)
    model = build_model(spec)
    data = draw_dataset(model, spec.n, spec.p, spec.correlated, np.random.default_rng(8))
    target = float(np.mean(model.pi0(data.x)))
    se = math.sqrt(target * (1 - target) / spec.n)
    assert abs(data.a.mean() - target) < 3 * se


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_all_exact():
    row = compute_metrics([2.0, 2.0, 2.0], [0.1, 0.2, 0.3], [True, True, True], 2.0)
    assert row.bias == 0.0 and row.rmse == 0.0 and row.mae == 0.0
    assert row.asse == pytest.approx(0.2)
    assert row.cov == 1.0


def test_metrics_hand_computed():
    row = compute_metrics([1.0, 3.0], [0.5, 0.5], [True, False], 2.0)
    assert row.bias == 0.0
    assert row.rmse == 1.0
    assert row.mae == 1.0  # lower median of {1, 1}
    assert row.mcsd == pytest.approx(math.sqrt(2.0))
    assert row.cov == 0.5


def test_metrics_lower_median_for_even_count():
    row = compute_metrics([1.0, 2.0, 5.0, 9.0], [0.1] * 4, [True] * 4, 0.0)
    assert row.mae == 2.0  # lower of the two middle absolute errors {2, 5}


def test_metrics_single_rep_degenerate():
    row = compute_metrics([3.7], [0.4], [False], 3.0)
    assert row.bias == pytest.approx(0.7)
    assert row.mcsd == 0.0
    assert row.cov in (0.0, 1.0)


def test_metrics_against_naive_oracle():
    rng = np.random.default_rng(10)
    est = list(rng.normal(5.0, 2.0, size=37))
    ses = list(rng.uniform(0.1, 1.0, size=37))
    hits = list(rng.random(37) < 0.9)
    mu0 = 5.2
    row = compute_metrics(est, ses, hits, mu0)
    # naive reference implementation, plain Python
    errs = [e - mu0 for e in est]
    bias = sum(errs) / len(errs)
    rmse = math.sqrt(sum(e * e for e in errs) / len(errs))
    abs_sorted = sorted(abs(e) for e in errs)
    mae = abs_sorted[(len(errs) - 1) // 2]
    mean_est = sum(est) / len(est)
    mcsd = math.sqrt(sum((e - mean_est) ** 2 for e in est) / (len(est) - 1))
    assert row.bias == pytest.approx(bias, abs=1e-12)
    assert row.rmse == pytest.approx(rmse, abs=1e-12)
    assert row.mae == pytest.approx(mae, abs=1e-12)
    assert row.mcsd == pytest.approx(mcsd, abs=1e-12)
    assert row.asse == pytest.approx(sum(ses) / len(ses), abs=1e-12)
    assert row.cov == pytest.approx(sum(hits) / len(hits), abs=1e-12)


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=40),
    st.floats(min_value=-10, max_value=10),
)
def test_metrics_decomposition(estimates, mu0):
    r = len(estimates)
    row = compute_metrics(estimates, [0.1] * r, [True] * r, mu0)
    lhs = row.rmse**2
    rhs = row.bias**2 + row.mcsd**2 * (r - 1) / r
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
    assert row.rmse**2 >= row.bias**2 - 1e-9
    assert 0.0 <= row.cov <= 1.0


# ---------------------------------------------------------------------------
# Monte Carlo runner
# ---------------------------------------------------------------------------


def test_runner_deterministic():
    spec = spec_s1(n=120, p=15, reps=6)
    t1 = run_monte_carlo(spec, ["P-BR", "OR-OLS"])
    t2 = run_monte_carlo(spec, ["P-BR", "OR-OLS"])
    assert t1.to_csv_text() == t2.to_csv_text()


def test_runner_parallel_equals_serial():
    spec = spec_s1(n=120, p=15, reps=6)
    serial = run_monte_carlo(spec, ["P-BR", "LASSO"], n_jobs=1)
    parallel = run_monte_carlo(spec, ["P-BR", "LASSO"], n_jobs=2)
    assert serial.to_csv_text() == parallel.to_csv_text()


def test_runner_single_rep():
    spec = spec_s1(n=120, p=15, reps=1)
    table = run_monte_carlo(spec, ["OR-OLS"])
    row = table.rows["OR-OLS"]
    assert row.mcsd == 0.0
    assert row.cov in (0.0, 1.0)
    assert math.isfinite(row.bias)


def test_runner_unknown_tag():
    with pytest.raises(ConfigError):
        run_monte_carlo(spec_s1(reps=1), ["bogus"])


def test_runner_counts_skips_as_failures():
    spec = spec_s1(n=16, p=15, reps=3)
    table = run_monte_carlo(spec, ["MLE", "OR-LASSO"])
    assert table.rows["MLE"].n_failed == 3
    assert math.isnan(table.rows["MLE"].bias)
    assert table.rows["OR-LASSO"].n_failed == 0


def test_metrics_csv_format():
    spec = spec_s1(n=120, p=15, reps=2)
    table = run_monte_carlo(spec, ["P-BR", "OR-OLS"])
    text = table.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "estimator,bias,rmse,mae,mcsd,asse,cov,n_failed"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["OR-OLS", "P-BR"]  # sorted
    assert text.endswith("\n") and "\r" not in text


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


CONFIG = """
# benchmark cell
scenario = S1
n = 200
p = 40
correlated = false
or_correct = true
ps_correct = true
reps = 10
seed = 99
estimators = P-BR,LASSO
"""


def test_config_parse_single_cell():
    cells = parse_config_text(CONFIG)
    assert len(cells) == 1
    spec, tags = cells[0]
    assert spec == ScenarioSpec("S1", 200, 40, False, True, True, 10, 99)
    assert tags == ("P-BR", "LASSO")


def test_config_roundtrip():
    spec = ScenarioSpec("S2", 300, 80, True, False, True, 25, 123)
    text = serialize_config(spec, ("P-BR", "MLE"))
    cells = parse_config_text(text)
    assert cells == [(spec, ("P-BR", "MLE"))]


def test_config_sweep_cross_product():
    text = CONFIG.replace("n = 200", "n = 200,400").replace("or_correct = true", "or_correct = true,false")
    cells = parse_config_text(text)
    assert len(cells) == 4
    assert [(s.n, s.or_correct) for s, _ in cells] == [
        (200, True), (200, False), (400, True), (400, False),
    ]


def test_config_default_estimators():
    text = "\n".join(ln for ln in CONFIG.splitlines() if not ln.startswith("estimators"))
    cells = parse_config_text(text)
    assert len(cells[0][1]) == 10


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("scenario = S9", "scenario"),
        ("estimators = P-BR,WRONG", "valid tags"),
        ("correlated = maybe", "boolean"),
        ("n = abc", "integer"),
        ("bogus_key = 1", "unknown key"),
    ],
)
def test_config_errors(mutation, fragment):
    key = mutation.split("=")[0].strip()
    lines = [ln for ln in CONFIG.splitlines() if not ln.strip().startswith(key)]
    text = "\n".join(lines) + "\n" + mutation
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert fragment in str(err.value)


def test_config_missing_key():
    text = "\n".join(ln for ln in CONFIG.splitlines() if not ln.startswith("seed"))
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "seed" in str(err.value)


def test_shipped_configs_expand_to_the_experiment_cells():
    configs = Path(__file__).resolve().parents[1] / "configs"
    parsed = {path.name: parse_config(path) for path in sorted(configs.glob("*.cfg"))}
    grid = [
        (ScenarioSpec(s, 200, 40, corr, oc, pc, 500, 20260808), DEFAULT_ROSTER)
        for s in ("S1", "S2")
        for corr in (False, True)
        for oc in (True, False)
        for pc in (True, False)
    ]
    sweep_tags = ("P-BR", "LASSO", "MLE", "DS-P-BR", "DS-LASSO")
    sweep = [
        (ScenarioSpec("S1", n, 40, False, oc, True, 500, 20260808), sweep_tags)
        for n in (200, 400, 600, 800, 1000, 1500, 2000)
        for oc in (True, False)
    ]
    assert parsed == {"benchmark_cells.cfg": grid, "sample_size_sweep.cfg": sweep}
    assert (len(grid), len(sweep)) == (16, 14)


def test_cell_name_format():
    spec = ScenarioSpec("S2", 300, 80, True, False, True, 10, 0)
    assert spec.cell_name() == "S2_corr_ORincorrect_PScorrect_n300_p80"
