"""Data-generating processes, metrics, the Monte Carlo runner, and config files."""

import itertools
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
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
    parse_config_text,
    run_monte_carlo,
    scenario1_model,
    scenario2_model,
)
from pbrdr import simulation
from pbrdr.bias_surface import VARIANTS, _outcome_mean, target_mean
from pbrdr.simulation import _replicate, _s1_coefficients, _s2_features, build_model, draw_dataset


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


def _s2_exact_mu0(correlated, nodes=120):
    """Closed-form target of the transformed-covariate outcome model.

    E[M1] = e^{1/8}. Under AR(1), X2 = rho*X1 + independent noise, so
    E[M2] = 10 + rho*E[X1/(1+e^{X1})], the expectation by Gauss-Hermite
    quadrature with ``nodes`` nodes. E[M3] expands the cube through the
    moments of X1*X3, whose correlation is r = rho^2; E[X4] = 0.
    """
    rho = 0.5 if correlated else 0.0
    t, w = np.polynomial.hermite_e.hermegauss(nodes)
    e_m2 = 10.0 + rho * float(w @ (t / (1.0 + np.exp(t)))) / math.sqrt(2.0 * math.pi)
    r, a, c = rho**2, 1.0 / 25.0, 0.6
    e_m3 = a**3 * (9 * r + 6 * r**3) + 3 * a**2 * c * (1 + 2 * r**2) + 3 * a * c**2 * r + c**3
    return 210.0 + 27.4 * math.exp(1.0 / 8.0) + 13.7 * e_m2 + 13.7 * e_m3


def test_s2_misspecified_mu0_oracle_vs_analytic():
    # the recorded 10^7-draw oracle lies within 3 of its standard errors of the
    # exact target, in both covariance settings
    for correlated, exact in ((False, 381.046923614), (True, 379.786517010)):
        assert _s2_exact_mu0(correlated) == pytest.approx(exact, abs=1e-9)
        # a second quadrature order checks the quadrature itself
        assert _s2_exact_mu0(correlated, nodes=60) == pytest.approx(exact, abs=1e-9)
        model = scenario2_model(s2_spec(or_correct=False, correlated=correlated))
        draws = model.m0(gen_covariates(1_000_000, 4, correlated, np.random.default_rng(5)))
        oracle_se = draws.std(ddof=1) / math.sqrt(10_000_000)
        assert abs(model.mu0 - exact) < 3 * oracle_se


def _fixed_stream_oracle(seed, chunk_sum):
    """Mean over 10^7 draws from the stream ``seed``, summed in ten chunks of
    10^6 in order: the oracle that produced the recorded targets.
    ``chunk_sum(rng, m)`` draws ``m`` units and sums their outcome means."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(10):
        total += float(chunk_sum(rng, 1_000_000))
    return total / 10_000_000


def test_recorded_targets_match_fixed_stream_oracles():
    # the S2 and bias-surface targets are constants recorded from these
    # oracles; equal to the bit on the machine that recorded them, and within
    # 1e-12 relative where numpy's SIMD exp rounds a few ulps differently
    for correlated in (False, True):
        model = scenario2_model(s2_spec(or_correct=False, correlated=correlated))
        oracle = _fixed_stream_oracle(
            np.random.SeedSequence(entropy=202406, spawn_key=(int(correlated),)),
            lambda rng, m: np.sum(model.m0(gen_covariates(m, 4, correlated, rng))),
        )
        assert model.mu0 == pytest.approx(oracle, rel=1e-12, abs=0.0)
    for variant in VARIANTS:
        oracle = _fixed_stream_oracle(
            np.random.SeedSequence(entropy=771_100),
            lambda rng, m: np.sum(_outcome_mean(3.0 - rng.standard_exponential(m), variant)),
        )
        assert target_mean(variant) == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_building_models_draws_nothing(monkeypatch):
    # every target is a constant: no model or surface target opens a random
    # stream (``simulation`` and ``bias_surface`` both reach it as np.random)
    def no_draws(*args, **kwargs):
        raise AssertionError("a random stream was opened")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for scenario, corr, oc, pc in itertools.product(("S1", "S2"), *[(False, True)] * 3):
        model = build_model(ScenarioSpec(scenario, 200, 40, corr, oc, pc, 1, 0))
        assert math.isfinite(model.mu0)
    for variant in VARIANTS:
        assert math.isfinite(target_mean(variant))


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


def test_metrics_need_an_estimate():
    with pytest.raises(ValueError, match="need at least one estimate"):
        compute_metrics([], [], [], 0.0)


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


@pytest.mark.parametrize(
    "n_jobs, cpus, workers",
    [(1_000_000, 64, [4]), (1_000_000, 3, [3]), (1_000_000, None, []), (2, 64, [2]), (1, 64, [])],
)
def test_runner_bounds_its_workers_by_reps_and_cpus(recorded_pools, monkeypatch, n_jobs, cpus, workers):
    # the stand-in pool starts no process; a bound of 1 runs serially, as
    # when the CPU count is unknown
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    spec = spec_s1(n=120, p=15, reps=4)
    table = run_monte_carlo(spec, ["OR-OLS"], n_jobs=n_jobs)
    assert recorded_pools == workers
    assert table.to_csv_text() == run_monte_carlo(spec, ["OR-OLS"]).to_csv_text()


@pytest.fixture
def own_pool(monkeypatch):
    """Empty the runner's pool slot for the test and shut down whatever pool
    the test leaves in it; a pool kept by an earlier test is restored."""
    monkeypatch.setattr(simulation, "_pool", None)
    yield
    simulation._close_pool()


def test_runner_keeps_one_pool_across_calls(own_pool):
    spec = spec_s1(n=120, p=15, reps=4)
    serial = run_monte_carlo(spec, ["P-BR", "OR-OLS"]).to_csv_text()
    first = run_monte_carlo(spec, ["P-BR", "OR-OLS"], n_jobs=2).to_csv_text()
    pool = simulation._pool[1]
    second = run_monte_carlo(spec, ["P-BR", "OR-OLS"], n_jobs=2).to_csv_text()
    assert simulation._pool[1] is pool
    assert first == second == serial


def test_runner_replaces_a_pool_of_another_size(own_pool, monkeypatch):
    # the old pool never ran a job, so it never started a process
    old = ProcessPoolExecutor(max_workers=1)
    monkeypatch.setattr(simulation, "_pool", (3, old))
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    spec = spec_s1(n=120, p=15, reps=2)
    table = run_monte_carlo(spec, ["OR-OLS"], n_jobs=8)
    assert simulation._pool[0] == 2 and simulation._pool[1] is not old
    with pytest.raises(RuntimeError, match="shutdown"):
        old.submit(int)
    assert table.to_csv_text() == run_monte_carlo(spec, ["OR-OLS"]).to_csv_text()


def test_runner_replaces_a_pool_whose_worker_died(own_pool):
    spec = spec_s1(n=120, p=15, reps=6)
    serial = run_monte_carlo(spec, ["OR-OLS"]).to_csv_text()
    run_monte_carlo(spec, ["OR-OLS"], n_jobs=2)
    broken = simulation._pool[1]
    assert broken.submit(os._exit, 1).exception(timeout=60) is not None
    assert run_monte_carlo(spec, ["OR-OLS"], n_jobs=2).to_csv_text() == serial
    assert simulation._pool[1] is not broken


def test_runner_failure_shuts_the_pool_down(own_pool, monkeypatch):
    # a job that cannot be pickled fails in ``map``; the pool goes with it
    spec = spec_s1(n=120, p=15, reps=4)
    run_monte_carlo(spec, ["OR-OLS"], n_jobs=2)
    pool = simulation._pool[1]
    monkeypatch.setattr(simulation, "_replicate", lambda job: job)
    with pytest.raises((pickle.PicklingError, AttributeError)):
        run_monte_carlo(spec, ["OR-OLS"], n_jobs=2)
    assert simulation._pool is None
    with pytest.raises(RuntimeError, match="shutdown"):
        pool.submit(int)


def test_kept_pool_exits_silently_with_its_workers():
    code = (
        "from pbrdr import ScenarioSpec, run_monte_carlo, simulation\n"
        "for seed in (1, 2):\n"
        "    spec = ScenarioSpec('S1', 120, 15, False, True, True, reps=4, seed=seed)\n"
        "    run_monte_carlo(spec, ['OR-OLS'], n_jobs=2)\n"
        "print(*simulation._pool[1]._processes)\n"
    )
    proc = subprocess.run([sys.executable, "-X", "dev", "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    pids = [int(w) for w in proc.stdout.split()]
    assert len(pids) == 2
    for pid in pids:  # joined before the process exited
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_replicate_is_start_method_independent():
    # spawned workers inherit nothing from this process: each rebuilds the
    # model from the spec alone and must return the serial records
    spec = s2_spec(correlated=True, or_correct=False, reps=4)
    jobs = [(spec, DEFAULT_ROSTER, r) for r in range(spec.reps)]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        spawned = list(pool.map(_replicate, jobs))
    assert spawned == [_replicate(j) for j in jobs]


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


def test_config_sweep_cross_product():
    text = CONFIG.replace("n = 200", "n = 200,400").replace("or_correct = true", "or_correct = true,false")
    cells = parse_config_text(text)
    assert len(cells) == 4
    assert [(s.n, s.or_correct) for s, _ in cells] == [
        (200, True), (200, False), (400, True), (400, False),
    ]


def test_config_every_sweep_key_crosses_in_field_order():
    text = """
    scenario = S1, S2
    n = 200, 400
    p = 40, 60
    correlated = false, true
    or_correct = true, false
    ps_correct = false, true
    reps = 3
    seed = 5
    """
    cells = parse_config_text(text)
    expected = [
        ScenarioSpec(s, n, p, corr, oc, pc, 3, 5)
        for s in ("S1", "S2")
        for n in (200, 400)
        for p in (40, 60)
        for corr in (False, True)
        for oc in (True, False)
        for pc in (False, True)
    ]
    assert [spec for spec, _ in cells] == expected
    assert len(cells) == 64


@pytest.mark.parametrize(
    "token, value", [("yes", True), ("no", False), ("1", True), ("0", False), ("TRUE", True)]
)
def test_config_boolean_spellings(token, value):
    cells = parse_config_text(CONFIG.replace("correlated = false", f"correlated = {token}"))
    assert [spec.correlated for spec, _ in cells] == [value]


def test_config_empty_items_and_inline_comments():
    text = CONFIG.replace("n = 200", "n = 200, ,400   # two sample sizes").replace(
        "seed = 99", "seed = 99 # the stream"
    )
    cells = parse_config_text(text)
    assert [(spec.n, spec.seed) for spec, _ in cells] == [(200, 99), (400, 99)]


def test_config_keys_are_the_spec_fields_and_estimators():
    keys = ("scenario", "n", "p", "correlated", "or_correct", "ps_correct", "reps", "seed", "estimators")
    assert tuple(f.name for f in fields(ScenarioSpec)) + ("estimators",) == keys
    with pytest.raises(ConfigError) as err:
        parse_config_text(CONFIG + "signal = 0.5\n")
    assert str(err.value).endswith("valid keys: " + ", ".join(keys))


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
        ("seed = -1", "seed"),
        ("estimators =", "empty value"),
        ("n = 60, 060", "repeated value 60 for key 'n'"),
        ("or_correct = true, 1", "repeated value True for key 'or_correct'"),
        ("estimators = OR-OLS, OR-OLS", "repeated value 'OR-OLS' for key 'estimators'"),
        ("reps = x", "cannot parse integer value 'x' for key 'reps'"),
        ("seed = 1.5", "cannot parse integer value '1.5' for key 'seed'"),
        ("no equals sign", "expected 'key = value'"),
        ("seed = 1\nseed = 2", "duplicate key 'seed'"),
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
    parsed = {
        path.name: parse_config_text(path.read_text(encoding="utf-8"))
        for path in sorted(configs.glob("*.cfg"))
    }
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
