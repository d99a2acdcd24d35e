"""Span arithmetic, failure counting and wrapper installation."""

import numpy as np
import pytest

import tracing
from tracing import Span


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),  # overlaps a: [1, 5] is covered once
        Span("c", 3.0, 4.0, 2),  # grandchild: only b's self time shrinks
        Span("d", 9.0, 12.0, 0),  # runs past the parent: clipped to [9, 10]
        Span("e", 6.0, 6.0, 0),  # empty interval
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 4 - 1, 2.0, 2.0, 1.0, 3.0, 0.0])


def test_layer_metrics_per_operation_and_setup_build_model():
    spans = [
        Span("solvers.fit_ols", 0.0, 2.0, None, iters=1),
        Span("dataset.design", 0.5, 1.0, 0),
        Span("solvers.fit_ols", 2.0, 3.0, None, iters=3),
        Span("estimators.dr_estimate", 3.0, 4.0, None),
    ]
    setup = [Span("simulation.build_model", 0.0, 1.5, None), Span("simulation.draw_dataset", 1.5, 2.0, None)]
    m = tracing.layer_metrics(spans, ops=2, setup_spans=setup)
    assert m["solvers.fit_ols.calls"] == 1.0
    assert m["solvers.fit_ols.self_s"] == pytest.approx((1.5 + 1.0) / 2)
    assert m["solvers.fit_ols.iters_p50"] == 2.0
    assert m["solvers.fit_ols.iters_max"] == 3.0
    assert m["dataset.design.calls"] == 0.5
    assert m["estimators.dr_estimate.self_s"] == 0.5
    assert m["simulation.build_model.self_s"] == 1.5
    assert m["solvers.useful_share"] == 1.0
    assert m["solvers.fit_linear_lasso.iters_max"] == 0.0  # never called


class Unbounded(Exception):
    pass


class Rank(Exception):
    pass


def test_failures_counted_by_exception_class():
    tracer = tracing.Tracer()

    def fit(kind):
        if kind == "u":
            raise Unbounded()
        if kind == "r":
            raise Rank()
        return type("Coef", (), {"n_iter": 7})()

    wrapped = tracer.wrap("solvers.fit_calibration_lasso", fit)
    for kind in ["ok", "u", "u", "r", "ok"]:
        try:
            wrapped(kind)
        except (Unbounded, Rank):
            pass
    counts = tracing.failure_counts(tracer.spans)
    assert counts == {"solvers.fit_calibration_lasso": {"Unbounded": 2, "Rank": 1}}
    assert [s.iters for s in tracer.spans] == [7, None, None, None, 7]

    # Classes are reported under their own names; give the spans exact times.
    for i, s in enumerate(tracer.spans):
        s.start, s.end = float(i), i + 1.0
    m = tracing.layer_metrics(tracer.spans, ops=5)
    assert m["solvers.fit_calibration_lasso.failed_s"] == pytest.approx(3 / 5)
    assert m["solvers.useful_share"] == pytest.approx(2 / 5)
    assert m["solvers.fit_calibration_lasso.failed.UnboundedObjective"] == 0.0

    tracer.spans[1].error = "UnboundedObjective"
    m = tracing.layer_metrics(tracer.spans, ops=5)
    assert m["solvers.fit_calibration_lasso.failed.UnboundedObjective"] == pytest.approx(1 / 5)


def test_install_wraps_where_callers_look_up_and_restores():
    import pbrdr
    from pbrdr import estimators, simulation, solvers

    originals = (estimators.fit_calibration_lasso, simulation.estimate_suite, pbrdr.Dataset.design)
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        assert estimators.fit_calibration_lasso is solvers.fit_calibration_lasso
        assert estimators.fit_calibration_lasso.__wrapped__ is originals[0]
        rng = np.random.default_rng(0)
        x = rng.standard_normal((120, 20))
        a = (rng.random(120) < 0.5).astype(float)
        y = x[:, 0] + rng.standard_normal(120)
        simulation.estimate_suite(pbrdr.Dataset(y, a, x), ["P-BR", "Post-LASSO"])
    finally:
        restore()
    assert (estimators.fit_calibration_lasso, simulation.estimate_suite, pbrdr.Dataset.design) == originals

    names = [s.name for s in tracer.spans]
    assert names[0] == "estimators.estimate_suite"
    assert {"solvers.fit_calibration_lasso", "solvers.post_lasso_refit", "solvers.fit_logistic_mle",
            "dataset.design", "estimators.dr_estimate", "estimators.influence_values"} <= set(names)
    # post_lasso_refit calls fit_logistic_mle through the solvers namespace.
    refit = names.index("solvers.post_lasso_refit")
    assert any(s.parent == refit and s.name == "solvers.fit_logistic_mle" for s in tracer.spans)
    assert all(s.parent is None or s.parent < i for i, s in enumerate(tracer.spans))
    assert isinstance(tracer.spans[names.index("solvers.fit_calibration_lasso")].iters, int)


def test_metric_table_matches_benchmark_definition():
    import json
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
