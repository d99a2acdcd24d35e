"""Span recording at the layer boundaries of ``pbrdr`` and the per-layer
metrics derived from the spans.

Every public function the benchmark traces is replaced, in the namespace
where its caller looks it up, by a wrapper that records one span: name,
start, end, parent span, the exception class it raised (if any), the
iteration count of a returned fit, and bytes read or written. Spans are kept
in memory and written out once, when the traced pass ends.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Each public fitter with the exception classes it can raise on valid input
# (``DegenerateData`` needs a single-arm or empty sample, which no workload
# generates).
FITTERS: Dict[str, Tuple[str, ...]] = {
    "fit_calibration_lasso": ("NonConvergence", "UnboundedObjective"),
    "fit_weighted_outcome_lasso": ("DegenerateWeights", "NonConvergence"),
    "fit_linear_lasso": ("NonConvergence",),
    "fit_logistic_lasso": ("NonConvergence", "UnboundedObjective"),
    "fit_logistic_mle": ("NonConvergence", "RankDeficient", "Separation"),
    "fit_ols": ("RankDeficient",),
    "post_lasso_refit": ("NonConvergence", "RankDeficient", "Separation"),
    "fit_br_refit": ("DegenerateWeights", "NonConvergence", "RankDeficient", "UnboundedObjective"),
}

# Functions wrapped, keyed by span name, with every module whose globals the
# callers read the name from (``estimators`` imports the fitters by name,
# ``simulation`` imports ``estimate_suite``, ``cli`` imports the estimator
# and surface entry points).
TRACED: Dict[str, Tuple[str, ...]] = {
    **{f"solvers.{f}": ("solvers", "estimators") for f in FITTERS},
    "estimators.estimate_suite": ("estimators", "simulation"),
    "estimators.influence_values": ("estimators",),
    "estimators.dr_estimate": ("estimators",),
    "estimators.ate_estimate": ("estimators", "cli"),
    "simulation.build_model": ("simulation",),
    "simulation.draw_dataset": ("simulation",),
    "simulation.run_monte_carlo": ("simulation",),
    "bias_surface.surface_dataset": ("bias_surface",),
    "bias_surface.target_mean": ("bias_surface",),
    "bias_surface.evaluate_surface": ("bias_surface", "cli"),
    "bias_surface.export_surface": ("bias_surface", "cli"),
    "cli.load_csv_dataset": ("cli",),
}

ESTIMATOR_SPANS = (
    "estimators.estimate_suite",
    "estimators.influence_values",
    "estimators.dr_estimate",
    "estimators.ate_estimate",
)
SURFACE_SPANS = (
    "bias_surface.surface_dataset",
    "bias_surface.target_mean",
    "bias_surface.evaluate_surface",
    "bias_surface.export_surface",
)
# Spans whose self time per operation is a metric.
SELF_TIMED = ESTIMATOR_SPANS + ("simulation.draw_dataset",) + SURFACE_SPANS + ("cli.load_csv_dataset",)


def _metric_table() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [
        ("dataset.design.calls", "calls/op", "lower"),
        ("dataset.design.self_s", "s/op", "lower"),
    ]
    for f, classes in FITTERS.items():
        out += [
            (f"solvers.{f}.calls", "calls/op", "lower"),
            (f"solvers.{f}.self_s", "s/op", "lower"),
            (f"solvers.{f}.iters_p50", "iters", "lower"),
            (f"solvers.{f}.iters_max", "iters", "lower"),
        ]
        out += [(f"solvers.{f}.failed.{c}", "count/op", "lower") for c in classes]
        out.append((f"solvers.{f}.failed_s", "s/op", "lower"))
    out.append(("solvers.useful_share", "ratio", "higher"))
    out += [(f"{name}.self_s", "s/op", "lower") for name in ESTIMATOR_SPANS]
    out += [
        ("simulation.build_model.self_s", "s", "lower"),
        ("simulation.draw_dataset.self_s", "s/op", "lower"),
        ("simulation.run_monte_carlo.parallel_efficiency", "ratio", "higher"),
        ("simulation.run_monte_carlo.cpu_per_wall", "ratio", "higher"),
    ]
    out += [(f"{name}.self_s", "s/op", "lower") for name in SURFACE_SPANS]
    out += [
        ("bias_surface.export_surface.bytes", "bytes/call", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.load_csv_dataset.self_s", "s/op", "lower"),
        ("cli.load_csv_dataset.bytes", "bytes/call", "lower"),
        ("failed_share", "ratio", "lower"),
        ("trace.overhead_ops_per_s", "1/s", "lower"),
    ]
    return out


PER_LAYER = _metric_table()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    error: Optional[str] = None
    iters: Optional[int] = None
    nbytes: Optional[int] = None


def _iters(result) -> Optional[int]:
    """``n_iter`` of a returned fit; ``fit_br_refit`` returns a pair whose
    propensity solve carries the Newton count."""
    if hasattr(result, "n_iter"):
        return int(result.n_iter)
    gamma = getattr(result, "gamma", None)
    return int(gamma.n_iter) if hasattr(gamma, "n_iter") else None


def _csv_bytes(args, result) -> int:
    return os.path.getsize(args[0])


def _export_bytes(args, result) -> int:
    return sum(os.path.getsize(p) for p in result)


_BYTES: Dict[str, Callable] = {
    "cli.load_csv_dataset": _csv_bytes,
    "bias_surface.export_surface": _export_bytes,
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        is_fit = name.startswith("solvers.")
        nbytes = _BYTES.get(name)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if is_fit:
                span.iters = _iters(result)
            if nbytes is not None:
                span.nbytes = nbytes(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "pbrdr") -> Callable[[], None]:
        """Wrap every traced name in the modules of ``package``; returns a
        function that restores the originals."""

        def module(name: str):
            return importlib.import_module(f"{package}.{name}")

        undo = []
        for span_name, modules in TRACED.items():
            home, attr = span_name.split(".")
            wrapper = self.wrap(span_name, getattr(module(home), attr))
            for mod in map(module, modules):
                if not hasattr(mod, attr):
                    continue
                undo.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)
        dataset_cls = module("dataset").Dataset
        undo.append((dataset_cls, "design", dataset_cls.design))
        dataset_cls.design = self.wrap("dataset.design", dataset_cls.design)

        def restore() -> None:
            for obj, attr, value in reversed(undo):
                setattr(obj, attr, value)

        return restore


def spans_to_json(spans: Sequence[Span]) -> List[dict]:
    return [asdict(s) for s in spans]


def spans_from_json(items: Sequence[dict]) -> List[Span]:
    return [Span(**item) for item in items]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent, overlaps counted once)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def failure_counts(spans: Sequence[Span]) -> Dict[str, Dict[str, int]]:
    """Span name -> exception class name -> number of calls that raised it."""
    out: Dict[str, Dict[str, int]] = {}
    for s in spans:
        if s.error is not None:
            by_class = out.setdefault(s.name, {})
            by_class[s.error] = by_class.get(s.error, 0) + 1
    return out


def layer_metrics(
    spans: Sequence[Span],
    ops: int,
    setup_spans: Sequence[Span] = (),
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass that completed ``ops`` operations.

    Counts and self times are per operation. ``simulation.build_model.self_s``
    is taken from the traced set-up instead, where the model oracles run.
    Metrics that need more than spans (import time, pool efficiency, failed
    share, tracing overhead) are filled in by the caller.
    """
    selfs = self_times(spans)
    per_op = 1.0 / max(ops, 1)
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    failed_s: Dict[str, float] = {}
    iters: Dict[str, List[int]] = {}
    nbytes: Dict[str, List[int]] = {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + st
        if s.error is not None:
            failed_s[s.name] = failed_s.get(s.name, 0.0) + st
        if s.iters is not None:
            iters.setdefault(s.name, []).append(s.iters)
        if s.nbytes is not None:
            nbytes.setdefault(s.name, []).append(s.nbytes)
    failures = failure_counts(spans)

    m: Dict[str, float] = {
        "dataset.design.calls": calls.get("dataset.design", 0) * per_op,
        "dataset.design.self_s": self_s.get("dataset.design", 0.0) * per_op,
    }
    fit_total = fit_failed = 0.0
    for f, classes in FITTERS.items():
        key = f"solvers.{f}"
        its = iters.get(key, [])
        m[f"{key}.calls"] = calls.get(key, 0) * per_op
        m[f"{key}.self_s"] = self_s.get(key, 0.0) * per_op
        m[f"{key}.iters_p50"] = float(statistics.median(its)) if its else 0.0
        m[f"{key}.iters_max"] = float(max(its)) if its else 0.0
        for c in classes:
            m[f"{key}.failed.{c}"] = failures.get(key, {}).get(c, 0) * per_op
        m[f"{key}.failed_s"] = failed_s.get(key, 0.0) * per_op
        fit_total += self_s.get(key, 0.0)
        fit_failed += failed_s.get(key, 0.0)
    m["solvers.useful_share"] = (fit_total - fit_failed) / fit_total if fit_total > 0 else 0.0
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = self_s.get(name, 0.0) * per_op
    setup_self = self_times(setup_spans)
    m["simulation.build_model.self_s"] = sum(
        (st for s, st in zip(setup_spans, setup_self) if s.name == "simulation.build_model"), 0.0
    )
    for name in ("bias_surface.export_surface", "cli.load_csv_dataset"):
        b = nbytes.get(name, [])
        m[f"{name}.bytes"] = float(statistics.median(b)) if b else 0.0
    return m
