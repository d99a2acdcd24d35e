"""Data-generating processes and the Monte Carlo benchmark runner.

Two scenario families are built in:

* ``S1``: sparse linear/logistic truth with decaying coefficient patterns;
  the misspecified variants replace the first covariate's linear term by its
  square (no intercept, no signal scaling) in the respective model. The
  target mean is 1 in every variant.
* ``S2``: the classic four-covariate design with outcome level 210; the
  misspecified variants generate from models additive in the transformed
  covariates ``M1 = exp(X1/2)``, ``M2 = X2/(1+exp(X1)) + 10``,
  ``M3 = (X1*X3/25 + 0.6)^3`` and ``X4``. The target mean for the
  misspecified outcome model is a recorded constant: the mean of a 10^7-draw
  Monte Carlo oracle on a fixed stream, which the tests recompute and check
  against the closed form.

Replication ``r`` of a run draws from the RNG stream keyed by
``(seed, r)``, so the runner is order-independent and parallelizable with
bit-identical output. Within a replication, covariates, treatments and
outcomes use three separate child streams; datasets therefore nest across
sample sizes (the first ``n`` rows at a larger ``n'`` are identical),
which stabilises sample-size sweeps.
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DimensionError
from .estimators import _resolve_tags, estimate_suite
from .solvers import expit

VALID_SCENARIOS = ("S1", "S2")
_S1_SIGNAL = 0.75  # scale of the S1 linear outcome signal


@dataclass
class ScenarioSpec:
    """Fully parameterized simulation cell."""

    scenario: str
    n: int
    p: int
    correlated: bool
    or_correct: bool
    ps_correct: bool
    reps: int
    seed: int

    def __post_init__(self) -> None:
        if self.scenario not in VALID_SCENARIOS:
            raise ConfigError(f"scenario must be one of {VALID_SCENARIOS}, got {self.scenario!r}")
        if self.scenario == "S1" and self.p < 15:
            raise DimensionError("scenario S1 requires p >= 15 (signal support spans 15 covariates)")
        if self.scenario == "S2" and self.p < 4:
            raise DimensionError("scenario S2 requires p >= 4")
        if self.reps < 1:
            raise ConfigError("reps must be at least 1")
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")

    def cell_name(self) -> str:
        return (
            f"{self.scenario}_{'corr' if self.correlated else 'uncorr'}"
            f"_OR{'correct' if self.or_correct else 'incorrect'}"
            f"_PS{'correct' if self.ps_correct else 'incorrect'}"
            f"_n{self.n}_p{self.p}"
        )


@dataclass
class TrueModel:
    """True conditional mean, true propensity, and the implied target mean."""

    m0: Callable[[np.ndarray], np.ndarray]
    pi0: Callable[[np.ndarray], np.ndarray]
    mu0: float


def ar1_covariance(p: int, rho: float = 0.5) -> np.ndarray:
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def gen_covariates(n: int, p: int, correlated: bool, rng: np.random.Generator) -> np.ndarray:
    """Mean-zero multivariate normal rows; identity covariance, or AR(1) with
    decay 0.5 generated through its Cholesky factor."""
    z = rng.standard_normal((n, p))
    if not correlated or p < 2:
        return z
    chol = np.linalg.cholesky(ar1_covariance(p))
    return z @ chol.T


def _s1_coefficients(p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Outcome pattern b and propensity pattern g for scenario S1 (length p)."""
    b = np.zeros(p)
    b[0:5] = 1.0 / np.arange(1, 6)
    b[10:15] = 1.0 / np.arange(1, 6)
    g = np.zeros(p)
    g[0:10] = 1.0 / np.arange(1, 11)
    return b, g


def scenario1_model(spec: ScenarioSpec) -> TrueModel:
    """Sparse linear/logistic truth; target mean is 1 in all variants.

    Correct outcome: ``m0 = 1 + c * b.x``; misspecified: ``m0 = x1^2 +
    c * b[2:].x[2:]`` (the squared term replaces the leading linear one, the
    signal scale stays; its mean is E[x1^2] = 1 since covariates have unit
    variance in both correlation settings). Correct propensity:
    ``expit(g.x)``; misspecified: ``expit(x1^2 + g[2:].x[2:])``.
    """
    if spec.p < 15:
        raise DimensionError("scenario S1 requires p >= 15")
    b, g = _s1_coefficients(spec.p)
    c = _S1_SIGNAL

    if spec.or_correct:
        def m0(x: np.ndarray) -> np.ndarray:
            return 1.0 + c * (x @ b)
    else:
        def m0(x: np.ndarray) -> np.ndarray:
            return x[:, 0] ** 2 + c * (x[:, 1:] @ b[1:])

    if spec.ps_correct:
        def pi0(x: np.ndarray) -> np.ndarray:
            return expit(x @ g)
    else:
        def pi0(x: np.ndarray) -> np.ndarray:
            return expit(x[:, 0] ** 2 + x[:, 1:] @ g[1:])

    return TrueModel(m0, pi0, 1.0)


_S2_OUTCOME = np.array([27.4, 13.7, 13.7, 13.7])
_S2_PROPENSITY = np.array([-1.0, 0.5, -0.25, -0.1])


def _s2_features(x: np.ndarray, transformed: bool) -> np.ndarray:
    """First four covariates, or their misspecification transforms
    ``(M1, M2, M3, X4)``."""
    if not transformed:
        return x[:, :4]
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    return np.column_stack(
        [
            np.exp(x1 / 2.0),
            x2 / (1.0 + np.exp(x1)) + 10.0,
            (x1 * x3 / 25.0 + 0.6) ** 3,
            x4,
        ]
    )


# Target mean of the transformed-covariate outcome model, keyed by
# ``correlated``: the mean of the 10^7-draw Monte Carlo oracle on the
# seed-202406 stream (spawn key ``(int(correlated),)``, chunks of 10^6), kept
# bit for bit until the exact closed form replaces it. The tests recompute it.
_S2_MISSPECIFIED_MU0 = {False: 381.0423252971749, True: 379.7854887255192}


def scenario2_model(spec: ScenarioSpec) -> TrueModel:
    """Four-covariate design with outcome level 210.

    Misspecified variants generate from the same coefficient vectors applied
    additively to the transformed covariates; the outcome target is then the
    recorded 10^7-draw oracle mean of the transformed model,
    ``_S2_MISSPECIFIED_MU0``.
    """
    if spec.p < 4:
        raise DimensionError("scenario S2 requires p >= 4")

    or_transformed = not spec.or_correct
    ps_transformed = not spec.ps_correct

    def m0(x: np.ndarray) -> np.ndarray:
        return 210.0 + _s2_features(x, or_transformed) @ _S2_OUTCOME

    def pi0(x: np.ndarray) -> np.ndarray:
        return expit(_s2_features(x, ps_transformed) @ _S2_PROPENSITY)

    mu0 = 210.0 if spec.or_correct else _S2_MISSPECIFIED_MU0[spec.correlated]
    return TrueModel(m0, pi0, mu0)


def build_model(spec: ScenarioSpec) -> TrueModel:
    return scenario1_model(spec) if spec.scenario == "S1" else scenario2_model(spec)


def draw_dataset(
    model: TrueModel, n: int, p: int, correlated: bool, rng: np.random.Generator
) -> Dataset:
    """Draw one dataset: covariates, Bernoulli treatments, unit-variance
    normal outcomes around the true conditional mean (same conditional law for
    every unit, so the outcome mean matches the stated targets).

    Covariates, treatments and outcomes use three separate child streams of
    ``rng``; with a fixed seed the first ``n`` rows of a larger draw coincide
    with the smaller draw.
    """
    rng_x, rng_a, rng_y = rng.spawn(3)
    x = gen_covariates(n, p, correlated, rng_x)
    x.flags.writeable = False  # handed over: the dataset need not copy it
    a = (rng_a.random(n) < model.pi0(x)).astype(float)
    y = model.m0(x) + rng_y.standard_normal(n)
    return Dataset(y, a, x)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass
class MetricsRow:
    """Monte Carlo summary for one estimator; ``failed_by_class`` counts the
    failed replications by exception class name, and ``n_failed`` sums it."""

    bias: float
    rmse: float
    mae: float
    mcsd: float
    asse: float
    cov: float
    failed_by_class: Dict[str, int] = field(default_factory=dict)

    @property
    def n_failed(self) -> int:
        return sum(self.failed_by_class.values())


@dataclass
class MetricsTable:
    """Per-estimator metrics for one simulation cell."""

    rows: Dict[str, MetricsRow]
    mu0: float

    def to_csv_text(self) -> str:
        lines = ["estimator,bias,rmse,mae,mcsd,asse,cov,n_failed"]
        for tag in sorted(self.rows):
            r = self.rows[tag]
            vals = ",".join(format(v, ".17g") for v in (r.bias, r.rmse, r.mae, r.mcsd, r.asse, r.cov))
            lines.append(f"{tag},{vals},{r.n_failed}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())


def compute_metrics(
    estimates: Sequence[float],
    ses: Sequence[float],
    ci_hits: Sequence[bool],
    mu0: float,
) -> MetricsRow:
    """Standard Monte Carlo metrics.

    bias = mean(est) - mu0; rmse = sqrt(mean((est - mu0)^2)); mae is the lower
    median of absolute errors; mcsd uses divisor R-1 (0 for a single
    replication); asse = mean(se); cov = mean(ci_hits).
    """
    est = np.asarray(estimates, dtype=float)
    if est.size == 0:
        raise ValueError("need at least one estimate")
    err = est - mu0
    bias = float(np.mean(err))
    rmse = float(np.sqrt(np.mean(err**2)))
    abs_sorted = np.sort(np.abs(err))
    mae = float(abs_sorted[(est.size - 1) // 2])
    mcsd = float(np.std(est, ddof=1)) if est.size > 1 else 0.0
    asse = float(np.mean(np.asarray(ses, dtype=float)))
    cov = float(np.mean(np.asarray(ci_hits, dtype=float)))
    return MetricsRow(bias, rmse, mae, mcsd, asse, cov)


# ---------------------------------------------------------------------------
# Monte Carlo runner
# ---------------------------------------------------------------------------


def _replicate(args: Tuple[ScenarioSpec, Tuple[str, ...], int]):
    """One replication: draw, run the suite, return compact per-tag records."""
    spec, tags, r = args
    model = build_model(spec)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(r,)))
    data = draw_dataset(model, spec.n, spec.p, spec.correlated, rng)
    return {
        tag: ("ok", e.result.mu_hat, e.result.se, *e.result.ci) if e.ok else ("error", e.error)
        for tag, e in estimate_suite(data, tags).items()
    }


# the worker pool kept for the life of the process, as ``(workers, executor)``;
# empty until a call needs more than one worker
_pool: Optional[tuple] = None


def _close_pool() -> None:
    """Shut the kept pool down, if there is one, and empty its slot."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown()


def _map_in_pool(jobs: list, workers: int, chunksize: int) -> list:
    """``_replicate`` over ``jobs`` in the kept pool of ``workers`` processes,
    results in job order. A pool of another size is shut down and replaced;
    a kept pool whose workers died since its last use is replaced once."""
    global _pool
    # imported here so that the CLI and serial runs never load the pool
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    kept = _pool is not None and _pool[0] == workers
    if not kept:
        _close_pool()
        _pool = (workers, ProcessPoolExecutor(max_workers=workers))
        # shut down before the interpreter tears its modules down; one hook
        # however many pools the process makes
        atexit.unregister(_close_pool)
        atexit.register(_close_pool)
    try:
        return list(_pool[1].map(_replicate, jobs, chunksize=chunksize))
    except BaseException as exc:
        # ``map`` has cancelled the jobs it had not started; CPython 3.11's
        # ``shutdown(cancel_futures=True)`` can hang after a pickling error
        _close_pool()
        if kept and isinstance(exc, BrokenProcessPool):
            # a kept worker died between calls (say, killed for memory)
            return _map_in_pool(jobs, workers, chunksize)
        raise


def run_monte_carlo(
    spec: ScenarioSpec,
    estimators: Optional[Sequence[str]] = None,
    n_jobs: int = 1,
) -> MetricsTable:
    """Run ``spec.reps`` replications and aggregate per-estimator metrics.

    Replications where an estimator fails are excluded from that
    estimator's metrics and counted by exception class in
    ``failed_by_class``. ``min(n_jobs, spec.reps, os.cpu_count())`` worker
    processes run the replications (one means serially, in this process);
    aggregation folds in replication-index order, so parallel and serial
    execution produce identical tables.

    The worker pool is made once per process and serves every later call
    with the same worker count; it is shut down at exit, or at once if a
    call fails. A worker sees only the job ``(spec, tags, r)``, so neither
    the reuse nor the start method changes a record. Module settings changed
    after the first parallel call (say, a patched
    ``solvers.DEFAULT_NEWTON_ITER``) do not reach running workers, as under
    the ``spawn`` start method.
    """
    tags = _resolve_tags(estimators)
    mu0 = build_model(spec).mu0
    # each job rebuilds its model from ``spec`` (a constant-time lookup), so
    # workers inherit no state and any start method gives the same records
    jobs = [(spec, tags, r) for r in range(spec.reps)]
    # a forking pool starts all its workers at once, busy or not
    workers = min(n_jobs, spec.reps, os.cpu_count() or 1)
    if workers > 1:
        results = _map_in_pool(jobs, workers, max(1, spec.reps // (8 * workers)))
    else:
        results = [_replicate(j) for j in jobs]

    rows: Dict[str, MetricsRow] = {}
    for tag in tags:
        ok = [recs[tag][1:] for recs in results if recs[tag][0] == "ok"]
        if ok:
            mu, se, lo, hi = zip(*ok)
            rows[tag] = compute_metrics(mu, se, [a <= mu0 <= b for a, b in zip(lo, hi)], mu0)
        else:
            rows[tag] = MetricsRow(*[math.nan] * 6)
        rows[tag].failed_by_class = dict(
            Counter(recs[tag][1] for recs in results if recs[tag][0] == "error")
        )
    return MetricsTable(rows, mu0)


# ---------------------------------------------------------------------------
# plain-text configuration files
# ---------------------------------------------------------------------------

CONFIG_KEYS = tuple(f.name for f in fields(ScenarioSpec)) + ("estimators",)
_SINGLE_KEYS = ("reps", "seed")  # every other field sweeps

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# field annotation -> (name in error messages, converter raising KeyError or ValueError)
_PARSERS: Dict[str, Tuple[str, Callable[[str], object]]] = {
    "str": ("string", str),
    "int": ("integer", int),
    "bool": ("boolean", lambda t: _BOOLS[t.lower()]),
}


def _parse_value(token: str, key: str, kind: str):
    name, convert = _PARSERS[kind]
    try:
        return convert(token)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"cannot parse {name} value {token!r} for key {key!r}") from exc


def _parse_list(value: str, key: str, kind: str) -> list:
    """Comma-separated items: empty ones dropped, at least one left, none repeated."""
    items = [_parse_value(t.strip(), key, kind) for t in value.split(",") if t.strip()]
    if not items:
        raise ConfigError(f"empty value for key {key!r}")
    repeated = [v for i, v in enumerate(items) if v in items[:i]]
    if repeated:
        raise ConfigError(f"repeated value {repeated[0]!r} for key {key!r}")
    return items


def parse_config_text(text: str) -> List[Tuple[ScenarioSpec, Tuple[str, ...]]]:
    """Parse a key-value config into one or more simulation cells.

    The keys are the fields of :class:`ScenarioSpec` plus ``estimators``,
    one ``key = value`` per line; ``#`` starts a comment. ``reps`` and
    ``seed`` take a single integer. Every other field takes a comma-separated
    list, parsed by the field's type (booleans: true/false, yes/no, 1/0, any
    case), and the cells are the cross product of those lists in field order
    (``scenario`` outermost, ``ps_correct`` innermost). ``estimators`` is a
    list of at least one tag, defaulting to the full roster. No list may
    repeat a value once parsed (``true, 1`` and ``60, 060`` are repeats).
    """
    values: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}; valid keys: {', '.join(CONFIG_KEYS)}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val.strip()

    missing = [k for k in CONFIG_KEYS if k not in values and k != "estimators"]
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(missing)}")

    requested = _parse_list(values["estimators"], "estimators", "str") if "estimators" in values else None
    tags = _resolve_tags(requested)
    axes = [
        [_parse_value(values[f.name], f.name, f.type)] if f.name in _SINGLE_KEYS
        else _parse_list(values[f.name], f.name, f.type)
        for f in fields(ScenarioSpec)
    ]
    return [(ScenarioSpec(*cell), tags) for cell in itertools.product(*axes)]
