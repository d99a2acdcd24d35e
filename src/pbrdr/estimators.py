"""Plug-in estimators of the counterfactual mean E{Y(1)} and the ATE.

The double-robust (DR) estimator averages the per-unit influence values

    ``U_i = m(x_i; b) + (A_i / pi(x_i; g)) * (y_i - m(x_i; b))``

over the sample; its sandwich standard error is the sample standard
deviation of the ``U_i`` divided by ``sqrt(n)``. Every comparator used in
the benchmark suite is available behind a single tag-keyed interface:
outcome-regression and inverse-weighting estimators with MLE or lasso
nuisances, DR with MLE / lasso / post-selection / double-selection
nuisances, and the penalised bias-reduced pipelines P-BR and DS-P-BR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.special import expit

from .dataset import Dataset
from .errors import ConfigError, DegenerateData, PbrdrError, PositivityViolation, RankDeficient
from .solvers import (
    Coefficients,
    NuisanceFit,
    SolverOptions,
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

# Fitted propensities below this value on units that need weighting raise
# PositivityViolation unless clipping is explicitly requested.
POSITIVITY_THRESHOLD = 1e-6

CI_MULTIPLIER = 1.96

# The ten estimators reported by the benchmark suite, in sorted output order.
DEFAULT_ROSTER: Tuple[str, ...] = (
    "DS-LASSO",
    "DS-P-BR",
    "LASSO",
    "MLE",
    "OR-LASSO",
    "OR-OLS",
    "P-BR",
    "Pop-IPTW-LASSO",
    "Pop-IPTW-MLE",
    "Post-LASSO",
)
# Available on request but not part of the default roster.
EXTRA_TAGS: Tuple[str, ...] = ("IPTW-LASSO", "IPTW-MLE")
ALL_TAGS: Tuple[str, ...] = tuple(sorted(DEFAULT_ROSTER + EXTRA_TAGS))


def _resolve_tags(tags: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """The requested estimator tags (default: the roster); raises
    :class:`ConfigError` naming every tag outside :data:`ALL_TAGS`."""
    tags = DEFAULT_ROSTER if tags is None else tuple(tags)
    unknown = [t for t in tags if t not in ALL_TAGS]
    if unknown:
        raise ConfigError(f"unknown estimator tag(s) {unknown}; valid tags: {', '.join(ALL_TAGS)}")
    return tags


@dataclass
class EstimateResult:
    """Point estimate with influence-based uncertainty.

    ``mu_hat`` equals the mean of ``influence`` exactly; ``se = sigma_hat/sqrt(n)``
    and ``ci = mu_hat +/- 1.96 * se``. ``se_is_naive`` flags standard errors
    that ignore nuisance estimation (outcome-regression and inverse-weighting
    estimators) and are not asymptotically valid in general.
    """

    mu_hat: float
    influence: np.ndarray = field(repr=False)
    sigma_hat: float
    se: float
    ci: Tuple[float, float]
    estimator: str
    se_is_naive: bool = False
    fit: Optional[NuisanceFit] = None


@dataclass
class AteResult:
    """Average treatment effect contrast between the two counterfactual arms."""

    ate: float
    se: float
    ci: Tuple[float, float]
    arm1: EstimateResult
    arm0: EstimateResult


@dataclass
class SuiteEntry:
    """Outcome of one estimator within the suite: a result, an error, or a skip."""

    result: Optional[EstimateResult] = None
    exception: Optional[PbrdrError] = None
    skipped: bool = False

    @property
    def error(self) -> Optional[str]:
        return type(self.exception).__name__ if self.exception is not None else None

    @property
    def ok(self) -> bool:
        return self.result is not None


def _result_from_influence(
    influence: np.ndarray,
    estimator: str,
    se_is_naive: bool = False,
    fit: Optional[NuisanceFit] = None,
) -> EstimateResult:
    n = influence.shape[0]
    mu = float(np.mean(influence))
    sigma = float(np.std(influence, ddof=1)) if n > 1 else 0.0
    se = sigma / math.sqrt(n)
    ci = (mu - CI_MULTIPLIER * se, mu + CI_MULTIPLIER * se)
    return EstimateResult(mu, influence, sigma, se, ci, estimator, se_is_naive, fit)


def _propensities(
    data: Dataset, gamma: np.ndarray, needed: np.ndarray, clip_positivity: bool
) -> np.ndarray:
    """Fitted propensities with the positivity guard applied on ``needed`` units."""
    pi = expit(data.design() @ gamma)
    low = needed & (pi < POSITIVITY_THRESHOLD)
    if np.any(low):
        if not clip_positivity:
            raise PositivityViolation(
                f"{int(low.sum())} unit(s) have fitted propensity below {POSITIVITY_THRESHOLD:g}; "
                "weights would explode (pass clip_positivity=True to clip at the threshold)"
            )
        pi = np.maximum(pi, POSITIVITY_THRESHOLD)
    return pi


def influence_values(
    data: Dataset, fit: NuisanceFit, clip_positivity: bool = False
) -> np.ndarray:
    """Per-unit DR influence values ``U_i = m_i + (A_i/pi_i)(y_i - m_i)``.

    The division by ``pi_i`` is only ever evaluated on treated units, so the
    positivity guard applies there alone.
    """
    treated = data.a == 1.0
    pi = _propensities(data, fit.gamma.coef, treated, clip_positivity)
    m = data.design() @ fit.beta.coef
    u = m.copy()
    u[treated] += (data.y[treated] - m[treated]) / pi[treated]
    return u


def dr_estimate(
    data: Dataset, fit: NuisanceFit, clip_positivity: bool = False
) -> EstimateResult:
    """DR estimate: mean of the influence values, sandwich SE from their sample SD."""
    u = influence_values(data, fit, clip_positivity)
    return _result_from_influence(u, fit.method, se_is_naive=False, fit=fit)


def or_estimate(
    data: Dataset, beta: Coefficients, estimator: str = "OR"
) -> EstimateResult:
    """Outcome-regression estimate: mean of fitted values over all units.

    The reported SE is the sample SD of the fitted values over sqrt(n); it
    ignores the estimation of the coefficients and carries the naive flag.
    """
    if not np.all(np.isfinite(beta.coef)):
        raise ValueError("beta must be finite")
    fitted = data.design() @ beta.coef
    return _result_from_influence(fitted, estimator, se_is_naive=True)


def iptw_estimate(
    data: Dataset,
    gamma: Coefficients,
    estimator: str = "IPTW",
    clip_positivity: bool = False,
) -> EstimateResult:
    """Unnormalized inverse-probability estimate ``(1/n) sum_i A_i y_i / pi_i``."""
    treated = data.a == 1.0
    pi = _propensities(data, gamma.coef, treated, clip_positivity)
    u = np.zeros(data.n)
    u[treated] = data.y[treated] / pi[treated]
    return _result_from_influence(u, estimator, se_is_naive=True)


def pop_iptw_estimate(
    data: Dataset,
    gamma: Coefficients,
    estimator: str = "Pop-IPTW",
    clip_positivity: bool = False,
) -> EstimateResult:
    """Normalized (Hajek) inverse-probability estimate.

    The weights are normalized to sum to one, which makes the estimate
    location-equivariant: shifting every outcome by ``c`` shifts the estimate
    by ``c``. The influence vector is the ratio-estimator linearization, so
    its mean reproduces the estimate exactly.
    """
    treated = data.a == 1.0
    pi = _propensities(data, gamma.coef, treated, clip_positivity)
    w = np.zeros(data.n)
    w[treated] = 1.0 / pi[treated]
    w_total = float(w.sum())
    if w_total <= 0.0:
        raise DegenerateData("no treated units; normalized weights are undefined")
    mu_ratio = float(w @ data.y) / w_total
    u = np.full(data.n, mu_ratio)
    u += w * (data.y - mu_ratio) * (data.n / w_total)
    return _result_from_influence(u, estimator, se_is_naive=True)


def _weight_normalized_level(data: Dataset, gamma: np.ndarray, lam_beta: float) -> float:
    """Outcome-stage penalty on the weight-normalized scale.

    The solver objective divides the weighted squared loss by the full sample
    size ``n``, whereas weighted-lasso software fitting the treated subsample
    divides by the weight total. A nominal level ``lam_beta`` on the latter
    scale corresponds to ``lam_beta * sum_i(w_i A_i) / n`` on the solver's
    scale, which is the convention the benchmark estimators are defined on.
    """
    u = data.design() @ gamma
    treated = data.a == 1.0
    with np.errstate(over="ignore"):
        w_sum = float(np.exp(-u[treated]).sum())
    if not math.isfinite(w_sum):
        return lam_beta
    return lam_beta * w_sum / data.n


def estimate_pbr(
    data: Dataset,
    opts: Optional[SolverOptions] = None,
    penalties: Optional[Tuple[float, float]] = None,
) -> EstimateResult:
    """Full penalised bias-reduced pipeline.

    Default penalties from :func:`default_penalties`, then the calibration
    lasso for the propensity model, the inverse-odds-weighted lasso for the
    outcome model (penalty applied on the weight-normalized scale), and the
    DR plug-in. The returned result carries the nuisance fit (both active
    sets) in ``fit``.
    """
    return estimate_one(data, "P-BR", opts, penalties)


def estimate_ds_pbr(
    data: Dataset,
    opts: Optional[SolverOptions] = None,
    penalties: Optional[Tuple[float, float]] = None,
) -> EstimateResult:
    """Double-selection variant: refit the bias-reduced system without l1 penalty
    on the union of the covariates selected by the P-BR stage, keeping a ridge
    term on the propensity equation for numerical stability."""
    return estimate_one(data, "DS-P-BR", opts, penalties)


def _suite_builders(data: Dataset, opts, lam_gamma: float, lam_beta: float):
    """Tag -> builder map with shared, lazily computed nuisance fits.

    Failures are cached alongside successes so that every estimator
    depending on a failed fit reports the same underlying error without
    re-running the solver.
    """
    cache: Dict[str, object] = {}

    def shared(key: str, build):
        if key not in cache:
            try:
                cache[key] = ("ok", build())
            except PbrdrError as exc:
                cache[key] = ("err", exc)
        status, value = cache[key]
        if status == "err":
            raise value
        return value

    def g_mle():
        return shared("g_mle", lambda: fit_logistic_mle(data, opts))

    def b_ols():
        return shared("b_ols", lambda: fit_ols(data, treated_only=True))

    def g_lasso():
        return shared("g_lasso", lambda: fit_logistic_lasso(data, lam_gamma, opts))

    def b_lasso():
        # Treated-subsample fit: the nominal level lives on the subsample
        # scale, the solver normalizes by the full n.
        lam_eff = lam_beta * data.n_treated / data.n
        return shared("b_lasso", lambda: fit_linear_lasso(data, lam_eff, True, opts))

    def g_pbr():
        return shared("g_pbr", lambda: fit_calibration_lasso(data, lam_gamma, opts))

    def b_pbr():
        def build():
            gamma = g_pbr()
            lam_eff = _weight_normalized_level(data, gamma.coef, lam_beta)
            return fit_weighted_outcome_lasso(data, gamma, lam_eff, opts)

        return shared("b_pbr", build)

    def union(g, b):
        return sorted(set(g().active_set) | set(b().active_set))

    return {
        "OR-OLS": lambda: or_estimate(data, b_ols(), "OR-OLS"),
        "OR-LASSO": lambda: or_estimate(data, b_lasso(), "OR-LASSO"),
        "IPTW-MLE": lambda: iptw_estimate(data, g_mle(), "IPTW-MLE"),
        "IPTW-LASSO": lambda: iptw_estimate(data, g_lasso(), "IPTW-LASSO"),
        "Pop-IPTW-MLE": lambda: pop_iptw_estimate(data, g_mle(), "Pop-IPTW-MLE"),
        "Pop-IPTW-LASSO": lambda: pop_iptw_estimate(data, g_lasso(), "Pop-IPTW-LASSO"),
        "MLE": lambda: dr_estimate(data, NuisanceFit(g_mle(), b_ols(), "MLE")),
        "LASSO": lambda: dr_estimate(data, NuisanceFit(g_lasso(), b_lasso(), "LASSO")),
        "Post-LASSO": lambda: dr_estimate(
            data,
            NuisanceFit(
                shared(
                    "g_post",
                    lambda: post_lasso_refit(data, g_lasso().active_set, "propensity", opts),
                ),
                shared(
                    "b_post",
                    lambda: post_lasso_refit(data, b_lasso().active_set, "outcome", opts),
                ),
                "Post-LASSO",
            ),
        ),
        "DS-LASSO": lambda: dr_estimate(
            data,
            NuisanceFit(
                shared(
                    "g_ds",
                    lambda: post_lasso_refit(data, union(g_lasso, b_lasso), "propensity", opts),
                ),
                shared(
                    "b_ds",
                    lambda: post_lasso_refit(data, union(g_lasso, b_lasso), "outcome", opts),
                ),
                "DS-LASSO",
            ),
        ),
        "P-BR": lambda: dr_estimate(data, NuisanceFit(g_pbr(), b_pbr(), "P-BR")),
        "DS-P-BR": lambda: dr_estimate(
            data, fit_br_refit(data, union(g_pbr, b_pbr), lam_gamma, opts)
        ),
    }


def estimate_suite(
    data: Dataset,
    estimators: Optional[Sequence[str]] = None,
    opts: Optional[SolverOptions] = None,
    penalties: Optional[Tuple[float, float]] = None,
) -> Dict[str, SuiteEntry]:
    """Run the requested estimators (default: the ten-member roster) on one dataset.

    Per-estimator failures never abort the suite: each failing tag carries its
    specific error. The MLE-based DR estimator is skipped with an explicit
    marker when ``n <= p + 1``. Nuisance fits shared between estimators are
    computed once.
    """
    tags = _resolve_tags(estimators)
    lam_gamma, lam_beta = penalties or default_penalties(data.n, max(data.p, 1))
    builders = _suite_builders(data, opts, lam_gamma, lam_beta)
    out: Dict[str, SuiteEntry] = {}
    for tag in tags:
        if tag == "MLE" and data.n <= data.p + 1:
            out[tag] = SuiteEntry(
                exception=RankDeficient("MLE nuisances require n > p + 1; skipped"),
                skipped=True,
            )
            continue
        try:
            out[tag] = SuiteEntry(result=builders[tag]())
        except PbrdrError as exc:
            # A kept traceback would hold ``out`` and ``data`` in a reference cycle.
            out[tag] = SuiteEntry(exception=exc.with_traceback(None))
    return out


def estimate_one(
    data: Dataset,
    estimator: str = "P-BR",
    opts: Optional[SolverOptions] = None,
    penalties: Optional[Tuple[float, float]] = None,
) -> EstimateResult:
    """Run a single estimator by tag, raising its error on failure."""
    entry = estimate_suite(data, [estimator], opts, penalties)[estimator]
    if entry.result is None:
        raise entry.exception
    return entry.result


def ate_estimate(
    data: Dataset,
    estimator: str = "P-BR",
    opts: Optional[SolverOptions] = None,
    penalties: Optional[Tuple[float, float]] = None,
) -> AteResult:
    """Average treatment effect via two fully independent counterfactual-arm fits.

    Arm 1 runs the chosen estimator as-is; arm 0 runs it after recoding the
    treatment. The SE comes from the per-unit difference of the two influence
    vectors on the shared sample, which accounts for the correlation between
    the arms.
    """
    if data.n_treated == 0 or data.n_treated == data.n:
        raise DegenerateData("both treatment arms must be nonempty for an ATE")
    arm1 = estimate_one(data, estimator, opts, penalties)
    arm0 = estimate_one(data.swap_treatment(), estimator, opts, penalties)
    ate = arm1.mu_hat - arm0.mu_hat
    diff = arm1.influence - arm0.influence
    se = float(np.std(diff, ddof=1)) / math.sqrt(data.n) if data.n > 1 else 0.0
    ci = (ate - CI_MULTIPLIER * se, ate + CI_MULTIPLIER * se)
    return AteResult(ate, se, ci, arm1, arm0)
