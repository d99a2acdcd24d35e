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

from .dataset import Dataset
from .errors import ConfigError, DegenerateData, PbrdrError, PositivityViolation
from .solvers import (
    Coefficients,
    NuisanceFit,
    default_penalties,
    expit,
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
# PositivityViolation. They are reported, never clipped: clipping would hide
# the positivity failure behind an interval that still looks valid.
POSITIVITY_THRESHOLD = 1e-6

CI_MULTIPLIER = 1.96


def _resolve_tags(tags: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """The requested estimator tags (default: the roster); raises
    :class:`ConfigError` naming every tag outside :data:`DEFAULT_ROSTER`."""
    tags = DEFAULT_ROSTER if tags is None else tuple(tags)
    unknown = [t for t in tags if t not in DEFAULT_ROSTER]
    if unknown:
        raise ConfigError(f"unknown estimator tag(s) {unknown}; valid tags: {', '.join(DEFAULT_ROSTER)}")
    return tags


@dataclass
class EstimateResult:
    """Point estimate with influence-based uncertainty.

    ``mu_hat`` equals the mean of ``influence`` exactly; ``sigma_hat``, ``se``
    and ``ci`` are :func:`_interval` of the two. ``se_is_naive`` flags standard errors
    that ignore nuisance estimation (outcome-regression and inverse-weighting
    estimators) and are not asymptotically valid in general.
    """

    mu_hat: float
    influence: np.ndarray = field(repr=False)
    sigma_hat: float
    se: float
    ci: Tuple[float, float]
    se_is_naive: bool = False
    fit: Optional[NuisanceFit] = None


@dataclass
class AteResult:
    """Average treatment effect contrast between the two counterfactual arms;
    ``se`` and ``ci`` are :func:`_interval` of the per-unit difference of their
    influence vectors."""

    ate: float
    se: float
    ci: Tuple[float, float]
    arm1: EstimateResult
    arm0: EstimateResult


@dataclass
class SuiteEntry:
    """Outcome of one estimator within the suite: a result or an error."""

    result: Optional[EstimateResult] = None
    exception: Optional[PbrdrError] = None

    @property
    def error(self) -> Optional[str]:
        return type(self.exception).__name__ if self.exception is not None else None

    @property
    def ok(self) -> bool:
        return self.result is not None


def _interval(mu: float, influence: np.ndarray) -> Tuple[float, float, Tuple[float, float]]:
    """The sample SD ``sigma`` of per-unit influence values (ddof=1; 0 for one
    unit), the SE ``sigma / sqrt(n)`` of the estimate ``mu`` they linearize,
    and its 95% interval ``mu +/- 1.96 * se``."""
    n = influence.shape[0]
    sigma = float(np.std(influence, ddof=1)) if n > 1 else 0.0
    se = sigma / math.sqrt(n)
    return sigma, se, (mu - CI_MULTIPLIER * se, mu + CI_MULTIPLIER * se)


def _result_from_influence(
    influence: np.ndarray, se_is_naive: bool = False, fit: Optional[NuisanceFit] = None
) -> EstimateResult:
    mu = float(influence.sum()) / influence.shape[0]
    return EstimateResult(mu, influence, *_interval(mu, influence), se_is_naive, fit)


def _propensities(data: Dataset, gamma: np.ndarray, needed: np.ndarray) -> np.ndarray:
    """Fitted propensities with the positivity guard applied on ``needed`` units."""
    pi = expit(data.design() @ gamma)
    low = needed & (pi < POSITIVITY_THRESHOLD)
    if np.any(low):
        raise PositivityViolation(
            f"{int(low.sum())} unit(s) have fitted propensity below {POSITIVITY_THRESHOLD:g}; "
            "weights would explode"
        )
    return pi


def influence_values(data: Dataset, fit: NuisanceFit) -> np.ndarray:
    """Per-unit DR influence values ``U_i = m_i + (A_i/pi_i)(y_i - m_i)``.

    The division by ``pi_i`` is only ever evaluated on treated units, so the
    positivity guard applies there alone.
    """
    treated = data.a == 1.0
    pi = _propensities(data, fit.gamma.coef, treated)
    m = data.design() @ fit.beta.coef
    u = m.copy()
    u[treated] += (data.y[treated] - m[treated]) / pi[treated]
    return u


def dr_estimate(data: Dataset, fit: NuisanceFit) -> EstimateResult:
    """DR estimate: mean of the influence values, sandwich SE from their sample SD."""
    u = influence_values(data, fit)
    return _result_from_influence(u, fit=fit)


def or_estimate(data: Dataset, beta: Coefficients) -> EstimateResult:
    """Outcome-regression estimate: mean of fitted values over all units.

    The reported SE is the sample SD of the fitted values over sqrt(n); it
    ignores the estimation of the coefficients and carries the naive flag.
    """
    if not np.all(np.isfinite(beta.coef)):
        raise ValueError("beta must be finite")
    fitted = data.design() @ beta.coef
    return _result_from_influence(fitted, se_is_naive=True)


def iptw_estimate(data: Dataset, gamma: Coefficients) -> EstimateResult:
    """Unnormalized inverse-probability estimate ``(1/n) sum_i A_i y_i / pi_i``."""
    treated = data.a == 1.0
    pi = _propensities(data, gamma.coef, treated)
    u = np.zeros(data.n)
    u[treated] = data.y[treated] / pi[treated]
    return _result_from_influence(u, se_is_naive=True)


def pop_iptw_estimate(data: Dataset, gamma: Coefficients) -> EstimateResult:
    """Normalized (Hajek) inverse-probability estimate.

    The weights are normalized to sum to one, which makes the estimate
    location-equivariant: shifting every outcome by ``c`` shifts the estimate
    by ``c``. The influence vector is the ratio-estimator linearization, so
    its mean reproduces the estimate exactly.
    """
    treated = data.a == 1.0
    pi = _propensities(data, gamma.coef, treated)
    w = np.zeros(data.n)
    w[treated] = 1.0 / pi[treated]
    w_total = float(w.sum())
    if w_total <= 0.0:
        raise DegenerateData("no treated units; normalized weights are undefined")
    mu_ratio = float(w @ data.y) / w_total
    u = np.full(data.n, mu_ratio)
    u += w * (data.y - mu_ratio) * (data.n / w_total)
    return _result_from_influence(u, se_is_naive=True)


class _NuisanceFits:
    """The nuisance fits one suite call shares, each built on first use: one
    named in :data:`_NUISANCE_FITS`, or the :func:`post_lasso_refit` keyed
    ``(which, columns)``, which two selections of one column set share.

    Failures are cached alongside successes so that every estimator
    depending on a failed fit reports the same underlying error without
    re-running the solver.
    """

    def __init__(self, data: Dataset) -> None:
        self.data = data
        self.lam_gamma, self.lam_beta = default_penalties(data.n, max(data.p, 1))
        self._cache: Dict[object, object] = {}

    def __call__(self, key: "str | Tuple[str, Tuple[int, ...]]"):
        if key not in self._cache:
            try:
                if isinstance(key, str):
                    self._cache[key] = _NUISANCE_FITS[key](self)
                else:
                    self._cache[key] = post_lasso_refit(self.data, key[1], key[0])
            except PbrdrError as exc:
                self._cache[key] = exc
        value = self._cache[key]
        if isinstance(value, PbrdrError):
            raise value
        return value

    def union(self, g: str, b: str) -> tuple:
        """The sorted union of the active sets of two fits."""
        return tuple(sorted(set(self(g).active_set) | set(self(b).active_set)))


# Each shared nuisance fit by name, built from the lookup ``f`` (its dataset,
# penalty levels and other fits). The fitters are looked up at call time.
_NUISANCE_FITS = {
    "g_mle": lambda f: fit_logistic_mle(f.data),
    "b_ols": lambda f: fit_ols(f.data),
    "g_lasso": lambda f: fit_logistic_lasso(f.data, f.lam_gamma),
    # Treated-subsample fit: the nominal level lives on the subsample scale,
    # the solver normalizes by the full n.
    "b_lasso": lambda f: fit_linear_lasso(f.data, f.lam_beta * f.data.n_treated / f.data.n),
    "g_pbr": lambda f: fit_calibration_lasso(f.data, f.lam_gamma),
    "b_pbr": lambda f: fit_weighted_outcome_lasso(f.data, f("g_pbr"), f.lam_beta),
    "g_post": lambda f: f(("propensity", f("g_lasso").active_set)),
    "b_post": lambda f: f(("outcome", f("b_lasso").active_set)),
    "g_ds": lambda f: f(("propensity", f.union("g_lasso", "b_lasso"))),
    "b_ds": lambda f: f(("outcome", f.union("g_lasso", "b_lasso"))),
}


def _dr(g: str, b: str):
    return lambda f: dr_estimate(f.data, NuisanceFit(f(g), f(b)))


# Each estimator of the suite by tag, computed from the nuisance-fit lookup;
# the tag is a result's only name.
_ROSTER = {
    "OR-OLS": lambda f: or_estimate(f.data, f("b_ols")),
    "OR-LASSO": lambda f: or_estimate(f.data, f("b_lasso")),
    "Pop-IPTW-MLE": lambda f: pop_iptw_estimate(f.data, f("g_mle")),
    "Pop-IPTW-LASSO": lambda f: pop_iptw_estimate(f.data, f("g_lasso")),
    "MLE": _dr("g_mle", "b_ols"),
    "LASSO": _dr("g_lasso", "b_lasso"),
    "Post-LASSO": _dr("g_post", "b_post"),
    "DS-LASSO": _dr("g_ds", "b_ds"),
    "P-BR": _dr("g_pbr", "b_pbr"),
    "DS-P-BR": lambda f: dr_estimate(
        f.data, fit_br_refit(f.data, f.union("g_pbr", "b_pbr"), f.lam_gamma)
    ),
}

# The ten estimators reported by the benchmark suite, in sorted output order.
DEFAULT_ROSTER: Tuple[str, ...] = tuple(sorted(_ROSTER))


def estimate_suite(
    data: Dataset, estimators: Optional[Sequence[str]] = None
) -> Dict[str, SuiteEntry]:
    """Run the requested estimators (default: the ten-member roster) on one dataset.

    Penalty levels come from :func:`default_penalties`. Per-estimator failures
    never abort the suite: each failing tag carries its specific error.
    Nuisance fits shared between estimators are computed once.
    """
    tags = _resolve_tags(estimators)
    fits = _NuisanceFits(data)
    out: Dict[str, SuiteEntry] = {}
    for tag in tags:
        try:
            out[tag] = SuiteEntry(result=_ROSTER[tag](fits))
        except PbrdrError as exc:
            # A kept traceback would hold ``out`` and ``data`` in a reference
            # cycle; so would the exception a solver raised this one from.
            exc.__cause__ = exc.__context__ = None
            out[tag] = SuiteEntry(exception=exc.with_traceback(None))
    return out


def estimate_one(data: Dataset, estimator: str = "P-BR") -> EstimateResult:
    """Run a single estimator by tag, raising its error on failure."""
    entry = estimate_suite(data, [estimator])[estimator]
    if entry.result is None:
        raise entry.exception
    return entry.result


def ate_estimate(data: Dataset, estimator: str = "P-BR") -> AteResult:
    """Average treatment effect via two fully independent counterfactual-arm fits.

    Arm 1 runs the chosen estimator as-is; arm 0 runs it after recoding the
    treatment. The SE comes from the per-unit difference of the two influence
    vectors on the shared sample, which accounts for the correlation between
    the arms.
    """
    if data.n_treated == 0 or data.n_treated == data.n:
        raise DegenerateData("both treatment arms must be nonempty for an ATE")
    arm1 = estimate_one(data, estimator)
    arm0 = estimate_one(data.swap_treatment(), estimator)
    ate = arm1.mu_hat - arm0.mu_hat
    _, se, ci = _interval(ate, arm1.influence - arm0.influence)
    return AteResult(ate, se, ci, arm1, arm0)
