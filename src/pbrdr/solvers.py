"""Convex solvers and regression machinery for the nuisance working models.

Two fitters carry the method itself:

* :func:`fit_calibration_lasso` minimises the inverse-propensity calibration
  loss ``(1/n) sum_i [A_i exp(-g.z_i) + (1-A_i) g.z_i] + lam * ||g||_1`` whose
  stationarity conditions are the weighted covariate-balancing equations
  ``(1/n) sum_i {1 - A_i / pi(z_i; g)} z_i + lam * subgrad = 0``.
* :func:`fit_weighted_outcome_lasso` minimises the inverse-odds-weighted
  squared loss ``(1/2n) sum_i [w_i A_i (y_i - b.z_i)^2] + lam * ||b||_1`` with
  ``w_i = (1 - pi_i) / pi_i``.

Around them sit the standard fitters used by the comparator estimators
(logistic MLE, OLS, plain lasso variants, post-selection refits, the
ridge-stabilised double-selection system) and the default penalty formulas.
Every fitter returns a :class:`Coefficients` (``fit_br_refit`` a
:class:`NuisanceFit` holding two of them).

Three engines solve them: accelerated proximal gradient for the penalised
propensity losses, damped Newton for the smooth unpenalized ones, and, for
the penalised squared losses, working-set coordinate descent, which forms
the Gram matrix of the working set only and screens the other coordinates
with the full design's gradient. The unpenalized squared losses (OLS, the
post-selection outcome refits and the bias-reduced outcome equations) share
one weighted least-squares solve, :func:`_least_squares`.

Conventions shared by every fitter:

* designs carry a leading intercept column; the intercept is never penalized;
* the standardized design is built once per :class:`Dataset` and cached on it;
* covariates are always rescaled to unit sample standard deviation before
  fitting, as in glmnet, and coefficients mapped back afterwards, so the
  ``lam * ||.||_1`` penalties (and the ridge term of :func:`fit_br_refit`)
  apply to coefficients on the unit-SD scale; reported KKT residuals live on
  that scale, which is the scale of the problem actually solved;
* iteration budgets are the module constants ``DEFAULT_PROX_ITER``,
  ``DEFAULT_CD_SWEEPS`` and ``DEFAULT_NEWTON_ITER``, read at call time; a
  spent budget raises :class:`NonConvergence`, never a partial result;
* all score/KKT residuals are on the mean scale, i.e. ``(1/n) sum_i ...``;
* solvers are pure functions of their inputs: no internal randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

import numpy as np
from scipy.special import expit, ndtri

from .dataset import Dataset
from .errors import (
    DegenerateData,
    DegenerateWeights,
    DomainError,
    NonConvergence,
    RankDeficient,
    Separation,
    UnboundedObjective,
)

# Coordinates this close to zero are snapped to exact zero so active sets are
# well defined.
ZERO_SNAP = 1e-14
# Iterate-norm bound on the standardized scale; crossing it flags a descent
# direction with no minimum (e.g. separable treatment).
NORM_GUARD = 1e4

DEFAULT_TOL = 1e-8
DEFAULT_PROX_ITER = 10_000
DEFAULT_CD_SWEEPS = 100_000
DEFAULT_NEWTON_ITER = 200


@dataclass
class Coefficients:
    """Fitted coefficients of one nuisance model (intercept first), the penalty
    level they were fit at, and the solver's convergence record.

    ``active_set`` holds the positions ``j >= 1`` in the coefficient vector
    with a nonzero value (the intercept is excluded), so covariate column
    ``j - 1`` of the data corresponds to entry ``j``.
    """

    coef: np.ndarray
    lam: float
    kkt_residual: float
    n_iter: int = 0
    objective_trace: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def active_set(self) -> tuple[int, ...]:
        return tuple(int(j) + 1 for j in np.flatnonzero(self.coef[1:]))


@dataclass
class NuisanceFit:
    """A paired propensity/outcome fit plus the label of the method that produced it."""

    gamma: Coefficients
    beta: Coefficients
    method: str

    def __post_init__(self) -> None:
        if self.gamma.coef.shape != self.beta.coef.shape:
            raise ValueError("propensity and outcome coefficient vectors must have equal length")


# ---------------------------------------------------------------------------
# penalty formulas
# ---------------------------------------------------------------------------


def normal_quantile(q: float) -> float:
    """Standard normal quantile function (inverse of the normal CDF)."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"normal_quantile requires 0 < q < 1, got {q}")
    return float(ndtri(q))


def default_penalties(n: int, p: int) -> tuple[float, float]:
    """Default penalty levels for the two nuisance fits at sample size ``n``, dimension ``p``.

    ``lam_gamma = 1.1/(2 sqrt(n)) * qnorm(1 - 0.05 / max(n, p log n))`` with the
    natural logarithm, and ``lam_beta = 2 * lam_gamma`` exactly.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if p < 1:
        raise ValueError("p must be at least 1")
    tail = 1.0 - 0.05 / max(float(n), p * math.log(n))
    lam_gamma = 1.1 / (2.0 * math.sqrt(n)) * normal_quantile(tail)
    return lam_gamma, 2.0 * lam_gamma


# ---------------------------------------------------------------------------
# shared numerical helpers
# ---------------------------------------------------------------------------


def _column_scales(x: np.ndarray) -> np.ndarray:
    """Sample standard deviation (ddof=1) of each covariate; zeros map to 1."""
    if x.shape[1] == 0:
        return np.ones(0)
    if x.shape[0] < 2:
        return np.ones(x.shape[1])
    s = np.std(x, axis=0, ddof=1)
    return np.where(s > 0.0, s, 1.0)


def _standardized_design(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Design with intercept, covariates scaled to unit sample SD, and the scales.

    Both arrays are read-only and built once per dataset.
    """
    if "standardized" not in data._cache:
        scales = _column_scales(data.x)
        z = data.design()
        if data.p:
            z = z.copy()
            z[:, 1:] /= scales
            z.flags.writeable = False
        scales.flags.writeable = False
        data._cache["standardized"] = (z, scales)
    return data._cache["standardized"]


def _back_transform(coef: np.ndarray, scales: np.ndarray) -> np.ndarray:
    out = coef.copy()
    if scales.size:
        out[1:] /= scales
    return out


def _penalized_mask(dim: int) -> np.ndarray:
    mask = np.ones(dim, dtype=bool)
    mask[0] = False
    return mask


def _embed(fit: Coefficients, index: list[int], dim: int) -> Coefficients:
    """A fit on the design columns ``index`` as a zero-padded length-``dim`` fit."""
    coef = np.zeros(dim)
    coef[index] = fit.coef
    return replace(fit, coef=coef)


def _kkt_sup_norm(grad: np.ndarray, coef: np.ndarray, lam: float, penalized: np.ndarray) -> float:
    """Sup-norm violation of the l1 subgradient stationarity conditions.

    Unpenalized coordinates must have a vanishing score; penalized nonzero
    coordinates must have score equal to ``-lam * sign``; penalized zero
    coordinates must have ``|score| <= lam``.
    """
    viol = np.abs(grad).astype(float)
    if lam > 0.0 and penalized.any():
        nz = penalized & (coef != 0.0)
        z = penalized & (coef == 0.0)
        viol = viol.copy()
        viol[nz] = np.abs(grad[nz] + lam * np.sign(coef[nz]))
        viol[z] = np.maximum(np.abs(grad[z]) - lam, 0.0)
    return float(viol.max()) if viol.size else 0.0


def _soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _least_squares(z: np.ndarray, w: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Minimum-norm minimiser of ``sum_i w_i (y_i - b.z_i)^2`` for weights ``w >= 0``.

    One ``lstsq`` factorization of ``sqrt(w) z`` over the rows with ``w > 0``,
    so the condition number is the design's, not its Gram matrix's square.
    Returns the coefficients, the numerical rank and the mean-scale residual
    of the normal equations, ``max|z'W(y - zb)| / n``.
    """
    rows = w > 0.0
    root = np.sqrt(w[rows])
    z_w, y_w = z[rows], y[rows]
    coef, _, rank, _ = np.linalg.lstsq(z_w * root[:, None], y_w * root, rcond=None)
    resid = z_w.T @ (w[rows] * (y_w - z_w @ coef))
    return coef, int(rank), float(np.max(np.abs(resid))) / z.shape[0]


# ---------------------------------------------------------------------------
# proximal gradient engine (smooth convex + l1)
# ---------------------------------------------------------------------------


def _backtrack(value_grad, y, fy, gy, step, lam, penalized):
    """One backtracking proximal step from ``y``; returns (z, fz, gz, step).

    The sufficient-decrease test carries a float-resolution slack so that
    evaluation noise near the optimum cannot drive the step size to zero.
    """
    slack = 16.0 * np.finfo(float).eps * (1.0 + abs(fy))
    while True:
        z = y - step * gy
        if lam > 0.0:
            z[penalized] = _soft_threshold(z[penalized], step * lam)
        z[np.abs(z) < ZERO_SNAP] = 0.0
        fz, gz = value_grad(z)
        d = z - y
        if np.isfinite(fz) and fz <= fy + float(gy @ d) + 0.5 * float(d @ d) / step + slack:
            return z, fz, gz, step
        step *= 0.5
        if step < 1e-18:
            raise NonConvergence("proximal line search stalled; no further progress possible")


def _prox_gradient(value_grad, x0, lam, penalized, tol, max_iter):
    """Monotone accelerated proximal gradient with backtracking line search.

    ``value_grad(x)`` returns ``(value, gradient)`` of the smooth part on the
    mean scale (gradient may be None when the value is not finite). Momentum
    steps are accepted only when they do not increase the composite objective,
    so the recorded objective trace is nonincreasing. Stops when the KKT
    sup-norm residual falls to ``tol``.
    """
    x = np.array(x0, dtype=float)
    fx, gx = value_grad(x)
    if not np.isfinite(fx):
        raise ValueError("objective is not finite at the starting point")

    def pen(v: np.ndarray) -> float:
        return lam * float(np.abs(v[penalized]).sum()) if lam > 0.0 else 0.0

    big_f = fx + pen(x)
    trace = [big_f]
    kkt = _kkt_sup_norm(gx, x, lam, penalized)
    if kkt <= tol:
        return x, kkt, 0, np.asarray(trace)

    x_prev = x
    t_mom = 1.0
    step = 1.0
    for it in range(1, max_iter + 1):
        step = min(step * 1.25, 1e12)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        if x_prev is x:
            y, fy, gy = x, fx, gx
        else:
            y = x + ((t_mom - 1.0) / t_next) * (x - x_prev)
            fy, gy = value_grad(y)
            if not np.isfinite(fy):
                y, fy, gy = x, fx, gx
        z, fz, gz, step = _backtrack(value_grad, y, fy, gy, step, lam, penalized)
        big_fz = fz + pen(z)
        if big_fz <= big_f:
            x_prev, x, fx, gx, big_f = x, z, fz, gz, big_fz
            t_mom = t_next
        else:
            # Momentum overshot: take a plain proximal step from x instead and
            # restart the momentum. The line-search certificate guarantees
            # descent mathematically, but near the optimum the improvement can
            # fall below float resolution of the objective, so the recorded
            # value is the running minimum.
            z, fz, gz, step = _backtrack(value_grad, x, fx, gx, step, lam, penalized)
            big_fz = min(fz + pen(z), big_f)
            x_prev, x, fx, gx, big_f = x, z, fz, gz, big_fz
            t_mom = 1.0
        trace.append(big_f)
        if float(np.linalg.norm(x)) > NORM_GUARD:
            raise UnboundedObjective(
                "iterate norm exceeded the divergence guard; the objective has no minimum "
                "(e.g. separable treatment with lambda = 0)"
            )
        kkt = _kkt_sup_norm(gx, x, lam, penalized)
        if kkt <= tol:
            return x, kkt, it, np.asarray(trace)
    raise NonConvergence(
        f"proximal gradient hit max_iter={max_iter} with kkt residual {kkt:.3e} > tol {tol:.1e}"
    )


# ---------------------------------------------------------------------------
# coordinate descent engine (weighted quadratic + l1)
# ---------------------------------------------------------------------------


def _cd_quadratic(gram, lin, lam, penalized, x0, tol, max_sweeps):
    """Cyclic coordinate descent with exact updates for
    ``0.5 x'Gx - c'x + lam * ||x[penalized]||_1``.

    ``gram``/``lin`` are on the mean scale, so the stationarity system is the
    mean-scale estimating equation. Returns (x, kkt, sweeps, objective_trace).
    The stopping residual is floored at 64 ulps of ``max|lin|``: below that
    it is float noise in the units of y.
    """
    tol = max(tol, 64.0 * np.finfo(float).eps * float(np.max(np.abs(lin))))
    x = np.array(x0, dtype=float)
    dim = x.shape[0]
    diag = np.diag(gram).copy()
    u = gram @ x

    def objective() -> float:
        val = 0.5 * float(x @ u) - float(lin @ x)
        if lam > 0.0:
            val += lam * float(np.abs(x[penalized]).sum())
        return val

    trace = [objective()]
    kkt = _kkt_sup_norm(u - lin, x, lam, penalized)
    if kkt <= tol:
        return x, kkt, 0, np.asarray(trace)
    for sweep in range(1, max_sweeps + 1):
        for j in range(dim):
            if diag[j] <= 0.0:
                continue
            rho = lin[j] - u[j] + diag[j] * x[j]
            if penalized[j] and lam > 0.0:
                new = math.copysign(max(abs(rho) - lam, 0.0), rho) / diag[j]
            else:
                new = rho / diag[j]
            if abs(new) < ZERO_SNAP:
                new = 0.0
            delta = new - x[j]
            if delta != 0.0:
                u += gram[:, j] * delta
                x[j] = new
        u = gram @ x  # refresh to cancel incremental drift
        trace.append(objective())
        kkt = _kkt_sup_norm(u - lin, x, lam, penalized)
        if kkt <= tol:
            return x, kkt, sweep, np.asarray(trace)
    raise NonConvergence(
        f"coordinate descent hit max sweeps={max_sweeps} with kkt residual {kkt:.3e} > tol {tol:.1e}"
    )


def _working_set_cd(z, weights, lin, lam, penalized, x0, tol, max_sweeps):
    """Working-set coordinate descent for ``0.5 x'Gx - c'x + lam * ||x[penalized]||_1``
    with ``G = z' diag(weights) z / n``, never forming ``G`` in full.

    Each pass runs :func:`_cd_quadratic` on the working set's small Gram
    matrix, warm-started, on one shared ``max_sweeps`` budget; the set starts
    with the unpenalized and nonzero coordinates. The zero coordinates outside
    it are then checked against the full gradient: the KKT residual is the
    larger of the restricted solve's and their excess of ``|grad_j|`` over
    ``lam``. Above the floored tolerance of :func:`_cd_quadratic`, every
    coordinate with an excess joins, so each further pass has a larger set.
    Returns (x, kkt, sweeps, objective_trace) as :func:`_cd_quadratic` does;
    the trace joins the restricted traces, dropping each later one's start.
    """
    n = z.shape[0]
    floor = max(tol, 64.0 * np.finfo(float).eps * float(np.max(np.abs(lin))))
    x = np.array(x0, dtype=float)
    working = ~penalized | (x != 0.0)
    sweeps = 0
    traces = []
    while True:
        idx = np.flatnonzero(working)
        zw = z[:, idx]
        gram = (zw * weights[:, None]).T @ zw / n
        try:
            x[idx], kkt, done, trace = _cd_quadratic(
                gram, lin[idx], lam, penalized[idx], x[idx], tol, max_sweeps - sweeps
            )
        except NonConvergence:
            raise NonConvergence(
                f"coordinate descent hit max sweeps={max_sweeps} on a working set of "
                f"{idx.size} of {x.size} coordinates"
            ) from None
        sweeps += done
        traces.append(trace[1:] if traces else trace)
        grad = z.T @ (weights * (zw @ x[idx])) / n - lin
        # Working-set coordinates keep the restricted solve's residual: at
        # large outcome scales the rounding of the two products with ``z``
        # alone can exceed the floor, and no sweep would then lower it.
        excess = np.where(working, 0.0, np.abs(grad) - lam)
        kkt = max(kkt, float(excess.max()))
        if kkt <= floor:
            return x, kkt, sweeps, np.concatenate(traces)
        working |= excess > 0.0


# ---------------------------------------------------------------------------
# damped Newton engine (smooth strictly convex problems)
# ---------------------------------------------------------------------------


def _newton(value_grad, hess, x0, tol, max_iter, divergence_error: Exception, norm_guard: float = NORM_GUARD):
    """Damped Newton with backtracking; ``value_grad`` as for the proximal engine,
    ``hess`` evaluated at accepted iterates only. Stops when the gradient's
    sup-norm reaches ``tol``; an iterate norm above ``norm_guard`` raises
    ``divergence_error``."""
    x = np.array(x0, dtype=float)
    f, g = value_grad(x)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the starting point")
    for it in range(max_iter + 1):
        res = float(np.max(np.abs(g))) if g.size else 0.0
        if res <= tol:
            return x, res, it
        if it == max_iter:
            raise NonConvergence(
                f"Newton hit max_iter={max_iter} with residual {res:.3e} > tol {tol:.1e}"
            )
        try:
            direction = np.linalg.solve(hess(x), -g)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient("singular Hessian in Newton solve") from exc
        slope = float(g @ direction)
        step = 1.0
        while True:
            x_new = x + step * direction
            f_new, g_new = value_grad(x_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-16:
                raise NonConvergence("Newton line search stalled")
        x, f, g = x_new, f_new, g_new
        if float(np.linalg.norm(x)) > norm_guard:
            raise divergence_error


# ---------------------------------------------------------------------------
# smooth objective closures
# ---------------------------------------------------------------------------


def _calibration_value_grad(z: np.ndarray, a: np.ndarray) -> Callable:
    """Mean-scale value/gradient of ``(1/n) sum_i [A_i exp(-u_i) + (1-A_i) u_i]``.

    The gradient equals the calibration score ``(1/n) sum_i {1 - A_i/pi_i} z_i``;
    the returned callable carries the Hessian callable as ``.hess``.
    """
    n = z.shape[0]
    treated = a == 1.0
    z_t = z[treated]
    z_c_sum = z[~treated].sum(axis=0)

    def value_grad(coef: np.ndarray):
        u = z @ coef
        with np.errstate(over="ignore"):
            e_t = np.exp(-u[treated])
        val = (float(e_t.sum()) + float(u[~treated].sum())) / n
        if not np.isfinite(val):
            return val, None
        grad = (z_c_sum - z_t.T @ e_t) / n
        return val, grad

    def hess(coef: np.ndarray) -> np.ndarray:
        e_t = np.exp(-(z @ coef)[treated])
        return (z_t * e_t[:, None]).T @ z_t / n

    value_grad.hess = hess
    return value_grad


def _logistic_value_grad(z: np.ndarray, a: np.ndarray) -> Callable:
    """Mean-scale negative log-likelihood of the logistic model and its gradient
    (Hessian callable as ``.hess``)."""
    n = z.shape[0]

    def value_grad(coef: np.ndarray):
        u = z @ coef
        val = float(np.mean(np.logaddexp(0.0, u) - a * u))
        if not np.isfinite(val):
            return val, None
        grad = z.T @ (expit(u) - a) / n
        return val, grad

    def hess(coef: np.ndarray) -> np.ndarray:
        pi = expit(z @ coef)
        return (z * (pi * (1.0 - pi))[:, None]).T @ z / n

    value_grad.hess = hess
    return value_grad


# ---------------------------------------------------------------------------
# public fitters
# ---------------------------------------------------------------------------


def _require_both_arms(data: Dataset) -> None:
    n_t = data.n_treated
    if n_t == 0 or n_t == data.n:
        raise DegenerateData("all treatment values are equal; the propensity model is not identified")


def _fit_propensity_lasso(loss: Callable, data: Dataset, lam: float) -> Coefficients:
    """Proximal-gradient fit of ``loss(z, a)`` plus ``lam * ||g||_1``, started
    at the intercept-only logit of the treated fraction."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if data.n < 2:
        raise DegenerateData("need at least two observations")
    _require_both_arms(data)
    z, scales = _standardized_design(data)
    mask = _penalized_mask(data.p + 1)
    x0 = np.zeros(data.p + 1)
    abar = data.a.mean()
    x0[0] = math.log(abar / (1.0 - abar))
    coef, kkt, n_iter, trace = _prox_gradient(
        loss(z, data.a), x0, lam, mask, DEFAULT_TOL, DEFAULT_PROX_ITER
    )
    gamma = _back_transform(coef, scales)
    return Coefficients(gamma, lam, kkt, n_iter, trace)


def fit_calibration_lasso(data: Dataset, lambda_gamma: float) -> Coefficients:
    """Fit the propensity model by the l1-penalised calibration loss.

    Minimises ``(1/n) sum_i [A_i exp(-g.z_i) + (1-A_i) g.z_i] + lam ||g||_1``
    (intercept unpenalized). At the solution the covariate-
    balancing score ``(1/n) sum_i {1 - A_i/pi_i} z_i`` satisfies the l1
    stationarity conditions to within ``DEFAULT_TOL`` in sup-norm; with an
    unpenalized intercept this implies the calibration identity
    ``(1/n) sum_i A_i / pi_i = 1``.
    """
    return _fit_propensity_lasso(_calibration_value_grad, data, lambda_gamma)


def fit_logistic_lasso(data: Dataset, lam: float) -> Coefficients:
    """l1-penalised logistic maximum likelihood for the propensity model."""
    return _fit_propensity_lasso(_logistic_value_grad, data, lam)


# Treated propensities this close to 0 (or exactly 1 in float) break the
# inverse-odds weights: the weighted quadratic is then conditioned beyond
# float64 resolution. This is a numerical guard inside the outcome fit, far
# below ``estimators.POSITIVITY_THRESHOLD`` (1e-6), the modelling limit at
# which the estimators refuse to divide by a fitted propensity.
_WEIGHT_DEGENERACY = 1e-12


def _inverse_odds_weights(data: Dataset, gamma: np.ndarray) -> np.ndarray:
    """Per-unit weights ``A_i (1-pi_i)/pi_i`` with degeneracy checks on treated units."""
    u = data.design() @ gamma
    treated = data.a == 1.0
    pi_t = expit(u[treated])
    if np.any(pi_t <= _WEIGHT_DEGENERACY) or np.any(pi_t >= 1.0):
        raise DegenerateWeights(
            "fitted propensities reached 0 or 1 (to floating tolerance) on treated units"
        )
    w = np.zeros(data.n)
    w[treated] = np.exp(-u[treated])
    return w


def _weighted_lasso(data: Dataset, weights: np.ndarray, lam: float) -> Coefficients:
    """Shared core: minimise ``(1/2n) sum_i W_i (y_i - b.z_i)^2 + lam ||b||_1``.

    ``n`` is the full number of rows regardless of how many carry weight, so a
    treated-only fit is the ``W_i = A_i`` specialization of the weighted one.
    With ``lam == 0`` the (possibly rank-deficient) problem takes the
    minimum-norm solution of :func:`_least_squares`, the solve :func:`fit_ols`
    also uses; its normal-equation residual, on the 1/n mean scale, must be
    within ``DEFAULT_TOL`` relative to ``max|z'Wy| / n``. Otherwise
    working-set coordinate descent (:func:`_working_set_cd`) performs exact
    coordinate updates on the Gram matrix of the working set only, so the
    cost per pass is O(n p) plus the working set's, never O(n p^2).
    """
    n = data.n
    z, scales = _standardized_design(data)
    lin = z.T @ (weights * data.y) / n
    if lam == 0.0:
        coef, _, kkt = _least_squares(z, weights, data.y)
        coef[np.abs(coef) < ZERO_SNAP] = 0.0
        # Relative to the size of the right-hand side: the attainable residual
        # scales with the units of y.
        if kkt > DEFAULT_TOL * max(1.0, float(np.max(np.abs(lin)))):
            raise NonConvergence(
                f"normal equations could not be solved to tolerance (residual {kkt:.3e})"
            )
        beta = _back_transform(coef, scales)
        return Coefficients(beta, 0.0, kkt, 1)
    mask = _penalized_mask(data.p + 1)
    x0 = np.zeros(data.p + 1)
    weight_mean = float(weights.sum()) / n
    if weight_mean > 0.0:
        x0[0] = lin[0] / weight_mean
    coef, kkt, sweeps, trace = _working_set_cd(
        z, weights, lin, lam, mask, x0, DEFAULT_TOL, DEFAULT_CD_SWEEPS
    )
    beta = _back_transform(coef, scales)
    return Coefficients(beta, lam, kkt, sweeps, trace)


def fit_weighted_outcome_lasso(
    data: Dataset, gamma_hat: Coefficients, lambda_beta: float
) -> Coefficients:
    """Fit the outcome model by inverse-odds-weighted l1-penalised least squares.

    The weights ``w_i = (1 - pi_i)/pi_i`` come from the supplied propensity
    fit; only treated units enter the quadratic term. The stationarity system
    is the weighted-score equation
    ``(1/n) sum_i w_i A_i (y_i - b.z_i) z_i = lam * subgrad``.
    """
    if lambda_beta < 0:
        raise ValueError("lambda_beta must be nonnegative")
    if data.n_treated == 0:
        raise DegenerateData("no treated units; the outcome model cannot be fit")
    if not np.all(np.isfinite(gamma_hat.coef)):
        raise ValueError("gamma_hat must be finite")
    weights = _inverse_odds_weights(data, gamma_hat.coef)
    return _weighted_lasso(data, weights, lambda_beta)


def fit_linear_lasso(data: Dataset, lam: float) -> Coefficients:
    """Plain (unweighted) l1-penalised least squares on the treated subsample.

    Unit weights: the objective is ``(1/2n) sum_i A_i (y_i - b.z_i)^2 + lam ||b||_1``
    with ``n`` the full number of rows.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if data.n_treated == 0:
        raise DegenerateData("no treated units; the outcome lasso cannot be fit")
    return _weighted_lasso(data, data.a.copy(), lam)


def fit_logistic_mle(data: Dataset) -> Coefficients:
    """Unpenalized logistic maximum likelihood via damped Newton iterations.

    Divergent coefficients (norm above the guard on the standardized scale)
    raise :class:`Separation`, or :class:`RankDeficient` on a collinear design.
    """
    _require_both_arms(data)
    if data.n <= data.p + 1:
        raise RankDeficient("logistic MLE requires n > p + 1")
    z, scales = _standardized_design(data)
    loss = _logistic_value_grad(z, data.a)
    # Logistic coefficients of norm ~100 on the standardized scale put every
    # fitted probability at 0/1 within float resolution: separation, even if
    # the score tolerance is met by underflow.
    try:
        coef, res, n_iter = _newton(
            loss,
            loss.hess,
            np.zeros(data.p + 1),
            DEFAULT_TOL,
            DEFAULT_NEWTON_ITER,
            Separation("coefficient norm diverged; data appear perfectly separated"),
            norm_guard=100.0,
        )
    except Separation:
        # A collinear design diverges along its null space too; name that cause.
        if np.linalg.matrix_rank(z) <= data.p:
            raise RankDeficient("design is rank deficient; the logistic MLE is not identified") from None
        raise
    gamma = _back_transform(coef, scales)
    return Coefficients(gamma, 0.0, res, n_iter)


def fit_ols(data: Dataset) -> Coefficients:
    """Ordinary least squares on the treated subsample.

    The design must have full column rank on the treated units. The fit is
    :func:`_least_squares` with unit treated weights, the solve the
    ``lam == 0`` outcome fits share; ``kkt_residual`` is its residual
    orthogonality ``max|(1/n) sum_i A_i r_i z_i|``, on the 1/n mean scale of
    every fitter.
    """
    m = data.n_treated
    if m == 0:
        raise DegenerateData("no treated units; OLS cannot be fit")
    if m <= data.p:
        raise RankDeficient(f"subsample size {m} cannot support {data.p + 1} coefficients")
    coef, rank, kkt = _least_squares(data.design(), data.a, data.y)
    if rank < data.p + 1:
        raise RankDeficient("design matrix is rank deficient on the fitting subsample")
    return Coefficients(coef, 0.0, kkt, 1)


def _restrict(data: Dataset, positions: Iterable[int], name: str) -> tuple[list[int], Dataset]:
    """The sorted distinct coefficient positions ``1..p`` in ``positions`` and
    the dataset of their covariates; ``name`` labels the range error."""
    selected = sorted(set(int(j) for j in positions))
    if any(j < 1 or j > data.p for j in selected):
        raise ValueError(f"{name} entries must lie in 1..{data.p}")
    # ``take``, unlike ``x[:, cols]``, returns a C-ordered array, so products
    # with the refit design round as they do on any other dataset
    x = data.x.take([j - 1 for j in selected], axis=1)
    x.flags.writeable = False  # handed over: the dataset need not copy it
    return selected, Dataset(data.y, data.a, x)


def post_lasso_refit(data: Dataset, active_union: Iterable[int], which: str) -> Coefficients:
    """Refit an unpenalized model on the selected covariates only.

    ``active_union`` holds coefficient positions ``1..p``; excluded
    coefficients are exactly zero in the returned vector. ``which`` selects
    the propensity refit (logistic MLE) or the outcome refit (OLS on the
    treated subsample).
    """
    if which not in ("propensity", "outcome"):
        raise ValueError("which must be 'propensity' or 'outcome'")
    selected, sub = _restrict(data, active_union, "active_union")
    relevant = sub.n_treated if which == "outcome" else sub.n
    if len(selected) + 1 >= relevant:
        raise RankDeficient(
            f"{len(selected)} selected covariates cannot be refit on {relevant} observations"
        )
    fit = fit_logistic_mle(sub) if which == "propensity" else fit_ols(sub)
    return _embed(fit, [0] + selected, data.p + 1)


def fit_br_refit(data: Dataset, selected: Iterable[int], lambda_ridge: float) -> NuisanceFit:
    """Solve the unpenalized bias-reduced system on the selected covariates,
    with a ridge term stabilising the propensity equation.

    The propensity coefficients solve (on the standardized scale, intercept
    exempt from the ridge)

        ``(1/n) sum_i {1 - A_i/pi(z_i; g)} z_i + 2 * lambda_ridge * g = 0``,

    i.e. they minimise the strictly convex calibration loss plus
    ``lambda_ridge * ||g||_2^2``. The outcome coefficients then solve the
    inverse-odds-weighted normal equations exactly (no penalty) on the same
    restricted design.
    """
    if lambda_ridge <= 0:
        raise ValueError("lambda_ridge must be positive")
    selected, sub = _restrict(data, selected, "selected")
    _require_both_arms(data)

    z, scales = _standardized_design(sub)
    ridge = np.zeros(sub.p + 1)
    ridge[1:] = 2.0 * lambda_ridge
    loss = _calibration_value_grad(z, sub.a)

    def value_grad(coef: np.ndarray):
        val, grad = loss(coef)
        val += 0.5 * float(ridge @ coef**2)
        return val, None if grad is None else grad + ridge * coef

    x0 = np.zeros(sub.p + 1)
    abar = sub.a.mean()
    x0[0] = math.log(abar / (1.0 - abar))
    coef, res, n_iter = _newton(
        value_grad,
        lambda coef: loss.hess(coef) + np.diag(ridge),
        x0,
        DEFAULT_TOL,
        DEFAULT_NEWTON_ITER,
        UnboundedObjective("ridge-stabilised propensity solve diverged"),
    )
    gamma_sub = _back_transform(coef, scales)
    weights = _inverse_odds_weights(sub, gamma_sub)
    beta_sub = _weighted_lasso(sub, weights, 0.0)
    index = [0] + selected
    return NuisanceFit(
        _embed(Coefficients(gamma_sub, lambda_ridge, res, n_iter), index, data.p + 1),
        _embed(beta_sub, index, data.p + 1),
        "DS-P-BR",
    )
