"""Convex solvers and regression machinery for the nuisance working models.

Two fitters carry the method itself:

* :func:`fit_calibration_lasso` minimises the inverse-propensity calibration
  loss ``(1/n) sum_i [A_i exp(-g.z_i) + (1-A_i) g.z_i] + lam * ||g||_1`` whose
  stationarity conditions are the weighted covariate-balancing equations
  ``(1/n) sum_i {1 - A_i / pi(z_i; g)} z_i + lam * subgrad = 0``.
* :func:`fit_weighted_outcome_lasso` minimises the inverse-odds-weighted
  squared loss ``(1/2W) sum_i [w_i A_i (y_i - b.z_i)^2] + lam * ||b||_1`` with
  ``w_i = (1 - pi_i) / pi_i`` and ``W = sum_i w_i A_i`` the weight total.

Around them sit the standard fitters used by the comparator estimators
(logistic MLE, OLS, plain lasso variants, post-selection refits, the
ridge-stabilised double-selection system) and the default penalty formulas.
Every fitter returns a :class:`Coefficients` (``fit_br_refit`` a
:class:`NuisanceFit` holding two of them).

One driver, :func:`_fit`, runs every iterative fit (the lassos at
``lam > 0``, the logistic MLE and the ridge solve of :func:`fit_br_refit`):
it standardizes, runs the one engine, damped Newton with orthant-wise steps
under an l1 penalty (:func:`_newton`), on a working set of columns grown by
the KKT re-check of Tibshirani et al. (2012) without their strong rule, and
maps the result back. :func:`_newton`'s only other caller is the
intercept-free one-coefficient slope fit of
:func:`pbrdr.bias_surface._reference_slope`. The unpenalized squared losses
(OLS, the post-selection outcome refits and the bias-reduced outcome
equations) share one weighted least-squares solve, :func:`_least_squares`.

Conventions shared by every fitter:

* designs carry a leading intercept column; coordinate 0, the intercept, is
  the only unpenalized coordinate of every penalised fit;
* every fitter solves on :meth:`Dataset.standardized`, the covariates at
  unit sample standard deviation as in glmnet, and maps the coefficients
  back, so no estimate depends on the units of ``x``; the ``lam * ||.||_1``
  penalties (and the ridge term of :func:`fit_br_refit`) and the reported
  KKT residuals live on that scale, the scale of the problem solved;
* the fitters and Newton read the tolerance ``DEFAULT_TOL`` and the one
  iteration budget ``DEFAULT_NEWTON_ITER`` at call time; a fit's budget is
  shared by all its passes, and its ``n_iter`` is their total; a spent
  budget raises :class:`NonConvergence`, never a partial result;
* all score/KKT residuals are on the mean scale, i.e. ``(1/n) sum_i ...``;
* a loss closure keeps the per-unit weights of the point it evaluated last,
  and its ``.hess`` builds the Hessian from them when called on that same
  array object (Newton's accepted iterate), so each iterate is evaluated once;
* solvers are pure functions of their inputs: no internal randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Callable, Iterable

import numpy as np

from .dataset import Dataset
from .errors import (
    DegenerateData,
    DegenerateWeights,
    NonConvergence,
    NumericalRange,
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

    @property
    def active_set(self) -> tuple[int, ...]:
        return tuple(int(j) + 1 for j in self.coef[1:].nonzero()[0])


@dataclass
class NuisanceFit:
    """A paired propensity/outcome fit."""

    gamma: Coefficients
    beta: Coefficients

    def __post_init__(self) -> None:
        if self.gamma.coef.shape != self.beta.coef.shape:
            raise ValueError("propensity and outcome coefficient vectors must have equal length")


# ---------------------------------------------------------------------------
# penalty formulas
# ---------------------------------------------------------------------------


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
    lam_gamma = 1.1 / (2.0 * math.sqrt(n)) * NormalDist().inv_cdf(tail)
    return lam_gamma, 2.0 * lam_gamma


# ---------------------------------------------------------------------------
# shared numerical helpers
# ---------------------------------------------------------------------------


def expit(v, out=None):
    """Logistic function ``1 / (1 + exp(-v))``, elementwise.

    The formula scipy's ``expit`` uses; below about -709 ``exp(-v)``
    overflows to inf and the result is exactly 0, so that overflow is
    expected and silenced.

    As with a numpy ufunc, ``out`` is an array to write the result into (it
    may be ``v`` itself) and is returned. Without it the result is one new
    array: the negation allocates it and every later step runs in place, with
    the bits of the plain formula.
    """
    with np.errstate(over="ignore"):
        out = np.negative(v, out=out, dtype=float)
        if not isinstance(out, np.ndarray):  # a scalar ``v``
            return 1.0 / (1.0 + np.exp(out))
        np.exp(out, out=out)
        np.add(out, 1.0, out=out)
        return np.divide(1.0, out, out=out)


def _scale_exponent(v: np.ndarray) -> int:
    """The power ``k`` that brings ``max|v|`` near 1 when it lies outside
    ``[2^-500, 2^500]``, else 0. Scaling by ``2^-k`` is exact in binary, so a
    fit on ``v * 2^-k`` mapped back by ``2^k`` is the same problem, squares in range."""
    big = float(np.max(np.abs(v), initial=0.0))
    return 0 if big == 0.0 or 2.0**-500 <= big <= 2.0**500 else math.frexp(big)[1]


def _ldexp(v, k: int):
    """``v * 2^k`` for a float or an array; a result past the float range
    raises :class:`NumericalRange`, where ``math.ldexp`` would raise a bare
    ``OverflowError`` and ``np.ldexp`` return inf."""
    if k == 0:
        return v
    with np.errstate(over="raise"):
        try:
            out = np.ldexp(v, k)
        except FloatingPointError:
            raise NumericalRange(f"a value times 2^{k} leaves the float range") from None
    return out if isinstance(v, np.ndarray) else float(out)


def _iterate_norm(x: np.ndarray) -> float:
    """Euclidean norm of an iterate, for the divergence guards. A diverging
    iterate can overflow the sum of squares; the norm is then inf, which is
    over every guard, so that overflow is expected and silenced."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(x))


def _back_transform(coef: np.ndarray, scales: np.ndarray) -> np.ndarray:
    out = coef.copy()
    out[1:] /= scales
    return out


def _embed(fit: Coefficients, index: list[int], dim: int) -> Coefficients:
    """A fit on the design columns ``index`` as a zero-padded length-``dim`` fit."""
    coef = np.zeros(dim)
    coef[index] = fit.coef
    return replace(fit, coef=coef)


def _min_norm_subgradient(grad: np.ndarray, coef: np.ndarray, lam: float) -> np.ndarray:
    """Minimum-norm subgradient of the smooth part plus ``lam * ||coef[1:]||_1``:
    the score at the intercept (coordinate 0), plus ``lam * sign`` at nonzero
    coordinates and soft-thresholded by ``lam`` at zero ones. It vanishes
    exactly at a minimum; its sup-norm is the KKT residual of every fit."""
    sub = grad.copy()
    g, c = grad[1:], coef[1:]
    sub[1:] = np.where(c != 0.0, g + lam * np.sign(c), np.sign(g) * np.maximum(np.abs(g) - lam, 0.0))
    return sub


def _l1(v: np.ndarray, lam: float) -> float:
    """The penalty ``lam * ||v[1:]||_1``; exactly 0 without one."""
    return lam * float(np.abs(v[1:]).sum()) if lam else 0.0


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
    return coef, int(rank), float(np.abs(resid).max()) / z.shape[0]


# ---------------------------------------------------------------------------
# damped Newton engine (convex problems with a Hessian, plus an optional l1)
# ---------------------------------------------------------------------------


def _newton(
    value_grad, x0, divergence_error=None, norm_guard=NORM_GUARD, lam=0.0, tol=None, max_iter=None
):
    """Damped Newton with backtracking for a smooth convex part plus
    ``lam * ||x[1:]||_1``. ``value_grad(x)`` returns the smooth part's value
    and gradient on the mean scale (gradient None where the value is not
    finite); the closure carries its Hessian as ``value_grad.hess(x)``,
    evaluated at accepted iterates only. An accepted iterate is the array
    ``value_grad`` saw last, never changed in place, so the Hessian is built
    from the weights that evaluation kept. Stops at the KKT residual ``tol``
    (``DEFAULT_TOL``) within ``max_iter`` iterations (``DEFAULT_NEWTON_ITER``);
    with a ``divergence_error``, an iterate norm above ``norm_guard`` raises
    it. Returns (x, residual, iterations).

    At ``lam == 0`` the subgradient is the gradient, and each step is the
    plain Newton step, one solve on the full Hessian.
    At ``lam > 0`` it is the orthant-wise step of Andrew & Gao (2007), exact
    for a quadratic on a fixed sign pattern: the system holds the intercept
    and each nonzero or KKT-violating coordinate, its diagonal raised by 1e-6
    of its mean (a set larger than the weighted rows is singular); a zero
    coordinate moves only along its descent sign, one that would cross zero
    stops there, and the sufficient-decrease test is on the composite
    objective, with 16 ulps of slack for its rounding. The step halves from
    1, but the longest step that takes no coordinate across zero is tried
    before any shorter one.

    After each accepted step, a proof of no minimum that a closure may carry,
    ``value_grad.certify(d, lam)``, is tried on two directions, ``d = x - x0``
    and then the step itself, and raises :class:`UnboundedObjective`.
    """
    tol = DEFAULT_TOL if tol is None else tol
    max_iter = DEFAULT_NEWTON_ITER if max_iter is None else max_iter
    hess, certify = value_grad.hess, getattr(value_grad, "certify", None)
    x_start = x = np.array(x0, dtype=float)
    f, g = value_grad(x)
    if not np.isfinite(f):
        raise NumericalRange("objective is not finite at the starting point")
    big_f = f + _l1(x, lam)
    for it in range(max_iter + 1):
        sub = _min_norm_subgradient(g, x, lam) if lam else g
        res = float(np.abs(sub).max())
        if res <= tol:
            return x, res, it
        if it == max_iter:
            raise NonConvergence(
                f"Newton hit max_iter={max_iter} with residual {res:.3e} > tol {tol:.1e}"
            )
        h, free = hess(x), slice(None)
        if lam:
            free = ((x != 0.0) | (sub != 0.0) | (np.arange(x.size) == 0)).nonzero()[0]
            h = h[np.ix_(free, free)]
            h[np.diag_indices(free.size)] += 1e-6 * float(np.diag(h).sum()) / free.size
        try:
            moved = np.linalg.solve(h, -sub[free])
        except np.linalg.LinAlgError as exc:
            raise RankDeficient("singular Hessian in Newton solve") from exc
        direction, first = moved, math.inf
        if lam:
            direction = np.zeros_like(x)
            direction[free] = moved
            direction[1:][(x[1:] == 0.0) & (direction[1:] * sub[1:] > 0.0)] = 0.0
            # Below ``first`` the move is along the descent direction itself;
            # halving past it instead, a coordinate pushed across zero only
            # approaches zero, by ever shorter steps, and the search stalls.
            cross = (x[1:] * direction[1:] < 0.0).nonzero()[0] + 1
            first = float((-x[cross] / direction[cross]).min(initial=math.inf))
        slack = 16.0 * np.finfo(float).eps * (1.0 + abs(big_f))
        step = 1.0
        while True:
            x_new = x + step * direction
            if lam:
                x_new[1:][(x_new[1:] * x[1:] < 0.0) | (np.abs(x_new[1:]) < ZERO_SNAP)] = 0.0
                bound = big_f + 1e-4 * float(sub @ (x_new - x)) + slack
            else:
                bound = big_f + 1e-4 * step * float(sub @ direction)
            f_new, g_new = value_grad(x_new)
            big_f_new = f_new + _l1(x_new, lam)
            if np.isfinite(f_new) and big_f_new <= bound:
                break
            step = first if step > first > 0.5 * step else 0.5 * step
            if step < 1e-16:
                raise NonConvergence("Newton line search stalled")
        if certify is not None:
            certify(x_new - x_start, lam)
            certify(x_new - x, lam)
        x, g, big_f = x_new, g_new, big_f_new
        if divergence_error is not None and _iterate_norm(x) > norm_guard:
            raise divergence_error


# ---------------------------------------------------------------------------
# fitting driver (every iterative fit runs through it)
# ---------------------------------------------------------------------------


def _fit(loss, data, x0, lam, diverged=None, norm_guard=NORM_GUARD, floor=None):
    """Minimise ``loss`` plus ``lam * ||x[1:]||_1`` on the standardized design
    of ``data`` from ``x0``, on that scale; return the fit on the original one.

    ``loss(z)`` builds the closure :func:`_newton` takes on the design columns
    ``z``, with the per-unit score of ``u = z @ x`` as ``.residual``;
    ``diverged`` and ``norm_guard`` are Newton's divergence guard. Each pass
    solves on a working set of columns, at first the intercept and the
    nonzero coordinates of ``x0`` (every column at ``lam == 0``). The other
    coordinates are then checked against the full gradient
    ``z' residual(u) / n``: the KKT residual is the larger of the pass's and
    their excess of ``|grad_j|`` over ``lam``. Above ``floor``
    (``DEFAULT_TOL``) every coordinate with an excess joins, and the next
    pass goes to a tenth of the largest excess, never below ``floor``, so a
    pass on a set that will still grow stays cheap (Massias, Gramfort &
    Salmon 2018). All passes share one ``DEFAULT_NEWTON_ITER`` budget, and
    ``n_iter`` is their total.
    """
    z, scales = data.standardized()
    x = np.array(x0, dtype=float)
    working = (x != 0.0) | (lam == 0.0)
    working[0] = True
    tol = floor = DEFAULT_TOL if floor is None else floor
    used, budget = 0, DEFAULT_NEWTON_ITER
    while True:
        idx = working.nonzero()[0]
        full = idx.size == x.size
        # ``z[:, idx]`` is a Fortran-ordered copy, on which BLAS rounds differently.
        z_w = z if full else z[:, idx]
        value_grad = loss(z_w)
        try:
            x[idx], kkt, done = _newton(value_grad, x[idx], diverged, norm_guard, lam, tol, budget - used)
        except NonConvergence as exc:
            raise NonConvergence(
                f"{exc} on a working set of {idx.size} of {x.size} coordinates "
                f"(budget {budget} shared by all passes)"
            ) from None
        used += done
        outside = 0.0
        if not full:
            # Working-set coordinates keep the pass's own residual: at large
            # outcome scales the rounding of the two products with ``z`` alone
            # can exceed the floor, and no further iteration would then lower it.
            grad = z.T @ value_grad.residual(z_w @ x[idx]) / data.n
            excess = np.where(working, 0.0, np.abs(grad) - lam)
            outside = float(excess.max())
            working |= excess > 0.0
        kkt = max(kkt, outside)
        if kkt <= floor:
            return Coefficients(_back_transform(x, scales), lam, kkt, used)
        tol = max(floor, 0.1 * outside)


# ---------------------------------------------------------------------------
# smooth objective closures
# ---------------------------------------------------------------------------


def _calibration_value_grad(z: np.ndarray, a: np.ndarray) -> Callable:
    """Mean-scale value/gradient of ``(1/n) sum_i [A_i exp(-u_i) + (1-A_i) u_i]``.

    The gradient equals the calibration score ``(1/n) sum_i {1 - A_i/pi_i} z_i``;
    the returned callable carries the Hessian callable as ``.hess`` and the
    per-unit score ``1 - A_i/pi_i`` as a function of ``u = z @ coef`` as
    ``.residual``, so ``z' residual(u) / n`` is the gradient on any design.

    It also carries, as ``.certify(d, lam)``, a proof for :func:`_newton` that
    the loss plus ``lam * ||g[1:]||_1`` has no minimum, on any design. Every
    treated row must have ``z_t.d >= 0``: on a design whose first column is
    ones ``d[0]`` is raised in place until it does, on any other the
    direction must have it as given. If then ``c.d + lam * ||d[1:]||_1 < 0``,
    with ``c = (1/n) sum_controls z_c``, the loss falls without end along
    ``d`` (no treated reweighting balances the controls to within ``lam``;
    Zhao 2019), and it raises :class:`UnboundedObjective` naming
    ``lambda_d = -c.d / ||d[1:]||_1`` (inf where ``d[1:]`` is zero). Both
    tests allow for their rounding, so a reported direction holds in exact
    arithmetic.
    """
    n = z.shape[0]
    treated = a == 1.0
    z_t = z[treated]
    z_c_sum = z[~treated].sum(axis=0)
    z_max = float(np.abs(z).max())
    intercept = bool(np.all(z[:, 0] == 1.0))

    def residual(u: np.ndarray) -> np.ndarray:
        r = 1.0 - a
        r[treated] = -np.exp(-u[treated])
        return r

    last = [None, None]  # the point evaluated last and its weights exp(-u_t)

    def value_grad(coef: np.ndarray):
        u = z @ coef
        # Far along a direction with no minimum the weights, or only their
        # products with z_t, overflow; the line search rejects such a point.
        with np.errstate(over="ignore"):
            e_t = np.exp(-u[treated])
            last[:] = coef, e_t
            val = (float(e_t.sum()) + float(u[~treated].sum())) / n
            if not np.isfinite(val):
                return val, None
            grad = (z_c_sum - z_t.T @ e_t) / n
        return val, grad

    def hess(coef: np.ndarray) -> np.ndarray:
        e_t = last[1] if last[0] is coef else np.exp(-(z @ coef)[treated])
        return (z_t * e_t[:, None]).T @ z_t / n

    def certify(d: np.ndarray, lam: float) -> None:
        # Each product's rounding is below ulps * z_max * ||d||_1.
        ulps = (n + 2 * d.size + 16) * np.finfo(float).eps
        slack = ulps * z_max * float(np.abs(d).sum())
        least = float(np.min(z_t @ d))
        if intercept:
            d[0] += slack - min(least, 0.0)
        elif least < slack:
            return
        l1 = float(np.abs(d[1:]).sum())
        lead = float(z_c_sum @ d) / n
        if lead + lam * l1 < -ulps * (z_max * float(np.abs(d).sum()) + lam * l1):
            raise UnboundedObjective(
                f"the objective has no minimum: it falls without end along a direction "
                f"with lambda_d = {-lead / l1 if l1 else math.inf:.6g} > lambda = {lam:.6g} (no treated "
                "reweighting balances the controls to within lambda)"
            )

    value_grad.hess = hess
    value_grad.residual = residual
    value_grad.certify = certify
    return value_grad


def _logistic_value_grad(z: np.ndarray, a: np.ndarray) -> Callable:
    """Mean-scale negative log-likelihood of the logistic model and its gradient
    (Hessian callable as ``.hess``, per-unit score ``pi_i - A_i`` of
    ``u = z @ coef`` as ``.residual``)."""
    n = z.shape[0]

    def residual(u: np.ndarray) -> np.ndarray:
        return expit(u) - a

    last = [None, None]  # the point evaluated last and its propensities

    def value_grad(coef: np.ndarray):
        u = z @ coef
        val = float((np.logaddexp(0.0, u) - a * u).sum()) / n
        if not np.isfinite(val):
            return val, None
        pi = expit(u)
        last[:] = coef, pi
        return val, z.T @ (pi - a) / n

    def hess(coef: np.ndarray) -> np.ndarray:
        pi = last[1] if last[0] is coef else expit(z @ coef)
        return (z * (pi * (1.0 - pi))[:, None]).T @ z / n

    value_grad.hess = hess
    value_grad.residual = residual
    return value_grad


def _squared_value_grad(z: np.ndarray, w: np.ndarray, y: np.ndarray) -> Callable:
    """Mean-scale weighted squared loss ``(1/2n) sum_i w_i (y_i - u_i)^2``,
    less its constant term, and its gradient, both from the Gram matrix
    ``z'Wz / n`` built once, so an evaluation costs O(p^2), not O(n p)
    (Hessian callable as ``.hess``, per-unit residual ``w_i (u_i - y_i)`` of
    ``u = z @ coef`` as ``.residual``)."""
    n = z.shape[0]
    gram = (z * w[:, None]).T @ z / n
    lin = z.T @ (w * y) / n

    def residual(u: np.ndarray) -> np.ndarray:
        return w * (u - y)

    def value_grad(coef: np.ndarray):
        gb = gram @ coef
        return 0.5 * float(coef @ gb) - float(lin @ coef), gb - lin

    value_grad.hess = lambda coef: gram
    value_grad.residual = residual
    return value_grad


# ---------------------------------------------------------------------------
# public fitters
# ---------------------------------------------------------------------------


def _require_both_arms(data: Dataset) -> None:
    n_t = data.n_treated
    if n_t == 0 or n_t == data.n:
        raise DegenerateData("all treatment values are equal; the propensity model is not identified")


def _fit_propensity_lasso(loss: Callable, data: Dataset, lam: float) -> Coefficients:
    """:func:`_fit` of ``loss(z, a)`` plus ``lam * ||g||_1``, started at the
    intercept-only logit of the treated fraction. An iterate norm above
    ``NORM_GUARD`` raises :class:`UnboundedObjective` (e.g. separable
    treatment at ``lam == 0``).
    """
    if not lam >= 0:
        raise ValueError("lambda must be nonnegative")
    _require_both_arms(data)  # also rejects fewer than two units
    x0 = np.zeros(data.p + 1)
    abar = data.a.mean()
    x0[0] = math.log(abar / (1.0 - abar))
    diverged = UnboundedObjective(
        "iterate norm exceeded the divergence guard: no minimum (e.g. separable treatment at lambda = 0)"
    )
    return _fit(lambda z: loss(z, data.a), data, x0, lam, diverged=diverged)


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


def _weighted_lasso(data: Dataset, weights: np.ndarray, lam: float) -> Coefficients:
    """Shared core: minimise ``(1/2n) sum_i W_i (y_i - b.z_i)^2 + lam ||b||_1``.

    ``n`` is the full number of rows regardless of how many carry weight, so a
    treated-only fit is the ``W_i = A_i`` specialization of the weighted one.
    With ``lam == 0`` the (possibly rank-deficient) problem takes the
    minimum-norm solution of :func:`_least_squares`, the solve :func:`fit_ols`
    also uses; its normal-equation residual, on the 1/n mean scale, must be
    within ``DEFAULT_TOL`` relative to ``max|z'Wy| / n``. Otherwise
    :func:`_fit` minimises :func:`_squared_value_grad` on each working set's
    Gram matrix only, so a pass costs O(n p) plus the working set's, never
    O(n p^2). An outcome outside ``[2^-500, 2^500]`` in size is fit as
    ``y * 2^-k`` at ``lam * 2^-k`` (:func:`_scale_exponent`); the coefficients
    and the KKT residual are mapped back by ``2^k``; where ``lam * 2^-k`` or a
    mapped-back value leaves the float range, :class:`NumericalRange` is raised.
    """
    n = data.n
    z, scales = data.standardized()
    k = _scale_exponent(data.y)
    y = _ldexp(data.y, -k)
    lin = z.T @ (weights * y) / n
    if lam == 0.0:
        coef, _, kkt = _least_squares(z, weights, y)
        coef[np.abs(coef) < ZERO_SNAP] = 0.0
        # Relative to the size of the right-hand side: the attainable residual
        # scales with the units of y.
        if kkt > DEFAULT_TOL * max(1.0, float(np.max(np.abs(lin)))):
            raise NonConvergence(
                f"normal equations could not be solved to tolerance (residual {kkt:.3e})"
            )
        return Coefficients(_ldexp(_back_transform(coef, scales), k), 0.0, _ldexp(kkt, k), 1)
    x0 = np.zeros(data.p + 1)
    weight_mean = float(weights.sum()) / n
    if weight_mean > 0.0:
        x0[0] = lin[0] / weight_mean
    # Below 64 ulps of max|lin| the residual is float noise in the units of y.
    floor = max(DEFAULT_TOL, 64.0 * np.finfo(float).eps * float(np.max(np.abs(lin))))
    fit = _fit(lambda z_w: _squared_value_grad(z_w, weights, y), data, x0, _ldexp(lam, -k), floor=floor)
    return Coefficients(_ldexp(fit.coef, k), lam, _ldexp(fit.kkt_residual, k), fit.n_iter)


def fit_weighted_outcome_lasso(
    data: Dataset, gamma_hat: Coefficients, lambda_beta: float
) -> Coefficients:
    """Fit the outcome model by inverse-odds-weighted l1-penalised least squares.

    The weights ``w_i = (1 - pi_i)/pi_i`` come from the supplied propensity
    fit; only treated units enter the quadratic term. The loss is normalized
    by the weight total ``W = sum_i w_i A_i``, as weighted-lasso software
    fitting the treated subsample does, so the problem solved on the mean
    scale is ``(1/2n) sum_i w_i A_i (y_i - b.z_i)^2 + lam * ||b||_1`` with
    ``lam = lambda_beta * W / n``; the result reports that ``lam``, the level of
    its weighted-score equation
    ``(1/n) sum_i w_i A_i (y_i - b.z_i) z_i = lam * subgrad``.
    """
    if not lambda_beta >= 0:
        raise ValueError("lambda_beta must be nonnegative")
    if data.n_treated == 0:
        raise DegenerateData("no treated units; the outcome model cannot be fit")
    if not np.all(np.isfinite(gamma_hat.coef)):
        raise ValueError("gamma_hat must be finite")
    u = data.design() @ gamma_hat.coef
    treated = data.a == 1.0
    pi_t = expit(u[treated])
    if np.any(pi_t <= _WEIGHT_DEGENERACY) or np.any(pi_t >= 1.0):
        raise DegenerateWeights(
            "fitted propensities reached 0 or 1 (to floating tolerance) on treated units"
        )
    weights = np.zeros(data.n)
    weights[treated] = np.exp(-u[treated])
    lam = lambda_beta * float(weights[treated].sum()) / data.n
    return _weighted_lasso(data, weights, lam)


def fit_linear_lasso(data: Dataset, lam: float) -> Coefficients:
    """Plain (unweighted) l1-penalised least squares on the treated subsample.

    Unit weights: the objective is ``(1/2n) sum_i A_i (y_i - b.z_i)^2 + lam ||b||_1``
    with ``n`` the full number of rows.
    """
    if not lam >= 0:
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
    # Logistic coefficients of norm ~100 on the standardized scale put every
    # fitted probability at 0/1 within float resolution: separation, even if
    # the score tolerance is met by underflow.
    separated = Separation("coefficient norm diverged; data appear perfectly separated")
    try:
        return _fit(
            lambda z: _logistic_value_grad(z, data.a), data, np.zeros(data.p + 1), 0.0,
            diverged=separated, norm_guard=100.0,
        )
    except Separation:
        # A collinear design diverges along its null space too; name that cause.
        if np.linalg.matrix_rank(data.standardized()[0]) <= data.p:
            raise RankDeficient("design is rank deficient; the logistic MLE is not identified") from None
        raise


def fit_ols(data: Dataset) -> Coefficients:
    """Ordinary least squares on the treated subsample.

    The design must have full column rank on the treated units. The fit is
    :func:`_least_squares` on the standardized design with unit treated
    weights, the solve the ``lam == 0`` outcome fits share; ``kkt_residual``
    is its residual orthogonality ``max|(1/n) sum_i A_i r_i z_i|`` on that
    design, on the 1/n mean scale of every fitter.
    """
    m = data.n_treated
    if m == 0:
        raise DegenerateData("no treated units; OLS cannot be fit")
    if m <= data.p:
        raise RankDeficient(f"subsample size {m} cannot support {data.p + 1} coefficients")
    z, scales = data.standardized()
    k = _scale_exponent(data.y)  # as in :func:`_weighted_lasso`
    coef, rank, kkt = _least_squares(z, data.a, _ldexp(data.y, -k))
    if rank < data.p + 1:
        raise RankDeficient("design matrix is rank deficient on the fitting subsample")
    return Coefficients(_ldexp(_back_transform(coef, scales), k), 0.0, _ldexp(kkt, k), 1)


def post_lasso_refit(data: Dataset, active_union: Iterable[int], which: str) -> Coefficients:
    """Refit an unpenalized model on the selected covariates only.

    ``active_union`` holds coefficient positions ``1..p``; excluded
    coefficients are exactly zero in the returned vector. ``which`` selects
    the propensity refit (logistic MLE) or the outcome refit (OLS on the
    treated subsample).
    """
    if which not in ("propensity", "outcome"):
        raise ValueError("which must be 'propensity' or 'outcome'")
    selected, sub = data.restrict(active_union, "active_union")
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
    ``lambda_ridge * ||g||_2^2``. The outcome coefficients are then
    :func:`fit_weighted_outcome_lasso` at zero penalty on the same columns.
    """
    if not 0 < lambda_ridge < math.inf:
        raise ValueError("lambda_ridge must be positive")
    selected, sub = data.restrict(selected, "selected")
    ridge = np.zeros(sub.p + 1)
    ridge[1:] = 2.0 * lambda_ridge

    def ridged(z: np.ndarray, a: np.ndarray) -> Callable:
        loss = _calibration_value_grad(z, a)

        def value_grad(coef: np.ndarray):
            val, grad = loss(coef)
            val += 0.5 * float(ridge @ coef**2)
            return val, None if grad is None else grad + ridge * coef

        value_grad.hess = lambda coef: loss.hess(coef) + np.diag(ridge)
        return value_grad

    gamma_sub = replace(_fit_propensity_lasso(ridged, sub, 0.0), lam=lambda_ridge)
    beta_sub = fit_weighted_outcome_lasso(sub, gamma_sub, 0.0)
    index = [0] + selected
    return NuisanceFit(_embed(gamma_sub, index, data.p + 1), _embed(beta_sub, index, data.p + 1))
