"""Large-sample bias surfaces of the DR estimator under gross misspecification.

A one-covariate design with ``X = 3 - V`` (``V`` a unit-scale, unit-shape
Gamma variate, so ``SD(3 - V) = 1`` analytically), treatment probability
``expit(-1 + X^2)``, and outcome law ``N(X^2, 1)`` (variant ``fig1``) or
``N(X^3 - X^2, 1)`` (variant ``fig2``).

The working models here are the one-dimensional scalar models
``pi(x; g) = expit(g * x)`` and ``m(x; b) = b * x`` (no intercepts), so the
surface axes are the two scalar nuisance parameters themselves. Both models
are grossly misspecified. The DR plug-in is evaluated on a single large
sample (by default n = 10^5), then rescaled as ``sign(bias) * sqrt(|bias|)``.

The cells are finite-sample values, not approximations of a limit. The
inverse weight ``exp(-g X)`` has infinite variance for ``0.5 <= g < 1``, so
a cell there varies widely from seed to seed; for ``g >= 1`` the population
bias is infinite, yet the sample prints a finite value until the positivity
guard trips (from a seed-dependent slope, about 1.3 to 1.9 at n = 10^5).
The acceptance criteria on the reference points likewise gate n = 10^5
quantities.

Reference biases accompany the surface:

* ``BR``: the bias-reduced solution, where ``g`` solves the scalar
  calibration equation ``sum_i {1 - A_i/pi_i} x_i = 0`` and ``b`` the
  inverse-odds-weighted score ``sum_i w_i A_i (y_i - b x_i) x_i = 0``;
* ``MLE-DR``: the DR plug-in at the scalar logistic MLE and the
  through-origin least-squares fit on treated units;
* ``IPW``: the unnormalized inverse-probability estimator at the MLE;
* ``IMP``: the imputation estimator ``(1/n) sum_i [A_i y_i + (1-A_i) b x_i]``
  with ``b`` solving ``sum_i A_i (y_i - b x_i) = 0``.

The BR and MLE propensity slopes are fitted on the one-column design by the
loss closures and Newton engine of :mod:`solvers`, to its ``DEFAULT_TOL``.
A sample whose BR slope has no minimum (e.g. every treated ``x`` positive and
the controls' ``x`` summing below zero, which small samples draw) raises
:class:`UnboundedObjective` from the calibration loss's certificate, and the
CLI exits 3.

The inverse-weighting references are dominated by the deepest tail units
(the underlying bias integral diverges), so their single-sample values vary
widely across seeds; the bias-reduced and imputation references are stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DegenerateData, UnboundedObjective
from .estimators import POSITIVITY_THRESHOLD
from .solvers import _calibration_value_grad, _logistic_value_grad, _newton, expit

REFERENCE_TAGS = ("BR", "MLE-DR", "IPW", "IMP")

VARIANTS = ("fig1", "fig2")


@dataclass
class SurfaceDgp:
    """Which outcome law to use, the evaluation sample size, and the seed."""

    variant: str
    n_large: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.n_large < 2:
            raise ConfigError("n_large must be at least 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")


@dataclass
class SurfaceGrid:
    """Rescaled-bias surface over the two scalar slope grids plus reference points.

    ``rescaled_bias[i, j]`` corresponds to ``gamma_slopes[i]``,
    ``beta_slopes[j]``; entries are ``sign(b) * sqrt(|b|)`` of the raw bias
    ``b`` (NaN where the positivity guard tripped). ``reference_biases``
    holds raw (unrescaled) biases; ``br_point`` is the bias-reduced
    ``(gamma, beta)`` pair.
    """

    gamma_slopes: np.ndarray
    beta_slopes: np.ndarray
    rescaled_bias: np.ndarray = field(repr=False)
    br_point: Tuple[float, float]
    reference_biases: Dict[str, float]


def rescale_bias(b):
    """Signed square-root compression: ``sign(b) * sqrt(|b|)`` (monotone, sign-preserving)."""
    b = np.asarray(b, dtype=float)
    out = np.sign(b) * np.sqrt(np.abs(b))
    return float(out) if out.ndim == 0 else out


def _outcome_mean(x: np.ndarray, variant: str) -> np.ndarray:
    # products, not ``x**3``: numpy's ``pow`` costs ~5x a multiply per value
    x2 = x * x
    return x2 if variant == "fig1" else x2 * x - x2


def surface_dataset(dgp: SurfaceDgp) -> Dataset:
    """Draw the single large evaluation sample for one variant."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=dgp.seed))
    rng_x, rng_a, rng_y = rng.spawn(3)
    # Gamma(1, 1) is the unit exponential; numpy draws it from the same stream.
    v = rng_x.standard_exponential(dgp.n_large)
    x = 3.0 - v  # SD(V) = 1, so no empirical standardization is needed
    pi = expit(-1.0 + x**2)
    a = (rng_a.random(dgp.n_large) < pi).astype(float)
    y = _outcome_mean(x, dgp.variant) + rng_y.standard_normal(dgp.n_large)
    return Dataset(y, a, x.reshape(-1, 1))


def target_mean(variant: str) -> float:
    """Target mean of the outcome law: the recorded mean of a 10^7-draw Monte
    Carlo oracle on a fixed stream (seed 771100, chunks of 10^6), which the
    surfaces are scored against bit for bit.

    The exact values are E[X^2] = 5 and E[X^3 - X^2] = 7; the tests recompute
    the oracle and check it against those closed forms.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return {"fig1": 4.999044754524995, "fig2": 7.001832095396967}[variant]


def _reference_slope(loss, x: np.ndarray, a: np.ndarray) -> float:
    """Minimiser of a propensity loss from :mod:`solvers` over the slope of the
    intercept-free one-column design ``x[:, None]``."""
    value_grad = loss(x[:, None], a)
    diverged = UnboundedObjective("reference slope fit diverged")
    slope, _, _ = _newton(value_grad, np.zeros(1), diverged)
    return float(slope[0])


def _scalar_dr_bias(x, a, y, g: float, b: float, mu0: float) -> float:
    pi = expit(g * x)
    treated = a == 1.0
    u = b * x
    u[treated] += (y[treated] - b * x[treated]) / pi[treated]
    return float(np.mean(u)) - mu0


def evaluate_surface(dgp: SurfaceDgp, gamma_grid, beta_grid) -> SurfaceGrid:
    """Evaluate the rescaled-bias surface and the reference biases.

    For fixed propensity slope the plug-in mean is affine in the outcome
    slope, so each grid row costs one pass over the treated units, made in
    one buffer that every row refills. A row whose smallest treated
    propensity ``expit(g * x)`` falls below ``POSITIVITY_THRESHOLD`` is
    left NaN; since ``expit`` is monotone, that propensity sits at the
    smallest or largest treated ``x``, and the row is judged from those two
    values before any pass. A sample with an empty arm (no treated or no
    control unit) raises :class:`DegenerateData`, which the CLI reports with
    exit code 3: without controls the calibration loss of the BR reference
    has no minimum.
    """
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    beta_grid = np.asarray(beta_grid, dtype=float)
    if gamma_grid.size == 0 or beta_grid.size == 0:
        raise ConfigError("slope grids must be nonempty")
    if not (np.all(np.isfinite(gamma_grid)) and np.all(np.isfinite(beta_grid))):
        raise ConfigError("slope grids must be finite")

    data = surface_dataset(dgp)
    mu0 = target_mean(dgp.variant)
    x = data.x[:, 0]
    a = data.a
    y = data.y
    n = data.n
    treated = a == 1.0
    if not treated.any() or treated.all():
        arm = "control" if treated.any() else "treated"
        raise DegenerateData(
            f"the surface sample (n_large={dgp.n_large}, seed={dgp.seed}) has no {arm} "
            f"unit; the {arm} arm is empty, so the weights and reference fits are undefined"
        )
    x_t, y_t = x[treated], y[treated]
    x_sum = float(x.sum())
    x_ends = np.array([x_t.min(), x_t.max()])

    raw = np.full((gamma_grid.size, beta_grid.size), np.nan)
    w = np.empty_like(x_t)  # the one treated-sample buffer, refilled by every row
    for i, gs in enumerate(gamma_grid):
        # expit is monotone: the smallest treated propensity is at an end of x_t
        if np.min(expit(gs * x_ends)) < POSITIVITY_THRESHOLD:
            continue  # row marked NaN rather than aborting: weights would explode here
        pi_t = expit(np.multiply(gs, x_t, out=w), out=w)
        inv_pi_t = np.divide(1.0, pi_t, out=w)
        # mean(U) = bs * t1 + t2 as a function of the outcome slope bs.
        t1 = (x_sum - float(x_t @ inv_pi_t)) / n
        t2 = float(y_t @ inv_pi_t) / n
        raw[i, :] = beta_grid * t1 + t2 - mu0

    g_br = _reference_slope(_calibration_value_grad, x, a)
    w_t = np.exp(-g_br * x_t)
    b_br = float((w_t * y_t) @ x_t) / float((w_t * x_t) @ x_t)
    br_point = (g_br, b_br)

    g_mle = _reference_slope(_logistic_value_grad, x, a)
    b_ols = float((a * y) @ x) / float((a * x) @ x)
    pi_mle = expit(g_mle * x)
    ipw = float(np.mean(np.where(treated, y / pi_mle, 0.0)))
    b_imp = float((a * y).sum()) / float((a * x).sum())
    imp = float(np.mean(np.where(treated, y, b_imp * x)))

    references = {
        "BR": _scalar_dr_bias(x, a, y, g_br, b_br, mu0),
        "MLE-DR": _scalar_dr_bias(x, a, y, g_mle, b_ols, mu0),
        "IPW": ipw - mu0,
        "IMP": imp - mu0,
    }
    return SurfaceGrid(gamma_grid, beta_grid, rescale_bias(raw), br_point, references)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def export_surface(grid: SurfaceGrid, path) -> Tuple[Path, Path]:
    """Write the surface as a long-format CSV plus a reference sidecar.

    The main file has header ``gamma_slope,beta_slope,rescaled_bias`` and one
    row per grid cell; the sidecar lists the four reference biases (raw) and
    the bias-reduced slope pair. Returns both paths.
    """
    path = Path(path)
    betas = [f"{bs:.17g}" for bs in grid.beta_slopes.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("gamma_slope,beta_slope,rescaled_bias\n")
        for gs, row in zip(grid.gamma_slopes.tolist(), grid.rescaled_bias.tolist()):
            prefix = f"{gs:.17g},"  # each axis value is formatted once
            fh.write("".join(f"{prefix}{bs},{v:.17g}\n" for bs, v in zip(betas, row)))
    sidecar = path.with_name(path.stem + "_references" + path.suffix)
    with open(sidecar, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("name,value\n")
        for tag in REFERENCE_TAGS:
            fh.write(f"{tag},{grid.reference_biases[tag]:.17g}\n")
        fh.write(f"br_point_gamma,{grid.br_point[0]:.17g}\n")
        fh.write(f"br_point_beta,{grid.br_point[1]:.17g}\n")
    return path, sidecar
