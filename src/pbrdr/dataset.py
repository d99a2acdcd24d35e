"""The (outcome, treatment, covariates) triple that every fit consumes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


def _read_only(source, vector: bool) -> np.ndarray:
    """``source`` as a read-only C-ordered float64 array, copied only when the
    caller could still write to its memory or it is in another order (BLAS
    rounds the fits' products differently on a Fortran-ordered matrix). A
    vector is raveled; a 1-d covariate matrix becomes one column."""
    arr = np.asarray(source, dtype=np.float64)
    if vector and arr.ndim != 1:
        arr = arr.ravel()
    elif not vector and arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.flags.writeable and isinstance(source, np.ndarray) and np.may_share_memory(arr, source):
        arr = arr.copy()
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _columns(arr: np.ndarray, index: list[int]) -> np.ndarray:
    """Read-only ``arr.take(index, axis=-1)``: C-ordered, unlike ``arr[:, index]``."""
    out = arr.take(index, axis=-1)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """Analysis units: outcome vector ``y``, binary treatment ``a``, covariate matrix ``x``.

    ``a`` must contain only 0/1 values. Covariates may be empty (``p == 0``),
    in which case every model is intercept-only. All entries must be finite.
    Propensity-model fitters additionally require both treatment arms to be
    present; that is checked by the fitters, not here, so that estimators
    which are well defined on a single arm (e.g. an all-treated inverse
    weighting example) still work.

    A dataset is immutable: its fields cannot be rebound and ``y``, ``a`` and
    ``x`` are read-only arrays. ``_cache`` holds arrays derived from ``x``
    alone (:meth:`design` and :meth:`standardized`, the only scale the
    fitters solve on), built once, shared with the recoded dataset from
    :meth:`swap_treatment` and cut for :meth:`restrict`; no other module touches it.
    """

    y: np.ndarray
    a: np.ndarray
    x: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        y = _read_only(self.y, vector=True)
        a = _read_only(self.a, vector=True)
        x = _read_only(self.x, vector=False)
        n = y.shape[0]
        if a.shape[0] != n or x.shape[0] != n:
            raise ValueError(
                f"inconsistent lengths: y has {n}, a has {a.shape[0]}, x has {x.shape[0]} rows"
            )
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise ValueError("y and x must contain only finite values")
        if not np.all((a == 0.0) | (a == 1.0)):
            raise ValueError("treatment vector must contain only 0/1 values")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def n_treated(self) -> int:
        return int(np.sum(self.a == 1.0))

    def design(self) -> np.ndarray:
        """Return the read-only (n, p+1) design matrix with a leading intercept
        column; it is built on the first call and the same array returned after."""
        z = self._cache.get("design")
        if z is None:
            z = np.hstack([np.ones((self.n, 1)), self.x])
            z.flags.writeable = False
            self._cache["design"] = z
        return z

    def standardized(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the read-only design with its covariates scaled to unit
        sample SD (ddof=1; a constant column keeps scale 1), and the scales;
        both are built on the first call and the same arrays returned after.

        ``np.std`` squares the deviations, which under- or overflow at extreme
        covariate units; a column whose SD comes out beyond ``2**±500`` (or
        not finite) has it recomputed on the column times a power of two
        that brings its largest entry near 1, a scaling that is exact."""
        cached = self._cache.get("standardized")
        if cached is None:
            with np.errstate(over="ignore", invalid="ignore"):
                scales = np.std(self.x, axis=0, ddof=1) if self.n > 1 else np.ones(self.p)
            odd = ~((scales >= 2.0**-500) & (scales <= 2.0**500))
            if odd.any():
                cols = self.x.take(np.flatnonzero(odd), axis=1)
                exponent = np.frexp(np.max(np.abs(cols), axis=0))[1]
                scales[odd] = np.ldexp(np.std(np.ldexp(cols, -exponent), axis=0, ddof=1), exponent)
            scales = np.where(scales > 0.0, scales, 1.0)
            z = np.empty((self.n, self.p + 1))
            z[:, 0] = 1.0
            np.divide(self.x, scales, out=z[:, 1:])
            z.flags.writeable = False
            scales.flags.writeable = False
            cached = self._cache["standardized"] = (z, scales)
        return cached

    def restrict(self, positions: Iterable[int], name: str) -> tuple[list[int], "Dataset"]:
        """The sorted distinct coefficient positions ``1..p`` in ``positions``
        (``name`` labels the range error) and the dataset of their covariates.
        It shares ``y`` and ``a``; its design, standardized design and scales
        are this dataset's cut to those columns, so a refit solves on the
        scale of the lasso that selected them. Its arrays are this dataset's,
        already checked, so it is built without the constructor's checks."""
        selected = sorted(set(int(j) for j in positions))
        if any(j < 1 or j > self.p for j in selected):
            raise ValueError(f"{name} entries must lie in 1..{self.p}")
        covariates = [j - 1 for j in selected]
        z, scales = self.standardized()
        sub = object.__new__(Dataset)
        sub.__dict__.update(y=self.y, a=self.a, x=_columns(self.x, covariates), _cache={
            "design": _columns(self.design(), [0] + selected),
            "standardized": (_columns(z, [0] + selected), _columns(scales, covariates)),
        })
        return selected, sub

    def swap_treatment(self) -> "Dataset":
        """Recode the treatment (0 <-> 1), used for the second counterfactual arm.

        ``y``, ``x`` and the cached designs are shared with this dataset, not copied.
        """
        swapped = Dataset(self.y, 1.0 - self.a, self.x)
        object.__setattr__(swapped, "_cache", self._cache)
        return swapped
