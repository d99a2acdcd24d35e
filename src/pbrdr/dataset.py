"""The (outcome, treatment, covariates) triple that every fit consumes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _read_only(source, vector: bool) -> np.ndarray:
    """``source`` as a read-only float64 array, copied only when the caller could
    still write to its memory. A vector is raveled; a 1-d covariate matrix
    becomes one column."""
    arr = np.asarray(source, dtype=np.float64)
    if vector and arr.ndim != 1:
        arr = arr.ravel()
    elif not vector and arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.flags.writeable:
        if isinstance(source, np.ndarray) and np.may_share_memory(arr, source):
            arr = arr.copy()
        arr.flags.writeable = False
    return arr


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
    alone (the design and its unit-SD form, the only scale the fitters solve
    on), built once and shared with the recoded dataset from
    :meth:`swap_treatment`.
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

    def swap_treatment(self) -> "Dataset":
        """Recode the treatment (0 <-> 1), used for the second counterfactual arm.

        ``y``, ``x`` and the cached design are shared with this dataset, not copied.
        """
        swapped = Dataset(self.y, 1.0 - self.a, self.x)
        object.__setattr__(swapped, "_cache", self._cache)
        return swapped
