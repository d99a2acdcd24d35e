"""Exception hierarchy shared across the package.

Every numerical failure mode raised by the solvers and estimators is a
subclass of :class:`PbrdrError`, so callers (the estimator suite, the
Monte Carlo runner, the CLI) can catch library failures without
swallowing genuine bugs.
"""


class PbrdrError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergence(PbrdrError):
    """Iteration budget exhausted with the stationarity residual above tolerance."""


class UnboundedObjective(PbrdrError):
    """A descent direction with no minimum was detected (e.g. separable treatment)."""


class DegenerateData(PbrdrError):
    """The data cannot identify the requested fit (e.g. all treatment values equal)."""


class DegenerateWeights(PbrdrError):
    """Fitted propensities collapse to 0 or 1 on treated units, breaking the inverse-odds weights."""


class Separation(PbrdrError):
    """Perfect separation detected while fitting a logistic model (divergent coefficients)."""


class RankDeficient(PbrdrError):
    """Design matrix does not have full column rank on the relevant subsample."""


class PositivityViolation(PbrdrError):
    """A required propensity value fell below the positivity guard threshold."""


class NumericalRange(PbrdrError):
    """A result left the float64 range where no power-of-two rescaling keeps it in."""


class ConfigError(PbrdrError):
    """Invalid configuration value (unknown estimator tag, bad key, unparseable value)."""


class DimensionError(ConfigError):
    """Covariate dimension is incompatible with the requested data-generating process."""
