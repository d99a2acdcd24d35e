"""Penalised bias-reduced double-robust estimation of counterfactual means
and average treatment effects under high-dimensional confounding, with the
comparator estimators, Monte Carlo benchmark scenarios, and the
misspecification bias-surface study."""

__version__ = "0.1.0"

from .dataset import Dataset
from .errors import (
    ConfigError,
    DegenerateData,
    DegenerateWeights,
    DimensionError,
    NonConvergence,
    PbrdrError,
    PositivityViolation,
    RankDeficient,
    Separation,
    UnboundedObjective,
)
from .estimators import (
    DEFAULT_ROSTER,
    AteResult,
    EstimateResult,
    SuiteEntry,
    ate_estimate,
    dr_estimate,
    estimate_one,
    estimate_suite,
    influence_values,
    iptw_estimate,
    or_estimate,
    pop_iptw_estimate,
)
from .simulation import (
    MetricsRow,
    MetricsTable,
    ScenarioSpec,
    TrueModel,
    compute_metrics,
    draw_dataset,
    gen_covariates,
    parse_config_text,
    run_monte_carlo,
    scenario1_model,
    scenario2_model,
)
from .solvers import (
    Coefficients,
    NuisanceFit,
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
from .bias_surface import (
    SurfaceDgp,
    SurfaceGrid,
    evaluate_surface,
    export_surface,
    rescale_bias,
    surface_dataset,
    target_mean,
)
