"""Estimation under nonignorable outcome missingness via fractional imputation.

The package fits a logistic response mechanism whose linear predictor
includes the (possibly missing) outcome, pairs it with an
exponential-family model for the respondents' outcomes, checks model
identifiability from the declared structure alone, and reproduces the
accompanying Monte Carlo evidence at desk scale.
"""

from .basis import (
    BasisSet,
    BasisTerm,
    CovariateKind,
    FormulaError,
    binary,
    categorical,
    continuous,
    parse_formula,
    set_difference,
)
from .config import ConfigError, RunConfig, load_config
from .dataio import DataSchema, Dataset, IngestError, emit, ingest
from .expfam import (
    Component,
    Family,
    OutcomeSpec,
    SupportError,
    TiltDomainError,
    density,
    log_density,
    log_odds_normalizer,
    mean,
    sample,
    tilt,
)
from .fiem import (
    FiControls,
    FitResult,
    FractionalWeights,
    em_fit,
    estimate_mu_y,
    fractional_weights,
    mean_score,
)
from .identify import (
    IdentifyVerdict,
    Rule,
    Status,
    check_mixture,
    check_model,
    check_single,
    permutation_certificate,
)
from .respondent import (
    Candidate,
    FitError,
    RespondentFit,
    fit_glm,
    fit_normal_mixture,
    search_basis_by_aic,
    select_aic,
)
from .response import ResponseSpec
from .sim import McSummary, Scenario, built_in_scenario, generate, run_mc, true_mu_y
from .variance import mu_y_variance, variance_estimate, wald_interval

__all__ = [
    "BasisSet",
    "BasisTerm",
    "CovariateKind",
    "FormulaError",
    "binary",
    "categorical",
    "continuous",
    "parse_formula",
    "set_difference",
    "ConfigError",
    "RunConfig",
    "load_config",
    "DataSchema",
    "Dataset",
    "IngestError",
    "emit",
    "ingest",
    "Component",
    "Family",
    "OutcomeSpec",
    "SupportError",
    "TiltDomainError",
    "density",
    "log_density",
    "log_odds_normalizer",
    "mean",
    "sample",
    "tilt",
    "FiControls",
    "FitResult",
    "FractionalWeights",
    "em_fit",
    "estimate_mu_y",
    "fractional_weights",
    "mean_score",
    "IdentifyVerdict",
    "Rule",
    "Status",
    "check_mixture",
    "check_model",
    "check_single",
    "permutation_certificate",
    "Candidate",
    "FitError",
    "RespondentFit",
    "fit_glm",
    "fit_normal_mixture",
    "search_basis_by_aic",
    "select_aic",
    "ResponseSpec",
    "McSummary",
    "Scenario",
    "built_in_scenario",
    "generate",
    "run_mc",
    "true_mu_y",
    "mu_y_variance",
    "variance_estimate",
    "wald_interval",
]
