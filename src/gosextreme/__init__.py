"""Exact and limit distribution functions of bivariate extreme
m-generalized order statistics under fixed and random sample size,
plus a seeded Monte Carlo harness that verifies the limit theory at
desk scale."""

from .distributions import (
    DistributionModel,
    NoAttractionError,
    NormingConstants,
    UnsupportedCaseError,
    cdf,
    eta_limit,
    norming_constants,
    parse_model,
    quantile,
    survival,
    tail_transform,
)
from .goscore import (
    joint_df,
    lbar,
    lm,
    marginal_lower_df,
    marginal_upper_df,
)
from .limitlaws import TailTransform, kappa, rho
from .montecarlo import (
    SimConfig,
    SimulationReport,
    ks_distance,
    run_bivariate_sim,
    sample_random_index,
)
from .params import ExtremeSide, GosParams, RankPair, Regime
from .randomindex import (
    IndexLaw,
    IndexMode,
    h_cdf,
    load_tabulated_csv,
    mixture_ll,
    mixture_lu,
    mixture_marginal,
    mixture_uu,
)
from .ranges import (
    RangeQuery,
    midrange_limit_df,
    normal_range_closed_form,
    range_limit_df,
    run_statistic_sim,
)
from .specfun import log_gamma, reg_inc_beta, reg_inc_gamma

__version__ = "0.1.0"

# The reference routes serve no verb but `selftest`, so the package loads
# `reference` on first access to one of these names only.
_REFERENCE_NAMES = frozenset({
    "joint_df_direct", "normal_midrange_integral", "normal_range_integral", "omega_ll",
    "omega_lu_product", "omega_uu", "sample_uniform_gos",
})


def __getattr__(name: str):
    if name in _REFERENCE_NAMES:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DistributionModel", "ExtremeSide", "GosParams", "IndexLaw",
    "IndexMode", "NoAttractionError", "NormingConstants", "RangeQuery",
    "RankPair", "Regime", "SimConfig", "SimulationReport", "TailTransform",
    "UnsupportedCaseError", "cdf", "eta_limit", "h_cdf", "joint_df", "joint_df_direct",
    "kappa", "ks_distance", "lbar", "lm", "load_tabulated_csv", "log_gamma",
    "marginal_lower_df", "marginal_upper_df", "midrange_limit_df", "mixture_ll", "mixture_lu",
    "mixture_marginal", "mixture_uu", "norming_constants",
    "normal_range_closed_form", "omega_ll", "omega_lu_product", "omega_uu",
    "parse_model", "quantile", "range_limit_df", "reg_inc_beta",
    "normal_midrange_integral", "normal_range_integral",
    "reg_inc_gamma", "rho", "run_bivariate_sim", "run_statistic_sim",
    "sample_random_index", "sample_uniform_gos", "survival", "tail_transform",
]
