"""Limit distribution functions of the random generalized range and
midrange (max minus min, and their midpoint, under random sample size).

Each supported (family, m) case carries:

* the conditional df of the statistic given the index scale z, built
  from the two one-sided conditional limits; the reported value is its
  mixture against the index law, so a degenerate law reproduces the
  fixed-size limit and the unit-exponential law the geometric-size
  forms.  The mixture is taken by Fubini: z is integrated out first
  through the closed-form kernel `randomindex.index_kernel`, which
  leaves one quadrature over the min-side variable for the two-sided
  families and none for the single-sided ones;
* the normalization convention (A_r, B_r, A_v, B_v) the simulator must
  apply, expressed through the per-sample-size constants (a, b, c, d).

When one side's scale dominates (eta = lim a_n/c_n equal to 0 or inf)
the statistic collapses onto a single mixed marginal and range and
midrange share one limit.  Unlisted (family, m, statistic) combinations
raise UnsupportedCaseError rather than guessing a reduction.

The cauchy family with m > 0 is special-cased to the published closed
forms 1 - e^(-1/r) and e^(1/v); they are kept verbatim (and pinned by
the acceptance checks) although they are decreasing in their argument,
so this one case is excluded from the df-shape and simulation
diagnostics.  It is only defined for the unit-exponential law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from ._integrate import integrate
from .distributions import DistributionModel, NormingConstants, norming_constants, tail_transform
from .limitlaws import TailTransform, kappa
from .montecarlo import IndexMode, SimulationReport, simulate_value_pairs, tally_report
from .params import ExtremeSide, GosParams
from .randomindex import IndexLaw, index_kernel
from .specfun import clip_probability, log_gamma

# Absolute tolerance of the one quadrature behind each value.
RANGE_ABS_TOL = 1e-9


class UnsupportedCaseError(ValueError):
    """No published limit form for this family/m/statistic combination."""


@dataclass(frozen=True)
class RangeQuery:
    model: DistributionModel
    params: GosParams
    law: IndexLaw
    statistic: str  # "range" | "midrange"

    def __post_init__(self):
        if self.statistic not in ("range", "midrange"):
            raise ValueError(f"statistic must be range or midrange, got {self.statistic}")

    # Resolved once per query, on first use (an unsupported case raises there).
    @cached_property
    def _eta(self) -> float:
        return eta_limit(self.model, self.params)

    @cached_property
    def _upper(self) -> TailTransform:
        return tail_transform(self.model, ExtremeSide.UPPER)

    @cached_property
    def _lower(self) -> TailTransform:
        return tail_transform(self.model, ExtremeSide.LOWER)

    @cached_property
    def _stretch(self) -> float:
        """How much wider this query's statistic scale is than the default.

        The published normal m = 0, k = 1 midrange is normalized by a_n
        rather than a_n/2, so its limit df at t is the general one at 2t.
        """
        published = (
            self.model.family == "normal" and self.statistic == "midrange"
            and self.params.m == 0.0 and self.params.k == 1.0
        )
        return 2.0 if published else 1.0


def _beta_normalizer(alpha: float, beta_p: float) -> float:
    return math.exp(log_gamma(alpha + beta_p) - log_gamma(alpha) - log_gamma(beta_p))


def eta_limit(model: DistributionModel, params: GosParams) -> float:
    """lim a_n / c_n for the family at the given m (may be 0 or +inf)."""
    m = params.m
    fam = model.family
    if fam == "cauchy":
        if m == 0.0:
            return 1.0
        return 0.0 if m > 0.0 else math.inf
    if fam in ("pareto", "lognormal", "exponential", "rayleigh"):
        return math.inf
    if fam == "uniform":
        if m == 0.0:
            return 1.0
        raise UnsupportedCaseError("uniform range limits are available for m = 0 only")
    if fam in ("beta", "power"):
        if fam == "beta":
            alpha, beta_p = model.params["alpha"], model.params["beta"]
        else:
            alpha, beta_p = model.params["alpha"], 1.0
        if not math.isclose(alpha, (m + 1.0) * beta_p, rel_tol=1e-12):
            raise UnsupportedCaseError(
                "beta/power range limits require alpha = (m+1)*beta"
            )
        c = _beta_normalizer(alpha, beta_p)
        return (beta_p / c) ** (1.0 / beta_p) * ((m + 1.0) * c / alpha) ** (1.0 / alpha)
    if fam == "normal":
        return math.sqrt(m + 1.0)
    if fam in ("logistic", "laplace"):
        return 1.0
    raise UnsupportedCaseError(f"no range limit implemented for family {fam!r}")


# --- mixed conditional dfs ------------------------------------------------
# Given the index scale z the statistic's df is an integral, over the
# min-side variable, of the max factor Q(ell, z * cval) (cval is
# kappa(x)^(m+1) for the family's upper tail) against the min-side
# conditional density.  Integrating z out first turns each slice into
# L_H(1, w, ell, c) = int z e^(-zw) Q(ell, zc) dH(z) = N_H(1, w, ell, c) / w,
# so the min-side variable carries the only integral left.


def _frechet_pair_df(law: IndexLaw, ell: float, t: float, midrange: bool) -> float:
    # Both tails power-type with unit exponent (cauchy, m = 0, eta = 1).
    # Min-side density z y^-2 e^(-z/y) on y > 0; the max factor is taken at
    # t - y (range, vanishing for y >= t) or v + y (midrange, v = t).
    # With w = 1/y the integrand L_H(1, w) y^-2 is N_H(1, w) / y.
    if midrange:
        def integrand(y: float) -> float:
            try:
                c = 1.0 / (t + y)
            except ZeroDivisionError:  # t + y rounds to 0 where |t| is huge
                c = math.inf
            return index_kernel(law, 1.0, 1.0 / y, ell, c) / y

        return integrate(integrand, max(0.0, -t), math.inf, RANGE_ABS_TOL)
    if t <= 0.0:
        return 0.0

    def integrand(y: float) -> float:
        return index_kernel(law, 1.0, 1.0 / y, ell, 1.0 / (t - y)) / y

    return integrate(integrand, 0.0, t, RANGE_ABS_TOL)


def _weibull_pair_df(
    law: IndexLaw, ell: float, t: float, alpha: float, eta: float, midrange: bool
) -> float:
    # Both tails bounded-endpoint type with exponents (alpha, alpha) after
    # the m+1 power (beta with alpha = (m+1)beta, power, and uniform at
    # alpha = 1).  The min-side conditional density is z e^{-z tau} after
    # tau = w^alpha, and the max factor argument is
    # (-(t + w/eta))_+^alpha (range) or (w/eta - t)_+^alpha (midrange).
    # Powers past the largest float are taken as +inf, where the max
    # factor and the min-side weight vanish.
    def integrand(tau: float) -> float:
        w = tau ** (1.0 / alpha)
        x = (w / eta - t) if midrange else -(t + w / eta)
        try:
            c = x**alpha if x > 0.0 else 0.0
        except OverflowError:
            c = math.inf
        return index_kernel(law, 1.0, tau, ell, c) / tau

    if midrange:
        split = _power_or_inf(t * eta, alpha) if t > 0.0 else 0.0
        head = 1.0 - index_kernel(law, 0.0, split) if split > 0.0 else 0.0
        return head + integrate(integrand, split, math.inf, RANGE_ABS_TOL)
    if t >= 0.0:
        return 1.0
    split = _power_or_inf(-t * eta, alpha)
    return index_kernel(law, 0.0, split) + integrate(integrand, 0.0, split, RANGE_ABS_TOL)


def _power_or_inf(base: float, expo: float) -> float:
    """base^expo for base > 0, or +inf where it overflows a float."""
    try:
        return base**expo
    except OverflowError:
        return math.inf


def _gumbel_pair_df(
    law: IndexLaw, ell: float, t: float, mp1: float, eta: float, midrange: bool
) -> float:
    # Both tails exponential-type.  After tau = e^w the min-side density
    # is z e^{-z tau} and the max factor argument is e^{-t(m+1)} tau^expo,
    # expo = -(m+1)/eta (range) or +(m+1)/eta (midrange).  It is taken as
    # (tau * scale)^expo with scale = e^{-t(m+1)/expo}, so that no infinite
    # factor meets a zero one; past the float range the argument is 0 or
    # +inf, as its exact value would round.
    expo = mp1 / eta if midrange else -mp1 / eta
    try:
        scale = math.exp(-t * mp1 / expo)
    except OverflowError:
        scale = math.inf

    def integrand(tau: float) -> float:
        try:
            c = (tau * scale) ** expo
        except (OverflowError, ZeroDivisionError):  # ZeroDivisionError: 0 ** -a
            c = math.inf
        return index_kernel(law, 1.0, tau, ell, c) / tau

    return integrate(integrand, 0.0, math.inf, RANGE_ABS_TOL)


# --- case dispatch ---------------------------------------------------------


def _mixed_df(query: RangeQuery, t: float) -> float:
    """int P_z(statistic <= t) dH(z) for every case `_limit_df` does not
    serve in closed form.  The parent's lower tail type picks the pair
    integrand; `eta_limit` alone decides which cases have one."""
    params, law, ell = query.params, query.law, query.params.ell
    midrange = query.statistic == "midrange"
    eta = query._eta
    t = t * query._stretch

    if math.isinf(eta):
        # max side dominates; both statistics share the mixed max marginal
        return index_kernel(law, 0.0, 0.0, ell, params.kappa_power(kappa(query._upper, t)))

    lower = query._lower
    if lower.kind == "frechet":
        return _frechet_pair_df(law, ell, t, midrange)
    if lower.kind == "weibull":
        return _weibull_pair_df(law, ell, t, lower.alpha, eta, midrange)
    return _gumbel_pair_df(law, ell, t, params.m + 1.0, eta, midrange)


def _cauchy_mpos_value(statistic: str, t: float) -> float:
    if statistic == "range":
        return -math.expm1(-1.0 / t) if t > 0.0 else 0.0
    return math.exp(1.0 / t) if t < 0.0 else 1.0


def range_limit_df(query: RangeQuery, t: float) -> float:
    """P(normalized generalized range <= t) in the query's index limit."""
    if query.statistic != "range":
        raise ValueError("query.statistic must be 'range'")
    return _limit_df(query, t)


def midrange_limit_df(query: RangeQuery, v: float) -> float:
    """P(normalized generalized midrange <= v) in the query's index limit."""
    if query.statistic != "midrange":
        raise ValueError("query.statistic must be 'midrange'")
    return _limit_df(query, v)


def _limit_df(query: RangeQuery, t: float) -> float:
    if query.model.family == "cauchy" and query.params.m > 0.0:
        if query.law.kind != "unit_exponential":
            raise UnsupportedCaseError(
                "the cauchy m > 0 forms are published for the geometric "
                "(unit-exponential) index law only"
            )
        return _cauchy_mpos_value(query.statistic, t)
    return clip_probability(_mixed_df(query, t))


def normal_range_closed_form(r: float) -> float:
    """Piecewise closed form of the standard-normal (m=0, k=1) random
    range limit: f1 below ln 4, 2/3 at ln 4, f2 above."""
    ln4 = math.log(4.0)
    if r == ln4:
        return 2.0 / 3.0
    e = 4.0 * math.exp(-r)
    if r < ln4:
        root = math.sqrt(e - 1.0)
        return (e / root * math.atan(root) - 1.0) / (e - 1.0)
    if e < 1e-9:
        # 1 - root underflows; use the expansion 1 - (e/2) ln(4/e) + O(e^2)
        return (1.0 - 0.5 * e * math.log(4.0 / e)) / (1.0 - e)
    root = math.sqrt(1.0 - e)
    return (1.0 - (e / 2.0) / root * math.log((1.0 + root) / (1.0 - root))) / (1.0 - e)


def normal_range_integral(r: float) -> float:
    """Quadrature form int_0^inf y^2 / (y^2 + y + e^-r)^2 dy of the same
    limit, kept as an independent numeric route."""
    c = math.exp(-r)

    def integrand(y: float) -> float:
        den = y * y + y + c
        return y * y / (den * den)

    return integrate(integrand, 0.0, math.inf, RANGE_ABS_TOL)


def normal_midrange_integral(v: float) -> float:
    """Quadrature form 1 - int_0^inf dy / (y (e^{2v}+1) + 1)^2."""
    slope = math.exp(2.0 * v) + 1.0

    def integrand(y: float) -> float:
        den = y * slope + 1.0
        return 1.0 / (den * den)

    return 1.0 - integrate(integrand, 0.0, math.inf, RANGE_ABS_TOL)


# --- simulation conventions and overlay ------------------------------------


def statistic_normalization(
    query: RangeQuery, consts: NormingConstants
) -> tuple[float, float]:
    """(A, B) so that the simulator tallies (statistic - B) / A.

    Default convention: A_r = a, B_r = b - d for the range and
    A_v = a/2, B_v = (b+d)/2 for the midrange.  Per-case overrides follow
    the published examples: pure power-tail cases center at 0, the
    cauchy m > 0 case rescales by the dominant lower-side constant, and
    the normal m=0, k=1 midrange uses A_v = a (`RangeQuery._stretch`).
    """
    fam, m = query.model.family, query.params.m
    a, b, c, d = consts.a, consts.b, consts.c, consts.d
    midrange = query.statistic == "midrange"
    if fam == "cauchy":
        if m > 0.0:
            return (c / 2.0, 0.0) if midrange else (c, 0.0)
        return (a / 2.0, 0.0) if midrange else (a, 0.0)
    if fam == "pareto":
        return (a / 2.0, 0.0) if midrange else (a, 0.0)
    if midrange:
        return a / 2.0 * query._stretch, (b + d) / 2.0
    return a, b - d


def run_statistic_sim(
    query: RangeQuery,
    mode: IndexMode,
    grid,
    replications: int,
    seed: int,
) -> SimulationReport:
    """Simulate the normalized range/midrange and compare with the
    analytic limit of `query` on the grid."""
    params, model = query.params, query.model
    consts = norming_constants(model, params)
    mins, maxs = simulate_value_pairs(
        params, model, mode,
        (ExtremeSide.LOWER, 1), (ExtremeSide.UPPER, 1),
        replications, seed,
    )
    scale, center = statistic_normalization(query, consts)
    if query.statistic == "range":
        values = (maxs - mins - center) / scale
    else:
        values = ((maxs + mins) / 2.0 - center) / scale

    grid = tuple(float(g) for g in grid)
    config = {
        "m": params.m, "k": params.k, "n": params.n,
        "model": model.label(), "statistic": query.statistic,
        "index_mode": mode.label(), "law": query.law.label(),
        "replications": replications, "seed": seed, "grid_size": len(grid),
    }
    return tally_report(
        config, grid, lambda t: values < t,
        lambda t: _limit_df(query, t), replications, seed,
    )
