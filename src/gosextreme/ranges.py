"""Limit distribution functions of the random generalized range and
midrange (max minus min, and their midpoint, under random sample size).

Each supported (family, m) case carries:

* the conditional df of the statistic given the index scale z, built
  from the two one-sided conditional limits; the reported value is its
  mixture against the index law, so a degenerate law reproduces the
  fixed-size limit and the unit-exponential law the geometric-size
  forms.  The mixture is taken by Fubini: z is integrated out first
  through the closed-form kernel `randomindex.index_kernel`, which
  leaves one integral over the min-side variable for the two-sided
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

Evaluation is per grid: `range_limit_df` and `midrange_limit_df` take a
float or an array of t, and a whole grid costs a few array kernel calls.
The two-sided integral is written over s = ln w, with w the index
kernel's argument, as int N_H(1, e^s, ell, c(s)) ds, and taken by one
fixed Gauss-Legendre rule with no adaptive fallback (see "the fixed rule
over s" below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import roots_legendre

from .distributions import DistributionModel, NormingConstants, norming_constants, tail_transform
from .limitlaws import TailTransform, kappa
from .montecarlo import IndexMode, SimulationReport, simulate_value_pairs, tally_report
from .params import ExtremeSide, GosParams
from .randomindex import IndexLaw, index_kernel
from .specfun import clip_probability, log_gamma

# Absolute tolerance of each two-sided range value: the fixed rule's
# two-order estimate, with the truncated mass, is held to a tenth of it.
RANGE_ABS_TOL = 1e-9


class QuadratureError(ArithmeticError):
    """Quadrature did not reach the requested absolute tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved abs error estimate {achieved:.3e})")
        self.achieved = achieved


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

    @cached_property
    def _s_extent(self) -> tuple[float, float]:
        return _s_extent(self.law)


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
# so the min-side variable carries the only integral left.  Over
# s = ln w each pair reads
#
#     head(t) + int_{lo(t)}^{hi(t)} N_H(1, e^s, ell, c(s, t)) ds,
#
# and each pair function below returns (head, lo, hi, c) for an array of
# t.  Without the max factor the integrand is the index weight
# N_H(1, e^s, ell, 0) = int z e^s e^(-z e^s) dH(z), of unit mass.


def _frechet_pair(t, midrange: bool):
    # Both tails power-type with unit exponent (cauchy, m = 0, eta = 1).
    # Min-side density z y^-2 e^(-z/y) on y = e^-s > 0; the max factor is
    # taken at t - y (range, vanishing for y >= t) or t + y (midrange,
    # vanishing for y <= -t), where its argument is +inf.
    sign = 1.0 if midrange else -1.0

    def c_of(s, t):
        gap = t + sign * np.exp(-s)
        return np.where(gap > 0.0, 1.0 / gap, np.inf)

    with np.errstate(divide="ignore", invalid="ignore"):
        edge = -np.log(-sign * t)  # where the gap closes
    unbounded = np.full_like(t, np.inf)
    if midrange:
        return np.zeros_like(t), -unbounded, np.where(t < 0.0, edge, np.inf), c_of
    return np.zeros_like(t), np.where(t > 0.0, edge, np.inf), unbounded, c_of


def _weibull_pair(law: IndexLaw, t, alpha: float, eta: float, midrange: bool):
    # Both tails bounded-endpoint type with exponents (alpha, alpha) after
    # the m+1 power (beta with alpha = (m+1)beta, power, and uniform at
    # alpha = 1).  The min-side conditional density is z e^{-z tau} after
    # tau = w^alpha = e^s, and the max factor argument is
    # (w/eta - t)_+^alpha (midrange) or (-(t + w/eta))_+^alpha (range).
    # On the far side of tau = split = (|t| eta)^alpha the max factor is
    # constant, 1 below it (midrange) or 0 above it (range), which leaves
    # the index weight's mass there: 1 - N_H(0, split) or N_H(0, split).
    # Powers past the largest float are +inf, where the max factor and
    # the index weight vanish.
    def c_of(s, t):
        scaled = np.exp(s / alpha) / eta
        return np.maximum(scaled - t if midrange else -(t + scaled), 0.0) ** alpha

    beyond = t > 0.0 if midrange else t < 0.0
    with np.errstate(over="ignore", divide="ignore"):
        split = np.where(beyond, np.power(np.abs(t) * eta, alpha), 0.0)
        edge = np.log(split)
    mass = index_kernel(law, 0.0, split)
    if midrange:
        return np.where(beyond, 1.0 - mass, 0.0), edge, np.full_like(t, np.inf), c_of
    # t >= 0: an empty interval and the whole mass
    return np.where(beyond, mass, 1.0), np.full_like(t, -np.inf), edge, c_of


def _gumbel_pair(t, mp1: float, eta: float, midrange: bool):
    # Both tails exponential-type, and s is the min-side variable itself:
    # after tau = e^s the min-side density is z e^{-z tau} and the max
    # factor argument is e^{-t(m+1)} tau^expo, expo = +(m+1)/eta
    # (midrange) or -(m+1)/eta (range), taken as one exponential so that
    # past the float range it is 0 or +inf, as its exact value would round.
    expo = mp1 / eta if midrange else -mp1 / eta

    def c_of(s, t):
        return np.exp(expo * s - t * mp1)

    unbounded = np.full_like(t, np.inf)
    return np.zeros_like(t), -unbounded, unbounded, c_of


# --- the fixed rule over s ---------------------------------------------------
# Every point of a grid is integrated on Gauss-Legendre nodes over its own
# s-interval, truncated where the index weight has at most _TAIL_MASS left
# beyond each end, and graded toward the pair's edge if the interval ends
# there.  Orders double along _ORDERS; a point is done once the two latest
# orders agree within a tenth of RANGE_ABS_TOL, counting the truncated
# mass, and a point that none settles raises QuadratureError.  Each point's
# sums are taken in a fixed pairwise order over its own nodes only, so its
# value does not depend on the grid around it; the grid is taken _CHUNK
# points at a time, so memory does not grow with its length.

_ORDERS = (64, 128, 256, 512, 1024)
_CHUNK = 64
_TAIL_MASS = 1e-14


@lru_cache(maxsize=None)
def _legendre(order: int) -> tuple[np.ndarray, ...]:
    """Columns of Gauss-Legendre nodes x, weights w, and graded y^2 and y w, y = (1 + x)/2."""
    nodes, weights = roots_legendre(order)
    y = (1.0 + nodes) / 2.0
    return nodes[:, None], weights[:, None], (y * y)[:, None], (y * weights)[:, None]


def _s_extent(law: IndexLaw) -> tuple[float, float]:
    """(s_lo, s_hi) with at most _TAIL_MASS of the index weight's unit mass
    below s_lo and above s_hi.

    The weight's mass below ln W is int (1 - e^(-zW)) dH(z) <= W E[z], and
    above it int e^(-zW) dH(z), the Laplace transform of H."""
    if law.kind == "degenerate":
        mean, top = law.c, math.log(1.0 / _TAIL_MASS) / law.c
    elif law.kind == "unit_exponential":
        mean, top = 1.0, 1.0 / _TAIL_MASS  # the transform is 1/(1 + W)
    else:
        pieces = law.pieces
        mean = sum(slope * (z1 * z1 - z0 * z0) / 2.0 for slope, z0, z1 in pieces)
        # H has density at most d on [z_a, inf), so the transform is at most
        # d e^(-z_a W) / W: below d / W, and for z_a W >= 1 below
        # d z_a e^(-z_a W).
        d, z_a = max(p[0] for p in pieces), pieces[0][1]
        top = d / _TAIL_MASS
        if z_a > 0.0:
            top = min(top, max(1.0, math.log(d * z_a / _TAIL_MASS)) / z_a)
    return math.log(_TAIL_MASS / mean), math.log(top)


def _gauss_legendre(query: RangeQuery, c_of, rule, order: int):
    """The order-point rule for each point of `rule` (see `_pair_df`)."""
    nodes, weights, graded_nodes, graded_weights = _legendre(order)
    origin, scale, graded, t = rule
    s = origin + scale * np.where(graded, graded_nodes, nodes)  # (order, points)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        kernel = index_kernel(query.law, 1.0, np.exp(s), query.params.ell, c_of(s, t))
    terms = kernel * np.where(graded, graded_weights, weights)
    while len(terms) > 1:  # pairwise, in the same order for every point
        terms = terms[: len(terms) // 2] + terms[len(terms) // 2:]
    return np.abs(scale) * terms[0]


def _pair_df(query: RangeQuery, t) -> np.ndarray:
    """A two-sided case's df over one chunk of stretched t."""
    head, lo, hi, c_of = _pair(query, t)
    s_lo, s_hi = query._s_extent
    value = head.astype(float)
    todo = np.flatnonzero(np.maximum(lo, s_lo) < np.minimum(hi, s_hi))
    lo, hi = lo[todo], hi[todo]
    a, b = np.maximum(lo, s_lo), np.minimum(hi, s_hi)
    cut = _TAIL_MASS * ((lo < s_lo).astype(float) + (hi > s_hi))
    # A pair's own end inside the truncated interval is its edge, where the
    # integrand goes like (s - edge)^(alpha ell): nodes are graded toward it by
    # s = edge + L y^2 (y in [0, 1]), and elsewhere s = (a + half) + half x.
    at_lo, at_hi, half = lo > s_lo, hi < s_hi, (b - a) / 2.0
    origin = np.where(at_hi, b, np.where(at_lo, a, a + half))
    scale = np.where(at_hi, a - b, np.where(at_lo, b - a, half))
    rule = (origin, scale, at_lo | at_hi, t[todo])
    low = _gauss_legendre(query, c_of, rule, _ORDERS[0])
    for order in _ORDERS[1:]:
        if not todo.size:
            break
        high = _gauss_legendre(query, c_of, rule, order)
        gap = np.abs(high - low) + cut
        done = gap <= RANGE_ABS_TOL / 10.0
        value[todo[done]] += high[done]
        todo, low, gap, cut = todo[~done], high[~done], gap[~done], cut[~done]
        rule = tuple(part[~done] for part in rule)
    if todo.size:
        raise QuadratureError(f"the range rule left {todo.size} point(s) unsettled at order "
                              f"{_ORDERS[-1]}", float(gap.max()))
    return value


# --- case dispatch ---------------------------------------------------------


def _mixed_df(query: RangeQuery, t) -> np.ndarray:
    """int P_z(statistic <= t) dH(z) over an array of t, for every case
    `_limit_df` does not serve in closed form."""
    t = t * query._stretch
    if math.isinf(query._eta):
        # max side dominates; both statistics share the mixed max marginal
        upper = query.params.kappa_power(kappa(query._upper, t))
        return index_kernel(query.law, 0.0, 0.0, query.params.ell, upper)
    value = np.empty_like(t)
    for start in range(0, len(t), _CHUNK):
        value[start:start + _CHUNK] = _pair_df(query, t[start:start + _CHUNK])
    return value


def _pair(query: RangeQuery, t):
    """(head, lo, hi, c) of the two-sided case at stretched t.  The
    parent's lower tail type picks the pair integrand; `eta_limit` alone
    decides which cases have one."""
    lower, midrange = query._lower, query.statistic == "midrange"
    if lower.kind == "frechet":
        return _frechet_pair(t, midrange)
    if lower.kind == "weibull":
        return _weibull_pair(query.law, t, lower.alpha, query._eta, midrange)
    return _gumbel_pair(t, query.params.m + 1.0, query._eta, midrange)


def _cauchy_mpos_value(statistic: str, t):
    with np.errstate(divide="ignore", over="ignore"):
        if statistic == "range":
            return np.where(t > 0.0, -np.expm1(-1.0 / t), 0.0)
        return np.where(t < 0.0, np.exp(1.0 / t), 1.0)


def range_limit_df(query: RangeQuery, t):
    """P(normalized generalized range <= t) in the query's index limit, at
    a float or over an array of t."""
    if query.statistic != "range":
        raise ValueError("query.statistic must be 'range'")
    return _limit_df(query, t)


def midrange_limit_df(query: RangeQuery, v):
    """P(normalized generalized midrange <= v) in the query's index limit,
    at a float or over an array of v."""
    if query.statistic != "midrange":
        raise ValueError("query.statistic must be 'midrange'")
    return _limit_df(query, v)


def _limit_df(query: RangeQuery, t):
    """The query's limit df over a whole grid of t (a float gives a float)."""
    grid = np.asarray(t, dtype=float)
    if np.isnan(grid).any():
        raise ValueError("range and midrange limits are undefined at NaN")
    if query.model.family == "cauchy" and query.params.m > 0.0:
        if query.law.kind != "unit_exponential":
            raise UnsupportedCaseError(
                "the cauchy m > 0 forms are published for the geometric "
                "(unit-exponential) index law only"
            )
        value = _cauchy_mpos_value(query.statistic, grid)
    else:
        value = clip_probability(_mixed_df(query, grid.ravel()).reshape(grid.shape))
    return value if value.ndim else float(value)


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
    analytic = _limit_df(query, np.array(grid))
    config = {
        "m": params.m, "k": params.k, "n": params.n,
        "model": model.label(), "statistic": query.statistic,
        "index_mode": mode.label(), "law": query.law.label(),
        "replications": replications, "seed": seed, "grid_size": len(grid),
    }
    return tally_report(config, grid, lambda t: values < t, analytic, replications, seed)
