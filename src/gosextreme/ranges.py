"""Limit distribution functions of the random generalized range and
midrange (max minus min, and their midpoint, under random sample size).

Each (family, m) case with a published limit carries:

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

No code here tells families apart: eta = lim a_n/c_n (`eta_limit`, which
raises UnsupportedCaseError where no limit is published) and the published
conventions are fields of the family's record in `distributions`.  Range and
midrange share the mixed max marginal as their limit where eta = inf.

Each statistic is one record in `STATISTICS`: how the min and max combine,
the sign of y in x(y, t), its (A, B) convention and midrange stretch, its
published eta = 0 form and the `example` verb's default grid.  No other
module compares a statistic's name.

Only the cauchy family with m > 0 has eta = 0; it takes the published
closed forms 1 - e^(-1/r) and e^(1/v), kept verbatim (and pinned by
the acceptance checks) although they are decreasing in their argument,
so this one case is excluded from the df-shape and simulation
diagnostics.  It is only defined for the unit-exponential law.

Evaluation is per grid: `range_limit_df` and `midrange_limit_df` take a
float or an array of t, and a whole grid costs a few array kernel calls.
The two-sided integral is int N_H(1, e^s, ell, c(s, t)) ds over s = ln w,
w = rho(y) at the normalized minimum y, with the max factor
c = kappa(x)^(m+1) read off the tail transforms at x(s, t) =
t +- rho_inverse(e^s)/eta ("mixed conditional dfs" below).  It is taken
by nested Clenshaw-Curtis levels in a sinh-mapped variable, with no
adaptive fallback (see "the nested rule over v").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .distributions import (DistributionModel, NormingConstants, UnsupportedCaseError, eta_limit,
                            norming_constants, tail_transform)
from .limitlaws import TailTransform, kappa, rho, rho_inverse
from .montecarlo import SimulationReport, simulate_value_pairs, tally_report
from .params import ExtremeSide, GosParams, RankPair, Regime
from .randomindex import IndexLaw, IndexMode, index_kernel
from .specfun import clip_probability

# Absolute tolerance of each two-sided range value: the nested rule's
# two-level estimate, with the truncated mass, is held to a tenth of it.
RANGE_ABS_TOL = 1e-9


class QuadratureError(ArithmeticError):
    """Quadrature did not reach the requested absolute tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved abs error estimate {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True)
class Statistic:
    """A statistic of the sample's min and max: (max - sign * min) * weight.
    The simulator tallies (statistic - B) / A at A = a * weight * stretch and
    B = (b - sign * d) * weight (`statistic_normalization`), which at the
    normalized max x and min y is (x - sign * y/eta) / stretch (`_pair`)."""

    sign: float
    weight: float
    stretched: bool  # the family's `midrange_stretch` widens its scale
    grid: str  # the `example` verb's default grid
    cauchy: Callable  # the published eta = 0 df at an array of t


STATISTICS = {
    "range": Statistic(sign=1.0, weight=1.0, stretched=False, grid="-2:6:41",
                       cauchy=lambda t: np.where(t > 0.0, -np.expm1(-1.0 / t), 0.0)),
    "midrange": Statistic(sign=-1.0, weight=0.5, stretched=True, grid="-4:4:41",
                          cauchy=lambda t: np.where(t < 0.0, np.exp(1.0 / t), 1.0)),
}


@dataclass(frozen=True)
class RangeQuery:
    model: DistributionModel
    params: GosParams
    law: IndexLaw
    statistic: str  # a name in `STATISTICS`

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ValueError(f"statistic must be {' or '.join(STATISTICS)}, got {self.statistic}")

    @property
    def _stat(self) -> Statistic:
        return STATISTICS[self.statistic]

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

        A midrange the family publishes at scale s * a_n/2 has, as its
        limit df at t, the general one at s t.
        """
        return self.model.record.midrange_stretch(self.params) if self._stat.stretched else 1.0

    @cached_property
    def _s_extent(self) -> tuple[float, float]:
        """(s_lo, s_hi) with at most _TAIL_MASS of the index weight's unit
        mass below s_lo and above s_hi.  The weight's mass below ln W is
        int (1 - e^(-zW)) dH(z) <= W E[z], and above it int e^(-zW) dH(z),
        the Laplace transform of H."""
        return math.log(_TAIL_MASS) + self._centre, math.log(self.law.laplace_bound(_TAIL_MASS))

    @cached_property
    def _centre(self) -> float:
        """-ln E[z], where the index weight over s = ln w has its mass."""
        return -math.log(self.law.mean())


# --- mixed conditional dfs ------------------------------------------------
# Given the index scale z the statistic's df is an integral over the
# normalized minimum y of the max factor Q(ell, z c), c = kappa(x)^(m+1),
# at the normalized maximum x(y, t) = t + y/eta (range) or t - y/eta
# (midrange) where the statistic equals t.  Integrating z out first leaves
# N_H(1, w, ell, c) / w at w = rho(y); over s = ln w, y = rho_inverse(e^s),
# the df reads
#
#     head(t) + int_{lo(t)}^{hi(t)} N_H(1, e^s, ell, c(s, t)) ds.
#
# At c = 0 the integrand is the index weight, of unit mass, whose mass
# above ln w is index_kernel(law, 0, w).  A frechet or weibull factor ends
# where x = 0, at the edge s = ln rho(-+eta t); past it a frechet factor is
# closed (c = +inf) and a weibull one open (c = 0), which leaves the
# weight's mass there as the head.  A gumbel factor has no end.


def _pair(query: RangeQuery, t):
    """(head, lo, hi, c) of the two-sided case at stretched t; `eta_limit`
    alone decides which cases have one."""
    lower, upper, eta = query._lower, query._upper, query._eta
    sign = query._stat.sign

    def c_of(s, t):
        return query.params.kappa_power(kappa(upper, t + sign * rho_inverse(lower, s) / eta))

    head, unbounded = np.zeros_like(t), np.full_like(t, np.inf)
    if not upper.record.ends:
        return head, -unbounded, unbounded, c_of
    split = rho(lower, -sign * eta * t)
    with np.errstate(divide="ignore"):
        edge = np.log(split)
    # x rises with s for the range and falls for the midrange, so past the
    # edge lies above it for a weibull range and a frechet midrange.
    opens = upper.record.opens
    lo, hi = (-unbounded, edge) if opens == (sign > 0.0) else (edge, unbounded)
    if opens:
        inside = sign * t < 0.0  # else open (range) or closed (midrange) for every s
        mass = index_kernel(query.law, 0.0, split)
        head = np.where(inside, mass, 1.0) if sign > 0.0 else np.where(inside, 1.0 - mass, 0.0)
    return head, lo, hi, c_of


# --- the nested rule over v --------------------------------------------------
# Every point of a grid is integrated over its own s-interval, truncated where
# the index weight has at most _TAIL_MASS left beyond each end, in the
# variable v of s = centre + sinh(v), with ds = cosh(v) dv and centre =
# -ln E[z] (`RangeQuery._centre`): the weight's mass lies within a few units
# of the centre, where the map puts the nodes densest, and its tails thin out
# doubly exponentially in v.  If the interval ends at the pair's edge, nodes
# are graded toward it in v.  The rule is Clenshaw-Curtis on the N + 1 nodes
# cos(k pi/N), whose levels N along _ORDERS are nested: the first kernel call
# yields the sums at N/2 and N = _ORDERS[0], and each later level evaluates
# only the N/2 nodes it adds.  A point is done once two successive levels
# agree within a tenth of RANGE_ABS_TOL, counting the truncated mass, and a
# point that none settles raises QuadratureError.  Each point's sums are
# taken in a fixed pairwise order over its own nodes only, so its value does
# not depend on the grid around it; the grid is taken _CHUNK points at a
# time, so memory does not grow with its length.

_ORDERS = (128, 256, 512, 1024)
_CHUNK = 64
_TAIL_MASS = 1e-14
_LOG_W_MAX = math.log(np.finfo(float).max)


@lru_cache(maxsize=None)
def _clenshaw_curtis(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the nodes x_k = cos(k pi/order), k = 0..order, and their
    Clenshaw-Curtis weights, for an even order."""
    theta = np.pi * np.arange(order + 1) / order
    j = np.arange(1, order // 2 + 1)
    b = np.where(j == order // 2, 1.0, 2.0) / (4.0 * j * j - 1.0)
    weights = (1.0 - b @ np.cos(2.0 * np.outer(j, theta))) * (2.0 / order)
    weights[[0, -1]] /= 2.0
    return np.cos(theta)[:, None], weights[:, None]


def _level_sum(values: np.ndarray, order: int) -> np.ndarray:
    """The level-`order` rule over integrand values at its order + 1 nodes,
    summed pairwise in the same order for every point."""
    terms = values * _clenshaw_curtis(order)[1]
    first, terms = terms[0], terms[1:]
    while len(terms) > 1:
        terms = terms[: len(terms) // 2] + terms[len(terms) // 2:]
    return first + terms[0]


def _integrand(query: RangeQuery, c_of, rule, x):
    """The integrand over x in [-1, 1] at the node column x for each point of
    `rule` (see `_pair_df`)."""
    origin, scale, graded, t = rule
    y = (1.0 + x) / 2.0
    v = origin + scale * np.where(graded, y * y, x)
    s = query._centre + np.sinh(v)  # (nodes, points)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        kernel = index_kernel(query.law, 1.0, np.exp(s), query.params.ell, c_of(s, t))
    return kernel * np.cosh(v) * np.abs(scale) * np.where(graded, y, 1.0)


def _pair_df(query: RangeQuery, t) -> np.ndarray:
    """A two-sided case's df over one chunk of stretched t."""
    head, lo, hi, c_of = _pair(query, t)
    s_lo, s_hi = query._s_extent
    value = head.astype(float)
    todo = np.flatnonzero(np.maximum(lo, s_lo) < np.minimum(hi, s_hi))
    lo, hi = lo[todo], hi[todo]
    if np.any(np.minimum(hi, s_hi) > _LOG_W_MAX):  # the law's bound W is inf
        raise OverflowError("the index law's weight reaches past w = 1.8e308, the largest "
                            "float, where the range rule cannot take it")
    a = np.arcsinh(np.maximum(lo, s_lo) - query._centre)
    b = np.arcsinh(np.minimum(hi, s_hi) - query._centre)
    cut = _TAIL_MASS * ((lo < s_lo).astype(float) + (hi > s_hi))
    # A pair's own end inside the truncated interval is its edge, where the
    # integrand goes like (s - edge)^(alpha ell): nodes are graded toward it by
    # v = edge + L y^2 (y = (1 + x)/2 in [0, 1]), and elsewhere
    # v = (a + half) + half x.
    at_lo, at_hi, half = lo > s_lo, hi < s_hi, (b - a) / 2.0
    origin = np.where(at_hi, b, np.where(at_lo, a, a + half))
    scale = np.where(at_hi, a - b, np.where(at_lo, b - a, half))
    rule = (origin, scale, at_lo | at_hi, t[todo])
    order = _ORDERS[0]
    values = _integrand(query, c_of, rule, _clenshaw_curtis(order)[0])
    low, high = _level_sum(values[::2], order // 2), _level_sum(values, order)
    for order in (*_ORDERS[1:], None):
        gap = np.abs(high - low) + cut
        done = gap <= RANGE_ABS_TOL / 10.0
        value[todo[done]] += high[done]
        keep = ~done
        todo, gap, cut, high, values = todo[keep], gap[keep], cut[keep], high[keep], values[:, keep]
        rule = tuple(part[keep] for part in rule)
        if not todo.size or order is None:
            break
        grown = np.empty((order + 1, todo.size))
        grown[::2] = values
        grown[1::2] = _integrand(query, c_of, rule, _clenshaw_curtis(order)[0][1::2])
        values, low, high = grown, high, _level_sum(grown, order)
    if todo.size:
        raise QuadratureError(f"the range rule left {todo.size} point(s) unsettled at order "
                              f"{_ORDERS[-1]}", float(gap.max()))
    return value


# --- case dispatch ---------------------------------------------------------


def _mixed_df(query: RangeQuery, t) -> np.ndarray:
    """int P_z(statistic <= t) dH(z) over an array of t, for every case
    `limit_df` does not serve in closed form."""
    t = t * query._stretch
    if math.isinf(query._eta):
        # max side dominates; both statistics share the mixed max marginal
        upper = query.params.kappa_power(kappa(query._upper, t))
        return index_kernel(query.law, 0.0, 0.0, query.params.ell, upper)
    # A df is 1 at t = +inf and 0 at -inf; the rule would meet inf - inf
    # in x(s, t) there, so infinite t take those values and skip it.
    value = np.where(t > 0.0, 1.0, 0.0)
    finite = np.flatnonzero(np.isfinite(t))
    for start in range(0, finite.size, _CHUNK):
        at = finite[start:start + _CHUNK]
        value[at] = _pair_df(query, t[at])
    return value


def range_limit_df(query: RangeQuery, t):
    """P(normalized generalized range <= t) in the query's index limit, at
    a float or over an array of t."""
    if query.statistic != "range":
        raise ValueError("query.statistic must be 'range'")
    return limit_df(query, t)


def midrange_limit_df(query: RangeQuery, v):
    """P(normalized generalized midrange <= v) in the query's index limit,
    at a float or over an array of v."""
    if query.statistic != "midrange":
        raise ValueError("query.statistic must be 'midrange'")
    return limit_df(query, v)


def limit_df(query: RangeQuery, t):
    """P(normalized statistic <= t) in the query's index limit, for the
    statistic it names, over a whole grid of t (a float gives a float)."""
    grid = np.asarray(t, dtype=float)
    if np.isnan(grid).any():
        raise ValueError("range and midrange limits are undefined at NaN")
    if query._eta == 0.0:  # cauchy with m > 0
        if query.law != IndexLaw.unit_exponential():
            raise UnsupportedCaseError(
                "the cauchy m > 0 forms are published for the geometric "
                "(unit-exponential) index law only"
            )
        with np.errstate(divide="ignore", over="ignore"):
            value = query._stat.cauchy(grid)
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

    By the statistic's record: A_r = a, B_r = b - d for the range and
    A_v = a/2, B_v = (b+d)/2 for the midrange.  The family's record
    adjusts it for the published examples: a centred family (pareto)
    centres at 0, as cauchy's b = d = 0 already do, and the midrange
    scale takes its stretch (`RangeQuery._stretch`).  Where the lower
    side dominates (eta = 0) its constant c, centred at 0, replaces a.
    """
    a, b, d = consts.a, consts.b, consts.d
    if query._eta == 0.0:
        a, b, d = consts.c, 0.0, 0.0
    elif query.model.record.centred:
        b = d = 0.0
    stat = query._stat
    return a * stat.weight * query._stretch, (b - stat.sign * d) * stat.weight


def run_statistic_sim(
    query: RangeQuery,
    mode: IndexMode,
    grid,
    replications: int,
    seed: int,
    analytic=None,
) -> SimulationReport:
    """Simulate the normalized range/midrange and compare with the
    analytic limit of `query` on the grid.  `analytic` holds that limit
    on the grid when the caller has already evaluated it."""
    params, model = query.params, query.model
    consts = norming_constants(model, params)
    mins, maxs = simulate_value_pairs(
        params, model, mode, RankPair(1, 1, Regime.LOWER_UPPER), replications, seed,
    )
    scale, center = statistic_normalization(query, consts)
    values = ((maxs - query._stat.sign * mins) * query._stat.weight - center) / scale

    grid = tuple(float(g) for g in grid)
    if analytic is None:
        analytic = limit_df(query, np.array(grid))
    config = {
        "m": params.m, "k": params.k, "n": params.n,
        "model": model.label(), "statistic": query.statistic,
        "index_mode": mode.label(), "law": query.law.label(),
        "replications": replications, "seed": seed, "grid_size": len(grid),
    }
    return tally_report(config, grid, lambda t: values < t, analytic, replications, seed)
