"""Reference routes and the invariant suite behind the CLI `selftest` verb.

No verb serves a value from here.  Each route is an independent numeric
form of what a serving module computes by finite sums or fixed rules:
the fixed-size limit families as written (`omega_uu`, `omega_ll`,
`omega_lu_product`, the marginal limits), which the `limit` verb's sums
of `randomindex` reduce to at any point mass; the defining double
integral of the exact joint df (`joint_df_direct`), the oracle of
`goscore`; quadrature forms of the published normal range and midrange
limits and of the two-sided range integral (`adaptive_pair_df`); and the
uniform m-GOS drawn whole (`sample_uniform_gos`), whose values the
simulator's blocked sampler reproduces bit for bit.  Each quadrature is
one QUADPACK call (`integrate`), the package's one use of
scipy.integrate, imported on the first call.

Limit families, with R_r = ell + r - 1 and the transforms of `limitlaws`:

  upper-upper (s < r, both ranks from the top), arguments kappa1 >= kappa2
  when x <= y because the transforms are nonincreasing:

      1 - Gamma_{R_r}(k1) - (1/Gamma(R_r)) *
          int_{k1}^{inf} I_{k2/u}(R_s, R_r - R_s) u^{R_r-1} e^{-u} du,

  with k_i = kappa_i^(m+1); on x >= y it collapses to the shallower
  marginal 1 - Gamma_{R_s}(k2).

  lower-lower (r < s, from the bottom; no m, k dependence):

      Gamma_s(rho2) on x >= y, else
      (1/(r-1)!) int_0^{rho1} Gamma_{s-r}(rho2 - u) u^{r-1} e^{-u} du.

  lower-upper: the product Gamma_r(rho1) * [1 - Gamma_{R_s}(kappa2^(m+1))].

A transform value or power kappa^(m+1) beyond the largest float is
taken as +inf (`GosParams.kappa_power`), where every df above is 0.

The invariant suite is a registry of named checks returning (ok, detail):
the fast tier covers the analytic invariants, the full tier adds the
seeded Monte Carlo confirmations.  It ships so that a deployed install
can vouch for itself without the test tree, which runs every check.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

from . import goscore, ranges
from .distributions import (
    DistributionModel,
    cdf,
    norming_constants,
    parse_model,
    quantile,
    tail_transform,
)
from .limitlaws import kappa
from .montecarlo import IndexMode, SimConfig, _column_sums, _Streams, run_bivariate_sim
from .params import ExtremeSide, GosParams, RankPair, Regime
from .randomindex import IndexLaw, index_kernel, mixture_ll, mixture_lu, mixture_marginal, mixture_uu
from .specfun import clip_probability, log_gamma, reg_inc_beta, reg_inc_gamma, reg_inc_gamma_upper

OMEGA_ABS_TOL = 1e-10
JOINT_DIRECT_ABS_TOL = 1e-8


def integrate(f: Callable[[float], float], lo: float, hi: float, abs_tol: float) -> float:
    """Integral of f over (lo, hi), hi may be +inf, by one QUADPACK call of at
    most 800 subintervals; an error estimate above abs_tol raises."""
    from scipy import integrate as sci

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sci.IntegrationWarning)
        value, err = sci.quad(f, lo, hi, epsabs=abs_tol / 10.0, epsrel=0.0, limit=800)
    if err > abs_tol:
        raise ranges.QuadratureError(f"integral over ({lo}, {hi}) did not converge "
                                     f"to {abs_tol:.1e}", err)
    return value


# --- fixed-size limit families ----------------------------------------------


def omega_uu(params: GosParams, r: int, s: int, kappa1: float, kappa2: float) -> float:
    """Upper-upper limit df evaluated at transform values (kappa1, kappa2).

    The x <= y branch corresponds to kappa1 >= kappa2.
    """
    if not s < r:
        raise ValueError(f"upper-upper requires s < r, got r={r}, s={s}")
    if kappa1 < 0.0 or kappa2 < 0.0 or math.isnan(kappa1) or math.isnan(kappa2):
        raise ValueError("transform values must be in [0, +inf]")
    k1, k2 = params.kappa_power(kappa1), params.kappa_power(kappa2)
    rr = params.rank_weight(r)
    rs = params.rank_weight(s)
    if k1 <= k2:
        # x >= y: the joint collapses onto the shallower marginal.
        return reg_inc_gamma_upper(rs, k2)
    if math.isinf(k1):
        return 0.0
    head = reg_inc_gamma_upper(rr, k1)
    if k2 == 0.0:
        return head
    log_norm = log_gamma(rr)
    bshape_a, bshape_b = rs, rr - rs

    def integrand(u: float) -> float:
        ratio = k2 / u
        if ratio >= 1.0:
            ratio = 1.0
        beta_factor = reg_inc_beta(ratio, bshape_a, bshape_b)
        if beta_factor == 0.0:
            return 0.0
        return beta_factor * math.exp((rr - 1.0) * math.log(u) - u - log_norm)

    tail = integrate(integrand, k1, math.inf, OMEGA_ABS_TOL)
    return clip_probability(head - tail)


def omega_ll(r: int, s: int, rho1: float, rho2: float) -> float:
    """Lower-lower limit df at transform values (rho1, rho2); r < s."""
    if not r < s:
        raise ValueError(f"lower-lower requires r < s, got r={r}, s={s}")
    if rho1 < 0.0 or rho2 < 0.0 or math.isnan(rho1) or math.isnan(rho2):
        raise ValueError("transform values must be in [0, +inf]")
    if rho1 >= rho2:
        # x >= y branch: the deeper coordinate is inactive.
        return reg_inc_gamma(s, rho2)
    if rho1 == 0.0:
        return 0.0
    log_norm = log_gamma(float(r))
    diff = s - r

    def integrand(u: float) -> float:
        gam = reg_inc_gamma(diff, max(rho2 - u, 0.0))
        if gam == 0.0:
            return 0.0
        if u <= 0.0:
            return gam if r == 1 else 0.0
        return gam * math.exp((r - 1.0) * math.log(u) - u - log_norm)

    return clip_probability(integrate(integrand, 0.0, rho1, OMEGA_ABS_TOL))


def omega_lu_product(params: GosParams, r: int, s: int, rho1: float, kappa2: float) -> float:
    """Lower-upper limit: product of the two univariate limit marginals."""
    if r < 1 or s < 1:
        raise ValueError("ranks must be >= 1")
    lower = reg_inc_gamma(float(r), rho1)
    upper = reg_inc_gamma_upper(params.rank_weight(s), params.kappa_power(kappa2))
    return lower * upper


def upper_marginal_limit(params: GosParams, r: int, kappa_value: float) -> float:
    """Fixed-size limit df of the r-th extreme from the top."""
    return reg_inc_gamma_upper(params.rank_weight(r), params.kappa_power(kappa_value))


def lower_marginal_limit(r: int, rho_value: float) -> float:
    """Fixed-size limit df of the r-th extreme from the bottom."""
    return reg_inc_gamma(float(r), rho_value)


# --- exact joint df ----------------------------------------------------------


def joint_df_direct(params: GosParams, model: DistributionModel, r: int, s: int,
                    x: float, y: float) -> float:
    """P(r-th from bottom < x, s-th from bottom < y) by the defining
    double integral over (F(x'), F(y')) space; 1 <= r < s <= n.

    Serves as the independent exactness oracle for `goscore.joint_df` at
    lower-lower pairs, and at upper-upper pairs after the top/bottom index
    translation.  x > y reduces to the s-th lower marginal at y (df
    ordering), as `joint_df` does.

    Its 1e-8 target holds for small n only, since the 1e-13 floor of both
    tolerances is scaled by `const` ~ N^s: on logistic configurations it
    held up to n = 2000 at (r, s) = (1, 2) but missed by 1e-7 at n = 200
    and by 0.16 at n = 2000 at (2, 5), where values beyond [0, 1] raise.
    """
    if not 1 <= r < s <= params.n:
        raise ValueError(f"need 1 <= r < s <= n, got r={r}, s={s}, n={params.n}")
    fx = float(cdf(model, x))
    fy = float(cdf(model, y))
    if fx > fy:
        return goscore.marginal_lower_df(params, model, s, y)
    if fx <= 0.0:
        return 0.0

    mp1 = params.m + 1.0
    gamma_s = params.gamma_j(s)
    log_const = (
        2.0 * math.log(mp1)
        + log_gamma(params.big_n + 1.0)
        - log_gamma(params.big_n - s + 1.0)
        - log_gamma(float(r))
        - log_gamma(float(s - r))
    )
    const = math.exp(log_const)
    # Error budget: the result is const * (outer integral), and the inner
    # quadrature noise enters the outer integrand directly, so both
    # tolerances are deflated by const (with a floor near machine noise).
    inner_tol = max(JOINT_DIRECT_ABS_TOL / (20.0 * max(const, 1.0)), 1e-13)
    outer_tol = max(JOINT_DIRECT_ABS_TOL / (2.0 * max(const, 1.0)), 1e-13)

    def inner(xi: float) -> float:
        xibar = 1.0 - xi
        xibar_pow = xibar**mp1

        def integrand(eta: float) -> float:
            etabar = 1.0 - eta
            diff = xibar_pow - etabar**mp1
            if diff <= 0.0:
                return 0.0 if s - r - 1 > 0 else etabar ** (gamma_s - 1.0)
            return etabar ** (gamma_s - 1.0) * diff ** (s - r - 1)

        return integrate(integrand, xi, fy, inner_tol)

    def outer(xi: float) -> float:
        xibar = 1.0 - xi
        weight = xibar**params.m * (1.0 - xibar**mp1) ** (r - 1)
        return weight * inner(xi) if weight != 0.0 else 0.0

    return clip_probability(const * integrate(outer, 0.0, fx, outer_tol))


# --- normal range and midrange ----------------------------------------------


def normal_range_integral(r: float) -> float:
    """Quadrature form int_0^inf y^2 / (y^2 + y + e^-r)^2 dy of the
    standard-normal (m=0, k=1) random range limit, the independent route
    to `ranges.normal_range_closed_form`."""
    c = math.exp(-r)

    def integrand(y: float) -> float:
        den = y * y + y + c
        return y * y / (den * den)

    return integrate(integrand, 0.0, math.inf, ranges.RANGE_ABS_TOL)


def normal_midrange_integral(v: float) -> float:
    """Quadrature form 1 - int_0^inf dy / (y (e^{2v}+1) + 1)^2 of the
    standard-normal random midrange limit, the logistic law 1/(1 + e^{-2v})."""
    slope = math.exp(2.0 * v) + 1.0

    def integrand(y: float) -> float:
        den = y * slope + 1.0
        return 1.0 / (den * den)

    return 1.0 - integrate(integrand, 0.0, math.inf, ranges.RANGE_ABS_TOL)


def adaptive_pair_df(query: ranges.RangeQuery, t: float) -> float:
    """A two-sided case's df at one t by the adaptive `integrate` over the
    range rule's truncated s-interval, graded toward the pair's edge by
    s = edge + L y^2 where that interval ends there: the reference route
    that the `range-fixed-rule` check and the tests hold the nested rule
    (`ranges._pair_df`, which grades in its sinh-mapped variable) to."""
    if math.isinf(query._eta):
        raise ValueError("single-sided cases take no quadrature")
    t = np.array([t * query._stretch])
    head, lo, hi, c_of = ranges._pair(query, t)
    s_lo, s_hi = query._s_extent
    a, b, tol = float(max(lo[0], s_lo)), float(min(hi[0], s_hi)), ranges.RANGE_ABS_TOL

    def integrand(s: float) -> float:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return index_kernel(query.law, 1.0, math.exp(s), query.params.ell, c_of(s, t[0]))

    if not a < b:
        return float(head[0])
    if hi[0] < s_hi or lo[0] > s_lo:
        # The pair's own end lies inside, where the integrand goes like
        # (s - edge)^(alpha ell): QUADPACK's error estimate misses that layer
        # in s, so take s = edge + L y^2 over y in [0, 1].
        edge, span = (b, a - b) if hi[0] < s_hi else (a, b - a)
        integral = integrate(lambda y: integrand(edge + span * y * y) * 2.0 * y * abs(span),
                             0.0, 1.0, tol)
    else:
        integral = integrate(integrand, a, b, tol)
    return float(head[0]) + integral


# --- the uniform m-GOS, drawn whole ------------------------------------------


def sample_uniform_gos(params: GosParams, size: int, rng: np.random.Generator,
                       carried_uniform: float | None = None) -> np.ndarray:
    """Ascending uniform m-GOS vector of the given sample size; a carried
    uniform replaces the middle factor W_ceil(size/2).  The simulator's
    blocked sums give the same values from the same stream."""
    if size < 1:
        raise ValueError("size must be >= 1")
    w = rng.random(size)
    if carried_uniform is not None:
        w[(size - 1) // 2] = carried_uniform
    gammas = params.k + (size - np.arange(1, size + 1)) * (params.m + 1.0)
    csum = np.cumsum(np.log(w) / gammas)
    return -np.expm1(csum)


# --- invariant suite ---------------------------------------------------------

_REGISTRY: list[tuple[str, bool, Callable]] = []


def _check(name: str, slow: bool = False):
    def wrap(fn):
        _REGISTRY.append((name, slow, fn))
        return fn

    return wrap


@_check("specfun-complement-identity")
def _specfun_complement():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(2000):
        a, b = float(rng.uniform(0.05, 40.0)), float(rng.uniform(0.05, 40.0))
        x = float(rng.uniform(0.0, 1.0))
        worst = max(worst, abs(reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) - 1.0))
    return worst <= 1e-12, f"max complement defect {worst:.2e}"


@_check("specfun-gamma-poisson-sum")
def _specfun_poisson():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(2000):
        k = int(rng.integers(1, 18))
        x = float(rng.uniform(0.0, 45.0))
        tail = sum(x**j / math.factorial(j) for j in range(k))
        oracle = 1.0 - math.exp(-x) * tail
        worst = max(worst, abs(reg_inc_gamma(float(k), x) - oracle))
    return worst <= 1e-12, f"max defect vs Poisson sum {worst:.2e}"


@_check("specfun-gamma-saturation")
def _specfun_tail():
    bad = [
        r for r in (0.3, 1.0, 2.5, 7.0, 30.0, 150.0)
        if not reg_inc_gamma(r, r + 40.0 * math.sqrt(r)) > 1.0 - 1e-10
    ]
    return not bad, f"non-saturating shapes: {bad}" if bad else "saturates at r + 40 sqrt(r)"


@_check("distributions-roundtrip")
def _dist_roundtrip():
    specs = [
        "cauchy", "normal", "logistic", "laplace", "lognormal",
        "pareto(sigma=2)", "exponential(sigma=0.5)", "rayleigh(sigma=2)",
        "uniform(theta=3)", "beta(alpha=2,beta=3)", "power(alpha=1.5)",
    ]
    ps = np.linspace(0.01, 0.99, 25)
    worst = 0.0
    for spec in specs:
        model = parse_model(spec)
        x = quantile(model, ps)
        worst = max(worst, float(np.max(np.abs(cdf(model, x) - ps))))
    return worst <= 1e-9, f"max |F(F^-1(p)) - p| = {worst:.2e}"


@_check("distributions-norming-convergence")
def _dist_norming():
    # Exact-constant families sit at the noise floor (ties allowed via
    # the 1e-8 slack); the others must show genuinely shrinking error.
    grid = [-1.0, -0.3, 0.4, 1.1, 2.0]
    failures = []
    for spec, m, k in [("exponential(sigma=1)", 0.0, 1.0), ("cauchy", 1.0, 2.0),
                       ("uniform(theta=1)", 0.0, 1.0), ("normal", 0.0, 1.0),
                       ("beta(alpha=2,beta=2)", 0.0, 1.0)]:
        model = parse_model(spec)
        up = tail_transform(model, ExtremeSide.UPPER)
        errs = []
        for n in (10**3, 10**5, 10**7):
            params = GosParams(m=m, k=k, n=n)
            c = norming_constants(model, params)
            e = max(
                abs(params.big_n * goscore.lbar(params, model, c.a * x + c.b)
                    - kappa(up, x) ** (m + 1.0))
                for x in grid if kappa(up, x) < math.inf
            )
            errs.append(e)
        if not (errs[0] >= errs[1] - 1e-8 and errs[1] >= errs[2] - 1e-8):
            failures.append((spec, errs))
    return not failures, f"non-decreasing error: {failures}" if failures else "errors shrink with n"


@_check("goscore-exactness")
def _goscore_exact():
    # n = 5 only: the direct route meets its 1e-8 target at small n alone
    # (see joint_df_direct), so it cannot vouch for the sums at large n.
    uni = parse_model("power(alpha=1)")
    # the same two ranks of n = 5, counted from the top and from the bottom
    pairs = (RankPair(r=2, s=1, regime=Regime.UPPER_UPPER),
             RankPair(r=4, s=5, regime=Regime.LOWER_LOWER))
    worst = 0.0
    for m, k in [(0.0, 1.0), (1.0, 2.0), (-0.5, 1.0)]:
        params = GosParams(m=m, k=k, n=5)
        for x in (0.3, 0.6):
            for y in (0.5, 0.9):
                b = joint_df_direct(params, uni, 4, 5, x, y)
                for pair in pairs:
                    worst = max(worst, abs(goscore.joint_df(params, uni, pair, x, y) - b))
    return worst <= 1e-7, f"max |Dirichlet sum - direct| = {worst:.2e}"


@_check("goscore-rectangle-inequality")
def _goscore_rect():
    uni = parse_model("power(alpha=1)")
    params = GosParams(m=0.5, k=1.0, n=6)
    pair = RankPair(r=2, s=1, regime=Regime.UPPER_UPPER)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(40):
        x1, x2 = sorted(rng.uniform(0.05, 0.95, 2))
        y1, y2 = sorted(rng.uniform(0.05, 0.95, 2))
        val = (
            goscore.joint_df(params, uni, pair, x2, y2)
            - goscore.joint_df(params, uni, pair, x1, y2)
            - goscore.joint_df(params, uni, pair, x2, y1)
            + goscore.joint_df(params, uni, pair, x1, y1)
        )
        worst = min(worst, val)
    return worst >= -1e-9, f"most negative rectangle mass {worst:.2e}"


@_check("limitlaws-diagonal-continuity")
def _limit_diag():
    worst = 0.0
    for m, k in [(0.0, 1.0), (1.0, 2.0), (-0.5, 1.0)]:
        params = GosParams(m=m, k=k, n=10)
        for r, s in [(2, 1), (3, 1), (3, 2)]:
            for val in (0.4, 1.0, 2.3):
                a = omega_uu(params, r, s, val * (1.0 + 1e-12), val)
                b = omega_uu(params, r, s, val, val)
                worst = max(worst, abs(a - b))
    for r, s in [(1, 2), (1, 3), (2, 4)]:
        for val in (0.4, 1.0, 2.3):
            a = omega_ll(r, s, val, val)
            b = reg_inc_gamma(float(s), val)
            worst = max(worst, abs(a - b))
    return worst <= 1e-9, f"max diagonal defect {worst:.2e}"


@_check("randomindex-degenerate-reduction")
def _mix_degenerate():
    rng = np.random.default_rng(11)
    deg = IndexLaw.degenerate(1.0)
    worst = 0.0
    for _ in range(20):
        m = float(rng.uniform(-0.5, 1.5))
        k = float(rng.uniform(0.5, 3.0))
        params = GosParams(m=m, k=k, n=10)
        s = int(rng.integers(1, 3))
        r = s + int(rng.integers(1, 3))
        k1 = float(rng.uniform(0.1, 3.0))
        k2 = float(rng.uniform(0.0, k1))
        worst = max(worst, abs(
            mixture_uu(params, r, s, k1, k2, deg) - omega_uu(params, r, s, k1, k2)))
        rho1 = float(rng.uniform(0.1, 2.0))
        rho2 = rho1 + float(rng.uniform(0.0, 2.0))
        worst = max(worst, abs(
            mixture_ll(s, r, rho1, rho2, deg) - omega_ll(s, r, rho1, rho2)))
    return worst <= 1e-10, f"max degenerate-law defect {worst:.2e}"


@_check("randomindex-closed-forms")
def _mix_closed():
    params = GosParams(m=0.0, k=1.0, n=50)
    law = IndexLaw.unit_exponential()
    worst = abs(mixture_marginal(ExtremeSide.UPPER, params, 1, 1.0, law) - 0.5)
    for x in (-1.0, 0.0, 2.0):
        got = mixture_marginal(ExtremeSide.UPPER, params, 1, math.exp(-x), law)
        worst = max(worst, abs(got - 1.0 / (1.0 + math.exp(-x))))
    worst = max(worst, abs(mixture_lu(params, 1, 1, 1.0, 1.0, law) - 1.0 / 6.0))
    return worst <= 1e-8, f"max closed-form defect {worst:.2e}"


@_check("randomindex-exponential-q")
def _mix_exponential_q():
    # At shape 1 the exponential-law kernel is w^j / (1+w+c)^(j+1); hold it
    # to the beta-ratio route that every other shape takes, front times
    # 1 - I_{c/(1+w+c)}(1, j+1), where that route keeps its digits
    # (c < (1+w)/(j+1), small j).
    rng = np.random.default_rng(23)
    law = IndexLaw.unit_exponential()
    worst = 0.0
    for j in (0.0, 1.0, 2.0, 3.0):
        w = 10.0 ** rng.uniform(-3.0, 3.0, 200)
        c = 10.0 ** rng.uniform(-6.0, 0.0, 200) * (1.0 + w) / (j + 1.0)
        front = (w / (1.0 + w)) ** j / (1.0 + w)
        general = front * (1.0 - reg_inc_beta(c / (1.0 + w + c), 1.0, j + 1.0))
        worst = max(worst, float(np.max(np.abs(index_kernel(law, j, w, 1.0, c) / general - 1.0))))
    ulps = worst / np.finfo(float).eps
    return ulps <= 8.0, f"max shape-1 gap to the beta-ratio route {ulps:.1f} ulps"


@_check("randomindex-uniqueness")
def _mix_unique():
    params = GosParams(m=0.0, k=1.0, n=50)
    law = IndexLaw.unit_exponential()
    sep = 0.0
    for x in (0.5, 1.0, 2.0, 4.0):
        a = mixture_marginal(ExtremeSide.UPPER, params, 1, x**-1.0, law)
        b = mixture_marginal(ExtremeSide.UPPER, params, 1, x**-2.0, law)
        sep = max(sep, abs(a - b))
    return sep >= 1e-4, f"max separation between alpha=1 and alpha=2 mixtures {sep:.2e}"


@_check("ranges-normal-closed-form")
def _ranges_normal():
    ln4 = math.log(4.0)
    worst = abs(ranges.normal_range_closed_form(ln4) - 2.0 / 3.0)
    for r in (-1.0, 0.0, 1.0, 2.0, 4.0):
        worst = max(worst, abs(normal_range_integral(r) - ranges.normal_range_closed_form(r)))
    return worst <= 1e-6, f"max defect {worst:.2e}"


@_check("ranges-midrange-logistic")
def _ranges_mid():
    params = GosParams(m=0.0, k=1.0, n=100)
    q = ranges.RangeQuery(
        model=parse_model("normal"), params=params,
        law=IndexLaw.unit_exponential(), statistic="midrange",
    )
    worst = max(
        abs(ranges.midrange_limit_df(q, v) - 1.0 / (1.0 + math.exp(-2.0 * v)))
        for v in np.linspace(-2.5, 2.5, 11)
    )
    return worst <= 1e-7, f"max defect vs logistic closed form {worst:.2e}"


@_check("ranges-coincidence")
def _ranges_coincide():
    law = IndexLaw.unit_exponential()
    worst = 0.0
    for spec, m in [("pareto(sigma=2)", 0.5), ("lognormal", 0.0),
                    ("exponential(sigma=1)", 1.0), ("rayleigh(sigma=1)", 0.0),
                    ("cauchy", -0.5)]:
        params = GosParams(m=m, k=1.0, n=50)
        model = parse_model(spec)
        qr = ranges.RangeQuery(model=model, params=params, law=law, statistic="range")
        qv = ranges.RangeQuery(model=model, params=params, law=law, statistic="midrange")
        for t in (0.5, 1.0, 2.5):
            worst = max(worst, abs(ranges.range_limit_df(qr, t) - ranges.midrange_limit_df(qv, t)))
    return worst <= 1e-9, f"max range/midrange gap on coincidence cases {worst:.2e}"


@_check("range-fixed-rule")
def _range_fixed_rule():
    # The two-sided ranges sum scipy/numpy ufuncs over nested Clenshaw-Curtis
    # nodes; hold them to the adaptive route on a few cases of each pair
    # integrand, so that a numpy or scipy build whose ufuncs differ shows.
    # Under the table law a weibull pair's head is a sum of segment masses.
    table = IndexLaw.tabulated([(0.3, 0.0), (0.9, 0.2), (1.3, 0.6), (3.1, 1.0)])
    cases = [
        ("normal", "range", IndexLaw.degenerate(1.0), 0.0, 1.0, 0.5),
        ("logistic", "midrange", IndexLaw.unit_exponential(), 1.2, 1.3, 8.6),
        ("beta(alpha=4,beta=2)", "midrange", IndexLaw.unit_exponential(), 1.0, 1.0, 0.3),
        ("uniform(theta=1)", "range", IndexLaw.degenerate(2.0), 0.0, 1.0, -0.5),
        ("cauchy", "range", IndexLaw.tabulated([(0.5, 0.0), (1.5, 1.0)]), 0.0, 1.0, 2.0),
        ("cauchy", "midrange", IndexLaw.degenerate(1.0), 0.0, 1.0, -1.5),
        ("uniform(theta=1)", "range", table, 0.0, 1.0, -0.5),
        ("beta(alpha=4,beta=2)", "midrange", table, 1.0, 1.0, 0.3),
    ]
    worst = 0.0
    for spec, stat, law, m, k, t in cases:
        query = ranges.RangeQuery(model=parse_model(spec), params=GosParams(m=m, k=k, n=50),
                                  law=law, statistic=stat)
        worst = max(worst, abs(ranges._limit_df(query, t) - adaptive_pair_df(query, t)))
    return worst <= ranges.RANGE_ABS_TOL, f"max fixed-rule vs adaptive gap {worst:.2e}"


@_check("montecarlo-determinism")
def _mc_determinism():
    cfg = SimConfig(
        params=GosParams(m=0.0, k=1.0, n=60),
        model=parse_model("exponential(sigma=1)"),
        ranks=RankPair(r=1, s=1, regime=Regime.LOWER_UPPER),
        index_mode=IndexMode.parse("geometric"),
        replications=400, seed=31,
        eval_grid=tuple((math.inf, x) for x in (-1.0, 0.0, 1.0)),
    )
    a, b = run_bivariate_sim(cfg), run_bivariate_sim(cfg)
    same = a.to_json() == b.to_json()
    return same, "re-run is byte-identical" if same else "re-run differs"


@_check("montecarlo-stream-identity")
def _mc_stream_identity():
    # The sampler re-keys one Philox per call by its counter, which relies
    # on the installed numpy's Philox state layout: stream i must be
    # Philox(key=seed).jumped(i) even after the generator was left dirty.
    bad = []
    for seed, replication in [(0, 0), (1, 1), (31, 49), (2**40 + 3, 999), (7, 123456)]:
        streams = _Streams(seed)
        dirty = streams.start(replication + 1)
        dirty.random(3)
        dirty.integers(0, 10, dtype=np.uint32)
        got = streams.start(replication)
        want = np.random.Generator(np.random.Philox(key=seed).jumped(replication))
        same = (
            got.geometric(1e-3) == want.geometric(1e-3)
            and np.array_equal(got.random(37), want.random(37))
            and np.array_equal(got.integers(0, 10, 3, dtype=np.uint32),
                               want.integers(0, 10, 3, dtype=np.uint32))
        )
        if not same:
            bad.append((seed, replication))
    return not bad, (
        f"counter reset differs from jumped(i) at (seed, i) = {bad}" if bad
        else "counter reset gives stream i"
    )


@_check("montecarlo-sum-order")
def _mc_sum_order():
    # The sampler advances a tile of replications together, positions down
    # the rows, and relies on the installed numpy's add.reduce(axis=0)
    # adding the rows in order over two or more columns, which gives each
    # column its own cumsum's last entry; a lone column, which add.reduce
    # sums pairwise, must take cumsum.
    rng = np.random.default_rng(19)
    bad = []
    for positions in (2, 9, 16, 100, 257, 1025, 4097):
        values = np.log(rng.random((positions, 64))) / rng.uniform(1.0, 50.0, (positions, 1))
        for columns in (1, 2, 3, 8, 64):
            tile = np.ascontiguousarray(values[:, :columns])
            want = [np.cumsum(tile[:, c])[-1] for c in range(columns)]
            if not np.array_equal(_column_sums(tile), want):
                bad.append((positions, columns))
    return not bad, (
        f"tile sums differ from cumsum at (positions, columns) = {bad}" if bad
        else "tile sums add positions in order"
    )


@_check("montecarlo-marginal-sanity", slow=True)
def _mc_marginal():
    params = GosParams(m=0.5, k=1.0, n=50)
    model = parse_model("power(alpha=1)")
    consts = norming_constants(model, params)
    grid = tuple((math.inf, x) for x in np.linspace(-3.0, 1.0, 9))
    cfg = SimConfig(
        params=params, model=model,
        ranks=RankPair(r=1, s=2, regime=Regime.LOWER_UPPER),
        index_mode=IndexMode.parse("fixed"),
        replications=10000, seed=17, eval_grid=grid,
    )
    rep = run_bivariate_sim(cfg)
    worst = 0.0
    for (_, x), e, se in zip(rep.grid, rep.empirical, rep.standard_errors):
        exact = goscore.marginal_upper_df(params, model, 2, consts.b + consts.a * x)
        worst = max(worst, abs(e - exact) / max(3.0 * se, 3e-4))
    return worst <= 1.0, f"worst |emp - exact| / (3 SE) = {worst:.2f}"


@_check("montecarlo-geometric-logistic", slow=True)
def _mc_logistic():
    grid = tuple((math.inf, x) for x in np.linspace(-3.0, 3.0, 21))
    cfg = SimConfig(
        params=GosParams(m=0.0, k=1.0, n=500),
        model=parse_model("exponential(sigma=1)"),
        ranks=RankPair(r=1, s=1, regime=Regime.LOWER_UPPER),
        index_mode=IndexMode.parse("geometric"),
        replications=20000, seed=20240817, eval_grid=grid,
    )
    rep = run_bivariate_sim(cfg)
    bound = 3.0 * max(rep.standard_errors)
    return rep.sup_distance <= bound, (
        f"sup distance {rep.sup_distance:.4f} vs 3 max SE {bound:.4f}"
    )


def run(fast: bool = False) -> tuple[int, int, list[str]]:
    """Execute the registered checks; returns (passed, failed, lines)."""
    passed = failed = 0
    lines = []
    for name, slow, fn in _REGISTRY:
        if fast and slow:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - a crash is a failure
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if ok:
            passed += 1
        else:
            failed += 1
    lines.append(f"{passed} passed, {failed} failed")
    return passed, failed, lines
