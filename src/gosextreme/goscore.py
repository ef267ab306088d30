"""Exact finite-sample distribution functions of m-GOS extremes.

Two index conventions coexist and are kept strictly separate:

* bottom ranks 1 <= r < s <= n, used by the direct double integral
  (`joint_df_direct`) and by the lower marginals;
* top ranks with s < r (r = 1 is the maximum, larger r lies deeper),
  used by `joint_upper_df` and the upper marginals.

They are linked by r_top = n - r_bottom + 1; the translation is covered
by tests rather than hidden behind one signature.

`joint_upper_df` evaluates the asymptotics-friendly single-integral
representation.  Note the finite-sample kernel is the beta-mixture
weight

    u^{R_r - 1} (1 - u/N)^{N - R_r} / (N^{R_r} B(R_r, N - R_r + 1)),

whose N -> infinity limit is the familiar u^{R_r-1} e^{-u} / Gamma(R_r)
gamma weight appearing in the limit family; with the gamma weight the
representation would hold only asymptotically, while this form is exact
(it reproduces the multinomial formula for ordinary order statistics to
quadrature accuracy).
"""

from __future__ import annotations

import math

from ._integrate import integrate
from .distributions import DistributionModel, cdf, survival
from .params import GosParams, RankPair, Regime
from .specfun import log_gamma, reg_inc_beta

JOINT_UPPER_ABS_TOL = 1e-9
JOINT_DIRECT_ABS_TOL = 1e-8


def lm(params: GosParams, model: DistributionModel, x: float) -> float:
    """L_m(x) = 1 - (1 - F(x))^(m+1); equals F itself when m = 0."""
    f = float(cdf(model, x))
    return -math.expm1((params.m + 1.0) * math.log1p(-f)) if f < 1.0 else 1.0


def lbar(params: GosParams, model: DistributionModel, x: float) -> float:
    """Survival transform 1 - L_m(x) = (1 - F(x))^(m+1), evaluated from
    the closed-form survival function so deep upper tails keep relative
    accuracy."""
    s = float(survival(model, x))
    if s <= 0.0:
        return 0.0
    return math.exp((params.m + 1.0) * math.log(s))


def _check_marginal_args(params: GosParams, r: int, x: float) -> None:
    if not 1 <= r <= params.n:
        raise ValueError(f"rank {r} out of range 1..{params.n}")
    if math.isnan(x):
        raise ValueError("marginal df is undefined at x = NaN")


def marginal_lower_df(
    params: GosParams, model: DistributionModel, r: int, x: float
) -> float:
    """df of the r-th m-GOS from the bottom: I_{L_m(x)}(r, N - r + 1)."""
    _check_marginal_args(params, r, x)
    lmx = lm(params, model, x)
    if lmx <= 0.0:
        return 0.0
    lbx = lbar(params, model, x)
    if lbx <= 0.0:
        return 1.0
    # Route through whichever transform carries the accurate tail.
    if lbx < 0.5:
        return 1.0 - reg_inc_beta(lbx, params.big_n - r + 1.0, float(r))
    return reg_inc_beta(lmx, float(r), params.big_n - r + 1.0)


def marginal_upper_df(
    params: GosParams, model: DistributionModel, r: int, x: float
) -> float:
    """df of the r-th m-GOS from the top: I_{L_m(x)}(N - R_r + 1, R_r)."""
    _check_marginal_args(params, r, x)
    lmx = lm(params, model, x)
    if lmx <= 0.0:
        return 0.0
    lbx = lbar(params, model, x)
    if lbx <= 0.0:
        return 1.0
    rr = params.rank_weight(r)
    if lbx < 0.5:
        return 1.0 - reg_inc_beta(lbx, rr, params.big_n - rr + 1.0)
    return reg_inc_beta(lmx, params.big_n - rr + 1.0, rr)


def joint_upper_df(
    params: GosParams,
    model: DistributionModel,
    pair: RankPair,
    x: float,
    y: float,
) -> float:
    """P(r-th from top < x, s-th from top < y), s < r, any real x, y.

    The x >= y branch collapses onto the shallower marginal at y; the
    x <= y branch is the single-integral representation described in the
    module docstring, integrated adaptively in u = N*t coordinates.
    """
    if pair.regime != Regime.UPPER_UPPER:
        raise ValueError(f"expected an upper-upper rank pair, got {pair.regime}")
    pair.validate_against(params.n)
    r, s = pair.r, pair.s
    p = lbar(params, model, x)
    q = lbar(params, model, y)
    if p <= q:
        return marginal_upper_df(params, model, s, y)

    big_n = params.big_n
    rr = params.rank_weight(r)
    rs = params.rank_weight(s)
    head = 1.0 - reg_inc_beta(p, rr, big_n - rr + 1.0) if p < 1.0 else 0.0
    if q <= 0.0:
        return head

    tail_exp = big_n - rr
    log_norm = (
        log_gamma(big_n + 1.0)
        - log_gamma(rr)
        - log_gamma(big_n - rr + 1.0)
        - rr * math.log(big_n)
    )
    nq = big_n * q

    def integrand(u: float) -> float:
        ratio = min(nq / u, 1.0)
        bfac = reg_inc_beta(ratio, rs, rr - rs)
        if bfac == 0.0 or u >= big_n:
            return 0.0
        log_kernel = (rr - 1.0) * math.log(u) + log_norm
        if tail_exp > 0.0:
            log_kernel += tail_exp * math.log1p(-u / big_n)
        return bfac * math.exp(log_kernel)

    lo = big_n * p
    # The kernel carries its mass on a gamma-like scale around R_r; the
    # discarded tail beyond the cap is below e^-60 of the total.
    hi = min(big_n, max(lo, rr) + 80.0 + 15.0 * math.sqrt(rr + 1.0))
    tail = integrate(integrand, lo, hi, JOINT_UPPER_ABS_TOL, points=[rr])
    return min(max(head - tail, 0.0), 1.0)


def joint_df_direct(
    params: GosParams,
    model: DistributionModel,
    r: int,
    s: int,
    x: float,
    y: float,
) -> float:
    """P(r-th from bottom < x, s-th from bottom < y) by the defining
    double integral over (F(x'), F(y')) space; 1 <= r < s <= n.

    Serves as the independent exactness oracle for `joint_upper_df`
    after the top/bottom index translation.  x > y reduces to the s-th
    lower marginal at y (df ordering), matching the single-integral
    route's branch convention.
    """
    if not 1 <= r < s <= params.n:
        raise ValueError(f"need 1 <= r < s <= n, got r={r}, s={s}, n={params.n}")
    fx = float(cdf(model, x))
    fy = float(cdf(model, y))
    if fx > fy:
        return marginal_lower_df(params, model, s, y)
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

    value = const * integrate(outer, 0.0, fx, outer_tol)
    return min(max(value, 0.0), 1.0)
