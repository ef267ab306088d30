"""Attraction-domain transforms and the three bivariate limit families.

The transforms map a normalized coordinate into the nonneg argument of
the limit law:

  upper side (max-type):   frechet(a): x^(-a) on x>0, +inf otherwise
                           weibull(a): (-x)^a on x<=0, 0 otherwise
                           gumbel:     e^(-x)
  lower side (min-type):   frechet(b): (-x)^(-b) on x<0, +inf otherwise
                           weibull(b): x^b on x>=0, 0 otherwise
                           gumbel:     e^x

Note the published domain annotations for the upper Frechet/Weibull pair
are swapped relative to these (with them the limit expressions fail to
be distribution functions); the standard domains above are used.

Limit families, with R_r = ell + r - 1:

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

These are the independent reference routes, taken as written: the `limit`
verb serves the finite sums of `randomindex` under the point mass 1,
which reduce to these at any point mass, so the two modules check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import integrate
from .params import ExtremeSide, GosParams
from .specfun import clip_probability, log_gamma, reg_inc_beta, reg_inc_gamma, reg_inc_gamma_upper

OMEGA_ABS_TOL = 1e-10


@dataclass(frozen=True)
class TailTransform:
    """One side's attraction type: kind in {frechet, weibull, gumbel}."""

    side: ExtremeSide
    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("frechet", "weibull", "gumbel"):
            raise ValueError(f"unknown tail kind {self.kind!r}")
        if self.kind == "gumbel":
            if self.alpha is not None:
                raise ValueError("gumbel transform takes no exponent")
        elif self.alpha is None or not self.alpha > 0.0:
            raise ValueError(f"{self.kind} transform requires alpha > 0")


def kappa(transform: TailTransform, x):
    """Upper-side transform of a float or an array; nonincreasing in x,
    values in [0, +inf]."""
    if transform.side != ExtremeSide.UPPER:
        raise ValueError("kappa expects an upper-side transform")
    return _transform(transform, x, 1.0)


def rho(transform: TailTransform, x):
    """Lower-side transform of a float or an array; nondecreasing in x,
    values in [0, +inf]."""
    if transform.side != ExtremeSide.LOWER:
        raise ValueError("rho expects a lower-side transform")
    return _transform(transform, x, -1.0)


def _transform(transform: TailTransform, x, sign: float):
    """The upper-side form at u = sign * x; the lower side is its mirror
    image.  Values beyond the largest float are +inf."""
    u = sign * np.asarray(x, dtype=float)
    if np.isnan(u).any():
        raise ValueError(f"tail transforms are undefined at NaN, got {x}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if transform.kind == "frechet":
            value = np.where(u > 0.0, u ** -transform.alpha, np.inf)
        elif transform.kind == "weibull":
            value = np.where(u <= 0.0, (-u) ** transform.alpha, 0.0)
        else:
            value = np.exp(-u)
    return value if value.ndim else float(value)


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


def omega_lu_product(
    params: GosParams, r: int, s: int, rho1: float, kappa2: float
) -> float:
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
