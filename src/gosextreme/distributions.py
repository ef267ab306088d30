"""Parent distribution families with cdf, quantile, tail types and
normalizing constants for the extremes of the m-GOS model.

Families (spec string grammar in parentheses, case-insensitive):

    cauchy, normal, logistic, laplace, lognormal     -- no parameters
    pareto(sigma=...), exponential(sigma=...), rayleigh(sigma=...)
    uniform(theta=...)                               -- uniform on (-theta, theta)
    beta(alpha=..., beta=...), power(alpha=...)

All cdf/quantile pairs are closed forms except the beta family and the
normal/lognormal quantiles, which go through scipy.special.  Values
accept floats or numpy arrays.  Parameters must be positive and finite.

Every fact about a family is a field of its record in `_FAMILIES`, and no
other module tells families apart: besides the functions above, the tail
types and norming inverses or constants, the range scale ratio `eta_limit`
(UnsupportedCaseError where no limit is published) and the published range
conventions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special as sc

from .limitlaws import TailTransform
from .params import ExtremeSide, GosParams, number_label, parse_number
from .specfun import log_gamma


class NoAttractionError(ValueError):
    """The requested family/side has no usable attraction setup here."""


class UnsupportedCaseError(ValueError):
    """No published limit form for this family/m/statistic combination."""


@dataclass(frozen=True)
class NormingConstants:
    """(a, b) normalize the upper extreme, (c, d) the lower one."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.c > 0.0):
            raise ValueError("scale constants must be positive")


@dataclass(frozen=True)
class _Family:
    param_names: tuple[str, ...]
    cdf: Callable
    sf: Callable  # survival 1 - F, cancellation-free in the upper tail
    quantile: Callable
    support: Callable
    upper_tail: Callable
    lower_tail: Callable
    eta: Callable  # (prm, m) -> `eta_limit`
    # Tail-accurate inverses used when building normalizing constants:
    # isf(u) = F^-1(1-u) for the frechet and gumbel upper tails (the normal
    # family has closed-form constants); upper_gap(u) = right_end - F^-1(1-u)
    # for the weibull upper tails; lower_gap(p) = F^-1(p) - left_end for the
    # weibull lower tails (the quantile itself where left_end is 0).
    isf: Callable | None = None
    upper_gap: Callable | None = None
    lower_gap: Callable | None = None
    norming: Callable | None = None  # (model, params) -> (a, b, c, d), in place of the quantiles
    centred: bool = False  # the published range examples centre the statistic at 0
    midrange_stretch: Callable = lambda params: 1.0  # published midrange scale over a_n/2


@dataclass(frozen=True)
class DistributionModel:
    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        spec = _FAMILIES.get(self.family)
        if spec is None:
            raise ValueError(
                f"unknown family {self.family!r}; valid families: {valid_families()}"
            )
        missing = [p for p in spec.param_names if p not in self.params]
        extra = [p for p in self.params if p not in spec.param_names]
        if missing or extra:
            raise ValueError(
                f"{self.family} takes parameters {list(spec.param_names)}, "
                f"got {sorted(self.params)}"
            )
        for name, value in self.params.items():
            if not value > 0.0:
                raise ValueError(f"{self.family} parameter {name} must be positive")
            if value == math.inf:
                raise ValueError(f"{self.family} parameter {name} must be finite, got inf")

    @property
    def record(self) -> _Family:
        return _FAMILIES[self.family]

    def support(self) -> tuple[float, float]:
        return self.record.support(self.params)

    def label(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={number_label(v)}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"


def cdf(model: DistributionModel, x):
    """F(x); array-aware, clamped to [0, 1] by construction."""
    return model.record.cdf(model.params, x)


def survival(model: DistributionModel, x):
    """1 - F(x) without upper-tail cancellation."""
    return model.record.sf(model.params, x)


def quantile(model: DistributionModel, p):
    """F^{-1}(p) for p strictly inside (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise ValueError("quantile requires probabilities strictly in (0, 1)")
    return model.record.quantile(model.params, p)


def tail_transform(model: DistributionModel, side: ExtremeSide) -> TailTransform:
    """Attraction type (the kappa/rho transform) of the given side."""
    spec = model.record
    maker = spec.upper_tail if side == ExtremeSide.UPPER else spec.lower_tail
    kind, alpha = maker(model.params)
    return TailTransform(side=side, kind=kind, alpha=alpha)


def eta_limit(model: DistributionModel, params: GosParams) -> float:
    """lim a_n / c_n for the family at the given m (may be 0 or +inf)."""
    return model.record.eta(model.params, params.m)


def example_model(family: str, m: float, options: dict) -> DistributionModel:
    """The family's model in the published range examples: each parameter is
    the option of that name; alpha None is (m+1)*beta, beta = 1 for power."""
    prm = {name: options[name] for name in _FAMILIES[family].param_names}
    if prm.get("alpha", 0.0) is None:
        prm["alpha"] = (m + 1.0) * prm.get("beta", 1.0)
    return DistributionModel(family, prm)


# ---------------------------------------------------------------------------
# Family table


def _cauchy_cdf(prm, x):
    # F(x) = Fbar(-x): the survival form keeps relative accuracy far left,
    # where 0.5 + atan(x)/pi cancels.
    return _cauchy_sf(prm, -np.asarray(x, dtype=float))


def _cauchy_sf(_, x):
    x = np.asarray(x, dtype=float)
    pos = x > 0.0
    # atan(1/x)/pi avoids the 0.5 - atan(x)/pi cancellation far out.
    return np.where(
        pos,
        np.arctan(1.0 / np.where(pos, x, 1.0)) / math.pi,
        0.5 - np.arctan(x) / math.pi,
    )


def _cauchy_q(_, p):
    return np.tan(math.pi * (np.asarray(p, dtype=float) - 0.5))


def _pareto_cdf(prm, x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 1.0, -np.expm1(-prm["sigma"] * np.log(np.maximum(x, 1.0))), 0.0)


def _pareto_q(prm, p):
    return np.power(1.0 - np.asarray(p, dtype=float), -1.0 / prm["sigma"])


def _uniform_cdf(prm, x):
    t = prm["theta"]
    return np.clip((np.asarray(x, dtype=float) + t) / (2.0 * t), 0.0, 1.0)


def _uniform_q(prm, p):
    t = prm["theta"]
    return -t + 2.0 * t * np.asarray(p, dtype=float)


def _beta_cdf(prm, x):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return sc.betainc(prm["alpha"], prm["beta"], x)


def _beta_q(prm, p):
    return sc.betaincinv(prm["alpha"], prm["beta"], np.asarray(p, dtype=float))


def _power_cdf(prm, x):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return np.power(x, prm["alpha"])


def _power_q(prm, p):
    return np.power(np.asarray(p, dtype=float), 1.0 / prm["alpha"])


def _normal_cdf(_, x):
    return sc.ndtr(np.asarray(x, dtype=float))


def _normal_q(_, p):
    return sc.ndtri(np.asarray(p, dtype=float))


def _logistic_cdf(_, x):
    return sc.expit(np.asarray(x, dtype=float))


def _logistic_q(_, p):
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


def _laplace_cdf(_, x):
    x = np.asarray(x, dtype=float)
    neg = np.minimum(x, 0.0)
    return np.where(x < 0.0, 0.5 * np.exp(neg), 1.0 - 0.5 * np.exp(-np.maximum(x, 0.0)))


def _laplace_q(_, p):
    p = np.asarray(p, dtype=float)
    return np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))


def _lognormal_cdf(_, x):
    x = np.asarray(x, dtype=float)
    pos = x > 0.0
    return np.where(pos, sc.ndtr(np.log(np.where(pos, x, 1.0))), 0.0)


def _lognormal_q(_, p):
    return np.exp(sc.ndtri(np.asarray(p, dtype=float)))


def _exponential_cdf(prm, x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0.0, -np.expm1(-np.maximum(x, 0.0) / prm["sigma"]), 0.0)


def _exponential_q(prm, p):
    return -prm["sigma"] * np.log1p(-np.asarray(p, dtype=float))


def _rayleigh_cdf(prm, x):
    x = np.asarray(x, dtype=float)
    s2 = 2.0 * prm["sigma"] ** 2
    with np.errstate(over="ignore"):  # x^2 past the largest float is inf, where F is 1
        return np.where(x >= 0.0, -np.expm1(-np.square(np.maximum(x, 0.0)) / s2), 0.0)


def _rayleigh_q(prm, p):
    return prm["sigma"] * np.sqrt(-2.0 * np.log1p(-np.asarray(p, dtype=float)))




def _pareto_sf(prm, x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 1.0, np.power(np.maximum(x, 1.0), -prm["sigma"]), 1.0)


def _uniform_sf(prm, x):
    t = prm["theta"]
    return np.clip((t - np.asarray(x, dtype=float)) / (2.0 * t), 0.0, 1.0)


def _beta_sf(prm, x):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return sc.betainc(prm["beta"], prm["alpha"], 1.0 - x)


def _power_sf(prm, x):
    x = np.asarray(x, dtype=float)
    out = -np.expm1(prm["alpha"] * np.log(np.clip(x, 1e-310, 1.0)))
    return np.where(x <= 0.0, 1.0, np.where(x >= 1.0, 0.0, out))


def _mirror_sf(cdf: Callable) -> Callable:
    """Survival function of a family symmetric about 0: Fbar(x) = F(-x)."""
    return lambda prm, x: cdf(prm, -np.asarray(x, dtype=float))


def _mirror_isf(q: Callable) -> Callable:
    """F^-1(1 - u) = -F^-1(u) for a family symmetric about 0."""
    return lambda prm, u: -q(prm, u)


def _lognormal_sf(_, x):
    x = np.asarray(x, dtype=float)
    pos = x > 0.0
    return np.where(pos, sc.ndtr(-np.log(np.where(pos, x, 1.0))), 1.0)


def _exponential_sf(prm, x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0.0, np.exp(-np.maximum(x, 0.0) / prm["sigma"]), 1.0)


def _rayleigh_sf(prm, x):
    x = np.asarray(x, dtype=float)
    s2 = 2.0 * prm["sigma"] ** 2
    with np.errstate(over="ignore"):  # x^2 past the largest float is inf, where 1 - F is 0
        return np.where(x >= 0.0, np.exp(-np.square(np.maximum(x, 0.0)) / s2), 1.0)




def _cauchy_isf(_, u):
    u = np.asarray(u, dtype=float)
    small = u < 0.25
    return np.where(
        small,
        1.0 / np.tan(math.pi * np.where(small, u, 0.25)),
        np.tan(math.pi * (0.5 - u)),
    )


def _pareto_isf(prm, u):
    return np.power(np.asarray(u, dtype=float), -1.0 / prm["sigma"])


def _lognormal_isf(_, u):
    return np.exp(-sc.ndtri(np.asarray(u, dtype=float)))


def _exponential_isf(prm, u):
    return -prm["sigma"] * np.log(np.asarray(u, dtype=float))


def _rayleigh_isf(prm, u):
    return prm["sigma"] * np.sqrt(-2.0 * np.log(np.asarray(u, dtype=float)))


def _uniform_gap(prm, u):
    """Distance from either end of (-theta, theta) to the level-u quantile."""
    return 2.0 * prm["theta"] * np.asarray(u, dtype=float)


def _beta_upper_gap(prm, u):
    return sc.betaincinv(prm["beta"], prm["alpha"], np.asarray(u, dtype=float))


def _power_upper_gap(prm, u):
    return -np.expm1(np.log1p(-np.asarray(u, dtype=float)) / prm["alpha"])


def _pareto_lower_gap(prm, p):
    return np.expm1(-np.log1p(-np.asarray(p, dtype=float)) / prm["sigma"])


def _uniform_eta(_, m):
    if m != 0.0:
        raise UnsupportedCaseError("uniform range limits are available for m = 0 only")
    return 1.0


def _weibull_pair_eta(alpha: float, beta_p: float, m: float) -> float:
    """eta of beta(alpha, beta), power(alpha) at beta = 1, where alpha = (m+1)*beta."""
    if not math.isclose(alpha, (m + 1.0) * beta_p, rel_tol=1e-12):
        raise UnsupportedCaseError("beta/power range limits require alpha = (m+1)*beta")
    c = math.exp(log_gamma(alpha + beta_p) - log_gamma(alpha) - log_gamma(beta_p))
    eta = (beta_p / c) ** (1.0 / beta_p) * ((m + 1.0) * c / alpha) ** (1.0 / alpha)
    if eta == 0.0:  # eta = 0 selects the published cauchy forms in `ranges`
        raise UnsupportedCaseError(f"beta/power eta underflows to 0 at alpha={alpha}, beta={beta_p}")
    return eta


def _beta_norming(model: DistributionModel, params: GosParams) -> tuple[float, ...]:
    alpha, beta_p = model.params["alpha"], model.params["beta"]
    if not math.isclose(alpha, (params.m + 1.0) * beta_p, rel_tol=1e-12):
        raise NoAttractionError(
            "beta lower attraction is set up only for alpha = (m+1)*beta; "
            f"got alpha={alpha}, beta={beta_p}, m={params.m}"
        )
    return _quantile_norming(model, params)


def _normal_norming(_, params: GosParams) -> tuple[float, ...]:
    # Closed forms; the upper side uses the effective size N^{1/(m+1)},
    # the lower side (m+1)*N because L_m compresses the lower tail.
    def classic(n_eff: float) -> tuple[float, float]:
        ln_n = math.log(n_eff)
        if not ln_n > 0.0:  # an effective size that rounds to 1 or below has no constants
            return math.nan, math.nan
        root = math.sqrt(2.0 * ln_n)
        a = 1.0 / root
        b = root - (math.log(ln_n) + math.log(4.0 * math.pi)) / (2.0 * root)
        return a, b

    try:
        n_up = params.big_n ** (1.0 / (params.m + 1.0))
    except OverflowError:
        n_up = math.inf
    n_low = (params.m + 1.0) * params.big_n
    a, b = classic(n_up)
    c, d_pos = classic(n_low)
    return a, b, c, -d_pos


_INF = math.inf

_FAMILIES: dict[str, _Family] = {  # params, cdf, sf, quantile, support, tails, eta, ...
    "cauchy": _Family(
        (), _cauchy_cdf, _cauchy_sf, _cauchy_q, lambda _: (-_INF, _INF),
        lambda _: ("frechet", 1.0), lambda _: ("frechet", 1.0),
        lambda _, m: 1.0 if m == 0.0 else 0.0 if m > 0.0 else _INF,
        isf=_cauchy_isf,
    ),
    "pareto": _Family(
        ("sigma",), _pareto_cdf, _pareto_sf, _pareto_q, lambda _: (1.0, _INF),
        lambda prm: ("frechet", prm["sigma"]), lambda _: ("weibull", 1.0), lambda *_: _INF,
        isf=_pareto_isf, lower_gap=_pareto_lower_gap, centred=True,
    ),
    "uniform": _Family(
        ("theta",), _uniform_cdf, _uniform_sf, _uniform_q,
        lambda prm: (-prm["theta"], prm["theta"]),
        lambda _: ("weibull", 1.0), lambda _: ("weibull", 1.0), _uniform_eta,
        upper_gap=_uniform_gap, lower_gap=_uniform_gap,
    ),
    "beta": _Family(
        ("alpha", "beta"), _beta_cdf, _beta_sf, _beta_q, lambda _: (0.0, 1.0),
        lambda prm: ("weibull", prm["beta"]), lambda prm: ("weibull", prm["alpha"]),
        lambda prm, m: _weibull_pair_eta(prm["alpha"], prm["beta"], m),
        upper_gap=_beta_upper_gap, lower_gap=_beta_q, norming=_beta_norming,
    ),
    "power": _Family(
        ("alpha",), _power_cdf, _power_sf, _power_q, lambda _: (0.0, 1.0),
        lambda _: ("weibull", 1.0), lambda prm: ("weibull", prm["alpha"]),
        lambda prm, m: _weibull_pair_eta(prm["alpha"], 1.0, m),
        upper_gap=_power_upper_gap, lower_gap=_power_q,
    ),
    "normal": _Family(
        (), _normal_cdf, _mirror_sf(_normal_cdf), _normal_q,
        lambda _: (-_INF, _INF),
        lambda _: ("gumbel", None), lambda _: ("gumbel", None), lambda _, m: math.sqrt(m + 1.0),
        norming=_normal_norming,
        midrange_stretch=lambda params: 2.0 if params.m == 0.0 and params.k == 1.0 else 1.0,
    ),
    "logistic": _Family(
        (), _logistic_cdf, _mirror_sf(_logistic_cdf), _logistic_q,
        lambda _: (-_INF, _INF),
        lambda _: ("gumbel", None), lambda _: ("gumbel", None), lambda *_: 1.0,
        isf=_mirror_isf(_logistic_q),
    ),
    "laplace": _Family(
        (), _laplace_cdf, _mirror_sf(_laplace_cdf), _laplace_q,
        lambda _: (-_INF, _INF),
        lambda _: ("gumbel", None), lambda _: ("gumbel", None), lambda *_: 1.0,
        isf=_mirror_isf(_laplace_q),
    ),
    "lognormal": _Family(
        (), _lognormal_cdf, _lognormal_sf, _lognormal_q, lambda _: (0.0, _INF),
        lambda _: ("gumbel", None), lambda _: ("gumbel", None), lambda *_: _INF,
        isf=_lognormal_isf,
    ),
    "exponential": _Family(
        ("sigma",), _exponential_cdf, _exponential_sf, _exponential_q,
        lambda _: (0.0, _INF),
        lambda _: ("gumbel", None), lambda _: ("weibull", 1.0), lambda *_: _INF,
        isf=_exponential_isf, lower_gap=_exponential_q,
    ),
    "rayleigh": _Family(
        ("sigma",), _rayleigh_cdf, _rayleigh_sf, _rayleigh_q, lambda _: (0.0, _INF),
        lambda _: ("gumbel", None), lambda _: ("weibull", 2.0), lambda *_: _INF,
        isf=_rayleigh_isf, lower_gap=_rayleigh_q,
    ),
}


FAMILY_NAMES = tuple(_FAMILIES)


def valid_families() -> str:
    parts = []
    for name, spec in _FAMILIES.items():
        if spec.param_names:
            parts.append(f"{name}({', '.join(p + '=...' for p in spec.param_names)})")
        else:
            parts.append(name)
    return ", ".join(parts)


_SPEC_RE = re.compile(r"^\s*([a-zA-Z_]+)\s*(?:\(\s*(.*?)\s*\))?\s*$")


def parse_model(text: str) -> DistributionModel:
    """Parse the CLI grammar name(p1=..., p2=...), case-insensitive; values by `parse_number`."""
    match = _SPEC_RE.match(text)
    if not match:
        raise ValueError(
            f"cannot parse distribution {text!r}; valid families: {valid_families()}"
        )
    name = match.group(1).lower()
    if name not in _FAMILIES:
        raise ValueError(
            f"unknown family {name!r}; valid families: {valid_families()}"
        )
    params = {}
    body = match.group(2)
    if body:
        for piece in body.split(","):
            if "=" not in piece:
                raise ValueError(
                    f"malformed parameter {piece!r} in {text!r}; expected name=value"
                )
            key, value = piece.split("=", 1)
            try:
                params[key.strip().lower()] = parse_number(value)
            except ValueError as exc:
                raise ValueError(f"bad numeric value in {piece!r}") from exc
    return DistributionModel(family=name, params=params)


# ---------------------------------------------------------------------------
# Normalizing constants


def _lm_prob(mp1: float, p: float) -> float:
    """Probability level of F matching level p of G = L_m; small-p safe."""
    return -math.expm1(math.log1p(-p) / mp1) if p < 1.0 else 1.0


def norming_constants(model: DistributionModel, params: GosParams) -> NormingConstants:
    """Normalizing constants for both extremes at the model's tail types.

    Built so that N * Lbar_m(a x + b) -> kappa(x)^(m+1) on the upper side
    and N * L_m(c x + d) -> rho(x) on the lower side, by the record's own
    `norming` (normal, beta) or the quantile construction.  The gumbel-type
    scale uses the offset at tail mass u/e, which keeps the (m+1)-powered
    convergence target; endpoint distances come from the per-family gap
    forms so constants stay exact at large n.  Constants that come out
    infinite, NaN or with a scale <= 0 (an extreme m sends the tail masses
    to 0 or 1) raise ArithmeticError.
    """
    if params.n < 2:
        raise NoAttractionError("need n >= 2 for normalizing constants")
    with np.errstate(all="ignore"):  # what goes wrong shows in the constants
        a, b, c, d = (model.record.norming or _quantile_norming)(model, params)
    if not (0.0 < a < math.inf and 0.0 < c < math.inf and math.isfinite(b) and math.isfinite(d)):
        raise ArithmeticError(f"normalizing constants (a, b, c, d) = ({a:.6g}, {b:.6g}, {c:.6g}, "
                              f"{d:.6g}) are not finite with positive scales at m={params.m}, "
                              f"k={params.k}, n={params.n}")
    return NormingConstants(a=a, b=b, c=c, d=d)


def _quantile_norming(model: DistributionModel, params: GosParams) -> tuple[float, ...]:
    """(a, b, c, d) by one rule: the maximum's constants from the upper side
    of F, the minimum's as those of the maximum of -X, whose centre is -d."""
    mp1 = params.m + 1.0
    big_n = params.big_n
    lo, hi = model.support()
    rec, prm = model.record, model.params
    u = big_n ** (-1.0 / mp1)  # tail mass with q_F(1-u) = G^{-1}(1 - 1/N)
    a, b = _norming_side(tail_transform(model, ExtremeSide.UPPER).kind,
                         lambda v: float(rec.isf(prm, v)), lambda v: float(rec.upper_gap(prm, v)),
                         hi, u, u / math.e)
    c, centre = _norming_side(tail_transform(model, ExtremeSide.LOWER).kind,
                              lambda p: -float(rec.quantile(prm, p)),
                              lambda p: float(rec.lower_gap(prm, p)), -lo,
                              _lm_prob(mp1, 1.0 / big_n), _lm_prob(mp1, 1.0 / (math.e * big_n)))
    return a, b, c, 0.0 - centre  # keeps a frechet minimum's d at +0.0, as -centre would not


def _norming_side(kind: str, tail_q: Callable, gap: Callable, end: float, level: float,
                  level_e: float) -> tuple[float, float]:
    """(scale, centre) of the maximum of a variable whose upper-tail quantile
    at mass v is tail_q(v), by the tail's kind; a weibull tail ends at `end`,
    gap(v) = end - tail_q(v) away.  The gumbel scale is taken at level_e."""
    if kind == "frechet":
        return tail_q(level), 0.0
    if kind == "weibull":  # every weibull side has a finite end
        return gap(level), end
    centre = tail_q(level)
    return tail_q(level_e) - centre, centre
