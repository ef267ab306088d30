"""Attraction-domain transforms of the bivariate limit families.

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

Each kind is one record in `_TAILS`, a transform's `record`: its CLI
spellings, whether it takes an exponent, its transform and `rho_inverse`,
whether the transform ends at x = 0 (frechet, weibull) and is open (0) or
closed (+inf) past that edge, and its quantile norming rule.  No other
module compares a kind's name.

The limit families these arguments enter are served as finite sums by
`randomindex` (the `limit` verb is its point mass 1); `reference` keeps
them as written, the route the sums are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import ExtremeSide, parse_number, read_spec
from .specfun import domain_error


@dataclass(frozen=True)
class TailTransform:
    """One side's attraction type: a kind of `_TAILS`."""

    side: ExtremeSide
    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in _TAILS:
            raise ValueError(f"unknown tail kind {self.kind!r}")
        if not self.record.takes_alpha:
            if self.alpha is not None:
                raise ValueError(f"{self.kind} transform takes no exponent")
        elif self.alpha is None or not self.alpha > 0.0:
            raise ValueError(f"{self.kind} transform requires alpha > 0")
        elif self.alpha == math.inf:
            raise ValueError(f"{self.kind} transform requires a finite alpha, got inf")

    @property
    def record(self) -> _TailKind:
        return _TAILS[self.kind]

    @staticmethod
    def spellings() -> dict[str, tuple[str, ...]]:  # for `params.read_spec`
        return {kind: spec.usages for kind, spec in _TAILS.items()}

    @staticmethod
    def parse(text: str, side: ExtremeSide) -> "TailTransform":
        kind, args = read_spec(text, TailTransform.spellings(), "tail transform")
        return TailTransform(side, kind, *map(parse_number, args))


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


def rho_inverse(transform: TailTransform, s):
    """The lower-side x with rho(x) = e^s, for a float or an array of s:
    -e^(-s/b) (frechet), e^(s/b) (weibull) or s (gumbel).  Increasing in s,
    it maps the real line onto the x where rho is positive and finite."""
    if transform.side != ExtremeSide.LOWER:
        raise ValueError("rho_inverse expects a lower-side transform")
    return transform.record.inverse(s, transform.alpha)


def _transform(transform: TailTransform, x, sign: float):
    """The upper-side form at u = sign * x; the lower side is its mirror
    image.  Values beyond the largest float are +inf."""
    u = sign * np.asarray(x, dtype=float)
    if np.isnan(u).any():
        raise domain_error("tail transforms are undefined at NaN", ~np.isnan(u), x=x)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = transform.record.form(u, transform.alpha)
    return value if value.ndim else float(value)


# --- the kinds: one record each -----------------------------------------------


@dataclass(frozen=True)
class _TailKind:
    usages: tuple[str, ...]  # its CLI spellings
    form: Callable  # (u, alpha) -> the upper-side transform at u, in [0, +inf]
    inverse: Callable  # (s, alpha) -> `rho_inverse`
    # (tail_q, gap, end, level, level_e) -> (scale, centre) of the maximum of a
    # variable whose upper-tail quantile at mass v is tail_q(v); a weibull tail
    # ends at `end`, gap(v) = end - tail_q(v) away.  The gumbel scale is taken
    # at level_e.
    norming: Callable
    ends: bool = True  # the transform ends at x = 0 (`ranges._pair`'s edge)
    opens: bool = False  # past that end it is 0 (open), not +inf (closed)
    takes_alpha: bool = True


def _gumbel_norming(tail_q, gap, end, level, level_e) -> tuple[float, float]:
    centre = tail_q(level)
    return tail_q(level_e) - centre, centre


_TAILS = {  # usages, form, inverse, norming, then the flags that differ
    "frechet": _TailKind(
        ("frechet:<a>",), lambda u, a: np.where(u > 0.0, u ** -a, np.inf),
        lambda s, a: -np.exp(-s / a), lambda tail_q, gap, end, level, _: (tail_q(level), 0.0)),
    "weibull": _TailKind(
        ("weibull:<a>",), lambda u, a: np.where(u <= 0.0, (-u) ** a, 0.0),
        lambda s, a: np.exp(s / a), lambda tail_q, gap, end, level, _: (gap(level), end),
        opens=True),
    "gumbel": _TailKind(
        ("gumbel",), lambda u, _: np.exp(-u), lambda s, _: s, _gumbel_norming,
        ends=False, takes_alpha=False),
}
