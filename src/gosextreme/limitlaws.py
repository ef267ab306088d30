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

The limit families these arguments enter are served as finite sums by
`randomindex` (the `limit` verb is its point mass 1); `reference` keeps
them as written, the route the sums are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ExtremeSide, parse_number, read_spec
from .specfun import domain_error


_TAILS = {"frechet": ("frechet:<a>",), "weibull": ("weibull:<a>",), "gumbel": ("gumbel",)}


@dataclass(frozen=True)
class TailTransform:
    """One side's attraction type: a kind of `_TAILS` (kind -> its CLI spellings)."""

    side: ExtremeSide
    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in _TAILS:
            raise ValueError(f"unknown tail kind {self.kind!r}")
        if self.kind == "gumbel":
            if self.alpha is not None:
                raise ValueError("gumbel transform takes no exponent")
        elif self.alpha is None or not self.alpha > 0.0:
            raise ValueError(f"{self.kind} transform requires alpha > 0")
        elif self.alpha == math.inf:
            raise ValueError(f"{self.kind} transform requires a finite alpha, got inf")

    @staticmethod
    def spellings() -> dict[str, tuple[str, ...]]:
        return _TAILS

    @staticmethod
    def parse(text: str, side: ExtremeSide) -> "TailTransform":
        kind, args = read_spec(text, _TAILS, "tail transform")
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
    if transform.kind == "frechet":
        return -np.exp(-s / transform.alpha)
    if transform.kind == "weibull":
        return np.exp(s / transform.alpha)
    return s


def _transform(transform: TailTransform, x, sign: float):
    """The upper-side form at u = sign * x; the lower side is its mirror
    image.  Values beyond the largest float are +inf."""
    u = sign * np.asarray(x, dtype=float)
    if np.isnan(u).any():
        raise domain_error("tail transforms are undefined at NaN", ~np.isnan(u), x=x)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if transform.kind == "frechet":
            value = np.where(u > 0.0, u ** -transform.alpha, np.inf)
        elif transform.kind == "weibull":
            value = np.where(u <= 0.0, (-u) ** transform.alpha, 0.0)
        else:
            value = np.exp(-u)
    return value if value.ndim else float(value)
