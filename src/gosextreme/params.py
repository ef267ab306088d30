"""Shared value objects: model parameters, rank pairs and tail-side markers.

The sample model is the m-GOS subclass of generalized order statistics,
i.e. gamma_j = k + (n - j)*(m + 1) with m > -1 and k > 0.  Ordinary order
statistics are the special case m = 0, k = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Regime(str, Enum):
    """Which tail each member of a bivariate extreme pair comes from."""

    UPPER_UPPER = "upper_upper"
    LOWER_LOWER = "lower_lower"
    LOWER_UPPER = "lower_upper"


class ExtremeSide(str, Enum):
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class GosParams:
    """m-GOS model parameters (m, k, n) with the derived quantities.

    m and k are finite, and so is ell = k/(m+1) > 0; N = ell + n - 1
    (effective size) and R_r = ell + r - 1 (effective rank).  m and k may
    be non-integral, so ell, N and R_r are real numbers in general.
    """

    m: float
    k: float
    n: int

    def __post_init__(self):
        if not self.m > -1.0:
            raise ValueError(f"m must exceed -1, got {self.m}")
        if not self.k > 0.0:
            raise ValueError(f"k must be positive, got {self.k}")
        for name, value in (("m", self.m), ("k", self.k)):
            if value == math.inf:
                raise ValueError(f"{name} must be finite, got inf")
        if not 0.0 < self.ell < math.inf:
            raise ValueError(f"ell = k/(m+1) must be positive and finite, got ell={self.ell} "
                             f"at m={self.m}, k={self.k}")
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n}")

    @property
    def ell(self) -> float:
        return self.k / (self.m + 1.0)

    @property
    def big_n(self) -> float:
        return self.ell + self.n - 1.0

    def rank_weight(self, r: float) -> float:
        """R_r = ell + r - 1 for a rank counted from the relevant end."""
        return self.ell + r - 1.0

    def gamma_j(self, j: int) -> float:
        """gamma_j = k + (n - j)*(m + 1)."""
        return self.k + (self.n - j) * (self.m + 1.0)

    def kappa_power(self, kappa_value):
        """kappa^(m+1) for upper transform values in [0, +inf] (a float or an
        array), taken as +inf where the power overflows a float (every limit
        df is 0 there)."""
        with np.errstate(over="ignore"):
            return np.power(kappa_value, self.m + 1.0)


@dataclass(frozen=True)
class RankPair:
    """Rank pair (r, s) together with its regime.

    Conventions (they differ per regime, matching the two index systems
    used for exact and limit forms):

    * ``upper_upper``: both ranks count from the top (r = 1 is the
      maximum) and require s < r, i.e. the x-coordinate belongs to the
      deeper extreme.
    * ``lower_lower``: both count from the bottom and require r < s.
    * ``lower_upper``: r counts from the bottom, s from the top; both
      are only required to be >= 1.
    """

    r: int
    s: int
    regime: Regime

    def __post_init__(self):
        if self.r < 1 or self.s < 1:
            raise ValueError("ranks must be positive integers")
        if self.regime == Regime.UPPER_UPPER and not self.s < self.r:
            raise ValueError(
                f"upper-upper regime requires s < r, got r={self.r}, s={self.s}"
            )
        if self.regime == Regime.LOWER_LOWER and not self.r < self.s:
            raise ValueError(
                f"lower-lower regime requires r < s, got r={self.r}, s={self.s}"
            )

    @property
    def max_rank(self) -> int:
        return max(self.r, self.s)

    def validate_against(self, n: int) -> None:
        if self.max_rank > n:
            raise ValueError(f"ranks {self.r},{self.s} exceed sample size {n}")


def number_label(value: float) -> str:
    """`value` in `:g` form where that reads back as the same float, else
    its repr, so that a label parses back to the value it names."""
    short = f"{value:g}"
    return short if float(short) == value else repr(float(value))
