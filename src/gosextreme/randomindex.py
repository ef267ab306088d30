"""Limit laws H of nu_n/n and the mixture distribution functions.

A mixture composes a fixed-size limit family with the index law:
int_0^inf Omega(z . ) dH(z), where the z-scaling acts on the gamma/beta
arguments.  For the upper-upper family the formula raises its arguments
to the power m+1, while the marginal form of the limit shows the
intended scaled argument is z * kappa^(m+1); the mixtures here therefore
scale the powered values (equivalently, pass kappa * z^(1/(m+1))),
which makes the degenerate-H and marginal reductions exact.

Supported laws: degenerate(c), unit_exponential (the geometric-size
limit H(z) = 1 - e^-z), and tabulated piecewise-linear dfs loaded from
two-column CSV files (header row, strictly increasing z >= 0, H
nondecreasing in [0, 1] with a zero first value).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

from ._integrate import integrate_exp_weight, integrate_segments
from .limitlaws import omega_ll, omega_uu_powered
from .params import GosParams
from .specfun import reg_inc_gamma, reg_inc_gamma_upper

MIXTURE_ABS_TOL = 1e-8
OMEGA_INNER_TOL = 1e-10


@dataclass(frozen=True)
class IndexLaw:
    """Weak limit of nu_n/n.  kind: degenerate | unit_exponential | tabulated."""

    kind: str
    c: float | None = None
    grid: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind == "degenerate":
            if self.c is None or not self.c > 0.0:
                raise ValueError("degenerate law needs a point mass c > 0")
        elif self.kind == "unit_exponential":
            if self.c is not None or self.grid is not None:
                raise ValueError("unit_exponential takes no parameters")
        elif self.kind == "tabulated":
            _validate_table(self.grid)
        else:
            raise ValueError(f"unknown index law kind {self.kind!r}")

    @staticmethod
    def degenerate(c: float = 1.0) -> "IndexLaw":
        return IndexLaw(kind="degenerate", c=c)

    @staticmethod
    def unit_exponential() -> "IndexLaw":
        return IndexLaw(kind="unit_exponential")

    @staticmethod
    def tabulated(points: Sequence[tuple[float, float]]) -> "IndexLaw":
        return IndexLaw(kind="tabulated", grid=tuple((float(z), float(h)) for z, h in points))

    def label(self) -> str:
        if self.kind == "degenerate":
            return f"degenerate:{self.c:g}"
        if self.kind == "unit_exponential":
            return "unit_exponential"
        return f"tabulated[{len(self.grid)}]"


def _validate_table(grid) -> None:
    if not grid or len(grid) < 2:
        raise ValueError("tabulated law needs at least two (z, H) nodes")
    zs = [z for z, _ in grid]
    hs = [h for _, h in grid]
    if zs[0] < 0.0:
        raise ValueError("tabulated z values must be >= 0")
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError("tabulated z values must be strictly increasing")
    if hs[0] != 0.0:
        raise ValueError("tabulated H must start at 0 (H(+0) = 0)")
    if any(h < 0.0 or h > 1.0 for h in hs):
        raise ValueError("tabulated H values must lie in [0, 1]")
    if any(b < a for a, b in zip(hs, hs[1:])):
        raise ValueError("tabulated H values must be nondecreasing")
    if not math.isclose(hs[-1], 1.0, abs_tol=1e-12):
        raise ValueError("tabulated H must reach 1 at the last node")


def load_tabulated_csv(path) -> IndexLaw:
    """Read the two-column `z,H` CSV format (header row required)."""
    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ValueError(f"{path}: expected a header row with columns z,H")
        try:
            float(header[0])
        except ValueError:
            pass
        else:
            raise ValueError(f"{path}: missing header row")
        for line in reader:
            if not line or not "".join(line).strip():
                continue
            rows.append((float(line[0]), float(line[1])))
    return IndexLaw.tabulated(rows)


def h_cdf(law: IndexLaw, z: float) -> float:
    """H(z) for z >= 0."""
    if z < 0.0:
        raise ValueError(f"h_cdf requires z >= 0, got {z}")
    if law.kind == "degenerate":
        return 1.0 if z >= law.c else 0.0
    if law.kind == "unit_exponential":
        return -math.expm1(-z)
    grid = law.grid
    if z <= grid[0][0]:
        return grid[0][1] if z == grid[0][0] else 0.0
    if z >= grid[-1][0]:
        return grid[-1][1]
    for (z0, h0), (z1, h1) in zip(grid, grid[1:]):
        if z0 <= z <= z1:
            return h0 + (h1 - h0) * (z - z0) / (z1 - z0)
    raise AssertionError("unreachable")


def _mix(f, law: IndexLaw, abs_tol: float) -> float:
    """int_0^inf f(z) dH(z) for the supported law kinds."""
    if law.kind == "degenerate":
        return f(law.c)
    if law.kind == "unit_exponential":
        return integrate_exp_weight(f, abs_tol)
    segments = []
    for (z0, h0), (z1, h1) in zip(law.grid, law.grid[1:]):
        segments.append((z0, z1, (h1 - h0) / (z1 - z0)))
    return integrate_segments(f, segments, abs_tol)


def _zscale(z: float, value: float) -> float:
    # inf stays inf for any z > 0 (avoids 0*inf at a z = 0 endpoint).
    return math.inf if math.isinf(value) else z * value


def mixture_uu(
    params: GosParams,
    r: int,
    s: int,
    kappa1: float,
    kappa2: float,
    law: IndexLaw,
    abs_tol: float = MIXTURE_ABS_TOL,
) -> float:
    """Random-index upper-upper limit at transform values (kappa1, kappa2)."""
    mp1 = params.m + 1.0
    k1, k2 = kappa1**mp1, kappa2**mp1

    def slice_df(z: float) -> float:
        return omega_uu_powered(params, r, s, _zscale(z, k1), _zscale(z, k2), OMEGA_INNER_TOL)

    return _clamp(_mix(slice_df, law, abs_tol))


def mixture_ll(
    r: int,
    s: int,
    rho1: float,
    rho2: float,
    law: IndexLaw,
    abs_tol: float = MIXTURE_ABS_TOL,
) -> float:
    """Random-index lower-lower limit at transform values (rho1, rho2)."""

    def slice_df(z: float) -> float:
        return omega_ll(r, s, _zscale(z, rho1), _zscale(z, rho2), OMEGA_INNER_TOL)

    return _clamp(_mix(slice_df, law, abs_tol))


def mixture_marginal(
    side,
    params: GosParams,
    r: int,
    value: float,
    law: IndexLaw,
    abs_tol: float = MIXTURE_ABS_TOL,
) -> float:
    """Mixed marginal: upper int [1 - Gamma_{R_r}(z kappa^(m+1))] dH(z),
    lower int Gamma_r(z rho) dH(z)."""
    from .params import ExtremeSide

    side = ExtremeSide(side)
    if side == ExtremeSide.UPPER:
        arg = value ** (params.m + 1.0)
        shape = params.rank_weight(r)

        def slice_df(z: float) -> float:
            return reg_inc_gamma_upper(shape, _zscale(z, arg))

    else:

        def slice_df(z: float) -> float:
            return reg_inc_gamma(float(r), _zscale(z, value))

    return _clamp(_mix(slice_df, law, abs_tol))


def mixture_lu(
    params: GosParams,
    r: int,
    s: int,
    rho1: float,
    kappa2: float,
    law: IndexLaw,
    abs_tol: float = MIXTURE_ABS_TOL,
) -> float:
    """Random-index lower-upper limit
    int Gamma_r(z rho1) [1 - Gamma_{R_s}(z kappa2^(m+1))] dH(z).

    Both factors share one index scale z: the sample size couples the
    minimum and the maximum, so under a non-degenerate law this is not
    the product of the two mixed marginals.  A degenerate law reduces it
    to `omega_lu_product`."""
    k2 = kappa2 ** (params.m + 1.0)
    shape = params.rank_weight(s)

    def slice_df(z: float) -> float:
        return reg_inc_gamma(float(r), _zscale(z, rho1)) * reg_inc_gamma_upper(
            shape, _zscale(z, k2)
        )

    return _clamp(_mix(slice_df, law, abs_tol))


def _clamp(p: float) -> float:
    return min(max(p, 0.0), 1.0)
