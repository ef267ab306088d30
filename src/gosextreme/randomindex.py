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

Evaluation.  The integral over z is never taken numerically.  Each law
supplies one kernel in closed form (`index_kernel`),

    N_H(j, w, R, c) = int (zw)^j e^(-zw) / Gamma(j+1) * Q(R, zc) dH(z),

with Q(R, x) = 1 - Gamma_R(x); c = 0 drops the Q factor.  It is the
Poisson-weighted form of L_H(j, w, R, c) = int z^j e^(-zw) Q(R, zc) dH(z)
= Gamma(j+1) w^(-j) N_H, and lies in [0, 1] at every argument, so no
power of w can overflow.  Expanding each limit family and exchanging the
order of integration (Fubini) gives

* marginals: upper N_H(0, 0, R_r, k), lower 1 - N_H(0, 0, r, rho);
* lower-upper (integer r):
  N_H(0, 0, R_s, k2) - sum_{j<r} N_H(j, rho1, R_s, k2);
* lower-lower: the mixed lower marginal at rho1 minus
  sum_{j<s-r} N_H(r+j, rho2, ., 0) I_{rho1/rho2}(r, j+1);
* upper-upper (k1 > k2): R_r - R_s = r - s is an integer, so the deeper
  gamma variate is the shallower one plus an independent Gamma(r - s),
  and the limit is Q(R_s, k1) + sum_{i<r-s} P(R_s+i, k1) I_{1-k2/k1}(i+1, R_s)
  with P(a, x) = x^a e^-x / Gamma(a+1); z-scaling leaves k2/k1 fixed, so
  N_H(0, 0, R_s, k1) and N_H(R_s+i, k1) take the places of Q and P.

No mixture takes a quadrature, and every law, the degenerate one
included, takes this one path per regime; under a point mass c each
form reduces to the routes of `reference` at c-scaled arguments,
which the tests check.  The `limit` verb is the point mass 1.
The range and midrange limits (`ranges`) use the same kernel.

The kernel and the mixtures take floats or numpy arrays of transform
values (w and c broadcast), so a whole grid is one call: the degenerate
and unit-exponential kernels are a few `gammaincc`/`betainc`/`exp` ufunc
calls over the array, and a tabulated law's kernel loops over the
table's segments only, each a closed form whose branches are masks over
the array.  A float in gives a float out.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .params import ExtremeSide, GosParams, number_label
from .specfun import clip_probability, reg_inc_beta, reg_inc_gamma, reg_inc_gamma_upper

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

    @cached_property
    def pieces(self) -> tuple[tuple[float, float, float], ...]:
        """(density, z0, z1) of each segment of a tabulated law on which H rises."""
        return tuple(((h1 - h0) / (z1 - z0), z0, z1)
                     for (z0, h0), (z1, h1) in zip(self.grid, self.grid[1:]) if h1 > h0)

    def label(self) -> str:
        if self.kind == "degenerate":
            return f"degenerate:{number_label(self.c)}"
        if self.kind == "unit_exponential":
            return "unit_exponential"
        return f"tabulated[{len(self.grid)}]"


def _validate_table(grid) -> None:
    if not grid or len(grid) < 2:
        raise ValueError("tabulated law needs at least two (z, H) nodes")
    for node in grid:
        if not all(map(math.isfinite, node)):
            raise ValueError(f"tabulated law node {node} is not finite")
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
            if len(line) < 2:
                raise ValueError(f"{path}: row {line} does not have two columns z,H")
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


def index_kernel(law: IndexLaw, j: float, w, shape: float = 1.0, c=0.0):
    """N_H(j, w, R, c) = int (zw)^j e^(-zw) / Gamma(j+1) * Q(R, zc) dH(z).

    Q(R, x) = 1 - Gamma_R(x) with R = `shape`; c = 0 drops the factor.
    j >= 0 may be real; under a tabulated law with c > 0 it must be an
    integer.  w and c are floats or arrays in [0, +inf], which broadcast;
    an infinite w or c gives 0, and a float pair gives a float.
    """
    w, c = np.asarray(w, dtype=float), np.asarray(c, dtype=float)
    if not (j >= 0.0 and np.all(w >= 0.0) and np.all(c >= 0.0)):
        raise ValueError(f"index_kernel needs j, w, c >= 0, got j={j}, w={w}, c={c}")
    if law.kind == "tabulated" and j != int(j) and np.any(c > 0.0):
        raise ValueError(f"tabulated index_kernel needs an integer j when c > 0, got {j}")
    dead = np.isinf(w) | np.isinf(c)
    w, c = np.where(dead, 0.0, w), np.where(dead, 0.0, c)
    value = np.where(dead, 0.0, _KERNELS[law.kind](law, j, w, float(shape), c))
    return value if np.ndim(value) else float(value)


def _degenerate_kernel(law: IndexLaw, j: float, w, shape: float, c):
    point = law.c
    x = point * w
    if j == 0.0:
        weight = np.exp(-x)
    elif j == 1.0:
        weight = x * np.exp(-x)
    else:  # x^j e^-x / Gamma(j+1), 0 at x = 0
        with np.errstate(divide="ignore"):
            weight = np.exp(j * np.log(x) - x - math.lgamma(j + 1.0))
    if not c.any():
        return weight
    # Q(1, x) = e^-x: the range integrands at ell = 1 take this at each
    # node, and the exponential costs a fraction of the incomplete ratio.
    return weight * (np.exp(-point * c) if shape == 1.0 else reg_inc_gamma_upper(shape, point * c))


def _unit_exponential_kernel(law: IndexLaw, j: float, w, shape: float, c):
    # z ~ Gamma(j+1) and the Gamma(R) variate behind Q meet in a beta
    # ratio I_x(j+1, R), x = (1+w)/(1+w+c); near x = 1 it is taken
    # through its complement, since 1 - x is exact only as c/(1+w+c).
    front = (w / (1.0 + w)) ** j / (1.0 + w)
    if not c.any():
        return front
    near = c < 1.0 + w
    ratio = reg_inc_beta(
        np.where(near, c, 1.0 + w) / (1.0 + w + c),
        np.where(near, shape, j + 1.0),
        np.where(near, j + 1.0, shape),
    )
    return front * np.where(near, 1.0 - ratio, ratio)


def _tabulated_kernel(law: IndexLaw, j: float, w, shape: float, c):
    # Segment by segment, over all elements at once: each segment is a
    # closed form whose branches are masks over the elements, and the
    # segments are summed in table order, so an element's value does not
    # depend on the others.
    w, c = np.broadcast_arrays(w, c)
    out_shape, w, c = w.shape, w.ravel(), c.ravel()
    free = c == 0.0
    w_free, w_q, c_q = w[free], w[~free], c[~free]
    total = np.zeros(w.shape)
    for slope, z0, z1 in law.pieces:
        part = np.empty(w.shape)
        if w_free.size:
            part[free] = _free_segment(j, w_free, z0, z1)
        if w_q.size:
            part[~free] = _q_segment(int(j), w_q, shape, c_q, z0, z1)
        total += slope * part
    return total.reshape(out_shape)


_KERNELS = {
    "degenerate": _degenerate_kernel,
    "unit_exponential": _unit_exponential_kernel,
    "tabulated": _tabulated_kernel,
}


def _free_segment(j: float, w, z0: float, z1: float):
    """int_{z0}^{z1} (zw)^j e^(-zw) / Gamma(j+1) dz at each finite w (a 1-d array)."""
    a = j + 1.0
    value = np.full(w.shape, z1 - z0 if j == 0.0 else 0.0)  # w = 0
    with np.errstate(divide="ignore"):
        # Gamma_a(z1 w) would be subnormal (z1 w may round to 0): take
        # e^(-zw) as 1, which moves the value by less than e^-650 z1, and
        # the power in log space.
        tiny = (w > 0.0) & (a * np.log(z1 * w) < -650.0)
    if tiny.any():
        shrink = -math.expm1(a * (math.log(z0) - math.log(z1))) if z0 > 0.0 else 1.0
        value[tiny] = np.exp(j * np.log(w[tiny]) + a * math.log(z1) - math.lgamma(a + 1.0)) * shrink
    past = z0 * w > a  # past the mode: difference the upper ratios, which stay accurate
    if past.any():
        at = w[past]
        upper = reg_inc_gamma_upper(a, np.outer((z0, z1), at))
        value[past] = (upper[0] - upper[1]) / at
    near = (w > 0.0) & ~tiny & ~past
    if near.any():
        at = w[near]
        lower = reg_inc_gamma(a, np.outer((z1, z0), at))
        value[near] = (lower[0] - lower[1]) / at
    return value


def _q_segment(j: int, w, shape: float, c, z0: float, z1: float):
    """int_{z0}^{z1} (zw)^j e^(-zw) / j! * Q(shape, zc) dz at finite w and
    c > 0 (1-d arrays)."""
    value = np.empty(w.shape)
    big = w * z1 > 1.0
    if big.any():
        at = w[big]
        ends = _segment_antiderivative(j, at, shape, c[big], np.array([[z1], [z0]]))
        value[big] = (ends[0] - ends[1]) / at
    if big.all():
        return value
    # Small w: the closed form would cancel to O((w z1)^(j+1)), so expand
    # e^(-zw) instead, sum_k coef_k moment_k with coef_k ~ (-u)^k / k! at
    # u = w z1 <= 1.  The powers of z are taken relative to z1, so none
    # overflows.  The moments fall with k and the sum keeps at least e^-u
    # of the first term, so by the 21st term one is below 1e-17 of its
    # running sum: each element stops at its own first such term (the
    # 21st at the latest).
    small = ~big
    u, c = w[small] * z1, c[small]
    q1, q0 = reg_inc_gamma_upper(shape, np.outer((z1, z0), c))
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(u == 0.0, float(j == 0), np.exp(j * np.log(u) - math.lgamma(j + 1.0)))
    k = np.arange(21.0)[:, None]
    p = j + k + 1.0
    g1, g0 = np.split(_gamma_moment_ratio(shape, p, np.concatenate([z1 * c, z0 * c])), 2, 1)
    moment = z1 * (q1 + g1 - (z0 / z1) ** p * (q0 + g0)) / p
    terms = np.multiply.accumulate(np.vstack([coef, -u / (k[:-1] + 1.0)])) * moment
    sums = np.add.accumulate(terms)  # in order, term by term
    stop = np.abs(terms) <= 1e-17 * np.abs(sums)
    stop[-1] = True
    value[small] = sums[stop.argmax(axis=0), np.arange(u.size)]
    return value


def _segment_antiderivative(j: int, w, shape: float, c, z):
    """w * int_0^z (tw)^j e^(-tw) / j! * Q(shape, tc) dt at rows w, c > 0 and
    a column z, by parts against the Poisson sum of Gamma_{j+1}: the
    weights C_i are negative-binomial.  The j + 1 terms are one array,
    subtracted in order."""
    x = z * c
    total = reg_inc_gamma(j + 1.0, z * w) * reg_inc_gamma_upper(shape, x) + reg_inc_gamma(shape, x)
    log_sum = np.log(c + w)
    log_front = shape * (np.log(c) - log_sum) - math.lgamma(shape)
    log_ratio = np.log(w) - log_sum
    i = np.arange(j + 1.0)[:, None]
    log_gammas = np.array([[math.lgamma(shape + k) - math.lgamma(k + 1.0)] for k in range(j + 1)])
    weight = np.exp(log_front + i * log_ratio + log_gammas)[:, None, :]
    for term in weight * reg_inc_gamma(shape + i[:, None], z * (c + w)):
        total = total - term
    return total


def _gamma_moment_ratio(shape: float, p, x):
    """E[T^p; T <= x] / x^p for T ~ Gamma(shape), at a column p of powers
    and a row x >= 0, so that
    int_0^z t^(p-1) Q(shape, tc) dt = z^p [Q(shape, zc) + this at x = zc] / p."""
    a = shape + p
    tail = reg_inc_gamma(a, x)
    log_norm = np.array([[math.lgamma(v) - math.lgamma(shape)] for v in a.ravel()])
    big = tail > 1e-260  # a normal float with digits to spare
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value = np.where(big, np.exp(log_norm - p * np.log(x) + np.log(tail)), 0.0)
    small = (x > 0.0) & ~big
    if small.any():
        # Small x: the series of Gamma_a(x) with x^p divided out.
        at, a = np.broadcast_to(x, small.shape)[small], np.broadcast_to(a, small.shape)[small]
        term = np.exp(shape * np.log(at) - at - math.lgamma(shape)) / a
        total, i = term, 0
        live = term > 1e-17 * total
        while live.any():
            i += 1
            term = np.where(live, term * (at / (a + i)), term)
            total = np.where(live, total + term, total)
            live &= term > 1e-17 * total
        value[small] = total
    return value


def mixture_uu(
    params: GosParams,
    r: int,
    s: int,
    kappa1,
    kappa2,
    law: IndexLaw,
):
    """Random-index upper-upper limit at transform values (kappa1, kappa2),
    floats or arrays that broadcast."""
    k1, k2 = params.kappa_power(kappa1), params.kappa_power(kappa2)
    if not s < r:
        raise ValueError(f"upper-upper requires s < r, got r={r}, s={s}")
    rs = params.rank_weight(s)
    # Where k1 <= k2 (x >= y) the joint collapses onto the shallower
    # marginal at k2.  Elsewhere G_r = G_s + D with D ~ Gamma(r - s):
    # either G_s > k1 already, or G_s lies in (k2, k1] and D covers the
    # rest, which at G_s = k1 t splits by the Poisson sum of D's tail into
    # beta ratios in t.  Collapsed points take k1 = 0 in those terms, where
    # each kernel costs nothing, and x = 0, where every ratio vanishes.
    joint = k1 > k2
    value = index_kernel(law, 0.0, 0.0, rs, np.maximum(k1, k2))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(joint, 1.0 - k2 / k1, 0.0)
    for i in range(r - s):
        value = value + index_kernel(law, rs + i, np.where(joint, k1, 0.0)) * reg_inc_beta(
            x, i + 1, rs)
    return clip_probability(value)


def mixture_ll(r: int, s: int, rho1, rho2, law: IndexLaw):
    """Random-index lower-lower limit at transform values (rho1, rho2),
    floats or arrays that broadcast."""
    if not r < s:
        raise ValueError(f"lower-lower requires r < s, got r={r}, s={s}")
    # Where rho1 >= rho2 (x >= y) the deeper coordinate is inactive.  Each
    # kernel below is taken at 0 on the points of the other branch, where
    # it costs nothing, and collapsed points take x = 0, where every ratio
    # vanishes.
    collapsed = rho1 >= rho2
    value = np.where(
        collapsed,
        _mixed_lower(s, np.where(collapsed, rho2, 0.0), law),
        _mixed_lower(r, np.where(collapsed, 0.0, rho1), law),
    )
    live_rho2 = np.where(collapsed, 0.0, rho2)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(collapsed, 0.0, np.divide(rho1, rho2))
    for j in range(s - r):
        value = value - index_kernel(law, r + j, live_rho2) * reg_inc_beta(x, r, j + 1)
    return clip_probability(value if value.ndim else float(value))


def mixture_marginal(
    side,
    params: GosParams,
    r: int,
    value,
    law: IndexLaw,
):
    """Mixed marginal at a float or an array: upper
    int [1 - Gamma_{R_r}(z kappa^(m+1))] dH(z), lower int Gamma_r(z rho) dH(z)."""
    if ExtremeSide(side) == ExtremeSide.UPPER:
        return clip_probability(
            index_kernel(law, 0.0, 0.0, params.rank_weight(r), params.kappa_power(value))
        )
    return _mixed_lower(r, value, law)


def _mixed_lower(r: int, rho, law: IndexLaw):
    return clip_probability(1.0 - index_kernel(law, 0.0, 0.0, float(r), rho))


def mixture_lu(
    params: GosParams,
    r: int,
    s: int,
    rho1,
    kappa2,
    law: IndexLaw,
):
    """Random-index lower-upper limit
    int Gamma_r(z rho1) [1 - Gamma_{R_s}(z kappa2^(m+1))] dH(z), at floats
    or arrays that broadcast.

    Both factors share one index scale z: the sample size couples the
    minimum and the maximum, so under a non-degenerate law this is not
    the product of the two mixed marginals.  A degenerate law reduces it
    to `omega_lu_product`.  With the Poisson sum
    Gamma_r(x) = 1 - sum_{j<r} x^j e^-x / j! it is a finite sum of kernels."""
    if r < 1 or s < 1:
        raise ValueError("ranks must be >= 1")
    k2 = params.kappa_power(kappa2)
    shape = params.rank_weight(s)
    value = index_kernel(law, 0.0, 0.0, shape, k2)
    value = value - sum(index_kernel(law, float(j), rho1, shape, k2) for j in range(r))
    return clip_probability(value)
