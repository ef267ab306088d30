"""Limit laws H of nu_n/n and the mixture distribution functions.

A mixture composes a fixed-size limit family with the index law:
int_0^inf Omega(z . ) dH(z), where the z-scaling acts on the gamma/beta
arguments.  For the upper-upper family the formula raises its arguments
to the power m+1, while the marginal form of the limit shows the
intended scaled argument is z * kappa^(m+1); the mixtures here therefore
scale the powered values (equivalently, pass kappa * z^(1/(m+1))),
which makes the degenerate-H and marginal reductions exact.

Kinds.  Every kind of law and of sampler mode is one record in this
module, and no other module tells the kinds apart.  The laws (`_LAWS`)
are degenerate(c), unit_exponential (the geometric-size limit
H(z) = 1 - e^-z), and tabulated piecewise-linear dfs loaded from
two-column CSV files (header row, strictly increasing z >= 0, H
nondecreasing in [0, 1] with a zero first value); each record holds its
CLI spellings and their reader, the check of the law's own fields, its
label, H, its kernel, its mean, a Laplace-transform bound and the mode
that realizes it.  The modes (`_MODES`: fixed, geometric, dependent:const,
dependent:uniform) each hold their spellings, the check of the T-spec,
the draw of nu, the implied law, and whether nu is random and the draw's
uniform carried into the sample.

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
calls over the array, and both take Q(1, x) = e^-x in closed form.  On a
grid's axes (x a column, y a row) a mixture takes each kernel on the axis
it reads (uu's two Q(R_s, .) in one call over both axes); lu's kernels
read both, and under a point mass each is a weight in rho1 times a
Q(R_s, .) taken once per kappa2.  Under
the exponential law that gives N_H(j, w, 1, c) = w^j / (1+w+c)^(j+1), with
no beta ratio, at every range integrand of ell = 1 and every shape-1 term
of a mixture.  A tabulated law's kernel takes every node and segment of
the table in whole-array calls, a fixed slice of elements at a time: each
segment is a closed form whose branches are masks over (segment, element)
pairs, each gamma ratio at a node is taken once for both segments that
meet there, and each kind of ratio is one call over all nodes, so the
number of special-function calls does not grow with the table.  Under
c > 0 the ratios that depend on c alone are taken once per distinct c;
the small-w series is one array over every (segment, element) pair that
needs it, runs each pair only as far as its stop test needs, and is the
first row alone where w = 0.  A float in gives a float out.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .params import (ExtremeSide, GosParams, RankPair, Regime, number_label, parse_number,
                     read_spec)
from .specfun import (beta_tail, clip_probability, domain_error, reg_inc_beta, reg_inc_gamma,
                      reg_inc_gamma_upper)

@dataclass(frozen=True)
class IndexLaw:
    """Weak limit of nu_n/n.  kind: degenerate | unit_exponential | tabulated,
    each defined by its record in `_LAWS`."""

    kind: str
    c: float | None = None
    grid: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in _LAWS:
            raise ValueError(f"unknown index law kind {self.kind!r}")
        for name in ("c", "grid"):
            if name not in self._spec.fields and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} law takes no {name}")
        self._spec.check(self)

    @property
    def _spec(self) -> _LawKind:
        return _LAWS[self.kind]

    @staticmethod
    def degenerate(c: float = 1.0) -> "IndexLaw":
        return IndexLaw(kind="degenerate", c=c)

    @staticmethod
    def unit_exponential() -> "IndexLaw":
        return IndexLaw(kind="unit_exponential")

    @staticmethod
    def tabulated(points: Sequence[tuple[float, float]]) -> "IndexLaw":
        return IndexLaw(kind="tabulated", grid=tuple((float(z), float(h)) for z, h in points))

    @staticmethod
    def spellings() -> dict[str, tuple[str, ...]]:  # for `params.read_spec`
        return {kind: spec.usages for kind, spec in _LAWS.items()}

    @staticmethod
    def parse(text: str) -> "IndexLaw":
        kind, args = read_spec(text, IndexLaw.spellings(), "index law")
        return _LAWS[kind].read(*args)

    @cached_property
    def pieces(self) -> tuple[tuple[float, float, float], ...]:
        """(density, z0, z1) of each segment of a tabulated law on which H rises."""
        return tuple(((h1 - h0) / (z1 - z0), z0, z1)
                     for (z0, h0), (z1, h1) in zip(self.grid, self.grid[1:]) if h1 > h0)

    @cached_property
    def _nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(z, lo, hi): the distinct ends of `pieces` in increasing order, and
        the index into z of each piece's left and right end.  A node is the
        left end of one piece at most and the right end of one at most."""
        z = np.array(sorted({z for _, z0, z1 in self.pieces for z in (z0, z1)}))
        lo, hi = np.searchsorted(z, [[z0 for _, z0, _ in self.pieces],
                                     [z1 for _, _, z1 in self.pieces]])
        return z, lo, hi

    def label(self) -> str:
        return self._spec.label(self)

    def mean(self) -> float:
        """E[z] under H."""
        return self._spec.mean(self)

    def laplace_bound(self, mass: float) -> float:
        """A W at which the Laplace transform int e^(-zW) dH(z) is at most `mass`."""
        return self._spec.laplace_bound(self, mass)


@dataclass(frozen=True)
class IndexMode:
    """Sample-size regime of the simulator: fixed | geometric |
    dependent(T-spec), each defined by its record in `_MODES`."""

    kind: str
    t_kind: str | None = None
    t_args: tuple[float, ...] = ()

    def __post_init__(self):
        if (self.kind, self.t_kind) not in _MODES:
            raise ValueError(f"{self.kind} mode takes no T-spec" if (self.kind, None) in _MODES
                             else f"unknown index mode {self.kind!r} with T-spec {self.t_kind!r}")
        self._spec.check(self)

    @property
    def _spec(self) -> _ModeKind:
        return _MODES[self.kind, self.t_kind]

    @staticmethod
    def spellings() -> dict[tuple[str, str | None], tuple[str, ...]]:  # every <arg> a number
        return {key: spec.usages for key, spec in _MODES.items()}

    @staticmethod
    def parse(text: str) -> "IndexMode":
        (kind, t_kind), args = read_spec(text, IndexMode.spellings(), "index mode")
        return IndexMode(kind, t_kind, tuple(map(parse_number, args)))

    def label(self) -> str:
        head = (self.kind,) if self.t_kind is None else (self.kind, self.t_kind)
        return ":".join([*head, *map(number_label, self.t_args)])

    def implied_law(self) -> IndexLaw:
        """The H toward which nu_n/n converges under this mode."""
        return self._spec.law(self)

    random_nu = property(lambda self: self._spec.random_nu)  # nu is drawn, not fixed by n
    carries = property(lambda self: self._spec.carries)  # the draw's uniform is a GOS factor


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
    return law._spec.cdf(law, z)


def realizing_mode(law: IndexLaw) -> IndexMode | None:
    """The sampler mode under which nu_n/n tends to `law`, or None if none does."""
    return law._spec.mode(law)


def _draw_index(mode: IndexMode, n: int, rng: np.random.Generator,
                floor: int) -> tuple[int, float | None]:
    """Returns (nu, carried_uniform); the carried uniform, when present, is a
    GOS factor of the same replication.  A nu past int64 is a ValueError."""
    try:
        nu, carried = _MODES[mode.kind, mode.t_kind].draw(mode, n, rng, floor)
    except OverflowError:  # n T rounds to inf, which ceil cannot take
        nu = math.inf
    if nu > 2**63 - 1:
        raise ValueError(f"index mode {mode.label()} at n = {n} draws nu = {nu:.6g}, "
                         "past the largest sample size 2**63 - 1")
    return nu, carried


def index_kernel(law: IndexLaw, j: float, w, shape: float = 1.0, c=0.0):
    """N_H(j, w, R, c) = int (zw)^j e^(-zw) / Gamma(j+1) * Q(R, zc) dH(z).

    Q(R, x) = 1 - Gamma_R(x) with R = `shape`; c = 0 drops the factor.
    j >= 0 may be real; under a tabulated law with c > 0 it must be an
    integer.  w and c are floats or arrays in [0, +inf], which broadcast;
    an infinite w or c gives 0, and a float pair gives a float.

    At R = 1 the degenerate and unit-exponential kernels take
    Q(1, x) = e^-x in closed form; the exponential one is then
    w^j / (1+w+c)^(j+1).  At R != 1 it is (w/(1+w))^j / (1+w) times
    I_x(j+1, R), x = (1+w)/(1+w+c), and where c < 1 + w the ratio is taken
    as the complement 1 - I_{1-x}(R, j+1), which keeps absolute accuracy
    only, about 1e-16: at high j, where the value is far below that, it
    may read 0.

    Under a tabulated law, the by-parts branch (c > 0, w z1 > 1 on a
    segment ending at z1) keeps absolute accuracy only, about 1e-16: where
    the value is far below that (high j), it is roundoff of either sign.
    """
    w, c = np.asarray(w, dtype=float), np.asarray(c, dtype=float)
    ok = (j >= 0.0) & (w >= 0.0) & (c >= 0.0)
    if not ok.all():
        raise domain_error("index_kernel needs j, w, c >= 0", ok, j=j, w=w, c=c)
    if law.kind == "tabulated" and j != int(j) and np.any(c > 0.0):
        raise ValueError(f"tabulated index_kernel needs an integer j when c > 0, got {j}")
    dead = np.isinf(w) | np.isinf(c)
    masked = dead.any()
    if masked:  # the kernels see 0 in place of an infinite w or c, each in its own shape
        w, c = np.where(np.isinf(w), 0.0, w), np.where(np.isinf(c), 0.0, c)
    with np.errstate(over="ignore"):  # a product past the largest float is inf, its limit
        value = _LAWS[law.kind].kernel(law, j, w, float(shape), c)
    if masked or np.shape(value) != dead.shape:  # a c = 0 kernel may drop c's shape
        value = np.where(dead, 0.0, value)
    return value if np.ndim(value) else float(value)


def _degenerate_kernel(law: IndexLaw, j: float, w, shape: float, c):
    point = law.c
    x = point * w
    if point > 1.0:  # x may pass the largest float; from 1e300 on every weight is 0
        x = np.minimum(x, 1e300)
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
    zc = point * c  # inf past the largest float, where Q is 0
    return weight * (np.exp(-zc) if shape == 1.0 else reg_inc_gamma_upper(shape, zc))


def _unit_exponential_kernel(law: IndexLaw, j: float, w, shape: float, c):
    if shape == 1.0:
        # Q(1, zc) = e^-zc merges with the law's e^-z: the kernel is
        # w^j / (1+w+c)^(j+1), and at c = 0 the front below bit for bit.
        t = 1.0 + w + c
        return (w / t) ** j / t
    # z ~ Gamma(j+1) and the Gamma(R) variate behind Q meet in a beta
    # ratio I_x(j+1, R), x = (1+w)/(1+w+c), the tail of Beta(R, j+1) past
    # 1 - x, which is exact only as c/(1+w+c).
    front = (w / (1.0 + w)) ** j / (1.0 + w)
    if not c.any():
        return front
    t = 1.0 + w + c
    return front * beta_tail(shape, j + 1.0, c / t, (1.0 + w) / t)


def _tabulated_kernel(law: IndexLaw, j: float, w, shape: float, c):
    # Node-major, about _SLICE (segment, element) pairs at a time: each
    # segment is a closed form whose branches are masks over the pairs,
    # every gamma ratio at a node is taken once for both segments that meet
    # there, and each kind of ratio is one call over all nodes.  The
    # segments are summed in table order, so an element's value does not
    # depend on the others or on the slicing.
    w, c = np.broadcast_arrays(w, c)
    out_shape, w, c = w.shape, w.ravel(), c.ravel()
    total = np.zeros(w.shape)
    size = max(1, _SLICE // len(law.pieces))
    for start in range(0, w.size, size):
        at = slice(start, start + size)
        free = c[at] == 0.0
        if free.all():
            part = _free_segments(j, w[at], law)
        elif not free.any():
            part = _q_segments(int(j), w[at], shape, c[at], law)
        else:
            part = np.empty((len(law.pieces), free.size))
            part[:, free] = _free_segments(j, w[at][free], law)
            part[:, ~free] = _q_segments(int(j), w[at][~free], shape, c[at][~free], law)
        for (slope, _, _), row in zip(law.pieces, part):
            total[at] += slope * row
    return total.reshape(out_shape)


# (segment, element) pairs per slice of a tabulated kernel call: its
# largest arrays hold (series row, segment, element), so memory stays fixed
# however many elements a call brings (the range rule brings its order
# times 64) and however long the table.
_SLICE = 4096


# --- the kinds: one record each (see "Kinds" in the module docstring) -------


@dataclass(frozen=True)
class _LawKind:
    usages: tuple[str, ...]  # its CLI spellings, the one help lists first
    read: Callable[..., IndexLaw]  # the law from the texts in a spelling's <arg> slots
    fields: tuple[str, ...]  # the IndexLaw fields it takes; the others stay None
    check: Callable[[IndexLaw], None]  # raises ValueError on a bad value of those
    label: Callable[[IndexLaw], str]
    cdf: Callable[[IndexLaw, float], float]  # H(z) at z >= 0
    kernel: Callable  # (law, j, w, shape, c) -> N_H at finite w, c (`index_kernel`)
    mean: Callable[[IndexLaw], float]
    laplace_bound: Callable[[IndexLaw, float], float]  # `IndexLaw.laplace_bound`
    mode: Callable[[IndexLaw], IndexMode | None]  # `realizing_mode`


@dataclass(frozen=True)
class _ModeKind:
    usages: tuple[str, ...]  # its CLI spellings, the one help lists first
    check: Callable[[IndexMode], None]  # raises ValueError on bad T-spec values
    draw: Callable  # (mode, n, rng, floor) -> `_draw_index`
    law: Callable[[IndexMode], IndexLaw]  # `IndexMode.implied_law`
    random_nu: bool
    carries: bool


def _check_point(law: IndexLaw) -> None:
    if law.c is None or not law.c > 0.0:
        raise ValueError("degenerate law needs a point mass c > 0")
    if law.c == math.inf:
        raise ValueError("degenerate law needs a finite point mass c, got c=inf")


def _tabulated_cdf(law: IndexLaw, z: float) -> float:
    if z >= law.grid[-1][0]:
        return law.grid[-1][1]
    for (z0, h0), (z1, h1) in zip(law.grid, law.grid[1:]):
        if z0 <= z <= z1:
            return h0 + (h1 - h0) * (z - z0) / (z1 - z0)
    return 0.0  # below the first node


def _tabulated_laplace_bound(law: IndexLaw, mass: float) -> float:
    # H has density at most d on [z_a, inf), so the transform is at most
    # d e^(-z_a W) / W: below d / W, and for z_a W >= 1 below d z_a e^(-z_a W).
    d, z_a = max(p[0] for p in law.pieces), law.pieces[0][1]
    if z_a > 0.0:
        return min(d / mass, max(1.0, math.log(d * z_a / mass)) / z_a)
    return d / mass


_LAWS = {  # usages, read, fields, check, label, cdf, kernel, mean, laplace_bound, mode
    "degenerate": _LawKind(
        ("degenerate:<c>",), lambda c: IndexLaw.degenerate(parse_number(c)),
        ("c",), _check_point, lambda law: f"degenerate:{number_label(law.c)}",
        lambda law, z: 1.0 if z >= law.c else 0.0, _degenerate_kernel, lambda law: law.c,
        lambda law, mass: math.log(1.0 / mass) / law.c,
        lambda law: (IndexMode("fixed") if law.c == 1.0
                     else IndexMode("dependent", "const", (law.c,)))),
    "unit_exponential": _LawKind(
        ("exponential", "unit_exponential", "exp"), IndexLaw.unit_exponential,
        (), lambda law: None, lambda law: "unit_exponential",
        lambda law, z: -math.expm1(-z), _unit_exponential_kernel, lambda law: 1.0,
        lambda law, mass: 1.0 / mass,  # the transform is 1/(1 + W)
        lambda law: IndexMode("geometric")),
    "tabulated": _LawKind(
        ("table:<path.csv>",), load_tabulated_csv,
        ("grid",), lambda law: _validate_table(law.grid),
        lambda law: f"tabulated[{len(law.grid)}]", _tabulated_cdf, _tabulated_kernel,
        lambda law: sum(slope * (z1 * z1 - z0 * z0) / 2.0 for slope, z0, z1 in law.pieces),
        _tabulated_laplace_bound,
        lambda law: (IndexMode("dependent", "uniform", (law.grid[0][0], law.grid[1][0]))
                     if len(law.grid) == 2 and law.grid[1][1] == 1.0 else None)),
}


def _check_no_t_spec(mode: IndexMode) -> None:
    if mode.t_args:
        raise ValueError(f"{mode.kind} mode takes no T-spec")


def _check_const(mode: IndexMode) -> None:
    if len(mode.t_args) != 1 or not mode.t_args[0] > 0.0:
        raise ValueError("dependent const T-spec needs one value c > 0")
    if mode.t_args[0] == math.inf:
        raise ValueError("dependent const T-spec needs a finite c, got c=inf")


def _check_uniform(mode: IndexMode) -> None:
    if len(mode.t_args) != 2 or not 0.0 < mode.t_args[0] < mode.t_args[1]:
        raise ValueError("dependent uniform T-spec needs 0 < a < b")
    if mode.t_args[1] == math.inf:  # a < b, so a is finite too
        raise ValueError("dependent uniform T-spec needs a finite b, got b=inf")


def _draw_uniform(mode: IndexMode, n: int, rng: np.random.Generator, floor: int):
    a, b = mode.t_args
    u0 = float(rng.random())
    t = a + (b - a) * u0
    return max(math.ceil(n * t), floor), u0


_MODES = {  # (kind, t_kind) -> usages, check, draw, law, random_nu, carries
    ("fixed", None): _ModeKind(
        ("fixed",), _check_no_t_spec, lambda mode, n, rng, floor: (n, None),
        lambda mode: IndexLaw.degenerate(1.0), random_nu=False, carries=False),
    ("geometric", None): _ModeKind(  # success probability 1/n, support 1, 2, ...
        ("geometric", "geometric_mean_n"), _check_no_t_spec,
        lambda mode, n, rng, floor: (max(int(rng.geometric(1.0 / n)), floor), None),
        lambda mode: IndexLaw.unit_exponential(), random_nu=True, carries=False),
    ("dependent", "const"): _ModeKind(
        ("dependent:const:<c>",), _check_const,
        lambda mode, n, rng, floor: (max(math.ceil(n * mode.t_args[0]), floor), None),
        lambda mode: IndexLaw.degenerate(mode.t_args[0]), random_nu=False, carries=False),
    ("dependent", "uniform"): _ModeKind(
        ("dependent:uniform:<a>:<b>",), _check_uniform, _draw_uniform,
        lambda mode: IndexLaw.tabulated([(mode.t_args[0], 0.0), (mode.t_args[1], 1.0)]),
        random_nu=True, carries=True),
}


def _free_segments(j: float, w, law: IndexLaw):
    """int_{z0}^{z1} (zw)^j e^(-zw) / Gamma(j+1) dz over each piece (z0, z1)
    of the table, one row each, at finite w (a 1-d array).  Gamma_{j+1}(zw)
    is taken once at each node, upper where a piece that meets there is
    past its mode and lower where one is near it."""
    a = j + 1.0
    z, lo, hi = law._nodes
    z0, z1 = z[lo, None], z[hi, None]
    value = np.empty((lo.size, w.size))
    value[:] = z1 - z0 if j == 0.0 else 0.0  # w = 0
    if not w.any():
        return value
    zw = z[:, None] * w
    with np.errstate(divide="ignore"):
        # Gamma_a(z1 w) would be subnormal (z1 w may round to 0): take
        # e^(-zw) as 1, which moves the value by less than e^-650 z1, and
        # the power in log space.
        tiny = (w > 0.0) & (a * np.log(zw[hi]) < -650.0)
    if tiny.any():
        piece, at = np.nonzero(tiny)
        shrink = np.array([-math.expm1(a * (math.log(z0) - math.log(z1))) if z0 > 0.0 else 1.0
                           for _, z0, z1 in law.pieces])
        log_z1 = np.array([a * math.log(z1) for _, _, z1 in law.pieces])
        value[tiny] = np.exp(j * np.log(w[at]) + log_z1[piece] - math.lgamma(a + 1.0)) * shrink[piece]
    past = zw[lo] > a  # past the mode: difference the upper ratios, which stay accurate
    near = (w > 0.0) & ~tiny & ~past
    every_w = np.broadcast_to(w, past.shape)
    for take, ratio, first, second in ((past, reg_inc_gamma_upper, lo, hi),
                                       (near, reg_inc_gamma, hi, lo)):
        if take.any():
            need = _at_nodes(take, law)
            ratios = np.zeros(need.shape)
            ratios[need] = ratio(a, zw[need])
            value[take] = (ratios[first][take] - ratios[second][take]) / every_w[take]
    return value


def _at_nodes(pairs, law: IndexLaw):
    """The greatest value of the (piece, element) array `pairs` (bool or
    int) at each (node, element), over the pieces that meet at the node."""
    z, lo, hi = law._nodes
    out = np.zeros((z.size, pairs.shape[1]), dtype=pairs.dtype)
    out[lo] = pairs
    out[hi] = np.maximum(out[hi], pairs)
    return out


def _q_segments(j: int, w, shape: float, c, law: IndexLaw):
    """int_{z0}^{z1} (zw)^j e^(-zw) / j! * Q(shape, zc) dz over each piece
    (z0, z1) of the table, one row each, at finite w and c > 0 (1-d arrays).

    Every gamma ratio at a node is taken once, for the elements that either
    piece that meets there reads, and each kind of ratio is one call over
    all nodes.  The ratios that depend on c alone (Q(shape, zc) and the node
    moments) are taken once per distinct c, as a product grid repeats its c
    over many w."""
    z, lo, hi = law._nodes
    c_set = np.unique(c)
    c_at = np.searchsorted(c_set, c)
    zc, u = np.outer(z, c_set), z[hi, None] * w
    q_set = reg_inc_gamma_upper(shape, zc)
    value = np.empty((lo.size, w.size))
    # Small w: the closed form would cancel to O((w z1)^(j+1)), so expand
    # e^(-zw) instead, sum_k coef_k moment_k with coef_k ~ (-u)^k / k! at
    # u = w z1 <= 1.  The powers of z are taken relative to z1, so none
    # overflows.  Each element stops at its first term below 1e-17 of its
    # running sum.  The moments fall with k and the sum keeps at least e^-u
    # of the first term, so that holds by the first k with u^k / k! <=
    # 3e-18 (the 21st term at the latest): a (piece, element) pair reads
    # its rows up to there only, and at w = 0 the sum is its first row,
    # coef_0 moment_0.  The moments at a node are taken on as many rows as
    # any pair that reads the node with that c needs (rows past a pair's
    # own do not reach its value).
    zero = w == 0.0
    if zero.all():  # a mixed marginal
        reach = np.ones((c_set.size, z.size), dtype=int)
    else:
        big = u > 1.0
        rows = np.where(big, 0, 2 + np.searchsorted(_SERIES_REACH, u))
        rows[:, zero] = 1
        reach = np.zeros((c_set.size, z.size), dtype=int)
        np.maximum.at(reach, c_at, _at_nodes(rows, law).T)
    if reach.any():
        k = np.arange(float(reach.max()))
        moments = q_set + _gamma_moment_ratio(shape, j + k + 1.0, zc, k[:, None, None] < reach.T)
    if zero.any():
        p = j + 1.0
        m = moments[0][:, c_at[zero]]
        z0, z1 = z[lo, None], z[hi, None]
        value[:, zero] = float(j == 0) * (z1 * (m[hi] - (z0 / z1) ** p * m[lo]) / p)
        if zero.all():
            return value
    small = ~big
    small[:, zero] = False
    if small.any():
        piece, at = np.nonzero(small)
        value[small] = _small_w_series(j, u[small], rows[small], piece, c_at[at], moments, law)
    if big.any():
        by_parts = _at_nodes(big, law)  # the (node, element) pairs it reads
        node, at = np.nonzero(by_parts)
        ends_value = np.zeros(by_parts.shape)
        ends_value[by_parts] = _segment_antiderivative(j, z[node], w[at], shape, c[at],
                                                       q_set[node, c_at[at]])
        value[big] = (ends_value[hi] - ends_value[lo])[big] / np.broadcast_to(w, big.shape)[big]
    return value


def _small_w_series(j: int, u, rows, piece, c_index, moments, law: IndexLaw):
    """The series of `_q_segments` at u = w z1 <= 1, over (piece, element)
    pairs (1-d arrays: u, the rows each pair reads, its piece and the index
    of its element's c into the distinct c), from the node moments M
    (row, node, distinct c), M = p z^-p int_0^z t^(p-1) Q(shape, tc) dt at
    p = j + 1, j + 2, ...: row k's moment is
    int_{z0}^{z1} (z/z1)^(j+k) Q(shape, zc) dz = z1 [M(z1) - (z0/z1)^p M(z0)] / p."""
    z, lo, hi = law._nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(u == 0.0, float(j == 0), np.exp(j * np.log(u) - math.lgamma(j + 1.0)))
    k = np.arange(float(rows.max()))[:, None]
    p = j + k + 1.0
    # (z0/z1)^p per piece as a float to a column of powers: numpy's power
    # may round other operand layouts differently
    powers = np.hstack([(z0 / z1) ** p for _, z0, z1 in law.pieces])
    terms = np.empty((k.size, u.size))  # in place from here: (row, pair) arrays are large
    terms[0] = coef
    np.divide(-u, k[1:], out=terms[1:])
    np.multiply.accumulate(terms, out=terms)
    m1, m0 = (moments[:k.size, node[piece], c_index] for node in (hi, lo))
    terms *= z[hi][piece] * (m1 - powers[:, piece] * m0) / p
    sums = np.add.accumulate(terms)  # in order, term by term
    bound = np.abs(sums)
    bound *= 1e-17
    stop = np.abs(terms, out=terms) <= bound
    every = np.arange(u.size)
    stop[rows - 1, every] = True
    return sums[stop.argmax(axis=0), every]


# u^k / k! <= 3e-18 exactly where u <= _SERIES_REACH[k - 1], k = 1 ... 20;
# 3e-18 stays below 1e-17 e^-1 with a fifth to spare for rounding.
_SERIES_REACH = np.array([(3e-18 * math.factorial(k)) ** (1.0 / k) for k in range(1, 21)])


def _segment_antiderivative(j: int, z, w, shape: float, c, q):
    """w * int_0^z (tw)^j e^(-tw) / j! * Q(shape, tc) dt at w, c > 0, given
    q = Q(shape, zc) (1-d arrays, pair by pair), by parts against the
    Poisson sum of Gamma_{j+1}: the weights C_i are negative-binomial.  The
    j + 1 terms are one array, subtracted in order.  Where c + w passes the
    largest float, the weights read c and w at half scale."""
    total = reg_inc_gamma(j + 1.0, z * w) * q + reg_inc_gamma(shape, z * c)
    scale = np.where(np.isinf(c + w), 0.5, 1.0)
    c, w = scale * c, scale * w
    reach = z * (c + w) / scale
    log_sum = np.log(c + w)
    log_front = shape * (np.log(c) - log_sum) - math.lgamma(shape)
    log_ratio = np.log(w) - log_sum
    i = np.arange(j + 1.0)[:, None]
    log_gammas = np.array([[math.lgamma(shape + k) - math.lgamma(k + 1.0)] for k in range(j + 1)])
    weight = np.exp(log_front + i * log_ratio + log_gammas)
    for term in weight * reg_inc_gamma(shape + i, reach):
        total = total - term
    return total


def _gamma_moment_ratio(shape: float, p, x, need):
    """E[T^p; T <= x] / x^p for T ~ Gamma(shape), at each power of the 1-d
    array p and each x >= 0, on the pairs that the mask `need` (a row per
    power, each the shape of x) picks, and 0 on the others, so that
    int_0^z t^(p-1) Q(shape, tc) dt = z^p [Q(shape, zc) + this at x = zc] / p."""
    row, col = np.nonzero(need.reshape(p.size, -1))
    a = shape + p
    log_norm = np.array([math.lgamma(v) - math.lgamma(shape) for v in a])[row]
    a, p, x = a[row], p[row], x.ravel()[col]
    tail = reg_inc_gamma(a, x)
    big = tail > 1e-260  # a normal float with digits to spare
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value = np.where(big, np.exp(log_norm - p * np.log(x) + np.log(tail)), 0.0)
    small = (x > 0.0) & ~big
    if small.any():
        # Small x: the series of Gamma_a(x) with x^p divided out.
        at, a = x[small], a[small]
        term = np.exp(shape * np.log(at) - at - math.lgamma(shape)) / a
        total, i = term, 0
        live = term > 1e-17 * total
        while live.any():
            i += 1
            term = np.where(live, term * (at / (a + i)), term)
            total = np.where(live, total + term, total)
            live &= term > 1e-17 * total
        value[small] = total
    out = np.zeros(need.shape)
    out[need] = value
    return out


def mixture_df(params: GosParams, pair: RankPair, law: IndexLaw, a, b):
    """Random-index limit df of the rank pair at transform values (a, b),
    floats or arrays that broadcast: each is kappa at an upper end and rho
    at a lower one, by `pair.regime.sides`.

    Lower-upper is int Gamma_r(z a) [1 - Gamma_{R_s}(z b^(m+1))] dH(z).
    Both factors share one index scale z: the sample size couples the
    minimum and the maximum, so under a non-degenerate law it is not the
    product of the two mixed marginals (a degenerate law reduces it to
    `omega_lu_product`).  With the Poisson sum
    Gamma_r(x) = 1 - sum_{j<r} x^j e^-x / j! it is a finite sum of kernels."""
    r, s = pair.r, pair.s
    if pair.regime == Regime.UPPER_UPPER:
        k1, k2 = params.kappa_power(a), params.kappa_power(b)
        rs = params.rank_weight(s)
        # Where k1 <= k2 (x >= y) the joint collapses onto the shallower
        # marginal at k2.  Elsewhere G_r = G_s + D with D ~ Gamma(r - s):
        # either G_s > k1 already, or G_s lies in (k2, k1] and D covers the
        # rest, which at G_s = k1 t splits by the Poisson sum of D's tail into
        # beta ratios in t.  Q(R_s, .) at max(k1, k2) is read off one call over
        # both, and collapsed points take x = 0, where every ratio vanishes.
        joint = k1 > k2
        k1, k2 = np.asarray(k1), np.asarray(k2)
        q = index_kernel(law, 0.0, 0.0, rs, np.concatenate([k1.ravel(), k2.ravel()]))
        value = np.where(joint, q[:k1.size].reshape(k1.shape), q[k1.size:].reshape(k2.shape))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x = np.where(joint, 1.0 - k2 / k1, 0.0)
        for i in range(r - s):
            value = value + index_kernel(law, rs + i, k1) * reg_inc_beta(x, i + 1, rs)
        return clip_probability(value)
    if pair.regime == Regime.LOWER_LOWER:
        # Where a >= b (x >= y) the deeper coordinate is inactive, and
        # collapsed points take x = 0, where every ratio vanishes.
        collapsed = a >= b
        value = np.where(collapsed, _mixed_lower(s, b, law), _mixed_lower(r, a, law))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x = np.where(collapsed, 0.0, np.divide(a, b))
        for j in range(s - r):
            value = value - index_kernel(law, r + j, b) * reg_inc_beta(x, r, j + 1)
        return clip_probability(value if value.ndim else float(value))
    k2 = params.kappa_power(b)
    shape = params.rank_weight(s)
    value = index_kernel(law, 0.0, 0.0, shape, k2)
    value = value - sum(index_kernel(law, float(j), a, shape, k2) for j in range(r))
    return clip_probability(value)


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
