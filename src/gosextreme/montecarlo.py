"""Seeded simulation engine for m-GOS extremes under random sample size.

Sampling uses the product representation of uniform m-GOS:

    U(r) = 1 - prod_{j<=r} W_j^(1/gamma_j),  gamma_j = k + (size-j)(m+1),

with W_j independent standard uniforms, pushed through the parent
quantile.  Replications draw from independent Philox streams (stream i
is `Philox(key=seed).jumped(i)`), so the tally is reproducible bit for
bit regardless of how replications would be partitioned across workers;
the reduction is integer counting and therefore associative.  Philox is
counter-based and a jump adds 1 to word 2 of its counter, so each call
builds one bit generator and re-keys it before replication i to counter
[0, 0, i, 0] with an empty buffer, which is exactly stream i.

A replication draws the uniforms only up to the highest position its
pair reads, and sums ln(W_j)/gamma_j in fixed-size blocks with the
arithmetic and order of one whole `cumsum`, so every value is the one
`reference.sample_uniform_gos` gives from the same stream.  A
lower-lower pair (r, s) draws max(r, s) uniforms whatever nu is; a pair
that reaches the top of the sample draws about nu, in time linear in nu
and in memory bounded by one block.

Random-size modes:

* ``fixed``            nu = n;
* ``geometric``        nu geometric with success probability 1/n
                       (support 1, 2, ...; mean n), the H(z) = 1 - e^-z case;
* ``dependent``        nu = max(floor, ceil(n*t)) with t drawn from the
                       built-in T-spec (constant, or uniform on [a, b]);
                       for the uniform T the same uniform variate is
                       reused as the middle GOS factor W_ceil(nu/2), so
                       the index and the sample are genuinely
                       interrelated while nu/n -> T still holds.  A
                       middle factor weighs O(1/nu) in every extreme,
                       so both tails keep their mixture limit; reused
                       as W_1 it would fix the minimum as a function
                       of T.

Extremes are always normalized by the constants evaluated at the
configured n, never at the realized nu.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .distributions import DistributionModel, norming_constants, quantile, tail_transform
from .limitlaws import TailTransform, kappa, rho
from .params import ExtremeSide, GosParams, RankPair, Regime, number_label
from .randomindex import IndexLaw, mixture_ll, mixture_lu, mixture_uu

_ONE_BELOW = float(np.nextafter(1.0, 0.0))
_TINY = 5e-324


@dataclass(frozen=True)
class IndexMode:
    """Sample-size regime: fixed | geometric | dependent(T-spec)."""

    kind: str
    t_kind: str | None = None
    t_args: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind in ("fixed", "geometric"):
            if self.t_kind is not None:
                raise ValueError(f"{self.kind} mode takes no T-spec")
        elif self.kind == "dependent":
            if self.t_kind == "const":
                if len(self.t_args) != 1 or not self.t_args[0] > 0.0:
                    raise ValueError("dependent const T-spec needs one value c > 0")
            elif self.t_kind == "uniform":
                if len(self.t_args) != 2 or not 0.0 < self.t_args[0] < self.t_args[1]:
                    raise ValueError("dependent uniform T-spec needs 0 < a < b")
            else:
                raise ValueError("dependent mode needs T-spec const:c or uniform:a:b")
        else:
            raise ValueError(f"unknown index mode {self.kind!r}")

    @staticmethod
    def parse(text: str) -> "IndexMode":
        parts = text.strip().lower().split(":")
        if parts[0] == "geometric_mean_n":
            parts[0] = "geometric"
        if parts[0] in ("fixed", "geometric") and len(parts) == 1:
            return IndexMode(kind=parts[0])
        if parts[0] == "dependent" and len(parts) >= 2:
            return IndexMode(
                kind="dependent",
                t_kind=parts[1],
                t_args=tuple(float(v) for v in parts[2:]),
            )
        raise ValueError(
            f"cannot parse index mode {text!r}; expected fixed, geometric, "
            "dependent:const:<c> or dependent:uniform:<a>:<b>"
        )

    def label(self) -> str:
        if self.kind == "dependent":
            return ":".join(["dependent", self.t_kind, *map(number_label, self.t_args)])
        return self.kind

    def implied_law(self) -> IndexLaw:
        """The H toward which nu_n/n converges under this mode."""
        if self.kind == "fixed":
            return IndexLaw.degenerate(1.0)
        if self.kind == "geometric":
            return IndexLaw.unit_exponential()
        if self.t_kind == "const":
            return IndexLaw.degenerate(self.t_args[0])
        a, b = self.t_args
        return IndexLaw.tabulated([(a, 0.0), (b, 1.0)])


@dataclass(frozen=True)
class SimConfig:
    params: GosParams
    model: DistributionModel
    ranks: RankPair
    index_mode: IndexMode
    replications: int
    seed: int
    eval_grid: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.eval_grid:
            raise ValueError("eval_grid must be nonempty")
        self.ranks.validate_against(self.params.n)

    def to_dict(self) -> dict:
        return {
            "m": self.params.m,
            "k": self.params.k,
            "n": self.params.n,
            "model": self.model.label(),
            "regime": self.ranks.regime.value,
            "r": self.ranks.r,
            "s": self.ranks.s,
            "index_mode": self.index_mode.label(),
            "replications": self.replications,
            "seed": self.seed,
            "grid_size": len(self.eval_grid),
        }


@dataclass(frozen=True)
class SimulationReport:
    config: dict
    grid: tuple
    empirical: tuple
    analytic: tuple
    standard_errors: tuple
    sup_distance: float
    seed: int
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "grid": [list(g) if isinstance(g, tuple) else g for g in self.grid],
            "empirical": list(self.empirical),
            "analytic": list(self.analytic),
            "standard_errors": list(self.standard_errors),
            "sup_distance": self.sup_distance,
            "seed": self.seed,
        }
        if self.extra:
            payload["extra"] = self.extra
        return json.dumps(payload, sort_keys=True, indent=2)


def ks_distance(empirical: Sequence[float], analytic: Sequence[float]) -> float:
    """Max absolute difference between two equal-shape probability grids."""
    emp = np.asarray(empirical, dtype=float)
    ana = np.asarray(analytic, dtype=float)
    if emp.shape != ana.shape:
        raise ValueError(f"shape mismatch: {emp.shape} vs {ana.shape}")
    return float(np.max(np.abs(emp - ana)))


def sample_random_index(mode: IndexMode, n: int, rng: np.random.Generator, floor: int = 1) -> int:
    """Draw nu for one replication (the public, carry-free variant)."""
    nu, _ = _draw_index(mode, n, rng, floor)
    return nu


def _draw_index(
    mode: IndexMode, n: int, rng: np.random.Generator, floor: int
) -> tuple[int, float | None]:
    """Returns (nu, carried_uniform); the carried uniform, when present,
    must be reused as a GOS factor of the same replication."""
    if mode.kind == "fixed":
        return n, None
    if mode.kind == "geometric":
        return max(int(rng.geometric(1.0 / n)), floor), None
    if mode.t_kind == "const":
        return max(math.ceil(n * mode.t_args[0]), floor), None
    a, b = mode.t_args
    u0 = float(rng.random())
    t = a + (b - a) * u0
    return max(math.ceil(n * t), floor), u0


_SideRank = tuple[ExtremeSide, int]

# Uniforms per block of the running sum: the sampler's memory for a pair
# that reaches the top of the sample.
_BLOCK = 4096
# The per-call gamma table covers nu - j below this bound, so its memory,
# like the block's, stays flat in nu; blocks above it compute their own.
_GAMMA_TABLE_MAX = 1 << 16


class _Streams:
    """Stream i of the module docstring, taken by re-keying one Philox bit
    generator in place: counter [0, 0, i, 0], key = seed, buffer empty."""

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(key=seed)
        self._rng = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state
        self._state.update(buffer_pos=4, has_uint32=0, uinteger=0)
        self._counter = self._state["state"]["counter"]
        self._counter[:] = 0

    def start(self, replication: int) -> np.random.Generator:
        self._counter[2] = replication
        self._bitgen.state = self._state
        return self._rng


class _Gammas:
    """gamma_j = k + (nu - j)(m + 1), computed as
    `reference.sample_uniform_gos` does and served as contiguous runs of
    a per-call table indexed by nu - j."""

    def __init__(self, params: GosParams):
        self._k, self._step = params.k, params.m + 1.0
        self._table = np.empty(0)

    def run(self, top: int, count: int) -> np.ndarray:
        """gamma_j for nu - j = top, top - 1, ..., top - count + 1."""
        if top >= _GAMMA_TABLE_MAX:
            return self._k + np.arange(top, top - count, -1) * self._step
        size = len(self._table)
        if top >= size:
            size = top + 1
            self._table = self._k + np.arange(size - 1, -1, -1) * self._step
        start = size - 1 - top
        return self._table[start:start + count]


def simulate_value_pairs(
    params: GosParams,
    model: DistributionModel,
    mode: IndexMode,
    first: _SideRank,
    second: _SideRank,
    replications: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unnormalized) extreme pairs, one row per replication.

    Each coordinate is (side, rank): rank from the bottom for LOWER,
    from the top for UPPER.
    """
    floor = max(first[1], second[1]) + 1
    streams = _Streams(seed)
    gammas = _Gammas(params)
    block = np.empty(_BLOCK)
    sum_first = np.empty(replications)
    sum_second = np.empty(replications)
    for i in range(replications):
        rng = streams.start(i)
        nu, carry = _draw_index(mode, params.n, rng, floor)
        at_first, at_second = _position(first, nu), _position(second, nu)
        stop = max(at_first, at_second) + 1
        slot = (nu - 1) // 2
        total = 0.0
        for lo in range(0, stop, _BLOCK):
            hi = min(lo + _BLOCK, stop)
            w = block[:hi - lo]
            rng.random(out=w)
            if carry is not None and lo <= slot < hi:
                w[slot - lo] = carry
            np.log(w, out=w)
            np.divide(w, gammas.run(nu - 1 - lo, hi - lo), out=w)
            w[0] += total
            np.cumsum(w, out=w)
            total = w[-1]
            if lo <= at_first < hi:
                sum_first[i] = w[at_first - lo]
            if lo <= at_second < hi:
                sum_second[i] = w[at_second - lo]
    clip = np.clip
    u_first, u_second = -np.expm1(sum_first), -np.expm1(sum_second)
    x_first = np.asarray(quantile(model, clip(u_first, _TINY, _ONE_BELOW)), dtype=float)
    x_second = np.asarray(quantile(model, clip(u_second, _TINY, _ONE_BELOW)), dtype=float)
    return x_first, x_second


def _position(side_rank: _SideRank, nu: int) -> int:
    side, rank = side_rank
    return rank - 1 if side == ExtremeSide.LOWER else nu - rank


def _regime_sides(pair: RankPair) -> tuple[_SideRank, _SideRank]:
    if pair.regime == Regime.UPPER_UPPER:
        return (ExtremeSide.UPPER, pair.r), (ExtremeSide.UPPER, pair.s)
    if pair.regime == Regime.LOWER_LOWER:
        return (ExtremeSide.LOWER, pair.r), (ExtremeSide.LOWER, pair.s)
    return (ExtremeSide.LOWER, pair.r), (ExtremeSide.UPPER, pair.s)


def analytic_limit_df(
    params: GosParams,
    pair: RankPair,
    up: TailTransform | None,
    low: TailTransform | None,
    law: IndexLaw,
    x,
    y,
):
    """Random-index limit df of the rank pair at (x, y), under the upper
    and lower tail transforms its regime uses (the other may be None).
    x and y are floats or arrays that broadcast, so a whole grid takes
    one call.  A degenerate law gives the fixed-size limit."""
    if pair.regime == Regime.UPPER_UPPER:
        return mixture_uu(params, pair.r, pair.s, kappa(up, x), kappa(up, y), law)
    if pair.regime == Regime.LOWER_LOWER:
        return mixture_ll(pair.r, pair.s, rho(low, x), rho(low, y), law)
    return mixture_lu(params, pair.r, pair.s, rho(low, x), kappa(up, y), law)


def run_bivariate_sim(config: SimConfig) -> SimulationReport:
    """Simulate the configured extreme pair and compare the empirical df
    with the analytic limit on the evaluation grid.

    Grid coordinates may be +inf to probe a marginal slice.  The report
    is deterministic for a given config (including the seed).
    """
    params, model, pair = config.params, config.model, config.ranks
    first, second = _regime_sides(pair)
    consts = norming_constants(model, params)
    raw1, raw2 = simulate_value_pairs(
        params, model, config.index_mode, first, second,
        config.replications, config.seed,
    )
    z1 = _normalize(raw1, first[0], consts)
    z2 = _normalize(raw2, second[0], consts)

    law = config.index_mode.implied_law()
    up = tail_transform(model, ExtremeSide.UPPER)
    low = tail_transform(model, ExtremeSide.LOWER)
    xs, ys = np.array(config.eval_grid, dtype=float).T
    return tally_report(
        config.to_dict(), tuple(config.eval_grid),
        lambda g: (z1 < g[0]) & (z2 < g[1]),
        analytic_limit_df(params, pair, up, low, law, xs, ys),
        config.replications, config.seed,
    )


def tally_report(
    config: dict,
    grid: tuple,
    below: Callable[[object], np.ndarray],
    analytic: Sequence[float],
    replications: int,
    seed: int,
) -> SimulationReport:
    """Compare the simulated df with the analytic limit on the grid.

    At each grid point g, `below(g)` marks the replications under g; their
    share is the empirical df, with its binomial standard error.
    `analytic` holds the analytic value at each grid point, evaluated over
    the whole grid at once.
    """
    m = float(replications)
    empirical, ses = [], []
    for g in grid:
        p_hat = int(np.count_nonzero(below(g))) / m
        empirical.append(p_hat)
        ses.append(math.sqrt(p_hat * (1.0 - p_hat) / m))
    analytic = tuple(float(v) for v in analytic)
    return SimulationReport(
        config=config,
        grid=grid,
        empirical=tuple(empirical),
        analytic=analytic,
        standard_errors=tuple(ses),
        sup_distance=ks_distance(empirical, analytic),
        seed=seed,
    )


def _normalize(values: np.ndarray, side: ExtremeSide, consts) -> np.ndarray:
    if side == ExtremeSide.UPPER:
        return (values - consts.b) / consts.a
    return (values - consts.d) / consts.c
