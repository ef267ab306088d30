"""Seeded simulation engine for m-GOS extremes under random sample size.

Sampling uses the product representation of uniform m-GOS:

    U(r) = 1 - prod_{j<=r} W_j^(1/gamma_j),  gamma_j = k + (size-j)(m+1),

with W_j independent standard uniforms, pushed through the parent
quantile.  Replications draw from independent Philox streams (stream i
is `Philox(key=seed).jumped(i)`), so the tally is reproducible bit for
bit however the replications are split across workers; the reduction is
integer counting and therefore associative.  Philox is
counter-based and a jump adds 1 to word 2 of its counter, so a bit
generator re-keyed to counter [0, 0, i, 0] with an empty buffer is
exactly stream i.

Replications are summed a tile of up to _TILE at a time.  Each call
keeps one bit generator per row of a tile, so a row resumes its stream
from block to block of positions.  A replication draws the uniforms
only up to the highest position its pair reads, and its terms
ln(W_j)/gamma_j are added in order, position by position, as one
`cumsum` of the replication alone adds them: a tile's block is laid out
position-major, and one `np.add.reduce(axis=0)` over its two or more
columns advances every row's running sum (a lone row takes `cumsum`,
as numpy sums a single column pairwise).  So every value is the one
`reference.sample_uniform_gos` gives from the same stream.  A
lower-lower pair (r, s) draws max(r, s) uniforms whatever nu is; a pair
that reaches the top of the sample draws about nu, in time linear in
nu.  Under a random nu the lengths of such a pair's sums differ, so
every nu is drawn once ahead and the tiles take the replications in
order of length.  Beyond its results, a call's memory is one tile (two
buffers of _TILE x _BLOCK values, and one block's gammas) per process,
whatever nu or the number of replications.

A call splits its replications into W contiguous slices, W the CPUs the
process may run on, capped so that each slice carries _FORK_WORK
positions (replications times the positions each reads).  The caller
sums slice 0; each other slice is summed in a child started by
`os.fork`, which draws and sorts its own nu, sends its two arrays of
sums back through a pipe and ends in `os._exit`.  Each value depends on
its own stream alone, so the bytes do not depend on W.  A slice whose
child sends less than its sums (it raised, or it died) is summed by the
caller, in slice order, so an error is the one the serial call raises;
no child outlives the call.  Where `os.fork` or
`os.sched_getaffinity` is missing, the caller runs other threads, or the
work is small, one process sums every slice.

Random-size modes are `randomindex.IndexMode`, whose records
(`randomindex._MODES`) draw nu.  Under ``dependent:uniform`` the uniform
that sets nu is reused as the middle GOS factor W_ceil(nu/2), so index
and sample are interrelated while nu/n -> T still holds: a middle factor
weighs O(1/nu) in every extreme, so both tails keep their mixture limit
(reused as W_1 it would fix the minimum as a function of T).

Extremes are always normalized by the constants evaluated at the
configured n, never at the realized nu.
"""

from __future__ import annotations

import json
import math
import os
import signal
import threading
from dataclasses import asdict, dataclass
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .distributions import DistributionModel, norming_constants, quantile, tail_transform
from .limitlaws import TailTransform, kappa, rho
from .params import ExtremeSide, GosParams, RankPair
from .randomindex import IndexLaw, IndexMode, _draw_index, mixture_df

_ONE_BELOW = float(np.nextafter(1.0, 0.0))
_TINY = 5e-324


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

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


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


# Positions per block: a replication draws its uniforms _BLOCK at a time.
_BLOCK = 1024
# Replications per tile: the rows whose running sums advance together.  A
# tile's two buffers hold _TILE x _BLOCK values each, whatever nu is.
_TILE = 64
# Positions (replications x positions read) that each worker's slice must
# carry; a call with less than twice this runs in one process.  On a shared
# 2-core x86 box (Python 3.11, an ~80 MB caller), a split in two against
# one process, 25 alternated calls per size, won 0-5 calls at 0.5M
# positions (medians 0.58-0.94x), 11-15 at 1M, 20 at 1.5M and 14-25 at 2M
# (1.04-1.31x): each fork costs ~5-10 ms, most of it copy-on-write faults.
_FORK_WORK = 1_000_000


class _Streams:
    """Stream i of the module docstring, taken by re-keying a Philox bit
    generator in place: counter [0, 0, i, 0], key = seed, buffer empty.
    The pool holds `size` generators, so as many streams stay open at
    once and each resumes where its last draw stopped."""

    def __init__(self, seed: int, size: int = 1):
        self._bitgens = [np.random.Philox(key=seed) for _ in range(size)]
        self._rngs = [np.random.Generator(bitgen) for bitgen in self._bitgens]
        state = self._bitgens[0].state
        # Plain ints, which the state setter reads faster than arrays.
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": state["bit_generator"],
            "state": {"counter": self._counter, "key": state["state"]["key"].tolist()},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }

    def start(self, replication: int, slot: int = 0) -> np.random.Generator:
        self._counter[2] = replication
        self._bitgens[slot].state = self._state
        return self._rngs[slot]


def _column_sums(segment: np.ndarray) -> np.ndarray:
    """Each column's sum down a position-major segment, adding the rows in
    order, so that it is the last entry of the column's `cumsum`.
    `np.add.reduce` adds rows in order over two or more columns; over one
    it sums pairwise, so a lone column takes `cumsum`."""
    if segment.shape[1] == 1:
        return np.cumsum(segment[:, 0])[-1:]
    return np.add.reduce(segment, axis=0)


class _TileSampler:
    """Prefix sums of ln(W_j)/gamma_j at a pair's two positions, a tile of
    up to _TILE replications at a time.

    A tile's rows are right-aligned: row b starts `pad` columns in, so
    every row ends at the tile's last column, at the deeper of its two
    positions, and column c carries gamma index `top - c`.  Columns before
    a row's start hold zeros, which add nothing to its sum.  Each block of
    columns is drawn row by row, each row from its own open stream, then
    taken through `log` and the divide in whole-tile calls and copied
    position-major, where `_column_sums` advances every row's running
    total at once.  The deeper position's sum is the row's final total.
    The shallower one is read mid-way: where its column is the same for
    every row, the block's column sums split there; where it is not (the
    lower rank of a lower-upper pair under a random nu), it is read off a
    row-wise `cumsum` of the block's prefix.
    """

    def __init__(self, params, mode, pair, seed, tile):
        self._n, self._mode = params.n, mode
        self._pair = pair
        self._floor = pair.max_rank + 1
        self._carries = mode.carries
        self._streams = _Streams(seed, tile)
        self._k, self._step = params.k, params.m + 1.0
        self._tile = tile

    def plan(self, replications: np.ndarray) -> np.ndarray:
        """The replications (stream indices) in tile order, with the tile's
        buffers sized for the longest sum.  Lengths differ only under a
        random nu and a pair that reaches the top; then every nu is drawn
        here once, and sorting by length gives each tile rows of about equal
        length.  Otherwise the first replication's length is every one's."""
        upper = ExtremeSide.UPPER in self._pair.regime.sides
        draws = replications if self._mode.random_nu and upper else replications[:1]
        nus = np.fromiter((
            _draw_index(self._mode, self._n, self._streams.start(i), self._floor)[0]
            for i in draws.tolist()
        ), dtype=np.int64, count=len(draws))
        stops = np.maximum(*_positions(self._pair, nus)) + 1
        size = self._tile * min(_BLOCK, int(stops.max()))
        self._flat = (np.empty(size), np.empty(size))
        if len(draws) < len(replications):
            return replications
        return replications[np.argsort(stops, kind="stable")]

    def sums(self, replications: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The prefix sums at the pair's two positions for one tile."""
        count = len(replications)
        # Each row opens its stream on a slot of the pool and draws its nu
        # (and carry) there, so the stream stands at the row's first W.
        rngs, nus, carries = [], np.empty(count, dtype=np.int64), np.empty(count)
        for slot, i in enumerate(replications.tolist()):
            rng = self._streams.start(i, slot)
            nus[slot], carry = _draw_index(self._mode, self._n, rng, self._floor)
            rngs.append(rng)
            if carry is not None:
                carries[slot] = carry
        at = _positions(self._pair, nus)
        stop = np.maximum(*at) + 1
        width = int(stop.max())
        pad = width - stop
        pads = pad.tolist()
        tops = nus - 1 + pad
        # Column c divides by k + (top - c)(m + 1), as `sample_uniform_gos`
        # takes gamma_j; top is one for the tile if its rows' agree.
        top = tops[0] if tops.min() == tops.max() else tops[:, None]
        # Every row ends at the last column, at its deeper position, whose
        # sum is the row's final total; only the shallower one, at column
        # `mid`, is read mid-way.
        mid = pad + np.minimum(*at)
        split = int(mid[0]) if mid.min() == mid.max() else -1
        slot_cols = pad + (nus - 1) // 2
        shallow = np.empty(count)
        total = np.zeros(count)
        for lo in range(0, width, _BLOCK):
            hi = min(lo + _BLOCK, width)
            # Rows past `idle` have started by this block and run to its end.
            idle = int(np.count_nonzero(pad >= hi))
            size = (count - idle) * (hi - lo)
            block = self._flat[0][:size].reshape(count - idle, hi - lo)
            by_position = self._flat[1][:size].reshape(hi - lo, count - idle)
            for slot in range(idle, count):
                start = pads[slot] - lo
                row = block[slot - idle]
                if start > 0:
                    row[:start] = 1.0  # ln 1 = 0
                    row = row[start:]
                rngs[slot].random(out=row)
            if self._carries:
                hit = np.flatnonzero((slot_cols >= lo) & (slot_cols < hi))
                block[hit - idle, slot_cols[hit] - lo] = carries[hit]
            np.log(block, out=block)
            first = top if top.ndim == 0 else top[idle:]
            np.divide(block, self._k + (first - lo - np.arange(hi - lo)) * self._step, out=block)
            rows = np.flatnonzero((mid >= lo) & (mid < hi))
            if split < 0 and rows.size:
                # `mid` differs by row: each row's running total, then its
                # terms from its start in this block (zeros before it add nothing).
                begin = np.maximum(pad[rows] - lo, 0)
                span = mid[rows] - lo - begin
                reach = np.minimum(begin[:, None] + np.arange(span.max() + 1), hi - lo - 1)
                prefix = block[(rows - idle)[:, None], reach]
                prefix[:, 0] += total[rows]
                np.cumsum(prefix, axis=1, out=prefix)
                shallow[rows] = prefix[np.arange(rows.size), span]
            # Position-major, the running totals advance from the row that
            # holds the sum so far, in two segments where `split` falls here.
            np.copyto(by_position, block.T)
            by_position[0] += total[idle:]
            if lo <= split < hi:
                shallow[:] = by_position[split - lo] = _column_sums(by_position[:split - lo + 1])
                by_position = by_position[split - lo:]
            total[idle:] = _column_sums(by_position)
        deep_first = at[0] >= at[1]
        return np.where(deep_first, total, shallow), np.where(deep_first, shallow, total)


def _slices(params: GosParams, pair: RankPair, replications: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) slices of the replications, one per worker: as
    many as the CPUs this process may run on, while each slice carries
    _FORK_WORK positions.  The work is replications times the positions a
    replication reads, nu (taken at n) for a pair that reaches the top and
    max(r, s) otherwise.  One slice where os.fork or os.sched_getaffinity
    is missing, or where the caller runs other threads, which a fork would
    leave behind, holding whatever locks they held."""
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if not can_fork or threading.active_count() > 1:
        return [(0, replications)]
    reads = params.n if ExtremeSide.UPPER in pair.regime.sides else pair.max_rank
    workers = max(1, min(len(os.sched_getaffinity(0)), replications,
                         replications * reads // _FORK_WORK))
    return [(replications * w // workers, replications * (w + 1) // workers)
            for w in range(workers)]


def _run_slices(run: Callable[[int, int], None], slices: list[tuple[int, int]],
                sums: tuple[np.ndarray, ...]) -> None:
    """`run(lo, hi)` fills replications lo..hi-1 of each array in `sums`;
    this calls it on the first slice here and on each other slice in a
    forked child, whose entries come back through a pipe.  A slice whose
    child sent less than its entries (it raised, or it died) is run here
    after the slices before it, so an error is the one the serial call
    raises, the lowest slice's first.  No child outlives the call."""
    children = []  # (lo, hi, pid, read end of its pipe)
    try:
        for lo, hi in slices[1:]:
            children.append((lo, hi, *_fork_slice(run, lo, hi, sums)))
        run(*slices[0])
        for lo, hi, _, pipe in children:
            if not all(pipe.readinto(v[lo:hi]) == v[lo:hi].nbytes for v in sums):
                run(lo, hi)
    except BaseException:
        for _, _, pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, _, pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _fork_slice(run: Callable[[int, int], None], lo: int, hi: int,
                sums: tuple[np.ndarray, ...]) -> tuple[int, BinaryIO]:
    """A child that runs slice [lo, hi) and writes its entries of each
    array, or nothing past an exception; it always ends in os._exit.
    Returns its pid and the pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                run(lo, hi)
                for values in sums:
                    pipe.write(values[lo:hi])
        finally:
            os._exit(0)
    os.close(write)
    return pid, open(read, "rb")


def simulate_value_pairs(
    params: GosParams,
    model: DistributionModel,
    mode: IndexMode,
    pair: RankPair,
    replications: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unnormalized) values of the pair's two extremes, one per
    replication each: r and s count from the ends `pair.regime.sides` names.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    sum_first, sum_second = sums = np.empty(replications), np.empty(replications)

    def run(lo: int, hi: int) -> None:  # replications lo..hi-1 into their entries of `sums`
        tile = min(_TILE, hi - lo)
        sampler = _TileSampler(params, mode, pair, seed, tile)
        order = sampler.plan(np.arange(lo, hi))
        for at in range(0, hi - lo, tile):
            rows = order[at:at + tile]
            sum_first[rows], sum_second[rows] = sampler.sums(rows)

    _run_slices(run, _slices(params, pair, replications), sums)
    clip = np.clip
    u_first, u_second = -np.expm1(sum_first), -np.expm1(sum_second)
    x_first = np.asarray(quantile(model, clip(u_first, _TINY, _ONE_BELOW)), dtype=float)
    x_second = np.asarray(quantile(model, clip(u_second, _TINY, _ONE_BELOW)), dtype=float)
    return x_first, x_second


def _positions(pair: RankPair, nu: np.ndarray) -> list[np.ndarray]:
    """The 0-based positions of r and s in samples of sizes nu."""
    return [np.full_like(nu, rank - 1) if side == ExtremeSide.LOWER else nu - rank
            for side, rank in zip(pair.regime.sides, (pair.r, pair.s))]


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
    and lower tail transforms its regime uses (the other may be None), at
    floats or arrays that broadcast: on a grid's axes (a column and a row)
    each transform runs once per grid value.  A degenerate law gives the
    fixed-size limit."""
    values = (kappa(up, v) if side == ExtremeSide.UPPER else rho(low, v)
              for side, v in zip(pair.regime.sides, (x, y)))
    return mixture_df(params, pair, law, *values)


def run_bivariate_sim(config: SimConfig) -> SimulationReport:
    """Simulate the configured extreme pair and compare the empirical df
    with the analytic limit on the evaluation grid.

    Grid coordinates may be +inf to probe a marginal slice.  The report
    is deterministic for a given config (including the seed).
    """
    params, model, pair = config.params, config.model, config.ranks
    first, second = pair.regime.sides
    consts = norming_constants(model, params)
    raw1, raw2 = simulate_value_pairs(
        params, model, config.index_mode, pair, config.replications, config.seed,
    )
    z1 = _normalize(raw1, first, consts)
    z2 = _normalize(raw2, second, consts)

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
