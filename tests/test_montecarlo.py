import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from gosextreme import goscore, montecarlo, reference
from gosextreme.distributions import norming_constants, parse_model, quantile
from gosextreme.montecarlo import (
    IndexMode,
    SimConfig,
    _draw_index,
    _Streams,
    ks_distance,
    run_bivariate_sim,
    sample_random_index,
    simulate_value_pairs,
)
from gosextreme.params import ExtremeSide, GosParams, RankPair, Regime
from gosextreme.randomindex import IndexLaw
from gosextreme.reference import sample_uniform_gos


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def ks_one_sample(sorted_values: np.ndarray, cdf_values: np.ndarray) -> float:
    n = len(sorted_values)
    upper = np.max(np.arange(1, n + 1) / n - cdf_values)
    lower = np.max(cdf_values - np.arange(0, n) / n)
    return max(upper, lower)


class TestIndexMode:
    def test_parse_roundtrip(self):
        for text in ("fixed", "geometric", "dependent:const:1", "dependent:uniform:0.5:1.5"):
            assert IndexMode.parse(text).label() == text

    @pytest.mark.parametrize("c", [1.0000001, 0.1234567])
    def test_label_parses_back_to_the_mode(self, c):
        # `:g` would print these as 1 and 0.123457.
        for mode in (IndexMode("dependent", "const", (c,)),
                     IndexMode("dependent", "uniform", (c / 2.0, c))):
            assert IndexMode.parse(mode.label()) == mode

    @pytest.mark.parametrize("bad", [
        "poisson", "dependent", "dependent:uniform:1.5:0.5", "dependent:const:0",
        "fixed:3",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            IndexMode.parse(bad)

    def test_implied_laws(self):
        assert IndexMode.parse("fixed").implied_law() == IndexLaw.degenerate(1.0)
        assert IndexMode.parse("geometric").implied_law() == IndexLaw.unit_exponential()
        assert IndexMode.parse("dependent:const:2").implied_law() == IndexLaw.degenerate(2.0)
        tab = IndexMode.parse("dependent:uniform:0.5:1.5").implied_law()
        assert tab.grid == ((0.5, 0.0), (1.5, 1.0))


class TestSampleIndex:
    def test_fixed(self):
        assert sample_random_index(IndexMode.parse("fixed"), 100, _rng()) == 100

    def test_dependent_unit_constant(self):
        mode = IndexMode.parse("dependent:const:1")
        assert sample_random_index(mode, 137, _rng()) == 137

    def test_floor_applies(self):
        mode = IndexMode.parse("geometric")
        rng = _rng(8)
        draws = [sample_random_index(mode, 5, rng, floor=4) for _ in range(200)]
        assert min(draws) >= 4

    def test_geometric_limit_ks(self):
        """nu/n from the geometric mode converges to 1 - e^-z."""
        n, reps = 1000, 10000
        rng = _rng(12)
        mode = IndexMode.parse("geometric")
        values = np.sort([sample_random_index(mode, n, rng) / n for _ in range(reps)])
        cdfs = -np.expm1(-values)
        # sampling noise ~1.63/sqrt(reps) plus O(1/n) lattice bias
        assert ks_one_sample(values, cdfs) <= 0.025

    def test_dependent_uniform_limit_ks(self):
        n, reps = 1000, 4000
        rng = _rng(13)
        mode = IndexMode.parse("dependent:uniform:0.5:1.5")
        values = np.sort([sample_random_index(mode, n, rng) / n for _ in range(reps)])
        cdfs = np.clip(values - 0.5, 0.0, 1.0)
        assert ks_one_sample(values, cdfs) <= 0.035


class TestUniformGosSampler:
    def test_single_draw_is_uniform(self):
        params = GosParams(m=0.0, k=1.0, n=2)
        rng = _rng(3)
        values = np.sort([float(sample_uniform_gos(params, 1, rng)[0]) for _ in range(4000)])
        assert ks_one_sample(values, values) <= 0.03  # U(0,1) cdf is identity

    def test_ascending(self):
        params = GosParams(m=-0.5, k=2.0, n=10)
        rng = _rng(5)
        for _ in range(50):
            u = sample_uniform_gos(params, 10, rng)
            assert np.all(np.diff(u) >= 0.0)
            assert np.all((u > 0.0) & (u < 1.0))

    def test_minimum_marginal_m0k1(self):
        # U(1) of ordinary order statistics has df 1 - (1-u)^n
        n, reps = 7, 6000
        params = GosParams(m=0.0, k=1.0, n=n)
        rng = _rng(6)
        values = np.sort([float(sample_uniform_gos(params, n, rng)[0]) for _ in range(reps)])
        cdfs = -np.expm1(n * np.log1p(-values))
        assert ks_one_sample(values, cdfs) <= 0.025

    def test_minimum_marginal_m1k2(self):
        # ell = 1: U(1) has df 1 - (1-u)^(2n), matching marginal_lower_df
        n, reps = 6, 6000
        params = GosParams(m=1.0, k=2.0, n=n)
        rng = _rng(7)
        values = np.sort([float(sample_uniform_gos(params, n, rng)[0]) for _ in range(reps)])
        model = parse_model("power(alpha=1)")
        cdfs = np.array([goscore.marginal_lower_df(params, model, 1, float(u)) for u in values])
        closed = -np.expm1(2 * n * np.log1p(-values))
        assert np.max(np.abs(cdfs - closed)) <= 1e-12
        assert ks_one_sample(values, cdfs) <= 0.025

    def test_maximum_marginal_against_exact(self):
        n, reps = 9, 6000
        params = GosParams(m=0.5, k=1.5, n=n)
        rng = _rng(9)
        values = np.sort(
            [float(sample_uniform_gos(params, n, rng)[-1]) for _ in range(reps)]
        )
        model = parse_model("power(alpha=1)")
        cdfs = np.array([goscore.marginal_upper_df(params, model, 1, float(u)) for u in values])
        assert ks_one_sample(values, cdfs) <= 0.025


class TestKsDistance:
    def test_identical(self):
        assert ks_distance([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 0.0

    def test_constant_offset(self):
        emp = [0.11, 0.51, 0.91]
        ana = [0.10, 0.50, 0.90]
        assert ks_distance(emp, ana) == pytest.approx(0.01, abs=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(size=30), rng.uniform(size=30)
        brute = max(abs(x - y) for x, y in zip(a, b))
        assert ks_distance(a, b) == pytest.approx(brute, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ks_distance([0.1, 0.2], [0.1])


def _basic_config(**overrides):
    defaults = dict(
        params=GosParams(m=0.0, k=1.0, n=80),
        model=parse_model("exponential(sigma=1)"),
        ranks=RankPair(r=1, s=1, regime=Regime.LOWER_UPPER),
        index_mode=IndexMode.parse("geometric"),
        replications=800,
        seed=5,
        eval_grid=tuple((math.inf, x) for x in (-1.0, 0.0, 1.0, 2.0)),
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestRunBivariateSim:
    def test_reproducible(self):
        a = run_bivariate_sim(_basic_config())
        b = run_bivariate_sim(_basic_config())
        assert a.to_json() == b.to_json()

    def test_seed_changes_output(self):
        a = run_bivariate_sim(_basic_config())
        b = run_bivariate_sim(_basic_config(seed=6))
        assert a.empirical != b.empirical

    def test_validation(self):
        with pytest.raises(ValueError):
            _basic_config(replications=0)
        with pytest.raises(ValueError):
            _basic_config(eval_grid=())
        with pytest.raises(ValueError):
            _basic_config(ranks=RankPair(r=90, s=1, regime=Regime.UPPER_UPPER))

    def test_sup_distance_consistency(self):
        rep = run_bivariate_sim(_basic_config())
        assert rep.sup_distance == pytest.approx(
            max(abs(e - a) for e, a in zip(rep.empirical, rep.analytic)), abs=1e-15
        )
        assert all(se <= 0.5 / math.sqrt(800) + 1e-12 for se in rep.standard_errors)

    def test_marginal_sanity_fixed_n50(self):
        """Finite-n upper marginal from simulation matches gos-core within
        3 binomial SEs pointwise."""
        params = GosParams(m=0.5, k=1.0, n=50)
        model = parse_model("power(alpha=1)")
        consts = norming_constants(model, params)
        grid = tuple((math.inf, x) for x in np.linspace(-3.0, 1.0, 11))
        cfg = SimConfig(
            params=params, model=model,
            ranks=RankPair(r=1, s=2, regime=Regime.LOWER_UPPER),
            index_mode=IndexMode.parse("fixed"),
            replications=10000, seed=17, eval_grid=grid,
        )
        rep = run_bivariate_sim(cfg)
        for (_, x), e, se in zip(rep.grid, rep.empirical, rep.standard_errors):
            exact = goscore.marginal_upper_df(params, model, 2, consts.b + consts.a * x)
            assert abs(e - exact) <= max(3.0 * se, 3e-4)

    def test_lower_lower_fixed_matches_exact(self):
        params = GosParams(m=0.5, k=2.0, n=50)
        model = parse_model("power(alpha=1)")
        consts = norming_constants(model, params)
        xs = (0.4, 0.9, 1.5)
        ys = (1.0, 2.0, 3.5)
        cfg = SimConfig(
            params=params, model=model,
            ranks=RankPair(r=1, s=2, regime=Regime.LOWER_LOWER),
            index_mode=IndexMode.parse("fixed"),
            replications=8000, seed=99,
            eval_grid=tuple((x, y) for x in xs for y in ys),
        )
        rep = run_bivariate_sim(cfg)
        for (x, y), e, se in zip(rep.grid, rep.empirical, rep.standard_errors):
            exact = reference.joint_df_direct(
                params, model, 1, 2, consts.d + consts.c * x, consts.d + consts.c * y
            )
            assert abs(e - exact) <= max(3.0 * se, 5e-4)

    def test_normalization_at_n_contract(self):
        """Sampling nu-sized samples but normalizing at n reproduces the
        mixture, not the fixed limit (geometric index, Gumbel model)."""
        grid = tuple((math.inf, x) for x in np.linspace(-3.0, 3.0, 21))
        cfg = SimConfig(
            params=GosParams(m=0.0, k=1.0, n=500),
            model=parse_model("exponential(sigma=1)"),
            ranks=RankPair(r=1, s=1, regime=Regime.LOWER_UPPER),
            index_mode=IndexMode.parse("geometric"),
            replications=20000, seed=101, eval_grid=grid,
        )
        rep = run_bivariate_sim(cfg)
        fixed = [math.exp(-math.exp(-x)) for _, x in grid]
        dist_fixed = ks_distance(rep.empirical, fixed)
        assert rep.sup_distance < dist_fixed
        assert rep.sup_distance <= 3.0 * max(rep.standard_errors)

    def test_dependent_const_one_equals_fixed(self):
        a = run_bivariate_sim(_basic_config(index_mode=IndexMode.parse("fixed")))
        b = run_bivariate_sim(
            _basic_config(index_mode=IndexMode.parse("dependent:const:1"))
        )
        assert a.empirical == b.empirical


class TestConvergenceAlongN:
    @pytest.mark.parametrize("spec,m,k", [
        ("exponential(sigma=1)", 0.0, 1.0),
        ("pareto(sigma=1)", 0.0, 1.0),
    ])
    def test_sup_distance_shrinks(self, spec, m, k):
        model = parse_model(spec)
        grid = tuple((math.inf, x) for x in np.linspace(-1.0, 4.0, 11))
        sups = []
        for n in (50, 200, 1000):
            cfg = SimConfig(
                params=GosParams(m=m, k=k, n=n), model=model,
                ranks=RankPair(r=1, s=1, regime=Regime.LOWER_UPPER),
                index_mode=IndexMode.parse("geometric"),
                replications=8000, seed=23, eval_grid=grid,
            )
            sups.append(run_bivariate_sim(cfg).sup_distance)
        noise = 3.0 * 0.5 / math.sqrt(8000)
        assert sups[2] <= sups[0] + noise
        assert sups[2] <= sups[1] + noise


class TestLowerUpperJoint:
    def test_fixed_index_product_form_holds(self):
        """Under a fixed sample size the (min, max) joint limit factorizes;
        the simulated joint df matches the product form within 3 SE."""
        params = GosParams(m=0.0, k=1.0, n=500)
        model = parse_model("exponential(sigma=1)")
        grid = tuple((x, y) for x in (0.3, 1.0, 2.5) for y in (-1.0, 0.0, 1.5))
        cfg = SimConfig(
            params=params, model=model,
            ranks=RankPair(r=1, s=1, regime=Regime.LOWER_UPPER),
            index_mode=IndexMode.parse("fixed"),
            replications=20000, seed=77, eval_grid=grid,
        )
        rep = run_bivariate_sim(cfg)
        for e, a, se in zip(rep.empirical, rep.analytic, rep.standard_errors):
            assert abs(e - a) <= max(3.0 * se, 1e-3)


class TestRandomIndexJointRegimes:
    def test_lower_lower_dependent_uniform_matches_mixture(self):
        """The carried uniform of the dependent mode sits in the middle of the
        GOS product, so the minima keep their mixture limit (as W_1 it would
        fix the minimum through T and miss it by many SE)."""
        params = GosParams(m=0.5, k=1.3, n=500)
        grid = tuple((x, y) for x in (-1.5, 0.0, 1.5) for y in (-1.0, 0.5, 2.0))
        cfg = SimConfig(
            params=params, model=parse_model("logistic"),
            ranks=RankPair(r=1, s=2, regime=Regime.LOWER_LOWER),
            index_mode=IndexMode.parse("dependent:uniform:0.5:1.5"),
            replications=8000, seed=1, eval_grid=grid,
        )
        rep = run_bivariate_sim(cfg)
        for e, a, se in zip(rep.empirical, rep.analytic, rep.standard_errors):
            assert abs(e - a) <= max(3.0 * se, 1e-3)

    def test_lower_lower_geometric_matches_mixture(self):
        params = GosParams(m=0.0, k=1.0, n=500)
        model = parse_model("exponential(sigma=1)")
        grid = tuple((x, y) for x in (0.3, 0.8, 1.6) for y in (0.6, 1.4, 3.0))
        cfg = SimConfig(
            params=params, model=model,
            ranks=RankPair(r=1, s=2, regime=Regime.LOWER_LOWER),
            index_mode=IndexMode.parse("geometric"),
            replications=20000, seed=314, eval_grid=grid,
        )
        rep = run_bivariate_sim(cfg)
        for e, a, se in zip(rep.empirical, rep.analytic, rep.standard_errors):
            assert abs(e - a) <= max(3.0 * se, 1e-3)

    def test_lower_upper_joint_couples_through_the_index(self):
        """Under a non-degenerate index law the simulated (min, max) joint
        df follows the single-z coupled mixture
        int Gamma_r(z rho) [1 - Gamma_{R_s}(z kappa^(m+1))] dH(z), which
        is what the analytic overlay reports at every probe point (not
        the product of the two individually mixed marginals; the two
        coincide only for a degenerate law)."""
        import math as _m

        from scipy.integrate import quad

        params = GosParams(m=0.0, k=1.0, n=500)
        model = parse_model("exponential(sigma=1)")
        grid = tuple((x, y) for x in (0.3, 1.0, 2.5) for y in (-1.0, 0.0, 1.5))
        cfg = SimConfig(
            params=params, model=model,
            ranks=RankPair(r=1, s=1, regime=Regime.LOWER_UPPER),
            index_mode=IndexMode.parse("geometric"),
            replications=20000, seed=2718, eval_grid=grid,
        )
        rep = run_bivariate_sim(cfg)
        for (x, y), e, analytic, se in zip(
            rep.grid, rep.empirical, rep.analytic, rep.standard_errors
        ):
            rho1, kap = x, _m.exp(-y)
            # r = s = 1, m = 0, k = 1: Gamma_1(u) = 1 - e^-u, and dH(z) = e^-z dz
            coupled, _ = quad(
                lambda z: -_m.expm1(-z * rho1) * _m.exp(-z * kap) * _m.exp(-z),
                0.0, _m.inf, epsabs=1e-12,
            )
            assert abs(e - coupled) <= max(3.0 * se, 1e-3)
            assert abs(analytic - coupled) <= 1e-7


def _loop_reference(params, model, mode, first, second, replications, seed):
    """The per-replication loop that `simulate_value_pairs` replaces: a fresh
    jumped stream per replication and a whole uniform m-GOS vector."""
    floor = max(first[1], second[1]) + 1
    u_first = np.empty(replications)
    u_second = np.empty(replications)

    def pick(u, side_rank, nu):
        side, rank = side_rank
        return u[rank - 1 if side == ExtremeSide.LOWER else nu - rank]

    for i in range(replications):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
        nu, carry = _draw_index(mode, params.n, rng, floor)
        u = sample_uniform_gos(params, nu, rng, carried_uniform=carry)
        u_first[i] = pick(u, first, nu)
        u_second[i] = pick(u, second, nu)
    clip = np.clip
    tiny, one_below = 5e-324, float(np.nextafter(1.0, 0.0))
    return (
        np.asarray(quantile(model, clip(u_first, tiny, one_below)), dtype=float),
        np.asarray(quantile(model, clip(u_second, tiny, one_below)), dtype=float),
    )


def _sample(params, model, mode, first, second, replications, seed):
    """`simulate_value_pairs` at the RankPair whose regime counts r and s
    from the ends of the two (side, rank) coordinates."""
    regime = next(g for g in Regime if g.sides == (first[0], second[0]))
    pair = RankPair(first[1], second[1], regime)
    return simulate_value_pairs(params, model, mode, pair, replications, seed)


_L, _U = ExtremeSide.LOWER, ExtremeSide.UPPER
_ORACLE_PAIRS = [
    ((_U, 2), (_U, 1)), ((_U, 3), (_U, 2)),
    ((_L, 1), (_L, 2)), ((_L, 1), (_L, 3)),
    ((_L, 1), (_U, 1)), ((_L, 3), (_U, 2)), ((_L, 2), (_U, 3)),
    # Ranks far apart: under 7-position blocks the shallower position falls
    # blocks before the deeper one, in a column fixed for every row (the
    # first two) or one that differs by row under a random nu (the last).
    ((_U, 12), (_U, 1)), ((_L, 1), (_L, 12)), ((_L, 12), (_U, 1)),
]
_ORACLE_MODES = [
    "fixed", "geometric", "dependent:const:0.7", "dependent:uniform:0.5:1.5",
    # nu at its floor of 3-4: the carried slot falls inside a lower prefix
    "dependent:uniform:0.01:0.02",
]


def _force_workers(monkeypatch, workers):
    """Split every call into `workers` slices: that many CPUs, and no work
    too small to fork for."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    monkeypatch.setattr(montecarlo, "_FORK_WORK", 1)


class TestSamplerMatchesTheLoop:
    """`simulate_value_pairs` draws only what each pair reads, in blocks,
    from one re-keyed bit generator; every value must equal the loop's."""

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("mode", _ORACLE_MODES)
    def test_bit_for_bit(self, mode, block, monkeypatch):
        """Twelve replications, in one process and split across two and
        three (slices of four to six, each planned and tiled on its own)."""
        if block is not None:
            monkeypatch.setattr(montecarlo, "_BLOCK", block)
        model = parse_model("logistic")
        index = IndexMode.parse(mode)
        for m in (-0.5, 0.0, 1.2):
            for n in (3, 7, 500):
                params = GosParams(m=m, k=1.3, n=n)
                for first, second in _ORACLE_PAIRS:
                    if max(first[1], second[1]) > n:
                        continue
                    args = (params, model, index, first, second, 12, 2024 + n)
                    want = _loop_reference(*args)
                    for workers in (1, 2, 3):
                        _force_workers(monkeypatch, workers)
                        for g, w in zip(_sample(*args), want):
                            assert np.array_equal(g, w), (mode, m, n, first, second, workers)

    def test_gamma_table_edge(self, monkeypatch):
        """64-position blocks under a geometric nu around 300: each replication
        spans several blocks, and rows of different lengths start, and read
        their targets, in different blocks."""
        monkeypatch.setattr(montecarlo, "_BLOCK", 64)
        params = GosParams(m=0.4, k=2.0, n=300)
        args = (params, parse_model("normal"), IndexMode.parse("geometric"),
                (_L, 1), (_U, 2), 40, 11)
        for g, w in zip(_sample(*args), _loop_reference(*args)):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("mode", _ORACLE_MODES)
    def test_tiles_split_bit_for_bit(self, mode, monkeypatch):
        """Thirteen replications in tiles of four, the last tile one row, and
        64-position blocks, past pairwise summation's 8-element cutoff, so
        that a block with one row left must take the cumsum route (split
        three ways, in the last slice, of five).  Under a random nu at n = 60
        the rows of a tile differ in length; at n = 3 the lower position of
        ((L, 3), (U, 2)) lies above the upper one."""
        monkeypatch.setattr(montecarlo, "_TILE", 4)
        monkeypatch.setattr(montecarlo, "_BLOCK", 64)
        model = parse_model("logistic")
        index = IndexMode.parse(mode)
        for n in (3, 7, 60):
            params = GosParams(m=0.4, k=1.3, n=n)
            for first, second in _ORACLE_PAIRS:
                if max(first[1], second[1]) > n:
                    continue
                args = (params, model, index, first, second, 13, 77 + n)
                want = _loop_reference(*args)
                for workers in (1, 2, 3):
                    _force_workers(monkeypatch, workers)
                    for g, w in zip(_sample(*args), want):
                        assert np.array_equal(g, w), (mode, n, first, second, workers)

    @pytest.mark.parametrize("block", [50, 51])
    def test_carry_on_a_block_edge(self, block, monkeypatch):
        """nu = 101 in every replication, so the carried slot 50 opens a
        block (block 50) or closes one (block 51)."""
        monkeypatch.setattr(montecarlo, "_TILE", 4)
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        params = GosParams(m=0.0, k=1.0, n=100)
        index = IndexMode.parse("dependent:uniform:1:1.001")
        for i in range(9):
            rng = np.random.Generator(np.random.Philox(key=5).jumped(i))
            assert _draw_index(index, 100, rng, 3)[0] == 101
        for first, second in (((_U, 2), (_U, 1)), ((_L, 1), (_U, 1))):
            args = (params, parse_model("logistic"), index, first, second, 9, 5)
            for g, w in zip(_sample(*args), _loop_reference(*args)):
                assert np.array_equal(g, w), (block, first, second)

    def test_streams_are_jumped_streams(self):
        """Re-keying by counter is `Philox(key=seed).jumped(i)`, also after
        the generator was left with a buffered word and a half-used one."""
        for seed in (0, 5, 2**63 + 11):
            streams = _Streams(seed)
            for i in [*range(50), 999, 5999, 123456]:
                dirty = streams.start(i + 7)
                dirty.random(3)
                dirty.integers(0, 10, dtype=np.uint32)
                got = streams.start(i)
                want = np.random.Generator(np.random.Philox(key=seed).jumped(i))
                assert got.geometric(1e-3) == want.geometric(1e-3)
                assert np.array_equal(got.random(1000), want.random(1000))
                assert np.array_equal(got.integers(0, 10, 5, dtype=np.uint32),
                                      want.integers(0, 10, 5, dtype=np.uint32))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedSlices:
    """A split call raises what the serial call raises and leaves no child."""

    @pytest.mark.parametrize("seed", [1, 3])
    def test_error_is_the_serial_one(self, seed, monkeypatch):
        """Some replications draw nu past 2**63 - 1: under seed 1 the first
        is replication 29 (a child's slice), under seed 3 replication 0 (the
        parent's), so both routes of the error are taken."""
        args = (GosParams(m=0.0, k=1.0, n=50), parse_model("logistic"),
                IndexMode.parse("dependent:uniform:1:2e17"),
                RankPair(1, 2, Regime.LOWER_LOWER), 50, seed)
        messages = []
        for workers in (1, 2, 3):
            _force_workers(monkeypatch, workers)
            with pytest.raises(ValueError, match=r"past the largest sample size") as caught:
                simulate_value_pairs(*args)
            messages.append(str(caught.value))
            _no_child_left()
        assert messages[1:] == messages[:1] * 2

    def test_children_are_reaped(self, monkeypatch):
        _force_workers(monkeypatch, 2)
        simulate_value_pairs(GosParams(m=0.0, k=1.0, n=40), parse_model("logistic"),
                             IndexMode.parse("geometric"), RankPair(2, 1, Regime.UPPER_UPPER),
                             20, 9)
        _no_child_left()

    def test_no_fork_beside_other_threads(self, monkeypatch):
        """A fork would copy the caller's locks but not its other threads, so
        a caller that runs threads sums every slice itself."""
        _force_workers(monkeypatch, 2)

        def no_fork():
            raise AssertionError("forked beside a running thread")

        monkeypatch.setattr(os, "fork", no_fork)
        done = threading.Event()
        waiter = threading.Thread(target=done.wait, args=(60,))
        waiter.start()
        try:
            args = (GosParams(m=0.0, k=1.0, n=40), parse_model("logistic"),
                    IndexMode.parse("geometric"), (_U, 2), (_U, 1), 20, 9)
            for g, w in zip(_sample(*args), _loop_reference(*args)):
                assert np.array_equal(g, w)
        finally:
            done.set()
            waiter.join(10)
        assert not waiter.is_alive()

    def test_lowest_slice_error_wins(self):
        def run(lo, hi):
            if lo:
                raise (KeyError if lo == 4 else ValueError)(f"slice at {lo}")

        sums = (np.zeros(12),)
        with pytest.raises(KeyError, match="slice at 4"):
            montecarlo._run_slices(run, [(0, 4), (4, 8), (8, 12)], sums)
        _no_child_left()

    def test_parent_error_kills_the_children(self):
        """The parent's own slice raises while its children would run for a
        minute: they are killed and reaped, and the call returns at once."""
        def run(lo, hi):
            if lo:
                time.sleep(60)
            raise ArithmeticError("parent slice")

        t0 = time.perf_counter()
        with pytest.raises(ArithmeticError, match="parent slice"):
            montecarlo._run_slices(run, [(0, 1), (1, 2), (2, 3)], (np.zeros(3),))
        assert time.perf_counter() - t0 < 10
        _no_child_left()

    def test_a_slice_whose_child_dies_is_summed_here(self):
        """The child of slice [2, 4) ends before it sends its sums, so the
        caller sums that slice itself, to the serial call's values."""
        caller, summed_here = os.getpid(), []

        def run(lo, hi):
            if os.getpid() != caller:
                os._exit(3)
            summed_here.append((lo, hi))
            first[lo:hi] = np.arange(lo, hi) ** 2

        first = np.zeros(4)
        montecarlo._run_slices(run, [(0, 2), (2, 4)], (first,))
        assert summed_here == [(0, 2), (2, 4)]
        assert np.array_equal(first, np.arange(4) ** 2)  # what run(0, 4) fills in
        _no_child_left()

    def test_values_come_back(self):
        def run(lo, hi):
            first[lo:hi], second[lo:hi] = np.arange(lo, hi), -np.arange(lo, hi)

        first, second = np.zeros(10), np.zeros(10)
        montecarlo._run_slices(run, [(0, 3), (3, 7), (7, 10)], (first, second))
        assert np.array_equal(first, np.arange(10)) and np.array_equal(second, -np.arange(10))
        _no_child_left()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSamplerMemory:
    """tracemalloc sees one process, so these calls stay in it; the last
    test measures the children of a split call."""

    @pytest.fixture(autouse=True)
    def _serial(self, monkeypatch):
        _force_workers(monkeypatch, 1)

    def test_lower_pair_ignores_nu(self):
        """A lower-lower pair draws max(r, s) uniforms, so nu ~ 1e9 costs
        neither time nor memory."""
        params = GosParams(m=0.0, k=1.0, n=10**9)
        args = (params, parse_model("logistic"), IndexMode.parse("geometric"),
                RankPair(1, 2, Regime.LOWER_LOWER), 20, 3)
        t0 = time.perf_counter()
        peak = _traced_peak(lambda: simulate_value_pairs(*args))
        assert time.perf_counter() - t0 < 0.5
        assert peak < 1 << 20

    def test_top_pair_memory_is_one_block(self):
        """A pair that reaches the top draws all nu uniforms, one block at a
        time: ten times the sample size costs at most one block more."""

        def peak(n):
            params = GosParams(m=0.0, k=1.0, n=n)
            return _traced_peak(lambda: simulate_value_pairs(
                params, parse_model("logistic"), IndexMode.parse("fixed"),
                RankPair(2, 1, Regime.UPPER_UPPER), 1, 5))

        assert peak(2 * 10**6) <= peak(2 * 10**5) + 8 * montecarlo._BLOCK

    def test_memory_is_one_tile(self):
        """Under a fixed nu the tile's buffers are the sampler's memory: ten
        times the sample size, or eight times the replications, cost at most
        one tile more."""

        def peak(n, replications):
            params = GosParams(m=0.0, k=1.0, n=n)
            return _traced_peak(lambda: simulate_value_pairs(
                params, parse_model("logistic"), IndexMode.parse("fixed"),
                RankPair(2, 1, Regime.UPPER_UPPER), replications, 5))

        tile = 8 * montecarlo._TILE * montecarlo._BLOCK
        small = peak(2 * 10**4, 64)
        assert abs(peak(2 * 10**5, 64) - small) <= tile
        assert abs(peak(2 * 10**4, 512) - small) <= tile


    def test_children_memory_is_one_tile(self):
        """In a fresh interpreter, a call split in two at ten times the sample
        size raises its children's peak RSS by at most a few MB."""
        code = """if True:
            import os, resource
            from gosextreme import montecarlo
            from gosextreme.distributions import parse_model
            from gosextreme.params import GosParams, RankPair, Regime
            from gosextreme.randomindex import IndexMode
            os.sched_getaffinity = lambda pid: {0, 1}
            montecarlo._FORK_WORK = 1
            for n in (2 * 10**5, 2 * 10**6):
                montecarlo.simulate_value_pairs(
                    GosParams(m=0.0, k=1.0, n=n), parse_model("logistic"),
                    IndexMode.parse("fixed"), RankPair(2, 1, Regime.UPPER_UPPER), 4, 5)
                print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            """
        src = os.path.dirname(os.path.dirname(montecarlo.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        small, large = (int(line) for line in out.split())  # KB
        assert small > 0
        assert large - small <= 4096


@pytest.mark.parametrize("replications", [0, -5])
def test_sampler_refuses_no_replications(replications):
    """The range overlay reaches the sampler without a SimConfig."""
    params = GosParams(m=0.0, k=1.0, n=20)
    with pytest.raises(ValueError, match=r"replications must be >= 1"):
        simulate_value_pairs(params, parse_model("logistic"), IndexMode.parse("fixed"),
                             RankPair(1, 1, Regime.LOWER_UPPER), replications, 3)
