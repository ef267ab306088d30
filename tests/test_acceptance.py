"""Acceptance gate: one test per criterion, each printing a PASS line
with the measured margin (run with -s to see them inline)."""

import itertools
import math
import time

import numpy as np
import pytest

from gosextreme import goscore, reference
from gosextreme.cli import main as cli_main
from gosextreme.distributions import parse_model
from gosextreme.montecarlo import IndexMode, SimConfig, run_bivariate_sim
from gosextreme.params import GosParams, RankPair, Regime
from gosextreme.randomindex import IndexLaw, mixture_ll, mixture_lu, mixture_uu
from gosextreme.ranges import (
    RangeQuery,
    midrange_limit_df,
    normal_range_closed_form,
    range_limit_df,
)
from gosextreme.reference import normal_range_integral, omega_ll, omega_lu_product, omega_uu
from gosextreme.specfun import reg_inc_beta, reg_inc_gamma

EXP_LAW = IndexLaw.unit_exponential()
LN4 = math.log(4.0)


def report(num, detail):
    print(f"PASS criterion {num}: {detail}")


def test_criterion_1_normal_range_breakpoint(capsys):
    start = time.monotonic()
    code = cli_main(["example", "normal-range", "--at", "ln4"])
    out = capsys.readouterr().out
    assert code == 0
    cli_value = float(out.strip().splitlines()[-1].split(",")[1])
    assert abs(cli_value - 2.0 / 3.0) <= 1e-6

    worst = 0.0
    for r in (-1.0, 0.0, 1.0, 2.0, 4.0):
        worst = max(worst, abs(normal_range_integral(r) - normal_range_closed_form(r)))
    assert worst <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        report(1, f"breakpoint |err|={abs(cli_value - 2/3):.2e}, "
                  f"quadrature vs f1/f2 max {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_normal_midrange(capsys):
    start = time.monotonic()
    q = RangeQuery(model=parse_model("normal"), params=GosParams(m=0.0, k=1.0, n=500),
                   law=EXP_LAW, statistic="midrange")
    worst = 0.0
    for v in np.linspace(-3.0, 3.0, 41):
        got = midrange_limit_df(q, float(v))
        want = 1.0 / (1.0 + math.exp(-2.0 * v))
        worst = max(worst, abs(got - want))
    assert worst <= 1e-7
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        report(2, f"41-point max dev {worst:.2e} vs logistic form, {elapsed:.2f}s")


def test_criterion_3_cauchy_positive_m_range(capsys):
    q = RangeQuery(model=parse_model("cauchy"), params=GosParams(m=0.5, k=1.0, n=500),
                   law=EXP_LAW, statistic="range")
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        worst = max(worst, abs(range_limit_df(q, r) - (1.0 - math.exp(-1.0 / r))))
    assert worst <= 1e-9
    with capsys.disabled():
        report(3, f"max dev {worst:.2e} from 1 - e^(-1/r)")


def test_criterion_4_degenerate_reduction(capsys):
    rng = np.random.default_rng(20240809)
    deg = IndexLaw.degenerate(1.0)
    worst = 0.0
    for i in range(20):
        m = float(rng.uniform(-0.6, 1.5))
        k = float(rng.uniform(0.5, 3.0))
        params = GosParams(m=m, k=k, n=12)
        s = int(rng.integers(1, 3))
        r = s + int(rng.integers(1, 3))
        kap1 = float(rng.uniform(0.2, 3.0))
        kap2 = float(rng.uniform(0.0, kap1))
        worst = max(worst, abs(
            mixture_uu(params, r, s, kap1, kap2, deg) - omega_uu(params, r, s, kap1, kap2)
        ))
        r2 = int(rng.integers(1, 3))
        s2 = r2 + int(rng.integers(1, 3))
        rho1 = float(rng.uniform(0.1, 2.0))
        rho2 = rho1 + float(rng.uniform(0.0, 2.0))
        worst = max(worst, abs(
            mixture_ll(r2, s2, rho1, rho2, deg) - omega_ll(r2, s2, rho1, rho2)
        ))
        worst = max(worst, abs(
            mixture_lu(params, r2, s, rho1, kap1, deg)
            - omega_lu_product(params, r2, s, rho1, kap1)
        ))
    assert worst <= 1e-10
    with capsys.disabled():
        report(4, f"20 random configs x 3 regimes, max dev {worst:.2e}")


def test_criterion_5_exactness_oracle(capsys):
    start = time.monotonic()
    uni = parse_model("power(alpha=1)")
    pair = RankPair(r=2, s=1, regime=Regime.UPPER_UPPER)

    def multinomial(n, r, s, fx, fy):
        total = 0.0
        for j in range(s, n + 1):
            for i in range(r, j + 1):
                coef = math.factorial(n) // (
                    math.factorial(i) * math.factorial(j - i) * math.factorial(n - j)
                )
                total += coef * fx**i * (fy - fx) ** (j - i) * (1.0 - fy) ** (n - j)
        return total

    worst = 0.0
    xs = (0.2, 0.45, 0.7, 0.9)
    ys = (0.3, 0.55, 0.8, 0.95)
    for n in (4, 5, 6):
        params = GosParams(m=0.0, k=1.0, n=n)
        for x, y in itertools.product(xs, ys):
            upper = goscore.joint_df(params, uni, pair, x, y)
            direct = reference.joint_df_direct(params, uni, n - 1, n, x, y)
            if x <= y:
                oracle = multinomial(n, n - 1, n, x, y)
            else:
                oracle = multinomial(n, n, n, y, y)  # collapses to s-th marginal
            worst = max(worst, abs(upper - direct), abs(upper - oracle), abs(direct - oracle))
    assert worst <= 1e-7
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    with capsys.disabled():
        report(5, f"three-way max dev {worst:.2e} over n=4,5,6 4x4 grids, {elapsed:.2f}s")


def test_criterion_6_weak_convergence_geometric_max(capsys):
    start = time.monotonic()
    grid = tuple((math.inf, float(x)) for x in np.linspace(-3.0, 3.0, 41))
    cfg = SimConfig(
        params=GosParams(m=0.0, k=1.0, n=500),
        model=parse_model("exponential(sigma=1)"),
        ranks=RankPair(r=1, s=1, regime=Regime.LOWER_UPPER),
        index_mode=IndexMode.parse("geometric"),
        replications=20000, seed=20240817, eval_grid=grid,
    )
    rep = run_bivariate_sim(cfg)
    logistic = [1.0 / (1.0 + math.exp(-x)) for _, x in grid]
    assert max(abs(a - l) for a, l in zip(rep.analytic, logistic)) <= 1e-8
    bound = 3.0 * max(rep.standard_errors)
    assert bound == pytest.approx(0.0106, abs=5e-4)
    assert rep.sup_distance <= bound
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report(6, f"sup distance {rep.sup_distance:.4f} <= 3 max SE {bound:.4f}, {elapsed:.1f}s")


def test_criterion_7_bivariate_uu_mixture(capsys):
    start = time.monotonic()
    xs = (0.5, 1.2, 2.5, 6.0)
    grid = tuple((x, y) for x in xs for y in xs)
    cfg = SimConfig(
        params=GosParams(m=0.0, k=1.0, n=500),
        model=parse_model("cauchy"),
        ranks=RankPair(r=2, s=1, regime=Regime.UPPER_UPPER),
        index_mode=IndexMode.parse("geometric"),
        replications=20000, seed=7, eval_grid=grid,
    )
    rep = run_bivariate_sim(cfg)
    bound = 3.0 * max(rep.standard_errors)
    assert rep.sup_distance <= bound
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    with capsys.disabled():
        report(7, f"(2nd max, max) sup distance {rep.sup_distance:.4f} <= {bound:.4f}, {elapsed:.1f}s")


def test_criterion_8_dependent_index(capsys):
    start = time.monotonic()
    grid = tuple((math.inf, float(x)) for x in np.linspace(-3.0, 3.0, 41))
    cfg = SimConfig(
        params=GosParams(m=0.0, k=1.0, n=500),
        model=parse_model("exponential(sigma=1)"),
        ranks=RankPair(r=1, s=1, regime=Regime.LOWER_UPPER),
        index_mode=IndexMode.parse("dependent:uniform:0.5:1.5"),
        replications=20000, seed=11, eval_grid=grid,
    )
    rep = run_bivariate_sim(cfg)
    assert rep.config["index_mode"] == "dependent:uniform:0.5:1.5"
    # matches the tabulated-H mixture within 3 SE pointwise
    m_reps = cfg.replications
    for e, a, se in zip(rep.empirical, rep.analytic, rep.standard_errors):
        se_eff = max(se, math.sqrt(a * (1.0 - a) / m_reps), 1e-4)
        assert abs(e - a) <= 3.0 * se_eff
    # and provably differs from the fixed (degenerate) limit somewhere
    fixed = [math.exp(-math.exp(-x)) for _, x in grid]
    separated = sum(
        1 for e, f, se in zip(rep.empirical, fixed, rep.standard_errors)
        if abs(e - f) > 3.0 * max(se, 1e-4)
    )
    assert separated >= 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    with capsys.disabled():
        report(8, f"sup vs mixture {rep.sup_distance:.4f}, {separated} grid points "
                  f"beyond 3 SE of the fixed limit, {elapsed:.1f}s")


def test_criterion_9_special_function_suite(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(10_000):
        a = float(rng.uniform(0.05, 40.0))
        b = float(rng.uniform(0.05, 40.0))
        x = float(rng.uniform(0.0, 1.0))
        worst = max(worst, abs(reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) - 1.0))
    sym = max(abs(reg_inc_beta(0.5, a, a) - 0.5) for a in (0.3, 1.0, 4.0, 17.0))
    worst = max(worst, sym)
    for _ in range(10_000):
        k = int(rng.integers(1, 16))
        x = float(rng.uniform(0.0, 40.0))
        tail = math.fsum(x**j / math.factorial(j) for j in range(k))
        oracle = 1.0 - math.exp(-x) * tail
        worst = max(worst, abs(reg_inc_gamma(float(k), x) - oracle))
        ia = int(rng.integers(1, 8))
        ib = int(rng.integers(1, 8))
        xx = float(rng.uniform(0.0, 1.0))
        nn = ia + ib - 1
        bin_oracle = math.fsum(
            math.comb(nn, j) * xx**j * (1.0 - xx) ** (nn - j) for j in range(ia, nn + 1)
        )
        worst = max(worst, abs(reg_inc_beta(xx, ia, ib) - bin_oracle))
    assert worst <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        report(9, f"identities and closed forms on 1e4 random cases, max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_10_diagonal_branch_continuity(capsys):
    worst_uu = 0.0
    for m, k in ((0.0, 1.0), (1.0, 1.0), (-0.5, 1.0), (0.0, 2.0), (1.0, 2.0), (-0.5, 2.0)):
        params = GosParams(m=m, k=k, n=12)
        for r, s in ((2, 1), (3, 1), (3, 2), (4, 2)):
            for val in (0.3, 0.8, 1.5, 3.0):
                upper_branch = omega_uu(params, r, s, val, val)
                lower_branch = omega_uu(params, r, s, val * (1.0 + 1e-12), val)
                want = 1.0 - reg_inc_gamma(params.rank_weight(s), val ** (m + 1.0))
                worst_uu = max(worst_uu, abs(upper_branch - want), abs(lower_branch - want))
    worst_ll = 0.0
    for r, s in ((1, 2), (1, 3), (2, 3), (2, 5)):
        for val in (0.3, 0.8, 1.5, 3.0):
            got = omega_ll(r, s, val, val)
            worst_ll = max(worst_ll, abs(got - reg_inc_gamma(float(s), val)))
    assert worst_uu <= 1e-9
    assert worst_ll <= 1e-9
    with capsys.disabled():
        report(10, f"diagonal identities: upper-upper {worst_uu:.2e}, lower-lower {worst_ll:.2e}")
