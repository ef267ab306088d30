"""Invariant suite behind the CLI `selftest` verb.

Each check is a named callable returning (ok, detail).  The fast tier
covers the analytic invariants; the full tier adds the seeded
Monte Carlo confirmations.  The pytest suite runs sharper versions of
everything here; this module exists so a deployed install can vouch for
itself without the test tree.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import goscore, ranges
from .distributions import (
    DistributionModel,
    cdf,
    norming_constants,
    parse_model,
    quantile,
    tail_transform,
)
from .limitlaws import kappa, omega_ll, omega_uu, rho
from .montecarlo import IndexMode, SimConfig, _Streams, run_bivariate_sim
from .params import ExtremeSide, GosParams, RankPair, Regime
from .randomindex import IndexLaw, mixture_ll, mixture_lu, mixture_marginal, mixture_uu
from .specfun import reg_inc_beta, reg_inc_gamma

_REGISTRY: list[tuple[str, bool, Callable]] = []


def _check(name: str, slow: bool = False):
    def wrap(fn):
        _REGISTRY.append((name, slow, fn))
        return fn

    return wrap


@_check("specfun-complement-identity")
def _specfun_complement():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(2000):
        a, b = float(rng.uniform(0.05, 40.0)), float(rng.uniform(0.05, 40.0))
        x = float(rng.uniform(0.0, 1.0))
        worst = max(worst, abs(reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) - 1.0))
    return worst <= 1e-12, f"max complement defect {worst:.2e}"


@_check("specfun-gamma-poisson-sum")
def _specfun_poisson():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(2000):
        k = int(rng.integers(1, 18))
        x = float(rng.uniform(0.0, 45.0))
        tail = sum(x**j / math.factorial(j) for j in range(k))
        oracle = 1.0 - math.exp(-x) * tail
        worst = max(worst, abs(reg_inc_gamma(float(k), x) - oracle))
    return worst <= 1e-12, f"max defect vs Poisson sum {worst:.2e}"


@_check("specfun-gamma-saturation")
def _specfun_tail():
    bad = [
        r for r in (0.3, 1.0, 2.5, 7.0, 30.0, 150.0)
        if not reg_inc_gamma(r, r + 40.0 * math.sqrt(r)) > 1.0 - 1e-10
    ]
    return not bad, f"non-saturating shapes: {bad}" if bad else "saturates at r + 40 sqrt(r)"


@_check("distributions-roundtrip")
def _dist_roundtrip():
    specs = [
        "cauchy", "normal", "logistic", "laplace", "lognormal",
        "pareto(sigma=2)", "exponential(sigma=0.5)", "rayleigh(sigma=2)",
        "uniform(theta=3)", "beta(alpha=2,beta=3)", "power(alpha=1.5)",
    ]
    ps = np.linspace(0.01, 0.99, 25)
    worst = 0.0
    for spec in specs:
        model = parse_model(spec)
        x = quantile(model, ps)
        worst = max(worst, float(np.max(np.abs(cdf(model, x) - ps))))
    return worst <= 1e-9, f"max |F(F^-1(p)) - p| = {worst:.2e}"


@_check("distributions-norming-convergence")
def _dist_norming():
    # Exact-constant families sit at the noise floor (ties allowed via
    # the 1e-8 slack); the others must show genuinely shrinking error.
    grid = [-1.0, -0.3, 0.4, 1.1, 2.0]
    failures = []
    for spec, m, k in [("exponential(sigma=1)", 0.0, 1.0), ("cauchy", 1.0, 2.0),
                       ("uniform(theta=1)", 0.0, 1.0), ("normal", 0.0, 1.0),
                       ("beta(alpha=2,beta=2)", 0.0, 1.0)]:
        model = parse_model(spec)
        up = tail_transform(model, ExtremeSide.UPPER)
        errs = []
        for n in (10**3, 10**5, 10**7):
            params = GosParams(m=m, k=k, n=n)
            c = norming_constants(model, params)
            e = max(
                abs(params.big_n * goscore.lbar(params, model, c.a * x + c.b)
                    - kappa(up, x) ** (m + 1.0))
                for x in grid if kappa(up, x) < math.inf
            )
            errs.append(e)
        if not (errs[0] >= errs[1] - 1e-8 and errs[1] >= errs[2] - 1e-8):
            failures.append((spec, errs))
    return not failures, f"non-decreasing error: {failures}" if failures else "errors shrink with n"


@_check("goscore-exactness")
def _goscore_exact():
    uni = parse_model("power(alpha=1)")
    pair = RankPair(r=2, s=1, regime=Regime.UPPER_UPPER)
    worst = 0.0
    for m, k in [(0.0, 1.0), (1.0, 2.0), (-0.5, 1.0)]:
        params = GosParams(m=m, k=k, n=5)
        for x in (0.3, 0.6):
            for y in (0.5, 0.9):
                b = goscore.joint_df_direct(params, uni, 4, 5, x, y)
                for a in (goscore.joint_upper_df(params, uni, pair, x, y),
                          goscore.joint_lower_df(params, uni, 4, 5, x, y)):
                    worst = max(worst, abs(a - b))
    return worst <= 1e-7, f"max |Dirichlet sum - direct| = {worst:.2e}"


@_check("goscore-rectangle-inequality")
def _goscore_rect():
    uni = parse_model("power(alpha=1)")
    params = GosParams(m=0.5, k=1.0, n=6)
    pair = RankPair(r=2, s=1, regime=Regime.UPPER_UPPER)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(40):
        x1, x2 = sorted(rng.uniform(0.05, 0.95, 2))
        y1, y2 = sorted(rng.uniform(0.05, 0.95, 2))
        val = (
            goscore.joint_upper_df(params, uni, pair, x2, y2)
            - goscore.joint_upper_df(params, uni, pair, x1, y2)
            - goscore.joint_upper_df(params, uni, pair, x2, y1)
            + goscore.joint_upper_df(params, uni, pair, x1, y1)
        )
        worst = min(worst, val)
    return worst >= -1e-9, f"most negative rectangle mass {worst:.2e}"


@_check("limitlaws-diagonal-continuity")
def _limit_diag():
    worst = 0.0
    for m, k in [(0.0, 1.0), (1.0, 2.0), (-0.5, 1.0)]:
        params = GosParams(m=m, k=k, n=10)
        for r, s in [(2, 1), (3, 1), (3, 2)]:
            for val in (0.4, 1.0, 2.3):
                a = omega_uu(params, r, s, val * (1.0 + 1e-12), val)
                b = omega_uu(params, r, s, val, val)
                worst = max(worst, abs(a - b))
    for r, s in [(1, 2), (1, 3), (2, 4)]:
        for val in (0.4, 1.0, 2.3):
            a = omega_ll(r, s, val, val)
            b = reg_inc_gamma(float(s), val)
            worst = max(worst, abs(a - b))
    return worst <= 1e-9, f"max diagonal defect {worst:.2e}"


@_check("randomindex-degenerate-reduction")
def _mix_degenerate():
    rng = np.random.default_rng(11)
    deg = IndexLaw.degenerate(1.0)
    worst = 0.0
    for _ in range(20):
        m = float(rng.uniform(-0.5, 1.5))
        k = float(rng.uniform(0.5, 3.0))
        params = GosParams(m=m, k=k, n=10)
        s = int(rng.integers(1, 3))
        r = s + int(rng.integers(1, 3))
        k1 = float(rng.uniform(0.1, 3.0))
        k2 = float(rng.uniform(0.0, k1))
        worst = max(worst, abs(
            mixture_uu(params, r, s, k1, k2, deg) - omega_uu(params, r, s, k1, k2)))
        rho1 = float(rng.uniform(0.1, 2.0))
        rho2 = rho1 + float(rng.uniform(0.0, 2.0))
        worst = max(worst, abs(
            mixture_ll(s, r, rho1, rho2, deg) - omega_ll(s, r, rho1, rho2)))
    return worst <= 1e-10, f"max degenerate-law defect {worst:.2e}"


@_check("randomindex-closed-forms")
def _mix_closed():
    params = GosParams(m=0.0, k=1.0, n=50)
    law = IndexLaw.unit_exponential()
    worst = abs(mixture_marginal(ExtremeSide.UPPER, params, 1, 1.0, law) - 0.5)
    for x in (-1.0, 0.0, 2.0):
        got = mixture_marginal(ExtremeSide.UPPER, params, 1, math.exp(-x), law)
        worst = max(worst, abs(got - 1.0 / (1.0 + math.exp(-x))))
    worst = max(worst, abs(mixture_lu(params, 1, 1, 1.0, 1.0, law) - 1.0 / 6.0))
    return worst <= 1e-8, f"max closed-form defect {worst:.2e}"


@_check("randomindex-uniqueness")
def _mix_unique():
    params = GosParams(m=0.0, k=1.0, n=50)
    law = IndexLaw.unit_exponential()
    sep = 0.0
    for x in (0.5, 1.0, 2.0, 4.0):
        a = mixture_marginal(ExtremeSide.UPPER, params, 1, x**-1.0, law)
        b = mixture_marginal(ExtremeSide.UPPER, params, 1, x**-2.0, law)
        sep = max(sep, abs(a - b))
    return sep >= 1e-4, f"max separation between alpha=1 and alpha=2 mixtures {sep:.2e}"


@_check("ranges-normal-closed-form")
def _ranges_normal():
    ln4 = math.log(4.0)
    worst = abs(ranges.normal_range_closed_form(ln4) - 2.0 / 3.0)
    for r in (-1.0, 0.0, 1.0, 2.0, 4.0):
        worst = max(worst, abs(ranges.normal_range_integral(r) - ranges.normal_range_closed_form(r)))
    return worst <= 1e-6, f"max defect {worst:.2e}"


@_check("ranges-midrange-logistic")
def _ranges_mid():
    params = GosParams(m=0.0, k=1.0, n=100)
    q = ranges.RangeQuery(
        model=parse_model("normal"), params=params,
        law=IndexLaw.unit_exponential(), statistic="midrange",
    )
    worst = max(
        abs(ranges.midrange_limit_df(q, v) - 1.0 / (1.0 + math.exp(-2.0 * v)))
        for v in np.linspace(-2.5, 2.5, 11)
    )
    return worst <= 1e-7, f"max defect vs logistic closed form {worst:.2e}"


@_check("ranges-coincidence")
def _ranges_coincide():
    law = IndexLaw.unit_exponential()
    worst = 0.0
    for spec, m in [("pareto(sigma=2)", 0.5), ("lognormal", 0.0),
                    ("exponential(sigma=1)", 1.0), ("rayleigh(sigma=1)", 0.0),
                    ("cauchy", -0.5)]:
        params = GosParams(m=m, k=1.0, n=50)
        model = parse_model(spec)
        qr = ranges.RangeQuery(model=model, params=params, law=law, statistic="range")
        qv = ranges.RangeQuery(model=model, params=params, law=law, statistic="midrange")
        for t in (0.5, 1.0, 2.5):
            worst = max(worst, abs(ranges.range_limit_df(qr, t) - ranges.midrange_limit_df(qv, t)))
    return worst <= 1e-9, f"max range/midrange gap on coincidence cases {worst:.2e}"


@_check("range-fixed-rule")
def _range_fixed_rule():
    # The two-sided ranges sum scipy/numpy ufuncs over fixed Gauss-Legendre
    # nodes; hold them to the adaptive route on a few cases of each pair
    # integrand, so that a numpy or scipy build whose ufuncs differ shows.
    cases = [
        ("normal", "range", IndexLaw.degenerate(1.0), 0.0, 1.0, 0.5),
        ("logistic", "midrange", IndexLaw.unit_exponential(), 1.2, 1.3, 8.6),
        ("beta(alpha=4,beta=2)", "midrange", IndexLaw.unit_exponential(), 1.0, 1.0, 0.3),
        ("uniform(theta=1)", "range", IndexLaw.degenerate(2.0), 0.0, 1.0, -0.5),
        ("cauchy", "range", IndexLaw.tabulated([(0.5, 0.0), (1.5, 1.0)]), 0.0, 1.0, 2.0),
        ("cauchy", "midrange", IndexLaw.degenerate(1.0), 0.0, 1.0, -1.5),
    ]
    worst = 0.0
    for spec, stat, law, m, k, t in cases:
        query = ranges.RangeQuery(model=parse_model(spec), params=GosParams(m=m, k=k, n=50),
                                  law=law, statistic=stat)
        worst = max(worst, abs(ranges._limit_df(query, t) - ranges.adaptive_pair_df(query, t)))
    return worst <= ranges.RANGE_ABS_TOL, f"max fixed-rule vs adaptive gap {worst:.2e}"


@_check("montecarlo-determinism")
def _mc_determinism():
    cfg = SimConfig(
        params=GosParams(m=0.0, k=1.0, n=60),
        model=parse_model("exponential(sigma=1)"),
        ranks=RankPair(r=1, s=1, regime=Regime.LOWER_UPPER),
        index_mode=IndexMode.parse("geometric"),
        replications=400, seed=31,
        eval_grid=tuple((math.inf, x) for x in (-1.0, 0.0, 1.0)),
    )
    a, b = run_bivariate_sim(cfg), run_bivariate_sim(cfg)
    same = a.to_json() == b.to_json()
    return same, "re-run is byte-identical" if same else "re-run differs"


@_check("montecarlo-stream-identity")
def _mc_stream_identity():
    # The sampler re-keys one Philox per call by its counter, which relies
    # on the installed numpy's Philox state layout: stream i must be
    # Philox(key=seed).jumped(i) even after the generator was left dirty.
    bad = []
    for seed, replication in [(0, 0), (1, 1), (31, 49), (2**40 + 3, 999), (7, 123456)]:
        streams = _Streams(seed)
        dirty = streams.start(replication + 1)
        dirty.random(3)
        dirty.integers(0, 10, dtype=np.uint32)
        got = streams.start(replication)
        want = np.random.Generator(np.random.Philox(key=seed).jumped(replication))
        same = (
            got.geometric(1e-3) == want.geometric(1e-3)
            and np.array_equal(got.random(37), want.random(37))
            and np.array_equal(got.integers(0, 10, 3, dtype=np.uint32),
                               want.integers(0, 10, 3, dtype=np.uint32))
        )
        if not same:
            bad.append((seed, replication))
    return not bad, (
        f"counter reset differs from jumped(i) at (seed, i) = {bad}" if bad
        else "counter reset gives stream i"
    )


@_check("montecarlo-marginal-sanity", slow=True)
def _mc_marginal():
    params = GosParams(m=0.5, k=1.0, n=50)
    model = parse_model("power(alpha=1)")
    consts = norming_constants(model, params)
    grid = tuple((math.inf, x) for x in np.linspace(-3.0, 1.0, 9))
    cfg = SimConfig(
        params=params, model=model,
        ranks=RankPair(r=1, s=2, regime=Regime.LOWER_UPPER),
        index_mode=IndexMode.parse("fixed"),
        replications=10000, seed=17, eval_grid=grid,
    )
    rep = run_bivariate_sim(cfg)
    worst = 0.0
    for (_, x), e, se in zip(rep.grid, rep.empirical, rep.standard_errors):
        exact = goscore.marginal_upper_df(params, model, 2, consts.b + consts.a * x)
        worst = max(worst, abs(e - exact) / max(3.0 * se, 3e-4))
    return worst <= 1.0, f"worst |emp - exact| / (3 SE) = {worst:.2f}"


@_check("montecarlo-geometric-logistic", slow=True)
def _mc_logistic():
    grid = tuple((math.inf, x) for x in np.linspace(-3.0, 3.0, 21))
    cfg = SimConfig(
        params=GosParams(m=0.0, k=1.0, n=500),
        model=parse_model("exponential(sigma=1)"),
        ranks=RankPair(r=1, s=1, regime=Regime.LOWER_UPPER),
        index_mode=IndexMode.parse("geometric"),
        replications=20000, seed=20240817, eval_grid=grid,
    )
    rep = run_bivariate_sim(cfg)
    bound = 3.0 * max(rep.standard_errors)
    return rep.sup_distance <= bound, (
        f"sup distance {rep.sup_distance:.4f} vs 3 max SE {bound:.4f}"
    )


def run(fast: bool = False) -> tuple[int, int, list[str]]:
    """Execute the registered checks; returns (passed, failed, lines)."""
    passed = failed = 0
    lines = []
    for name, slow, fn in _REGISTRY:
        if fast and slow:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - a crash is a failure
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if ok:
            passed += 1
        else:
            failed += 1
    lines.append(f"{passed} passed, {failed} failed")
    return passed, failed, lines
