"""No adaptive quadrature on a serving path: with scipy's QUADPACK entry
point made to raise, every mixture under every law kind, both exact joints,
the `limit` and `exact` verbs, and the `example` range and midrange tables
still evaluate.  The two-sided ranges take nested Clenshaw-Curtis levels in
a sinh-mapped variable, graded toward the pair's edge, and settle every
point without a fallback: at an edge point they match a 30-digit mpmath
integral.  QUADPACK serves only the routes of `reference`, and neither
importing the CLI nor serving a range table loads it.  Range, exact and
mixture values do not depend on the grid around them, and a long range grid
is taken in chunks of fixed size.  An xy table taken on its grid's axes
keeps the bits of the flattened grid, takes a gamma ratio of one coordinate
once per grid value, and makes as many index-kernel calls as a single point."""

import os
import subprocess
import sys
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate

from gosextreme import randomindex
from gosextreme.cli import main
from gosextreme.distributions import FAMILY_NAMES, parse_model
from gosextreme.goscore import joint_df, marginal_upper_df
from gosextreme.limitlaws import TailTransform
from gosextreme.montecarlo import analytic_limit_df
from gosextreme.params import ExtremeSide, GosParams, RankPair, Regime
from gosextreme.randomindex import (
    IndexLaw,
    mixture_df,
    mixture_marginal,
)
from gosextreme.ranges import RANGE_ABS_TOL, RangeQuery, _limit_df, range_limit_df

LAWS = [
    IndexLaw.degenerate(1.0),
    IndexLaw.unit_exponential(),
    IndexLaw.tabulated([(0.3, 0.0), (0.9, 0.2), (1.3, 0.6), (3.1, 1.0)]),
    IndexLaw.tabulated([(0.0, 0.0), (0.7, 0.3), (2.0, 1.0)]),
]
PARAMS = GosParams(m=0.5, k=1.3, n=50)


@pytest.fixture(autouse=True)
def refuse_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a serving path called scipy.integrate.quad")

    # `reference.integrate` reads the name from scipy.integrate at each call
    monkeypatch.setattr(scipy.integrate, "quad", refuse)


def _loads_quadpack(code: str) -> bool:
    """Whether running `code` in a fresh interpreter (this one has imported
    scipy.integrate already) loads scipy.integrate."""
    code += "\nimport sys; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1] == "True"


def test_importing_the_cli_loads_no_quadpack():
    assert not _loads_quadpack("import gosextreme.cli")


def test_importing_the_cli_loads_no_reference():
    # only `selftest` reaches the reference routes; the package resolves
    # their names on first access
    code = ("import sys, gosextreme.cli; loaded = 'gosextreme.reference' in sys.modules\n"
            "from gosextreme import omega_uu\n"
            "print(loaded, omega_uu.__module__)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "gosextreme.reference"]


def test_every_exported_name_resolves():
    import gosextreme

    assert [name for name in gosextreme.__all__ if not hasattr(gosextreme, name)] == []


def test_a_range_table_with_edge_points_loads_no_quadpack():
    # the uniform midrange's pair has an edge at each t > 0, where the
    # integrand goes like (s - edge)^ell with ell = 0.59
    code = "from gosextreme.cli import main; main(['example', 'uniform-midrange', '--k', '0.59'])"
    assert not _loads_quadpack(code)


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.label())
def test_mixtures(law):
    values = [
        mixture_df(PARAMS, RankPair(3, 1, Regime.UPPER_UPPER), law, 1.2, 0.7),
        mixture_df(PARAMS, RankPair(1, 3, Regime.LOWER_LOWER), law, 0.6, 1.4),
        mixture_df(PARAMS, RankPair(2, 1, Regime.LOWER_UPPER), law, 0.8, 1.1),
        mixture_marginal(ExtremeSide.UPPER, PARAMS, 2, 0.9, law),
        mixture_marginal(ExtremeSide.LOWER, PARAMS, 2, 0.9, law),
    ]
    assert all(0.0 < v < 1.0 for v in values)


def test_exact_joints():
    model = parse_model("logistic")
    pair = RankPair(r=3, s=1, regime=Regime.UPPER_UPPER)
    assert 0.0 < joint_df(PARAMS, model, pair, 3.0, 4.0) < 1.0
    assert 0.0 < joint_df(PARAMS, model, RankPair(1, 3, Regime.LOWER_LOWER), -4.0, -3.0) < 1.0


@pytest.mark.parametrize("argv", [
    ["limit", "--regime", "uu", "--r", "2", "--s", "1", "--upper-tail", "gumbel"],
    ["limit", "--regime", "ll", "--r", "1", "--s", "2", "--lower-tail", "weibull:2"],
    ["limit", "--regime", "lu", "--r", "1", "--s", "1", "--lower-tail", "weibull:2",
     "--upper-tail", "gumbel"],
    ["exact", "--dist", "logistic", "--n", "500", "--regime", "uu", "--r", "2", "--s", "1"],
    ["exact", "--dist", "logistic", "--n", "500", "--regime", "ll", "--r", "1", "--s", "2"],
], ids=["limit-uu", "limit-ll", "limit-lu", "exact-uu", "exact-ll"])
def test_cli_verbs(capsys, argv):
    assert main([*argv, "--x-grid", "0.5", "--y-grid", "1.0"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1].startswith("0.5,1")


@pytest.mark.parametrize("argv", [
    ["--marginal", "upper", "--rank", "2"],
    ["--marginal", "lower", "--rank", "3"],
    ["--regime", "uu", "--r", "2", "--s", "1"],
    ["--regime", "ll", "--r", "1", "--s", "2"],
], ids=["upper", "lower", "uu", "ll"])
def test_exact_verb_over_its_default_grids(capsys, argv):
    assert main(["exact", "--dist", "logistic", "--n", "500", *argv]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if line[:1] not in ("#", "x")]
    assert len(rows) == (41 if "--marginal" in argv else 121)
    assert all(0.0 <= float(row[-1]) <= 1.0 for row in rows)


def _example_values(capsys, argv):
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if line[:1] not in ("#", "t")]
    return [float(value) for _, value in rows]


@pytest.mark.parametrize("statistic", ["range", "midrange"])
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_example_tables_under_the_fixed_size_law(capsys, family, statistic):
    values = _example_values(capsys, ["example", f"{family}-{statistic}", "--law", "degenerate:1"])
    assert len(values) == 41 and all(0.0 <= v <= 1.0 for v in values)


@pytest.mark.parametrize("name", ["normal-range", "cauchy-range", "logistic-midrange",
                                  "pareto-range"])
def test_example_tables_under_the_geometric_law(capsys, name):
    values = _example_values(capsys, ["example", name])
    assert len(values) == 41 and all(0.0 <= v <= 1.0 for v in values)


# One two-sided case of each pair integrand, under a point mass and under
# the geometric law.
_PAIRS = [("laplace", "range"), ("normal", "midrange"), ("beta(alpha=2,beta=2)", "midrange"),
          ("uniform(theta=1)", "range"), ("cauchy", "range"), ("cauchy", "midrange")]


@pytest.mark.parametrize("law", LAWS[:2], ids=lambda law: law.label())
@pytest.mark.parametrize("spec,statistic", _PAIRS)
def test_range_value_does_not_depend_on_its_grid(law, spec, statistic):
    query = RangeQuery(model=parse_model(spec), params=GosParams(m=0.0, k=1.0, n=50),
                       law=law, statistic=statistic)
    grid = np.linspace(-3.0, 5.0, 150)  # three chunks, the last one short
    values = _limit_df(query, grid)
    for shift in (1, 63, 64, 100):
        assert np.array_equal(_limit_df(query, np.roll(grid, shift)), np.roll(values, shift))
    for i in (0, 63, 64, 77, 149):
        assert _limit_df(query, float(grid[i])) == values[i]


def _cauchy_pair_oracle(t: float, midrange: bool, z: str, ell: str) -> float:
    """The cauchy (m = 0) range or midrange df at t under the point mass z,
    at 30 digits: int z y^-2 e^(-z/y) Q(ell, z/gap) dy over the min-side
    variable y, with gap = t + y (midrange) or t - y (range) and Q the
    regularized upper gamma, taken in the gap itself, which is 0 at the edge."""
    with mp.workdps(30):
        z, ell, edge = mp.mpf(z), mp.mpf(ell), mp.mpf(-t if midrange else t)

        def integrand(gap):
            y = edge + gap if midrange else edge - gap
            return z / y**2 * mp.exp(-z / y) * mp.gammainc(ell, z / gap, mp.inf, regularized=True)

        top = mp.inf if midrange else edge
        breaks = [0] + [p for p in (z / 10, z, 10 * z, 100 * z, 1000 * z, 10, 1000) if p < top]
        return float(mp.quad(integrand, [*breaks, top]))


@pytest.mark.parametrize("name,at", [("cauchy-midrange", -2.5), ("cauchy-range", 4.5)])
def test_cauchy_edge_points_against_mpmath(capsys, name, at):
    values = _example_values(capsys, ["example", name, "--k", "2.3", "--law", "degenerate:0.001",
                                      f"--at={at!r}"])
    want = _cauchy_pair_oracle(at, name.endswith("midrange"), "0.001", "2.3")
    assert values[0] == pytest.approx(want, abs=RANGE_ABS_TOL / 10.0)


def test_long_range_grid_keeps_memory_flat():
    query = RangeQuery(model=parse_model("laplace"), params=GosParams(m=0.0, k=1.0, n=50),
                       law=IndexLaw.degenerate(1.0), statistic="range")
    grid = np.linspace(-2.0, 6.0, 100_000)
    tracemalloc.start()
    try:
        values = range_limit_df(query, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == grid.shape and np.all(np.diff(values) >= -1e-9)
    # the result is 0.8 MB; a per-point node table would be hundreds of MB
    assert peak < 4e6


def test_table_law_range_memory_is_bounded_by_the_chunk():
    # a table law's kernel holds (series row, element) arrays over a whole
    # chunk of grid points times the rule's nodes, and no more
    query = RangeQuery(model=parse_model("normal"), params=GosParams(m=0.0, k=1.0, n=50),
                       law=LAWS[2], statistic="range")

    def peak(points):
        tracemalloc.start()
        try:
            range_limit_df(query, np.linspace(-2.0, 6.0, points))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)  # the rule's node tables are built once, on the first call
    assert peak(200) <= 1.1 * peak(64)


def test_at_and_grid_give_the_same_bits(capsys):
    import json

    def rows(*argv):
        assert main(["example", "normal-range", "--law", "degenerate:1", "--format", "json",
                     *argv]) == 0
        return json.loads(capsys.readouterr().out)["rows"]

    grid = rows("--grid=-2:6:101")
    for t, value in grid[::25]:
        assert rows("--at", repr(t)) == [[t, value]]


def test_example_range_under_a_tabulated_law(capsys, tmp_path):
    # the fixed rule under a table law: one kernel call over all nodes of an
    # order, taken segment by segment
    table = tmp_path / "h.csv"
    table.write_text("z,H\n0.3,0\n0.9,0.2\n1.3,0.6\n3.1,1\n")
    start = time.perf_counter()
    values = _example_values(capsys, ["example", "normal-range", "--law", f"table:{table}"])
    assert time.perf_counter() - start < 0.5
    assert len(values) == 41 and all(0.0 <= v <= 1.0 for v in values)


_LOGISTIC = parse_model("logistic")
_GUMBEL = TailTransform(side=ExtremeSide.UPPER, kind="gumbel")
_WEIBULL = TailTransform(side=ExtremeSide.LOWER, kind="weibull", alpha=2.0)
# (pair, x scale, y scale) of each regime's mixture case
_REGIME_CASES = {
    "uu": (RankPair(r=3, s=1, regime=Regime.UPPER_UPPER), 1.0, 1.0),
    "ll": (RankPair(r=1, s=3, regime=Regime.LOWER_LOWER), 0.25, 0.25),
    "lu": (RankPair(r=2, s=1, regime=Regime.LOWER_UPPER), 0.25, 1.0),
}


def _mixture_case(law, regime):
    pair, x_scale, y_scale = _REGIME_CASES[regime]
    return lambda x, y: analytic_limit_df(PARAMS, pair, _GUMBEL, _WEIBULL, law, x * x_scale,
                                          y * y_scale)


# every law kind (the point mass 1 of the `limit` verb, the geometric-size
# law, a table) in every regime, and both exact joints
_GRID_CASES = {
    "exact-marginal": lambda x, y: marginal_upper_df(PARAMS, _LOGISTIC, 2, x),
    "exact-uu": lambda x, y: joint_df(
        PARAMS, _LOGISTIC, RankPair(r=3, s=1, regime=Regime.UPPER_UPPER), x, y),
    "exact-ll": lambda x, y: joint_df(
        PARAMS, _LOGISTIC, RankPair(r=1, s=3, regime=Regime.LOWER_LOWER), -x, -y),
    **{f"{prefix}-{regime}": _mixture_case(law, regime)
       for prefix, law in (("limit", LAWS[0]), ("mix-exp", LAWS[1]), ("mix-table", LAWS[2]))
       for regime in _REGIME_CASES},
}


@pytest.mark.parametrize("name", sorted(_GRID_CASES))
def test_table_value_does_not_depend_on_its_grid(name):
    evaluate = _GRID_CASES[name]
    xs = np.linspace(-2.0, 6.0, 9)
    x, y = np.repeat(xs, 9), np.tile(xs, 9)
    values = evaluate(x, y)
    for shift in (1, 40):
        assert np.array_equal(evaluate(np.roll(x, shift), np.roll(y, shift)),
                              np.roll(values, shift))
    for i in range(len(x)):
        assert evaluate(float(x[i]), float(y[i])) == values[i]
        assert evaluate(x[i:i + 1], y[i:i + 1])[0] == values[i]
    # on the grid's axes, x as a column and y as a row, as the CLI takes a
    # table, and on a y axis of another length
    ys = np.linspace(-1.5, 5.5, 7)
    for axis, flat in ((xs, values), (ys, evaluate(np.repeat(xs, 7), np.tile(ys, 9)))):
        on_axes = evaluate(xs[:, None], axis[None, :])
        assert np.array_equal(np.broadcast_to(on_axes, (9, axis.size)).ravel(), flat)


def test_limit_lu_takes_its_gamma_ratios_on_the_axes(monkeypatch, capsys):
    # under the point mass the lower-upper kernel is weight(rho) times
    # Q(R_s, kappa^(m+1)): one Q per y value for each of its two kernels
    sizes, ratio = [], randomindex.reg_inc_gamma_upper
    monkeypatch.setattr(randomindex, "reg_inc_gamma_upper",
                        lambda r, x: sizes.append(np.size(x)) or ratio(r, x))
    assert main(["limit", "--regime", "lu", "--r", "1", "--s", "1", "--lower-tail", "weibull:2",
                 "--upper-tail", "gumbel", "--m", "0.5", "--k", "1.3", "--x-grid=0.05:3:41",
                 "--y-grid=-2:4:41"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 12 + 41 * 41
    assert 0 < sum(sizes) <= 2 * 41


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.label())
def test_mixture_kernel_calls_per_grid(monkeypatch, law):
    # a tabulated kernel call costs about the same at any size, so a grid
    # takes as many calls as a point: 1 + (r - s) in uu, 2 + (s - r) in ll
    # and 1 + r in lu
    calls, kernel = [], randomindex.index_kernel
    monkeypatch.setattr(randomindex, "index_kernel",
                        lambda *args: calls.append(args) or kernel(*args))
    x, y = np.linspace(0.2, 3.0, 5)[:, None], np.linspace(0.5, 4.0, 6)[None, :]
    for pair, want in ((RankPair(3, 1, Regime.UPPER_UPPER), 3),
                       (RankPair(1, 3, Regime.LOWER_LOWER), 4),
                       (RankPair(2, 1, Regime.LOWER_UPPER), 3)):
        calls.clear()
        assert mixture_df(PARAMS, pair, law, x, y).shape == (5, 6)
        assert len(calls) == want
