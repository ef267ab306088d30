"""No adaptive quadrature on a serving path: with scipy's QUADPACK entry
point made to raise, every mixture under every law kind, both exact joints,
the `limit` and `exact` verbs, and the `example` range and midrange tables
still evaluate.  The two-sided ranges take a fixed Gauss-Legendre rule over
the whole grid; QUADPACK serves only that rule's per-point fallback, which
the default grids below never reach, and the routes of `reference`, and
importing the CLI does not load it.  Range, exact and mixture values do not
depend on the grid around them, and a long range grid is taken in chunks of
fixed size."""

import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from gosextreme.cli import _EXAMPLE_FAMILIES, main
from gosextreme.distributions import parse_model
from gosextreme.goscore import joint_lower_df, joint_upper_df, marginal_upper_df
from gosextreme.limitlaws import TailTransform
from gosextreme.montecarlo import analytic_limit_df
from gosextreme.params import ExtremeSide, GosParams, RankPair, Regime
from gosextreme.randomindex import (
    IndexLaw,
    mixture_ll,
    mixture_lu,
    mixture_marginal,
    mixture_uu,
)
from gosextreme.ranges import RangeQuery, _limit_df, range_limit_df

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

    # `_integrate` reads the name from scipy.integrate at each call
    monkeypatch.setattr(scipy.integrate, "quad", refuse)


def test_importing_the_cli_loads_no_quadpack():
    # a fresh interpreter: this one has imported scipy.integrate already
    code = "import sys, gosextreme.cli; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.label())
def test_mixtures(law):
    values = [
        mixture_uu(PARAMS, 3, 1, 1.2, 0.7, law),
        mixture_ll(1, 3, 0.6, 1.4, law),
        mixture_lu(PARAMS, 2, 1, 0.8, 1.1, law),
        mixture_marginal(ExtremeSide.UPPER, PARAMS, 2, 0.9, law),
        mixture_marginal(ExtremeSide.LOWER, PARAMS, 2, 0.9, law),
    ]
    assert all(0.0 < v < 1.0 for v in values)


def test_exact_joints():
    model = parse_model("logistic")
    pair = RankPair(r=3, s=1, regime=Regime.UPPER_UPPER)
    assert 0.0 < joint_upper_df(PARAMS, model, pair, 3.0, 4.0) < 1.0
    assert 0.0 < joint_lower_df(PARAMS, model, 1, 3, -4.0, -3.0) < 1.0


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
@pytest.mark.parametrize("family", _EXAMPLE_FAMILIES)
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
_GRID_CASES = {
    "exact-marginal": lambda x, y: marginal_upper_df(PARAMS, _LOGISTIC, 2, x),
    "exact-uu": lambda x, y: joint_upper_df(
        PARAMS, _LOGISTIC, RankPair(r=3, s=1, regime=Regime.UPPER_UPPER), x, y),
    "exact-ll": lambda x, y: joint_lower_df(PARAMS, _LOGISTIC, 1, 3, -x, -y),
    "mix-table-uu": lambda x, y: analytic_limit_df(
        PARAMS, RankPair(r=3, s=1, regime=Regime.UPPER_UPPER), _GUMBEL, None, LAWS[2],
        x, y),
    "mix-table-ll": lambda x, y: analytic_limit_df(
        PARAMS, RankPair(r=1, s=3, regime=Regime.LOWER_LOWER), None, _WEIBULL, LAWS[2],
        x / 4.0, y / 4.0),
    "mix-table-lu": lambda x, y: analytic_limit_df(
        PARAMS, RankPair(r=2, s=1, regime=Regime.LOWER_UPPER), _GUMBEL, _WEIBULL, LAWS[2],
        x / 4.0, y),
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
