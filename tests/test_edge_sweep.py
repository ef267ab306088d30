"""Edge sweep over the three xy verbs (`exact --regime`, `limit`, `mix`)
and the two simulating ones (`simulate`, `example --sim-reps`): argvs drawn
from the family, tail-kind, index-law and sampler-mode records, every
regime and every example, with m as far out as 1e300 and -0.999999999, k
from 1e-300 to 1e300, and grid ends at 0, +-1, 0.5, +-1e300 and 1e-300,
in CSV and in JSON.  Every run ends with exit code 0, 1 or 2 and no
traceback, raises no RuntimeWarning, prints only dfs and standard errors
in [0, 1], and prints no NaN.  No drawn argv holds a NaN, so a NaN made
inside a computation must end as a numerical failure: no validation
failure names one.  A grid is taken on its two axes, so a coordinate value
reaches every kernel of its axis whichever branch its points take."""

import contextlib
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gosextreme.cli import example_names, main
from gosextreme.distributions import _FAMILIES, FAMILY_NAMES
from gosextreme.randomindex import _LAWS, _MODES, IndexMode

_ENDS = ("0", "1", "-1", "0.5", "1e300", "-1e300", "1e-300")
_TAIL_KINDS = ("frechet", "weibull", "gumbel")
_TABLES = {
    "near-zero": "z,H\n0,0\n1e-300,0.5\n2,1\n",  # half the mass within 1e-300 of 0
    "four-node": "z,H\n0.3,0\n0.9,0.2\n1.3,0.6\n3.1,1\n",
}


@pytest.fixture(scope="module")
def table_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("laws")
    paths = {}
    for name, text in _TABLES.items():
        paths[name] = root / f"{name}.csv"
        paths[name].write_text(text)
    return paths


def _law_args(table_paths):
    """One strategy per index-law kind, drawing the CLI spelling of a law."""
    return {
        "degenerate": st.sampled_from(["degenerate:1", "degenerate:2.5", "degenerate:1e-300",
                                      "degenerate:1e300"]),
        "unit_exponential": st.just("exponential"),
        "tabulated": st.sampled_from([f"table:{path}" for path in table_paths.values()]),
    }


# One list per sampler-mode kind, of the CLI spellings of a mode; T stays
# near 1, so that no replication draws many more than n uniforms.
_MODE_ARGS = {
    ("fixed", None): ["fixed"],
    ("geometric", None): ["geometric"],
    ("dependent", "const"): ["dependent:const:0.5", "dependent:const:2",
                             "dependent:const:1e-300"],
    ("dependent", "uniform"): ["dependent:uniform:0.5:1.5", "dependent:uniform:0.01:0.02",
                               "dependent:uniform:1e-300:1"],
}
_PROBABILITY_COLUMNS = {"value", "analytic", "empirical", "standard_error", "stderr"}
_FORMATS = st.sampled_from(["csv", "json"])


def test_every_law_kind_is_drawn(table_paths):
    assert set(_law_args(table_paths)) == set(_LAWS)


def test_every_mode_kind_is_drawn():
    assert set(_MODE_ARGS) == set(_MODES)
    for key, spellings in _MODE_ARGS.items():
        assert {(m.kind, m.t_kind) for m in map(IndexMode.parse, spellings)} == {key}


@st.composite
def _grid(draw):
    lo, hi = draw(st.sampled_from(_ENDS)), draw(st.sampled_from(_ENDS))
    return f"{lo}:{hi}:{draw(st.integers(1, 3))}"


@st.composite
def _tail(draw):
    kind = draw(st.sampled_from(_TAIL_KINDS))
    return kind if kind == "gumbel" else f"{kind}:{draw(st.sampled_from(['0.5', '1', '2']))}"


@st.composite
def _m_and_k(draw):
    return ["--m", draw(st.sampled_from(["-0.5", "0", "0.5", "2", "1e300", "-0.999999999"])),
            "--k", draw(st.sampled_from(["0.5", "1", "3", "1e-300", "1e300"]))]


@st.composite
def _dist(draw):
    family = draw(st.sampled_from(FAMILY_NAMES))
    params = ",".join(f"{name}={draw(st.sampled_from(['0.5', '2']))}"
                      for name in _FAMILIES[family].param_names)
    return ["--dist", f"{family}({params})" if params else family]


@st.composite
def _regime_args(draw, regimes=("uu", "ll", "lu")):
    regime = draw(st.sampled_from(regimes))
    low, high = draw(st.sampled_from([(1, 2), (1, 3), (2, 3)]))
    r, s = {"uu": (high, low), "ll": (low, high)}.get(
        regime, (draw(st.integers(1, 2)), draw(st.integers(1, 2))))
    return ["--regime", regime, "--r", str(r), "--s", str(s)]


@st.composite
def _argv(draw, table_paths):
    verb = draw(st.sampled_from(["exact", "limit", "mix"]))
    ranks = draw(_regime_args(("uu", "ll") if verb == "exact" else ("uu", "ll", "lu")))
    argv = [verb, *ranks, *draw(_m_and_k()), f"--x-grid={draw(_grid())}",
            f"--y-grid={draw(_grid())}", "--format", draw(_FORMATS)]
    regime = ranks[1]
    if verb == "exact":
        return [*argv, *draw(_dist()), "--n", draw(st.sampled_from(["5", "50"]))]
    if regime in ("uu", "lu"):
        argv += ["--upper-tail", draw(_tail())]
    if regime in ("ll", "lu"):
        argv += ["--lower-tail", draw(_tail())]
    if verb == "mix":
        kind = draw(st.sampled_from(sorted(_LAWS)))
        argv += ["--H", draw(_law_args(table_paths)[kind])]
    return argv


@st.composite
def _simulation_argv(draw, table_paths):
    """`simulate` over every regime and mode kind, or `example --sim-reps`
    over every example and law kind."""
    size = draw(st.sampled_from(["5", "50"]))
    reps, seed = str(draw(st.integers(1, 20))), str(draw(st.integers(0, 2**31)))
    if draw(st.booleans()):
        mode = draw(st.sampled_from(_MODE_ARGS[draw(st.sampled_from(list(_MODE_ARGS)))]))
        argv = ["simulate", *draw(_dist()), *draw(_regime_args()), *draw(_m_and_k()),
                "--n", size, "--index", mode, "--reps", reps, "--seed", seed,
                f"--x-grid={draw(_grid())}", "--format", draw(_FORMATS)]
        return argv + ([f"--y-grid={draw(_grid())}"] if draw(st.booleans()) else [])
    kind = draw(st.sampled_from(sorted(_LAWS)))
    argv = ["example", draw(st.sampled_from(example_names())), *draw(_m_and_k()),
            "--law", draw(_law_args(table_paths)[kind]), "--sim-n", size, "--sim-reps", reps,
            "--sim-seed", seed, "--format", draw(_FORMATS)]
    if draw(st.booleans()):
        return [*argv, f"--at={draw(st.sampled_from(_ENDS))}"]
    return [*argv, f"--grid={draw(_grid())}"]


def _probabilities(out: str, fmt: str) -> list[float]:
    """Every df and standard error the output prints: the columns named in
    _PROBABILITY_COLUMNS, and a report's sup distance.  A NaN anywhere in the
    output fails the sweep."""
    if fmt == "json":
        def refuse_nan(constant):
            assert constant != "NaN", out
            return float(constant)

        payload = json.loads(out, parse_constant=refuse_nan)
        if "rows" not in payload:  # a simulation report
            return [*payload["empirical"], *payload["analytic"], *payload["standard_errors"],
                    payload["sup_distance"]]
        columns, rows = payload["columns"], payload["rows"]
        config = payload["config"]
    else:
        lines = out.splitlines()
        comments = [line[2:].split("=", 1) for line in lines if line.startswith("#")]
        assert all(value.lower() != "nan" for _, value in comments), out
        config = dict(comments)
        columns, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    picked = [i for i, name in enumerate(columns) if name in _PROBABILITY_COLUMNS]
    sups = [float(config[key]) for key in ("sup_distance", "sim_sup_distance") if key in config]
    assert rows, out
    return [float(row[i]) for row in rows for i in picked] + sups


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def _check(argv):
    code, out, err, caught = _run(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (
        argv, [str(w.message) for w in caught])
    assert code in (0, 1, 2), (argv, code, err)
    if code:
        assert err.startswith(("error: ", "validation failure: ", "numerical failure: ")), (
            argv, err)
        assert "Traceback" not in err, (argv, err)
        assert not (err.startswith("validation failure: ")
                    and re.search(r"\bnan\b", err, re.IGNORECASE)), (argv, err)
        return
    for value in _probabilities(out, argv[argv.index("--format") + 1]):
        assert not math.isnan(value) and 0.0 <= value <= 1.0, (argv, value)


def test_sweep(table_paths):
    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(argv=_argv(table_paths))
    def sweep(argv):
        _check(argv)

    sweep()


def test_simulation_sweep(table_paths):
    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(argv=_simulation_argv(table_paths))
    def sweep(argv):
        _check(argv)

    sweep()
