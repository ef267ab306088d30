"""Edge sweep over the three xy verbs (`exact --regime`, `limit`, `mix`):
argvs drawn from the family, tail-kind and index-law records, with grid
ends at 0, +-1, 0.5, +-1e300 and 1e-300.  Every run ends with exit code
0, 1 or 2 and no traceback, raises no RuntimeWarning, and prints only
dfs in [0, 1].  A grid is taken on its two axes, so a coordinate value
reaches every kernel of its axis whichever branch its points take."""

import contextlib
import io
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gosextreme.cli import main
from gosextreme.distributions import _FAMILIES, FAMILY_NAMES
from gosextreme.randomindex import _LAWS

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


def test_every_law_kind_is_drawn(table_paths):
    assert set(_law_args(table_paths)) == set(_LAWS)


@st.composite
def _grid(draw):
    lo, hi = draw(st.sampled_from(_ENDS)), draw(st.sampled_from(_ENDS))
    return f"{lo}:{hi}:{draw(st.integers(1, 3))}"


@st.composite
def _tail(draw):
    kind = draw(st.sampled_from(_TAIL_KINDS))
    return kind if kind == "gumbel" else f"{kind}:{draw(st.sampled_from(['0.5', '1', '2']))}"


@st.composite
def _argv(draw, table_paths):
    verb = draw(st.sampled_from(["exact", "limit", "mix"]))
    regime = draw(st.sampled_from(["uu", "ll"] if verb == "exact" else ["uu", "ll", "lu"]))
    low, high = draw(st.sampled_from([(1, 2), (1, 3), (2, 3)]))
    r, s = {"uu": (high, low), "ll": (low, high)}.get(
        regime, (draw(st.integers(1, 2)), draw(st.integers(1, 2))))
    argv = [verb, "--regime", regime, "--r", str(r), "--s", str(s),
            "--m", draw(st.sampled_from(["-0.5", "0", "0.5", "2"])),
            "--k", draw(st.sampled_from(["0.5", "1", "3"])),
            f"--x-grid={draw(_grid())}", f"--y-grid={draw(_grid())}"]
    if verb == "exact":
        family = draw(st.sampled_from(FAMILY_NAMES))
        params = ",".join(f"{name}={draw(st.sampled_from(['0.5', '2']))}"
                          for name in _FAMILIES[family].param_names)
        return [*argv, "--dist", f"{family}({params})" if params else family,
                "--n", draw(st.sampled_from(["5", "50"]))]
    if regime in ("uu", "lu"):
        argv += ["--upper-tail", draw(_tail())]
    if regime in ("ll", "lu"):
        argv += ["--lower-tail", draw(_tail())]
    if verb == "mix":
        kind = draw(st.sampled_from(sorted(_LAWS)))
        argv += ["--H", draw(_law_args(table_paths)[kind])]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def test_sweep(table_paths):
    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(argv=_argv(table_paths))
    def sweep(argv):
        code, out, err, caught = _run(argv)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (
            argv, [str(w.message) for w in caught])
        assert code in (0, 1, 2), (argv, code, err)
        if code:
            assert err.startswith(("error: ", "validation failure: ", "numerical failure: ")), (
                argv, err)
            assert "Traceback" not in err, (argv, err)
            return
        rows = [line.split(",") for line in out.splitlines() if line[:1] not in ("#", "x")]
        assert rows, argv
        for row in rows:
            value = float(row[-1])
            assert not math.isnan(value) and 0.0 <= value <= 1.0, (argv, row)

    sweep()
