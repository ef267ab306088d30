"""The index-law and sampler-mode kinds: each is defined in `randomindex`
alone, with its CLI spellings, takes exactly its own fields, and rejects
non-finite parameters when it is built.  The CLI reads every law, mode and
tail spelling through the kind's own `parse`, so it compares none."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from gosextreme.limitlaws import TailTransform
from gosextreme.montecarlo import sample_random_index
from gosextreme.randomindex import IndexLaw, IndexMode

SOURCES = Path(__file__).resolve().parents[1] / "src" / "gosextreme"
KIND_STRINGS = {
    "degenerate", "unit_exponential", "tabulated",  # law kinds
    "fixed", "geometric", "dependent", "const", "uniform",  # mode kinds and T-spec kinds
}
TWO_NODES = ((0.5, 0.0), (1.5, 1.0))


def _kind_comparisons(tree: ast.AST) -> list[int]:
    """Lines where a `.kind` or `.t_kind` attribute is compared with a law
    or mode kind string (alone or in a tuple, list or set)."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if not any(isinstance(s, ast.Attribute) and s.attr in ("kind", "t_kind") for s in sides):
            continue
        strings = set()
        for side in sides:
            items = side.elts if isinstance(side, (ast.Tuple, ast.List, ast.Set)) else [side]
            strings |= {i.value for i in items if isinstance(i, ast.Constant)}
        if strings & KIND_STRINGS:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_walker_sees_each_form_of_kind_comparison():
    for code in ('law.kind == "degenerate"', '"geometric" != mode.kind',
                 'mode.t_kind in ("const", "uniform")', 'self.kind in {"tabulated"}'):
        assert _kind_comparisons(ast.parse(code)), code
    for code in ('tail.kind == "frechet"', 'model.family == "uniform"',
                 'IndexLaw.degenerate(1.0) == law', 'kind == "dependent"'):
        assert not _kind_comparisons(ast.parse(code)), code


def _words(kinds) -> set[str]:
    """The words of the spellings in `kinds` (its <arg> slots left out) and its
    keys' kind names."""
    words = set()
    for key, spellings in kinds.items():
        words |= {key} if isinstance(key, str) else {k for k in key if k is not None}
        words |= {w for spelling in spellings for w in spelling.split(":") if w[0] != "<"}
    return words


LAW_AND_MODE_WORDS = _words(IndexLaw.spellings()) | _words(IndexMode.spellings())
TAIL_WORDS = _words(TailTransform.spellings())


def _spelling_comparisons(tree: ast.AST, words: set[str]) -> list[int]:
    """Lines where any value is compared with one of `words` (alone or in a
    tuple, list or set), whatever the other side is."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        items = []
        for side in [node.left, *node.comparators]:
            items += side.elts if isinstance(side, (ast.Tuple, ast.List, ast.Set)) else [side]
        if any(isinstance(i, ast.Constant) and i.value in words for i in items):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_spelling_walker_sees_each_form():
    assert {"degenerate", "exponential", "exp", "table", "geometric_mean_n", "const",
            "tabulated", "unit_exponential"} <= LAW_AND_MODE_WORDS
    assert TAIL_WORDS == {"frechet", "weibull", "gumbel"}
    for code in ('head == "degenerate"', 'head in ("exponential", "unit_exponential", "exp")',
                 '"table" != parts[0]', 'parts[0] == "geometric_mean_n"',
                 'parts[1] in {"const", "uniform"}', 'law.kind == "tabulated"'):
        assert _spelling_comparisons(ast.parse(code), LAW_AND_MODE_WORDS), code
    for code in ('kind == "gumbel"', 'kind in ("frechet", "weibull")', 'tail.kind != "weibull"'):
        assert _spelling_comparisons(ast.parse(code), TAIL_WORDS), code
    for code in ('verb == "mix"', 'fmt in ("csv", "json")', 'IndexLaw.parse("exponential")',
                 'stat == "range"', 'head == "<c>"'):
        assert not _spelling_comparisons(ast.parse(code), LAW_AND_MODE_WORDS | TAIL_WORDS), code


def test_no_module_but_randomindex_compares_a_law_or_mode_spelling():
    found = {
        path.name: lines
        for path in sorted(SOURCES.glob("*.py")) if path.name != "randomindex.py"
        if (lines := _spelling_comparisons(ast.parse(path.read_text(), str(path)),
                                           LAW_AND_MODE_WORDS))
    }
    assert not found, f"law or mode spellings compared outside randomindex: {found}"


def test_cli_compares_no_tail_spelling():
    path = SOURCES / "cli.py"
    lines = _spelling_comparisons(ast.parse(path.read_text(), str(path)), TAIL_WORDS)
    assert not lines, f"tail spellings compared in cli: {lines}"


def test_only_randomindex_compares_law_or_mode_kinds():
    found = {
        path.name: lines
        for path in sorted(SOURCES.glob("*.py")) if path.name != "randomindex.py"
        if (lines := _kind_comparisons(ast.parse(path.read_text(), str(path))))
    }
    assert not found, f"law or mode kind strings compared outside randomindex: {found}"


@pytest.mark.parametrize("build", [
    lambda: IndexMode("geometric", None, (2.0,)),
    lambda: IndexMode("fixed", None, (3.0,)),
    lambda: IndexMode("fixed", "const", (1.0,)),
    lambda: IndexLaw(kind="degenerate", c=1.0, grid=TWO_NODES),
    lambda: IndexLaw(kind="tabulated", c=2.0, grid=TWO_NODES),
    lambda: IndexLaw(kind="unit_exponential", c=1.0),
], ids=["geometric-args", "fixed-args", "fixed-t-kind", "degenerate-grid", "tabulated-c",
        "exponential-c"])
def test_each_kind_takes_exactly_its_own_fields(build):
    with pytest.raises(ValueError, match="takes no"):
        build()


@pytest.mark.parametrize("build,message", [
    (lambda: IndexLaw.degenerate(math.inf), "finite point mass c, got c=inf"),
    (lambda: IndexMode("dependent", "const", (math.inf,)), "finite c, got c=inf"),
    (lambda: IndexMode("dependent", "uniform", (0.5, math.inf)), "finite b, got b=inf"),
    (lambda: IndexMode.parse("dependent:const:inf"), "finite c, got c=inf"),
    (lambda: IndexMode.parse("dependent:uniform:0.5:inf"), "finite b, got b=inf"),
    (lambda: IndexLaw.degenerate(math.nan), "point mass c > 0"),
    (lambda: IndexMode("dependent", "const", (math.nan,)), "one value c > 0"),
    (lambda: IndexMode("dependent", "uniform", (math.nan, 1.0)), "0 < a < b"),
    (lambda: IndexMode("dependent", "uniform", (0.5, math.nan)), "0 < a < b"),
], ids=["degenerate-inf", "const-inf", "uniform-inf", "parse-const-inf", "parse-uniform-inf",
        "degenerate-nan", "const-nan", "uniform-a-nan", "uniform-b-nan"])
def test_non_finite_parameters_are_rejected_when_built(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("text,random_nu,carries", [
    ("fixed", False, False), ("geometric", True, False),
    ("dependent:const:2", False, False), ("dependent:uniform:0.5:1.5", True, True),
])
def test_mode_facts(text, random_nu, carries):
    mode = IndexMode.parse(text)
    assert (mode.random_nu, mode.carries) == (random_nu, carries)
    rng = np.random.default_rng(5)
    draws = {sample_random_index(mode, 100, rng, 3) for _ in range(20)}
    assert (len(draws) > 1) == random_nu


@pytest.mark.parametrize("law,mean,transform", [
    (IndexLaw.degenerate(2.5), 2.5, lambda w: math.exp(-2.5 * w)),
    (IndexLaw.unit_exponential(), 1.0, lambda w: 1.0 / (1.0 + w)),
    (IndexLaw.tabulated(TWO_NODES), 1.0, lambda w: (math.exp(-0.5 * w) - math.exp(-1.5 * w)) / w),
], ids=["degenerate", "exponential", "tabulated"])
def test_mean_and_laplace_bound(law, mean, transform):
    assert law.mean() == mean
    for mass in (1e-3, 1e-14):  # the Laplace transform of H at the bound is at most mass
        assert transform(law.laplace_bound(mass)) <= mass * (1.0 + 1e-12)
