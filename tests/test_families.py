"""The parent families: each is one record in `distributions._FAMILIES`, no
module tells families apart by name, and each record's tail types agree
with its support."""

import ast
import math
from pathlib import Path

import pytest

from gosextreme.distributions import FAMILY_NAMES, example_model, tail_transform
from gosextreme.params import ExtremeSide

SOURCES = Path(__file__).resolve().parents[1] / "src" / "gosextreme"
FAMILY_HOLDERS = {"family", "fam"}  # names a family name is kept under
EXAMPLE_OPTIONS = {"sigma": 1.0, "theta": 1.0, "alpha": None, "beta": 2.0}


def _family_comparisons(tree: ast.AST) -> list[int]:
    """Lines where a `.family` attribute, or a name `family` or `fam`, is
    compared with a family name (alone or in a tuple, list or set)."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if not any(isinstance(s, ast.Attribute) and s.attr == "family"
                   or isinstance(s, ast.Name) and s.id in FAMILY_HOLDERS for s in sides):
            continue
        strings = set()
        for side in sides:
            items = side.elts if isinstance(side, (ast.Tuple, ast.List, ast.Set)) else [side]
            strings |= {i.value for i in items if isinstance(i, ast.Constant)}
        if strings & set(FAMILY_NAMES):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_walker_sees_each_form_of_family_comparison():
    for code in ('model.family == "normal"', '"cauchy" != query.model.family',
                 'fam in ("pareto", "lognormal")', 'family in {"beta"}', 'fam == "uniform"'):
        assert _family_comparisons(ast.parse(code)), code
    for code in ('law.kind == "uniform"', 'model.family == other.family',
                 'name in _FAMILIES', 'head == "exponential"'):
        assert not _family_comparisons(ast.parse(code)), code


def test_no_module_compares_family_names():
    found = {
        path.name: lines
        for path in sorted(SOURCES.glob("*.py"))
        if (lines := _family_comparisons(ast.parse(path.read_text(), str(path))))
    }
    assert not found, f"family names compared outside the family table: {found}"


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_a_weibull_side_has_a_finite_end(family):
    """The normalizing constants centre a weibull side at the support's end
    on that side, so that end must be finite."""
    model = example_model(family, 0.0, EXAMPLE_OPTIONS)
    lo, hi = model.support()
    for side, end in ((ExtremeSide.LOWER, lo), (ExtremeSide.UPPER, hi)):
        if tail_transform(model, side).kind == "weibull":
            assert math.isfinite(end), f"{family} {side.value} side"
