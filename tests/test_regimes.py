"""The regimes: `Regime.sides` is the one map from a regime to the ends its
two ranks count from, and only `params`, `goscore` and `randomindex` tell
regimes apart."""

import ast
from pathlib import Path

import pytest

from gosextreme.params import ExtremeSide, Regime

SOURCES = Path(__file__).resolve().parents[1] / "src" / "gosextreme"
REGIME_STRINGS = {"uu", "ll", "lu", *(regime.value for regime in Regime)}
REGIME_HOLDERS = {"params.py", "goscore.py", "randomindex.py"}


def _names_a_regime(node: ast.AST) -> bool:
    """A `Regime` member, or a regime string: its CLI spelling or its value."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "Regime"
    return isinstance(node, ast.Constant) and node.value in REGIME_STRINGS


def _regime_comparisons(tree: ast.AST) -> list[int]:
    """Lines where a regime is compared, alone or in a tuple, list or set."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        items = []
        for side in [node.left, *node.comparators]:
            items += side.elts if isinstance(side, (ast.Tuple, ast.List, ast.Set)) else [side]
        if any(_names_a_regime(item) for item in items):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_walker_sees_each_form_of_regime_comparison():
    for code in ('pair.regime == Regime.UPPER_UPPER', 'Regime.LOWER_LOWER != regime',
                 'regime is Regime.LOWER_UPPER', 'args.regime in ("uu", "lu")',
                 'name == "ll"', 'pair.regime.value in {"lower_upper"}',
                 'regime in [Regime.UPPER_UPPER, Regime.LOWER_LOWER]'):
        assert _regime_comparisons(ast.parse(code)), code
    for code in ('side == ExtremeSide.UPPER', 'args.regime is None', 'kind == "gumbel"',
                 '_REGIMES[args.regime]', 'pair.regime.sides', 'ExtremeSide.UPPER in sides',
                 'regime in _REGIMES'):
        assert not _regime_comparisons(ast.parse(code)), code


def test_only_params_goscore_and_randomindex_compare_regimes():
    found = {
        path.name: lines
        for path in sorted(SOURCES.glob("*.py")) if path.name not in REGIME_HOLDERS
        if (lines := _regime_comparisons(ast.parse(path.read_text(), str(path))))
    }
    assert not found, f"regimes compared outside params, goscore and randomindex: {found}"


@pytest.mark.parametrize("regime,sides", [
    (Regime.UPPER_UPPER, (ExtremeSide.UPPER, ExtremeSide.UPPER)),
    (Regime.LOWER_LOWER, (ExtremeSide.LOWER, ExtremeSide.LOWER)),
    (Regime.LOWER_UPPER, (ExtremeSide.LOWER, ExtremeSide.UPPER)),
])
def test_sides(regime, sides):
    assert regime.sides == sides
