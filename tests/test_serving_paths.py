"""No quadrature on a serving path: with scipy's QUADPACK entry point made
to raise, every mixture under every law kind, both exact joints and the
`limit` and `exact` verbs still evaluate.  Only the two-sided range
limits and the reference routes kept for the tests integrate."""

import pytest

from gosextreme import _integrate
from gosextreme.cli import main
from gosextreme.distributions import parse_model
from gosextreme.goscore import joint_lower_df, joint_upper_df
from gosextreme.params import ExtremeSide, GosParams, RankPair, Regime
from gosextreme.randomindex import (
    IndexLaw,
    mixture_ll,
    mixture_lu,
    mixture_marginal,
    mixture_uu,
)

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

    monkeypatch.setattr(_integrate._sci, "quad", refuse)


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
