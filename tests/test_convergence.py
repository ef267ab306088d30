"""The paper's convergence at the fixed index, free of simulation noise.

For every family, both served regimes and m in {0, 0.5, 2} (k = 1), the
sup over a 27 x 27 grid g on [-2.5, 4]^2 of

    |joint_df at (A g + B) - analytic_limit_df at g|,

under `degenerate:1` and with n's norming constants (A, B) = (a, b) for
the upper-upper pair (2, 1) and (c, d) for the lower-lower pair (1, 2),
falls strictly over n in {50, 500, 5000, 50000}.  Each family takes
sigma = theta = 1, power alpha = 2, and beta the published examples'
alpha = 2(m+1), beta = 2, so that its lower side has an attraction.

A constant off by a factor, or a wrong tail transform, shows as a gap
that stops falling; the rates themselves (about 1/n for most rows, a
power of n below 1 for the second-order rows, ~1/log n for the gumbel
rows of normal, lognormal and rayleigh) are tabulated in the README and
not checked here.
"""

import itertools

import numpy as np
import pytest

from gosextreme.distributions import FAMILY_NAMES, example_model, norming_constants, tail_transform
from gosextreme.goscore import joint_df
from gosextreme.montecarlo import analytic_limit_df
from gosextreme.params import ExtremeSide, GosParams, RankPair, Regime
from gosextreme.randomindex import IndexLaw

SIZES = (50, 500, 5000, 50000)
GRID = np.linspace(-2.5, 4.0, 27)
PAIRS = {"uu": RankPair(2, 1, Regime.UPPER_UPPER), "ll": RankPair(1, 2, Regime.LOWER_LOWER)}
FIXED = IndexLaw.degenerate(1.0)


def family_model(family: str, m: float):
    options = {"sigma": 1.0, "theta": 1.0, "alpha": None if family == "beta" else 2.0,
               "beta": 2.0}
    return example_model(family, m, options)


def sup_gaps(family: str, m: float, regime: str) -> list[float]:
    """The sup gap at each size of SIZES."""
    model, pair = family_model(family, m), PAIRS[regime]
    up, low = tail_transform(model, ExtremeSide.UPPER), tail_transform(model, ExtremeSide.LOWER)
    gx, gy = GRID[:, None], GRID[None, :]
    gaps = []
    for n in SIZES:
        params = GosParams(m=m, k=1.0, n=n)
        consts = norming_constants(model, params)
        scale, shift = (consts.a, consts.b) if regime == "uu" else (consts.c, consts.d)
        exact = joint_df(params, model, pair, scale * gx + shift, scale * gy + shift)
        limit = analytic_limit_df(params, pair, up, low, FIXED, gx, gy)
        gaps.append(float(np.max(np.abs(exact - limit))))
    return gaps


@pytest.mark.parametrize("family,m,regime",
                         list(itertools.product(FAMILY_NAMES, (0.0, 0.5, 2.0), PAIRS)))
def test_sup_gap_falls_in_n(family, m, regime):
    gaps = sup_gaps(family, m, regime)
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:])), gaps
