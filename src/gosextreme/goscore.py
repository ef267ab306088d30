"""Exact finite-sample distribution functions of m-GOS extremes.

Two index conventions coexist and are kept strictly separate:

* bottom ranks 1 <= r < s <= n, used by `joint_lower_df`, by the
  defining double integral (`reference.joint_df_direct`) and by the
  lower marginals;
* top ranks with s < r (r = 1 is the maximum, larger r lies deeper),
  used by `joint_upper_df` and the upper marginals.

They are linked by r_top = n - r_bottom + 1; the translation is covered
by tests rather than hidden behind one signature.

Both joints are finite sums.  For V = (1 - U)^(m+1) of two ranks of the
uniform m-GOS, V_r > V_s, the product representation gives
(V_s, V_r - V_s, 1 - V_r) ~ Dirichlet(a, n0, b) with an integer n0, and
each joint df is P(V_r > p, V_s > q) at p = Lbar_m(x), q = Lbar_m(y).

The transforms, the marginals and both joints take floats or numpy
arrays (x and y broadcast), so a whole table is one call, and every beta
ratio one ufunc call: on a grid's axes (x a column, y a row) those in p
alone run once per x value, and only those in q/p over the points.  A
float in gives a float out.
"""

from __future__ import annotations

import numpy as np

from .distributions import DistributionModel, cdf, survival
from .params import GosParams, RankPair, Regime
from .specfun import clip_probability, reg_inc_beta


def lm(params: GosParams, model: DistributionModel, x):
    """L_m(x) = 1 - (1 - F(x))^(m+1); equals F itself when m = 0."""
    with np.errstate(divide="ignore"):  # F = 1 gives log1p(-1) = -inf and L_m = 1
        value = -np.expm1((params.m + 1.0) * np.log1p(-cdf(model, x)))
    return value if value.ndim else float(value)


def lbar(params: GosParams, model: DistributionModel, x):
    """Survival transform 1 - L_m(x) = (1 - F(x))^(m+1), evaluated from
    the closed-form survival function so deep upper tails keep relative
    accuracy.  Every df of this module takes its points through here."""
    if np.isnan(x).any():
        raise ValueError("df is undefined at NaN")
    with np.errstate(divide="ignore"):  # a zero survival gives log 0 = -inf and 0
        value = np.exp((params.m + 1.0) * np.log(survival(model, x)))
    return value if value.ndim else float(value)


def _check_rank(params: GosParams, r: int) -> None:
    if not 1 <= r <= params.n:
        raise ValueError(f"rank {r} out of range 1..{params.n}")


def marginal_lower_df(params: GosParams, model: DistributionModel, r: int, x):
    """df of the r-th m-GOS from the bottom: I_{L_m(x)}(r, N - r + 1)."""
    _check_rank(params, r)
    return _beta_ratio_df(params, model, x, float(r), params.big_n - r + 1.0)


def marginal_upper_df(params: GosParams, model: DistributionModel, r: int, x):
    """df of the r-th m-GOS from the top: I_{L_m(x)}(N - R_r + 1, R_r)."""
    _check_rank(params, r)
    rr = params.rank_weight(r)
    return _beta_ratio_df(params, model, x, params.big_n - rr + 1.0, rr)


def _beta_ratio_df(params: GosParams, model: DistributionModel, x, a: float, b: float):
    """I_{L_m(x)}(a, b), routed through whichever of L_m(x) and its
    complement carries the accurate tail: 1 - I_{1-L_m(x)}(b, a) where
    that complement is below 1/2."""
    lmx, lbx = lm(params, model, x), lbar(params, model, x)
    tail = lbx < 0.5
    ratio = reg_inc_beta(np.where(tail, lbx, lmx), np.where(tail, b, a), np.where(tail, a, b))
    value = np.where(tail, 1.0 - ratio, ratio)
    return value if value.ndim else float(value)


def _dirichlet_upper(a: float, n0: int, b: float, p, q, pc, qc, marginal):
    """P(V_r > p, V_s > q) where q < p, for (V_s, V_r - V_s, 1 - V_r) ~
    Dirichlet(a, n0, b), integer n0 >= 1, and `marginal` elsewhere (x >= y);
    pc = 1 - p and qc = 1 - q carry the digits near p = 1.  The arguments
    are floats, which give a float, or arrays that broadcast (p with pc,
    q with qc and `marginal`).

    Either V_s > p, or V_s = g in (q, p] and V_r - V_s covers p - g (a
    negative-binomial sum); integrating over g and collecting equal powers
    (Vandermonde) leaves S_0 + sum_{j<n0} (S_{j+1} - S_j) I_{1-q/p}(j+1, a)
    with the beta tails S_j = 1 - I_p(a+j, n0+b-j), S_n0 = P(V_r > p),
    taken as I_{1-p}(n0+b-j, a+j) from p = 1/2 up.  Beta ratios keep the
    terms accurate where log-gamma prefactors would not.  The tails are
    taken in p's shape; points of the marginal branch take 1 - q/p = 0.
    """
    joint = p > q
    low = p < 0.5
    gap = np.maximum(qc - pc, 0.0)  # p - q
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # of the branch not taken
        x = np.where(joint, np.where(low, 1.0 - q / p, gap / (q + gap)), 0.0)
    at, tails = np.where(low, p, pc), []
    for j in range(n0 + 1):
        ratio = reg_inc_beta(at, np.where(low, a + j, n0 + b - j), np.where(low, n0 + b - j, a + j))
        tails.append(np.where(low, 1.0 - ratio, ratio))
    value = tails[0]
    for j in range(n0):
        value = value + (tails[j + 1] - tails[j]) * reg_inc_beta(x, j + 1, a)
    value = np.where(joint, clip_probability(np.where(pc <= 0.0, 0.0, value)), marginal)
    return value if value.ndim else float(value)


def joint_upper_df(params: GosParams, model: DistributionModel, pair: RankPair, x, y):
    """P(r-th from top < x, s-th from top < y), s < r, at floats or at
    arrays that broadcast.

    Where x >= y the joint collapses onto the shallower marginal at y;
    where x < y it is the Dirichlet sum of the module docstring with
    a = R_s, n0 = r - s, b = n - r + 1.
    """
    if pair.regime != Regime.UPPER_UPPER:
        raise ValueError(f"expected an upper-upper rank pair, got {pair.regime}")
    pair.validate_against(params.n)
    r, s = pair.r, pair.s
    p, q = lbar(params, model, x), lbar(params, model, y)
    # top ranks sit at small p, where 1 - p loses nothing
    return _dirichlet_upper(params.rank_weight(s), r - s, params.n - r + 1.0, p, q, 1.0 - p,
                            1.0 - q, marginal_upper_df(params, model, s, y))


def joint_lower_df(params: GosParams, model: DistributionModel, r: int, s: int, x, y):
    """P(r-th from bottom < x, s-th from bottom < y), 1 <= r < s <= n, at
    floats or at arrays that broadcast.

    Where x >= y it reduces to the s-th lower marginal at y, as in
    `reference.joint_df_direct`; elsewhere the Dirichlet sum of the module
    docstring with a = N - s + 1, n0 = s - r, b = r.
    """
    if not 1 <= r < s <= params.n:
        raise ValueError(f"need 1 <= r < s <= n, got r={r}, s={s}, n={params.n}")
    p, q = lbar(params, model, x), lbar(params, model, y)
    # bottom ranks sit at p near 1, so 1 - p is taken as L_m
    return _dirichlet_upper(params.big_n - s + 1.0, s - r, float(r), p, q, lm(params, model, x),
                            lm(params, model, y), marginal_lower_df(params, model, s, y))
