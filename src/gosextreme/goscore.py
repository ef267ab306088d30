"""Exact finite-sample distribution functions of m-GOS extremes.

Ranks count as `RankPair` sets out: from the top (r = 1 is the maximum)
for the upper marginal and an upper-upper pair, from the bottom for the
lower marginal and a lower-lower pair; r_top = n - r_bottom + 1.

Every df is a tail of a Dirichlet split.  For V = (1 - U)^(m+1) of two
ranks of the uniform m-GOS, V_r > V_s, the product representation gives
(V_s, V_r - V_s, 1 - V_r) ~ Dirichlet(a, n0, b) with an integer n0, and
each joint df is P(V_r > p, V_s > q) at p = Lbar_m(x), q = Lbar_m(y), a
finite sum of beta tails.  A marginal is the split's two-part case, the
tail P(V > p) of one beta variable, and one routed tail,
`specfun.beta_tail`, serves every exact df.  Each complement 1 - p is
taken as L_m(x), which keeps its digits where p rounds toward 1, and the
order of two points is read where their digits are: p > q below
p = 1/2, L_m(y) > L_m(x) from there up, so that x < y stays a joint
where Lbar_m(x) and Lbar_m(y) round to the same float.

The transforms, the marginals and the joints take floats or numpy
arrays (x and y broadcast), so a whole table is one call, and every beta
ratio one ufunc call: on a grid's axes (x a column, y a row) those in p
alone run once per x value, and only those in q/p over the points.  A
float in gives a float out.
"""

from __future__ import annotations

import numpy as np

from .distributions import DistributionModel, cdf, survival
from .params import GosParams, RankPair, Regime
from .specfun import beta_tail, clip_probability, reg_inc_beta


def lm(params: GosParams, model: DistributionModel, x):
    """L_m(x) = 1 - (1 - F(x))^(m+1); equals F itself when m = 0."""
    with np.errstate(divide="ignore"):  # F = 1 gives log1p(-1) = -inf and L_m = 1
        value = -np.expm1((params.m + 1.0) * np.log1p(-cdf(model, x)))
    return value if value.ndim else float(value)


def lbar(params: GosParams, model: DistributionModel, x):
    """Survival transform 1 - L_m(x) = (1 - F(x))^(m+1), evaluated from
    the closed-form survival function so deep upper tails keep relative
    accuracy.  Every df of this module takes its points through here.
    Where S = 1 - F rounds to 1, log S is taken as log1p(-F), which keeps
    a positive F: at a huge m it still sends the value to 0."""
    if np.isnan(x).any():
        raise ValueError("df is undefined at NaN")
    with np.errstate(divide="ignore"):  # a zero survival gives log 0 = -inf and 0
        log_s = np.asarray(np.log(survival(model, x)))
    top = log_s == 0.0
    if top.any():
        log_s[top] = np.log1p(-cdf(model, np.broadcast_to(x, top.shape)[top]))
    value = np.exp((params.m + 1.0) * log_s)
    return value if value.ndim else float(value)


def marginal_lower_df(params: GosParams, model: DistributionModel, r: int, x):
    """df of the r-th m-GOS from the bottom: P(V > Lbar_m(x)) for
    V ~ Beta(N - r + 1, r)."""
    return _marginal(params, model, r, x, params.big_n - r + 1.0, float(r))


def marginal_upper_df(params: GosParams, model: DistributionModel, r: int, x):
    """df of the r-th m-GOS from the top: P(V_r > Lbar_m(x)) for
    V_r ~ Beta(R_r, n - r + 1)."""
    return _marginal(params, model, r, x, params.rank_weight(r), params.n - r + 1.0)


def _marginal(params: GosParams, model: DistributionModel, r: int, x, a: float, b: float):
    """P(V > Lbar_m(x)) for V ~ Beta(a, b), its complement taken as L_m(x)."""
    if not 1 <= r <= params.n:
        raise ValueError(f"rank {r} out of range 1..{params.n}")
    value = clip_probability(beta_tail(a, b, lbar(params, model, x), lm(params, model, x)))
    return value if value.ndim else float(value)


def _dirichlet_upper(a: float, n0: int, b: float, p, q, pc, qc):
    """P(V_r > p, V_s > q) for (V_s, V_r - V_s, 1 - V_r) ~ Dirichlet(a,
    n0, b), integer n0 >= 1; pc = 1 - p and qc = 1 - q, taken as L_m,
    carry the digits near p = 1.  The order of the two points is read
    where its digits are, p > q below p = 1/2 and qc > pc from there up.
    Where q >= p (x >= y) the event is V_s > q alone, the split's two-part
    case V_s ~ Beta(a, n0 + b).  The arguments are floats, which give a
    float, or arrays that broadcast (p with pc, q with qc).

    Where q < p, either V_s > p, or V_s = g in (q, p] and V_r - V_s covers
    p - g (a negative-binomial sum); integrating over g and collecting
    equal powers (Vandermonde) leaves
    S_0 + sum_{j<n0} (S_{j+1} - S_j) I_{1-q/p}(j+1, a) with the beta tails
    S_j = P(Beta(a+j, n0+b-j) > p), S_n0 = P(V_r > p).  Beta ratios keep
    the terms accurate where log-gamma prefactors would not.  The tails
    are taken in p's shape; points of the marginal branch take 1 - q/p = 0.
    """
    low = p < 0.5
    joint = np.where(low, p > q, qc > pc)
    gap = np.maximum(qc - pc, 0.0)  # p - q
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # of the branch not taken
        x = np.where(joint, np.where(low, 1.0 - q / p, gap / (q + gap)), 0.0)
    tails = [beta_tail(a + j, n0 + b - j, p, pc) for j in range(n0 + 1)]
    value = tails[0]
    for j in range(n0):
        value = value + (tails[j + 1] - tails[j]) * reg_inc_beta(x, j + 1, a)
    value = np.where(joint, clip_probability(np.where(pc <= 0.0, 0.0, value)),
                     clip_probability(beta_tail(a, n0 + b, q, qc)))
    return value if value.ndim else float(value)


def joint_df(params: GosParams, model: DistributionModel, pair: RankPair, x, y):
    """P(X < x, Y < y) for the extremes X, Y that `pair` names (ranks as in
    `RankPair`), at floats or at arrays that broadcast.

    Where x >= y the joint collapses onto y's marginal at y, as in
    `reference.joint_df_direct`; elsewhere it is the Dirichlet sum of the
    module docstring, with a = R_s, n0 = r - s, b = n - r + 1 for an
    upper-upper pair and a = N - s + 1, n0 = s - r, b = r for a lower-lower
    one.  A lower-upper pair has no exact joint yet (ValueError).
    """
    if pair.regime == Regime.LOWER_UPPER:
        raise ValueError(f"no exact joint df for the {pair.regime.value} regime")
    pair.validate_against(params.n)
    r, s = pair.r, pair.s
    if pair.regime == Regime.UPPER_UPPER:
        shapes = params.rank_weight(s), r - s, params.n - r + 1.0
    else:
        shapes = params.big_n - s + 1.0, s - r, float(r)
    return _dirichlet_upper(*shapes, lbar(params, model, x), lbar(params, model, y),
                            lm(params, model, x), lm(params, model, y))
