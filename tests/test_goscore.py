"""Exact finite-sample df tests.

The independent oracles: binomial sums for single marginals and the
multinomial double sum for ordinary order statistics (m = 0, k = 1);
`joint_df_direct` (the defining double integral) cross-checks the
Dirichlet sums of `joint_df` for both served regimes at non-integer
(m, k).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gosextreme import goscore, reference
from gosextreme.distributions import norming_constants, parse_model
from gosextreme.params import GosParams, RankPair, Regime
from gosextreme.specfun import reg_inc_gamma_upper

UNIFORM01 = parse_model("power(alpha=1)")


def binomial_marginal(n: int, r: int, f: float) -> float:
    """P(r-th smallest of n iid <= x) with F(x) = f."""
    return math.fsum(
        math.comb(n, j) * f**j * (1.0 - f) ** (n - j) for j in range(r, n + 1)
    )


def upper_gamma_approximation(params: GosParams, model, r: int, x: float) -> float:
    """Large-sample surrogate 1 - Gamma_{R_r}(N * Lbar_m(x)) of the upper
    marginal; the exact df is sandwiched around it with vanishing gap."""
    scaled = params.big_n * goscore.lbar(params, model, x)
    return reg_inc_gamma_upper(params.rank_weight(r), scaled)


def multinomial_joint(n: int, r: int, s: int, fx: float, fy: float) -> float:
    """P(r-th smallest <= x, s-th smallest <= y), r < s, F(x)=fx <= F(y)=fy."""
    total = 0.0
    for j in range(s, n + 1):  # j counts observations <= y
        for i in range(r, j + 1):  # i of them <= x
            coef = math.factorial(n) // (
                math.factorial(i) * math.factorial(j - i) * math.factorial(n - j)
            )
            total += coef * fx**i * (fy - fx) ** (j - i) * (1.0 - fy) ** (n - j)
    return total


class TestLm:
    def test_m_zero_is_cdf(self):
        params = GosParams(m=0.0, k=1.0, n=5)
        for x in (0.1, 0.4, 0.9):
            assert goscore.lm(params, UNIFORM01, x) == pytest.approx(x, abs=1e-14)

    def test_m_one(self):
        params = GosParams(m=1.0, k=1.0, n=5)
        assert goscore.lm(params, UNIFORM01, 0.5) == pytest.approx(0.75, abs=1e-14)

    def test_m_negative_half(self):
        params = GosParams(m=-0.5, k=1.0, n=5)
        assert goscore.lm(params, UNIFORM01, 0.75) == pytest.approx(0.5, abs=1e-14)

    def test_lbar_complements(self):
        params = GosParams(m=0.7, k=2.0, n=6)
        for x in (0.05, 0.5, 0.95):
            sum_ = goscore.lm(params, UNIFORM01, x) + goscore.lbar(params, UNIFORM01, x)
            assert sum_ == pytest.approx(1.0, abs=1e-14)


class TestMarginals:
    def test_minimum_of_five_uniforms(self):
        params = GosParams(m=0.0, k=1.0, n=5)
        got = goscore.marginal_lower_df(params, UNIFORM01, 1, 0.2)
        assert got == pytest.approx(1.0 - 0.8**5, abs=1e-12)

    def test_left_support_end(self):
        params = GosParams(m=0.3, k=1.0, n=5)
        assert goscore.marginal_lower_df(params, UNIFORM01, 2, 0.0) == 0.0
        assert goscore.marginal_lower_df(params, UNIFORM01, 2, -3.0) == 0.0

    def test_lower_binomial_oracle(self):
        params = GosParams(m=0.0, k=1.0, n=3)
        got = goscore.marginal_lower_df(params, UNIFORM01, 2, 0.5)
        assert binomial_marginal(3, 2, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_max_of_five_uniforms(self):
        params = GosParams(m=0.0, k=1.0, n=5)
        got = goscore.marginal_upper_df(params, UNIFORM01, 1, 0.9)
        assert got == pytest.approx(0.9**5, abs=1e-12)

    def test_right_support_end(self):
        params = GosParams(m=0.5, k=2.0, n=5)
        assert goscore.marginal_upper_df(params, UNIFORM01, 2, 1.0) == 1.0
        assert goscore.marginal_upper_df(params, UNIFORM01, 2, 2.0) == 1.0

    def test_upper_binomial_oracle(self):
        # 2nd largest of 4: P = sum_{j>=3} C(4,j) F^j (1-F)^{4-j}
        params = GosParams(m=0.0, k=1.0, n=4)
        oracle = binomial_marginal(4, 3, 0.5)
        assert oracle == pytest.approx(0.3125, abs=1e-15)
        got = goscore.marginal_upper_df(params, UNIFORM01, 2, 0.5)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_randomized_binomial_agreement(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, n + 1))
            f = float(rng.uniform(0.05, 0.95))
            params = GosParams(m=0.0, k=1.0, n=n)
            low = goscore.marginal_lower_df(params, UNIFORM01, r, f)
            assert abs(low - binomial_marginal(n, r, f)) <= 1e-12
            up = goscore.marginal_upper_df(params, UNIFORM01, r, f)
            assert abs(up - binomial_marginal(n, n - r + 1, f)) <= 1e-12

    def test_rank_out_of_range(self):
        params = GosParams(m=0.0, k=1.0, n=4)
        for bad in (0, 5):
            with pytest.raises(ValueError):
                goscore.marginal_lower_df(params, UNIFORM01, bad, 0.5)
            with pytest.raises(ValueError):
                goscore.marginal_upper_df(params, UNIFORM01, bad, 0.5)


PAIR21 = RankPair(r=2, s=1, regime=Regime.UPPER_UPPER)
PAIR45 = RankPair(r=4, s=5, regime=Regime.LOWER_LOWER)


class TestJointUpper:
    def test_spec_point(self):
        params = GosParams(m=0.0, k=1.0, n=5)
        got = goscore.joint_df(params, UNIFORM01, PAIR21, 0.7, 0.9)
        assert got == pytest.approx(0.7**5 + 5 * 0.7**4 * 0.2, abs=1e-12)

    def test_marginal_consistency_y_at_endpoint(self):
        params = GosParams(m=0.4, k=1.5, n=6)
        got = goscore.joint_df(params, UNIFORM01, PAIR21, 0.6, 1.0)
        want = goscore.marginal_upper_df(params, UNIFORM01, 2, 0.6)
        assert got == pytest.approx(want, abs=1e-11)

    def test_diagonal_reduces_to_shallow_marginal(self):
        params = GosParams(m=-0.3, k=2.0, n=5)
        for x in (0.3, 0.7):
            got = goscore.joint_df(params, UNIFORM01, PAIR21, x, x)
            want = goscore.marginal_upper_df(params, UNIFORM01, 1, x)
            assert got == pytest.approx(want, abs=1e-12)

    def test_diagonal_branch_continuity(self):
        params = GosParams(m=0.0, k=1.0, n=5)
        below = goscore.joint_df(params, UNIFORM01, PAIR21, 0.8 - 1e-11, 0.8)
        at = goscore.joint_df(params, UNIFORM01, PAIR21, 0.8, 0.8)
        assert below == pytest.approx(at, abs=1e-9)

    def test_x_above_y_collapses(self):
        params = GosParams(m=0.0, k=1.0, n=5)
        got = goscore.joint_df(params, UNIFORM01, PAIR21, 0.9, 0.4)
        want = goscore.marginal_upper_df(params, UNIFORM01, 1, 0.4)
        assert got == pytest.approx(want, abs=1e-12)

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            RankPair(r=1, s=2, regime=Regime.UPPER_UPPER)
        params = GosParams(m=0.0, k=1.0, n=5)
        lu_pair = RankPair(r=1, s=1, regime=Regime.LOWER_UPPER)
        with pytest.raises(ValueError, match="lower_upper"):
            goscore.joint_df(params, UNIFORM01, lu_pair, 0.3, 0.5)

    def test_monotone_and_bounded(self):
        params = GosParams(m=0.5, k=2.0, n=6)
        xs = np.linspace(0.05, 0.95, 10)
        for y in (0.3, 0.8):
            vals = [goscore.joint_df(params, UNIFORM01, PAIR21, x, y) for x in xs]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
        for x in (0.3, 0.8):
            vals = [goscore.joint_df(params, UNIFORM01, PAIR21, x, y) for y in xs]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_rectangle_inequality(self):
        params = GosParams(m=-0.5, k=2.0, n=5)
        rng = np.random.default_rng(33)
        for _ in range(60):
            x1, x2 = sorted(rng.uniform(0.02, 0.98, 2))
            y1, y2 = sorted(rng.uniform(0.02, 0.98, 2))
            mass = (
                goscore.joint_df(params, UNIFORM01, PAIR21, x2, y2)
                - goscore.joint_df(params, UNIFORM01, PAIR21, x1, y2)
                - goscore.joint_df(params, UNIFORM01, PAIR21, x2, y1)
                + goscore.joint_df(params, UNIFORM01, PAIR21, x1, y1)
            )
            assert mass >= -1e-9


class TestJointDirect:
    def test_total_mass(self):
        params = GosParams(m=0.0, k=1.0, n=4)
        assert reference.joint_df_direct(params, UNIFORM01, 1, 2, 1.0, 1.0) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_rank_validation(self):
        params = GosParams(m=0.0, k=1.0, n=4)
        for r, s in ((2, 2), (3, 1), (0, 2), (1, 5)):
            with pytest.raises(ValueError):
                reference.joint_df_direct(params, UNIFORM01, r, s, 0.3, 0.5)

    def test_x_above_y_collapses(self):
        params = GosParams(m=0.5, k=1.0, n=5)
        got = reference.joint_df_direct(params, UNIFORM01, 2, 4, 0.8, 0.5)
        want = goscore.marginal_lower_df(params, UNIFORM01, 4, 0.5)
        assert got == pytest.approx(want, abs=1e-8)

    def test_multinomial_oracle_m0k1(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            r = int(rng.integers(1, n))
            s = int(rng.integers(r + 1, n + 1))
            fx = float(rng.uniform(0.1, 0.8))
            fy = float(rng.uniform(fx, 0.95))
            params = GosParams(m=0.0, k=1.0, n=n)
            want = multinomial_joint(n, r, s, fx, fy)
            got = reference.joint_df_direct(params, UNIFORM01, r, s, fx, fy)
            assert got == pytest.approx(want, abs=1e-9)

    def test_diagonal_matches_deeper_marginal_constraint(self):
        # On x = y the event is {s-th smallest <= y}, the s-th marginal.
        params = GosParams(m=1.0, k=2.0, n=5)
        got = reference.joint_df_direct(params, UNIFORM01, 2, 3, 0.6, 0.6)
        want = goscore.marginal_lower_df(params, UNIFORM01, 3, 0.6)
        assert got == pytest.approx(want, abs=1e-8)


class TestRepresentationAgreement:
    @pytest.mark.parametrize("m,k", [(0.0, 1.0), (1.0, 1.0), (-0.5, 1.0),
                                     (0.0, 2.0), (1.0, 2.0), (-0.5, 2.0)])
    def test_single_vs_double_integral(self, m, k):
        """Both Dirichlet sums agree with the double integral, the upper
        one after the top/bottom index translation."""
        worst = 0.0
        for n in (4, 5, 6):
            params = GosParams(m=m, k=k, n=n)
            ll_pair = RankPair(r=n - 1, s=n, regime=Regime.LOWER_LOWER)
            for x, y in itertools.product((0.2, 0.45, 0.7, 0.9), (0.3, 0.55, 0.8, 0.95)):
                upper = goscore.joint_df(params, UNIFORM01, PAIR21, x, y)
                lower = goscore.joint_df(params, UNIFORM01, ll_pair, x, y)
                direct = reference.joint_df_direct(params, UNIFORM01, n - 1, n, x, y)
                worst = max(worst, abs(upper - direct), abs(lower - direct))
        assert worst <= 1e-10

    def test_deeper_ranks(self):
        pair = RankPair(r=3, s=2, regime=Regime.UPPER_UPPER)
        for n in (5, 6):
            params = GosParams(m=-0.5, k=2.0, n=n)
            for x, y in itertools.product((0.3, 0.6), (0.5, 0.85)):
                upper = goscore.joint_df(params, UNIFORM01, pair, x, y)
                direct = reference.joint_df_direct(params, UNIFORM01, n - 2, n - 1, x, y)
                assert upper == pytest.approx(direct, abs=1e-7)

    def test_multinomial_three_way(self):
        params = GosParams(m=0.0, k=1.0, n=5)
        for x, y in itertools.product((0.2, 0.5, 0.8), (0.4, 0.7, 0.9)):
            if x > y:
                continue
            want = multinomial_joint(5, 4, 5, x, y)
            assert goscore.joint_df(params, UNIFORM01, PAIR21, x, y) == pytest.approx(
                want, abs=1e-9
            )
            assert reference.joint_df_direct(params, UNIFORM01, 4, 5, x, y) == pytest.approx(
                want, abs=1e-9
            )
            assert goscore.joint_df(params, UNIFORM01, PAIR45, x, y) == pytest.approx(
                want, abs=1e-12
            )


# m = 0.41..., k = 2.66..., n = 500, bottom ranks (2, 5): both lower
# marginals are 1.0 in double precision, so the Frechet lower bound makes
# the joint 1; the double integral misses its tolerance there.
SATURATED_POINT = (0.41345085073880516, 2.6595056568013526, 500, 2, 5,
                   -1.8716662801394444, 1.0377663163569757)


class TestDirichletSums:
    """The finite sums behind `joint_df`."""

    @pytest.mark.parametrize("n", [5, 12, 50])
    def test_against_double_integral(self, n):
        model = parse_model("logistic")
        rng = np.random.default_rng(40 + n)
        for _ in range(8):
            params = GosParams(m=float(rng.uniform(-0.6, 1.5)), k=float(rng.uniform(0.5, 3.0)),
                               n=n)
            r = int(rng.integers(1, min(n, 5)))
            s = r + int(rng.integers(1, min(n - r, 4) + 1))
            x, y = (float(v) for v in rng.uniform(-3.0, 4.0, 2))
            direct = reference.joint_df_direct(params, model, r, s, x, y)
            ll_pair = RankPair(r=r, s=s, regime=Regime.LOWER_LOWER)
            assert goscore.joint_df(params, model, ll_pair, x, y) == pytest.approx(
                direct, abs=1e-10)
            # the same event in top ranks: bottom r is top n - r + 1, the deeper one
            pair = RankPair(r=n - r + 1, s=n - s + 1, regime=Regime.UPPER_UPPER)
            assert goscore.joint_df(params, model, pair, x, y) == pytest.approx(
                direct, abs=1e-10)

    def test_multinomial_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(3, 10))
            r = int(rng.integers(1, n))
            s = int(rng.integers(r + 1, n + 1))
            fx, fy = sorted(float(v) for v in rng.uniform(0.02, 0.98, 2))
            want = multinomial_joint(n, r, s, fx, fy)
            params = GosParams(m=0.0, k=1.0, n=n)
            got = goscore.joint_df(params, UNIFORM01, RankPair(r, s, Regime.LOWER_LOWER), fx, fy)
            assert got == pytest.approx(want, abs=1e-12)
            pair = RankPair(r=n - r + 1, s=n - s + 1, regime=Regime.UPPER_UPPER)
            got = goscore.joint_df(params, UNIFORM01, pair, fx, fy)
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [50, 500, 2000])
    def test_frechet_hoeffding_bounds(self, n):
        # max(0, F_r + F_s - 1) <= F <= min(F_r, F_s), up to roundoff
        model = parse_model("logistic")
        rng = np.random.default_rng(n)
        for _ in range(40):
            params = GosParams(m=float(rng.uniform(-0.6, 1.5)), k=float(rng.uniform(0.5, 3.0)),
                               n=n)
            r = int(rng.integers(1, 6))
            s = r + int(rng.integers(1, 6))
            dx, dy = (float(v) for v in rng.uniform(-4.0, 4.0, 2))
            # the lower and upper tail scales, where N L_m and N Lbar_m are 1
            low = -math.log((params.m + 1.0) * params.big_n)
            x, y = low + dx, low + dy
            fr = goscore.marginal_lower_df(params, model, r, x)
            fs = goscore.marginal_lower_df(params, model, s, y)
            got = goscore.joint_df(params, model, RankPair(r, s, Regime.LOWER_LOWER), x, y)
            assert max(0.0, fr + fs - 1.0) - 1e-13 <= got <= min(fr, fs) + 1e-13
            up = math.log(params.big_n) / (params.m + 1.0)
            x, y = up - dx, up - dy
            pair = RankPair(r=s, s=r, regime=Regime.UPPER_UPPER)
            fr = goscore.marginal_upper_df(params, model, s, x)
            fs = goscore.marginal_upper_df(params, model, r, y)
            got = goscore.joint_df(params, model, pair, x, y)
            assert max(0.0, fr + fs - 1.0) - 1e-13 <= got <= min(fr, fs) + 1e-13

    def test_saturated_marginals_give_one(self):
        m, k, n, r, s, x, y = SATURATED_POINT
        params = GosParams(m=m, k=k, n=n)
        model = parse_model("logistic")
        assert goscore.marginal_lower_df(params, model, r, x) == 1.0
        assert goscore.marginal_lower_df(params, model, s, y) == 1.0
        got = goscore.joint_df(params, model, RankPair(r, s, Regime.LOWER_LOWER), x, y)
        assert got == pytest.approx(1.0, abs=1e-13)


class TestLargeSampleSandwich:
    def test_gamma_surrogate_gap_shrinks(self):
        """The gamma surrogate brackets the exact upper marginal with a
        gap that vanishes as n grows."""
        model = parse_model("exponential(sigma=1)")
        for r in (1, 2):
            gaps = []
            for n in (10**2, 10**3, 10**4):
                params = GosParams(m=0.5, k=1.0, n=n)
                consts = norming_constants(model, params)
                gap = max(
                    abs(
                        goscore.marginal_upper_df(params, model, r, consts.a * x + consts.b)
                        - upper_gamma_approximation(
                            params, model, r, consts.a * x + consts.b
                        )
                    )
                    for x in (-1.0, 0.0, 1.0, 2.5)
                )
                gaps.append(gap)
            assert gaps[0] >= gaps[1] >= gaps[2]
            assert gaps[2] <= 1e-3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.floats(-0.6, 1.5), k=st.floats(0.5, 3.0), x=st.floats(-3.0, 4.0),
       y=st.floats(-3.0, 4.0), dx=st.floats(0.0, 3.0), dy=st.floats(0.0, 3.0))
def test_joint_upper_df_is_bivariate_df(m, k, x, y, dx, dy):
    # values in [0, 1], nondecreasing in each coordinate, and nonnegative
    # rectangle mass, to roundoff of the finite sum behind each value
    params = GosParams(m=m, k=k, n=20)
    model = parse_model("logistic")
    pair = RankPair(r=3, s=1, regime=Regime.UPPER_UPPER)

    def F(a, b):
        return goscore.joint_df(params, model, pair, a, b)

    lo, hi_x, hi_y, hi = F(x, y), F(x + dx, y), F(x, y + dy), F(x + dx, y + dy)
    tol = 1e-12
    for v in (lo, hi_x, hi_y, hi):
        assert 0.0 <= v <= 1.0
    assert hi_x >= lo - tol and hi_y >= lo - tol
    assert hi - hi_x - hi_y + lo >= -tol


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.floats(-0.6, 1.5), k=st.floats(0.5, 3.0), x=st.floats(-4.0, 3.0),
       y=st.floats(-4.0, 3.0), dx=st.floats(0.0, 3.0), dy=st.floats(0.0, 3.0))
def test_joint_lower_df_is_bivariate_df(m, k, x, y, dx, dy):
    params = GosParams(m=m, k=k, n=20)
    model = parse_model("logistic")

    def F(a, b):
        return goscore.joint_df(params, model, RankPair(1, 3, Regime.LOWER_LOWER), a, b)

    lo, hi_x, hi_y, hi = F(x, y), F(x + dx, y), F(x, y + dy), F(x + dx, y + dy)
    tol = 1e-12
    for v in (lo, hi_x, hi_y, hi):
        assert 0.0 <= v <= 1.0
    assert hi_x >= lo - tol and hi_y >= lo - tol
    assert hi - hi_x - hi_y + lo >= -tol
