import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gosextreme import goscore
from gosextreme.distributions import norming_constants, parse_model
from gosextreme.limitlaws import TailTransform, kappa, rho, rho_inverse
from gosextreme.params import ExtremeSide, GosParams, RankPair, Regime
from gosextreme.reference import (
    lower_marginal_limit,
    omega_ll,
    omega_lu_product,
    omega_uu,
    upper_marginal_limit,
)
from gosextreme.specfun import reg_inc_gamma

UP_GUMBEL = TailTransform(side=ExtremeSide.UPPER, kind="gumbel")
UP_FRECHET1 = TailTransform(side=ExtremeSide.UPPER, kind="frechet", alpha=1.0)
UP_WEIBULL2 = TailTransform(side=ExtremeSide.UPPER, kind="weibull", alpha=2.0)
LOW_GUMBEL = TailTransform(side=ExtremeSide.LOWER, kind="gumbel")
LOW_FRECHET2 = TailTransform(side=ExtremeSide.LOWER, kind="frechet", alpha=2.0)
LOW_WEIBULL1 = TailTransform(side=ExtremeSide.LOWER, kind="weibull", alpha=1.0)


class TestTransforms:
    def test_kappa_gumbel(self):
        assert kappa(UP_GUMBEL, 0.0) == 1.0

    def test_kappa_frechet(self):
        assert kappa(UP_FRECHET1, 2.0) == pytest.approx(0.5)
        assert kappa(UP_FRECHET1, 0.0) == math.inf
        assert kappa(UP_FRECHET1, -1.0) == math.inf

    def test_kappa_weibull(self):
        assert kappa(UP_WEIBULL2, -3.0) == pytest.approx(9.0)
        assert kappa(UP_WEIBULL2, 0.5) == 0.0

    def test_rho_gumbel(self):
        assert rho(LOW_GUMBEL, 0.0) == 1.0

    def test_rho_weibull(self):
        assert rho(LOW_WEIBULL1, 0.25) == pytest.approx(0.25)
        assert rho(LOW_WEIBULL1, -0.5) == 0.0

    def test_rho_frechet(self):
        assert rho(LOW_FRECHET2, -2.0) == pytest.approx(0.25)
        assert rho(LOW_FRECHET2, 0.5) == math.inf

    @pytest.mark.parametrize("kind", ["frechet", "weibull", "gumbel"])
    def test_rho_inverse_round_trip(self, kind):
        s = np.array([-700.0, -123.4, -1.0, 0.0, 0.3, 45.6, 700.0])
        for alpha in ((None,) if kind == "gumbel" else (1.0, 2.0, 4.0)):
            lower = TailTransform(side=ExtremeSide.LOWER, kind=kind, alpha=alpha)
            x = rho_inverse(lower, s)
            assert np.all(np.diff(x) > 0.0)
            np.testing.assert_allclose(rho(lower, x), np.exp(s), rtol=1e-15, atol=0.0)
            assert rho(lower, rho_inverse(lower, 0.3)) == pytest.approx(math.exp(0.3), rel=1e-15)
        with pytest.raises(ValueError):
            rho_inverse(UP_GUMBEL, s)

    def test_kappa_monotone_rho_monotone(self):
        xs = np.linspace(-4.0, 4.0, 41)
        for tr in (UP_GUMBEL, UP_FRECHET1, UP_WEIBULL2):
            vals = [kappa(tr, x) for x in xs]
            assert all(b <= a for a, b in zip(vals, vals[1:]))
        for tr in (LOW_GUMBEL, LOW_FRECHET2, LOW_WEIBULL1):
            vals = [rho(tr, x) for x in xs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_side_mismatch(self):
        with pytest.raises(ValueError):
            kappa(LOW_GUMBEL, 0.0)
        with pytest.raises(ValueError):
            rho(UP_GUMBEL, 0.0)

    def test_overflow_saturates(self):
        # values beyond the largest float are +inf, where every df is 0 or 1
        assert kappa(UP_GUMBEL, -1000.0) == math.inf
        assert kappa(UP_FRECHET1, 1e-320) == math.inf
        assert kappa(UP_WEIBULL2, -1e200) == math.inf
        assert rho(LOW_GUMBEL, 1000.0) == math.inf
        assert rho(LOW_FRECHET2, -1e-200) == math.inf
        params = GosParams(m=1.5, k=1.0, n=10)
        assert params.kappa_power(1e130) == math.inf
        assert params.kappa_power(1e120) == 1e120**2.5
        assert omega_uu(params, 2, 1, 1e130, 1.0) == 0.0
        assert omega_lu_product(params, 1, 1, 1.0, 1e130) == 0.0
        assert upper_marginal_limit(params, 1, 1e130) == 0.0

    def test_transform_validation(self):
        with pytest.raises(ValueError):
            TailTransform(side=ExtremeSide.UPPER, kind="frechet")
        with pytest.raises(ValueError):
            TailTransform(side=ExtremeSide.UPPER, kind="gumbel", alpha=1.0)
        with pytest.raises(ValueError):
            TailTransform(side=ExtremeSide.UPPER, kind="cauchy")


class TestOmegaUU:
    def test_marginal_consistency_kappa2_zero(self):
        params = GosParams(m=0.5, k=2.0, n=10)
        for k1 in (0.3, 1.0, 2.7):
            got = omega_uu(params, 3, 1, k1, 0.0)
            want = upper_marginal_limit(params, 3, k1)
            assert got == pytest.approx(want, abs=1e-12)

    def test_diagonal_identity(self):
        for m, k in ((0.0, 1.0), (1.0, 1.0), (-0.5, 1.0), (0.0, 2.0), (1.5, 0.7)):
            params = GosParams(m=m, k=k, n=10)
            for r, s in ((2, 1), (3, 1), (4, 2)):
                for val in (0.3, 1.0, 2.5):
                    got = omega_uu(params, r, s, val, val)
                    want = upper_marginal_limit(params, s, val)
                    assert got == pytest.approx(want, abs=1e-9)

    def test_gumbel_origin_point(self):
        params = GosParams(m=0.0, k=1.0, n=10)
        got = omega_uu(params, 2, 1, kappa(UP_GUMBEL, 0.0), kappa(UP_GUMBEL, 0.0))
        assert got == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_infinite_kappa(self):
        params = GosParams(m=0.0, k=1.0, n=10)
        assert omega_uu(params, 2, 1, math.inf, 1.0) == 0.0
        assert omega_uu(params, 2, 1, math.inf, math.inf) == 0.0
        assert omega_uu(params, 2, 1, 0.0, 0.0) == 1.0

    def test_regime_error(self):
        params = GosParams(m=0.0, k=1.0, n=10)
        with pytest.raises(ValueError):
            omega_uu(params, 1, 2, 1.0, 0.5)

    def test_df_shape_after_composition(self):
        params = GosParams(m=0.3, k=1.2, n=10)
        rng = np.random.default_rng(4)
        grid = np.linspace(-2.0, 3.0, 9)
        vals = {}
        for x in grid:
            for y in grid:
                vals[(x, y)] = omega_uu(
                    params, 2, 1, kappa(UP_GUMBEL, x), kappa(UP_GUMBEL, y)
                )
        for i, x in enumerate(grid[:-1]):
            for y in grid:
                assert vals[(grid[i + 1], y)] >= vals[(x, y)] - 1e-9
                assert vals[(y, grid[i + 1])] >= vals[(y, x)] - 1e-9
        for _ in range(50):
            x1, x2 = sorted(rng.choice(grid, 2, replace=False))
            y1, y2 = sorted(rng.choice(grid, 2, replace=False))
            mass = vals[(x2, y2)] - vals[(x1, y2)] - vals[(x2, y1)] + vals[(x1, y1)]
            assert mass >= -1e-9
        corner_low = omega_uu(params, 2, 1, math.inf, math.inf)
        corner_high = omega_uu(params, 2, 1, 0.0, 0.0)
        assert corner_low == 0.0 and corner_high == 1.0


class TestOmegaLL:
    def test_diagonal_closed_form(self):
        for rho_val in (0.4, 1.3, 3.0):
            got = omega_ll(1, 2, rho_val, rho_val)
            want = 1.0 - math.exp(-rho_val) * (1.0 + rho_val)
            assert got == pytest.approx(want, abs=1e-10)

    def test_diagonal_identity_general(self):
        for r, s in ((1, 2), (1, 4), (2, 3), (3, 5)):
            for val in (0.3, 1.0, 2.5):
                assert omega_ll(r, s, val, val) == pytest.approx(
                    reg_inc_gamma(float(s), val), abs=1e-9
                )

    def test_empty_integral(self):
        assert omega_ll(1, 2, 0.0, 3.0) == 0.0

    def test_saturated_gamma_factor(self):
        for rho1 in (0.5, 1.0, 2.0):
            got = omega_ll(1, 2, rho1, math.inf)
            assert got == pytest.approx(-math.expm1(-rho1), abs=1e-10)

    def test_regime_error(self):
        with pytest.raises(ValueError):
            omega_ll(2, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            omega_ll(3, 1, 1.0, 1.0)

    def test_df_shape_after_composition(self):
        grid = np.linspace(-3.0, 2.0, 9)
        vals = {}
        for x in grid:
            for y in grid:
                vals[(x, y)] = omega_ll(1, 2, rho(LOW_GUMBEL, x), rho(LOW_GUMBEL, y))
        for i in range(len(grid) - 1):
            for y in grid:
                assert vals[(grid[i + 1], y)] >= vals[(grid[i], y)] - 1e-9
                assert vals[(y, grid[i + 1])] >= vals[(y, grid[i])] - 1e-9
        rng = np.random.default_rng(14)
        for _ in range(50):
            x1, x2 = sorted(rng.choice(grid, 2, replace=False))
            y1, y2 = sorted(rng.choice(grid, 2, replace=False))
            mass = vals[(x2, y2)] - vals[(x1, y2)] - vals[(x2, y1)] + vals[(x1, y1)]
            assert mass >= -1e-9


class TestOmegaLU:
    def test_corner_limits(self):
        params = GosParams(m=0.0, k=1.0, n=10)
        assert omega_lu_product(params, 1, 1, math.inf, 0.0) == pytest.approx(1.0)
        assert omega_lu_product(params, 1, 1, 0.0, 1.0) == 0.0

    def test_product_of_classical_limits(self):
        params = GosParams(m=0.0, k=1.0, n=10)
        got = omega_lu_product(params, 1, 1, 1.0, 1.0)
        want = -math.expm1(-1.0) * math.exp(-1.0)
        assert want == pytest.approx(0.23254415793482963, abs=1e-12)
        assert got == pytest.approx(want, abs=1e-12)

    def test_factorizes(self):
        params = GosParams(m=0.5, k=2.0, n=10)
        got = omega_lu_product(params, 2, 1, 0.8, 1.3)
        want = lower_marginal_limit(2, 0.8) * upper_marginal_limit(params, 1, 1.3)
        assert got == pytest.approx(want, abs=1e-14)


class TestLimitOfExactDfs:
    def test_uu_matches_exact_at_large_n(self):
        """Classical (2nd max, max) at m=0, k=1: the exact df at n = 1e5
        sits within 5e-3 of the limit family on a normalized grid."""
        model = parse_model("exponential(sigma=1)")
        params = GosParams(m=0.0, k=1.0, n=10**5)
        consts = norming_constants(model, params)
        pair = RankPair(r=2, s=1, regime=Regime.UPPER_UPPER)
        sup = 0.0
        for x in np.linspace(-2.0, 3.0, 6):
            for y in np.linspace(-2.0, 3.0, 6):
                exact = goscore.joint_df(
                    params, model, pair, consts.a * x + consts.b, consts.a * y + consts.b
                )
                lim = omega_uu(params, 2, 1, kappa(UP_GUMBEL, x), kappa(UP_GUMBEL, y))
                sup = max(sup, abs(exact - lim))
        assert sup <= 5e-3


# --- properties: every limit family is a bivariate df -------------------------

TOL = 1e-9
transform = st.floats(min_value=0.0, max_value=6.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.floats(-0.6, 1.5), k=st.floats(0.5, 3.0),
       a=transform, b=transform, da=transform, db=transform)
def test_omega_uu_is_bivariate_df(m, k, a, b, da, db):
    # kappa is nonincreasing in x: (a + da, b + db) is the lower-left corner
    params = GosParams(m=m, k=k, n=50)

    def F(k1, k2):
        return omega_uu(params, 3, 1, k1, k2)

    hi, lo_x, lo_y, lo = F(a, b), F(a + da, b), F(a, b + db), F(a + da, b + db)
    for v in (hi, lo_x, lo_y, lo):
        assert 0.0 <= v <= 1.0
    assert hi >= lo_x - TOL and hi >= lo_y - TOL
    assert hi - lo_x - lo_y + lo >= -TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=transform, b=transform, da=transform, db=transform)
def test_omega_ll_is_bivariate_df(a, b, da, db):
    def F(r1, r2):
        return omega_ll(1, 3, r1, r2)

    lo, hi_x, hi_y, hi = F(a, b), F(a + da, b), F(a, b + db), F(a + da, b + db)
    for v in (lo, hi_x, hi_y, hi):
        assert 0.0 <= v <= 1.0
    assert hi_x >= lo - TOL and hi_y >= lo - TOL
    assert hi - hi_x - hi_y + lo >= -TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.floats(-0.6, 1.5), k=st.floats(0.5, 3.0),
       rho1=transform, kap=transform, drho=transform, dkap=transform)
def test_omega_lu_is_bivariate_df(m, k, rho1, kap, drho, dkap):
    # rho grows with x, kappa falls with y: (rho1 + drho, kap) is the upper corner
    params = GosParams(m=m, k=k, n=50)

    def F(r1, k2):
        return omega_lu_product(params, 2, 1, r1, k2)

    lo, hi_x, hi_y, hi = F(rho1, kap + dkap), F(rho1 + drho, kap + dkap), F(rho1, kap), \
        F(rho1 + drho, kap)
    for v in (lo, hi_x, hi_y, hi):
        assert 0.0 <= v <= 1.0
    assert hi_x >= lo - TOL and hi_y >= lo - TOL
    assert hi - hi_x - hi_y + lo >= -TOL
