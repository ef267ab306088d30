"""Kernel tests: closed-form oracles first, then randomized identities."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sc

from gosextreme.limitlaws import TailTransform, kappa
from gosextreme.params import ExtremeSide
from gosextreme.randomindex import IndexLaw, index_kernel
from gosextreme.specfun import (
    log_gamma,
    reg_inc_beta,
    reg_inc_gamma,
    reg_inc_gamma_upper,
)


def poisson_sum_gamma(k: int, x: float) -> float:
    """Gamma_k(x) = 1 - e^-x sum_{j<k} x^j/j! for integer k (independent oracle)."""
    tail = math.fsum(x**j / math.factorial(j) for j in range(k))
    return 1.0 - math.exp(-x) * tail


def binomial_sum_beta(x: float, a: int, b: int) -> float:
    """I_x(a,b) = sum_{j=a}^{a+b-1} C(a+b-1, j) x^j (1-x)^(a+b-1-j) for integers."""
    n = a + b - 1
    return math.fsum(
        math.comb(n, j) * x**j * (1.0 - x) ** (n - j) for j in range(a, n + 1)
    )


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14, abs=0.0)

    def test_gamma_five(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)

    def test_relative_error_across_scales(self):
        # factorial anchors cover 1e-3..1e6 via the recurrence ln G(a+1) = ln a + ln G(a)
        for a in (1e-3, 0.1, 1.7, 12.0, 400.0, 1e6):
            lhs = log_gamma(a + 1.0)
            rhs = math.log(a) + log_gamma(a)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestRegIncGamma:
    def test_zero(self):
        assert reg_inc_gamma(3.0, 0.0) == 0.0

    def test_shape_one(self):
        assert reg_inc_gamma(1.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_shape_two_at_one(self):
        oracle = poisson_sum_gamma(2, 1.0)
        assert oracle == pytest.approx(1.0 - 2.0 / math.e, abs=1e-15)
        assert reg_inc_gamma(2.0, 1.0) == pytest.approx(oracle, abs=1e-12)

    def test_infinite_argument(self):
        assert reg_inc_gamma(4.2, math.inf) == 1.0
        assert reg_inc_gamma_upper(4.2, math.inf) == 0.0

    @pytest.mark.parametrize("r,x", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.1)])
    def test_domain(self, r, x):
        with pytest.raises(ValueError):
            reg_inc_gamma(r, x)

    def test_integer_shape_agreement(self):
        rng = np.random.default_rng(42)
        for _ in range(2500):
            k = int(rng.integers(1, 20))
            x = float(rng.uniform(0.0, 50.0))
            assert abs(reg_inc_gamma(float(k), x) - poisson_sum_gamma(k, x)) <= 1e-12

    def test_monotone_in_x(self):
        for r in (0.3, 1.0, 2.5, 17.0):
            values = [reg_inc_gamma(r, x) for x in np.linspace(0.0, 4.0 * r + 20.0, 200)]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_saturation(self):
        for r in (0.3, 1.0, 3.0, 10.0, 60.0, 300.0):
            assert reg_inc_gamma(r, r + 40.0 * math.sqrt(r)) > 1.0 - 1e-10

    def test_upper_complement(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            r = float(rng.uniform(0.05, 40.0))
            x = float(rng.uniform(0.0, 80.0))
            assert reg_inc_gamma(r, x) + reg_inc_gamma_upper(r, x) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            r = float(rng.uniform(0.02, 200.0))
            x = float(rng.uniform(0.0, 250.0))
            assert abs(reg_inc_gamma(r, x) - float(sc.gammainc(r, x))) <= 2e-13


class TestRegIncBeta:
    def test_uniform_case(self):
        for x in (0.0, 0.2, 0.5, 0.77, 1.0):
            assert reg_inc_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-14)

    def test_symmetry_midpoint(self):
        for a in (0.4, 1.0, 3.5, 11.0):
            assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-13)

    def test_polynomial_oracle(self):
        # I_{0.3}(2,3) by exact polynomial integration of 12 t(1-t)^2
        x = 0.3
        oracle = 12.0 * (x**2 / 2.0 - 2.0 * x**3 / 3.0 + x**4 / 4.0)
        assert oracle == pytest.approx(0.3483, abs=1e-12)
        assert reg_inc_beta(0.3, 2.0, 3.0) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("x", [-0.1, 1.1, math.nan])
    def test_domain_x(self, x):
        with pytest.raises(ValueError):
            reg_inc_beta(x, 1.0, 1.0)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, -1.0)])
    def test_domain_shapes(self, a, b):
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, a, b)

    def test_complement_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(2500):
            a = float(rng.uniform(0.05, 50.0))
            b = float(rng.uniform(0.05, 50.0))
            x = float(rng.uniform(0.0, 1.0))
            total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
            assert abs(total - 1.0) <= 1e-12

    def test_integer_binomial_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(1500):
            a = int(rng.integers(1, 9))
            b = int(rng.integers(1, 9))
            x = float(rng.uniform(0.0, 1.0))
            assert abs(reg_inc_beta(x, a, b) - binomial_sum_beta(x, a, b)) <= 1e-12

    def test_monotone_in_x(self):
        for a, b in ((0.5, 2.0), (2.0, 0.5), (4.0, 7.0)):
            values = [reg_inc_beta(x, a, b) for x in np.linspace(0.0, 1.0, 300)]
            assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_against_scipy(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            a = float(rng.uniform(0.05, 120.0))
            b = float(rng.uniform(0.05, 120.0))
            x = float(rng.uniform(0.0, 1.0))
            assert abs(reg_inc_beta(x, a, b) - float(sc.betainc(a, b, x))) <= 2e-13


class TestExtremeParameters:
    """Deep-sample regimes: small first shape against a huge second one
    (marginals at n ~ 1e7) and shapes in the thousands."""

    def test_beta_asymmetric_large_b(self):
        # limiting form: I_x(a, b) -> Gamma_a(b x) as b -> inf with b x fixed
        for a, bx in ((2.0, 1.0), (3.5, 2.0), (1.0, 0.25)):
            b = 1e7
            got = reg_inc_beta(bx / b, a, b)
            want = poisson_sum_gamma(int(a), bx) if a == int(a) else None
            if want is not None:
                assert got == pytest.approx(want, abs=5e-7)  # O(1/b) model gap
            assert abs(got - float(sc.betainc(a, b, bx / b))) <= 1e-11

    @pytest.mark.parametrize("x,a,b", [
        (1.5915494309189534e-301, 5.0, 2e300),
        (3.2e-155, 5.0, 1e155), (1.7e-200, 2.5, 1e200), (3.2e-300, 5.0, 1e300),
    ])
    def test_beta_at_a_second_shape_scipy_cannot_take(self, x, a, b):
        # scipy's betainc is NaN here; I_x(a, b) is Gamma_a(b x) within O(a/b)
        assert np.isnan(sc.betainc(a, b, x))
        with mpmath.workdps(40):
            want = mpmath.gammainc(a, 0, mpmath.mpf(b) * mpmath.mpf(x), regularized=True)
        assert abs(reg_inc_beta(x, a, b) / float(want) - 1.0) <= 1e-14
        assert np.array_equal(reg_inc_beta(np.array([x, 0.5]), a, b),
                              [reg_inc_beta(x, a, b), 1.0])

    def test_other_nan_stays_nan(self):
        # a NaN of scipy's at a second shape below 1e150 is no gamma limit
        assert np.isnan(reg_inc_beta(1e-84, 1e16, 1e100))

    def test_beta_large_symmetric(self):
        assert reg_inc_beta(0.5, 5000.0, 5000.0) == pytest.approx(0.5, abs=1e-12)

    def test_gamma_shape_thousands_no_stall(self):
        for r, x in ((5e3, 5e3), (2e3, 2.1e3), (5e4, 49800.0)):
            got = reg_inc_gamma(r, x)
            assert 0.0 <= got <= 1.0
            assert abs(got - float(sc.gammainc(r, x))) <= 1e-10


class TestMpmathOracle:
    """Independent 40-digit reference: the kernels wrap scipy, so the
    scipy-agreement tests above only pin the wrapping."""

    @staticmethod
    def gamma_ref(r: float, x: float) -> float:
        with mpmath.workdps(40):
            return float(mpmath.gammainc(r, 0, x, regularized=True))

    @staticmethod
    def gamma_upper_ref(r: float, x: float) -> float:
        with mpmath.workdps(40):
            return float(mpmath.gammainc(r, x, mpmath.inf, regularized=True))

    @staticmethod
    def beta_ref(x: float, a: float, b: float) -> float:
        with mpmath.workdps(40):
            return float(mpmath.betainc(a, b, 0, x, regularized=True))

    def test_gamma_random_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            r = float(rng.uniform(0.02, 200.0))
            x = float(rng.uniform(0.0, 250.0))
            assert abs(reg_inc_gamma(r, x) - self.gamma_ref(r, x)) <= 2e-13
            assert abs(reg_inc_gamma_upper(r, x) - self.gamma_upper_ref(r, x)) <= 2e-13

    def test_beta_random_draws(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            a = float(rng.uniform(0.05, 120.0))
            b = float(rng.uniform(0.05, 120.0))
            x = float(rng.uniform(0.0, 1.0))
            assert abs(reg_inc_beta(x, a, b) - self.beta_ref(x, a, b)) <= 2e-13

    def test_shapes_in_the_thousands(self):
        for r, x in ((5e3, 5e3), (2e3, 2.1e3), (5e4, 49800.0), (2000.0, 1950.0)):
            assert abs(reg_inc_gamma(r, x) - self.gamma_ref(r, x)) <= 1e-10
            assert abs(reg_inc_gamma_upper(r, x) - self.gamma_upper_ref(r, x)) <= 1e-10
        # mpmath's hypergeometric series gives up at a = b = 4000 and beyond
        for a, b, x in ((1000.0, 1000.0, 0.49), (2000.0, 3000.0, 0.41), (1500.0, 40.0, 0.975),
                        (2.0, 1e7, 1e-7)):
            assert abs(reg_inc_beta(x, a, b) - self.beta_ref(x, a, b)) <= 1e-10


@pytest.mark.parametrize("call,first", [
    (lambda x: reg_inc_gamma(1.5, x), "x=-2.5"),
    (lambda x: reg_inc_gamma_upper(1.5, x), "x=-2.5"),
    (lambda x: reg_inc_beta(x, 2.0, 3.0), "x=-2.5"),
    (lambda x: kappa(TailTransform(ExtremeSide.UPPER, "gumbel"), np.where(x < 0.0, np.nan, x)),
     "x=nan"),
    (lambda x: index_kernel(IndexLaw.unit_exponential(), 1.0, x, 1.0, 0.3), "w=-2.5"),
], ids=["reg_inc_gamma", "reg_inc_gamma_upper", "reg_inc_beta", "tail-transform",
        "index_kernel"])
def test_domain_errors_name_the_first_bad_element_only(call, first):
    x = np.full(10_000, 0.5)
    x[[1234, 5678]] = (-2.5, -7.0)
    with pytest.raises(ValueError) as raised:
        call(x)
    message = str(raised.value)
    assert first in message and "2 of 10000" in message
    assert len(message) < 160, message
