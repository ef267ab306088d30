"""The closed-form index-law kernel and the mixtures built on it, against
independent oracles: direct quadrature over z of the fixed-size limit
(itself a quadrature, so the oracle is the nested integral the kernel
removes), written here with scipy alone, and mpmath where a value is
known in closed form.  Plus property tests of the mixture dfs."""

import math
import tracemalloc
import warnings
import zlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci_integrate
from scipy import special

from gosextreme import randomindex
from gosextreme.distributions import parse_model
from gosextreme.params import ExtremeSide, GosParams, RankPair, Regime
from gosextreme.randomindex import (
    IndexLaw,
    clip_probability,
    index_kernel,
    mixture_df,
    mixture_marginal,
)
from gosextreme.ranges import RangeQuery, eta_limit, midrange_limit_df, range_limit_df
from gosextreme.reference import (
    lower_marginal_limit,
    omega_ll,
    omega_lu_product,
    omega_uu,
    upper_marginal_limit,
)
from gosextreme.specfun import reg_inc_gamma, reg_inc_gamma_upper

EXP = IndexLaw.unit_exponential()
TABLE = IndexLaw.tabulated([(0.3, 0.0), (0.9, 0.2), (1.3, 0.6), (3.1, 1.0)])
TABLE_AT_ZERO = IndexLaw.tabulated([(0.0, 0.0), (0.7, 0.3), (2.0, 1.0)])
LAWS = {
    "degenerate": IndexLaw.degenerate(1.7),
    "exponential": EXP,
    "table": TABLE,
    "table-at-zero": TABLE_AT_ZERO,
}
# Point masses far from 1 put the kernel at extreme w and c.
DEGENERATE = [IndexLaw.degenerate(c) for c in (1e-3, 1.0, 1e3)]
TOL = 1e-9
# The upper-upper mixture is a finite sum of kernels, held to its oracle more tightly.
SUM_TOL = 1e-10
LL_PARAMS = GosParams(m=0.0, k=1.0, n=50)  # the lower-lower mixture reads no m or k


def _quad(f, lo, hi, eps):
    with warnings.catch_warnings():
        # the oracle asks for more than double precision can always give
        warnings.simplefilter("ignore", sci_integrate.IntegrationWarning)
        value, _ = sci_integrate.quad(f, lo, hi, epsabs=eps, epsrel=1e-13, limit=500)
    return value


def mix_over_z(g, law, eps=1e-11):
    """int g(z) dH(z) by quadrature over z (the point mass is evaluated)."""
    if law.kind == "degenerate":
        return g(law.c)
    if law.kind == "unit_exponential":
        return _quad(lambda z: g(z) * math.exp(-z), 0.0, math.inf, eps)
    total = 0.0
    for (z0, h0), (z1, h1) in zip(law.grid, law.grid[1:]):
        if h1 > h0:
            total += (h1 - h0) / (z1 - z0) * _quad(g, z0, z1, eps)
    return total


def upper_q(shape, x):
    return 0.0 if math.isinf(x) else float(special.gammaincc(shape, x))


# --- fixed-size limit slices, written independently of limitlaws ---------


def uu_slice(rr, rs, k1, k2):
    if k1 <= k2:
        return upper_q(rs, k2)
    head = upper_q(rr, k1)
    if k2 == 0.0:
        return head

    def integrand(u):
        return special.betainc(rs, rr - rs, min(k2 / u, 1.0)) * math.exp(
            (rr - 1.0) * math.log(u) - u - math.lgamma(rr))

    # split at the mode R_r of the gamma density, which a high rank puts far out
    mode = max(k1, rr)
    return head - _quad(integrand, k1, mode, 1e-13) - _quad(integrand, mode, math.inf, 1e-13)


def ll_slice(r, s, rho1, rho2):
    if rho1 >= rho2:
        return float(special.gammainc(s, rho2))

    def integrand(u):
        return special.gammainc(s - r, rho2 - u) * math.exp(
            (r - 1.0) * math.log(u) - u - math.lgamma(r)) if u > 0.0 else float(r == 1)

    return _quad(integrand, 0.0, rho1, 1e-13)


def random_params(rng):
    return GosParams(m=float(rng.uniform(-0.6, 1.5)), k=float(rng.uniform(0.5, 3.0)), n=50)


class TestKernel:
    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_matches_quadrature_over_z(self, name):
        law = LAWS[name]
        rng = np.random.default_rng(11)
        for _ in range(60):
            j = int(rng.integers(0, 4))
            w = float(10 ** rng.uniform(-6.0, 1.5))
            c = float(10 ** rng.uniform(-6.0, 1.5)) if rng.random() < 0.8 else 0.0
            shape = float(rng.uniform(0.2, 5.0))

            def g(z):
                x = z * w
                weight = math.exp(j * math.log(x) - x - math.lgamma(j + 1.0)) if x > 0.0 \
                    else float(j == 0)
                return weight * upper_q(shape, z * c)

            want = mix_over_z(g, law, eps=1e-15)
            got = index_kernel(law, j, w, shape, c)
            # the ranges divide the j = 1 kernel by w, so check that scale too
            assert abs(got - want) <= 1e-12 * max(1.0, 1.0 / w if j == 1 else 1.0)

    def test_real_exponent_without_q(self):
        for law in (EXP, TABLE, TABLE_AT_ZERO):
            for a in (0.4, 1.7, 3.25):
                for w in (0.0, 1e-4, 0.8, 30.0):
                    want = mix_over_z(
                        lambda z: (z * w) ** a * math.exp(-z * w) / math.gamma(a + 1.0),
                        law, eps=1e-15)
                    assert index_kernel(law, a, w) == pytest.approx(want, abs=1e-13)

    def test_limits_and_validation(self):
        for law in LAWS.values():
            assert index_kernel(law, 0, 0.0) == pytest.approx(1.0, abs=1e-15)
            assert index_kernel(law, 2, math.inf, 1.5, 0.3) == 0.0
            assert index_kernel(law, 1, 0.7, 1.5, math.inf) == 0.0
            with pytest.raises(ValueError):
                index_kernel(law, 1, -0.1)
            with pytest.raises(ValueError):
                index_kernel(law, 1, 0.5, 1.0, math.nan)
        with pytest.raises(ValueError, match="integer"):
            index_kernel(TABLE, 1.5, 0.5, 1.0, 0.2)

    def test_subnormal_w(self):
        # z w underflows below the normal floats: the ratio differences
        # would lose every digit there
        for law in (EXP, TABLE, TABLE_AT_ZERO):
            mean = mix_over_z(lambda z: z, law, eps=1e-15)
            for w in (5e-324, 1e-310, 1e-300, 1e-200):
                assert index_kernel(law, 0, w) == pytest.approx(1.0, abs=1e-13)
            for w in (1e-300, 1e-200):  # N(1, w) ~ w E[z] must itself be a normal float
                assert index_kernel(law, 1, w) / w == pytest.approx(mean, rel=1e-12, abs=0.0)
            params = GosParams(m=0.0, k=1.0, n=50)
            got = mixture_df(params, RankPair(2, 1, Regime.LOWER_UPPER), law, 5e-324, 0.0)
            assert got == pytest.approx(0.0, abs=1e-13)


def _exponential_shape_one_oracle(j, w, c):
    """N_H(j, w, 1, c) under the unit-exponential law in 40 digits:
    int (zw)^j e^(-zw) / Gamma(j+1) e^(-zc) e^(-z) dz = w^j / (1+w+c)^(j+1)."""
    mpmath.mp.dps = 40
    w, c = mpmath.mpf(w), mpmath.mpf(c)
    return w**j / (1 + w + c) ** (j + 1)


def _exponential_beta_ratio_reference(j, w, shape, c):
    """The unit-exponential kernel as every shape took it before shape 1
    had its closed form: front times a beta ratio I_x(j+1, R),
    x = (1+w)/(1+w+c), near x = 1 through its complement."""
    front = (w / (1.0 + w)) ** j / (1.0 + w)
    if not c.any():
        return front
    near = c < 1.0 + w
    ratio = randomindex.reg_inc_beta(
        np.where(near, c, 1.0 + w) / (1.0 + w + c),
        np.where(near, shape, j + 1.0),
        np.where(near, j + 1.0, shape),
    )
    return front * np.where(near, 1.0 - ratio, ratio)


class TestExponentialClosedForm:
    """At shape 1, Q(1, zc) = e^-zc merges with the law's own exponential and
    the kernel is w^j / (1+w+c)^(j+1); every other shape keeps its beta ratio."""

    @pytest.mark.parametrize("j", [0, 1, 2.5, 40, 199])
    def test_against_mpmath(self, j):
        ws = [0.0, 5e-324, *np.logspace(-12.0, 6.0, 19)]
        cs = [0.0, 1e300, *np.logspace(-12.0, 6.0, 19)]
        worst = 0.0
        for w in ws:
            for c in cs:
                want = _exponential_shape_one_oracle(j, w, c)
                got = index_kernel(EXP, j, w, 1.0, c)
                if want >= 1e-300:
                    worst = max(worst, float(abs(got - want) / want))
                else:  # below the normal floats only the scale holds
                    assert abs(got - want) <= 1e-300, (w, c)
        assert worst <= 1e-13

    def test_seeded_inputs(self):
        rng = np.random.default_rng(2000)
        j = rng.choice([0.0, 1.0, 2.5, 40.0, 199.0], 400)
        w = 10.0 ** rng.uniform(-12.0, 6.0, 400)
        c = 10.0 ** rng.uniform(-12.0, 6.0, 400)
        for jj, ww, cc in zip(j, w, c):
            want = _exponential_shape_one_oracle(jj, ww, cc)
            if want >= 1e-300:
                got = index_kernel(EXP, jj, ww, 1.0, cc)
                assert abs(got - want) <= 1e-13 * want, (jj, ww, cc)

    @pytest.mark.parametrize("j, w, c", [
        (199, 150995.7603712351, 49999.37903854317),
        (199, 10.5834758811038, 7.310285632158934),
    ])
    def test_beta_ratio_underflow_reproducers(self, j, w, c):
        # the beta-ratio route read 0.0 at both (true values ~9.5e-31, ~4.3e-52)
        want = _exponential_shape_one_oracle(j, w, c)
        got = index_kernel(EXP, j, w, 1.0, c)
        assert abs(got - want) <= 1e-13 * want

    def test_exact_edges(self):
        assert index_kernel(EXP, 0, 0.0, 1.0, 0.0) == 1.0
        for j in (1, 2.5, 40, 199):
            for c in (0.0, 0.7, 1e300):
                assert index_kernel(EXP, j, 0.0, 1.0, c) == 0.0
        # c = 0 drops the Q factor: the Q-free kernel bit for bit
        w = 10.0 ** np.random.default_rng(2001).uniform(-12.0, 6.0, 200)
        for j in (0, 1, 2.5, 40, 199):
            assert np.array_equal(index_kernel(EXP, j, w, 1.0, 0.0), index_kernel(EXP, j, w))

    def test_closed_form_is_the_integral(self):
        # the oracle's closed form against the defining integral over z
        mpmath.mp.dps = 40
        for j, w, c in [(0, 0.3, 2.0), (1, 1e-3, 5.0), (2.5, 4.0, 0.01), (40, 30.0, 7.0)]:
            w, c = mpmath.mpf(w), mpmath.mpf(c)

            def integrand(z):
                return (z * w) ** j * mpmath.exp(-z * (w + c + 1)) / mpmath.gamma(j + 1)

            want = mpmath.quad(integrand, [0, (j + 1) / (1 + w + c), mpmath.inf])
            assert abs(_exponential_shape_one_oracle(j, w, c) - want) <= 1e-30 * want

    @pytest.mark.parametrize("shape", [0.5, 2.0 / 3.0, 3.0, 7.3])
    @pytest.mark.parametrize("j", [0, 1, 2.5, 5, 199])
    def test_other_shapes_keep_their_bits(self, shape, j):
        rng = np.random.default_rng(2002 + int(2 * j))
        w = np.concatenate([[0.0, 5e-324], 10.0 ** rng.uniform(-12.0, 6.0, 198)])
        c = np.where(rng.random(200) < 0.2, 0.0, 10.0 ** rng.uniform(-12.0, 6.0, 200))
        want = _exponential_beta_ratio_reference(j, w, shape, c)
        assert np.array_equal(index_kernel(EXP, j, w, shape, c), want)
        # and an all-zero c, which takes the Q-free front alone
        want = _exponential_beta_ratio_reference(j, w, shape, np.zeros(200))
        assert np.array_equal(index_kernel(EXP, j, w, shape, 0.0), want)


def _exponential_beta_ratio_oracle(j, w, shape, c):
    """N_H(j, w, R, c) under the unit-exponential law in 50 digits:
    (w/(1+w))^j / (1+w) times the beta ratio I_x(j+1, R), x = (1+w)/(1+w+c)."""
    mpmath.mp.dps = 50
    w, c, shape = mpmath.mpf(w), mpmath.mpf(c), mpmath.mpf(shape)
    front = (w / (1 + w)) ** j / (1 + w)
    return front * mpmath.betainc(j + 1, shape, 0, (1 + w) / (1 + w + c), regularized=True)


class TestExponentialComplementBranch:
    """At shape != 1 and c < 1 + w the kernel takes 1 - I_{c/(1+w+c)}(R, j+1),
    which keeps absolute accuracy only: at high j, where the true value is
    far below 1e-16, it may read 0."""

    @pytest.mark.parametrize("j, w, shape, c, true", [
        (199, 150995.7603712351, 2.0, 49999.37903854317, 4.8e-29),
        (199, 10.5834758811038, 2.0 / 3.0, 7.310285632158934, 7.5e-53),
        (199, 10.58, 7.3, 7.31, 3.1e-43),
    ])
    def test_reproducers_hold_their_absolute_accuracy(self, j, w, shape, c, true):
        want = _exponential_beta_ratio_oracle(j, w, shape, c)
        assert float(want) == pytest.approx(true, rel=0.05)
        assert abs(index_kernel(EXP, j, w, shape, c) - want) <= 1e-16


class TestMaskedElements:
    """An infinite w or c reads exactly 0, and every finite element keeps the
    bits it has in a call without the infinite ones, whatever else the
    array holds."""

    @pytest.mark.parametrize("name", ["degenerate", "exponential", "table"])
    @pytest.mark.parametrize("j", [0, 1, 3])
    @pytest.mark.parametrize("shape", [1.0, 2.5])
    def test_infinite_elements_leave_the_rest_alone(self, name, j, shape):
        law = LAWS[name]
        rng = np.random.default_rng(2100 + 10 * j + int(shape))
        w = 10.0 ** rng.uniform(-6.0, 3.0, 60)
        c = np.where(rng.random(60) < 0.3, 0.0, 10.0 ** rng.uniform(-6.0, 3.0, 60))
        w[::7], c[3::11], w[5::13], c[5::13] = np.inf, np.inf, np.inf, np.inf
        dead = np.isinf(w) | np.isinf(c)
        got = index_kernel(law, j, w, shape, c)
        assert np.array_equal(got[dead], np.zeros(dead.sum()))
        assert np.array_equal(got[~dead], index_kernel(law, j, w[~dead], shape, c[~dead]))
        # one side an array, the other a float
        dead = np.isinf(w)
        got = index_kernel(law, j, w, shape, 0.0)
        assert np.array_equal(got[dead], np.zeros(dead.sum()))
        assert np.array_equal(got[~dead], index_kernel(law, j, w[~dead], shape, 0.0))
        dead = np.isinf(c)
        got = index_kernel(law, j, 0.0, shape, c)
        assert np.array_equal(got[dead], np.zeros(dead.sum()))
        assert np.array_equal(got[~dead], index_kernel(law, j, 0.0, shape, c[~dead]))

    @pytest.mark.parametrize("name", ["degenerate", "exponential", "table"])
    def test_the_broadcast_shape_survives(self, name):
        law = LAWS[name]
        for w, c in ((0.0, np.zeros(5)), (np.zeros((2, 3)), 0.0), (0.5, np.full(4, 0.0))):
            want = np.broadcast(np.asarray(w), np.asarray(c)).shape
            assert np.shape(index_kernel(law, 0, w, 2.5, c)) == want
            assert np.shape(index_kernel(law, 0, w, 1.0, c)) == want


def _table_kernel_oracle(law, j, w, shape, c):
    """N_H(j, w, R, c) under a tabulated law in 40 digits, for an integer
    shape R: Q(R, zc) is then the Poisson sum e^(-zc) sum_{i<R} (zc)^i / i!,
    and each term integrates over a segment to a difference of gamma ratios."""
    mpmath.mp.dps = 40
    w, c = mpmath.mpf(w), mpmath.mpf(c)
    total = mpmath.mpf(0)
    for slope, z0, z1 in law.pieces:
        if c == 0:
            seg = mpmath.gammainc(j + 1, z0 * w, z1 * w, regularized=True) / w
        else:
            lam = w + c
            seg = sum(w**j * c**i * mpmath.binomial(j + i, i) / lam ** (j + i + 1)
                      * mpmath.gammainc(j + i + 1, z0 * lam, z1 * lam, regularized=True)
                      for i in range(shape))
        total += mpmath.mpf(slope) * seg
    return total


class TestTabulatedBranches:
    """The tabulated kernel on both sides of each of its branch switches,
    per segment: w z1 = 1 (c > 0: by-parts sum against the small-w series),
    a ln(z1 w) = -650 (c = 0: subnormal gamma ratio) and z0 w = j + 1 (c = 0:
    upper against lower ratio differences), a = j + 1."""

    @pytest.mark.parametrize("law", [TABLE, TABLE_AT_ZERO], ids=lambda law: law.label())
    @pytest.mark.parametrize("j", [0, 1, 5, 199])
    def test_against_mpmath(self, law, j):
        a, shape = j + 1.0, 3
        ws = []
        for _, z0, z1 in law.pieces:
            ws += [f / z1 for f in (1.0 - 1e-12, 1.0 + 1e-12)]
            ws += [math.exp(-650.0 / a) / z1 * f for f in (0.999, 1.001)]
            if z0 > 0.0:
                ws += [a / z0 * f for f in (1.0 - 1e-12, 1.0 + 1e-12)]
        for w in ws:
            for c in (0.0, 0.7):
                want = _table_kernel_oracle(law, j, w, shape, c)
                got = index_kernel(law, j, w, float(shape), c)
                # relative accuracy, down to values that underflow (j = 199); the
                # by-parts sum of c > 0 holds the probability scale, 1e-15
                floor = 1e-15 if c > 0.0 else 1e-300
                assert abs(got - want) <= 1e-12 * want + floor, (w, c)


def _q_segment_reference(j, w, shape, c, z0, z1):
    """The c > 0 segment that `randomindex` takes per element only as far as
    it reads: here every element runs all 21 rows of the small-w series,
    and each segment takes the gamma ratios at both of its ends."""
    value = np.empty(w.shape)
    big = w * z1 > 1.0
    if big.any():
        at = w[big]
        ends = _segment_antiderivative_reference(j, at, shape, c[big], np.array([[z1], [z0]]))
        value[big] = (ends[0] - ends[1]) / at
    if big.all():
        return value
    small = ~big
    u, c = w[small] * z1, c[small]
    q1, q0 = reg_inc_gamma_upper(shape, np.outer((z1, z0), c))
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(u == 0.0, float(j == 0), np.exp(j * np.log(u) - math.lgamma(j + 1.0)))
    k = np.arange(21.0)[:, None]
    p = j + k + 1.0
    g1, g0 = np.split(_gamma_moment_ratio_reference(shape, p, np.concatenate([z1 * c, z0 * c])),
                      2, 1)
    moment = z1 * (q1 + g1 - (z0 / z1) ** p * (q0 + g0)) / p
    terms = np.multiply.accumulate(np.vstack([coef, -u / (k[:-1] + 1.0)])) * moment
    sums = np.add.accumulate(terms)
    stop = np.abs(terms) <= 1e-17 * np.abs(sums)
    stop[-1] = True
    value[small] = sums[stop.argmax(axis=0), np.arange(u.size)]
    return value


def _segment_antiderivative_reference(j, w, shape, c, z):
    x = z * c
    total = reg_inc_gamma(j + 1.0, z * w) * reg_inc_gamma_upper(shape, x) + reg_inc_gamma(shape, x)
    log_sum = np.log(c + w)
    log_front = shape * (np.log(c) - log_sum) - math.lgamma(shape)
    log_ratio = np.log(w) - log_sum
    i = np.arange(j + 1.0)[:, None]
    log_gammas = np.array([[math.lgamma(shape + k) - math.lgamma(k + 1.0)] for k in range(j + 1)])
    weight = np.exp(log_front + i * log_ratio + log_gammas)[:, None, :]
    for term in weight * reg_inc_gamma(shape + i[:, None], z * (c + w)):
        total = total - term
    return total


def _gamma_moment_ratio_reference(shape, p, x):
    a = shape + p
    tail = reg_inc_gamma(a, x)
    log_norm = np.array([[math.lgamma(v) - math.lgamma(shape)] for v in a.ravel()])
    big = tail > 1e-260
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value = np.where(big, np.exp(log_norm - p * np.log(x) + np.log(tail)), 0.0)
    small = (x > 0.0) & ~big
    if small.any():
        at, a = np.broadcast_to(x, small.shape)[small], np.broadcast_to(a, small.shape)[small]
        term = np.exp(shape * np.log(at) - at - math.lgamma(shape)) / a
        total, i = term, 0
        live = term > 1e-17 * total
        while live.any():
            i += 1
            term = np.where(live, term * (at / (a + i)), term)
            total = np.where(live, total + term, total)
            live &= term > 1e-17 * total
        value[small] = total
    return value


def _q_kernel_reference(law, j, w, shape, c):
    """The tabulated kernel at c > 0, segment by segment in table order."""
    total = np.zeros(w.shape)
    for slope, z0, z1 in law.pieces:
        total += slope * _q_segment_reference(j, w, shape, c, z0, z1)
    return total


class TestTabulatedKernelMatchesTheFullSeries:
    """The tabulated kernel reads each small-w series only up to the row its
    stop test needs (row 0 alone at w = 0) and shares the gamma ratios at a
    node between the two segments that meet there; every value must equal
    the full series taken segment by segment."""

    # the last law's first segment ends below 1/2, where u = w z1 underflows
    # to 0 at the least w > 0
    @pytest.mark.parametrize("law", [
        TABLE, TABLE_AT_ZERO, IndexLaw.tabulated([(0.0, 0.0), (0.3, 0.4), (2.0, 1.0)]),
    ], ids=["table", "table-at-zero", "short-first"])
    @pytest.mark.parametrize("j", [0, 1, 5, 199])
    def test_bit_for_bit(self, law, j):
        rng = np.random.default_rng(1800 + j)
        # u = w z1 on both sides of the series' reach and of its switch at 1,
        # and the least w > 0
        us = (1e-300, 1e-8, 0.3, 1.0 - 1e-12, 1.0 + 1e-12)
        ws = [0.0] * 12 + [5e-324] + [u / z1 for _, _, z1 in law.pieces for u in us]
        ws += [*rng.uniform(0.0, 3.0, 12), *10.0 ** rng.uniform(-12.0, 0.5, 12)]
        w = rng.permutation(np.repeat(ws, 2))
        c = np.where(rng.random(w.size) < 0.75, rng.choice([1e-300, 0.7, 1e6], w.size),
                     10.0 ** rng.uniform(-3.0, 3.0, w.size))
        # a product grid, as the mixtures evaluate, repeats each c over all w
        w_grid, c_grid = (v.ravel() for v in np.meshgrid(w[:30], c[:9]))
        for shape in (0.5, 1.0, 3.0, 7.3):
            want = _q_kernel_reference(law, j, w, shape, c)
            assert np.array_equal(index_kernel(law, j, w, shape, c), want), shape
            want = _q_kernel_reference(law, j, w_grid, shape, c_grid)
            assert np.array_equal(index_kernel(law, j, w_grid, shape, c_grid), want), shape

    @pytest.mark.parametrize("law", [TABLE, TABLE_AT_ZERO], ids=lambda law: law.label())
    def test_upper_ratios_once_per_distinct_c(self, law, monkeypatch):
        seen = []

        def counting(a, x):
            seen.append(np.broadcast(a, x).size)
            return reg_inc_gamma_upper(a, x)

        monkeypatch.setattr(randomindex, "reg_inc_gamma_upper", counting)
        w, c = np.meshgrid(np.linspace(0.0, 3.0, 11), np.linspace(0.2, 4.0, 11))
        index_kernel(law, 2.0, w.ravel(), 1.7, c.ravel())
        nodes = {z for _, z0, z1 in law.pieces for z in (z0, z1)}
        assert 0 < sum(seen) <= len(nodes) * 11

    @pytest.mark.parametrize("law", [TABLE, TABLE_AT_ZERO], ids=lambda law: law.label())
    @pytest.mark.parametrize("j", [0, 3])
    def test_zero_w_reads_row_zero_only(self, law, j, monkeypatch):
        # The full series took 2 x 21 lower ratios per segment and element.
        seen = []

        def counting(a, x):
            seen.append(np.broadcast(a, x).size)
            return reg_inc_gamma(a, x)

        monkeypatch.setattr(randomindex, "reg_inc_gamma", counting)
        c = np.linspace(0.05, 6.0, 40)
        index_kernel(law, float(j), 0.0, 0.7, c)
        assert 0 < sum(seen) <= 2 * len(law.pieces) * c.size


def _free_segment_reference(j, w, z0, z1):
    """The c = 0 segment one piece at a time, each taking the gamma ratios
    at both of its ends (1-d w)."""
    a = j + 1.0
    value = np.full(w.shape, z1 - z0 if j == 0.0 else 0.0)  # w = 0
    with np.errstate(divide="ignore"):
        tiny = (w > 0.0) & (a * np.log(z1 * w) < -650.0)
    if tiny.any():
        shrink = -math.expm1(a * (math.log(z0) - math.log(z1))) if z0 > 0.0 else 1.0
        value[tiny] = np.exp(j * np.log(w[tiny]) + a * math.log(z1) - math.lgamma(a + 1.0)) * shrink
    past = z0 * w > a
    if past.any():
        at = w[past]
        upper = reg_inc_gamma_upper(a, np.outer((z0, z1), at))
        value[past] = (upper[0] - upper[1]) / at
    near = (w > 0.0) & ~tiny & ~past
    if near.any():
        at = w[near]
        lower = reg_inc_gamma(a, np.outer((z1, z0), at))
        value[near] = (lower[0] - lower[1]) / at
    return value


LONG_TABLE = IndexLaw.tabulated([(0.25 * i, (i / 12) ** 2) for i in range(13)])


class TestNodeMajorKernel:
    """The tabulated kernel takes every node and piece of the table in
    whole-array calls, _SLICE elements at a time; each value must keep the
    bits of the piece-by-piece forms, at sizes where numpy's rounding of a
    transcendental op can depend on its operands' layout."""

    @pytest.mark.parametrize("j", [0, 1, 3])
    def test_a_large_product_grid_keeps_its_bits(self, j):
        rng = np.random.default_rng(2400 + j)
        w = np.concatenate([[0.0, 5e-324], 10.0 ** rng.uniform(-14.0, 1.0, 198)])
        c = np.concatenate([[1e-300, 1e6], 10.0 ** rng.uniform(-3.0, 3.0, 98)])
        w_grid, c_grid = (v.ravel() for v in np.meshgrid(w, c))
        assert w_grid.size >= 20_000 > randomindex._SLICE
        for shape in (0.5, 1.0, 3.0):
            want = _q_kernel_reference(TABLE, j, w_grid, shape, c_grid)
            assert np.array_equal(index_kernel(TABLE, j, w_grid, shape, c_grid), want), shape

    @pytest.mark.parametrize("law", [TABLE, TABLE_AT_ZERO, LONG_TABLE],
                             ids=["table", "table-at-zero", "long"])
    @pytest.mark.parametrize("j", [0, 1, 4, 0.5, 2.7])
    def test_free_segments_keep_their_bits(self, law, j):
        rng = np.random.default_rng(2410)
        a = j + 1.0
        # w = 0, the subnormal ratios (a ln(z1 w) < -650) and both sides of
        # the switch between the lower and the upper ratios at z0 w = a
        ws = [0.0, 5e-324, 1e-310]
        for _, z0, z1 in law.pieces:
            ws += [math.exp(-650.0 / a) / z1 * f for f in (0.99, 1.01)]
            if z0 > 0.0:
                ws += [a / z0 * f for f in (1.0 - 1e-12, 1.0 + 1e-12)]
        w = rng.permutation(np.concatenate([ws, 10.0 ** rng.uniform(-8.0, 2.0, 3000)]))
        got = randomindex._free_segments(j, w, law)
        want = np.zeros(w.shape)
        for row, (slope, z0, z1) in zip(got, law.pieces):
            piece = _free_segment_reference(j, w, z0, z1)
            assert np.array_equal(row, piece), (z0, z1)
            want += slope * piece
        assert np.array_equal(index_kernel(law, j, w), want)

    def test_gamma_calls_do_not_grow_with_the_table(self, monkeypatch):
        calls = []
        for name in ("reg_inc_gamma", "reg_inc_gamma_upper"):
            ratio = getattr(randomindex, name)
            monkeypatch.setattr(randomindex, name,
                                lambda a, x, ratio=ratio: calls.append(1) or ratio(a, x))
        rng = np.random.default_rng(2420)
        # w = 0, small and large w, c = 0 and c > 0 in one call
        w = np.concatenate([[0.0] * 5, 10.0 ** rng.uniform(-6.0, 1.5, 200)])
        c = np.where(rng.random(w.size) < 0.3, 0.0, rng.uniform(0.1, 5.0, w.size))
        short = IndexLaw.tabulated([(0.3, 0.0), (0.9, 0.2), (1.3, 0.6), (3.1, 1.0)])
        counts = []
        for law in (short, LONG_TABLE):
            calls.clear()
            index_kernel(law, 2, w, 1.5, c)
            counts.append(len(calls))
        assert (len(short.pieces), len(LONG_TABLE.pieces)) == (3, 12)
        assert counts[0] == counts[1] > 0

    def test_memory_does_not_grow_with_the_table(self):
        # small w runs the series on every (piece, element) pair
        rng = np.random.default_rng(2430)
        w, c = 10.0 ** rng.uniform(-4.0, -2.0, 1024), rng.uniform(0.1, 3.0, 1024)

        def peak(pieces):
            law = IndexLaw.tabulated([(0.01 * (i + 1), i / pieces) for i in range(pieces + 1)])
            tracemalloc.start()
            try:
                index_kernel(law, 1, w, 2.0, c)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(100) <= peak(4) + 1e6


class TestProductsPastTheLargestFloat:
    """Finite w and c whose products with z, or whose sum, pass the largest
    float: each is taken at its limit, inf, where a gamma ratio is 0 or 1,
    with no warning (the suite raises every RuntimeWarning as an error)."""

    NEAR_ZERO = IndexLaw.tabulated([(0.0, 0.0), (1e-300, 0.5), (2.0, 1.0)])

    def test_tabulated_kernel_against_mpmath(self):
        w, shape, c = 9.35e307, 6.67e-301, 1.145e308
        got = index_kernel(self.NEAR_ZERO, 1.0, [w], shape, [c])[0]
        # The first piece at t = z w; Q(R, x) = R E1(x) to O(R^2) at this R.
        # The second piece starts at z w = 9e7, where e^-zw underflows.
        with mpmath.workdps(30):
            big_w, big_c, big_r = mpmath.mpf(w), mpmath.mpf(c), mpmath.mpf(shape)
            want = mpmath.quad(lambda t: t * mpmath.exp(-t) * big_r * mpmath.e1(t * big_c / big_w),
                               [0, 1, 10, 100, 1000])
            want *= mpmath.mpf(0.5) / mpmath.mpf("1e-300") / big_w
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(float(want), abs=1e-16)

    @pytest.mark.parametrize("law", [NEAR_ZERO, TABLE, IndexLaw.degenerate(1e300),
                                     IndexLaw.unit_exponential()],
                             ids=["near-zero", "table", "degenerate", "exponential"])
    @pytest.mark.parametrize("j", [0.0, 1.0, 3.0])
    def test_values_stay_probabilities(self, law, j):
        w = np.array([0.0, 1.0, 1e300, 9.35e307, 1.7e308])
        c = np.array([0.0, 1.0, 1.145e308, 1.7e308])
        for shape in (1.0, 2.5):
            value = index_kernel(law, j, w[:, None], shape, c[None, :])
            assert value.shape == (5, 4)
            assert np.all((-1e-16 <= value) & (value <= 1.0)), (shape, value)

    def test_point_mass_weight_past_the_largest_float_is_zero(self):
        # z w = 1e300 w: every Poisson weight e^-zw (zw)^j / j! is 0 from w = 1 on
        law = IndexLaw.degenerate(1e300)
        for j in (0.0, 1.0, 2.5):
            assert np.all(index_kernel(law, j, [1.0, 1e10, 1.7e308], 2.5, 1.0) == 0.0)


class TestCollapsedMixtures:
    """Every mixture against the nested integral int Omega(z .) dH(z)."""

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_uu(self, name):
        law, rng = LAWS[name], np.random.default_rng(21)
        for _ in range(4):
            params = random_params(rng)
            s = int(rng.integers(1, 3))
            r = s + int(rng.integers(1, 3))
            rr, rs, mp1 = params.rank_weight(r), params.rank_weight(s), params.m + 1.0
            kap1 = float(rng.uniform(0.2, 3.0))
            kap2 = float(rng.uniform(0.0, 1.2 * kap1))
            want = mix_over_z(lambda z: uu_slice(rr, rs, z * kap1**mp1, z * kap2**mp1), law)
            got = mixture_df(params, RankPair(r, s, Regime.UPPER_UPPER), law, kap1, kap2)
            assert got == pytest.approx(want, abs=SUM_TOL)

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_ll(self, name):
        law, rng = LAWS[name], np.random.default_rng(22)
        for _ in range(5):
            r = int(rng.integers(1, 4))
            s = r + int(rng.integers(1, 4))
            rho1 = float(rng.uniform(0.05, 3.0))
            rho2 = rho1 * float(rng.uniform(0.8, 4.0))
            want = mix_over_z(lambda z: ll_slice(r, s, z * rho1, z * rho2), law)
            got = mixture_df(LL_PARAMS, RankPair(r, s, Regime.LOWER_LOWER), law, rho1, rho2)
            assert got == pytest.approx(want, abs=TOL)

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_lu_and_marginals(self, name):
        law, rng = LAWS[name], np.random.default_rng(23)
        for _ in range(6):
            params = random_params(rng)
            r, s = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            rs, mp1 = params.rank_weight(s), params.m + 1.0
            rho, kap = float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.05, 3.0))
            want = mix_over_z(
                lambda z: special.gammainc(r, z * rho) * upper_q(rs, z * kap**mp1), law)
            got = mixture_df(params, RankPair(r, s, Regime.LOWER_UPPER), law, rho, kap)
            assert got == pytest.approx(want, abs=TOL)
            want = mix_over_z(lambda z: upper_q(rs, z * kap**mp1), law)
            got = mixture_marginal(ExtremeSide.UPPER, params, s, kap, law)
            assert got == pytest.approx(want, abs=TOL)
            want = mix_over_z(lambda z: special.gammainc(r, z * rho), law)
            got = mixture_marginal(ExtremeSide.LOWER, params, r, rho, law)
            assert got == pytest.approx(want, abs=TOL)

    def test_uu_on_a_long_table(self):
        zs = np.geomspace(1e-3, 1e3, 300)
        hs = special.ndtr(np.log(zs) / 2.0)
        law = IndexLaw.tabulated(list(zip(zs, (hs - hs[0]) / (hs[-1] - hs[0]))))
        params = GosParams(m=0.3, k=1.2, n=50)
        rr, rs, mp1 = params.rank_weight(3), params.rank_weight(1), 1.3
        for kap1, kap2 in ((1.1, 0.6), (0.05, 0.01)):
            want = mix_over_z(lambda z: uu_slice(rr, rs, z * kap1**mp1, z * kap2**mp1), law)
            got = mixture_df(params, RankPair(3, 1, Regime.UPPER_UPPER), law, kap1, kap2)
            assert got == pytest.approx(want, abs=SUM_TOL)

    @pytest.mark.parametrize("name", ["degenerate", "exponential", "table", "table-at-zero"])
    def test_high_ranks(self, name):
        # R_r past 171, where Gamma(R_r + 1) and r! overflow a float
        law, params = LAWS[name], GosParams(m=0.3, k=1.2, n=500)
        rr, mp1 = params.rank_weight(200), 1.3
        for s, kap1, kap2 in ((1, 0.05, 0.01), (1, 60.0, 20.0), (150, 70.0, 60.0)):
            rs = params.rank_weight(s)
            want = mix_over_z(lambda z: uu_slice(rr, rs, z * kap1**mp1, z * kap2**mp1), law)
            got = mixture_df(params, RankPair(200, s, Regime.UPPER_UPPER), law, kap1, kap2)
            assert got == pytest.approx(want, abs=SUM_TOL)
        for s, rho, kap in ((3, 100.0, 0.5), (3, 150.0, 0.05), (120, 120.0, 0.9)):
            rs = params.rank_weight(s)
            want = mix_over_z(
                lambda z: special.gammainc(200, z * rho) * upper_q(rs, z * kap**mp1), law)
            got = mixture_df(params, RankPair(200, s, Regime.LOWER_UPPER), law, rho, kap)
            assert got == pytest.approx(want, abs=TOL)

    def test_uu_limit_sum_matches_the_reference_quadrature(self):
        # the `limit` verb's upper-upper values against omega_uu, over deeper pairs
        law, rng = IndexLaw.degenerate(1.0), np.random.default_rng(25)
        for _ in range(100):
            params = random_params(rng)
            s = int(rng.integers(1, 4))
            r = s + int(rng.integers(1, 7))
            v1 = float(rng.uniform(0.05, 4.0))
            v2 = float(rng.uniform(0.0, 1.2 * v1))
            got = mixture_df(params, RankPair(r, s, Regime.UPPER_UPPER), law, v1, v2)
            assert got == pytest.approx(omega_uu(params, r, s, v1, v2), abs=SUM_TOL)

    @pytest.mark.parametrize("law", DEGENERATE, ids=lambda law: law.label())
    def test_degenerate_law_is_the_fixed_size_limit(self, law):
        # Under a point mass c every mixture is the fixed-size limit at
        # c-scaled arguments: c kappa^(m+1) = (scale kappa)^(m+1).  The
        # transform values are drawn so that the scaled ones are O(1).
        c, rng = law.c, np.random.default_rng(24)
        for _ in range(6):
            params = random_params(rng)
            scale = c ** (1.0 / (params.m + 1.0))
            s = int(rng.integers(1, 3))
            r = s + int(rng.integers(1, 3))
            v1 = float(rng.uniform(0.2, 3.0))
            v2 = float(rng.uniform(0.0, 1.2 * v1))
            uu = RankPair(r, s, Regime.UPPER_UPPER)
            got = mixture_df(params, uu, law, v1 / scale, v2 / scale)
            assert got == pytest.approx(omega_uu(params, r, s, v1, v2), abs=1e-10)
            lr = int(rng.integers(1, 4))
            ls = lr + int(rng.integers(1, 4))
            rho1 = float(rng.uniform(0.05, 3.0))
            rho2 = rho1 * float(rng.uniform(0.8, 4.0))
            got = mixture_df(params, RankPair(lr, ls, Regime.LOWER_LOWER), law, rho1 / c, rho2 / c)
            assert got == pytest.approx(omega_ll(lr, ls, rho1, rho2), abs=1e-10)
            got = mixture_df(params, RankPair(lr, s, Regime.LOWER_UPPER), law, rho1 / c, v1 / scale)
            assert got == pytest.approx(omega_lu_product(params, lr, s, rho1, v1), abs=1e-10)
            got = mixture_marginal(ExtremeSide.UPPER, params, s, v1 / scale, law)
            assert got == pytest.approx(upper_marginal_limit(params, s, v1), abs=1e-10)
            got = mixture_marginal(ExtremeSide.LOWER, params, lr, rho1 / c, law)
            assert got == pytest.approx(lower_marginal_limit(lr, rho1), abs=1e-10)


# --- range and midrange: the conditional df at scale z, then the z-mixture --


def _pair_slice(fam, ell, mp1, eta, alpha, t, midrange, z):
    """P_z(statistic <= t) for the two-sided families, by quadrature over the
    min-side variable (the form the index-law kernel integrates out)."""
    if fam == "cauchy":
        def at(y, x):
            return upper_q(ell, z / x) * z * y**-2 * math.exp(-z / y)

        if midrange:
            return _quad(lambda y: at(y, t + y), max(0.0, -t), math.inf, 1e-13)
        return _quad(lambda y: at(y, t - y), 0.0, t, 1e-13) if t > 0.0 else 0.0
    if fam in ("uniform", "beta", "power"):
        def integrand(tau):
            w = tau ** (1.0 / alpha)
            x = (w / eta - t) if midrange else -(t + w / eta)
            return upper_q(ell, z * (x**alpha if x > 0.0 else 0.0)) * z * math.exp(-z * tau)

        if midrange:
            split = (t * eta) ** alpha if t > 0.0 else 0.0
            return -math.expm1(-z * split) + _quad(integrand, split, math.inf, 1e-13)
        if t >= 0.0:
            return 1.0
        split = (-t * eta) ** alpha
        return math.exp(-z * split) + _quad(integrand, 0.0, split, 1e-13)
    base = math.exp(-t * mp1)
    expo = mp1 / eta if midrange else -mp1 / eta
    return _quad(lambda tau: upper_q(ell, z * base * tau**expo) * z * math.exp(-z * tau),
                 0.0, math.inf, 1e-13)


RANGE_CASES = [
    # (spec, interval m is drawn from)
    ("normal", (-0.6, 1.5)), ("logistic", (-0.6, 1.5)), ("laplace", (-0.6, 1.5)),
    ("cauchy", (0.0, 0.0)), ("uniform(theta=1)", (0.0, 0.0)), ("power", (-0.6, 1.5)),
    ("beta", (-0.6, 1.5)), ("cauchy", (-0.6, -0.05)), ("pareto(sigma=1.5)", (-0.6, 1.5)),
    ("lognormal", (-0.6, 1.5)), ("exponential(sigma=1)", (-0.6, 1.5)),
    ("rayleigh(sigma=1)", (-0.6, 1.5)),
]


def _range_query(spec, m, k, stat, law):
    if spec == "power":
        spec = f"power(alpha={m + 1.0!r})"
    elif spec == "beta":
        spec = f"beta(alpha={2.0 * (m + 1.0)!r},beta=2)"
    return RangeQuery(model=parse_model(spec), params=GosParams(m=m, k=k, n=500),
                      law=law, statistic=stat)


class TestRangesCollapsed:
    @pytest.mark.parametrize("stat", ["range", "midrange"])
    @pytest.mark.parametrize("spec,m_range", RANGE_CASES)
    def test_against_nested_quadrature(self, spec, m_range, stat):
        rng = np.random.default_rng(zlib.crc32(f"{spec}{m_range}{stat}".encode()))
        for name in ("degenerate", "exponential", "table-at-zero"):
            m = float(rng.uniform(*m_range))
            k = float(rng.uniform(0.5, 3.0))
            t = float(rng.uniform(-1.5, 3.0)) if stat == "midrange" else float(
                rng.uniform(0.05, 4.0))
            if spec in ("uniform", "power", "beta") and stat == "range":
                t = -t / 2.0
            query = _range_query(spec, m, k, stat, LAWS[name])
            model, params = query.model, query.params
            eta, ell, mp1 = eta_limit(model, params), params.ell, m + 1.0
            if math.isinf(eta):
                if model.family in ("cauchy", "pareto"):
                    power = mp1 if model.family == "cauchy" else 1.5 * mp1
                    cval = t**-power if t > 0.0 else math.inf
                else:
                    cval = math.exp(-t * mp1)
                want = mix_over_z(lambda z: upper_q(ell, z * cval), query.law)
            else:
                alpha = model.params.get("alpha", 1.0)
                want = mix_over_z(lambda z: _pair_slice(
                    model.family, ell, mp1, eta, alpha, t, stat == "midrange", z), query.law)
            evaluate = range_limit_df if stat == "range" else midrange_limit_df
            assert evaluate(query, t) == pytest.approx(want, abs=TOL), (name, m, k, t)

    @pytest.mark.parametrize("t", [1e-3, 4.2e-3])
    def test_cauchy_range_near_zero_geometric(self, t):
        # int_0^inf z e^{-z(1 + 1/y + 1/(t-y))} dz = (1 + 1/y + 1/(t-y))^-2 in closed
        # form; the old Gauss-Laguerre rule returned 7e-9 at t = 4.2e-3.
        mpmath.mp.dps = 30
        want = float(mpmath.quad(lambda y: 1 / (y + 1 + y / (t - y)) ** 2, [0, t]))
        got = range_limit_df(_range_query("cauchy", 0.0, 1.0, "range", EXP), t)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(t / 3.0, rel=0.02)


# --- properties: every mixture is a bivariate df ------------------------------

law_strategy = st.sampled_from([EXP, TABLE, TABLE_AT_ZERO, *DEGENERATE])
transform = st.floats(min_value=0.0, max_value=6.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(law=law_strategy, m=st.floats(-0.6, 1.5), k=st.floats(0.5, 3.0),
       a=transform, b=transform, da=transform, db=transform)
def test_uu_is_bivariate_df(law, m, k, a, b, da, db):
    # kappa is nonincreasing in x: (a + da, b + db) is the lower-left corner
    params = GosParams(m=m, k=k, n=50)

    def F(k1, k2):
        return mixture_df(params, RankPair(2, 1, Regime.UPPER_UPPER), law, k1, k2)

    hi, lo_x, lo_y, lo = F(a, b), F(a + da, b), F(a, b + db), F(a + da, b + db)
    for v in (hi, lo_x, lo_y, lo):
        assert 0.0 <= v <= 1.0
    assert hi >= lo_x - TOL and hi >= lo_y - TOL
    assert hi - lo_x - lo_y + lo >= -TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(law=law_strategy, a=transform, b=transform, da=transform, db=transform)
def test_ll_is_bivariate_df(law, a, b, da, db):
    def F(r1, r2):
        return mixture_df(LL_PARAMS, RankPair(1, 3, Regime.LOWER_LOWER), law, r1, r2)

    lo, hi_x, hi_y, hi = F(a, b), F(a + da, b), F(a, b + db), F(a + da, b + db)
    for v in (lo, hi_x, hi_y, hi):
        assert 0.0 <= v <= 1.0
    assert hi_x >= lo - TOL and hi_y >= lo - TOL
    assert hi - hi_x - hi_y + lo >= -TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(law=law_strategy, m=st.floats(-0.6, 1.5), k=st.floats(0.5, 3.0),
       rho=transform, kap=transform, drho=transform, dkap=transform)
def test_lu_is_bivariate_df(law, m, k, rho, kap, drho, dkap):
    # rho grows with x, kappa falls with y: (rho + drho, kap) is the upper corner
    params = GosParams(m=m, k=k, n=50)

    def F(r1, k2):
        return mixture_df(params, RankPair(2, 1, Regime.LOWER_UPPER), law, r1, k2)

    lo, hi_x, hi_y, hi = F(rho, kap + dkap), F(rho + drho, kap + dkap), F(rho, kap), \
        F(rho + drho, kap)
    for v in (lo, hi_x, hi_y, hi):
        assert 0.0 <= v <= 1.0
    assert hi_x >= lo - TOL and hi_y >= lo - TOL
    assert hi - hi_x - hi_y + lo >= -TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(law=law_strategy, m=st.floats(-0.6, 1.5), k=st.floats(0.5, 3.0),
       v=transform, dv=transform)
def test_marginals_are_monotone_probabilities(law, m, k, v, dv):
    params = GosParams(m=m, k=k, n=50)
    for side, grows in ((ExtremeSide.LOWER, True), (ExtremeSide.UPPER, False)):
        a = mixture_marginal(side, params, 2, v, law)
        b = mixture_marginal(side, params, 2, v + dv, law)
        assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0
        assert (b >= a - TOL) if grows else (b <= a + TOL)


def test_clip_probability_passes_only_roundoff():
    assert clip_probability(1.0 + 1e-12) == 1.0
    assert clip_probability(-1e-12) == 0.0
    assert clip_probability(0.25) == 0.25
    for bad in (1.0 + 1e-6, -1e-6, math.nan):
        with pytest.raises(ArithmeticError):
            clip_probability(bad)
