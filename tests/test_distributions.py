import math

import mpmath
import numpy as np
import pytest

from gosextreme import goscore
from gosextreme.distributions import (
    DistributionModel,
    _lm_prob,
    _quantile_norming,
    NoAttractionError,
    NormingConstants,
    cdf,
    norming_constants,
    parse_model,
    quantile,
    survival,
    tail_transform,
    valid_families,
)
from gosextreme.limitlaws import TailTransform, kappa, rho
from gosextreme.params import ExtremeSide, GosParams

ALL_SPECS = [
    "cauchy", "normal", "logistic", "laplace", "lognormal",
    "pareto(sigma=2)", "exponential(sigma=0.5)", "rayleigh(sigma=2)",
    "uniform(theta=3)", "beta(alpha=2,beta=3)", "power(alpha=1.5)",
]


class TestParsing:
    def test_basic(self):
        model = parse_model("pareto(sigma=2)")
        assert model.family == "pareto"
        assert model.params == {"sigma": 2.0}

    def test_case_insensitive(self):
        model = parse_model("  PARETO( SIGMA=2.5 )")
        assert model.family == "pareto"
        assert model.params["sigma"] == 2.5

    def test_bare_name(self):
        assert parse_model("cauchy").family == "cauchy"

    def test_unknown_family_lists_valid(self):
        with pytest.raises(ValueError, match="valid families"):
            parse_model("gamma(a=2)")

    def test_malformed_parameter(self):
        with pytest.raises(ValueError, match="name=value"):
            parse_model("pareto(2)")

    def test_wrong_parameters(self):
        with pytest.raises(ValueError):
            DistributionModel("pareto", {"theta": 1.0})
        with pytest.raises(ValueError):
            DistributionModel("cauchy", {"sigma": 1.0})

    def test_nonpositive_parameter(self):
        with pytest.raises(ValueError):
            parse_model("pareto(sigma=0)")

    @pytest.mark.parametrize("build,message", [
        (lambda: parse_model("pareto(sigma=inf)"), "pareto parameter sigma must be finite, got inf"),
        (lambda: DistributionModel("uniform", {"theta": math.inf}),
         "uniform parameter theta must be finite, got inf"),
        (lambda: parse_model("beta(alpha=2,beta=inf)"), "beta parameter beta must be finite, got inf"),
        (lambda: parse_model("pareto(sigma=-inf)"), "pareto parameter sigma must be positive"),
        (lambda: GosParams(m=math.inf, k=1.0, n=5), "m must be finite, got inf"),
        (lambda: GosParams(m=0.0, k=math.inf, n=5), "k must be finite, got inf"),
        (lambda: TailTransform(ExtremeSide.UPPER, "weibull", math.inf),
         "weibull transform requires a finite alpha, got inf"),
        (lambda: TailTransform(ExtremeSide.LOWER, "frechet", math.inf),
         "frechet transform requires a finite alpha, got inf"),
    ], ids=["pareto-sigma", "uniform-theta", "beta-beta", "pareto-minus-inf", "gos-m", "gos-k",
            "weibull-alpha", "frechet-alpha"])
    def test_non_finite_parameter_is_rejected_when_built(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_label_roundtrip(self):
        model = parse_model("beta(alpha=2,beta=3)")
        assert parse_model(model.label()) == model

    def test_valid_families_mentions_all(self):
        text = valid_families()
        for name in ("cauchy", "pareto", "uniform", "beta", "power", "normal",
                     "logistic", "laplace", "lognormal", "exponential", "rayleigh"):
            assert name in text


class TestCdfQuantile:
    def test_cauchy_median(self):
        assert cdf(parse_model("cauchy"), 0.0) == pytest.approx(0.5, abs=1e-15)
        assert quantile(parse_model("cauchy"), 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_pareto_left_endpoint(self):
        assert cdf(parse_model("pareto(sigma=3)"), 1.0) == 0.0
        assert cdf(parse_model("pareto(sigma=3)"), 0.5) == 0.0

    def test_uniform_right_endpoint(self):
        assert cdf(parse_model("uniform(theta=2)"), 2.0) == 1.0

    def test_exponential_quantile(self):
        p = -math.expm1(-1.0)
        assert quantile(parse_model("exponential(sigma=1)"), p) == pytest.approx(1.0, rel=1e-12)

    def test_normal_upper_975(self):
        # independent oracle: bisection against the erfc-based cdf
        def erfc_cdf(x):
            return 0.5 * math.erfc(-x / math.sqrt(2.0))

        lo, hi = 0.0, 10.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if erfc_cdf(mid) < 0.975:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert oracle == pytest.approx(1.959964, abs=1e-6)
        assert quantile(parse_model("normal"), 0.975) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_roundtrip(self, spec):
        model = parse_model(spec)
        ps = np.linspace(0.01, 0.99, 50)
        back = cdf(model, quantile(model, ps))
        assert np.max(np.abs(back - ps)) <= 1e-9

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_cdf_monotone_with_limits(self, spec):
        model = parse_model(spec)
        lo, hi = model.support()
        xs = np.linspace(max(lo, -50.0), min(hi, 50.0), 201)
        vals = np.asarray(cdf(model, xs), dtype=float)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert float(cdf(model, max(lo, -1e9) - 1.0)) <= 1e-6 or math.isfinite(lo)
        if math.isfinite(lo):
            assert float(cdf(model, lo)) == pytest.approx(0.0, abs=1e-12)
        if math.isfinite(hi):
            assert float(cdf(model, hi)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_survival_complements_cdf(self, spec):
        model = parse_model(spec)
        xs = quantile(model, np.linspace(0.05, 0.95, 19))
        total = np.asarray(cdf(model, xs)) + np.asarray(survival(model, xs))
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_survival_deep_tail_relative_accuracy(self):
        model = parse_model("exponential(sigma=1)")
        assert float(survival(model, 50.0)) == pytest.approx(math.exp(-50.0), rel=1e-13, abs=0.0)
        cau = parse_model("cauchy")
        assert float(survival(cau, 1e8)) == pytest.approx(1.0 / (math.pi * 1e8), rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("x", [-1e3, -1e10, -1e15])
    def test_cauchy_far_left_relative_accuracy(self, x):
        # 0.5 + atan(x)/pi cancels here (13% off at -1e15); F(x) = Fbar(-x)
        # keeps full relative accuracy.
        with mpmath.workdps(60):
            want = float(mpmath.mpf(0.5) + mpmath.atan(x) / mpmath.pi)
        assert float(cdf(parse_model("cauchy"), x)) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.4])
    def test_quantile_domain(self, p):
        with pytest.raises(ValueError):
            quantile(parse_model("normal"), p)


class TestTailTransforms:
    @pytest.mark.parametrize("spec,upper,lower", [
        ("cauchy", ("frechet", 1.0), ("frechet", 1.0)),
        ("pareto(sigma=2)", ("frechet", 2.0), ("weibull", 1.0)),
        ("uniform(theta=1)", ("weibull", 1.0), ("weibull", 1.0)),
        ("beta(alpha=2,beta=3)", ("weibull", 3.0), ("weibull", 2.0)),
        ("power(alpha=2)", ("weibull", 1.0), ("weibull", 2.0)),
        ("normal", ("gumbel", None), ("gumbel", None)),
        ("exponential(sigma=1)", ("gumbel", None), ("weibull", 1.0)),
        ("rayleigh(sigma=1)", ("gumbel", None), ("weibull", 2.0)),
        ("lognormal", ("gumbel", None), ("gumbel", None)),
    ])
    def test_classification(self, spec, upper, lower):
        model = parse_model(spec)
        up = tail_transform(model, ExtremeSide.UPPER)
        low = tail_transform(model, ExtremeSide.LOWER)
        assert (up.kind, up.alpha) == upper
        assert (low.kind, low.alpha) == lower


class TestNormingConstants:
    def test_normal_m0_k1_closed_form(self):
        n = 1000
        consts = norming_constants(parse_model("normal"), GosParams(m=0.0, k=1.0, n=n))
        root = math.sqrt(2.0 * math.log(n))
        assert consts.a == pytest.approx(1.0 / root, rel=1e-12, abs=0.0)
        assert consts.b == pytest.approx(
            root - (math.log(math.log(n)) + math.log(4.0 * math.pi)) / (2.0 * root),
            rel=1e-12,
        )
        # symmetric family: the lower side mirrors the upper at m = 0, k = 1
        assert consts.c == pytest.approx(consts.a, rel=1e-12, abs=0.0)
        assert consts.d == pytest.approx(-consts.b, rel=1e-12)

    def test_uniform_upper_m0(self):
        theta = 1.5
        params = GosParams(m=0.0, k=1.0, n=40)  # N = n at m=0, k=1
        consts = norming_constants(parse_model(f"uniform(theta={theta})"), params)
        assert consts.b == pytest.approx(theta)
        assert consts.a == pytest.approx(2.0 * theta / 40.0, rel=1e-12, abs=0.0)

    def test_pareto_upper_general_m(self):
        sigma, m, k, n = 2.0, 0.5, 2.0, 30
        params = GosParams(m=m, k=k, n=n)
        consts = norming_constants(parse_model(f"pareto(sigma={sigma})"), params)
        assert consts.b == 0.0
        assert consts.a == pytest.approx(
            params.big_n ** (1.0 / (sigma * (m + 1.0))), rel=1e-12
        )

    @pytest.mark.parametrize("m", [1e300, -0.999999])
    def test_unrepresentable_constants_are_arithmetic_errors(self, m):
        # valid inputs: the upper tail mass u = N^(-1/(m+1)) rounds to 1 or 0
        with pytest.raises(ArithmeticError, match="normalizing constants"):
            norming_constants(parse_model("logistic"), GosParams(m=m, k=1.3, n=50))

    def test_constants_built_directly_keep_their_value_error(self):
        with pytest.raises(ValueError, match="scale constants must be positive"):
            NormingConstants(a=-1.0, b=0.0, c=1.0, d=0.0)

    def test_beta_requires_constraint(self):
        with pytest.raises(NoAttractionError):
            norming_constants(
                parse_model("beta(alpha=2,beta=3)"), GosParams(m=0.0, k=1.0, n=10)
            )
        norming_constants(  # alpha = (m+1) beta holds
            parse_model("beta(alpha=3,beta=2)"), GosParams(m=0.5, k=1.0, n=10)
        )

    @pytest.mark.parametrize("spec,m,k", [
        ("exponential(sigma=1)", 0.0, 1.0),
        ("cauchy", 1.0, 2.0),
        ("uniform(theta=1)", 0.0, 1.0),
        ("normal", 0.0, 1.0),
        ("normal", 1.0, 1.0),
        ("beta(alpha=2,beta=2)", 0.0, 1.0),
        ("power(alpha=1.5)", 0.5, 1.0),
        ("logistic", 1.0, 1.0),
        ("laplace", 0.5, 2.0),
        ("lognormal", 0.0, 1.0),
        ("rayleigh(sigma=1)", 0.0, 1.0),
        ("pareto(sigma=2)", 0.5, 1.0),
    ])
    def test_upper_convergence_ladder(self, spec, m, k):
        model = parse_model(spec)
        up = tail_transform(model, ExtremeSide.UPPER)
        errs = []
        for n in (10**3, 10**5, 10**7):
            params = GosParams(m=m, k=k, n=n)
            c = norming_constants(model, params)
            errs.append(max(
                abs(params.big_n * goscore.lbar(params, model, c.a * x + c.b)
                    - kappa(up, x) ** (m + 1.0))
                for x in (-1.0, -0.3, 0.4, 1.1, 2.0)
                if kappa(up, x) < math.inf
            ))
        assert errs[0] >= errs[1] - 1e-8
        assert errs[1] >= errs[2] - 1e-8

    @pytest.mark.parametrize("spec,m,k", [
        ("exponential(sigma=1)", 0.0, 1.0),
        ("cauchy", 1.0, 2.0),
        ("uniform(theta=1)", -0.5, 1.0),
        ("normal", 0.0, 1.0),
        ("beta(alpha=2,beta=2)", 0.0, 1.0),
        ("lognormal", 0.0, 1.0),
        ("rayleigh(sigma=1)", 0.5, 1.0),
        ("pareto(sigma=2)", 0.5, 1.0),
    ])
    def test_lower_convergence_ladder(self, spec, m, k):
        model = parse_model(spec)
        low = tail_transform(model, ExtremeSide.LOWER)
        errs = []
        for n in (10**3, 10**5, 10**7):
            params = GosParams(m=m, k=k, n=n)
            c = norming_constants(model, params)
            errs.append(max(
                abs(params.big_n * goscore.lm(params, model, c.c * x + c.d) - rho(low, x))
                for x in (-2.0, -1.0, -0.3, 0.4, 1.1)
                if rho(low, x) < math.inf
            ))
        assert errs[0] >= errs[1] - 1e-8
        assert errs[1] >= errs[2] - 1e-8

    def test_uniform_negative_m_exact_identity(self):
        # a_n x + b_n sits too close to the endpoint for the 1e7 ladder at
        # m < 0; the construction is exact, so check the identity directly
        # at resolvable sizes.
        model = parse_model("uniform(theta=1)")
        for n in (10**2, 10**3, 10**4):
            params = GosParams(m=-0.5, k=1.0, n=n)
            c = norming_constants(model, params)
            for x in (-2.0, -1.0, -0.25):
                got = params.big_n * goscore.lbar(params, model, c.a * x + c.b)
                # float resolution of a_n x + b_n near the endpoint grows
                # like N^2 eps, which caps the observable agreement
                tol = max(1e-11, params.big_n**2 * 5e-17)
                assert got == pytest.approx((-x) ** (params.m + 1.0), abs=tol)


def _quantile_norming_reference(model, params):
    """The quantile construction written out once per side: a frechet,
    weibull and gumbel branch set for the maximum, another for the minimum."""
    mp1 = params.m + 1.0
    big_n = params.big_n
    lo, hi = model.support()
    u = big_n ** (-1.0 / mp1)
    up = tail_transform(model, ExtremeSide.UPPER)
    if up.kind == "frechet":
        b = 0.0
        a = float(model.record.isf(model.params, u))
    elif up.kind == "weibull":
        b = hi
        a = float(model.record.upper_gap(model.params, u))
    else:
        b = float(model.record.isf(model.params, u))
        a = float(model.record.isf(model.params, u / math.e)) - b

    low = tail_transform(model, ExtremeSide.LOWER)
    p1 = _lm_prob(mp1, 1.0 / big_n)
    pe = _lm_prob(mp1, 1.0 / (math.e * big_n))
    if low.kind == "frechet":
        d = 0.0
        c = -float(quantile(model, p1))
    elif low.kind == "weibull":
        d = lo
        c = float(model.record.lower_gap(model.params, p1))
    else:
        d = float(quantile(model, p1))
        c = d - float(quantile(model, pe))
    return a, b, c, d


def _outcome(rule, model, params):
    with np.errstate(all="ignore"):  # as `norming_constants` calls the rule
        try:
            return rule(model, params)
        except Exception as exc:  # the class and message are the outcome
            return type(exc), str(exc)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_one_rule_for_both_sides_keeps_the_constants(spec):
    """Both sides of the quantile construction run through one rule (the
    minimum's as the maximum of -X) and give the constants, or the error, of
    the sides written out one by one (a zero d compares equal to -0.0)."""
    model = parse_model(spec)
    for m in (-0.5, 0.0, 0.5, 1.0, 3.0):
        for k in (0.3, 1.0, 1.3, 2.0):
            for n in (2, 5, 50, 500, 5000, 10**7):
                params = GosParams(m=m, k=k, n=n)
                want = _outcome(_quantile_norming_reference, model, params)
                assert _outcome(_quantile_norming, model, params) == want, (m, k, n)
