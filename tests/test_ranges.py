import math

import numpy as np
import pytest

from gosextreme.distributions import norming_constants, parse_model
from gosextreme.montecarlo import IndexMode
from gosextreme.params import GosParams
from gosextreme.randomindex import IndexLaw
from gosextreme.ranges import (
    RangeQuery,
    UnsupportedCaseError,
    eta_limit,
    midrange_limit_df,
    normal_range_closed_form,
    range_limit_df,
    run_statistic_sim,
)
from gosextreme.reference import normal_midrange_integral, normal_range_integral

EXP_LAW = IndexLaw.unit_exponential()
LN4 = math.log(4.0)


def query(spec, m, k, statistic, law=EXP_LAW, n=500):
    return RangeQuery(
        model=parse_model(spec), params=GosParams(m=m, k=k, n=n),
        law=law, statistic=statistic,
    )


def geometric_max_mixture(ell: float, c: float) -> float:
    """Closed form of int [1 - Gamma_ell(z c)] e^-z dz = 1 - (c/(1+c))^ell."""
    if c == math.inf:
        return 0.0
    return 1.0 - (c / (1.0 + c)) ** ell


class TestEtaLimit:
    def test_cauchy_cases(self):
        cau = parse_model("cauchy")
        assert eta_limit(cau, GosParams(m=0.0, k=1.0, n=5)) == 1.0
        assert eta_limit(cau, GosParams(m=0.5, k=1.0, n=5)) == 0.0
        assert eta_limit(cau, GosParams(m=-0.5, k=1.0, n=5)) == math.inf

    def test_normal_sqrt(self):
        for m in (0.0, 1.0, 3.0):
            got = eta_limit(parse_model("normal"), GosParams(m=m, k=1.0, n=5))
            assert got == pytest.approx(math.sqrt(m + 1.0), rel=1e-12)

    def test_lognormal_inf(self):
        assert eta_limit(parse_model("lognormal"), GosParams(m=0.0, k=1.0, n=5)) == math.inf

    def test_logistic_laplace_one(self):
        for spec in ("logistic", "laplace"):
            assert eta_limit(parse_model(spec), GosParams(m=1.0, k=1.0, n=5)) == 1.0

    def test_beta_symmetric_is_one(self):
        got = eta_limit(parse_model("beta(alpha=2,beta=2)"), GosParams(m=0.0, k=1.0, n=5))
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_beta_constraint_enforced(self):
        with pytest.raises(UnsupportedCaseError):
            eta_limit(parse_model("beta(alpha=2,beta=3)"), GosParams(m=0.0, k=1.0, n=5))

    @pytest.mark.parametrize("spec,m,k", [
        ("cauchy", 0.0, 1.0),
        ("normal", 1.0, 1.0),
        ("beta(alpha=3,beta=2)", 0.5, 1.0),
        ("power(alpha=1.5)", 0.5, 1.0),
        ("logistic", 0.0, 1.0),
    ])
    def test_matches_norming_ratio_asymptotically(self, spec, m, k):
        """a_n / c_n from the constants drifts toward the tabulated limit."""
        model = parse_model(spec)
        eta = eta_limit(model, GosParams(m=m, k=k, n=10))
        gaps = []
        for n in (10**3, 10**5, 10**7):
            c = norming_constants(model, GosParams(m=m, k=k, n=n))
            gaps.append(abs(c.a / c.c - eta))
        # exact-ratio families sit at the float noise floor; others shrink
        assert gaps[2] <= max(gaps[0] + 1e-12, 1e-8)
        assert gaps[2] <= 0.2 * max(eta, 1.0)


class TestNormalRange:
    def test_breakpoint_value(self):
        assert normal_range_closed_form(LN4) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_lower_df_limit(self):
        assert normal_range_closed_form(-40.0) == pytest.approx(0.0, abs=1e-6)
        assert normal_range_closed_form(40.0) == pytest.approx(1.0, abs=1e-6)

    def test_continuity_at_breakpoint(self):
        assert abs(normal_range_closed_form(LN4 - 1e-6) - 2.0 / 3.0) < 1e-4
        assert abs(normal_range_closed_form(LN4 + 1e-6) - 2.0 / 3.0) < 1e-4

    @pytest.mark.parametrize("r", [-1.0, 0.0, 1.0, 2.0, 4.0])
    def test_integral_matches_closed_form(self, r):
        assert normal_range_integral(r) == pytest.approx(
            normal_range_closed_form(r), abs=1e-6
        )

    def test_general_machinery_matches(self):
        q = query("normal", 0.0, 1.0, "range")
        for r in (-1.0, LN4, 2.0):
            assert range_limit_df(q, r) == pytest.approx(
                normal_range_closed_form(r), abs=1e-6
            )

    def test_monotone_df(self):
        q = query("normal", 0.0, 1.0, "range")
        vals = [range_limit_df(q, r) for r in np.linspace(-2.0, 5.0, 15)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


class TestNormalMidrange:
    def test_logistic_closed_form(self):
        q = query("normal", 0.0, 1.0, "midrange")
        for v in np.linspace(-3.0, 3.0, 13):
            assert midrange_limit_df(q, v) == pytest.approx(
                1.0 / (1.0 + math.exp(-2.0 * v)), abs=1e-7
            )

    def test_midpoint(self):
        q = query("normal", 0.0, 1.0, "midrange")
        assert midrange_limit_df(q, 0.0) == pytest.approx(0.5, abs=1e-7)

    def test_single_integral_route(self):
        for v in (-1.0, 0.0, 0.7, 2.0):
            assert normal_midrange_integral(v) == pytest.approx(
                1.0 / (1.0 + math.exp(-2.0 * v)), abs=1e-9
            )


class TestCauchy:
    def test_m_positive_range_pinned_form(self):
        q = query("cauchy", 0.5, 1.0, "range")
        for r in (0.5, 1.0, 2.0):
            assert range_limit_df(q, r) == pytest.approx(
                -math.expm1(-1.0 / r), abs=1e-15
            )

    def test_m_positive_midrange_pinned_form(self):
        q = query("cauchy", 0.5, 1.0, "midrange")
        assert midrange_limit_df(q, -1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert midrange_limit_df(q, 1.0) == 1.0

    def test_m_positive_other_law_unsupported(self):
        q = query("cauchy", 0.5, 1.0, "range", law=IndexLaw.degenerate(1.0))
        with pytest.raises(UnsupportedCaseError):
            range_limit_df(q, 1.0)

    def test_m_negative_single_side_closed_form(self):
        m, k = -0.5, 1.0
        ell = k / (m + 1.0)
        q = query("cauchy", m, k, "range")
        for r in (0.4, 1.0, 3.0):
            want = geometric_max_mixture(ell, r ** -(m + 1.0))
            assert range_limit_df(q, r) == pytest.approx(want, abs=1e-7)

    def test_m_zero_range_is_df(self):
        q = query("cauchy", 0.0, 1.0, "range")
        vals = [range_limit_df(q, r) for r in np.linspace(0.1, 12.0, 10)]
        assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:]))
        assert range_limit_df(q, -0.5) == 0.0
        assert vals[-1] > 0.7

    def test_m_zero_midrange_is_df(self):
        q = query("cauchy", 0.0, 1.0, "midrange")
        vals = [midrange_limit_df(q, v) for v in np.linspace(-6.0, 6.0, 11)]
        assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:]))
        assert vals[0] < 0.15 and vals[-1] > 0.85


class TestSingleSidedFamilies:
    def test_pareto_spot_value(self):
        q = query("pareto(sigma=1)", 0.0, 1.0, "range")
        assert range_limit_df(q, 1.0) == pytest.approx(0.5, abs=1e-7)

    def test_pareto_general_closed_form(self):
        sigma, m, k = 2.0, 0.5, 2.0
        ell = k / (m + 1.0)
        q = query(f"pareto(sigma={sigma})", m, k, "range")
        for r in (0.7, 1.0, 2.0):
            want = geometric_max_mixture(ell, r ** (-sigma * (m + 1.0)))
            assert range_limit_df(q, r) == pytest.approx(want, abs=1e-7)

    def test_exponential_closed_form(self):
        m, k = 1.0, 2.0
        ell = k / (m + 1.0)
        q = query("exponential(sigma=1)", m, k, "range")
        for r in (-0.5, 0.5, 2.0):
            want = geometric_max_mixture(ell, math.exp(-r * (m + 1.0)))
            assert range_limit_df(q, r) == pytest.approx(want, abs=1e-7)

    def test_coincidence_of_range_and_midrange(self):
        for spec, m in [("pareto(sigma=2)", 0.5), ("lognormal", 0.0),
                        ("exponential(sigma=1)", 1.0), ("rayleigh(sigma=1)", 0.0),
                        ("cauchy", -0.5)]:
            qr = query(spec, m, 1.0, "range")
            qv = query(spec, m, 1.0, "midrange")
            for t in (-0.5, 0.5, 1.5, 3.0):
                assert range_limit_df(qr, t) == pytest.approx(
                    midrange_limit_df(qv, t), abs=1e-9
                )

    def test_degenerate_law_gives_fixed_limit(self):
        # with H degenerate at 1 the mixture collapses to Gamma-form
        m, k = 0.0, 1.0
        q = query("exponential(sigma=1)", m, k, "range", law=IndexLaw.degenerate(1.0))
        for r in (0.0, 1.0, 2.5):
            want = math.exp(-math.exp(-r))  # Gumbel, ell = 1
            assert range_limit_df(q, r) == pytest.approx(want, abs=1e-9)


class TestTwoSidedFamilies:
    def test_uniform_m0_range_support(self):
        q = query("uniform(theta=1)", 0.0, 1.0, "range")
        assert range_limit_df(q, 0.5) == pytest.approx(1.0, abs=1e-12)
        vals = [range_limit_df(q, r) for r in np.linspace(-8.0, -0.2, 10)]
        assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:]))

    def test_uniform_m0k1_closed_form(self):
        # inner integrals collapse: P(R <= r) = 1/(1-r) - r/(1-r)^2, r <= 0
        q = query("uniform(theta=1)", 0.0, 1.0, "range")
        for r in (-8.0, -3.0, -1.0, -0.25):
            want = 1.0 / (1.0 - r) - r / (1.0 - r) ** 2
            assert range_limit_df(q, r) == pytest.approx(want, abs=1e-7)

    def test_uniform_m_nonzero_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            range_limit_df(query("uniform(theta=1)", 0.5, 1.0, "range"), -1.0)

    def test_beta_range_is_df(self):
        q = query("beta(alpha=2,beta=2)", 0.0, 1.0, "range")
        vals = [range_limit_df(q, r) for r in np.linspace(-6.0, -0.1, 9)]
        assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:]))
        assert range_limit_df(q, 0.2) == pytest.approx(1.0, abs=1e-9)

    def test_logistic_range_is_df(self):
        q = query("logistic", 0.0, 1.0, "range")
        vals = [range_limit_df(q, r) for r in np.linspace(-2.0, 8.0, 9)]
        assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:]))
        assert vals[0] < 0.3 and vals[-1] > 0.9

    def test_logistic_m0k1_equals_normal_case(self):
        # both tails exponential with eta = 1, so the m=0, k=1 limit is the
        # same piecewise closed form as the standard-normal range
        q = query("logistic", 0.0, 1.0, "range")
        for r in (-1.0, 0.0, LN4, 2.0):
            assert range_limit_df(q, r) == pytest.approx(
                normal_range_closed_form(r), abs=1e-6
            )

    def test_unsupported_statistic_rejected(self):
        with pytest.raises(ValueError):
            RangeQuery(
                model=parse_model("normal"), params=GosParams(m=0.0, k=1.0, n=5),
                law=EXP_LAW, statistic="quotient",
            )
        q = query("normal", 0.0, 1.0, "range")
        with pytest.raises(ValueError):
            midrange_limit_df(q, 0.0)


GEO = IndexMode.parse("geometric")


class TestSimulationAgreement:
    @pytest.mark.parametrize("spec,m,k,stat,grid", [
        ("pareto(sigma=1)", 0.0, 1.0, "range", np.linspace(0.2, 8.0, 21)),
        ("exponential(sigma=1)", 1.0, 2.0, "range", np.linspace(-1.5, 3.0, 21)),
        ("cauchy", 0.0, 1.0, "range", np.linspace(0.3, 9.0, 21)),
        ("cauchy", 0.0, 1.0, "midrange", np.linspace(-4.0, 4.0, 21)),
        ("cauchy", -0.5, 1.0, "range", np.linspace(0.2, 9.0, 21)),
        ("uniform(theta=1)", 0.0, 1.0, "range", np.linspace(-5.0, -0.1, 21)),
        ("uniform(theta=1)", 0.0, 1.0, "midrange", np.linspace(-3.0, 3.0, 21)),
        ("beta(alpha=2,beta=2)", 0.0, 1.0, "range", np.linspace(-4.0, -0.1, 21)),
    ])
    def test_geometric_index_three_se(self, spec, m, k, stat, grid):
        q = query(spec, m, k, stat, n=500)
        rep = run_statistic_sim(q, GEO, grid, 20000, seed=1234)
        for e, a, se in zip(rep.empirical, rep.analytic, rep.standard_errors):
            assert abs(e - a) <= max(3.0 * se, 3e-4)

    @pytest.mark.parametrize("spec", ["normal", "lognormal", "rayleigh(sigma=1)"])
    def test_slow_gumbel_families_converge_monotonically(self, spec):
        # O(1/log n) convergence: not within 3 SE at n=500, but shrinking
        grid = np.linspace(-1.5, 4.0, 15)
        sups = []
        for n in (500, 5000, 50000):
            q = query(spec, 0.0, 1.0, "range", n=n)
            sups.append(run_statistic_sim(q, GEO, grid, 8000, seed=5).sup_distance)
        assert sups[2] < sups[0]

    def test_report_is_deterministic(self):
        q = query("pareto(sigma=1)", 0.0, 1.0, "range")
        a = run_statistic_sim(q, GEO, [0.5, 1.0, 2.0], 500, seed=3)
        b = run_statistic_sim(q, GEO, [0.5, 1.0, 2.0], 500, seed=3)
        assert a.to_json() == b.to_json()


class TestCrossModuleConsistency:
    def test_single_sided_range_equals_mixed_marginal(self):
        """Max-dominated ranges are the mixed upper marginal composed with
        the family's tail transform: two independent code paths."""
        from gosextreme.distributions import tail_transform
        from gosextreme.limitlaws import kappa
        from gosextreme.params import ExtremeSide
        from gosextreme.randomindex import mixture_marginal

        for spec, m, k in [("pareto(sigma=2)", 0.5, 2.0),
                           ("exponential(sigma=1)", 0.0, 1.0),
                           ("lognormal", 1.0, 1.0)]:
            model = parse_model(spec)
            params = GosParams(m=m, k=k, n=100)
            q = RangeQuery(model=model, params=params, law=EXP_LAW, statistic="range")
            up = tail_transform(model, ExtremeSide.UPPER)
            for t in (0.3, 1.0, 2.5):
                via_ranges = range_limit_df(q, t)
                via_mixture = mixture_marginal(
                    ExtremeSide.UPPER, params, 1, kappa(up, t), EXP_LAW
                )
                assert via_ranges == pytest.approx(via_mixture, abs=1e-7)

    def test_nondegenerate_law_moves_the_limit(self):
        # converse of the degeneracy equivalence: a non-degenerate index
        # law produces a visibly different df somewhere
        q_fix = query("exponential(sigma=1)", 0.0, 1.0, "range",
                      law=IndexLaw.degenerate(1.0))
        q_geo = query("exponential(sigma=1)", 0.0, 1.0, "range")
        sep = max(
            abs(range_limit_df(q_fix, t) - range_limit_df(q_geo, t))
            for t in (0.0, 1.0, 2.0)
        )
        assert sep >= 1e-2


def _example_queries(law, k=1.0):
    """Every (family, m, statistic) the `example` verb serves under `law`,
    with its default parameters at k, for m in {-0.5, 0, 1.2}."""
    from argparse import Namespace

    from gosextreme.cli import _EXAMPLE_FAMILIES, _example_model

    for family in _EXAMPLE_FAMILIES:
        for m in (-0.5, 0.0, 1.2):
            args = Namespace(m=m, k=k, sigma=1.0, theta=1.0, alpha=None, beta=2.0)
            model = _example_model(family, args)
            params = GosParams(m=m, k=k, n=500)
            try:
                eta_limit(model, params)
            except UnsupportedCaseError:
                continue
            if family == "cauchy" and m > 0.0 and law.kind != "unit_exponential":
                continue  # published for the geometric index only
            for statistic in ("range", "midrange"):
                yield RangeQuery(model=model, params=params, law=law, statistic=statistic)


def _sweep_failures(law, k):
    """What goes wrong over t from -4 to 10 in every example case at k."""
    grid = np.linspace(-4.0, 10.0, 29)
    failures = []
    for q in _example_queries(law, k):
        name = f"{q.model.label()} m={q.params.m} {q.statistic}"
        try:
            values = np.asarray(range_limit_df(q, grid) if q.statistic == "range"
                                else midrange_limit_df(q, grid))
        except Exception as exc:  # noqa: BLE001 - every failure is collected
            failures.append(f"{name}: {exc!r}")
            continue
        if not np.all((values >= 0.0) & (values <= 1.0)):
            failures.append(f"{name}: value outside [0, 1]")
        published = q.model.family == "cauchy" and q.params.m > 0.0
        if not published and np.min(np.diff(values)) < -1e-9:
            failures.append(f"{name}: decreasing by {-np.min(np.diff(values)):.2e}")
    return failures


SWEEP_LAWS = [
    EXP_LAW,
    IndexLaw.tabulated([(0.3, 0.0), (0.9, 0.2), (1.3, 0.6), (3.1, 1.0)]),
    IndexLaw.tabulated([(0.0, 0.0), (0.7, 0.3), (2.0, 1.0)]),
    IndexLaw.degenerate(1e-3),
    IndexLaw.degenerate(1e3),
]


class TestExtremeTSweep:
    """The range quadratures hold from t = -4 to 10 for every example case
    under laws that move the index weight far from the unit scale."""

    @pytest.mark.parametrize("law", SWEEP_LAWS, ids=lambda law: law.label())
    def test_sweep_has_no_failures(self, law):
        failures = _sweep_failures(law, 1.0)
        assert not failures, "\n".join(failures)

    @pytest.mark.parametrize("c", [1e-4, 1e-3])
    @pytest.mark.parametrize("k", [0.37, 0.59, 2.3])
    def test_fractional_ell_settles_without_quadpack(self, monkeypatch, k, c):
        # A point mass far below 1 puts the index weight next to the pair's
        # edge, where a non-integer ell makes the integrand singular.
        import scipy.integrate

        def refuse(*args, **kwargs):
            raise AssertionError("the range rule called scipy.integrate.quad")

        monkeypatch.setattr(scipy.integrate, "quad", refuse)
        failures = _sweep_failures(IndexLaw.degenerate(c), k)
        assert not failures, "\n".join(failures)

    @pytest.mark.parametrize("law", SWEEP_LAWS[1:], ids=lambda law: law.label())
    def test_fixed_rule_matches_the_adaptive_route(self, law):
        from gosextreme.ranges import RANGE_ABS_TOL, _limit_df
        from gosextreme.reference import adaptive_pair_df

        worst = 0.0
        for q in _example_queries(law):
            if math.isinf(q._eta) or q.params.m != 0.0:
                continue
            for t in (-2.5, 0.5, 3.0):
                worst = max(worst, abs(_limit_df(q, t) - adaptive_pair_df(q, t)))
        assert worst <= RANGE_ABS_TOL


def test_unsettled_point_raises_with_the_last_gap(monkeypatch):
    # the cauchy midrange at the pair's edge under a small point mass needs
    # more than 128 graded nodes
    from gosextreme import ranges

    monkeypatch.setattr(ranges, "_ORDERS", (64, 128))
    q = query("cauchy", 0.0, 2.3, "midrange", law=IndexLaw.degenerate(1e-3))
    with pytest.raises(ranges.QuadratureError, match="order 128") as info:
        midrange_limit_df(q, -2.5)
    assert ranges.RANGE_ABS_TOL / 10.0 < info.value.achieved < 1.0
