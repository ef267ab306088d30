import math

import numpy as np
import pytest

from gosextreme.params import ExtremeSide, GosParams, RankPair, Regime
from gosextreme.randomindex import (
    IndexLaw,
    h_cdf,
    load_tabulated_csv,
    mixture_df,
    mixture_marginal,
)
from gosextreme.reference import omega_ll, omega_lu_product, omega_uu

EXP_LAW = IndexLaw.unit_exponential()
DEG1 = IndexLaw.degenerate(1.0)


class TestIndexLaw:
    def test_h_cdf_exponential(self):
        assert h_cdf(EXP_LAW, 0.0) == 0.0
        assert h_cdf(EXP_LAW, math.log(2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_h_cdf_degenerate(self):
        assert h_cdf(DEG1, 2.0) == 1.0
        assert h_cdf(DEG1, 0.5) == 0.0
        assert h_cdf(IndexLaw.degenerate(2.0), 2.0) == 1.0

    def test_h_cdf_tabulated_interpolates(self):
        law = IndexLaw.tabulated([(0.5, 0.0), (1.5, 1.0)])
        assert h_cdf(law, 0.2) == 0.0
        assert h_cdf(law, 1.0) == pytest.approx(0.5)
        assert h_cdf(law, 7.0) == 1.0

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError):
            h_cdf(EXP_LAW, -0.1)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError, match="start at 0"):
            IndexLaw.tabulated([(0.5, 0.1), (1.5, 1.0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            IndexLaw.tabulated([(1.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="nondecreasing"):
            IndexLaw.tabulated([(0.0, 0.0), (1.0, 0.6), (2.0, 0.5), (3.0, 1.0)])
        with pytest.raises(ValueError, match="reach 1"):
            IndexLaw.tabulated([(0.0, 0.0), (1.0, 0.9)])
        with pytest.raises(ValueError):
            IndexLaw.tabulated([(0.0, 0.0)])
        with pytest.raises(ValueError):
            IndexLaw(kind="degenerate", c=-1.0)
        with pytest.raises(ValueError):
            IndexLaw(kind="weird")

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("z,H\n0.0,0.0\n0.5,0.1\n1.5,0.9\n2.0,1.0\n")
        law = load_tabulated_csv(path)
        assert law.kind == "tabulated"
        assert h_cdf(law, 1.0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("node", [(math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5)])
    def test_non_finite_node_rejected(self, node):
        with pytest.raises(ValueError, match="not finite"):
            IndexLaw.tabulated([(0.0, 0.0), node, (2.0, 1.0)])

    def test_csv_short_row_names_the_file(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("z,H\n0.5,0\n1.0\n")
        with pytest.raises(ValueError, match="h.csv.*two columns"):
            load_tabulated_csv(path)

    def test_csv_nan_node_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("z,H\n0.5,0\nnan,1\n")
        with pytest.raises(ValueError, match="not finite"):
            load_tabulated_csv(path)

    def test_csv_missing_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("0.0,0.0\n1.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_tabulated_csv(path)


class TestDegenerateReduction:
    def test_randomized_all_regimes(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(20):
            m = float(rng.uniform(-0.6, 1.5))
            k = float(rng.uniform(0.5, 3.0))
            params = GosParams(m=m, k=k, n=12)
            s = int(rng.integers(1, 3))
            r = s + int(rng.integers(1, 3))
            k1 = float(rng.uniform(0.2, 3.0))
            k2 = float(rng.uniform(0.0, k1))
            worst = max(worst, abs(
                mixture_df(params, RankPair(r, s, Regime.UPPER_UPPER), DEG1, k1, k2)
                - omega_uu(params, r, s, k1, k2)
            ))
            r2 = int(rng.integers(1, 3))
            s2 = r2 + int(rng.integers(1, 3))
            rho1 = float(rng.uniform(0.1, 2.0))
            rho2 = rho1 + float(rng.uniform(0.0, 2.0))
            worst = max(worst, abs(
                mixture_df(params, RankPair(r2, s2, Regime.LOWER_LOWER), DEG1, rho1, rho2)
                - omega_ll(r2, s2, rho1, rho2)
            ))
            worst = max(worst, abs(
                mixture_df(params, RankPair(r2, s, Regime.LOWER_UPPER), DEG1, rho1, k1)
                - omega_lu_product(params, r2, s, rho1, k1)
            ))
        assert worst <= 1e-10

    def test_degenerate_at_c_rescales(self):
        params = GosParams(m=0.0, k=1.0, n=12)
        law = IndexLaw.degenerate(2.0)
        got = mixture_marginal(ExtremeSide.UPPER, params, 1, 1.0, law)
        assert got == pytest.approx(math.exp(-2.0), abs=1e-12)


class TestClosedForms:
    def test_uu_marginal_slice_geometric(self):
        params = GosParams(m=0.0, k=1.0, n=100)
        for kval in (0.3, 1.0, 2.0):
            got = mixture_df(params, RankPair(2, 1, Regime.UPPER_UPPER), EXP_LAW, kval, 0.0)
            # R_r = 2 slice: int (1 - Gamma_2(z kappa)) e^-z dz has closed form
            want = 1.0 / (1.0 + kval) + kval / (1.0 + kval) ** 2
            assert got == pytest.approx(want, abs=1e-8)

    def test_shape_one_marginal(self):
        params = GosParams(m=0.0, k=1.0, n=100)
        got = mixture_marginal(ExtremeSide.UPPER, params, 1, 1.0, EXP_LAW)
        assert got == pytest.approx(0.5, abs=1e-8)

    def test_gumbel_slice_is_logistic(self):
        params = GosParams(m=0.0, k=1.0, n=100)
        sup = 0.0
        for x in np.linspace(-4.0, 4.0, 17):
            got = mixture_marginal(ExtremeSide.UPPER, params, 1, math.exp(-x), EXP_LAW)
            sup = max(sup, abs(got - 1.0 / (1.0 + math.exp(-x))))
        assert sup <= 1e-8

    def test_lower_marginal_half(self):
        params = GosParams(m=0.0, k=1.0, n=100)
        got = mixture_marginal(ExtremeSide.LOWER, params, 1, 1.0, EXP_LAW)
        assert got == pytest.approx(0.5, abs=1e-8)

    def test_ll_saturated_slice(self):
        params = GosParams(m=0.0, k=1.0, n=100)
        got = mixture_df(params, RankPair(1, 40, Regime.LOWER_LOWER), EXP_LAW, 1.0, math.inf)
        assert got == pytest.approx(0.5, abs=1e-8)

    def test_ll_zero_first_coordinate(self):
        params = GosParams(m=0.0, k=1.0, n=100)
        for law in (EXP_LAW, DEG1, IndexLaw.tabulated([(0.5, 0.0), (1.5, 1.0)])):
            pair = RankPair(1, 2, Regime.LOWER_LOWER)
            assert mixture_df(params, pair, law, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_lu_quarter(self):
        # one shared z: int (1 - e^-z) e^-z e^-z dz = 1/2 - 1/3 = 1/6
        params = GosParams(m=0.0, k=1.0, n=100)
        got = mixture_df(params, RankPair(1, 1, Regime.LOWER_UPPER), EXP_LAW, 1.0, 1.0)
        assert got == pytest.approx(1.0 / 6.0, abs=1e-8)

    def test_lu_first_factor_saturates(self):
        params = GosParams(m=0.0, k=1.0, n=100)
        got = mixture_df(params, RankPair(1, 1, Regime.LOWER_UPPER), EXP_LAW, math.inf, 1.0)
        want = mixture_marginal(ExtremeSide.UPPER, params, 1, 1.0, EXP_LAW)
        assert got == pytest.approx(want, abs=1e-10)

    def test_tabulated_uniform_law_closed_form(self):
        # H = U[0.5, 1.5]: int e^{-z c} dH = (e^{-c/2} - e^{-3c/2}) / c
        params = GosParams(m=0.0, k=1.0, n=100)
        law = IndexLaw.tabulated([(0.5, 0.0), (1.5, 1.0)])
        for c in (0.4, 1.0, 2.5):
            got = mixture_marginal(ExtremeSide.UPPER, params, 1, c, law)
            want = (math.exp(-0.5 * c) - math.exp(-1.5 * c)) / c
            assert got == pytest.approx(want, abs=1e-8)


class TestMixtureProperties:
    def test_uu_slice_matches_marginal(self):
        params = GosParams(m=0.7, k=1.3, n=12)
        for law in (EXP_LAW, IndexLaw.tabulated([(0.5, 0.0), (1.5, 1.0)])):
            for k1 in (0.4, 1.1):
                got = mixture_df(params, RankPair(3, 1, Regime.UPPER_UPPER), law, k1, 0.0)
                want = mixture_marginal(ExtremeSide.UPPER, params, 3, k1, law)
                assert got == pytest.approx(want, abs=1e-8)

    def test_ll_saturated_matches_marginal(self):
        params = GosParams(m=0.0, k=1.0, n=60)
        for law in (EXP_LAW, IndexLaw.tabulated([(0.5, 0.0), (1.5, 1.0)])):
            for rho1 in (0.4, 1.1):
                got = mixture_df(params, RankPair(1, 50, Regime.LOWER_LOWER), law, rho1, math.inf)
                want = mixture_marginal(ExtremeSide.LOWER, params, 1, rho1, law)
                assert got == pytest.approx(want, abs=1e-8)

    def test_uu_mixture_is_df(self):
        params = GosParams(m=0.0, k=1.0, n=12)
        kgrid = [0.0, 0.2, 0.5, 1.0, 2.0, 4.5, math.inf]  # decreasing in x
        vals, pair = {}, RankPair(2, 1, Regime.UPPER_UPPER)
        for k1 in kgrid:
            for k2 in kgrid:
                if k2 > k1:  # x <= y means kappa1 >= kappa2
                    continue
                vals[(k1, k2)] = mixture_df(params, pair, EXP_LAW, k1, k2)
        # monotone: smaller kappa (larger x) gives larger df value
        for k2 in kgrid[:-1]:
            seq = [vals[(k1, k2)] for k1 in kgrid if k1 >= k2]
            assert all(a >= b - 1e-8 for a, b in zip(seq, seq[1:]))
        assert vals[(math.inf, math.inf)] == 0.0
        assert vals[(0.0, 0.0)] == 1.0

    def test_uniqueness_of_tail_exponent(self):
        params = GosParams(m=0.0, k=1.0, n=12)
        sep = 0.0
        for x in (0.5, 1.0, 2.0, 4.0):
            a = mixture_marginal(ExtremeSide.UPPER, params, 1, x**-1.0, EXP_LAW)
            b = mixture_marginal(ExtremeSide.UPPER, params, 1, x**-2.0, EXP_LAW)
            sep = max(sep, abs(a - b))
        assert sep >= 1e-4
