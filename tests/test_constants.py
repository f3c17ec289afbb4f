import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncrel import constants as C
from uncrel.errors import DomainError

PI = math.pi

# published grid of the Daubechies factor, six significant digits
B_REFERENCE = {
    (1, 1): 0.165728, (2, 1): 0.405724, (3, 1): 0.537513, (4, 1): 0.618094,
    (1, 2): 0.021331, (2, 2): 0.165728, (3, 2): 0.303977, (4, 2): 0.405724,
    (1, 3): 0.002056, (2, 3): 0.061935, (3, 3): 0.165728, (4, 3): 0.262190,
    (1, 4): 0.000158, (2, 4): 0.021331, (3, 4): 0.086812, (4, 4): 0.165728,
}


class TestSystemConfig:
    def test_spin(self):
        assert C.SystemConfig(d=3, N=2.0, q=2).s == 0.5
        assert C.SystemConfig(d=1, N=1.0, q=1).s == 0.0

    @pytest.mark.parametrize("kwargs", [dict(d=0), dict(d=3, N=0.0),
                                        dict(d=3, N=-1.0), dict(d=3, q=0)])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            C.SystemConfig(**kwargs)


class TestThakkarCoefficient:
    def test_zero_order(self):
        assert C.thakkar_coefficient(0.0) == pytest.approx(1.0, rel=1e-15)

    def test_order_two(self):
        exact = (3.0 / 5.0) * (3.0 * PI ** 2) ** (2.0 / 3.0)
        assert C.thakkar_coefficient(2.0) == pytest.approx(exact, rel=1e-14)
        assert C.thakkar_coefficient(2.0) == pytest.approx(5.742, abs=5e-4)

    def test_order_minus_one(self):
        exact = 1.5 * (3.0 * PI ** 2) ** (-1.0 / 3.0)
        assert C.thakkar_coefficient(-1.0) == pytest.approx(exact, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            C.thakkar_coefficient(-3.0)


class TestSemiclassicalConstant:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_zero_order_collapses(self, d):
        assert C.semiclassical_constant(d, 0.0) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("k", [-2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
    def test_d3_reduction_to_thakkar(self, k):
        lhs = C.semiclassical_constant(3, k)
        rhs = 2.0 ** (k / 3.0) * C.thakkar_coefficient(k)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_one_dimensional_k2(self):
        assert C.semiclassical_constant(1, 2.0) == pytest.approx(PI ** 2 / 3.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            C.semiclassical_constant(3, -3.0)


class TestDaubechiesFactor:
    def test_reference_grid(self):
        for (d, k), ref in B_REFERENCE.items():
            assert C.daubechies_factor(d, float(k)) == pytest.approx(ref, abs=1e-5)

    def test_depends_only_on_ratio(self):
        diag = [C.daubechies_factor(d, float(d)) for d in (1, 2, 3, 4)]
        for a, b in zip(diag, diag[1:]):
            assert abs(a - b) <= 1e-8
        assert diag[0] == pytest.approx(0.165728, abs=1e-5)

    @pytest.mark.parametrize("k,expected", [
        # rho = d/k = 80, 160, 400; from the stationarity condition
        # a e^a E1(a) = rho / (1 + rho) solved with mpmath at 40 digits
        (0.5, 0.961637503993198), (0.25, 0.978568378392888), (0.1, 0.990251290524236)])
    def test_large_ratio(self, k, expected):
        assert C.daubechies_factor(40, k) == pytest.approx(expected, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            C.daubechies_factor(3, 0.0)
        with pytest.raises(DomainError):
            C.daubechies_factor(3, -1.0)

    def test_rigorous_constant_below_semiclassical(self):
        for (d, k) in B_REFERENCE:
            assert C.rigorous_constant(d, float(k)) < C.semiclassical_constant(d, float(k))

    def test_rigorous_is_product(self):
        assert C.rigorous_constant(3, 2.0) == pytest.approx(
            C.semiclassical_constant(3, 2.0) * C.daubechies_factor(3, 2.0), rel=1e-15)


class TestHeisenbergCoefficients:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_alpha2_k2_reduces_to_variance_product_constant(self, d):
        lhs = C.heisenberg_coeff(d, 2.0, 2.0)
        rhs = C.heisenberg_product_constant(d)
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_electron_anchor(self):
        assert C.heisenberg_rhs(3, 2.0, 2.0, N=1.0, q=2) == pytest.approx(1.17005, abs=2e-4)
        assert C.heisenberg_rhs(3, 2.0, 2.0, N=1.0, q=1) == pytest.approx(1.85733, abs=2e-4)

    def test_table_cells(self):
        cell_11 = (9.0 / 49.0) * (45.0 * PI) ** (1.0 / 3.0)
        assert C.heisenberg_rhs(3, 1.0, 1.0, N=1.0, q=2) == pytest.approx(cell_11, rel=1e-12)
        assert C.heisenberg_rhs(3, 3.0, 3.0, N=1.0, q=2) == pytest.approx(PI / 2.0, rel=1e-12)

    def test_exponent(self):
        assert C.heisenberg_exponent(3, 2.0, 2.0) == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert C.heisenberg_exponent(3, 4.0, 2.0) == pytest.approx(13.0 / 6.0, rel=1e-15)

    def test_n_and_q_scaling(self):
        base = C.heisenberg_rhs(3, 2.0, 2.0, N=1.0, q=1)
        assert C.heisenberg_rhs(3, 2.0, 2.0, N=2.0, q=1) == pytest.approx(
            base * 2.0 ** (8.0 / 3.0), rel=1e-13)
        assert C.heisenberg_rhs(3, 2.0, 2.0, N=1.0, q=2) == pytest.approx(
            base * 2.0 ** (-2.0 / 3.0), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            C.entropic_lower_coeff(3, -1.0, 2.0)
        with pytest.raises(DomainError):
            C.entropic_lower_coeff(3, 2.0, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.3, 6.0), k=st.floats(0.3, 5.0), d=st.integers(1, 5))
    def test_coefficient_positive_and_scale_free(self, alpha, k, d):
        value = C.heisenberg_coeff(d, alpha, k)
        assert value > 0.0
        assert math.isfinite(value)


class TestNegativeOrderBound:
    def test_window(self):
        assert C.negative_order_window(3, -1.0) == pytest.approx(1.5, rel=1e-15)
        assert C.negative_order_window(3, -2.0) == pytest.approx(6.0, rel=1e-15)

    def test_closed_form_inside_window(self):
        cv = C.entropic_upper_coeff_closed(3, 2.0, -1.0)
        assert cv.valid
        # 2^(4/3) pi^(2/3) / sqrt(3), the exact coefficient behind the
        # 1.51309 electron-system anchor
        assert cv.value == pytest.approx(2.0 ** (4.0 / 3.0) * PI ** (2.0 / 3.0) / math.sqrt(3.0),
                                         rel=1e-12)

    def test_closed_form_outside_window_flagged(self):
        cv = C.entropic_upper_coeff_closed(3, 1.0, -1.0)
        assert not cv.valid
        assert "window" in cv.domain_note
        with pytest.raises(DomainError):
            cv.require_valid()

    @pytest.mark.parametrize("alpha,anchor", [
        (2.0, 1.51309), (3.0, 1.2407), (4.0, 1.14308)])
    def test_electron_anchors(self, alpha, anchor):
        value = C.negative_order_rhs(3, alpha, -1.0, N=1.0, q=2).require_valid()
        assert value == pytest.approx(anchor, abs=1e-4)

    def test_electron_anchor_exact_forms(self):
        assert C.negative_order_rhs(3, 2.0, -1.0, q=2).value == pytest.approx(
            3.0 ** (1.0 / 6.0) * 2.0 ** (1.0 / 3.0), rel=1e-10)
        assert C.negative_order_rhs(3, 3.0, -1.0, q=2).value == pytest.approx(
            (6.0 / PI) ** (1.0 / 3.0), rel=1e-10)
        assert C.negative_order_rhs(3, 4.0, -1.0, q=2).value == pytest.approx(
            math.sqrt(2.0) * (3.0 / 5.0) ** (5.0 / 12.0), rel=1e-10)

    def test_strict_and_batch_modes(self):
        with pytest.raises(DomainError):
            C.negative_order_rhs(3, 1.0, -1.0, q=2)
        cv = C.negative_order_rhs(3, 1.0, -1.0, q=2, strict=False)
        assert not cv.valid and "window" in cv.domain_note


class TestZumbachConstant:
    def test_d3_closed_form(self):
        exact = 9.0 * (4.0 * PI) ** 2 * (2.0 / 5.0) ** (2.0 / 3.0)
        assert C.zumbach_constant(3) == pytest.approx(exact, rel=1e-10)

    def test_d2(self):
        # 5 d^2/(d+2) = 5 and (2/(d+2))^(2/d) = 1/2 at d = 2
        assert C.zumbach_constant(2) == pytest.approx((4.0 * PI) ** 2 * 2.5, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            C.zumbach_constant(6)
        with pytest.raises(DomainError):
            C.zumbach_constant(0)


class TestVarianceProductConstant:
    def test_values(self):
        assert C.heisenberg_product_constant(3) == pytest.approx(1.85733, abs=1e-5)
        assert C.heisenberg_product_constant(1) == pytest.approx(0.25, rel=1e-15)
        assert C.heisenberg_product_constant(2) == pytest.approx(8.0 / 9.0, rel=1e-14)


class TestFisherProductRhs:
    def test_d3_large_n_coefficient(self):
        cfg = C.SystemConfig(d=3, N=1.0, q=2)
        independent = 5.0 / (3072.0 * PI ** 4) * (5.0 / 3.0) ** (1.0 / 3.0)
        assert abs(C.fisher_product_rhs("d3_large_N", cfg) - independent) < 1e-9
        assert independent == pytest.approx(1.98107e-5, abs=1e-9)

    def test_d3_electron_at_n1(self):
        cfg = C.SystemConfig(d=3, N=1.0, q=2)
        expected = 3.0 ** (8.0 / 3.0) / 4.0 / (1.0 + 144.0 * PI ** 2 / 5.0 ** (2.0 / 3.0)) ** 2
        assert C.fisher_product_rhs("d3_electron", cfg) == pytest.approx(expected, rel=1e-12)

    def test_electronic_equals_general_at_q2(self):
        for n in (1.0, 4.0, 25.0):
            cfg = C.SystemConfig(d=3, N=n, q=2)
            assert C.fisher_product_rhs("electronic", cfg) == pytest.approx(
                C.fisher_product_rhs("general", cfg), rel=1e-12)

    def test_large_n_limit(self):
        cfg = C.SystemConfig(d=3, N=1e6, q=2)
        ratio = C.fisher_product_rhs("large_N_fermion", cfg) / C.fisher_product_rhs("general", cfg)
        assert ratio == pytest.approx(1.0, abs=1e-3)

    def test_domains(self):
        with pytest.raises(DomainError):
            C.fisher_product_rhs("general", C.SystemConfig(d=6, N=1.0, q=2))
        with pytest.raises(DomainError):
            C.fisher_product_rhs("electronic", C.SystemConfig(d=3, N=1.0, q=1))
        with pytest.raises(DomainError):
            C.fisher_product_rhs("d3_electron", C.SystemConfig(d=2, N=1.0, q=2))
        with pytest.raises(DomainError):
            C.fisher_product_rhs("nonsense", C.SystemConfig(d=3, N=1.0, q=2))
