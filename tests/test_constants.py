import ast
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncrel import constants as C
from uncrel import varoracle
from uncrel.errors import ConvergenceError, DomainError

PI = math.pi


def _extremal_G_mpmath(d, alpha, k):
    """W_{1+k/d} of C (a^alpha + r^alpha)^(-t), t = -d/k, on [0, inf) with
    N = <r^alpha> = 1, from the Beta reductions of the three integrals at
    30 digits: int_0^inf r^(d-1) (a^alpha + r^alpha)^(-t) dr
    = a^(d - alpha t) B(d/alpha, t - d/alpha) / alpha."""
    with mpmath.workdps(30):
        d, alpha, k = mpmath.mpf(d), mpmath.mpf(alpha), mpmath.mpf(k)

        def log_beta(a, b):
            return mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)

        log_omega = mpmath.log(2) + (d / 2) * mpmath.log(mpmath.pi) - mpmath.loggamma(d / 2)
        t, m = -d / k, 1 + k / d
        b0 = log_beta(d / alpha, t - d / alpha)
        log_a = (b0 - log_beta(d / alpha + 1, t - d / alpha - 1)) / alpha
        log_c = -(log_omega + (d - alpha * t) * log_a + b0 - mpmath.log(alpha))
        return float(mpmath.exp(log_omega + m * log_c + (d - alpha * t * m) * log_a
                                + log_beta(d / alpha, t * m - d / alpha) - mpmath.log(alpha)))

# published grid of the Daubechies factor, six significant digits
B_REFERENCE = {
    (1, 1): 0.165728, (2, 1): 0.405724, (3, 1): 0.537513, (4, 1): 0.618094,
    (1, 2): 0.021331, (2, 2): 0.165728, (3, 2): 0.303977, (4, 2): 0.405724,
    (1, 3): 0.002056, (2, 3): 0.061935, (3, 3): 0.165728, (4, 3): 0.262190,
    (1, 4): 0.000158, (2, 4): 0.021331, (3, 4): 0.086812, (4, 4): 0.165728,
}

# daubechies_factor(d, k).hex() on the 16 cells of Table 1, then on 50
# ratios rho = d/k spread geometrically over [0.25, 400], recorded from the
# Newton solve of the stationarity equation; test_matches_mpmath holds
# the values they pin to 5e-15 of a 30-digit reference
B_GOLDEN = [
    (1, 1.0, '0x1.5369461ae3741p-3'),
    (2, 1.0, '0x1.9f7610607da14p-2'),
    (3, 1.0, '0x1.1334e53dd5e13p-1'),
    (4, 1.0, '0x1.3c76c558ef9dap-1'),
    (1, 2.0, '0x1.5d7e07739f4bep-6'),
    (2, 2.0, '0x1.5369461ae3741p-3'),
    (3, 2.0, '0x1.3745d65f9254bp-2'),
    (4, 2.0, '0x1.9f7610607da14p-2'),
    (1, 3.0, '0x1.0d8494ed2d2b4p-9'),
    (2, 3.0, '0x1.fb5f702dd07cbp-5'),
    (3, 3.0, '0x1.5369461ae3741p-3'),
    (4, 3.0, '0x1.0c7b8bbbb7cdfp-2'),
    (1, 4.0, '0x1.4ad16ef14d9c3p-13'),
    (2, 4.0, '0x1.5d7e07739f4bep-6'),
    (3, 4.0, '0x1.6394e29fad74dp-4'),
    (4, 4.0, '0x1.5369461ae3741p-3'),
    (1, 4.0, '0x1.4ad16ef14d9c3p-13'),
    (8, 27.527056520763338, '0x1.64770bc4997afp-11'),
    (5, 14.799586732369121, '0x1.2969ee8897823p-9'),
    (2, 5.0923632558233, '0x1.92066f73d1a02p-8'),
    (9, 19.71249907040246, '0x1.c8f710bbb3c26p-7'),
    (6, 11.304730751592981, '0x1.c27413fdf1374p-6'),
    (3, 4.862280661736116, '0x1.8b01a3f6b3358p-5'),
    (10, 13.942111937023395, '0x1.3aa93f42aec4dp-4'),
    (7, 8.39530350988989, '0x1.cf4fd1b076df8p-4'),
    (4, 4.1267498968875325, '0x1.3fb8409fca973p-3'),
    (1, 0.8874787317084167, '0x1.a26c9d1748a52p-3'),
    (8, 6.107419302178237, '0x1.0619982317988p-2'),
    (5, 3.2835796157629162, '0x1.3cc43de45c517p-2'),
    (2, 1.1298410209191516, '0x1.73a927fec19e6p-2'),
    (9, 4.373605918451029, '0x1.a986e36cccb6bp-2'),
    (6, 2.508177027432219, '0x1.dd6cfdee1053cp-2'),
    (3, 1.0787926687219822, '0x1.075b0b83948a5p-1'),
    (10, 3.0933319548015756, '0x1.1e7e1baf34d4dp-1'),
    (7, 1.8626633278160754, '0x1.3405b42a6c513p-1'),
    (4, 0.9156006911418966, '0x1.47ea78a096bc7p-1'),
    (1, 0.196904624808695, '0x1.5a3233a5ad74cp-1'),
    (8, 1.3550511840771613, '0x1.6aeb77b0f72a6p-1'),
    (5, 0.7285267682152208, '0x1.7a2a4e70a4e84p-1'),
    (2, 0.25067746906936794, '0x1.8805d049d6767p-1'),
    (9, 0.9703705583748367, '0x1.9496756c136fcp-1'),
    (6, 0.556488441801433, '0x1.9ff4f3bf233b9p-1'),
    (3, 0.23935138735343073, '0x1.aa39837310f8fp-1'),
    (10, 0.6863165800001048, '0x1.b37b6bcdc0b95p-1'),
    (7, 0.4132685219424973, '0x1.bbd0c141232dfp-1'),
    (4, 0.2031440350314901, '0x1.c34e4423d2e22p-1'),
    (1, 0.04368716667318558, '0x1.ca07546283061p-1'),
    (8, 0.300644776561197, '0x1.d00df23ffa3cdp-1'),
    (5, 0.161638003067819, '0x1.d572c6ed4cb27p-1'),
    (2, 0.05561773057938964, '0x1.da4531a573b1cp-1'),
    (9, 0.21529580810842208, '0x1.de93573affefcp-1'),
    (6, 0.12346791413508235, '0x1.e26a32d8c3008p-1'),
    (3, 0.053104816420268215, '0x1.e5d5a739cc2cbp-1'),
    (10, 0.15227284199223795, '0x1.e8e08fec1e08dp-1'),
    (7, 0.09169175592713487, '0x1.eb94d25eea54fp-1'),
    (4, 0.045071502640969256, '0x1.edfb6e95f39cap-1'),
    (1, 0.009692857817763238, '0x1.f01c8f689dd27p-1'),
    (8, 0.06670396124932286, '0x1.f1ff9a39bebf6p-1'),
    (5, 0.0358625724896273, '0x1.f3ab3e18b93eap-1'),
    (2, 0.012339888248774288, '0x1.f525823eb9749p-1'),
    (9, 0.04776761268055028, '0x1.f673d3dcf4fa4p-1'),
    (6, 0.027393786960821644, '0x1.f79b1333027b1p-1'),
    (3, 0.011782348781066987, '0x1.f89f9fe6c3696p-1'),
    (10, 0.033784727171226867, '0x1.f9856499e5857p-1'),
    (7, 0.02034362081458286, '0x1.fa4fe1bb8fd7ep-1'),
    (4, 0.01, '0x1.fb0237973f2ccp-1'),
]


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

    @pytest.mark.parametrize("fn", [C.daubechies_factor, C.semiclassical_constant,
                                    C.rigorous_constant])
    @pytest.mark.parametrize("d,k", [(True, 1.0), (2.5, 1.0), (0, 1.0), ("3", 1.0),
                                     (3, math.nan), (3, math.inf), (3, -math.inf), (3, True)])
    def test_bad_input_rejected_before_solving(self, monkeypatch, fn, d, k):
        def no_solve(rho):
            raise AssertionError("solved on a bad input")

        monkeypatch.setattr(C, "_daubechies_ratio", no_solve)
        with pytest.raises(DomainError):
            fn(d, k)

    def test_ratio_beyond_overflow_rejected(self, monkeypatch):
        monkeypatch.setattr(C, "_daubechies_ratio", lambda rho: pytest.fail("solved"))
        with pytest.raises(DomainError, match="d/k"):
            C.daubechies_factor(1, 1e-301)
        with pytest.raises(DomainError, match="d/k"):
            C.daubechies_factor(3, 5e-324)  # d/k overflows to inf

    def test_golden_bits(self):
        assert [(d, k, C.daubechies_factor(d, k).hex()) for d, k, _ in B_GOLDEN] == B_GOLDEN

    def test_rigorous_constant_below_semiclassical(self):
        for (d, k) in B_REFERENCE:
            assert C.rigorous_constant(d, float(k)) < C.semiclassical_constant(d, float(k))

    def test_rigorous_is_product(self):
        assert C.rigorous_constant(3, 2.0) == pytest.approx(
            C.semiclassical_constant(3, 2.0) * C.daubechies_factor(3, 2.0), rel=1e-15)


def _mpmath_daubechies(rho, dps=30):
    """B(rho) at dps digits: the root of (1 + rho) a e^a E1(a) = rho by
    mpmath's bracketing Anderson-Bjorck solver, then the objective there."""
    with mpmath.workdps(dps):
        rho = mpmath.mpf(rho)

        def excess(a):
            return (1 + rho) * a * mpmath.exp(a) * mpmath.e1(a) - rho

        a = mpmath.findroot(excess, (rho / 1000, 2 * rho + 10), solver="anderson")
        inner = mpmath.exp(-a) - a * mpmath.e1(a)
        return float(mpmath.exp(-(mpmath.loggamma(rho) - rho * mpmath.log(a)
                                  - mpmath.log(inner)) / rho))


# rho at which the stationary point crosses a = 1, where exp_e1_scaled
# switches from its power series to the continued fraction
RHO_SWITCH = float(mpmath.e * mpmath.e1(1) / (1 - mpmath.e * mpmath.e1(1)))


class TestDaubechiesSolve:
    """B(rho) from the Newton solve of a S / (1 - a S) = rho, S = e^a E1(a)."""

    @pytest.fixture
    def e1_calls(self, monkeypatch):
        """Arguments of every e^a E1(a) evaluation, by either branch."""
        calls = []
        for name in ("exp_e1_scaled", "e1_fraction_tail"):
            fn = getattr(C, name)
            monkeypatch.setattr(C, name, lambda a, fn=fn: calls.append(a) or fn(a))
        return calls

    def test_matches_mpmath(self):
        # 400 rho log-spaced over [0.25, 400], as d = 1 over k = 1/rho
        ks = [1.0 / rho for rho in np.geomspace(0.25, 400.0, 400).tolist()]
        assert sum(1.0 / k >= 80.0 for k in ks) >= 50
        worst = max((abs(C.daubechies_factor(1, k) / _mpmath_daubechies(1.0 / k) - 1.0), k)
                    for k in ks)
        assert worst[0] <= 5e-15, worst

    def test_fresh_ratio_costs_few_e1_evaluations(self, e1_calls):
        per_rho = {}
        for rho in np.geomspace(0.25, 40.0, 50).tolist() + [80.0, 400.0, 1e4]:
            e1_calls.clear()
            C.daubechies_factor(2, 2.0 / rho)
            per_rho[rho] = len(e1_calls)
        assert max(per_rho.values()) <= 6, per_rho

    def test_spent_budget_raises(self, monkeypatch, e1_calls):
        monkeypatch.setattr(C, "_NEWTON_STEPS", 2)
        with pytest.raises(ConvergenceError, match="Newton"):
            C.daubechies_factor(3, 0.7)
        assert len(e1_calls) == 2

    @pytest.mark.parametrize("k", [1e-20, 1e-100, 1e-300])
    def test_huge_ratio_is_one_to_rounding(self, k):
        # 1 - B is about ln(rho) / rho here, below an ulp of 1
        b = C.daubechies_factor(1, k)
        assert b == pytest.approx(1.0, abs=1e-12)
        assert b <= 1.0

    @pytest.mark.parametrize("rho", [1e3, 1e4, 3.7e6, 1e8, 1e12, 1e15, 5e15, 1e20, 1e50])
    def test_large_ratio_within_an_ulp(self, rho):
        # lgamma(rho) and rho ln a cancel to ~1/(2 rho) of their size, so
        # the reference carries log10(rho) more digits
        ref = _mpmath_daubechies(rho, dps=40 + int(math.log10(rho)))
        assert abs(C._daubechies_ratio(rho) - ref) <= math.ulp(ref)

    def test_large_ratio_at_most_one_and_non_decreasing(self):
        values = [C._daubechies_ratio(rho) for rho in np.geomspace(1e4, 1e300, 20000).tolist()]
        assert all(0.0 < b <= 1.0 for b in values)
        assert all(b0 <= b1 for b0, b1 in zip(values, values[1:]))

    def test_non_decreasing_in_rho(self):
        rng = random.Random(19260527)
        rhos = sorted(10.0 ** rng.uniform(-2.0, 4.0) for _ in range(2000))
        values = [C.daubechies_factor(1, 1.0 / rho) for rho in rhos]
        assert all(0.0 < b < 1.0 for b in values)
        assert all(b0 <= b1 for b0, b1 in zip(values, values[1:]))

    def test_continuous_across_series_switch(self):
        # B moves by about one ulp per ulp of rho here, so a jump between
        # the two branches shows as a miss against the reference, held to
        # the bound of test_matches_mpmath
        rhos = [RHO_SWITCH * (1.0 - 1e-9), RHO_SWITCH * (1.0 + 1e-9)]
        rho = RHO_SWITCH
        for _ in range(4):
            rho = math.nextafter(rho, 0.0)
        for _ in range(9):
            rhos.append(rho)
            rho = math.nextafter(rho, math.inf)
        for rho in rhos:
            ref = _mpmath_daubechies(rho)
            assert abs(C._daubechies_ratio(rho) / ref - 1.0) <= 5e-15, rho


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
        value = C.entropic_upper_coeff_closed(3, 2.0, -1.0)
        # 2^(4/3) pi^(2/3) / sqrt(3), the exact coefficient behind the
        # 1.51309 electron-system anchor
        assert value == pytest.approx(2.0 ** (4.0 / 3.0) * PI ** (2.0 / 3.0) / math.sqrt(3.0),
                                      rel=1e-12)

    def test_closed_form_outside_window_raises(self):
        with pytest.raises(DomainError, match="window"):
            C.entropic_upper_coeff_closed(3, 1.0, -1.0)

    def test_positive_order_raises(self):
        with pytest.raises(DomainError, match="negative-order bounds require -d < k < 0"):
            C.negative_order_window(3, 1.0)
        with pytest.raises(DomainError, match="entropic_upper_coeff_closed requires -d < k < 0"):
            C.entropic_upper_coeff_closed(3, 2.0, 1.0)

    def test_coefficient_matches_mpmath(self):
        # 240 seeded points over d up to 40 and alpha from 1.0005 to 60
        # windows, plus a d = 12 point a quadrature of the extremal density
        # missed by 1.2e-6 and two whose tails need over 1023 ladder rungs
        rng = random.Random(20150527)
        points = [(12, 783.1658228939186, -11.605049332100737),
                  (4, 2.283852802051622, -1.4492822413337103),
                  (1, 0.0436724601369413, -0.04139794150156753)]
        for _ in range(240):
            d = rng.choice((1, 2, 3, 4, 5, 8, 12, 20, 40))
            k = -d * rng.uniform(0.005, 0.995)
            points.append((d, C.negative_order_window(d, k) * rng.uniform(1.0005, 60.0), k))
        worst = max((abs(C.negative_order_rhs(d, alpha, k) / C.semiclassical_constant(d, k)
                         / _extremal_G_mpmath(d, alpha, k) - 1.0), (d, alpha, k))
                    for d, alpha, k in points)
        assert worst[0] <= 1e-12, worst

    @pytest.mark.parametrize("d,k", [(5, -3.5), (2, -1.8), (3, -1.0), (1, -0.5),
                                     (12, -11.605049332100737), (40, -39.5)])
    def test_near_window_finite_or_domain_error(self, d, k):
        # near the window the Beta argument and the base
        # alpha + alpha k / d + k lose their digits; one ulp above it at
        # d = 5, k = -3.5 the base rounds to 0 while the Beta argument is
        # still positive
        alpha = C.negative_order_window(d, k)
        for _ in range(1000):
            alpha = math.nextafter(alpha, -math.inf)
        for _ in range(2001):
            for fn in (C.entropic_upper_coeff_closed, C.negative_order_rhs):
                try:
                    assert math.isfinite(fn(d, alpha, k)), (fn.__name__, alpha)
                except DomainError:
                    pass
            alpha = math.nextafter(alpha, math.inf)

    @pytest.mark.parametrize("alpha,anchor", [
        (2.0, 1.51309), (3.0, 1.2407), (4.0, 1.14308)])
    def test_electron_anchors(self, alpha, anchor):
        value = C.negative_order_rhs(3, alpha, -1.0, N=1.0, q=2)
        assert value == pytest.approx(anchor, abs=1e-4)

    def test_electron_anchor_exact_forms(self):
        assert C.negative_order_rhs(3, 2.0, -1.0, q=2) == pytest.approx(
            3.0 ** (1.0 / 6.0) * 2.0 ** (1.0 / 3.0), rel=1e-10)
        assert C.negative_order_rhs(3, 3.0, -1.0, q=2) == pytest.approx(
            (6.0 / PI) ** (1.0 / 3.0), rel=1e-10)
        assert C.negative_order_rhs(3, 4.0, -1.0, q=2) == pytest.approx(
            math.sqrt(2.0) * (3.0 / 5.0) ** (5.0 / 12.0), rel=1e-10)

    def test_outside_window_raises(self):
        with pytest.raises(DomainError, match="window"):
            C.negative_order_rhs(3, 1.0, -1.0, q=2)


def test_constants_imports_only_errors_and_mathcore():
    # constants is the bottom of the evaluation path: an import of the
    # densities, functionals or the quadrature oracle would be a cycle
    tree = ast.parse(Path(C.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("uncrel")):
            module = (node.module or "").removeprefix("uncrel.")
            imported.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            imported.update(a.name.removeprefix("uncrel.") for a in node.names
                            if a.name.startswith("uncrel"))
    assert imported <= {"errors", "mathcore"}, imported


class TestTypedRejection:
    """NaN, infinities and bools fail at entry with a DomainError naming
    the argument, before any density is built or integrated."""

    @pytest.mark.parametrize("call,argument", [
        pytest.param(lambda: varoracle.minimizer_density(3, math.nan, 2.0), "alpha",
                     id="minimizer_density-alpha-nan"),
        pytest.param(lambda: varoracle.minimizer_density(3, 2.0, 2.0, N=math.nan),
                     "particle count", id="minimizer_density-N-nan"),
        pytest.param(lambda: varoracle.maximizer_density(3, math.inf, -1.0), "alpha",
                     id="maximizer_density-alpha-inf"),
        pytest.param(lambda: varoracle.extremal_F(3, math.nan, 2.0), "alpha",
                     id="extremal_F-alpha-nan"),
        pytest.param(lambda: varoracle.extremal_F(3, True, 2.0), "alpha",
                     id="extremal_F-alpha-bool"),
        pytest.param(lambda: varoracle.extremal_G(True, 2.0, -1.0), "dimension",
                     id="extremal_G-d-bool"),
        pytest.param(lambda: C.heisenberg_rhs(3, 2.0, 2.0, N=math.nan), "particle count",
                     id="heisenberg_rhs-N-nan"),
        pytest.param(lambda: C.heisenberg_rhs(3, 2.0, 2.0, q=True), "spin multiplicity",
                     id="heisenberg_rhs-q-bool"),
        pytest.param(lambda: C.negative_order_rhs(3, 2.0, -1.0, N=math.nan), "particle count",
                     id="negative_order_rhs-N-nan"),
        pytest.param(lambda: C.entropic_lower_coeff(3, math.nan, 2.0), "alpha",
                     id="entropic_lower_coeff-alpha-nan"),
        pytest.param(lambda: C.entropic_lower_coeff(True, 2.0, 2.0), "dimension",
                     id="entropic_lower_coeff-d-bool"),
        pytest.param(lambda: C.entropic_upper_coeff_closed(3, math.nan, -1.0), "alpha",
                     id="entropic_upper_coeff_closed-alpha-nan"),
        pytest.param(lambda: C.thakkar_coefficient(math.nan), "momentum order",
                     id="thakkar_coefficient-k-nan"),
    ])
    def test_bad_scalar_rejected(self, call, argument):
        with pytest.raises(DomainError, match=argument):
            call()


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
        for d in (1, 2, 3, 4, 5):
            for n in (1.0, 4.0, 25.0, 1e100):
                cfg = C.SystemConfig(d=d, N=n, q=2)
                assert C.fisher_product_rhs("electronic", cfg) == C.fisher_product_rhs("general", cfg)

    def test_electron_forms_are_the_fermion_forms_at_q2(self):
        for n in (1.0, 4.0, 25.0, 1e100):
            for d in (1, 2, 3, 4, 5):
                cfg = C.SystemConfig(d=d, N=n, q=2)
                assert C.fisher_product_rhs("large_N_electron", cfg) \
                    == C.fisher_product_rhs("large_N_fermion", cfg)
            cfg = C.SystemConfig(d=3, N=n, q=2)
            assert C.fisher_product_rhs("d3_electron", cfg) == C.fisher_product_rhs("general", cfg)
            assert C.fisher_product_rhs("d3_large_N", cfg) \
                == C.fisher_product_rhs("large_N_fermion", cfg)

    def test_every_form_against_mpmath(self):
        # 4 A q^(-2/d) N^(2+2/d) / [1 + C_d (N/q)^(2/d)]^2 as written, and its
        # large-N limit, at 40 digits; N up to 1e150, where the written
        # numerator leaves the double range from d = 1, N ~ 1e77 on
        def reference(d, n, q, large_n):
            with mpmath.workdps(40):
                d, n, q = mpmath.mpf(d), mpmath.mpf(n), mpmath.mpf(q)
                a = ((d / (d + 1)) * mpmath.gamma(d + 1) ** (1 / d)) ** 2
                c = (4 * mpmath.pi) ** 2 * 5 * d ** 2 / (d + 2) * (2 / (d + 2)) ** (2 / d)
                x = c * (n / q) ** (2 / d)
                return 4 * a * q ** (-2 / d) * n ** (2 + 2 / d) / ((0 if large_n else 1) + x) ** 2

        checked = 0
        for d in (1, 2, 3, 4, 5):
            for q in (1, 2, 3, 4):
                for n in (10.0 ** e for e in range(0, 151, 6)):
                    cfg = C.SystemConfig(d=d, N=n, q=q)
                    for variant, (electron, three_d, large_n) in C._FISHER_FORMS.items():
                        if (electron and q != 2) or (three_d and d != 3):
                            continue
                        exact = reference(d, n, q, large_n)
                        value = C.fisher_product_rhs(variant, cfg)
                        assert abs(value - exact) <= 1e-13 * exact, (variant, d, n, q)
                        checked += 1
        assert checked == 1352

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

    @pytest.mark.parametrize("variant,d,n", [
        ("general", 1, 1e-80),  # (N/q)^(-2/d) = 1e160, squared in the bracket
        ("general", 1, 1e-300),  # (N/q)^(-2/d) itself
        ("large_N_fermion", 5, 1e300)])  # N^(2-2/d)
    def test_out_of_range_is_typed(self, variant, d, n):
        with pytest.raises(DomainError, match="leaves the double-precision range"):
            C.fisher_product_rhs(variant, C.SystemConfig(d=d, N=n, q=1))
