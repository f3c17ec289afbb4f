import ast
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncrel import constants as C
from uncrel import varoracle
from uncrel.errors import (TINY, ConvergenceError, DomainError, check_finite, check_integer,
                           check_positive)

PI = math.pi


def _semiclassical_mpmath(d, k):
    """K_d(k) = d/(k+d) (2 pi)^k Gamma(1 + d/2)^(k/d) / pi^(k/2) at the working precision."""
    d, k = mpmath.mpf(d), mpmath.mpf(k)
    return (d / (k + d) * (2 * mpmath.pi) ** k * mpmath.gamma(1 + d / 2) ** (k / d)
            / mpmath.pi ** (k / 2))


def _extremal_W_mpmath(d, alpha, k, digits=40):
    """W_{1+k/d} at N = <r^alpha> = 1 of C (a^alpha - r^alpha)^(d/k) on the
    ball (k > 0) or C (a^alpha + r^alpha)^(d/k) on the half line (k < 0),
    from the Beta reductions of the three integrals in logarithms, at
    `digits` digits plus those that loggamma(d/k) and alpha take up; below
    alpha = 1 the loggamma differences, of size (d/alpha) ln(d/alpha), are
    divided by alpha, and take 2 (-log10 alpha) digits more:
    int r^(d-1+s) (a^alpha -+ r^alpha)^p dr = a^(d+s+alpha p) B(x, y) / alpha,
    x = (d+s)/alpha, y = p + 1 on the ball and -p - x on the half line."""
    extra = (int(max(0.0, math.log10(abs(d / k)))) + int(max(0.0, math.log10(alpha)))
             + 2 * int(max(0.0, -math.log10(alpha))))
    with mpmath.workdps(digits + extra):
        d, alpha, k = mpmath.mpf(d), mpmath.mpf(alpha), mpmath.mpf(k)

        def log_integral(s, p):  # without its a^(d+s+alpha p)
            x = (d + s) / alpha
            y = p + 1 if k > 0 else -p - x
            return (mpmath.loggamma(x) + mpmath.loggamma(y) - mpmath.loggamma(x + y)
                    - mpmath.log(alpha))

        e, m = d / k, 1 + k / d
        log_omega = mpmath.log(2) + (d / 2) * mpmath.log(mpmath.pi) - mpmath.loggamma(d / 2)
        log_a = (log_integral(0, e) - log_integral(alpha, e)) / alpha
        log_c = -(log_omega + (d + alpha * e) * log_a + log_integral(0, e))
        return mpmath.exp(log_omega + m * log_c + (d + alpha * e * m) * log_a
                          + log_integral(0, e * m))

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
# the values they pin to 5e-15 of a 30-digit reference.  Running this
# file re-records them (see the end of the file).
B_GOLDEN = [
    (1, 1.0, '0x1.5369461ae3740p-3'),
    (2, 1.0, '0x1.9f7610607da15p-2'),
    (3, 1.0, '0x1.1334e53dd5e13p-1'),
    (4, 1.0, '0x1.3c76c558ef9d9p-1'),
    (1, 2.0, '0x1.5d7e07739f4bep-6'),
    (2, 2.0, '0x1.5369461ae3740p-3'),
    (3, 2.0, '0x1.3745d65f9254bp-2'),
    (4, 2.0, '0x1.9f7610607da15p-2'),
    (1, 3.0, '0x1.0d8494ed2d2b4p-9'),
    (2, 3.0, '0x1.fb5f702dd07c7p-5'),
    (3, 3.0, '0x1.5369461ae3740p-3'),
    (4, 3.0, '0x1.0c7b8bbbb7ce1p-2'),
    (1, 4.0, '0x1.4ad16ef14d9c3p-13'),
    (2, 4.0, '0x1.5d7e07739f4bep-6'),
    (3, 4.0, '0x1.6394e29fad748p-4'),
    (4, 4.0, '0x1.5369461ae3740p-3'),
    (1, 4.0, '0x1.4ad16ef14d9c3p-13'),
    (8, 27.527056520763338, '0x1.64770bc4997afp-11'),
    (5, 14.799586732369121, '0x1.2969ee8897823p-9'),
    (2, 5.0923632558233, '0x1.92066f73d1a02p-8'),
    (9, 19.71249907040246, '0x1.c8f710bbb3c26p-7'),
    (6, 11.304730751592981, '0x1.c27413fdf1370p-6'),
    (3, 4.862280661736116, '0x1.8b01a3f6b3351p-5'),
    (10, 13.942111937023395, '0x1.3aa93f42aec4dp-4'),
    (7, 8.39530350988989, '0x1.cf4fd1b076df8p-4'),
    (4, 4.1267498968875325, '0x1.3fb8409fca973p-3'),
    (1, 0.8874787317084167, '0x1.a26c9d1748a4dp-3'),
    (8, 6.107419302178237, '0x1.061998231798cp-2'),
    (5, 3.2835796157629162, '0x1.3cc43de45c518p-2'),
    (2, 1.1298410209191516, '0x1.73a927fec19eap-2'),
    (9, 4.373605918451029, '0x1.a986e36cccb6dp-2'),
    (6, 2.508177027432219, '0x1.dd6cfdee10539p-2'),
    (3, 1.0787926687219822, '0x1.075b0b83948a5p-1'),
    (10, 3.0933319548015756, '0x1.1e7e1baf34d4ep-1'),
    (7, 1.8626633278160754, '0x1.3405b42a6c512p-1'),
    (4, 0.9156006911418966, '0x1.47ea78a096bc9p-1'),
    (1, 0.196904624808695, '0x1.5a3233a5ad74dp-1'),
    (8, 1.3550511840771613, '0x1.6aeb77b0f72a6p-1'),
    (5, 0.7285267682152208, '0x1.7a2a4e70a4e83p-1'),
    (2, 0.25067746906936794, '0x1.8805d049d6767p-1'),
    (9, 0.9703705583748367, '0x1.9496756c136fbp-1'),
    (6, 0.556488441801433, '0x1.9ff4f3bf233bbp-1'),
    (3, 0.23935138735343073, '0x1.aa39837310f90p-1'),
    (10, 0.6863165800001048, '0x1.b37b6bcdc0b97p-1'),
    (7, 0.4132685219424973, '0x1.bbd0c141232dfp-1'),
    (4, 0.2031440350314901, '0x1.c34e4423d2e22p-1'),
    (1, 0.04368716667318558, '0x1.ca0754628305cp-1'),
    (8, 0.300644776561197, '0x1.d00df23ffa3cdp-1'),
    (5, 0.161638003067819, '0x1.d572c6ed4cb29p-1'),
    (2, 0.05561773057938964, '0x1.da4531a573b1fp-1'),
    (9, 0.21529580810842208, '0x1.de93573affef7p-1'),
    (6, 0.12346791413508235, '0x1.e26a32d8c3004p-1'),
    (3, 0.053104816420268215, '0x1.e5d5a739cc2c9p-1'),
    (10, 0.15227284199223795, '0x1.e8e08fec1e08dp-1'),
    (7, 0.09169175592713487, '0x1.eb94d25eea54ep-1'),
    (4, 0.045071502640969256, '0x1.edfb6e95f39ccp-1'),
    (1, 0.009692857817763238, '0x1.f01c8f689dd29p-1'),
    (8, 0.06670396124932286, '0x1.f1ff9a39bebf6p-1'),
    (5, 0.0358625724896273, '0x1.f3ab3e18b93eap-1'),
    (2, 0.012339888248774288, '0x1.f525823eb9748p-1'),
    (9, 0.04776761268055028, '0x1.f673d3dcf4fa2p-1'),
    (6, 0.027393786960821644, '0x1.f79b1333027b2p-1'),
    (3, 0.011782348781066987, '0x1.f89f9fe6c369bp-1'),
    (10, 0.033784727171226867, '0x1.f9856499e5855p-1'),
    (7, 0.02034362081458286, '0x1.fa4fe1bb8fd79p-1'),
    (4, 0.01, '0x1.fb0237973f2cbp-1'),
]


class TestSystemConfig:
    @pytest.mark.parametrize("kwargs", [dict(d=0), dict(d=3, N=0.0),
                                        dict(d=3, N=-1.0), dict(d=3, q=0), dict(d=10 ** 400),
                                        dict(d=3, N=10 ** 400)])
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

    def test_gamma_power_keeps_the_float_bits(self):
        # up to d = 340, where Gamma(1 + d/2) is a double, the constant is the
        # float expression with math.gamma's power, bit for bit, or refused
        # where that expression leaves the normal floats
        for d in range(1, 341):
            for k in (-0.99 * d, -0.5 * d, -0.5, 0.5, 1.0, 2.0, 0.5 * d, float(d), 1.5 * d):
                try:
                    ref = ((d / (k + d)) * (2.0 * math.pi) ** k
                           * math.gamma(1.0 + d / 2.0) ** (k / d) / math.pi ** (k / 2.0))
                except OverflowError:
                    ref = math.inf
                if TINY <= ref < math.inf:
                    assert C.semiclassical_constant(d, k).hex() == ref.hex(), (d, k)
                else:
                    with pytest.raises(DomainError):
                        C.semiclassical_constant(d, k)


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
                                     (3, math.nan), (3, math.inf), (3, -math.inf), (3, True),
                                     pytest.param(10 ** 400, 1.0, id="d-beyond-double"),
                                     pytest.param(3, 10 ** 400, id="k-beyond-double")])
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

    def test_fresh_ratio_costs_few_e1_evaluations(self, monkeypatch, e1_calls):
        steps = []
        stationarity = C._stationarity
        monkeypatch.setattr(C, "_stationarity", lambda a: steps.append(a) or stationarity(a))
        per_rho = {}
        for rho in np.geomspace(0.25, 40.0, 50).tolist() + [80.0, 400.0, 1e4]:
            e1_calls.clear()
            steps.clear()
            C.daubechies_factor(2, 2.0 / rho)
            per_rho[rho] = (len(e1_calls), len(steps))
        assert max(n for n, _ in per_rho.values()) <= 3, per_rho
        # the Stirling form at rho = 1e4 reads the last step's tail, not a new one
        assert per_rho[1e4][0] == per_rho[1e4][1], per_rho[1e4]

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
        with pytest.raises(DomainError, match="negative-order bounds require -d < k < 0"):
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
                         / float(_extremal_W_mpmath(d, alpha, k)) - 1.0), (d, alpha, k))
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


_NORMAL = (mpmath.mpf(2) ** -1022, mpmath.mpf(2) ** 1024)  # the normal doubles


class TestExtremalEntropicClosedForm:
    """entropic_lower_coeff (k > 0) and entropic_upper_coeff_closed
    (-d < k < 0) are one closed form for W_{1+k/d} of the extremal density,
    checked against the Beta reductions at 40 digits."""

    @staticmethod
    def _beta_argument(d, alpha, k):
        return 2.0 + d / k if k > 0 else -1.0 - d / alpha - d / k

    @classmethod
    def _slack(cls, d, alpha, k):
        """The rounding the closed form's powers and log-gammas carry: one
        ulp of each logarithm the value is the exponential of, at large d
        or where it is formed from logarithms."""
        b, x, m = cls._beta_argument(d, alpha, k), d / alpha, 1 + k / d
        c, y = alpha * m + k, k * (1 / alpha + 1 / d) + 1
        lg = math.lgamma
        return 2.0 ** -52 * (
            abs(k / d) * (d / 2 * math.log(math.pi) + abs(lg(d / 2)) + abs(lg(b)) + abs(lg(x))
                          + abs(lg(b + x)))
            + abs((1 + 2 * k / d) * math.log(alpha)) + abs(k / alpha * math.log(abs(k)))
            + abs(y * math.log(c)) + abs(m * math.log(m)))

    def _check(self, d, alpha, k, slack=0.0):
        fn = C.entropic_lower_coeff if k > 0 else C.entropic_upper_coeff_closed
        exact = _extremal_W_mpmath(d, alpha, k)
        b = self._beta_argument(d, alpha, k)
        try:
            value = fn(d, alpha, k)
        except DomainError as exc:
            assert str(exc).endswith("leaves the double-precision range")
            # only where the value, alpha^(1+2k/d) or Omega_d leaves the normal
            # range; a subnormal Omega_d B is raised to -k/d from its logarithm
            with mpmath.workdps(40):
                dm = mpmath.mpf(d)
                parts = (exact, mpmath.mpf(alpha) ** (1 + 2 * mpmath.mpf(k) / dm),
                         2 * mpmath.pi ** (dm / 2) / mpmath.gamma(dm / 2))
            assert not all(_NORMAL[0] <= x < _NORMAL[1] for x in parts), (d, alpha, k)
            return None
        # near the negative-order window b is formed with a cancellation
        # of 1/b, and B ~ 1/b carries that rounding
        assert abs(value / exact - 1) <= 1e-14 + 1e-15 / b + slack, (d, alpha, k, value)
        return value

    def test_seeded_grid_both_signs(self):
        # d = 1..10, k = +-d U(0.005, 0.995), alpha log-uniform from 0.5
        # (k > 0) or the window (k < 0) up to 1e5
        rng = random.Random(1505)
        for i in range(400):
            d = rng.randint(1, 10)
            k = math.copysign(d * rng.uniform(0.005, 0.995), (-1) ** i)
            lo = 0.5 if k > 0 else C.negative_order_window(d, k)
            alpha = math.exp(rng.uniform(math.log(lo), math.log(1e5)))
            assert self._check(d, alpha, k) is not None, (d, alpha, k)
        # d = 344..438, past Gamma(d/2)'s overflow, where Omega_d B is
        # subnormal or 0 at some draws
        subnormal = 0
        for i in range(150):
            d = rng.randint(344, 438)
            k = math.copysign(d * rng.uniform(0.005, 0.995), (-1) ** i)
            lo = 0.5 if k > 0 else C.negative_order_window(d, k)
            alpha = math.exp(rng.uniform(math.log(lo), math.log(1e5)))
            assert self._check(d, alpha, k, self._slack(d, alpha, k)) is not None, (d, alpha, k)
            subnormal += C.omega(d) * C.beta(self._beta_argument(d, alpha, k), d / alpha) < TINY
        assert subnormal >= 3

    @pytest.mark.parametrize("d,alpha,k", [
        (3, 150.0, 1.0), (3, 1000.0, 1.0), (3, 1e5, 1.0),  # (m alpha + k)^(m alpha + k) overflowed
        (3, 2.0, 2.0), (1, 0.5, 3.0), (8, 40.0, 7.5), (3, 2.0, -1.0), (10, 1e5, -9.5)])
    def test_formed_where_representable(self, d, alpha, k):
        assert self._check(d, alpha, k) is not None

    @pytest.mark.parametrize("d,alpha,k", [
        # Omega_d B is subnormal or 0: refused, or raised with few of its bits
        (341, 2.0, 2.0), (343, 2.0, -1.0), (317, 1.3812710524159295, 1.8206904483703699),
        (371, 3.5772255350183757, 3.082583997307235),
        (415, 0.6470306588547972, 26.139413683558324),
        (3, 1e300, 1.0),  # alpha^(1+2k/d) overflows
        (354, 2.49205450576853, 343.78922960054365),  # |k|^(k/alpha) overflows
        (381, 1.1698734266010549, 162.87156112987418)])  # (m alpha + k)^-(...) is subnormal
    def test_formed_from_logarithms(self, d, alpha, k):
        assert self._check(d, alpha, k, self._slack(d, alpha, k)) is not None

    @classmethod
    def _log_slack(cls, d, alpha, k):
        """The rounding of the one log-sum: four ulps of its terms of size
        (1 + 2|k|/d) |ln alpha|, and where the Beta function is a sum of
        three lgamma values, below 20, one ulp of each, times |k|/d."""
        b, x = cls._beta_argument(d, alpha, k), d / alpha
        lg = sum(abs(math.lgamma(v)) for v in (b, x, b + x)) if max(b, x) < 20 else 0.0
        return 2.0 ** -52 * (4 * (1 + 2 * abs(k) / d) * abs(math.log(alpha)) + abs(k) / d * lg)

    def test_seeded_extreme_alpha(self):
        # alpha = 10^U(-300, -1), where m alpha + k rounded to k and the Beta
        # function's lgamma difference to 0; alpha = 10^U(-2.5, -1) with k
        # up to 20, k/alpha up to 6000; and k < 0 up to 1e300 windows, where
        # b's d (k + alpha) overflowed.  Each reference agrees with one at
        # 30 more digits.
        rng = random.Random(18)
        draws = []
        for _ in range(14):
            d = rng.randint(1, 10)
            draws.append((d, 10.0 ** rng.uniform(-300, -1), 10.0 ** rng.uniform(-3, 1.3)))
            draws.append((d, 10.0 ** rng.uniform(-2.5, -1), rng.uniform(1, 20)))
            k = -d * rng.uniform(0.005, 0.995)
            draws.append((d, C.negative_order_window(d, k) * 10.0 ** rng.uniform(0, 300), k))
        for d, alpha, k in draws:
            exact = _extremal_W_mpmath(d, alpha, k)
            assert abs(exact / _extremal_W_mpmath(d, alpha, k, digits=70) - 1) <= 1e-30
            assert self._check(d, alpha, k, self._log_slack(d, alpha, k)) is not None, \
                (d, alpha, k)

    @pytest.mark.parametrize("d,alpha,k", [
        (3, 1e-20, 1.0), (3, 1e-200, 1.0), (3, 1e-300, 1.0),  # m alpha + k rounded to k
        (3, 1e308, -1.0)])  # b's d (k + alpha) overflowed
    def test_formed_at_extreme_alpha(self, d, alpha, k):
        assert self._check(d, alpha, k, self._log_slack(d, alpha, k)) is not None

    def test_vanishing_order(self):
        # W_{1 + k/d} -> N = 1 as k -> 0; d/k ~ 3e271 once overflowed a power
        assert C.entropic_lower_coeff(3, 486.6224754497575, 9.372472527320516e-272) == 1.0

    @pytest.mark.parametrize("d,alpha,k", [
        (439, 2.0, 2.0),  # Omega_d underflows
        (438, 1e22, -436.0)])  # the value is subnormal
    def test_unformable_is_a_domain_error(self, d, alpha, k):
        assert self._check(d, alpha, k) is None


class TestUnformedConstants:
    """A public constant whose value float arithmetic cannot form is a
    DomainError naming the function that cannot, never an OverflowError or
    a ZeroDivisionError."""

    @pytest.mark.parametrize("call,name", [
        pytest.param(lambda: C.thakkar_coefficient(1000.0), "thakkar_coefficient",
                     id="thakkar_coefficient"),
        pytest.param(lambda: C.heisenberg_rhs(1, 2.0, 2.0, N=1e100), "heisenberg_rhs",
                     id="heisenberg_rhs-N"),
        # the extremal coefficient is subnormal
        pytest.param(lambda: C.negative_order_rhs(438, 1e22, -436.0), "entropic_upper_coeff_closed",
                     id="negative_order_rhs"),
        # 1 + 2k/d and m ln m are infinite: no sum of logarithms is formed
        pytest.param(lambda: C.entropic_lower_coeff(1, 2.0, 1.7976931348623157e308),
                     "entropic_lower_coeff", id="entropic_lower_coeff-infinite-term"),
        pytest.param(lambda: C.daubechies_factor(1, 142.0), "daubechies_factor",
                     id="daubechies_factor-subnormal"),
        pytest.param(lambda: C.rigorous_constant(1, 150.0), "daubechies_factor",
                     id="rigorous_constant-underflow"),
    ])
    def test_cannot_be_formed(self, call, name):
        with pytest.raises(DomainError, match=f"^{name}\\(.* leaves the double-precision "
                                              "range$"):
            call()

    @pytest.mark.parametrize("call,exact", [
        # Gamma(1 + d/2) and Gamma(d + 1) past the double range, the
        # constants inside it; K_d(k) and A(2, d) at 30 digits
        pytest.param(lambda: C.semiclassical_constant(342, 1.0),
                     lambda: _semiclassical_mpmath(342, 1), id="semiclassical_constant-gamma"),
        pytest.param(lambda: C.rigorous_constant(400, 1.0) / C.daubechies_factor(400, 1.0),
                     lambda: _semiclassical_mpmath(400, 1), id="rigorous_constant"),
        pytest.param(lambda: C.heisenberg_product_constant(200),
                     lambda: (mpmath.mpf(200) / 201 * mpmath.gamma(201) ** (mpmath.mpf(1) / 200))
                     ** 2, id="heisenberg_product_constant"),
    ])
    def test_formed_past_the_gamma_overflow(self, call, exact):
        with mpmath.workdps(30):
            assert abs(call() / exact() - 1) <= 1e-14

    @pytest.mark.parametrize("d,alpha", [(3, 0.0), (0, 2.0)])
    def test_exponent_of_a_zero_order(self, d, alpha):
        with pytest.raises(DomainError, match="heisenberg_exponent requires alpha, d != 0"):
            C.heisenberg_exponent(d, alpha, 1.0)


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


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _dim(rng):  # d = 1..800
    return int(_log_uniform(rng, 1.0, 801.0))


def _order(rng):
    return _log_uniform(rng, 1e-6, 1e6)


def _count(rng):  # N
    return _log_uniform(rng, 1e-300, 1e300)


def _negative_k(rng, d):
    """-d < k < 0: a share of d, or one in five so small that k alpha underflows."""
    if rng.random() < 0.2:
        return -_log_uniform(rng, 1e-300, 1e-160)
    return -d * _log_uniform(rng, 1e-6, 1.0 - 2.0 ** -52)


def _orders(rng, d, sign):
    """(alpha, k) of the Heisenberg-like relation of this sign of k; for
    k < 0, alpha half the time within 16 ulps above the window."""
    if sign > 0:
        return _log_uniform(rng, 1e-3, 1e6), _order(rng)
    k = _negative_k(rng, d)
    window = C.negative_order_window(d, k)
    if rng.random() < 0.5:
        return window * (1.0 + rng.randint(1, 16) * 2.0 ** -52), k
    return window * _log_uniform(rng, 1.0, 1e6), k


def _fisher_draw(rng):
    variant = rng.choice(sorted(C._FISHER_FORMS))
    electron, three_d, _ = C._FISHER_FORMS[variant]
    return variant, C.SystemConfig(3 if three_d else rng.randint(1, 5), _count(rng),
                                   2 if electron else rng.randint(1, 4))


# valid arguments of each function in constants.__all__, both signs of k
# where a function takes either, and a seeded draw of extreme but valid
# ones: d up to 800, N from 1e-300 to 1e300, orders from 1e-6 to 1e6,
# alpha next to the negative-order window and k alpha underflowing.  Wide
# is a value type, whose callers check; SystemConfig and the Beta function,
# an intermediate that may underflow, have no draw.
_BASELINES = [
    ("SystemConfig", (3, 1.0, 2), None),
    ("omega", (3,), lambda g: (_dim(g),)),
    ("beta", (1.5, 2.5), None),
    ("wide_gamma", (3.5,), lambda g: (_log_uniform(g, 5e-324, 1e6),)),
    ("exp_e1_scaled", (0.5,), lambda g: (_order(g),)),
    ("e1_fraction_tail", (2.0,), lambda g: (1.0 + _order(g),)),
    ("thakkar_coefficient", (1.0,),
     lambda g: (_order(g) if g.random() < 0.5 else -3.0 * _log_uniform(g, 1e-6, 1.0 - 2e-16),)),
    ("semiclassical_constant", (3, 1.0),
     lambda g: (d := _dim(g), _order(g) if g.random() < 0.5 else _negative_k(g, d))),
    ("daubechies_factor", (3, 2.0), lambda g: (_dim(g), _order(g))),
    ("rigorous_constant", (3, 2.0), lambda g: (_dim(g), _order(g))),
    ("entropic_lower_coeff", (3, 2.0, 2.0), lambda g: (d := _dim(g), *_orders(g, d, 1))),
    ("heisenberg_coeff", (3, 2.0, 2.0), lambda g: (d := _dim(g), *_orders(g, d, 1))),
    ("heisenberg_coeff", (3, 2.0, -1.0), lambda g: (d := _dim(g), *_orders(g, d, -1))),
    ("heisenberg_exponent", (3, 2.0, 2.0), lambda g: (d := _dim(g), *_orders(g, d, 1))),
    ("heisenberg_exponent", (3, 2.0, -1.0), lambda g: (d := _dim(g), *_orders(g, d, -1))),
    ("heisenberg_rhs", (3, 2.0, 2.0, 1.0, 2),
     lambda g: (d := _dim(g), *_orders(g, d, 1), _count(g), g.randint(1, 4))),
    ("heisenberg_rhs", (3, 2.0, -1.0, 1.0, 2),
     lambda g: (d := _dim(g), *_orders(g, d, -1), _count(g), g.randint(1, 4))),
    ("negative_order_window", (3, -0.5), lambda g: (d := _dim(g), _negative_k(g, d))),
    ("entropic_upper_coeff_closed", (3, 2.0, -1.0), lambda g: (d := _dim(g), *_orders(g, d, -1))),
    ("negative_order_rhs", (3, 2.0, -1.0, 1.0, 2),
     lambda g: (d := _dim(g), *_orders(g, d, -1), _count(g), g.randint(1, 4))),
    ("zumbach_constant", (3,), lambda g: (g.randint(1, 5),)),
    ("heisenberg_product_constant", (3,), lambda g: (_dim(g),)),
    ("fisher_product_rhs", ("general", C.SystemConfig(3, 1.0, 2)), _fisher_draw),
]


def _bad_calls():
    """(name, args) with NaN, +-inf and True in place of each numeric
    argument of a baseline in turn."""
    for name, args, _ in _BASELINES:
        for i, arg in enumerate(args):
            if type(arg) in (int, float):
                for bad in (math.nan, math.inf, -math.inf, True):
                    yield pytest.param(name, args[:i] + (bad,) + args[i + 1:],
                                       id=f"{name}{args}-{i}-{bad}")


class TestBadArgumentsGenerated:
    """Every public function of constants rejects a NaN, an infinity or a
    bool in any numeric argument with a DomainError."""

    def test_baselines_cover_the_public_functions(self):
        assert {name for name, _, _ in _BASELINES} == set(C.__all__) - {"Wide"}
        for name, args, _ in _BASELINES:
            getattr(C, name)(*args)

    @pytest.mark.parametrize("name,args,draw", [pytest.param(*row, id=f"{row[0]}{row[1]}")
                                                for row in _BASELINES if row[2]])
    def test_extreme_arguments_held_or_refused(self, name, args, draw):
        """Every value is a normal double, or a DomainError saying that a
        double cannot hold it: never 0.0, a subnormal or an untyped error.
        Next to the window the window itself may refuse alpha.  wide_gamma
        returns a Wide, and the exponent 1 + k (1/alpha + 1/d) may round to
        0 or below right at the window: they need only return."""
        rng = random.Random(f"{name}{args}")
        for _ in range(500):
            args = draw(rng)
            try:
                value = getattr(C, name)(*args)
            except DomainError as exc:
                assert str(exc).endswith(" leaves the double-precision range") \
                    or "violates the validity window" in str(exc), (name, args, str(exc))
                continue
            if name == "heisenberg_exponent":
                assert math.isfinite(value), (name, args, value)
            elif name != "wide_gamma":
                assert sys.float_info.min <= value < math.inf, (name, args, value)

    @pytest.mark.parametrize("name,args", list(_bad_calls()))
    def test_rejected(self, name, args):
        with pytest.raises(DomainError):
            getattr(C, name)(*args)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: C.beta(1e-320, 1.0), id="beta-overflow"),
        pytest.param(lambda: C.wide_gamma(-1.0), id="wide_gamma-negative"),
        pytest.param(lambda: C.wide_gamma(0.0), id="wide_gamma-zero"),
        pytest.param(lambda: C.omega(2.5), id="omega-fractional"),
    ])
    def test_outside_the_domain(self, call):
        with pytest.raises(DomainError):
            call()


class TestArgumentChecks:
    """What check_finite, check_positive and check_integer accept: plain
    floats and ints skip the numbers.Real lookup, and must be judged as
    the lookup judges them."""

    @pytest.mark.parametrize("x,accepted", [
        # accepted by (check_finite, check_positive, check_integer)
        pytest.param(2.5, (True, True, False), id="float"),
        pytest.param(3.0, (True, True, True), id="integral-float"),
        pytest.param(3, (True, True, True), id="int"),
        pytest.param(0, (True, False, False), id="int-zero"),
        pytest.param(-2, (True, False, False), id="int-negative"),
        pytest.param(True, (False, False, False), id="bool"),
        pytest.param(np.float64(2.5), (True, True, False), id="np.float64"),
        pytest.param(np.int64(3), (True, True, True), id="np.int64"),
        pytest.param(Fraction(7, 2), (True, True, False), id="Fraction"),
        pytest.param(Fraction(4, 1), (True, True, True), id="integral-Fraction"),
        pytest.param(Decimal("3"), (False, False, False), id="Decimal"),
        pytest.param(math.nan, (False, False, False), id="nan"),
        pytest.param(math.inf, (False, False, False), id="inf"),
        pytest.param(-math.inf, (False, False, False), id="-inf"),
        pytest.param(-0.0, (True, False, False), id="-0.0"),
        pytest.param(5e-324, (True, True, False), id="subnormal"),
        pytest.param("3", (False, False, False), id="str"),
        pytest.param(None, (False, False, False), id="None"),
        pytest.param(3 + 0j, (False, False, False), id="complex"),
        # past the double range: a DomainError, not float()'s OverflowError
        pytest.param(10 ** 400, (False, False, False), id="int-beyond-double"),
        pytest.param(-10 ** 400, (False, False, False), id="negative-int-beyond-double"),
        pytest.param(Fraction(10 ** 400, 3), (False, False, False), id="Fraction-beyond-double"),
    ])
    def test_accepts_and_rejects(self, x, accepted):
        for check, ok in zip((check_finite, check_positive, check_integer), accepted):
            if ok:
                check("x", x)
            else:
                with pytest.raises(DomainError) as info:
                    check("x", x)
                assert type(info.value) is DomainError, check.__name__


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

    def test_gamma_power_keeps_the_float_bits(self):
        # up to d = 170, where Gamma(d + 1) is a double
        for d in range(1, 171):
            ref = ((d / (d + 1.0)) * math.gamma(d + 1.0) ** (1.0 / d)) ** 2
            assert C.heisenberg_product_constant(d).hex() == ref.hex(), d


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


if __name__ == "__main__":
    # Re-record B_GOLDEN in this file, for a change that moves the
    # Daubechies factor on purpose, and print each pin that moved with the
    # relative distance of its old and new value to 40-digit mpmath.
    #
    #     PYTHONPATH=src python tests/test_constants.py
    import sys

    path = Path(__file__)
    text = path.read_text(encoding="utf-8")
    head, rest = text.split("B_GOLDEN = [\n", 1)
    rows, tail = rest.split("\n]\n", 1)
    pins, moved = [], 0
    for d, k, old in B_GOLDEN:
        new = C.daubechies_factor(d, k).hex()
        if new != old:
            moved += 1
            ref = _mpmath_daubechies(d / k, dps=40)
            print(f"({d}, {k!r}): {old} -> {new}, distance to mpmath "
                  f"{abs(float.fromhex(old) / ref - 1.0):.3g} -> "
                  f"{abs(float.fromhex(new) / ref - 1.0):.3g}")
        pins.append(f"    ({d}, {k!r}, {new!r}),")
    path.write_text(head + "B_GOLDEN = [\n" + "\n".join(pins) + "\n]\n" + tail, encoding="utf-8")
    print(f"{moved} of {len(B_GOLDEN)} pins moved; wrote {path}", file=sys.stderr)
