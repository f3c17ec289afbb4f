import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncrel import constants as C
from uncrel import varoracle
from uncrel.errors import DomainError

PI = math.pi

# published grid of the Daubechies factor, six significant digits
B_REFERENCE = {
    (1, 1): 0.165728, (2, 1): 0.405724, (3, 1): 0.537513, (4, 1): 0.618094,
    (1, 2): 0.021331, (2, 2): 0.165728, (3, 2): 0.303977, (4, 2): 0.405724,
    (1, 3): 0.002056, (2, 3): 0.061935, (3, 3): 0.165728, (4, 3): 0.262190,
    (1, 4): 0.000158, (2, 4): 0.021331, (3, 4): 0.086812, (4, 4): 0.165728,
}

# daubechies_factor(d, k).hex() on the 16 cells of Table 1, then on 50
# ratios rho = d/k spread geometrically over [0.25, 400]: the memo of the
# inner term and the minimizer's float arguments must not move a bit
B_GOLDEN = [
    (1, 1.0, '0x1.5369461ae3741p-3'),
    (2, 1.0, '0x1.9f7610607da34p-2'),
    (3, 1.0, '0x1.1334e53dd5e22p-1'),
    (4, 1.0, '0x1.3c76c558ef9e3p-1'),
    (1, 2.0, '0x1.5d7e07739f4c1p-6'),
    (2, 2.0, '0x1.5369461ae3741p-3'),
    (3, 2.0, '0x1.3745d65f92556p-2'),
    (4, 2.0, '0x1.9f7610607da34p-2'),
    (1, 3.0, '0x1.0d8494ed2d2b4p-9'),
    (2, 3.0, '0x1.fb5f702dd07cbp-5'),
    (3, 3.0, '0x1.5369461ae3741p-3'),
    (4, 3.0, '0x1.0c7b8bbbb7ce4p-2'),
    (1, 4.0, '0x1.4ad16ef14d9cdp-13'),
    (2, 4.0, '0x1.5d7e07739f4c1p-6'),
    (3, 4.0, '0x1.6394e29fad74dp-4'),
    (4, 4.0, '0x1.5369461ae3741p-3'),
    (1, 4.0, '0x1.4ad16ef14d9cdp-13'),
    (8, 27.527056520763338, '0x1.64770bc4997afp-11'),
    (5, 14.799586732369121, '0x1.2969ee8897823p-9'),
    (2, 5.0923632558233, '0x1.92066f73d1a02p-8'),
    (9, 19.71249907040246, '0x1.c8f710bbb3c2dp-7'),
    (6, 11.304730751592981, '0x1.c27413fdf1374p-6'),
    (3, 4.862280661736116, '0x1.8b01a3f6b3358p-5'),
    (10, 13.942111937023395, '0x1.3aa93f42aec4fp-4'),
    (7, 8.39530350988989, '0x1.cf4fd1b076dffp-4'),
    (4, 4.1267498968875325, '0x1.3fb8409fca974p-3'),
    (1, 0.8874787317084167, '0x1.a26c9d1748a4fp-3'),
    (8, 6.107419302178237, '0x1.061998231798cp-2'),
    (5, 3.2835796157629162, '0x1.3cc43de45c53ep-2'),
    (2, 1.1298410209191516, '0x1.73a927fec1a26p-2'),
    (9, 4.373605918451029, '0x1.a986e36cccb90p-2'),
    (6, 2.508177027432219, '0x1.dd6cfdee1055cp-2'),
    (3, 1.0787926687219822, '0x1.075b0b83948b1p-1'),
    (10, 3.0933319548015756, '0x1.1e7e1baf34d5fp-1'),
    (7, 1.8626633278160754, '0x1.3405b42a6c522p-1'),
    (4, 0.9156006911418966, '0x1.47ea78a096bd6p-1'),
    (1, 0.196904624808695, '0x1.5a3233a5ad754p-1'),
    (8, 1.3550511840771613, '0x1.6aeb77b0f72acp-1'),
    (5, 0.7285267682152208, '0x1.7a2a4e70a4e87p-1'),
    (2, 0.25067746906936794, '0x1.8805d049d6770p-1'),
    (9, 0.9703705583748367, '0x1.9496756c13704p-1'),
    (6, 0.556488441801433, '0x1.9ff4f3bf233c0p-1'),
    (3, 0.23935138735343073, '0x1.aa39837310f94p-1'),
    (10, 0.6863165800001048, '0x1.b37b6bcdc0b9ap-1'),
    (7, 0.4132685219424973, '0x1.bbd0c141232e6p-1'),
    (4, 0.2031440350314901, '0x1.c34e4423d2e28p-1'),
    (1, 0.04368716667318558, '0x1.ca07546283066p-1'),
    (8, 0.300644776561197, '0x1.d00df23ffa3d4p-1'),
    (5, 0.161638003067819, '0x1.d572c6ed4cb2ap-1'),
    (2, 0.05561773057938964, '0x1.da4531a573b20p-1'),
    (9, 0.21529580810842208, '0x1.de93573affeffp-1'),
    (6, 0.12346791413508235, '0x1.e26a32d8c300ep-1'),
    (3, 0.053104816420268215, '0x1.e5d5a739cc2cfp-1'),
    (10, 0.15227284199223795, '0x1.e8e08fec1e093p-1'),
    (7, 0.09169175592713487, '0x1.eb94d25eea558p-1'),
    (4, 0.045071502640969256, '0x1.edfb6e95f39d3p-1'),
    (1, 0.009692857817763238, '0x1.f01c8f689dd32p-1'),
    (8, 0.06670396124932286, '0x1.f1ff9a39bebf3p-1'),
    (5, 0.0358625724896273, '0x1.f3ab3e18b93f3p-1'),
    (2, 0.012339888248774288, '0x1.f525823eb974bp-1'),
    (9, 0.04776761268055028, '0x1.f673d3dcf4faep-1'),
    (6, 0.027393786960821644, '0x1.f79b1333027b4p-1'),
    (3, 0.011782348781066987, '0x1.f89f9fe6c36a2p-1'),
    (10, 0.033784727171226867, '0x1.f9856499e585dp-1'),
    (7, 0.02034362081458286, '0x1.fa4fe1bb8fd83p-1'),
    (4, 0.01, '0x1.fb0237973f2d3p-1'),
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
    def test_bad_input_rejected_before_minimizing(self, monkeypatch, fn, d, k):
        def no_minimize(*args, **kwargs):
            raise AssertionError("minimized on a bad input")

        monkeypatch.setattr(C, "minimize_scalar", no_minimize)
        with pytest.raises(DomainError):
            fn(d, k)

    def test_golden_bits(self):
        assert [(d, k, C.daubechies_factor(d, k).hex()) for d, k, _ in B_GOLDEN] == B_GOLDEN

    def test_rigorous_constant_below_semiclassical(self):
        for (d, k) in B_REFERENCE:
            assert C.rigorous_constant(d, float(k)) < C.semiclassical_constant(d, float(k))

    def test_rigorous_is_product(self):
        assert C.rigorous_constant(3, 2.0) == pytest.approx(
            C.semiclassical_constant(3, 2.0) * C.daubechies_factor(3, 2.0), rel=1e-15)


class TestDaubechiesMemo:
    """The rho-free inner term is computed once per scan point, not once per rho."""

    @pytest.fixture
    def inner_calls(self, monkeypatch):
        C._daubechies_ratio.cache_clear()
        C._log_daubechies_inner.cache_clear()
        calls = []
        exp_e1_scaled = C.exp_e1_scaled

        def counted(a):
            calls.append(a)
            return exp_e1_scaled(a)

        monkeypatch.setattr(C, "exp_e1_scaled", counted)
        yield calls
        C._daubechies_ratio.cache_clear()
        C._log_daubechies_inner.cache_clear()

    def test_fresh_ratio_costs_only_its_brent_steps(self, monkeypatch, inner_calls):
        brent_steps = []
        minimize_scalar = C.minimize_scalar

        def spy(*args, **kwargs):
            res = minimize_scalar(*args, **kwargs)
            brent_steps.append(res.iterations)
            return res

        monkeypatch.setattr(C, "minimize_scalar", spy)
        C.daubechies_factor(3, 2.0)  # warm-up: fills the scan grid
        assert len(inner_calls) > 96
        per_rho = []
        for rho in np.geomspace(0.25, 40.0, 50).tolist():
            inner_calls.clear()
            C.daubechies_factor(2, 2.0 / rho)
            per_rho.append(len(inner_calls))
        # no scan point is recomputed: a Brent step costs one call at most
        assert all(n <= steps for n, steps in zip(per_rho, brent_steps[1:]))
        assert max(per_rho) <= 40  # 96 more when every point is recomputed

    def test_memo_stays_bounded(self, inner_calls):
        for rho in np.geomspace(0.25, 40.0, 1000).tolist():
            C.daubechies_factor(5, 5.0 / rho)
        info = C._log_daubechies_inner.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize


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
