import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.interpolate
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from uncrel import constants, densities, functionals, mathcore
from uncrel.errors import (BracketError, ConvergenceError, DomainError, FormatError,
                           NonFiniteError)
from uncrel.constants import beta, exp_e1_scaled, omega
from uncrel.mathcore import (QuadratureSpec, gauss_cells, interpolate_monotone, minimize_scalar,
                             quad_finite, quad_halfline)


def exp_e1(x):
    """E1(x) from the scaled exponential integral the library computes."""
    return exp_e1_scaled(x) * math.exp(-x)


class TestSpecialFunctions:
    def test_omega_low_dimensions(self):
        assert omega(1) == pytest.approx(2.0, rel=1e-14)
        assert omega(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert omega(3) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_omega_domain(self):
        with pytest.raises(DomainError):
            omega(0)

    def test_omega_past_the_gamma_overflow(self):
        # Gamma(d/2) leaves the double range from d = 344 on, Omega_d only
        # from d = 439 on; the bound is pi's rounding in math.pi ** (d/2),
        # as for the float expression below d = 344
        with mpmath.workdps(30):
            for d in range(344, 439):
                dm = mpmath.mpf(d)
                exact = 2 * mpmath.pi ** (dm / 2) / mpmath.gamma(dm / 2)
                assert abs(omega(d) / exact - 1) <= 1e-14, d
        with pytest.raises(DomainError, match=r"^omega\(439\) leaves the double-precision range$"):
            omega(439)

    @pytest.mark.parametrize("x", [5.5e-309, 1e-310, 1e-320, 5e-324])
    def test_gamma_below_its_overflow(self, x):
        # math.gamma(x) overflows below x ~ 5.6e-309, where Gamma(x) ~ 1/x
        # is a Wide
        with mpmath.workdps(30):
            g = constants.wide_gamma(x)
            assert abs(mpmath.mpf(g.m) * mpmath.mpf(2) ** g.e / mpmath.gamma(x) - 1) <= 2e-16

    @pytest.mark.parametrize("x", [171.75, 200.0, 255.5, 343.0])
    def test_gamma_one_duplication_step(self, x):
        # from 171.5 to 343 wide_gamma takes one duplication step, whose
        # Gamma(h + 1/2) / Gamma(h) is Stirling's series at h > 85.75;
        # 5.9 ulps is the worst of 3000 seeded x in [171.6, 343]
        with mpmath.workdps(40):
            g = constants.wide_gamma(x)
            got = mpmath.mpf(g.m) * mpmath.mpf(2) ** g.e
            assert abs(got / mpmath.gamma(x) - 1) <= 6 * 2.0 ** -52

    @pytest.mark.parametrize("w,expected", [
        pytest.param(constants.Wide(0.75, 10), 768.0, id="normal"),
        pytest.param(constants.Wide(2.0) ** -1060, 2.0 ** -1060, id="subnormal"),
        pytest.param(constants.Wide(2.0) ** -1100, 0.0, id="underflow"),
        pytest.param(constants.Wide(2.0) ** 1100, None, id="overflow"),
    ])
    def test_wide_as_a_float(self, w, expected):
        # float() is m 2^e, subnormal or 0 below the range and an
        # OverflowError past it; value() refuses all but the normals
        if expected is None:
            with pytest.raises(OverflowError):
                float(w)
        else:
            assert float(w) == expected
        if expected is not None and expected >= sys.float_info.min:
            assert w.value("w") == expected
        else:
            with pytest.raises(DomainError, match=r"^w leaves the double-precision range$"):
                w.value("w")

    def test_beta_values(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)

    def test_beta_at_large_arguments(self):
        # lgamma(a + b) overflowed at b = 1e308, and lgamma(b) - lgamma(a + b)
        # rounded to 0 at b = 3e200, where B ~ 1e-1000 read 1.0; B(150, 300)
        # is formed from Stirling's series, not from lgamma terms near 750
        assert abs(beta(0.5, 1e308) / math.sqrt(math.pi / 1e308) - 1.0) <= 1e-15
        assert beta(5.0, 3e200) == 0.0
        with mpmath.workdps(30):
            assert abs(beta(150.0, 300.0) / mpmath.beta(150, 300) - 1) <= 2e-14

    @pytest.mark.parametrize("fn,args", [(beta, (0.0, 1.0)), (beta, (1.0, -2.0))])
    def test_positive_argument_required(self, fn, args):
        with pytest.raises(DomainError):
            fn(*args)


def _tail_reference(x):
    """(r, 1 - r) for the continued fraction tail r = x + 1 - 1/(e^x E1(x)),
    from x itself, not from a rounded x + 1.  r ~ 1/x is what is left of
    x + 1 - 1/(e^x E1(x)), so the reference loses 2 log10(x) of its digits."""
    with mpmath.workdps(30 + int(2 * math.log10(x))):
        x = mpmath.mpf(x)
        s = mpmath.exp(x) * mpmath.e1(x)
        return float(x + 1 - 1 / s), float(1 / s - x)


class TestExpE1:
    @pytest.mark.parametrize("x", [1e-5, 0.1, 0.6, 0.999, 1.0, 1.001, 2.0, 10.0, 50.0])
    def test_against_scipy(self, x):
        assert exp_e1(x) == pytest.approx(float(scipy.special.exp1(x)), rel=1e-13, abs=0)

    @pytest.mark.parametrize("x", [0.3, 0.6, 3.0])
    def test_against_quadrature(self, x):
        # E1(x) = int_x^inf e^-u / u du, shifted to the half line
        direct = quad_halfline(lambda t: np.exp(-(t + x)) / (t + x))[0]
        assert exp_e1(x) == pytest.approx(direct, rel=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            exp_e1_scaled(0.0)

    @pytest.mark.parametrize("x", [1.0 + 2.0 ** -52, 1.5, 3.0, 30.0, 400.0, 1e4, 1e8])
    def test_fraction_tail_against_mpmath(self, x):
        # the tail keeps its digits where 1/(e^x E1(x)) - x = 1 - r loses them
        ref, gap = _tail_reference(x)
        assert constants.e1_fraction_tail(x) == pytest.approx(ref, rel=4e-16, abs=0)
        assert 1.0 - constants.e1_fraction_tail(x) == pytest.approx(gap, rel=4e-16, abs=0)

    def test_fraction_tail_on_seeded_grid(self):
        # log-uniform over (1, 1e8], and 1 + 10^u just above the lower end,
        # where the fraction is deepest
        rng = random.Random(20260526)
        xs = [10.0 ** rng.uniform(0.0, 8.0) for _ in range(200)]
        xs += [1.0 + 10.0 ** rng.uniform(-15.0, 0.0) for _ in range(100)]
        for x in xs:
            ref, gap = _tail_reference(x)
            r = constants.e1_fraction_tail(x)
            assert abs(r / ref - 1.0) <= 4e-16, x
            assert abs((1.0 - r) / gap - 1.0) <= 4e-16, x

    @pytest.mark.parametrize("x", [1.0, 0.5, math.nan])
    def test_fraction_tail_domain(self, x):
        with pytest.raises(DomainError):
            constants.e1_fraction_tail(x)


class TestIntegrateHalfline:
    def test_exponential(self):
        assert quad_halfline(lambda r: np.exp(-r))[0] == pytest.approx(1.0, rel=1e-11)

    def test_gaussian_second_moment(self):
        val = quad_halfline(lambda r: r * r * np.exp(-r * r))[0]
        assert val == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-11)

    def test_truncated_exponential_weight(self):
        # int_a^inf e^-u (u - a)/u du = e^-a - a E1(a) at a = 0.6
        a = 0.6
        val = quad_halfline(lambda t: np.exp(-(t + a)) * t / (t + a))[0]
        assert val == pytest.approx(math.exp(-a) - a * exp_e1(a), rel=1e-11)

    def test_gaussian_closure(self):
        # omega(d) * int r^(d-1) e^{-r^2} dr = pi^(d/2)
        for d in range(1, 6):
            val = omega(d) * quad_halfline(lambda r: r ** (d - 1) * np.exp(-r * r))[0]
            assert val == pytest.approx(math.pi ** (d / 2.0), rel=1e-10)

    def test_non_finite_integrand(self):
        def bad(r):
            return np.where((1.0 < r) & (r < 2.0), np.nan, np.exp(-r))

        with pytest.raises(NonFiniteError):
            quad_halfline(bad)

    def test_non_finite_message_names_one_plain_radius(self):
        with pytest.raises(NonFiniteError) as info:
            quad_halfline(lambda r: np.where((1.0 < r) & (r < 2.0), np.nan, np.exp(-r)))
        message = str(info.value)
        assert len(message) < 200
        assert 1.0 < float(re.fullmatch(r"integrand is not finite at r = (\S+)", message)[1]) < 2.0

    def test_no_decay(self):
        with pytest.raises(ConvergenceError, match="does not decay"):
            quad_halfline(lambda r: 1.0 / (1.0 + r))

    def test_spec_validation(self):
        bad = [("rel_tol", 0.0), ("rel_tol", -1e-8), ("rel_tol", math.nan),
               ("rel_tol", math.inf), ("rel_tol", True)]
        for field, value in bad:
            with pytest.raises(DomainError, match=field):
                QuadratureSpec(**{field: value})

    def test_abs_tol_is_fixed(self):
        assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["rel_tol"]
        assert QuadratureSpec(rel_tol=1e-8).abs_tol == 1e-14
        with pytest.raises(TypeError):
            QuadratureSpec(abs_tol=1e-12)

    @pytest.mark.parametrize("end", [0.0, -1.0, math.nan, math.inf])
    def test_head_validation(self, end):
        with pytest.raises(DomainError, match="head end"):
            quad_halfline(lambda r: np.exp(-r), head=np.array([0.0, 0.5, end]))

    @pytest.mark.parametrize("levels,panels", [(1, 16), (12, 16), (13, 17), (20, 25), (676, 845)])
    def test_head_panels_follow_the_levels(self, monkeypatch, levels, panels):
        # ho1d of `levels` filled levels states max(16, ceil(1.25 levels))
        # uniform head panels; the first sweep adds 16 ladder rungs
        gk21, first = mathcore._gk21, []

        def counted(f, lo, hi):
            first.append((lo.copy(), hi.copy()))
            return gk21(f, lo, hi)

        head = densities.harmonic_fermions_1d(levels, 1).position.cuts
        end = math.sqrt(2.0 * levels - 1.0) + 5.0
        monkeypatch.setattr(mathcore, "_gk21", counted)
        quad_halfline(lambda r: np.exp(-r), head=head)
        lo, hi = first[0]
        assert lo.size == panels + 16
        np.testing.assert_allclose(hi[:panels] - lo[:panels], end / panels)
        assert hi[panels - 1] == lo[panels] == end

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-10, 10, allow_nan=False), b=st.floats(-10, 10, allow_nan=False))
    def test_linearity(self, a, b):
        f = lambda r: np.exp(-r)
        g = lambda r: r * r * np.exp(-r * r)
        combined = quad_halfline(lambda r: a * f(r) + b * g(r))[0]
        separate = a * quad_halfline(f)[0] + b * quad_halfline(g)[0]
        assert combined == pytest.approx(separate, rel=1e-9, abs=1e-12)

    def test_slow_power_tail(self):
        # int_0^inf (1 + r)^-1.1 dr = 10: most of it lies far past tail_cut
        val, err = quad_halfline(lambda r: (1.0 + r) ** -1.1)
        assert val == pytest.approx(10.0, rel=1e-10)
        assert err >= abs(val - 10.0)

    def test_ladder_stops_at_the_largest_float(self):
        # int_0^inf (1 + r)^-1.001 dr = 1000 still decays where the rungs
        # reach the largest float; the ladder closes there, with the
        # remainder in the error, instead of asking for rungs forever.
        # A fresh interpreter under a timeout, as a ladder that never
        # closes never returns.
        probe = ("from uncrel.mathcore import quad_halfline\n"
                 "print(*quad_halfline(lambda r: (1.0 + r) ** -1.001))")
        src = str(Path(mathcore.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        val, err = map(float, proc.stdout.split())
        assert math.isfinite(val) and math.isfinite(err)
        assert abs(val - 1000.0) <= err

    def test_endpoint_singularity(self):
        val, err = quad_finite(lambda r: r ** -0.5, 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-10)
        assert err >= abs(val - 2.0)

    def test_exhausted_budget(self, monkeypatch):
        monkeypatch.setattr(mathcore, "_MAX_REFINEMENTS", 5)
        with pytest.raises(ConvergenceError):
            quad_finite(lambda r: r ** -0.5, 0.0, 1.0)


# integrals whose features are interior, or on the tail ladder, and which
# take several refinement sweeps; their (value, error) as float.hex() are
# pinned, so a change of refinement that moves a bit shows here and is
# re-recorded on purpose, each pin checked against its reference below
GOLDEN_INTEGRALS = {
    "lorentz_peak": lambda: quad_finite(lambda r: 1.0 / (1e-6 + (r - 0.37) ** 2), 0.0, 1.0),
    "narrow_gauss": lambda: quad_finite(lambda r: np.exp(-2e5 * (r - 0.61) ** 2), 0.0, 1.0),
    "cos400": lambda: quad_finite(lambda r: np.cos(400.0 * r) + 2.0, 0.0, 3.0),
    "runge": lambda: quad_finite(lambda r: 1.0 / (1.0 + 1e5 * r * r), -1.0, 1.0),
    "cusp_inside": lambda: quad_finite(lambda r: np.sqrt(np.abs(r - 0.4321)), 0.0, 1.0),
    "step_smooth": lambda: quad_finite(lambda r: np.tanh(1e4 * (r - 0.777)), 0.0, 1.0,
                                       QuadratureSpec(rel_tol=1e-12)),
    "halfline_bump20": lambda: quad_halfline(lambda r: np.exp(-((r - 20.0) / 0.01) ** 2)),
    "halfline_power_tail": lambda: quad_halfline(lambda r: (1.0 + r) ** -1.1),
    "halfline_cut_tight": lambda: quad_halfline(lambda r: r ** 3 * np.exp(-0.5 * r * r),
                                                QuadratureSpec(rel_tol=1e-13),
                                                head=mathcore.uniform_cuts(0.0, 3.0)),
    "halfline_power_tail3": lambda: quad_halfline(lambda r: r * r / (1.0 + r) ** 4.5),
    "halfline_osc_tail": lambda: quad_halfline(lambda r: np.exp(-0.2 * r) * (2.0 + np.cos(10.0 * r))),
    "halfline_peak_past_cut": lambda: quad_halfline(
        lambda r: np.exp(-r / 10.0) / (1e-4 + (r - 47.0) ** 2),
        head=mathcore.uniform_cuts(0.0, 8.0)),
    "halfline_kink": lambda: quad_halfline(lambda r: np.exp(-np.abs(r - 3.3)) * (1.0 + r)),
    "two_lorentz": lambda: quad_finite(
        lambda r: 1.0 / (1e-6 + (r - 0.3) ** 2) + 1.0 / (1e-6 + (r - 0.8) ** 2), 0.0, 1.0),
    "log_kink": lambda: quad_finite(lambda r: np.log1p(np.abs(r - 0.55)), 0.0, 1.0),
    "halfline_tail_bump": lambda: quad_halfline(
        lambda r: np.exp(-r / 8.0) * (1.0 + 100.0 * np.exp(-((r - 45.0) / 0.05) ** 2))),
    "halfline_gauss_mixture": lambda: quad_halfline(
        lambda r: np.exp(-((r - 3.0) / 0.01) ** 2) + np.exp(-((r - 7.0) / 0.02) ** 2)
        + np.exp(-((r - 11.0) / 0.005) ** 2)),
    "halfline_lorentz_tail": lambda: quad_halfline(
        lambda r: 1.0 / ((1e-4 + (r - 5.0) ** 2) * (1.0 + r ** 3))),
}


QUAD_GOLDEN = [
    ("lorentz_peak", "0x1.8829af5e2e453p+11", "0x1.b0628020b8137p-25"),
    ("narrow_gauss", "0x1.03bd9920665c0p-8", "0x1.2fb9545eefdc8p-52"),
    ("cos400", "0x1.7ffc6254eb902p+2", "0x1.2a7de508642c2p-42"),
    ("runge", "0x1.44e1985213cb2p-7", "0x1.fba07e003eed5p-54"),
    ("cusp_inside", "0x1.e60f75ce0ad0bp-2", "0x1.aa7c7805c5346p-36"),
    ("step_smooth", "-0x1.1ba5e353f7ceep-1", "0x1.fce5f9a7936e8p-46"),
    ("halfline_bump20", "0x1.22661a4eeae09p-6", "0x1.88d648af7b28ep-41"),
    ("halfline_power_tail", "0x1.3fffffffffffbp+3", "0x1.a993d638bd323p-34"),
    ("halfline_cut_tight", "0x1.0000000000000p+1", "0x1.46ba0be1b0902p-45"),
    ("halfline_power_tail3", "0x1.3813813813814p-3", "0x1.78816f0867465p-40"),
    ("halfline_osc_tail", "0x1.401060a075da4p+3", "0x1.ef1331cd433f7p-32"),
    ("halfline_peak_past_cut", "0x1.6ec67d56fc737p+1", "0x1.d909e0a14d90ep-39"),
    ("halfline_kink", "0x1.13333333326e5p+3", "0x1.baa8f4b405c17p-32"),
    ("two_lorentz", "0x1.8802c67bf3554p+12", "0x1.a6d6de7f7d9dep-25"),
    ("log_kink", "0x1.be9772700920dp-3", "0x1.1486384a2cf60p-37"),
    ("halfline_tail_bump", "0x1.0105d686c31f8p+3", "0x1.986f5ce2088b7p-44"),
    ("halfline_gauss_mixture", "0x1.b39927766051dp-5", "0x1.1b94b511a3ef6p-39"),
    ("halfline_lorentz_tail", "0x1.4854e7fab3220p+1", "0x1.0ae8bac79330bp-33"),
]


def _lorentz(c, eps=1e-6):
    # int_0^1 dr / (eps + (r - c)^2)
    s = mpmath.sqrt(eps)
    return (mpmath.atan((1 - c) / s) + mpmath.atan(c / s)) / s


def _gauss(c, w):
    # int_0^inf exp(-((r - c) / w)^2) dr
    return w * mpmath.sqrt(mpmath.pi) / 2 * (1 + mpmath.erf(c / w))


def _log1p_ramp(u):
    # int_0^u log(1 + t) dt
    return (1 + u) * mpmath.log1p(u) - u


# the exact value of each golden integral: a closed form, or mpmath
# quadrature split at the integrand's features where there is none
GOLDEN_REFERENCES = {
    "lorentz_peak": lambda: _lorentz(mpmath.mpf("0.37")),
    "narrow_gauss": lambda: mpmath.sqrt(mpmath.pi / 2e5) / 2 * (
        mpmath.erf(mpmath.sqrt(2e5) * mpmath.mpf("0.39")) + mpmath.erf(mpmath.sqrt(2e5) * mpmath.mpf("0.61"))),
    "cos400": lambda: mpmath.sin(1200) / 400 + 6,
    "runge": lambda: 2 * mpmath.atan(mpmath.sqrt(1e5)) / mpmath.sqrt(1e5),
    "cusp_inside": lambda: (mpmath.mpf("0.4321") ** 1.5 + mpmath.mpf("0.5679") ** 1.5) * 2 / 3,
    "step_smooth": lambda: (mpmath.log(mpmath.cosh(mpmath.mpf(2230))) - mpmath.log(mpmath.cosh(mpmath.mpf(7770)))) / 1e4,
    "halfline_bump20": lambda: _gauss(20, mpmath.mpf("0.01")),
    "halfline_power_tail": lambda: mpmath.mpf(10),
    "halfline_cut_tight": lambda: mpmath.mpf(2),
    "halfline_power_tail3": lambda: mpmath.beta(3, 1.5),
    "halfline_osc_tail": lambda: 10 + mpmath.mpf("0.2") / (mpmath.mpf("0.04") + 100),
    "halfline_peak_past_cut": lambda: mpmath.quad(
        lambda r: mpmath.exp(-r / 10) / (mpmath.mpf("1e-4") + (r - 47) ** 2),
        [0, 46, 47 - mpmath.mpf("0.01"), 47, 47 + mpmath.mpf("0.01"), 48, 100, mpmath.inf]),
    "halfline_kink": lambda: mpmath.mpf("8.6"),
    "two_lorentz": lambda: _lorentz(mpmath.mpf("0.3")) + _lorentz(mpmath.mpf("0.8")),
    "log_kink": lambda: _log1p_ramp(mpmath.mpf("0.55")) + _log1p_ramp(mpmath.mpf("0.45")),
    "halfline_tail_bump": lambda: 8 + 100 * mpmath.quad(
        lambda r: mpmath.exp(-r / 8 - ((r - 45) / mpmath.mpf("0.05")) ** 2),
        [44, 45 - mpmath.mpf("0.05"), 45, 45 + mpmath.mpf("0.05"), 46]),
    "halfline_gauss_mixture": lambda: _gauss(3, mpmath.mpf("0.01")) + _gauss(7, mpmath.mpf("0.02"))
    + _gauss(11, mpmath.mpf("0.005")),
    "halfline_lorentz_tail": lambda: mpmath.quad(
        lambda r: 1 / ((mpmath.mpf("1e-4") + (r - 5) ** 2) * (1 + r ** 3)),
        [0, 4, 5 - mpmath.mpf("0.01"), 5, 5 + mpmath.mpf("0.01"), 6, 100, mpmath.inf]),
}


class TestQuadratureGolden:
    @pytest.mark.parametrize("name,value,error", QUAD_GOLDEN, ids=[g[0] for g in QUAD_GOLDEN])
    def test_same_bits(self, name, value, error):
        v, e = GOLDEN_INTEGRALS[name]()
        assert (v.hex(), e.hex()) == (value, error)

    @pytest.mark.parametrize("name,value,error", [
        pytest.param(*g, marks=pytest.mark.xfail(strict=True, reason=(
            "no node of the first sweep falls within the width-0.005 bump at r = 11, "
            "so its 0.005 sqrt(pi) is missing from a value reported to 2e-12")))
        if g[0] == "halfline_gauss_mixture" else g for g in QUAD_GOLDEN], ids=[g[0] for g in QUAD_GOLDEN])
    def test_pin_within_its_error_of_the_reference(self, name, value, error):
        with mpmath.workdps(30):
            gap = abs(mpmath.mpf(float.fromhex(value)) - GOLDEN_REFERENCES[name]())
        assert gap <= float.fromhex(error)


class TestEndGrading:
    """An end panel of the domain is cut geometrically towards the end the
    first time refinement picks it, so an algebraic end singularity takes
    a few sweeps, not one bisection per sweep (up to 66 sweeps before
    grading)."""

    @staticmethod
    def counted(f):
        calls = []

        def g(r):
            calls.append(r.size)
            return f(r)
        return g, calls

    @pytest.mark.parametrize("f,exact,sweeps", [
        (lambda r: r ** -0.5, 2.0, 6),
        (lambda r: np.sqrt(1.0 - r), 2.0 / 3.0, 2),
    ], ids=["origin", "upper_end"])
    def test_finite_interval(self, f, exact, sweeps):
        g, calls = self.counted(f)
        val, err = quad_finite(g, 0.0, 1.0)
        assert len(calls) == sweeps
        assert val == pytest.approx(exact, rel=1e-10)
        assert err >= abs(val - exact)

    def test_fractional_moment_at_the_origin(self, monkeypatch):
        g_calls = []

        def counting(f, spec=None, head=None):
            g, calls = self.counted(f)
            g_calls.append(calls)
            return quad_halfline(g, spec, head)

        monkeypatch.setattr(functionals, "quad_halfline", counting)
        pos = dataclasses.replace(densities.gaussian_pair(1, 1.0).position, exact=None)
        mv = functionals.radial_moment(pos, -0.5)
        exact = 2.0 ** -0.25 * math.gamma(0.25) / math.gamma(0.5)
        assert len(g_calls) == 1 and len(g_calls[0]) == 6
        assert mv.value == pytest.approx(exact, rel=1e-10)
        assert mv.est_error >= abs(mv.value - exact)

    @pytest.mark.parametrize("budget,sweeps", [(14, 1), (15, 2)])
    def test_graded_end_counts_its_panels(self, budget, sweeps, monkeypatch):
        # the end panel at r = 0 is the first one refinement picks, and
        # grading it adds fifteen panels: it fits a budget of 15
        # refinements, not 14
        monkeypatch.setattr(mathcore, "_MAX_REFINEMENTS", budget)
        g, calls = self.counted(lambda r: r ** -0.5)
        with pytest.raises(ConvergenceError):
            quad_finite(g, 0.0, 1.0)
        assert len(calls) == sweeps

    @pytest.mark.parametrize("p", np.random.default_rng(1505).uniform(-0.75, 4.0, 100))
    def test_power_at_the_origin(self, p):
        # r^p on [0, 1] and r^p e^-r on the half line, singular or with a
        # kink at r = 0: at most 10 sweeps each, and honest errors
        for quad, f, exact in (
                (lambda g: quad_finite(g, 0.0, 1.0), lambda r: r ** p, 1.0 / (p + 1.0)),
                (quad_halfline, lambda r: r ** p * np.exp(-r), math.gamma(p + 1.0))):
            g, calls = self.counted(f)
            val, err = quad(g)
            assert len(calls) <= 10
            assert err >= abs(val - exact)

    @pytest.mark.xfail(strict=True, reason=(
        "a kink too faint to refine: the first sweep's error estimate, rescaled "
        "against the panel's mean deviation, falls below the actual error"))
    @pytest.mark.parametrize("p", [2.0261565801445874e-10, 1.00000001])
    def test_power_near_an_integer_on_the_half_line(self, p):
        val, err = quad_halfline(lambda r: r ** p * np.exp(-r))
        assert err >= abs(val - math.gamma(p + 1.0))

    @pytest.mark.parametrize("upper", [True, False], ids=["at_1_from_below", "at_1_from_above"])
    def test_singularity_at_a_nonzero_end(self, upper):
        # (1 - r)^p on [0, 1] and (r - 1)^p on [1, 2]: no cut comes so close
        # to the end at 1 that nodes round onto it, so every p > -0.18
        # converges with an honest error, and a singularity too strong for
        # that floor is a ConvergenceError
        for p in np.arange(-95, 396) / 100.0:
            f = (lambda r: (1.0 - r) ** p) if upper else (lambda r: (r - 1.0) ** p)
            try:
                val, err = quad_finite(f, 0.0, 1.0) if upper else quad_finite(f, 1.0, 2.0)
            except ConvergenceError:
                assert p <= -0.18
                continue
            assert err >= abs(val - 1.0 / (1.0 + p)), p


class TestMinimizeScalar:
    def test_quadratic_vertex(self):
        res = minimize_scalar(lambda x: (x - 2.0) ** 2, (0.0, 5.0))
        assert res.converged
        assert res.argmin == pytest.approx(2.0, abs=1e-10)
        assert res.min_value == pytest.approx(0.0, abs=1e-18)

    def test_cosh(self):
        res = minimize_scalar(math.cosh, (-1.0, 1.0))
        assert res.argmin == pytest.approx(0.0, abs=1e-8)
        assert res.min_value == pytest.approx(1.0, rel=1e-12)

    def test_daubechies_objective_matches_stationarity_root(self):
        # the d/k = 1 objective has its minimum where 1 * D(a) = a E1(a),
        # with D(a) = e^-a - a E1(a); solve that root independently
        def inner(a):
            return math.exp(-a) - a * exp_e1(a)

        res = minimize_scalar(lambda a: inner(a) ** -1 / a, (1e-3, 30.0))
        # a vanishing xtol leaves the relative tolerance rtol alone in force
        root = scipy.optimize.brentq(lambda a: inner(a) - a * exp_e1(a), 0.1, 2.0,
                                     xtol=1e-300, rtol=1e-13)
        assert 0.55 < res.argmin < 0.65
        assert res.argmin == pytest.approx(root, abs=1e-7)

    def test_monotone_function_has_no_interior_minimum(self):
        with pytest.raises(BracketError):
            minimize_scalar(lambda x: x, (0.1, 1.0))

    @pytest.mark.parametrize("bracket", [(1e-4, 60.0), (0.0, 5.0)])
    def test_objective_sees_python_floats(self, monkeypatch, bracket):
        # numpy scalars would make every step of the objective numpy arithmetic
        seen = []

        def objective(x):
            seen.append(type(x))
            return (x - 2.0) ** 2

        brent_calls = []
        brent = mathcore._brent

        def spy(f, xa, xb, xc, fb, *rest):
            brent_calls.append((len(seen), {type(v) for v in (xa, xb, xc, fb)}))
            return brent(f, xa, xb, xc, fb, *rest)

        monkeypatch.setattr(mathcore, "_brent", spy)
        minimize_scalar(objective, bracket)
        assert brent_calls == [(96, {float})]
        assert len(seen) > 96
        assert set(seen) == {float}


def _spy_brent(monkeypatch):
    """Record the (xa, xb, xc) bracket each minimize_scalar hands to Brent."""
    seen = []
    brent = mathcore._brent

    def spy(f, xa, xb, xc, *rest):
        seen.append((xa, xb, xc))
        return brent(f, xa, xb, xc, *rest)

    monkeypatch.setattr(mathcore, "_brent", spy)
    return seen


class TestBrentPort:
    """The in-house Brent loop takes scipy's steps and returns scipy's bits."""

    @pytest.mark.parametrize("rho", np.geomspace(0.25, 400.0, 41).tolist())
    def test_daubechies_objective_matches_scipy(self, monkeypatch, rho):
        # the log-space objective whose minimum defines the Daubechies factor
        def objective(a):
            return -rho * math.log(a) + a - math.log1p(-a * exp_e1_scaled(a))

        seen = _spy_brent(monkeypatch)
        res = minimize_scalar(objective, (1e-4, 60.0), rel_tol=1e-13)
        ref = scipy.optimize.minimize_scalar(objective, bracket=seen[0], method="brent",
                                             options={"xtol": 1e-13, "maxiter": 500})
        assert ref.success
        assert res.argmin == float(ref.x)
        assert res.min_value == float(ref.fun)
        assert res.iterations == ref.nit

    def test_tied_bracket_converges(self, monkeypatch):
        # cosh is even and the 96-point scan of (-1, 1) straddles 0, so the
        # scan minimum ties with its right neighbour: scipy refuses this bracket
        seen = _spy_brent(monkeypatch)
        res = minimize_scalar(math.cosh, (-1.0, 1.0))
        xa, xb, xc = seen[0]
        assert math.cosh(xb) == math.cosh(xc)
        with pytest.raises(ValueError):
            scipy.optimize.minimize_scalar(math.cosh, bracket=seen[0], method="brent")
        assert res.converged
        assert res.argmin == pytest.approx(0.0, abs=1e-8)
        assert res.min_value == 1.0

    def test_spent_iterations_raise(self):
        with pytest.raises(ConvergenceError):
            minimize_scalar(lambda x: (x - 2.0) ** 2, (0.0, 5.0), max_iter=2)


class TestQuadFinite:
    def test_scalar_valued_integrand(self):
        value, err = quad_finite(lambda r: 2.0, 0.0, 3.0)
        assert value == pytest.approx(6.0, rel=1e-15)
        assert err < 1e-12

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0)])
    def test_empty_interval(self, lo, hi):
        assert quad_finite(np.ones_like, lo, hi) == (0.0, 0.0)

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-3.0, 7.5), (0.1, 0.7), (1e-300, 3e-300),
                                       (0.0, 1e-322), (5e-324, 2e-323), (1.0, 1.0 + 2e-16),
                                       (0, 3), (-1e300, 1e300)])
    @pytest.mark.parametrize("panels", [1, 3, 16, 17, 845])
    def test_uniform_cuts_are_linspace(self, lo, hi, panels):
        # the starting cuts are np.linspace's, bit for bit, a subnormal
        # step included
        want = np.linspace(lo, hi, panels + 1)
        assert mathcore.uniform_cuts(lo, hi, panels).tobytes() == want.tobytes()


class TestNodeArrays:
    """Each sweep hands the integrand a fresh read-only node array that
    shares no memory with any earlier one, so an integrand cannot change
    the nodes the rule reads, and an array it keeps never changes."""

    @pytest.mark.parametrize("quad,f", [
        # the end panel at the origin is graded over several sweeps
        (lambda f: quad_finite(f, 0.0, 1.0), lambda r: r ** -0.5),
        # graded at the origin while the ladder grows past its first rungs
        (quad_halfline, lambda r: r ** -0.5 * (1.0 + r) ** -1.1),
        (lambda f: gauss_cells(f, np.array([0.0, 0.25, 0.5, 1.0])), lambda r: r ** -0.5),
    ], ids=["quad_finite", "quad_halfline", "gauss_cells"])
    def test_fresh_read_only_nodes(self, quad, f):
        kept = []

        def keeping(r):
            kept.append(r)
            return f(r)

        quad(keeping)
        assert len(kept) > 2
        for i, r in enumerate(kept):
            assert not r.flags.writeable
            for earlier in kept[:i]:
                assert r is not earlier and not np.shares_memory(r, earlier)
        if quad is quad_halfline:
            # a later sweep adds rungs beyond the first sweep's ladder
            assert max(r.max() for r in kept[1:]) > kept[0].max()


def _gaussian_rows(rows: int) -> densities.RadialDensity:
    """The d = 3 unit Gaussian tabulated at `rows` points on [0, 8]."""
    r = np.linspace(0.0, 8.0, rows)
    return densities.load_tabulated(constants.SystemConfig(d=3, N=1.0), r,
                                    densities.gaussian_pair(3, 1.0).position.rho(r))


def _far_table(d: int, shape: str) -> densities.RadialDensity:
    """2000 rows out to 0.9 of the radius where r^(d-1) leaves the double
    range: a Gaussian that underflows to 0 at 0.8 of it, or an exponential
    cut to 0 at 0.7 of it."""
    top = 0.9 * 10.0 ** (308 / (d - 1))
    r = np.linspace(0.0, top, 2000)
    rho = (np.exp(-(r / (0.8 * top / 27.3)) ** 2) if shape == "gauss"
           else np.where(r < 0.7 * top, np.exp(-r / (0.1 * top)), 0.0))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "measured normalization")  # far from N = 1
        return densities.load_tabulated(constants.SystemConfig(d=d, N=1.0), r, rho)


class TestBlockedSweeps:
    """A sweep evaluates its panels in blocks of at most 1024, one call of
    the integrand each, so its memory follows its panels, not its nodes;
    values and errors are those of one call over the whole sweep."""

    @staticmethod
    def _calls(monkeypatch) -> list:
        """Per sweep, the node rows of each call of its integrand."""
        gk21, sweeps = mathcore._gk21, []

        def counted(f, lo, hi):
            sweeps.append([])

            def g(r):
                sweeps[-1].append(r.shape[0])
                return f(r)
            return gk21(g, lo, hi)

        monkeypatch.setattr(mathcore, "_gk21", counted)
        return sweeps

    def test_a_call_sees_at_most_1024_panels(self, monkeypatch):
        sweeps = self._calls(monkeypatch)
        dens = _gaussian_rows(4000)
        loaded = len(sweeps)
        functionals.fisher_information(dens)
        # the normalization's first sweep and the Fisher information's take
        # one panel per knot cell, 3999, in four calls
        assert sweeps[0] == sweeps[loaded] == [1024, 1024, 1024, 927]
        assert max(max(calls) for calls in sweeps) == mathcore._BLOCK_PANELS == 1024

    def test_largest_ho1d_first_sweep_is_one_call(self, monkeypatch):
        # 845 head panels and 16 rungs: one call, so one level pass.  A cap
        # past about 800 levels splits it, which made Fisher + <x> of the
        # largest state 20% slower when measured at 1024 and 512 panels
        dens = densities.harmonic_fermions_1d(densities.MAX_OSCILLATOR_LEVELS, 1).position
        sweeps = self._calls(monkeypatch)
        functionals.radial_moment(dens, 1.0)
        assert sweeps[0] == [861]

    def test_no_panels_is_one_empty_call(self, monkeypatch):
        sweeps = self._calls(monkeypatch)
        assert gauss_cells(np.exp, np.array([1.0])) == (0.0, 0.0)
        assert sweeps == [[0]]

    # float.hex of (value, error) of <r^2>, <r^0.5>, W_2 and I, from one
    # integrand call per sweep before sweeps were blocked
    _PINS = {
        4000: [("0x1.80000000003fap+1", "0x1.2c0000000031bp-45"),
               ("0x1.3bb77af860919p+0", "0x1.ed6256a0933c3p-47"),
               ("0x1.6fcb5f827e112p-6", "0x1.1f56e29df27d6p-52"),
               ("0x1.7fffffff43c14p+1", "0x1.b2c0bd982b019p-38")],
        50000: [("0x1.7ffffffffd054p+1", "0x1.2bfffffffdac1p-45"),
                ("0x1.3bb77af85ef28p+0", "0x1.ed4eb0de6c5c2p-47"),
                ("0x1.6fcb5f827b97fp-6", "0x1.1f56e29df08eap-52"),
                ("0x1.7fffffff41d92p+1", "0x1.b2f72d5a432d5p-38")],
    }

    @pytest.mark.parametrize("rows", list(_PINS))
    def test_table_bits(self, rows):
        dens = _gaussian_rows(rows)
        got = [functionals.radial_moment(dens, 2.0), functionals.radial_moment(dens, 0.5),
               functionals.entropic_moment(dens, 2.0), functionals.fisher_information(dens)]
        assert [(mv.value.hex(), mv.est_error.hex()) for mv in got] == self._PINS[rows]

    # the hidden-mass guard of functionals._weighted compares against the
    # largest product of its call, now of one block: (value, error) as
    # float.hex, or the radius of the NonFiniteError, as before blocking.
    # Each table's first sweep is two blocks, and r^w overflows in the second
    @pytest.mark.parametrize("state,order,want", [
        ("ho1d", 100.0, ("0x1.1cd577148c54fp+520", "0x1.1c863fe7169e8p+480")),
        ("ho1d", 250.0, 16.944041916114372),
        ("ho1d", 300.0, 10.569464643962666),
        ("ho1d", 400.0, 5.862990091285325),
        ("ho1d", 600.0, 3.2534905869939323),
        ((150, "gauss"), 20.0, ("0x1.a85e885c1ced1p+462", "0x1.4b89da87f6994p+416")),
        ((150, "gauss"), 60.0, ("0x1.be512d1654426p+658", "0x1.5caf6b3971d3dp+612")),
        ((150, "gauss"), 150.0, 11.230064851102448),
        ((150, "cut"), 20.0, 69.33902060509861),
        ((150, "cut"), 60.0, 30.263239842080004),
        ((250, "gauss"), 60.0, ("0x1.01592dddd4006p+68", "0x1.921b57aa9b40bp+21")),
        ((250, "gauss"), 150.0, ("0x1.94a91d480c518p+301", "0x1.3c241ee0499fbp+255")),
        ((250, "cut"), 60.0, 10.15767886615605),
        ((250, "cut"), 150.0, 5.981055229396262),
        ((300, "gauss"), 60.0, ("0x1.3b36035340eaap-188", "0x1.ec846532156eap-235")),
        ((300, "gauss"), 150.0, ("0x1.a87450af0c3bcp-8", "0x1.4b9adf08c18eap-54")),
        ((300, "cut"), 60.0, ("0x1.719eef8cc8b9fp+356", "0x1.20c42b25fcd13p+310")),
        ((300, "cut"), 150.0, 4.914632894165185),
    ])
    def test_hidden_mass_guard_per_block(self, state, order, want):
        dens = (densities.harmonic_fermions_1d(676, 1).position if state == "ho1d"
                else _far_table(*state))
        if isinstance(want, float):
            with pytest.raises(NonFiniteError, match=re.escape(f"not finite at r = {want}")):
                functionals.radial_moment(dens, order)
        else:
            mv = functionals.radial_moment(dens, order)
            assert (mv.value.hex(), mv.est_error.hex()) == want

    def test_fisher_memory_follows_the_panels(self):
        # 49,999 panels: 66.7 MiB when one call took all 21 nodes of each
        dens = _gaussian_rows(50000)
        tracemalloc.start()
        try:
            functionals.fisher_information(dens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20


class TestInterpolateMonotone:
    def test_exponential_table(self):
        # grading toward the origin, where the curvature concentrates
        grid = 10.0 * np.linspace(0.0, 1.0, 200) ** 1.5
        interp = interpolate_monotone(grid, np.exp(-grid))
        dense = np.linspace(0.0, 10.0, 5001)
        assert np.max(np.abs(interp(dense) - np.exp(-dense))) < 1e-6

    def test_two_point_linear(self):
        interp = interpolate_monotone([0.0, 1.0], [1.0, 3.0])
        assert float(interp(0.5)) == pytest.approx(2.0, rel=1e-14)
        assert float(interp(0.25, True)[1]) == pytest.approx(2.0, rel=1e-12)

    def test_underflowing_tail_warns_nothing(self):
        # secants near the smallest floats make the harmonic mean overflow
        grid = np.linspace(0.0, 30.0, 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            interp = interpolate_monotone(grid, np.exp(-grid ** 2 / 0.9))
        assert interp(29.0) == 0.0

    @pytest.mark.parametrize("x,y", [
        # the secant over [0, 1e-320] overflows
        ([0.0, 1e-320, 1e-319, 1.0, 2.0, 3.0], [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]),
        # finite secants, but the cubic coefficients of the 1e-200 cell overflow
        ([0.0, 1e-200, 1.0, 2.0, 3.0], [1.0, 0.5, 0.25, 0.125, 0.0625])])
    def test_out_of_the_double_range_rejected(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="out of the double range"):
                interpolate_monotone(x, y)

    def test_negative_ordinate_rejected(self):
        with pytest.raises(FormatError):
            interpolate_monotone([0.0, 1.0, 2.0], [1.0, -0.1, 0.5])

    @pytest.mark.parametrize("x,y,message", [
        ([[0.0, 1.0], [2.0, 3.0]], [[1.0, 0.5], [0.2, 0.1]], "two equal-length 1-d columns"),
        ([0.0, 1.0, 2.0], [1.0, 0.5], "two equal-length 1-d columns"),
        ([1.0], [0.5], "at least two samples"),
        ([0.0, 1.0, 2.0], [1.0, math.nan, 0.5], "non-finite entries"),
        ([0.0, math.nan, 2.0], [1.0, 0.5, 0.2], "non-finite entries")])
    def test_malformed_table_rejected(self, x, y, message):
        with pytest.raises(FormatError, match=message):
            interpolate_monotone(x, y)

    def test_unordered_rejected(self):
        with pytest.raises(FormatError):
            interpolate_monotone([0.0, 2.0, 1.0], [1.0, 0.5, 0.2])
        with pytest.raises(FormatError):
            interpolate_monotone([0.0, 1.0, 1.0], [1.0, 0.5, 0.2])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.01, 0.99, allow_nan=False),
                              st.floats(0.0, 5.0, allow_nan=False)),
                    min_size=3, max_size=12))
    def test_nodes_reproduced_and_nonnegative(self, points):
        x = np.cumsum(np.array([p[0] for p in points]))
        y = np.array([p[1] for p in points])
        interp = interpolate_monotone(x, y)
        assert np.allclose(interp(x), y, rtol=0.0, atol=1e-13)
        dense = np.linspace(x[0], x[-1], 400)
        assert np.min(interp(dense)) >= -1e-12


def _pchip_tables():
    rng = np.random.default_rng(20150527)
    tables = []
    for n in (3, 4, 9, 40, 300):
        x = np.cumsum(rng.uniform(0.05, 2.0, n))
        tables.append((x, rng.uniform(0.0, 5.0, n)))  # random, with sign changes of slope
        y = np.exp(-1.5 * x)
        y[n // 2:] = 0.0  # zero tail, as on a table past the density's underflow
        tables.append((x, y))
        tables.append((x, np.round(rng.uniform(0.0, 2.0, n))))  # flat cells and ties
    tables.append((np.array([0.0, 1.0]), np.array([1.0, 3.0])))  # two points
    tables.append((np.array([0.5, 2.5]), np.array([2.0, 0.0])))
    r = np.linspace(0.0, 40.0, 4000)
    tables.append((r, np.exp(-2.0 * r) / math.pi))  # an exported hydrogenic table
    return tables


class TestPchipPort:
    """The numpy PCHIP equals scipy's PchipInterpolator bit for bit inside
    the knots, and reads as a density outside them."""

    @pytest.mark.parametrize("x,y", _pchip_tables())
    def test_matches_scipy(self, x, y):
        rng = np.random.default_rng(x.size)
        span = x[-1] - x[0]
        # the knots, random interior points and points outside the domain
        r = np.concatenate([x, rng.uniform(x[0], x[-1], 5000),
                            x[0] - span * rng.uniform(1e-9, 1.0, 20),
                            x[-1] + span * rng.uniform(1e-9, 1.0, 20), [np.nan]])
        ours = interpolate_monotone(x, y)
        ref = scipy.interpolate.PchipInterpolator(x, y, extrapolate=False)
        inside = (r >= x[0]) & (r <= x[-1])
        outside = (r < x[0]) | (r > x[-1])
        for r_in, mask in ((r, inside), (r[:60].reshape(6, 10), inside[:60].reshape(6, 10))):
            value, slope = ours(r_in, True)
            assert value.shape == slope.shape == r_in.shape
            assert value.tobytes() == ours(r_in).tobytes()
            np.testing.assert_array_equal(value[mask], ref(r_in)[mask])
            np.testing.assert_array_equal(slope[mask], ref.derivative()(r_in)[mask])
        value, slope = ours(r, True)
        assert (value[outside] == 0.0).all() and (slope[outside] == 0.0).all()
        assert np.isnan(value[-1]) and np.isnan(slope[-1])
        assert float(ours(x[3 % x.size])) == float(ref(x[3 % x.size]))
