import dataclasses
import gc
import math
import re
import weakref

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate

from uncrel import densities as D
from uncrel import functionals as F
from uncrel import inequalities as I
from uncrel import mathcore as M
from uncrel import varoracle as V
from uncrel.constants import SystemConfig, omega
from uncrel.errors import (ConvergenceError, DivergenceError, DomainError, FormatError,
                           NonFiniteError, UncrelError)
from uncrel.mathcore import quad_halfline

from helpers import gaussian_table, quadrature_only, scale_density

PI = math.pi


def gaussian_moment(d, sigma, alpha):
    """<r^alpha> of a unit-count Gaussian of width sigma in d dimensions,
    from 30-digit mpmath."""
    with mpmath.workdps(30):
        d, sigma, alpha = mpmath.mpf(d), mpmath.mpf(sigma), mpmath.mpf(alpha)
        return float(sigma ** alpha * 2 ** (alpha / 2)
                     * mpmath.gamma((d + alpha) / 2) / mpmath.gamma(d / 2))


def gaussian_entropic(d, sigma, m):
    """W_m of a unit-count Gaussian of width sigma in d dimensions, from
    30-digit mpmath."""
    with mpmath.workdps(30):
        d, sigma, m = mpmath.mpf(d), mpmath.mpf(sigma), mpmath.mpf(m)
        return float((2 * mpmath.pi * sigma ** 2) ** (d / 2 * (1 - m)) * m ** (-d / 2))


class TestRadialMoment:
    def test_hydrogenic_r2(self):
        pos = D.hydrogenic_pair(1.0).position
        assert F.radial_moment(pos, 2.0).value == pytest.approx(3.0, rel=1e-12)
        assert F.radial_moment(pos, 2.0).method == "analytic"
        mv = F.radial_moment(quadrature_only(pos), 2.0)
        assert mv.method == "quadrature"
        assert mv.value == pytest.approx(3.0, rel=1e-10)
        assert mv.est_error >= 0.0

    def test_order_zero_is_normalization(self):
        for dens in (D.gaussian_pair(2, 1.0, 3.0).position,
                     D.exponential_radial(3, 2.0, 1.5),
                     D.harmonic_fermions_1d(4, 2).position):
            assert F.radial_moment(dens, 0.0).value == pytest.approx(dens.N, rel=1e-12)

    # high orders of exponential tails: the declared tail, not a probe of
    # two samples, decides whether the moment exists
    @pytest.mark.parametrize("dens,alpha,exact", [
        (D.gaussian_pair(3, 1.0, 1.0).position, 2.0, 3.0),
        (D.hydrogenic_pair(1.0).position, 43.5, math.gamma(46.5) / 2.0 ** 44.5),
        (D.exponential_radial(3, 1.0), 89.5, math.gamma(92.5) / 2.0),
        # r^79.5 overflows over the bulk of both, where rho r^79.5 does not
        (D.gaussian_pair(80, 1e3).position, 0.5, gaussian_moment(80, 1e3, 0.5)),
        (D.gaussian_pair(80, 1e-3).momentum, 0.5, gaussian_moment(80, 500, 0.5)),
    ], ids=["gaussian-r^2", "hydrogenic-r^43.5", "exponential-r^89.5",
            "gaussian-d80-wide-r^0.5", "gaussian-d80-narrow-p^0.5"])
    def test_closed_forms(self, dens, alpha, exact):
        assert F.radial_moment(dens, alpha).value == pytest.approx(exact, rel=1e-12)

    def test_origin_divergence(self):
        pos = D.hydrogenic_pair(1.0).position
        with pytest.raises(DivergenceError):
            F.radial_moment(pos, -3.0)

    def test_tail_divergence(self):
        mom = quadrature_only(D.hydrogenic_pair(1.0).momentum)
        # the momentum density decays like p^-8: order 5 diverges
        with pytest.raises(DivergenceError):
            F.radial_moment(mom, 5.0)


def test_halfline_head_follows_the_density(monkeypatch):
    gauss = quadrature_only(D.gaussian_pair(3, 2.0).position)
    ho1d = D.harmonic_fermions_1d(40, 2).position
    heads = []

    def capturing(f, spec=None, head=None):
        heads.append(head)
        return quad_halfline(f, spec, head)

    monkeypatch.setattr(F, "quad_halfline", capturing)
    F.radial_moment(gauss, 0.5)
    F.radial_moment(ho1d, 0.5)
    assert heads[0] is gauss.cuts and heads[1] is ho1d.cuts
    # the single-orbital models' ladder starts at five times their length
    # scale, 4 sigma = 8 for the Gaussian, after 16 panels; ho1d's a margin
    # past its top level's turning point sqrt(2 * 19 + 1), after
    # ceil(1.25 * 20) panels, one per 0.8 levels
    for head, end, panels in zip(heads, (5.0 * 8.0, math.sqrt(39.0) + 5.0), (16, 25)):
        assert head.tobytes() == np.linspace(0.0, end, panels + 1).tobytes()
        assert not head.flags.writeable


class TestEntropicMoment:
    def test_order_one_is_normalization(self):
        for dens in (D.gaussian_pair(3, 1.0, 1.0).position,
                     D.exponential_radial(2, 1.0, 4.0)):
            assert F.entropic_moment(dens, 1.0).value == pytest.approx(dens.N, rel=1e-14)

    def test_gaussian_power_integral(self):
        # unit-mass isotropic gaussian with per-coordinate variance s2:
        # W_m = m^(-d/2) (2 pi s2)^(-d(m-1)/2); here d = 3, s2 = a^2 = 1
        dens = D.gaussian_pair(3, 1.0, 1.0).position
        m = 5.0 / 3.0
        expected = m ** (-1.5) * (2.0 * PI) ** (-1.5 * (m - 1.0))
        assert F.entropic_moment(dens, m).value == pytest.approx(expected, rel=1e-10)

    def test_exponential_square_integral(self):
        # rho = e^-r/(8 pi): 4 pi int rho^2 r^2 dr = 1/(64 pi)
        dens = D.exponential_radial(3, 1.0, 1.0)
        assert F.entropic_moment(dens, 2.0).value == pytest.approx(1.0 / (64.0 * PI), rel=1e-10)

    def test_continuity_at_one(self):
        for dens in (D.gaussian_pair(3, 1.0, 1.0).position,
                     D.hydrogenic_pair(1.0).position):
            for m in (1.0 - 1e-6, 1.0 + 1e-6):
                assert abs(F.entropic_moment(dens, m).value - dens.N) < 1e-5

    def test_sub_unity_divergence(self):
        mom = D.hydrogenic_pair(1.0).momentum
        # gamma^m decays like p^(-8m): m = 1/4 gives tail exponent 2 < d = 3
        with pytest.raises(DivergenceError):
            F.entropic_moment(mom, 0.25)

    def test_order_domain(self):
        with pytest.raises(DomainError):
            F.entropic_moment(D.gaussian_pair(3, 1.0).position, 0.0)

    def test_negative_density_names_one_radius(self):
        pos = D.gaussian_pair(3, 1.0).position
        dens = dataclasses.replace(pos, rho=lambda r: np.where(r > 2.0, -1e-3, pos.rho(r)),
                                   exact=None)
        with pytest.raises(FormatError) as info:
            F.entropic_moment(dens, 2.0)
        message = str(info.value)
        assert len(message) < 200
        assert float(re.fullmatch(r"density is negative at r = (\S+)", message)[1]) > 2.0


class TestOrderChecks:
    """An order that is no finite real number fails before any work."""

    @pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf, True])
    def test_rejected_before_quadrature(self, monkeypatch, order):
        def no_quadrature(*args):
            raise AssertionError("a quadrature ran")

        monkeypatch.setattr(M, "_adaptive_gk", no_quadrature)
        dens = D.gaussian_pair(3, 1.0).position
        with pytest.raises(DomainError, match="^moment order must be a finite number"):
            F.radial_moment(dens, order)
        with pytest.raises(DomainError, match="^entropic moment order must be a finite number"):
            F.entropic_moment(dens, order)

    def test_integer_and_numpy_orders(self):
        dens = quadrature_only(D.gaussian_pair(3, 1.0).position)
        assert F.radial_moment(dens, 2) == F.radial_moment(dens, np.float64(2.0)) \
            == F.radial_moment(dens, 2.0)
        assert F.entropic_moment(dens, 2) == F.entropic_moment(dens, np.float64(2.0)) \
            == F.entropic_moment(dens, 2.0)


class TestFisherInformation:
    def test_gaussian(self):
        pair = D.gaussian_pair(3, 1.0, 1.0)
        info = F.fisher_information(quadrature_only(pair.position)).value
        assert info == pytest.approx(3.0, rel=1e-10)
        assert info == pytest.approx(4.0 * F.radial_moment(pair.momentum, 2.0).value, rel=1e-10)

    def test_hydrogenic(self):
        pair = D.hydrogenic_pair(1.0)
        assert F.fisher_information(quadrature_only(pair.position)).value \
            == pytest.approx(4.0, rel=1e-10)
        assert F.fisher_information(quadrature_only(pair.momentum)).value \
            == pytest.approx(12.0, rel=1e-10)

    def test_scaling(self):
        dens = D.hydrogenic_pair(1.0).position
        scaled = scale_density(dens, 2.0)
        assert F.fisher_information(scaled).value == pytest.approx(16.0, rel=1e-9)

    def test_real_wavefunction_identity_single_orbital(self):
        # I[rho] = 4 <p^2> and I[gamma] = 4 <r^2> hold for one-orbital real
        # states (the N > 1 determinants below are strictly sub-additive)
        for pair in (D.gaussian_pair(1, 1.0), D.gaussian_pair(2, 0.8),
                     D.gaussian_pair(3, 1.2), D.hydrogenic_pair(1.0),
                     D.harmonic_fermions_1d(1, 1), D.harmonic_fermions_1d(2, 2),
                     D.harmonic_fermions_1d(3, 3)):
            assert pair.real_wavefunction
            i_pos = F.fisher_information(pair.position).value
            i_mom = F.fisher_information(pair.momentum).value
            assert i_pos == pytest.approx(4.0 * F.radial_moment(pair.momentum, 2.0).value, rel=1e-6)
            assert i_mom == pytest.approx(4.0 * F.radial_moment(pair.position, 2.0).value, rel=1e-6)

    def test_determinant_fisher_below_kinetic_bound(self):
        pair = D.harmonic_fermions_1d(3, 1)
        i_pos = F.fisher_information(pair.position).value
        assert i_pos < 4.0 * F.radial_moment(pair.momentum, 2.0).value


    def test_evaluations_are_batched_and_memoized(self):
        pos = D.harmonic_fermions_1d(40, 2).position
        calls = []

        def counted(fn):
            def evaluate(x):
                calls.append(np.size(x))
                return fn(x)
            return evaluate

        dens = dataclasses.replace(pos, rho=counted(pos.rho), drho=counted(pos.drho))
        first = F.fisher_information(dens)
        assert len(calls) <= 64
        assert F.fisher_information(dens) is first
        assert len(calls) <= 64

    def test_zero_density_has_zero_information(self):
        dens = D.RadialDensity(d=3, N=1.0, rho=lambda r: np.zeros(np.shape(r)),
                               drho=lambda r: (np.zeros(np.shape(r)),) * 2,
                               cuts=M.uniform_cuts(0.0, 5.0))
        assert F.fisher_information(dens).value == 0.0
        assert F.radial_moment(dens, 1.0).value == 0.0

    def test_nan_density_is_rejected(self):
        # a NaN value is not below the floor: it reaches the quadrature,
        # which rejects it wherever it sits
        pos = quadrature_only(D.gaussian_pair(3, 1.0).position)

        def drho(r):
            value, slope = pos.drho(r)
            return np.where(r > 2.0, np.nan, value), slope

        dens = dataclasses.replace(pos, drho=drho)
        with pytest.raises(NonFiniteError):
            F.fisher_information(dens)


class TestMomentValue:
    def test_value_must_be_finite(self):
        with pytest.raises(DivergenceError, match="non-finite functional value for order 2.0"):
            F.MomentValue(2.0, math.inf, "quadrature")

    def test_error_must_be_non_negative(self):
        with pytest.raises(DomainError, match="est_error must be non-negative"):
            F.MomentValue(2.0, 1.0, "quadrature", -1e-3)


class TestVariance:
    def test_values(self):
        assert F.variance(D.gaussian_pair(3, 1.0, 1.0).position) == pytest.approx(3.0, rel=1e-12)
        assert F.variance(D.hydrogenic_pair(1.0).position) == pytest.approx(3.0, rel=1e-12)
        assert F.variance(D.exponential_radial(1, 1.0, 1.0)) == pytest.approx(2.0, rel=1e-12)

    def test_per_particle_convention(self):
        one = F.variance(D.gaussian_pair(3, 1.0, 1.0).position)
        many = F.variance(D.gaussian_pair(3, 1.0, 7.0).position)
        assert many == pytest.approx(one, rel=1e-12)


class TestCramerRao:
    @pytest.mark.parametrize("dens", [
        D.gaussian_pair(1, 1.0).position, D.gaussian_pair(3, 2.0).position,
        D.hydrogenic_pair(1.0).position, D.hydrogenic_pair(1.0).momentum,
        D.exponential_radial(2, 1.0, 1.0), D.harmonic_fermions_1d(5, 2).position,
    ], ids=lambda d: d.label)
    def test_product_at_least_d_squared(self, dens):
        # I is a total and V per particle: I[rho] = N I[rho/N]
        product = F.fisher_information(dens).value * F.variance(dens)
        assert product >= dens.N * dens.d ** 2 * (1.0 - 1e-9)

    def test_gaussian_saturates(self):
        for d in (1, 2, 3):
            dens = D.gaussian_pair(d, 1.0, 1.0).position
            product = F.fisher_information(dens).value * F.variance(dens)
            assert product == pytest.approx(d * d, rel=1e-8)


class TestHighDimension:
    """rho(r) r^(d-1+alpha) at high d: far out on the tail ladder r^w
    overflows where rho has underflowed to 0, so the weight is formed
    only where the density is nonzero."""

    @pytest.mark.parametrize("d", [50, 60, 80, 100])
    def test_gaussian_against_closed_forms(self, d):
        pos = quadrature_only(D.gaussian_pair(d, 1.0).position)
        cases = [
            (F.radial_moment(pos, 2.5), 2.0 ** 1.25 * math.gamma((d + 2.5) / 2) / math.gamma(d / 2)),
            (F.entropic_moment(pos, 2.0), (4.0 * PI) ** (-d / 2)),  # int rho^2
            # rho^(1/2) outlives rho: the tail ladder stops where rho
            # underflows to 0, and the mass past that must show in est_error
            (F.entropic_moment(pos, 0.5), (2.0 * PI) ** (d / 4) * 2.0 ** (d / 2)),
            (F.fisher_information(pos), float(d)),  # N d / sigma^2
        ]
        for mv, exact in cases:
            assert mv.method == "quadrature"
            assert abs(mv.value - exact) <= mv.est_error


class TestExtremeScales:
    """Gaussians from d = 1 to 100 and a = 1e-6 to 1e6, stripped of their
    closed forms: each side gives its Fisher information d / a^2
    (position) or 4 d a^2 (momentum) or raises a typed error.  The
    integrand is g^2 / rho formed as (g / rho) g, since g^2 alone
    underflows at wide scales and overflows at narrow ones, and its
    weight r^(d-1) as a product of two halves where it overflows alone;
    states beyond the double range are rejected at construction, and an
    accepted state computes."""

    @pytest.mark.parametrize("side", ["position", "momentum"])
    @pytest.mark.parametrize("a", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 20, 23, 24, 25, 30, 40, 50, 53, 56,
                                   60, 80, 100])
    def test_gaussian_fisher_is_right_or_typed(self, d, a, side):
        exact = d / a ** 2 if side == "position" else 4.0 * d * a ** 2
        try:
            dens = getattr(D.gaussian_pair(d, a), side)
        except UncrelError:
            return
        mv = F.fisher_information(quadrature_only(dens))
        assert abs(mv.value - exact) <= max(mv.est_error, 1e-9 * exact)
        assert F.fisher_information(dens).value == pytest.approx(exact, rel=1e-13)

    def test_wide_gaussian_does_not_underflow(self):
        # g * g underflowed to 0 here, and the value came back 0 +- 0
        mv = F.fisher_information(quadrature_only(D.gaussian_pair(25, 1e6).position))
        assert mv.value == pytest.approx(25e-12, rel=1e-12)

    @pytest.mark.parametrize("a,side,sigma", [(1e3, "position", 1e3), (1e-3, "momentum", 500.0)])
    def test_overflowing_weight_within_reported_error(self, a, side, sigma):
        # r^79 and r^79.5 overflow at the peak of rho r^w; the split
        # product keeps the rounding inside the reported error
        dens = quadrature_only(getattr(D.gaussian_pair(80, a), side))
        for mv, exact in ((F.radial_moment(dens, 0.5), gaussian_moment(80, sigma, 0.5)),
                          (F.fisher_information(dens), 80 / sigma ** 2)):
            assert abs(mv.value - exact) <= mv.est_error

    @pytest.mark.parametrize("a,side,sigma", [(1e3, "position", 1e3), (1e-3, "momentum", 500.0)])
    def test_overflowing_weight_hides_no_mass(self, a, side, sigma):
        # rho, or rho^m read as 0 below the smallest normal float, is 0
        # where rho r^119 and rho^m r^79 are not negligible: the mass those
        # zeros hide shows as a typed error or lies within the reported one
        dens = quadrature_only(getattr(D.gaussian_pair(80, a), side))
        cases = [(lambda: F.radial_moment(dens, 40.0), gaussian_moment(80, sigma, 40.0))]
        cases += [(lambda m=m: F.entropic_moment(dens, m), gaussian_entropic(80, sigma, m))
                  for m in (0.25, 0.5, 0.75)]
        for compute, exact in cases:
            try:
                mv = compute()
            except UncrelError:
                continue
            assert abs(mv.value - exact) <= mv.est_error

    @pytest.mark.parametrize("d,m", [(40, 3.0), (80, 1.5), (80, 2.0)])
    @pytest.mark.parametrize("a,side,sigma", [(1e3, "position", 1e3), (1e-3, "momentum", 500.0)])
    def test_underflowing_power_keeps_its_mass(self, d, m, a, side, sigma):
        # rho is normal but rho^m underflows to 0 over the bulk, where
        # rho^m r^(d-1) is a normal float; those zeros returned W_m = 0 +- 0
        dens = quadrature_only(getattr(D.gaussian_pair(d, a), side))
        mv = F.entropic_moment(dens, m)
        assert mv.value == pytest.approx(gaussian_entropic(d, sigma, m), rel=1e-12)


def interpolant_moment(r, y, d, alpha):
    """Omega_d int p(x) x^(alpha+d-1) dx of scipy's PCHIP p through (r, y),
    by scipy quad per knot cell; QAWS carries x^w on a cell starting at 0."""
    w = alpha + d - 1.0
    total = 0.0
    cells = zip(scipy.interpolate.PchipInterpolator(r, y).c.T.tolist(),
                r[:-1].tolist(), r[1:].tolist())
    for (c3, c2, c1, c0), a, b in cells:
        def cubic(x):
            s = x - a
            return ((c3 * s + c2) * s + c1) * s + c0

        if a == 0.0:
            part = scipy.integrate.quad(cubic, a, b, weight="alg", wvar=(w, 0.0),
                                        epsabs=0.0, epsrel=1e-13)
        else:
            part = scipy.integrate.quad(lambda x: cubic(x) * x ** w, a, b,
                                        epsabs=0.0, epsrel=1e-13)
        total += part[0]
    return 2.0 * PI ** (d / 2.0) / math.gamma(d / 2.0) * total


class TestTabulatedQuadrature:
    """A table is integrated over the knot cells of its interpolant, and
    the reported error must bound the distance to an independent integral
    of that same interpolant."""

    @pytest.mark.filterwarnings("ignore:measured normalization")
    @pytest.mark.parametrize("d,n,alpha", [
        (1, 400, -0.5), (1, 4000, -0.5), (1, 400, -0.9), (1, 4000, -0.9), (3, 12, 0.0),
    ], ids=["gaussian-400-r^-0.5", "gaussian-4000-r^-0.5", "gaussian-400-r^-0.9",
            "gaussian-4000-r^-0.9", "hydrogenic-12-norm"])
    def test_error_bounds_interpolant_integral(self, d, n, alpha):
        r = np.linspace(0.0, 12.0, n)
        if d == 1:
            rho = D.gaussian_pair(1, 1.0).position.rho(r)
        else:
            rho = D.hydrogenic_pair(1.0).position.rho(r)
        dens = D.load_tabulated(SystemConfig(d=d, N=1.0), r, rho)
        exact = interpolant_moment(r, rho, d, alpha)
        try:
            mv = F.radial_moment(dens, alpha)
        except ConvergenceError:
            # r^-0.9 outruns the refinement budget at r = 0; refusing is
            # honest, a value off by more than its error is not
            assert alpha == -0.9
            return
        assert abs(mv.value - exact) <= mv.est_error

    @pytest.mark.filterwarnings("ignore:measured normalization")
    @pytest.mark.parametrize("d,r,values", [
        (1, np.linspace(0.0, 12.0, 400), D.gaussian_pair(1, 1.0).position.rho),
        (1, np.linspace(0.0, 12.0, 4000), D.gaussian_pair(1, 1.0).position.rho),
        (60, np.linspace(0.0, 1.5e5, 400), lambda r: 1e-282 * np.exp(-(r / 2.8e4) ** 2)),
    ], ids=["gaussian-400", "gaussian-4000", "d60-r^d-overflows"])
    def test_left_out_mass_bound_is_honest(self, monkeypatch, d, r, values):
        # the Fisher integrand is 0 where the interpolant is at most 1e-12
        # of its peak, past r ~ 7.4 (d = 1) and 1.47e5 (d = 60) here; the
        # mass left out that way, bounded cell by cell from the knot
        # values, goes into the error estimate.  At d = 60 the last knots'
        # r^d is past the double range, though the bound is not
        dens = D.load_tabulated(SystemConfig(d=d, N=1.0), r, values(r))
        quadrature, bounds = F._quadrature, []

        def capturing(*args):
            bounds.append(args[-1])
            return quadrature(*args)

        monkeypatch.setattr(F, "_quadrature", capturing)
        F.fisher_information(dens)
        floor = 1e-12 * float(np.max(dens.rho(r)))
        mass = omega(d) * M.gauss_cells(
            lambda x: np.where(dens.rho(x) <= floor, dens.rho(x), 0.0) * x ** (d - 1.0), r)[0]
        assert mass > 0.0
        assert mass <= bounds[0] <= 2.0 * mass + 1e-300


# each field of a density, changed on a copy
_CHANGED_FIELDS = {
    "d": lambda dens: dataclasses.replace(dens, d=2),
    "N": lambda dens: dataclasses.replace(dens, N=2.0 * dens.N),
    "rho": lambda dens: dataclasses.replace(dens, rho=lambda r: dens.rho(r)),
    "drho": lambda dens: dataclasses.replace(
        dens, drho=lambda r: (dens.drho(r)[0], 2.0 * dens.drho(r)[1])),
    "cuts": lambda dens: dataclasses.replace(dens, cuts=2.0 * dens.cuts),
    "exact": lambda dens: dataclasses.replace(dens, exact=lambda kind, order: None),
    "support": lambda dens: dataclasses.replace(dens, support=(0.0, 2.0)),
    "knots": lambda dens: dataclasses.replace(dens, knots=dens.knots[::2].copy()),
    "tail_exponent": lambda dens: dataclasses.replace(dens, tail_exponent=50.0),
    "label": lambda dens: dataclasses.replace(dens, label="renamed"),
}


class TestQuadratureMemo:
    """Quadrature results are memoized per density: the sides of a pair
    that are one density share them, and no other densities do."""

    def test_self_dual_twin_is_integrated_once(self, monkeypatch):
        level_pass, calls = D._level_pass, []

        def counted(x, levels, slope):
            calls.append(np.size(x))
            return level_pass(x, levels, slope)

        monkeypatch.setattr(D, "_level_pass", counted)
        pair = D.harmonic_fermions_1d(20, 2)
        assert pair.momentum is pair.position
        first = F.fisher_information(pair.position)
        one_quadrature = len(calls)
        assert one_quadrature > 0
        assert F.fisher_information(pair.momentum) is first
        assert F.fisher_information(pair.position) is first
        assert len(calls) == one_quadrature

    def test_one_level_pass_per_sweep(self, monkeypatch):
        # drho's level pass also gives rho on the same nodes, so each
        # Gauss-Kronrod sweep of a ho1d Fisher information runs one
        level_pass, gk21, passes, sweeps = D._level_pass, M._gk21, [], []

        def counted_pass(x, levels, slope):
            passes.append(slope)
            return level_pass(x, levels, slope)

        def counted_sweep(f, lo, hi):
            sweeps.append(lo.size)
            return gk21(f, lo, hi)

        monkeypatch.setattr(D, "_level_pass", counted_pass)
        monkeypatch.setattr(M, "_gk21", counted_sweep)
        # the default spec takes one sweep; this one needs a second
        tight = M.QuadratureSpec(rel_tol=1e-13)
        F.fisher_information(D.harmonic_fermions_1d(20, 2).position, tight)
        assert len(sweeps) > 1
        assert passes == [True] * len(sweeps)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(D.RadialDensity)])
    def test_a_copy_gets_its_own_entry(self, field):
        dens = gaussian_table() if field == "knots" \
            else quadrature_only(D.gaussian_pair(3, 1.0).position)
        first = F.fisher_information(dens)
        changed = _CHANGED_FIELDS[field](dens)
        # the same density under a rho the memo has never seen
        fresh = dataclasses.replace(changed, rho=lambda r: changed.rho(r))
        got, want = F.fisher_information(changed), F.fisher_information(fresh)
        assert got is not first
        assert (got.value.hex(), got.est_error.hex()) == (want.value.hex(), want.est_error.hex())

    @pytest.mark.parametrize("build", [
        lambda: quadrature_only(D.gaussian_pair(3, 1.0).position),
        lambda: quadrature_only(D.gaussian_pair(3, 1.0).momentum),
        lambda: quadrature_only(D.hydrogenic_pair(1.0).position),
        lambda: quadrature_only(D.hydrogenic_pair(1.0).momentum),
        lambda: quadrature_only(D.exponential_radial(3, 1.0)),
        lambda: D.harmonic_fermions_1d(4, 2).momentum,
        gaussian_table,
        lambda: V.minimizer_density(3, 2.0, 1.0),
        lambda: V.maximizer_density(3, 2.0, -1.0),
        lambda: scale_density(D.gaussian_pair(3, 1.0).position, 2.0),
    ], ids=["gaussian", "gaussian-mom", "hydrogenic", "hydrogenic-mom", "exponential",
            "ho1d", "tabulated", "minimizer", "maximizer", "scaled"])
    def test_entries_die_with_their_density(self, build):
        dens = build()
        ref = weakref.ref(dens)
        F.radial_moment(dens, 0.5)
        F.entropic_moment(dens, 2.0)
        F.fisher_information(dens)
        assert len(F._MEMO[dens]) == 3
        del dens
        gc.collect()
        assert ref() is None


def test_ho1d_fleet_integrates_each_fisher_information_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return quad_halfline(*args)

    monkeypatch.setattr(F, "quad_halfline", counted)
    fleet = [D.harmonic_fermions_1d(n, 2) for n in range(1, 41)]
    for name in ("fisher_product_heisenberg", "cramer_rao", "zumbach"):
        rows = I.sweep(I.InequalityId(name), fleet, SystemConfig(d=1, N=1.0, q=2))
        assert all(r.status == "satisfied" for r in rows)
    assert len(calls) == 40


def _work(monkeypatch, functional) -> tuple[int, int]:
    """(Gauss-Kronrod sweeps, integrand nodes) of the quadratures that
    `functional()` runs, on a cleared memo."""
    gk21, sweeps = M._gk21, []

    def counted(f, lo, hi):
        sweeps.append(lo.size * 21)
        return gk21(f, lo, hi)

    monkeypatch.setattr(M, "_gk21", counted)
    F._MEMO.clear()
    functional()
    monkeypatch.setattr(M, "_gk21", gk21)
    return len(sweeps), sum(sweeps)


@pytest.mark.parametrize("pair", [D.gaussian_pair(3, 0.7), D.hydrogenic_pair(1.0)],
                         ids=lambda pair: pair.label)
def test_model_pairs_run_no_quadrature(monkeypatch, pair):
    # every functional of a model state is a closed form, so no relation of
    # the catalog integrates on one
    cfg = SystemConfig(d=3, N=1.0, q=2)
    for name in I.CATALOG:
        work = _work(monkeypatch, lambda: I.evaluate(I.InequalityId(name), pair, cfg))
        assert work == (0, 0), name


class TestHo1dLayout:
    """ho1d's half-line head ends a margin past the top level's turning
    point, where its tail ladder starts, and starts from panels in
    proportion to its levels; the other densities keep their layout."""

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("n", [100, 200, 400, 676])
    def test_large_n_fisher_information(self, monkeypatch, n, q):
        pos = D.harmonic_fermions_1d(n, q).position
        sweeps, _ = _work(monkeypatch, lambda: F.fisher_information(pos))
        got = F.fisher_information(pos)
        tight = F.fisher_information(pos, M.QuadratureSpec(rel_tol=1e-13))
        assert sweeps <= 2
        assert abs(got.value - tight.value) <= got.est_error
        # Cramer-Rao per particle, (I/N)(<x^2>/N) >= 1, and I <= 4 <p^2>,
        # where <p^2> = <x^2> for the self-dual ho1d state
        second = F.radial_moment(pos, 2.0).value
        assert got.value * second / n ** 2 >= 1.0
        assert got.value <= 4.0 * second

    def test_fleet_work_counts(self, monkeypatch):
        # the Fisher information of harmonic_fermions_1d(N, 2), N = 1..40,
        # the states of the benchmark's ho1d fleet: one sweep each, two for
        # N = 26 and 30, whose second sweep grades the panel at the origin
        sweeps = nodes = 0
        for n in range(1, 41):
            pos = D.harmonic_fermions_1d(n, 2).position
            s, k = _work(monkeypatch, lambda: F.fisher_information(pos))
            sweeps, nodes = sweeps + s, nodes + k
        assert (sweeps, nodes) == (42, 29358)

    @pytest.mark.parametrize("functional,work", [
        (lambda: F.radial_moment(quadrature_only(D.gaussian_pair(3, 1.0).position), 2.0),
         (1, 672)),
        (lambda: F.fisher_information(quadrature_only(D.gaussian_pair(3, 1.0).position)),
         (1, 672)),
        (lambda: F.fisher_information(quadrature_only(D.hydrogenic_pair(1.0).position)),
         (1, 672)),
        (lambda: F.fisher_information(quadrature_only(D.hydrogenic_pair(1.0).momentum)),
         (1, 672)),
        # the second sweep grades the edge panel into 16
        (lambda: F.entropic_moment(V.minimizer_density(3, 2.0, 2.0), 1.5), (2, 672)),
        (lambda: F.entropic_moment(V.maximizer_density(3, 2.0, -1.0), 0.8), (2, 735)),
    ], ids=["gaussian_stripped", "gaussian_fisher", "hydrogenic_fisher",
            "hydrogenic_momentum_fisher", "minimizer", "maximizer"])
    def test_other_layouts_keep_their_work(self, monkeypatch, functional, work):
        assert _work(monkeypatch, functional) == work

    def test_rescaled_state_keeps_the_layout(self, monkeypatch):
        base = D.harmonic_fermions_1d(20, 2).position
        scaled = scale_density(base, 2.0)
        assert scaled.cuts.tobytes() == (base.cuts / 2.0).tobytes()
        base_work = _work(monkeypatch, lambda: F.fisher_information(base))
        scaled_work = _work(monkeypatch, lambda: F.fisher_information(scaled))
        assert scaled_work[0] == base_work[0]
        got, want = F.fisher_information(scaled), F.fisher_information(base)
        assert abs(got.value - 4.0 * want.value) <= got.est_error + 4.0 * want.est_error
