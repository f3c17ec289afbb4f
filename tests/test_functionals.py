import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate

from uncrel import densities as D
from uncrel import functionals as F
from uncrel.constants import SystemConfig
from uncrel.errors import ConvergenceError, DivergenceError, DomainError

PI = math.pi


def quadrature_only(dens):
    return dataclasses.replace(dens, analytic_moments=None)


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

    def test_gaussian_r2(self):
        pos = D.gaussian_pair(3, 1.0, 1.0).position
        assert F.radial_moment(pos, 2.0).value == pytest.approx(3.0, rel=1e-12)

    def test_origin_divergence(self):
        pos = D.hydrogenic_pair(1.0).position
        with pytest.raises(DivergenceError):
            F.radial_moment(pos, -3.0)

    def test_tail_divergence(self):
        mom = quadrature_only(D.hydrogenic_pair(1.0).momentum)
        # the momentum density decays like p^-8: order 5 diverges
        with pytest.raises(DivergenceError):
            F.radial_moment(mom, 5.0)


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


class TestFisherInformation:
    def test_gaussian(self):
        pair = D.gaussian_pair(3, 1.0, 1.0)
        info = F.fisher_information(pair.position).value
        assert info == pytest.approx(3.0, rel=1e-10)
        assert info == pytest.approx(4.0 * F.radial_moment(pair.momentum, 2.0).value, rel=1e-10)

    def test_hydrogenic(self):
        pair = D.hydrogenic_pair(1.0)
        assert F.fisher_information(pair.position).value == pytest.approx(4.0, rel=1e-10)
        assert F.fisher_information(pair.momentum).value == pytest.approx(12.0, rel=1e-10)

    def test_scaling(self):
        dens = D.hydrogenic_pair(1.0).position
        scaled = D.scale_density(dens, 2.0)
        assert F.fisher_information(scaled).value == pytest.approx(16.0, rel=1e-9)

    def test_real_wavefunction_identity_single_orbital(self):
        # I[rho] = 4 <p^2> and I[gamma] = 4 <r^2> hold for one-orbital real
        # states (the N > 1 determinants below are strictly sub-additive)
        for pair in (D.gaussian_pair(1, 1.0), D.gaussian_pair(2, 0.8),
                     D.gaussian_pair(3, 1.2), D.hydrogenic_pair(1.0),
                     D.harmonic_fermions_1d(1, 1)):
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
        product = F.fisher_information(dens).value * F.variance(dens)
        assert product >= dens.d ** 2 * (1.0 - 1e-9)

    def test_gaussian_saturates(self):
        for d in (1, 2, 3):
            dens = D.gaussian_pair(d, 1.0, 1.0).position
            product = F.fisher_information(dens).value * F.variance(dens)
            assert product == pytest.approx(d * d, rel=1e-8)


class TestHighDimension:
    """rho(r) r^(d-1+alpha) at high d: far out on the tail ladder r^w
    overflows where rho has underflowed to 0, so the weight is formed
    only where the density is nonzero."""

    @pytest.mark.parametrize("d", [50, 60, 80])
    def test_gaussian_against_closed_forms(self, d):
        pos = D.gaussian_pair(d, 1.0).position
        cases = [
            (F.radial_moment(pos, 2.5), 2.0 ** 1.25 * math.gamma((d + 2.5) / 2) / math.gamma(d / 2)),
            (F.entropic_moment(pos, 2.0), (4.0 * PI) ** (-d / 2)),  # int rho^2
            (F.fisher_information(pos), float(d)),  # N d / sigma^2
        ]
        for mv, exact in cases:
            assert mv.method == "quadrature"
            assert abs(mv.value - exact) <= mv.est_error


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
