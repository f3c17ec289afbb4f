import dataclasses
import math

import numpy as np
import pytest

from uncrel import densities as D
from uncrel import functionals as F
from uncrel import inequalities as I
from uncrel.constants import SystemConfig
from uncrel.errors import DomainError, FormatError

PI = math.pi


def quadrature_only(dens):
    """Strip analytic moment attachments to force the quadrature path."""
    return dataclasses.replace(dens, analytic_moments=None)


def fleet():
    members = [D.gaussian_pair(d, 1.0, 1.0).position for d in (1, 2, 3, 5)]
    members += [D.gaussian_pair(3, 0.7, 2.0).momentum,
                D.hydrogenic_pair(1.0).position,
                D.hydrogenic_pair(2.0).momentum,
                D.exponential_radial(3, 1.0, 1.0),
                D.exponential_radial(2, 1.0, 5.0),
                D.harmonic_fermions_1d(1, 1).position,
                D.harmonic_fermions_1d(7, 2).position]
    return members


@pytest.mark.parametrize("build", [
    lambda: SystemConfig(d=True),
    lambda: SystemConfig(d=3, q=True),
    lambda: SystemConfig(d=3, N=math.inf),
    lambda: D.gaussian_pair(3, math.nan),
    lambda: D.hydrogenic_pair(math.nan),
    lambda: D.exponential_radial(3, math.nan),
], ids=["config-bool-d", "config-bool-q", "config-inf-N", "gaussian-nan-a",
        "hydrogenic-nan-Z", "exponential-nan-lam"])
def test_bad_scalar_rejected_at_construction(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("build", [
    lambda: D.gaussian_pair(53, 1e6),
    lambda: D.gaussian_pair(56, 1e-6),
    lambda: D.gaussian_pair(3, 1e-160),
    lambda: D.gaussian_pair(3, 1e160),
    lambda: D.exponential_radial(200, 1.0),
    lambda: D.exponential_radial(60, 1e6),
    lambda: D.exponential_radial(1, 1e-320),
    lambda: D.hydrogenic_pair(1e62),
    lambda: D.hydrogenic_pair(1e-110),
], ids=["gaussian-d53-wide", "gaussian-d56-narrow", "gaussian-a-underflow",
        "gaussian-a-overflow", "exponential-d200", "exponential-d60-fast",
        "exponential-subnormal-lam", "hydrogenic-huge-Z", "hydrogenic-tiny-Z"])
def test_unrepresentable_state_rejected_at_construction(build):
    """States whose normalization, derivative or closed-form moments are
    no finite normal float raise DomainError, not OverflowError or
    ZeroDivisionError, and never come back holding 0 or inf."""
    with pytest.raises(DomainError, match="double-precision range"):
        build()


class TestGaussianPair:
    def test_second_moments(self):
        pair = D.gaussian_pair(3, 1.0, 1.0)
        assert pair.position.analytic_moments[2.0] == pytest.approx(3.0, rel=1e-14)
        assert pair.momentum.analytic_moments[2.0] == pytest.approx(0.75, rel=1e-14)
        assert pair.real_wavefunction

    def test_minimum_uncertainty_product(self):
        for d in (1, 2, 3):
            pair = D.gaussian_pair(d, 1.3, 1.0)
            r2 = F.radial_moment(pair.position, 2.0).value
            p2 = F.radial_moment(pair.momentum, 2.0).value
            assert r2 * p2 == pytest.approx(d * d / 4.0, rel=1e-10)

    def test_d1_scale(self):
        pair = D.gaussian_pair(1, 2.0, 1.0)
        assert pair.position.analytic_moments[2.0] == pytest.approx(4.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            D.gaussian_pair(3, 0.0, 1.0)
        with pytest.raises(DomainError):
            D.gaussian_pair(3, 1.0, -2.0)


class TestHydrogenicPair:
    def test_position_moments(self):
        pos = D.hydrogenic_pair(1.0).position
        assert pos.analytic_moments[1.0] == pytest.approx(1.5, rel=1e-14)
        assert pos.analytic_moments[2.0] == pytest.approx(3.0, rel=1e-14)
        assert pos.analytic_moments[3.0] == pytest.approx(7.5, rel=1e-14)

    def test_momentum_moments_against_quadrature(self):
        mom = D.hydrogenic_pair(1.0).momentum
        assert mom.analytic_moments[1.0] == pytest.approx(8.0 / (3.0 * PI), rel=1e-14)
        assert mom.analytic_moments[2.0] == pytest.approx(1.0, rel=1e-14)
        bare = quadrature_only(mom)
        for k in (-2.0, -1.0, 1.0, 2.0):
            assert F.radial_moment(bare, k).value == pytest.approx(
                mom.analytic_moments[k], rel=1e-9)

    def test_uncertainty_products_charge_invariant(self):
        p1, p2 = D.hydrogenic_pair(1.0), D.hydrogenic_pair(2.0)
        for alpha, k in ((1.0, 1.0), (2.0, 2.0), (3.0, -1.0)):
            lhs1 = F.radial_moment(p1.position, alpha).value ** (k / alpha) \
                * F.radial_moment(p1.momentum, k).value
            lhs2 = F.radial_moment(p2.position, alpha).value ** (k / alpha) \
                * F.radial_moment(p2.momentum, k).value
            assert lhs1 == pytest.approx(lhs2, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            D.hydrogenic_pair(0.0)


class TestExponentialRadial:
    def test_matches_hydrogenic_position(self):
        dens = D.exponential_radial(3, 2.0, 1.0)
        pos = D.hydrogenic_pair(1.0).position
        r = np.linspace(0.0, 8.0, 50)
        assert np.allclose(dens.rho(r), pos.rho(r), rtol=1e-13)

    def test_first_moment(self):
        dens = D.exponential_radial(3, 1.0, 1.0)
        assert dens.analytic_moments[1.0] == pytest.approx(3.0, rel=1e-14)

    def test_constructed_normalization(self):
        dens = quadrature_only(D.exponential_radial(2, 1.0, 5.0))
        assert F.radial_moment(dens, 0.0).value == pytest.approx(5.0, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            D.exponential_radial(3, -1.0, 1.0)


class TestHarmonicFermions:
    def test_single_particle_is_oscillator_ground_state(self):
        pair = D.harmonic_fermions_1d(1, 1)
        assert pair.position.analytic_moments[2.0] == pytest.approx(0.5, rel=1e-14)
        x = np.linspace(-3, 3, 31)
        expected = np.exp(-x * x) / math.sqrt(PI)
        assert np.allclose(pair.position.rho(np.abs(x)), expected, rtol=1e-12)

    def test_momentum_equals_position_pointwise(self):
        for n, q in ((3, 1), (5, 2), (8, 2)):
            pair = D.harmonic_fermions_1d(n, q)
            x = np.linspace(0.0, 6.0, 40)
            assert np.allclose(pair.position.rho(x), pair.momentum.rho(x), rtol=0, atol=0)

    def test_three_fermion_kinetic_moment(self):
        pair = D.harmonic_fermions_1d(3, 1)
        bare = quadrature_only(pair.momentum)
        assert F.radial_moment(bare, 2.0).value == pytest.approx(4.5, rel=1e-10)

    def test_level_filling_with_spin(self):
        # N=3, q=2 occupies level 0 twice and level 1 once
        pair = D.harmonic_fermions_1d(3, 2)
        assert pair.position.analytic_moments[2.0] == pytest.approx(2.0 * 0.5 + 1.5, rel=1e-14)
        # integral floats are integers, and fill the same levels
        again = D.harmonic_fermions_1d(3.0, 2.0).position
        x = np.linspace(0.0, 5.0, 11)
        assert again.analytic_moments == pair.position.analytic_moments
        assert np.array_equal(again.rho(x), pair.position.rho(x))

    def test_derivative_consistency(self):
        pair = D.harmonic_fermions_1d(6, 2)
        x = np.linspace(0.1, 4.0, 17)
        h = 1e-6
        fd = (pair.position.rho(x + h) - pair.position.rho(x - h)) / (2 * h)
        assert np.allclose(pair.position.drho(x), fd, rtol=1e-6, atol=1e-9)

    def test_matches_level_by_level_reference(self):
        # every psi_n rebuilt from psi_0 on its own; the shared recurrence
        # does the same arithmetic, so the sums agree bit for bit
        def psi(n, x):
            p0 = math.pi ** -0.25 * np.exp(-0.5 * x * x)
            if n == 0:
                return p0
            p1 = math.sqrt(2.0) * x * p0
            for m in range(2, n + 1):
                p0, p1 = p1, np.sqrt(2.0 / m) * x * p1 - np.sqrt((m - 1.0) / m) * p0
            return p1

        x = np.linspace(0.0, 12.0, 2001)
        for n, q in ((1, 1), (2, 2), (7, 1), (30, 2)):
            levels = [(m, min(q, n - q * m)) for m in range(-(-n // q))]
            rho = drho = 0.0
            for m, w in levels:
                below = psi(m - 1, x) if m >= 1 else 0.0
                rho = rho + w * psi(m, x) * psi(m, x)
                drho = drho + w * 2.0 * psi(m, x) * (np.sqrt(2.0 * m) * below - x * psi(m, x))
            dens = D.harmonic_fermions_1d(n, q).position
            assert np.array_equal(dens.rho(x), rho)
            assert np.array_equal(dens.drho(x), drho)

    @pytest.mark.parametrize("q", [3, 4, 6])
    def test_any_spin_multiplicity(self, q):
        # q = 2s + 1 fermions per level: N and <x^2> by quadrature match
        # the closed forms, and the state obeys Cramer-Rao
        for n in range(1, 25):
            pair = D.harmonic_fermions_1d(n, q)
            bare = quadrature_only(pair.position)
            second = sum(min(q, n - q * m) * (m + 0.5) for m in range(-(-n // q)))
            assert pair.position.analytic_moments[2.0] == second
            assert F.radial_moment(bare, 0.0).value == pytest.approx(n, rel=7e-16)
            assert F.radial_moment(bare, 2.0).value == pytest.approx(second, rel=7e-16)
            report = I.evaluate(I.InequalityId.CRAMER_RAO, pair, SystemConfig(d=1, N=n, q=q))
            assert report.satisfied, report

    def test_domain(self):
        with pytest.raises(DomainError):
            D.harmonic_fermions_1d(0, 1)
        for q in (0, True):
            with pytest.raises(DomainError, match="spin multiplicity"):
                D.harmonic_fermions_1d(3, q)


class TestLoadTabulated:
    def grid_table(self, Z=1.0, n=400, rmax=12.0):
        r = np.linspace(0.0, rmax, n)
        return r, (Z ** 3 / PI) * np.exp(-2.0 * Z * r)

    def test_hydrogenic_first_moment(self):
        r, rho = self.grid_table()
        dens = D.load_tabulated(SystemConfig(d=3, N=1.0, q=2), r, rho)
        assert F.radial_moment(dens, 1.0).value == pytest.approx(1.5, abs=1e-5)

    def test_measured_normalization_stored(self):
        r, rho = self.grid_table()
        dens = D.load_tabulated(SystemConfig(d=3, N=1.0, q=2), r, rho)
        assert dens.N == pytest.approx(1.0, abs=1e-6)

    def test_unordered_rows_rejected(self):
        r, rho = self.grid_table()
        r[5], r[6] = r[6], r[5]
        with pytest.raises(FormatError):
            D.load_tabulated(SystemConfig(d=3, N=1.0, q=2), r, rho)

    def test_all_zero_rejected(self):
        r, _ = self.grid_table()
        with pytest.raises(DomainError):
            D.load_tabulated(SystemConfig(d=3, N=1.0, q=2), r, np.zeros_like(r))

    def test_too_few_samples(self):
        with pytest.raises(FormatError):
            D.load_tabulated(SystemConfig(d=3, N=1.0, q=2),
                             np.linspace(0, 1, 5), np.ones(5))

    def test_normalization_warning(self):
        r, rho = self.grid_table()
        with pytest.warns(UserWarning, match="deviates"):
            D.load_tabulated(SystemConfig(d=3, N=2.0, q=2), r, rho)

    def test_unequal_columns_rejected(self):
        r, rho = self.grid_table()
        with pytest.raises(FormatError, match="^tabulated density must be two equal-length"):
            D.load_tabulated(SystemConfig(d=3, N=1.0, q=2), r, rho[:-1])

    def test_negative_radius_rejected(self):
        r, rho = self.grid_table()
        with pytest.raises(FormatError, match="radii must be non-negative"):
            D.load_tabulated(SystemConfig(d=3, N=1.0, q=2), r - 1.0, rho)

    def test_scaling_moves_the_support(self):
        r, rho = self.grid_table()
        dens = D.load_tabulated(SystemConfig(d=3, N=1.0, q=2), r, rho)
        scaled = D.scale_density(dens, 2.0)
        assert scaled.support == (0.0, 6.0)
        assert np.array_equal(scaled.knots, r / 2.0)
        assert F.radial_moment(scaled, 1.0).value == pytest.approx(
            F.radial_moment(dens, 1.0).value / 2.0, rel=1e-9)


class TestInvariants:
    @pytest.mark.parametrize("dens", fleet(), ids=lambda d: d.label)
    def test_normalization(self, dens):
        value = F.radial_moment(quadrature_only(dens), 0.0).value
        assert value == pytest.approx(dens.N, rel=1e-8)

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_scaling_laws(self, lam):
        for dens in (D.gaussian_pair(3, 1.0, 1.0).position,
                     D.hydrogenic_pair(1.0).momentum,
                     D.exponential_radial(2, 1.5, 1.0)):
            base = quadrature_only(dens)
            scaled = D.scale_density(base, lam)
            for alpha in (1.0, 2.0):
                assert F.radial_moment(scaled, alpha).value == pytest.approx(
                    F.radial_moment(base, alpha).value * lam ** (-alpha), rel=1e-8)
            m = 2.0
            assert F.entropic_moment(scaled, m).value == pytest.approx(
                F.entropic_moment(base, m).value * lam ** (dens.d * (m - 1.0)), rel=1e-8)
            assert F.fisher_information(scaled).value == pytest.approx(
                F.fisher_information(base).value * lam ** 2, rel=1e-8)

    @pytest.mark.parametrize("dens", fleet()[:6], ids=lambda d: d.label)
    def test_analytic_matches_quadrature(self, dens):
        bare = quadrature_only(dens)
        for order, exact in (dens.analytic_moments or {}).items():
            if order in (0.0, 2.0, 1.0, -1.0):
                assert F.radial_moment(bare, order).value == pytest.approx(exact, rel=1e-8)

    def test_model_pair_count_mismatch_rejected(self):
        # the 1% allowance is for tabulated sides only
        with pytest.raises(DomainError):
            D.DensityPair(D.gaussian_pair(3, 1.0, 1.0).position,
                          D.gaussian_pair(3, 1.0, 1.005).momentum)

    def test_pair_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            D.DensityPair(D.gaussian_pair(2, 1.0).position,
                          D.gaussian_pair(3, 1.0).momentum)
