import json
import math
import random
import re
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from uncrel import densities as D
from uncrel import functionals as F
from uncrel import inequalities as I
from uncrel import varoracle as V
from uncrel.constants import SystemConfig, Wide, gamma_half_ratio, wide_gamma
from uncrel.errors import DivergenceError, DomainError, FormatError, UncrelError

from helpers import gaussian_table, quadrature_only, scale_density

PI = math.pi


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
    lambda: D.gaussian_pair(3, 1e-100),
    lambda: D.exponential_radial(230, 1.0),
    lambda: D.exponential_radial(60, 1e8),
    lambda: D.exponential_radial(1, 1e-320),
    lambda: D.exponential_radial(1, 1e-310, 1e10),
    lambda: D.hydrogenic_pair(1e62),
    lambda: D.hydrogenic_pair(1e-110),
], ids=["gaussian-d53-wide", "gaussian-d56-narrow", "gaussian-a-underflow",
        "gaussian-a-overflow", "gaussian-drho-overflow", "exponential-d230", "exponential-d60-fast",
        "exponential-subnormal-lam", "exponential-subnormal-lam-normal-c",
        "hydrogenic-huge-Z", "hydrogenic-tiny-Z"])
def test_unrepresentable_state_rejected_at_construction(build):
    """States whose normalization or derivative factor is no finite
    normal float raise DomainError, not OverflowError or
    ZeroDivisionError, and never come back holding 0 or inf."""
    with pytest.raises(DomainError, match="double-precision range"):
        build()


class TestGaussianPair:
    def test_second_moments(self):
        pair = D.gaussian_pair(3, 1.0, 1.0)
        assert pair.position.exact("moment", 2.0) == pytest.approx(3.0, rel=1e-14)
        assert pair.momentum.exact("moment", 2.0) == pytest.approx(0.75, rel=1e-14)
        assert pair.real_wavefunction

    def test_minimum_uncertainty_product(self):
        for d in (1, 2, 3):
            pair = D.gaussian_pair(d, 1.3, 1.0)
            r2 = F.radial_moment(pair.position, 2.0).value
            p2 = F.radial_moment(pair.momentum, 2.0).value
            assert r2 * p2 == pytest.approx(d * d / 4.0, rel=1e-10)

    def test_d1_scale(self):
        pair = D.gaussian_pair(1, 2.0, 1.0)
        assert pair.position.exact("moment", 2.0) == pytest.approx(4.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            D.gaussian_pair(3, 0.0, 1.0)
        with pytest.raises(DomainError):
            D.gaussian_pair(3, 1.0, -2.0)


class TestHydrogenicPair:
    def test_position_moments(self):
        pos = D.hydrogenic_pair(1.0).position
        assert pos.exact("moment", 1.0) == pytest.approx(1.5, rel=1e-14)
        assert pos.exact("moment", 2.0) == pytest.approx(3.0, rel=1e-14)
        assert pos.exact("moment", 3.0) == pytest.approx(7.5, rel=1e-14)

    def test_momentum_moments_against_quadrature(self):
        mom = D.hydrogenic_pair(1.0).momentum
        assert mom.exact("moment", 1.0) == pytest.approx(8.0 / (3.0 * PI), rel=1e-14)
        assert mom.exact("moment", 2.0) == pytest.approx(1.0, rel=1e-14)
        bare = quadrature_only(mom)
        for k in (-2.0, -1.0, 1.0, 2.0):
            assert F.radial_moment(bare, k).value == pytest.approx(
                mom.exact("moment", k), rel=1e-9)

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
        assert dens.exact("moment", 1.0) == pytest.approx(3.0, rel=1e-14)

    def test_constructed_normalization(self):
        dens = quadrature_only(D.exponential_radial(2, 1.0, 5.0))
        assert F.radial_moment(dens, 0.0).value == pytest.approx(5.0, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            D.exponential_radial(3, -1.0, 1.0)


class TestHarmonicFermions:
    def test_single_particle_is_oscillator_ground_state(self):
        pair = D.harmonic_fermions_1d(1, 1)
        assert pair.position.exact("moment", 2.0) == pytest.approx(0.5, rel=1e-14)
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
        assert pair.position.exact("moment", 2.0) == pytest.approx(2.0 * 0.5 + 1.5, rel=1e-14)
        # integral floats are integers, and fill the same levels
        again = D.harmonic_fermions_1d(3.0, 2.0).position
        x = np.linspace(0.0, 5.0, 11)
        for order in (0.0, 2.0):
            assert again.exact("moment", order) == pair.position.exact("moment", order)
        assert np.array_equal(again.rho(x), pair.position.rho(x))

    def test_derivative_consistency(self):
        pair = D.harmonic_fermions_1d(6, 2)
        x = np.linspace(0.1, 4.0, 17)
        h = 1e-6
        fd = (pair.position.rho(x + h) - pair.position.rho(x - h)) / (2 * h)
        assert np.allclose(pair.position.drho(x)[1], fd, rtol=1e-6, atol=1e-9)

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
            assert np.array_equal(dens.drho(x)[1], drho)

    @pytest.mark.parametrize("q", [3, 4, 6])
    def test_any_spin_multiplicity(self, q):
        # q = 2s + 1 fermions per level: N and <x^2> by quadrature match
        # the closed forms, and the state obeys Cramer-Rao
        for n in range(1, 25):
            pair = D.harmonic_fermions_1d(n, q)
            bare = quadrature_only(pair.position)
            second = sum(min(q, n - q * m) * (m + 0.5) for m in range(-(-n // q)))
            assert pair.position.exact("moment", 2.0) == second
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

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_level_limit(self, q):
        top = D.MAX_OSCILLATOR_LEVELS
        assert 650 <= top < 700
        assert D.harmonic_fermions_1d(q * top, q).position.N == q * top
        with pytest.raises(DomainError, match=re.escape(
                f"ho1d(N={q * top + 1},q={q}) fills {top + 1} oscillator levels; "
                f"at most {top} are supported")):
            D.harmonic_fermions_1d(q * top + 1, q)

    def test_every_particle_kept_up_to_the_limit(self):
        # trapezoid sums on [0, 80] are exact to rounding for these entire,
        # Gaussian-damped functions
        x = np.linspace(0.0, 80.0, 8001)

        def count(values):
            return 2.0 * (x[1] - x[0]) * (values.sum() - 0.5 * (values[0] + values[-1]))

        def top_level(levels):  # the density of one fermion in the highest level
            return D._level_pass(x, D._oscillator_levels([0] * (levels - 1) + [1]), False)[0]

        top = D.MAX_OSCILLATOR_LEVELS
        for q in (1, 2):
            assert count(D.harmonic_fermions_1d(q * top, q).position.rho(x)) == \
                pytest.approx(q * top, rel=5e-16, abs=0)
        assert abs(count(top_level(top)) - 1.0) < 4e-15
        # past the limit the underflowed start shows: the 700th level alone
        # is 4e-10 off
        assert abs(count(top_level(700)) - 1.0) > 1e-10


_BITS_PATH = Path(__file__).resolve().parent / "data" / "ho1d_bits.json"
_BITS = json.loads(_BITS_PATH.read_text())
# the quadrature cells that open each row of ho1d_bits.json
_BITS_CELLS = ("fisher", "W1.5", "x^0.5")


def _bits_functionals(pos):
    return [F.fisher_information(pos), F.entropic_moment(pos, 1.5), F.radial_moment(pos, 0.5)]


class TestLevelPass:
    """rho and drho of ho1d are each one level pass, pinned to the bits of
    the generator sums."""

    def test_bits_of_the_generator_sums(self):
        x = np.array(_BITS["points"])
        for key, want in _BITS["values"].items():
            n, q = map(int, key.split(","))
            pos = D.harmonic_fermions_1d(n, q).position
            got = [*(mv.value for mv in _bits_functionals(pos)), *pos.rho(x), *pos.drho(x)[1]]
            assert [float(v).hex() for v in got] == want, key
            pointwise = [*(pos.rho(float(v)) for v in x), *(pos.drho(float(v))[1] for v in x)]
            assert [v.hex() for v in pointwise] == want[3:], key

    def test_scalars_give_scalars(self):
        pos = D.harmonic_fermions_1d(7, 2).position
        for f in (pos.rho, lambda v: pos.drho(v)[1]):
            for v in (1.5, np.float64(1.5), np.array(1.5)):
                out = f(v)
                assert type(out) is np.float64
                assert out == f(np.array([1.5]))[0]


# each constructor's density and the radii, past 31 across its bulk, to
# read it at: where it has fallen to 0, and its edge cases (the table's
# end and past it, the minimizer's edge a and past it, with k > d, and the
# maximizer's tail past r^alpha's overflow)
_SLOPE_CASES = {
    "gaussian": (lambda: D.gaussian_pair(3, 0.7).position, lambda dens: [40.0]),
    "gaussian-mom": (lambda: D.gaussian_pair(3, 0.7).momentum, lambda dens: [40.0]),
    "hydrogenic": (lambda: D.hydrogenic_pair(1.5).position, lambda dens: [400.0]),
    "hydrogenic-mom": (lambda: D.hydrogenic_pair(1.5).momentum, lambda dens: [1e20]),
    "exponential": (lambda: D.exponential_radial(2, 0.5, 3.0), lambda dens: [2000.0]),
    "ho1d": (lambda: D.harmonic_fermions_1d(9, 2).position, lambda dens: [39.0, 1e3]),
    "tabulated": (gaussian_table, lambda dens: [8.0, 8.5]),
    "minimizer": (lambda: V.minimizer_density(2, 2.0, 4.0),
                  lambda dens: [dens.support[1], 2.0 * dens.support[1]]),
    "maximizer": (lambda: V.maximizer_density(3, 2.0, -1.0), lambda dens: [1e100, 1e160, 1e300]),
}


class TestSlopeContract:
    """drho(r) is the pair (rho(r), rho'(r)), whose first part has the bits
    of rho(r), and neither keeps anything between calls."""

    @staticmethod
    def radii(name):
        build, extra = _SLOPE_CASES[name]
        dens = build()
        return dens, np.concatenate([np.linspace(0.0, 3.0 * dens.support_hint, 31), extra(dens)])

    @staticmethod
    def bits(*parts):
        return [np.asarray(part, dtype=np.float64).tobytes() for part in parts]

    @pytest.mark.parametrize("name", list(_SLOPE_CASES))
    def test_value_is_rho(self, name):
        dens, x = self.radii(name)
        locked = x.copy()
        locked.flags.writeable = False
        for r in (x, locked):
            value, slope = dens.drho(r)
            assert value.shape == slope.shape == r.shape
            assert self.bits(value) == self.bits(dens.rho(r))
        assert np.any(dens.drho(x)[1] != 0.0)

    @pytest.mark.parametrize("name", list(_SLOPE_CASES))
    def test_scalars_give_float64(self, name):
        dens, x = self.radii(name)
        value, slope = dens.drho(x)
        for i, v in enumerate(x):
            for arg in (float(v), np.float64(v), np.array(v)):
                got = (dens.rho(arg), *dens.drho(arg))
                assert [type(part) for part in got] == [np.float64] * 3
                assert self.bits(*got) == self.bits(value[i], value[i], slope[i])

    @pytest.mark.parametrize("name", list(_SLOPE_CASES))
    def test_no_state_between_calls(self, name):
        dens, x = self.radii(name)
        build = _SLOPE_CASES[name][0]

        def calls(fresh):  # each call on its own fresh density sees a copy
            return {"rho": lambda r: (fresh.rho(r),), "drho": fresh.drho}

        for order in (("drho", "rho"), ("rho", "drho")):
            for locked in (False, True):
                r = x.copy()
                for step, call in enumerate(order):
                    if locked:
                        r.flags.writeable = False
                    assert self.bits(*calls(dens)[call](r)) == \
                        self.bits(*calls(build())[call](r.copy()))
                    # the next call sees the same array changed in place
                    r.flags.writeable = True
                    r *= 0.75
                    r += 0.125 * step


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
        scaled = scale_density(dens, 2.0)
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
            scaled = scale_density(base, lam)
            for alpha in (1.0, 2.0):
                assert F.radial_moment(scaled, alpha).value == pytest.approx(
                    F.radial_moment(base, alpha).value * lam ** (-alpha), rel=1e-8)
            m = 2.0
            assert F.entropic_moment(scaled, m).value == pytest.approx(
                F.entropic_moment(base, m).value * lam ** (dens.d * (m - 1.0)), rel=1e-8)
            assert F.fisher_information(scaled).value == pytest.approx(
                F.fisher_information(base).value * lam ** 2, rel=1e-8)

    @pytest.mark.parametrize("dens", fleet()[:9], ids=lambda d: d.label)
    def test_analytic_matches_quadrature(self, dens):
        # fractional radial and entropic orders: each closed form lies
        # within the reported error of the stripped density's quadrature
        bare = quadrature_only(dens)
        cases = [(F.radial_moment, a) for a in (-1.5, -0.5, 0.5, 1.5, 2.5, 3.7) if a > -dens.d]
        cases += [(F.entropic_moment, m) for m in (0.5, 1.5, 2.0, 3.25)]
        for functional, order in cases:
            exact, quad = functional(dens, order), functional(bare, order)
            assert (exact.method, exact.est_error, quad.method) == ("analytic", 0.0, "quadrature")
            assert abs(exact.value - quad.value) <= quad.est_error, (functional, order)

    def test_model_pair_count_mismatch_rejected(self):
        # the 1% allowance is for tabulated sides only
        with pytest.raises(DomainError):
            D.DensityPair(D.gaussian_pair(3, 1.0, 1.0).position,
                          D.gaussian_pair(3, 1.0, 1.005).momentum)

    def test_pair_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            D.DensityPair(D.gaussian_pair(2, 1.0).position,
                          D.gaussian_pair(3, 1.0).momentum)


_DIMENSIONS = (*range(1, 41), 100, 400)
_MAX = mpmath.mpf(2) ** 1024
_MIN = mpmath.mpf(2) ** -1022  # the smallest normal float


def _draws(seed, count):
    """(d, scale, N, order) draws: d from 1..40, 100 and 400, scales
    log-uniform over 1e-6..1e6, radial orders from -d + 0.01 on
    (fractional but for the window's edge), N log-uniform over 1e-3..1e6."""
    rng = random.Random(seed)
    for i in range(count):
        d = rng.choice(_DIMENSIONS)
        order = -d + 0.01 if i % 10 == 0 else rng.uniform(-d + 0.01, 2.0 * d + 10.0)
        yield d, 10.0 ** rng.uniform(-6.0, 6.0), 10.0 ** rng.uniform(-3.0, 6.0), order


def _entropic_orders(rng, low=0.0):
    """Five m in (low, 4]: log-uniform from 1e-3 (or just above low) and 4."""
    lo = max(low * 1.001, 1e-3)
    return [10.0 ** rng.uniform(math.log10(lo), math.log10(4.0)) for _ in range(4)] + [4.0]


class TestClosedForms:
    """Every closed form against 30-digit mpmath at the state's own float
    parameters: within 1e-13 relative, or a DomainError where the value
    leaves the double range (or the state cannot be built)."""

    def check(self, compute, exact):
        exact = mpmath.mpf(exact)
        try:
            mv = compute()
        except DomainError:
            assert not _MIN * (1 + 1e-12) < exact < _MAX * (1 - 1e-12)
            return
        assert (mv.method, mv.est_error) == ("analytic", 0.0)
        assert abs(mv.value / exact - 1) <= 1e-13, (mv.value, exact)

    def test_gaussian(self):
        with mpmath.workdps(30):
            rng = random.Random(11)
            for d, a, N, order in _draws(1, 500):
                try:
                    pair = D.gaussian_pair(d, a, N)
                except DomainError:
                    continue
                for dens, s2 in ((pair.position, a * a), (pair.momentum, 1.0 / (4.0 * a * a))):
                    s2, dm = mpmath.mpf(s2), mpmath.mpf(d)
                    self.check(lambda: F.fisher_information(dens), N * dm / s2)
                    self.check(lambda: F.radial_moment(dens, order),
                               N * (2 * s2) ** (mpmath.mpf(order) / 2)
                               * mpmath.gamma((order + dm) / 2) / mpmath.gamma(dm / 2))
                    for m in _entropic_orders(rng):
                        self.check(lambda: F.entropic_moment(dens, m),
                                   mpmath.mpf(N) ** m * (2 * mpmath.pi * s2) ** (-dm * (m - 1) / 2)
                                   * mpmath.mpf(m) ** (-dm / 2))

    def test_exponential(self):
        with mpmath.workdps(30):
            rng = random.Random(12)
            for d, lam, N, order in _draws(2, 500):
                try:
                    dens = D.exponential_radial(d, lam, N)
                except DomainError:
                    continue
                dm, lm = mpmath.mpf(d), mpmath.mpf(lam)
                self.check(lambda: F.fisher_information(dens), lm ** 2 * N)
                self.check(lambda: F.radial_moment(dens, order),
                           N * mpmath.gamma(dm + order) / (lm ** order * mpmath.gamma(dm)))
                omega = 2 * mpmath.pi ** (dm / 2) / mpmath.gamma(dm / 2)
                c = N * lm ** dm / (omega * mpmath.gamma(dm))
                for m in _entropic_orders(rng):
                    self.check(lambda: F.entropic_moment(dens, m),
                               omega * c ** m * mpmath.gamma(dm) / (lm * m) ** dm)

    def test_hydrogenic(self):
        with mpmath.workdps(30):
            rng = random.Random(13)
            for i in range(300):
                Z = 10.0 ** rng.uniform(-6.0, 6.0)
                pair = D.hydrogenic_pair(Z)
                z = mpmath.mpf(Z)
                a = -2.99 if i % 10 == 0 else rng.uniform(-2.99, 80.0)
                k = rng.uniform(-2.99, 4.99)
                self.check(lambda: F.fisher_information(pair.position), 4 * z ** 2)
                self.check(lambda: F.fisher_information(pair.momentum), 12 / z ** 2)
                self.check(lambda: F.radial_moment(pair.position, a),
                           mpmath.gamma(a + 3) / (2 ** (a + 1) * z ** a))
                self.check(lambda: F.radial_moment(pair.momentum, k),
                           16 * z ** k / mpmath.pi * mpmath.beta((k + 3) / 2, (5 - k) / 2))
                for m in _entropic_orders(rng):
                    self.check(lambda: F.entropic_moment(pair.position, m),
                               mpmath.pi * (z ** 3 / mpmath.pi) ** m / (z * m) ** 3)
                for m in _entropic_orders(rng, low=0.375):
                    c = 8 * z ** 5 / mpmath.pi ** 2
                    self.check(lambda: F.entropic_moment(pair.momentum, m),
                               2 * mpmath.pi * c ** m * z ** (3 - 8 * m)
                               * mpmath.beta(1.5, 4 * m - 1.5))

    def test_formerly_rejected_states(self):
        # representable states that a range check on intermediates of
        # older formulas rejected
        with mpmath.workdps(30):
            dens = D.gaussian_pair(340, 1.0).position
            self.check(lambda: F.radial_moment(dens, 2.0), 340)
            self.check(lambda: F.entropic_moment(dens, 2.0), (4 * mpmath.pi) ** -170)
            self.check(lambda: F.fisher_information(dens), 340)
            for d, lam in ((200, 1.0), (60, 1e6)):
                dens, dm, lm = D.exponential_radial(d, lam), mpmath.mpf(d), mpmath.mpf(lam)
                omega = 2 * mpmath.pi ** (dm / 2) / mpmath.gamma(dm / 2)
                c = lm ** dm / (omega * mpmath.gamma(dm))
                self.check(lambda: F.radial_moment(dens, 2.0), dm * (dm + 1) / lm ** 2)
                self.check(lambda: F.entropic_moment(dens, 2.0),
                           omega * c ** 2 * mpmath.gamma(dm) / (2 * lm) ** dm)
                self.check(lambda: F.fisher_information(dens), lm ** 2)

    def test_to_the_edge_of_the_range(self):
        # gaussian_pair(d, 1.0) builds up to d = 770 and exponential_radial(d,
        # 1.0) up to d = 226, where their normalizations leave the range;
        # every functional is exact or a DomainError, and stripped of the
        # closed forms a typed error or a value within its reported error
        with mpmath.workdps(30):
            for d in range(1, 781):
                if d > 770:
                    with pytest.raises(DomainError, match="double-precision range"):
                        D.gaussian_pair(d, 1.0)
                    continue
                dm, pair = mpmath.mpf(d), D.gaussian_pair(d, 1.0)
                # each state with its exact <r^a>, W_m and Fisher information
                states = [(dens, lambda a, s2=s2: (2 * s2) ** (a / 2)
                           * mpmath.gamma((a + dm) / 2) / mpmath.gamma(dm / 2),
                           lambda m, s2=s2: (2 * mpmath.pi * s2) ** (-dm * (m - 1) / 2)
                           / m ** (dm / 2), dm / s2)
                          for dens, s2 in ((pair.position, mpmath.mpf(1)),
                                           (pair.momentum, mpmath.mpf(0.25)))]
                if d > 226:
                    with pytest.raises(DomainError, match="double-precision range"):
                        D.exponential_radial(d, 1.0)
                else:
                    # c = 1 / (Omega_d Gamma(d)), so W_m = (Omega_d Gamma(d))^(1-m) / m^d
                    sphere = 2 * mpmath.pi ** (dm / 2) / mpmath.gamma(dm / 2) * mpmath.gamma(dm)
                    states.append((D.exponential_radial(d, 1.0),
                                   lambda a: mpmath.gamma(dm + a) / mpmath.gamma(dm),
                                   lambda m: sphere ** (1 - m) / m ** dm, mpmath.mpf(1)))
                for dens, moment, entropic, fisher in states:
                    self.check(lambda: F.fisher_information(dens), fisher)
                    for a in (-d + 0.5, 2.0, d / 2.0):
                        self.check(lambda: F.radial_moment(dens, a), moment(a))
                    for m in (0.5, 2.0):
                        self.check(lambda: F.entropic_moment(dens, m), entropic(m))
                if d not in (1, 2, 3, 100, 171, 172, 226, 343, 344, 500, 770):
                    continue
                for dens, moment, entropic, fisher in states:
                    bare = quadrature_only(dens)
                    for compute, exact in ((lambda: F.radial_moment(bare, 2.0), moment(2.0)),
                                           (lambda: F.entropic_moment(bare, 2.0), entropic(2.0)),
                                           (lambda: F.fisher_information(bare), fisher)):
                        try:
                            mv = compute()
                        except UncrelError:
                            continue
                        # below the smallest normal float a difference is rounding
                        assert abs(mv.value - exact) <= max(mv.est_error, _MIN), \
                            (dens.label, mv, exact)

    def test_gaussian_entropic_keeps_m_minus_one(self):
        # from m = 2^53 on, m - 1 rounds to m; here 2 pi sigma^2 rounds to
        # 4.0 and N = 4, so rho = e^(-r^2 / (2 sigma^2)) and W_m = 2 pi sigma^2 / m
        a, m = 0.7978845608028654, 1e17
        dens = D.gaussian_pair(2, a, 4.0).position
        with mpmath.workdps(30):
            self.check(lambda: F.entropic_moment(dens, m), 2 * mpmath.pi * mpmath.mpf(a) ** 2 / m)

    @pytest.mark.parametrize("m", [2.0 ** 52, 1e16, 1e17])
    def test_hydrogenic_entropic_keeps_z_cubed(self, m):
        # from m = 2^52 on, 3 - 8m rounds to -8m, which drops a factor Z^3
        # (0.81 here); 8 / (pi^2 Z^3) ~ 1 keeps W_m in range.  Powers of
        # order ~1e17 of a float keep only a few digits, so the bound is 2%
        Z = (8.0 / math.pi ** 2) ** (1.0 / 3.0)
        with mpmath.workdps(40):
            mz, mm = mpmath.mpf(Z), mpmath.mpf(m)
            exact = 2 * mpmath.pi * mpmath.mpf(8.0 * Z ** 5 / math.pi ** 2) ** mm \
                * mz ** (3 - 8 * mm) * mpmath.beta(1.5, 4 * mm - 1.5)
            value = F.entropic_moment(D.hydrogenic_pair(Z).momentum, m).value
            assert abs(value / exact - 1) < 0.02

    @pytest.mark.parametrize("d,a", [(2, 0.61), (3, 0.6), (3, 0.9), (5, 0.55)])
    def test_gaussian_entropic_at_a_large_order(self, d, a):
        # N = B^(d/2), B = 2 pi sigma^2, keeps W_m = N^m B^(-d(m-1)/2) / m^(d/2)
        # in range at large m, where a rounding of N / B would grow m-fold
        m, base = 1e5, 2.0 * math.pi * (a * a)
        N = base ** (d / 2.0)
        dens = D.gaussian_pair(d, a, N).position
        with mpmath.workdps(30):
            self.check(lambda: F.entropic_moment(dens, m), mpmath.mpf(N) ** m
                       * mpmath.mpf(base) ** (-d * (m - 1) / 2) / mpmath.mpf(m) ** (d / 2))

    @pytest.mark.parametrize("d", [100, 400])
    def test_gamma_ratios_past_the_gamma_range(self, d):
        # the ratios of the Gaussian and exponential moments where
        # Gamma itself leaves the double range
        with mpmath.workdps(30):
            rng = random.Random(d)
            for _ in range(300):
                order = rng.uniform(-d + 0.01, 2.0 * d)
                for x, y in (((order + d) / 2.0, d / 2.0), (d + order, float(d))):
                    exact = mpmath.gamma(x) / mpmath.gamma(y)
                    try:
                        got = (wide_gamma(x) / wide_gamma(y)).value("ratio")
                    except DomainError:
                        assert not _MIN < exact < _MAX
                        continue
                    assert abs(got / exact - 1) <= 1e-13

    def test_hydrogenic_momentum_entropic_past_the_grid(self):
        # B(3/2, 4m - 3/2) from Gamma(h + 1/2) / Gamma(h), not from lgamma
        # differences, which lose 1e-13 by m = 100
        with mpmath.workdps(30):
            rng = random.Random(15)
            for _ in range(200):
                Z, m = 10.0 ** rng.uniform(-0.5, 0.5), 10.0 ** rng.uniform(math.log10(4.0), 2.0)
                z = mpmath.mpf(Z)
                c = 8 * z ** 5 / mpmath.pi ** 2
                self.check(lambda: F.entropic_moment(D.hydrogenic_pair(Z).momentum, m),
                           2 * mpmath.pi * c ** m * z ** (3 - 8 * m) * mpmath.beta(1.5, 4 * m - 1.5))

    def test_powers_and_gamma_far_past_the_range(self):
        ulp = 2.0 ** -52
        with mpmath.workdps(40):
            rng = random.Random(16)
            for _ in range(300):
                x = 10.0 ** rng.uniform(-300.0, 300.0)
                y = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 5.0)
                w = Wide(x) ** y
                got = mpmath.mpf(w.m) * mpmath.mpf(2) ** w.e
                assert abs(got / mpmath.mpf(x) ** y - 1) <= max(abs(y) / 256.0, 4.0) * ulp
                # a power of two rounds only 2^fraction
                w = Wide(0.25) ** (y * 1e7)
                got = mpmath.mpf(w.m) * mpmath.mpf(2) ** w.e
                assert abs(got / mpmath.mpf(0.25) ** (y * 1e7) - 1) <= ulp
            for _ in range(100):
                x = 10.0 ** rng.uniform(2.0, 6.0)
                g = wide_gamma(x)
                got = mpmath.mpf(g.m) * mpmath.mpf(2) ** g.e
                assert abs(got / mpmath.gamma(x) - 1) <= max(x / 32.0, 4.0) * ulp
            for _ in range(300):
                h = 10.0 ** rng.uniform(-3.0, 8.0)
                exact = mpmath.gamma(h + mpmath.mpf(0.5)) / mpmath.gamma(h)
                assert abs(gamma_half_ratio(h) / exact - 1) <= 5e-15

    @pytest.mark.parametrize("order", [1e12, 1e12 + 0.5, 1e300, 1.7e308])
    def test_huge_orders_are_typed_errors_at_once(self, order, deadline):
        # Gamma functions and powers past the double range take a number
        # of steps logarithmic in the order, in loops, not recursion
        deadline(10.0)
        hyd, gauss = D.hydrogenic_pair(1.0), D.gaussian_pair(3, 1.0)
        states = (hyd.position, hyd.momentum, gauss.position, gauss.momentum,
                  D.hydrogenic_pair(1e6).position, D.gaussian_pair(40, 1e-6).position,
                  D.exponential_radial(3, 1.0), D.exponential_radial(40, 1e6))
        for dens in states:
            for functional in (F.radial_moment, F.entropic_moment):
                with pytest.raises(DomainError):
                    functional(dens, order)
        with pytest.raises(DomainError, match="leaves the double-precision range"):
            wide_gamma(1e300).value("Gamma(1e300)")

    @pytest.mark.parametrize("order", [1e300, 1.7e308, sys.float_info.max])
    @pytest.mark.parametrize("build", [
        lambda: D.gaussian_pair(3, 1.0).position,
        lambda: D.gaussian_pair(40, 1e-6).momentum,
        lambda: D.hydrogenic_pair(2.0).momentum,
        lambda: D.hydrogenic_pair(0.5).momentum,
    ], ids=["gaussian", "gaussian_d40", "hydrogenic_momentum", "hydrogenic_momentum_wide"])
    def test_entropic_order_near_the_float_maximum_names_the_range(self, build, order):
        # W_m's exponents -d(m-1)/2 and 3 - 8m overflow near the float maximum
        with pytest.raises(DomainError, match=re.escape(
                f"entropic of order {order} leaves the double-precision range")):
            F.entropic_moment(build(), order)

    def test_out_of_range_is_a_domain_error(self):
        pos = D.hydrogenic_pair(1.0).position
        with pytest.raises(DomainError, match="leaves the double-precision range"):
            F.radial_moment(pos, 200.0)
        with pytest.raises(DomainError, match="leaves the double-precision range"):
            F.entropic_moment(D.gaussian_pair(40, 1e-4).position, 4.0)
        for dens in (pos, D.gaussian_pair(3, 1.0).position):
            with pytest.raises(DomainError, match="must be a finite number"):
                dens.exact("moment", math.inf)

    def test_windows_end_where_the_integrals_diverge(self):
        mom = D.hydrogenic_pair(1.0).momentum
        for order in (5.0, 6.5):
            with pytest.raises(DivergenceError):
                F.radial_moment(mom, order)
        assert mom.exact("entropic", 0.375) is None
        with pytest.raises(DivergenceError):
            F.entropic_moment(mom, 0.375)
        assert mom.exact("fisher", 2.0) == 12.0  # 12 / Z^2
        for dens in (D.harmonic_fermions_1d(3, 1).position, V.minimizer_density(3, 2.0, 1.0)):
            assert dens.exact("fisher", 2.0) is None

    def test_only_constraint_orders_are_exact_for_ho1d_and_extremals(self):
        ho1d = D.harmonic_fermions_1d(5, 2).position
        assert [ho1d.exact("moment", a) for a in (0.0, 2.0)] == [5.0, 1.0 + 3.0 + 2.5]
        assert ho1d.exact("moment", 1.0) is None and ho1d.exact("entropic", 2.0) is None
        dens = V.minimizer_density(3, 2.5, 1.0, N=2.0, r_alpha=3.0)
        assert [dens.exact("moment", a) for a in (0.0, 2.5)] == [2.0, 3.0]
        assert dens.exact("moment", 2.0) is None
        assert dens.exact("entropic", 1.0 + 1.0 / 3.0) is None


def _dump_bits(bits) -> str:
    """ho1d_bits.json as recorded: one line per row."""
    rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(row)}" for key, row in bits["values"].items())
    return (f'{{\n "about": {json.dumps(bits["about"])},\n "points": {json.dumps(bits["points"])},\n'
            f' "values": {{\n{rows}\n }}\n}}\n')


if __name__ == "__main__":
    # Re-record the three quadrature cells of each row of ho1d_bits.json,
    # for a change that moves them on purpose, and print each cell that
    # moved.  rho and drho stay pinned to the generator sums: a change in
    # their bits stops the script before it writes.
    #
    #     PYTHONPATH=src python tests/test_densities.py
    x = np.array(_BITS["points"])
    moved = 0
    for key, row in _BITS["values"].items():
        n, q = map(int, key.split(","))
        pos = D.harmonic_fermions_1d(n, q).position
        assert [float(v).hex() for v in (*pos.rho(x), *pos.drho(x)[1])] == row[3:], key
        for i, (cell, mv) in enumerate(zip(_BITS_CELLS, _bits_functionals(pos))):
            if mv.value.hex() != row[i]:
                moved += 1
                print(f"{key} {cell}: {float.fromhex(row[i])!r} -> {mv.value!r} "
                      f"(est_error {mv.est_error:.3g})")
                row[i] = mv.value.hex()
    _BITS_PATH.write_text(_dump_bits(_BITS))
    print(f"{moved} of {len(_BITS_CELLS) * len(_BITS['values'])} cells moved; wrote {_BITS_PATH}",
          file=sys.stderr)
