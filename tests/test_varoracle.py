import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from uncrel import mathcore as M
from uncrel import varoracle as V
from uncrel.constants import (entropic_lower_coeff, heisenberg_exponent,
                              semiclassical_constant)
from uncrel import functionals
from uncrel.errors import (ConvergenceError, DivergenceError, DomainError, NonFiniteError,
                           UncrelError)
from uncrel.functionals import entropic_moment, fisher_information, radial_moment
from uncrel.constants import beta, omega
from uncrel.mathcore import quad_finite, quad_halfline

from helpers import quadrature_only, scale_density

PI = math.pi


class TestMinimizerDensity:
    @pytest.mark.parametrize("d,alpha,k,N,ra", [
        (3, 2.0, 2.0, 1.0, 1.0),
        (3, 2.0, 2.0, 2.0, 5.0),
        (1, 1.0, 3.0, 1.0, 0.7),
        (4, 3.0, 1.0, 2.5, 4.0),
    ])
    def test_constraints_by_quadrature(self, d, alpha, k, N, ra):
        dens = quadrature_only(V.minimizer_density(d, alpha, k, N, ra))
        assert radial_moment(dens, 0.0).value == pytest.approx(N, rel=1e-10)
        assert radial_moment(dens, alpha).value == pytest.approx(ra, rel=1e-10)

    def test_one_dimensional_quadratic_constraint_shape(self):
        # d = 1, alpha = k = 2: the entropic order is 3 and the stationary
        # family exponent 1/(3-1) gives f proportional to (a^2 - r^2)^(1/2)
        dens = V.minimizer_density(1, 2.0, 2.0)
        a = dens.support[1]
        f0 = float(dens.rho(0.0))
        for r in (0.2 * a, 0.5 * a, 0.9 * a):
            expected = f0 * ((a * a - r * r) / (a * a)) ** 0.5
            assert float(dens.rho(r)) == pytest.approx(expected, rel=1e-12)

    def test_constraint_scaling_homogeneity(self):
        # scaling the radial target <r^alpha> by s^alpha is a
        # mass-preserving dilation: support stretches by s, values shrink
        # by s^-d
        d, alpha, k, s = 3, 2.0, 2.0, 2.0
        base = V.minimizer_density(d, alpha, k, 1.0, 1.0)
        stretched = V.minimizer_density(d, alpha, k, 1.0, s ** alpha)
        a1, a2 = base.support[1], stretched.support[1]
        assert a2 == pytest.approx(s * a1, rel=1e-13)
        for r in (0.0, 0.5 * a1, 0.95 * a1):
            assert float(stretched.rho(s * r)) == pytest.approx(
                float(base.rho(r)) * s ** (-d), rel=1e-12)

    def test_compact_support(self):
        dens = V.minimizer_density(3, 2.0, 2.0)
        a = dens.support[1]
        assert float(dens.rho(a * 1.0001)) == 0.0
        assert float(dens.rho(a * 0.9999)) > 0.0

    @pytest.mark.parametrize("d,alpha,k,inner", [
        (2, 2.0, 4.0, ("-0x0.0p+0", "-0x1.1da5ce0c4b315p-4")),
        (3, 2.0, 4.0, ("-0x0.0p+0", "-0x1.5e47b33c7a691p-4")),
        (1, 1.0, 3.0, ("-0x1.4e5e0a72f0538p-5", "-0x1.096335c3d0411p-4")),
    ])
    def test_derivative_at_and_past_the_edge(self, d, alpha, k, inner):
        # for k > d, (a^alpha - r^alpha)^(d/k - 1) is infinite at the edge;
        # drho is 0 there and past it without a divide-by-zero warning
        # (which the suite turns into an error), and the interior keeps
        # its bits
        dens = V.minimizer_density(d, alpha, k)
        a = dens.support[1]
        values = dens.drho(np.array([0.0, 0.5 * a, a, 2.0 * a]))[1]
        assert tuple(v.hex() for v in values[:2]) == inner
        assert np.all(values[2:] == 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            V.minimizer_density(3, 2.0, -1.0)
        with pytest.raises(DomainError):
            V.minimizer_density(3, -2.0, 1.0)
        # a is a normal float, but the rounding of a = x^(1/alpha) puts
        # a^alpha past the double range
        with pytest.raises(DomainError, match="cannot be formed in double precision"):
            V.minimizer_density(2, 3.00037429064003e17, 1e30, r_alpha=1.3865410144233112e287)

    @pytest.mark.parametrize("d,alpha,k", [(3, 2.0, 4.0), (2, 2.0, 2.0), (3, 2.0, 3.0), (1, 1.0, 3.0)])
    def test_fisher_information_diverges_for_k_at_least_d(self, monkeypatch, d, alpha, k):
        # near the edge rho'^2 / rho ~ (a^alpha - r^alpha)^(d/k - 2), which
        # cannot be integrated once k >= d (k = d: a log divergence); the
        # closed form says so before any quadrature runs
        def no_quadrature(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(M, "_adaptive_gk", no_quadrature)
        with pytest.raises(DivergenceError, match="diverges at the support edge"):
            fisher_information(V.minimizer_density(d, alpha, k))

    @pytest.mark.parametrize("d,alpha,k", [
        (3, 2.0, 1.0), (3, 2.0, 1.6),
        pytest.param(3, 2.0, 2.0, marks=pytest.mark.xfail(raises=ConvergenceError, strict=True, reason=(
            "for d/2 < k < d the integrand's edge singularity (a^alpha - r^alpha)^(d/k - 2) "
            "is too strong to integrate above the cut floor at the nonzero end a"))),
    ])
    def test_fisher_information_below_k_equal_d(self, d, alpha, k):
        # Omega C e^2 alpha a^(p + alpha (e - 2)) B(p / alpha, e - 1),
        # with e = d/k and p = 2 alpha - 2 + d, for k < d
        dens = V.minimizer_density(d, alpha, k)
        e, p = d / k, 2.0 * alpha - 2.0 + d
        a, C = dens.support[1], float(dens.rho(0.0)) / dens.support[1] ** (alpha * e)
        exact = omega(d) * C * e * e * alpha * a ** (p + alpha * (e - 2.0)) * beta(p / alpha, e - 1.0)
        got = fisher_information(dens)
        assert abs(got.value - exact) <= got.est_error


def solve_scale_by_root(d, alpha, k, N=1.0, r_alpha=1.0):
    """The extremal scale a found by scipy's brentq on the ratio constraint
    <r^alpha>/N = g(a), apart from the oracle's Beta-function reduction."""
    if k > 0:
        e = d / k

        def ratio(a):
            return a ** alpha * beta(d / alpha + 1.0, e + 1.0) / beta(d / alpha, e + 1.0)
    else:
        t = -d / k

        def ratio(a):
            return a ** alpha * beta(d / alpha + 1.0, t - d / alpha - 1.0) \
                / beta(d / alpha, t - d / alpha)

    # a vanishing xtol leaves the relative tolerance rtol alone in force
    return scipy.optimize.brentq(lambda a: ratio(a) - r_alpha / N, 1e-8, 1e8,
                                 xtol=1e-300, rtol=1e-13)


class TestRootFindingFallback:
    @pytest.mark.parametrize("d,alpha,k", [(3, 2.0, 2.0), (2, 1.0, 4.0),
                                           (3, 2.0, -1.0), (3, 7.0, -2.0)])
    def test_matches_beta_reduction(self, d, alpha, k):
        if k > 0:
            dens = V.minimizer_density(d, alpha, k)
        else:
            dens = V.maximizer_density(d, alpha, k)
        if dens.support is not None:
            a_closed = dens.support[1]
        else:
            a_closed = dens.support_hint
        a_root = solve_scale_by_root(d, alpha, k)
        assert a_root == pytest.approx(a_closed, rel=1e-10)


class TestExtremalF:
    def test_reference_point(self):
        res = V.extremal_F(3, 2.0, 2.0)
        assert res.discrepancy <= 1e-8

    def test_spin_weighted_anchor(self):
        # K_3(1) * F(3,1,1) * 2^(-1/3) is the (alpha=1, k=1) electron cell
        res = V.extremal_F(3, 1.0, 1.0)
        value = semiclassical_constant(3, 1.0) * res.numeric_value * 2.0 ** (-1.0 / 3.0)
        cell = (9.0 / 49.0) * (45.0 * PI) ** (1.0 / 3.0)
        assert value == pytest.approx(cell, rel=1e-6)

    def test_off_diagonal_point(self):
        assert V.extremal_F(2, 3.0, 1.0).discrepancy <= 1e-8

    def test_exponent_law(self):
        # at (N, <r^alpha>) = (2, 5) the extremal's entropic moment equals
        # F * 5^(-k/alpha) * 2^(1 + k(1/alpha + 1/d))
        for d, alpha, k in ((3, 2.0, 2.0), (2, 1.0, 3.0)):
            dens = V.minimizer_density(d, alpha, k, N=2.0, r_alpha=5.0)
            w = entropic_moment(dens, 1.0 + k / d).value
            expected = entropic_lower_coeff(d, alpha, k) * 5.0 ** (-k / alpha) \
                * 2.0 ** heisenberg_exponent(d, alpha, k)
            assert w == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("d,alpha,k", [(3, 2.0, 2.0), (1, 2.0, 1.0), (2, 4.0, 3.0)])
    def test_constraint_preserving_bump_never_lowers_w(self, d, alpha, k):
        dens = V.minimizer_density(d, alpha, k)
        a = dens.support[1]
        m = 1.0 + k / d

        def w_of(f):
            from uncrel.constants import omega
            val, _ = quad_finite(lambda r: f(r) ** m * r ** (d - 1.0), 0.0, a)
            return omega(d) * val

        w_min = w_of(dens.rho)
        bump = lambda r: np.exp(-((r - 0.45 * a) / (0.12 * a)) ** 2)
        # project the bump onto the null space of both constraints using
        # f and r^alpha f as correction directions
        from uncrel.constants import omega
        def inner(g):
            v0, _ = quad_finite(lambda r: g(r) * r ** (d - 1.0), 0.0, a)
            va, _ = quad_finite(lambda r: g(r) * r ** (alpha + d - 1.0), 0.0, a)
            return v0, va

        b0, ba = inner(bump)
        f0, fa = inner(dens.rho)
        g0, ga = inner(lambda r: dens.rho(r) * r ** alpha)
        det = f0 * ga - fa * g0
        c1 = (b0 * ga - ba * g0) / det
        c2 = (f0 * ba - fa * b0) / det

        def delta(r):
            f = dens.rho(r)
            return bump(r) - c1 * f - c2 * f * r ** alpha

        eps = 1e-3 * float(dens.rho(0.0))
        perturbed = lambda r: np.maximum(dens.rho(r) + eps * delta(r), 0.0)
        d0, da = inner(delta)
        assert abs(d0) < 1e-10 and abs(da) < 1e-10  # projection really is constraint-preserving
        assert w_of(perturbed) >= w_min - 1e-10 * abs(w_min)


class TestMaximizerDensity:
    @pytest.mark.parametrize("d,alpha,k,N,ra", [
        (3, 2.0, -1.0, 1.0, 1.0),
        (3, 4.0, -1.0, 2.0, 3.0),
        (3, 7.0, -2.0, 1.0, 1.0),
        (2, 3.0, -1.0, 1.0, 1.0),
    ])
    def test_constraints_by_quadrature(self, d, alpha, k, N, ra):
        dens = quadrature_only(V.maximizer_density(d, alpha, k, N, ra))
        assert radial_moment(dens, 0.0).value == pytest.approx(N, rel=1e-10)
        assert radial_moment(dens, alpha).value == pytest.approx(ra, rel=1e-10)

    def test_full_halfline_support(self):
        dens = V.maximizer_density(3, 2.0, -1.0)
        assert dens.support is None
        assert float(dens.rho(50.0)) > 0.0

    def test_window_enforced(self):
        with pytest.raises(DomainError):
            V.maximizer_density(3, 1.5, -1.0)
        with pytest.raises(DomainError):
            V.maximizer_density(3, 1.0, -1.0)
        with pytest.raises(DomainError):
            V.maximizer_density(3, 2.0, -3.0)


class TestExtremalG:
    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
    def test_closed_form_agreement(self, alpha):
        res = V.extremal_G(3, alpha, -1.0)
        assert res.closed_form_value is not None
        assert res.discrepancy <= 1e-10

    def test_k_minus_two(self):
        res = V.extremal_G(3, 7.0, -2.0)
        assert res.discrepancy <= 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d,alpha,k", [
        # alpha e ~ -124: r^alpha overflows long before the density underflows
        (5, 109.08, -4.407),
        # slow tails with a cut below 1/4: the ladder needs more than 1023
        # rungs, past which 2^j alone overflows
        (4, 2.283852802051622, -1.4492822413337103),
        (1, 0.0436724601369413, -0.04139794150156753),
    ])
    def test_steep_tail_without_overflow(self, d, alpha, k):
        res = V.extremal_G(d, alpha, k)
        assert res.numeric_value == pytest.approx(res.closed_form_value, rel=1e-8)

    def test_electron_anchors(self):
        for alpha, anchor in ((2.0, 1.51309), (3.0, 1.2407), (4.0, 1.14308)):
            res = V.extremal_G(3, alpha, -1.0)
            value = semiclassical_constant(3, -1.0) * res.numeric_value * 2.0 ** (1.0 / 3.0)
            assert value == pytest.approx(anchor, abs=1e-4)

    def test_maximality_against_competitors(self):
        # the reconstructed density maximizes W_{2/3} among densities with
        # the same normalization and <r^2>: compare against other members
        # of the constrained family used as competitors
        d, alpha, k = 3, 2.0, -1.0
        m = 1.0 + k / d
        best = entropic_moment(V.maximizer_density(d, alpha, k), m).value
        for comp_alpha in (2.5, 3.0, 4.0):
            comp = V.maximizer_density(d, comp_alpha, k)
            r2 = radial_moment(quadrature_only(comp), 2.0).value
            # rescale the competitor to meet <r^2> = 1 exactly
            lam = math.sqrt(r2)
            rescaled = scale_density(quadrature_only(comp), lam)
            assert radial_moment(rescaled, 2.0).value == pytest.approx(1.0, rel=1e-9)
            assert entropic_moment(rescaled, m).value <= best * (1.0 + 1e-9)


class TestUnformable:
    def test_seeded_sweep_raises_typed_errors_only(self):
        # d, alpha and k over the double range and near it: each draw
        # returns a result or raises an UncrelError, with no numpy warning
        rng, results = random.Random(7), 0
        for i in range(400):
            d = rng.choice((1, 2, 3, 5, 10, 40, 300))
            alpha = 10 ** rng.uniform(-300, 300) if i % 2 else 10 ** rng.uniform(-3, 3)
            if rng.random() < 0.5:
                mode = "F"
                k = 10 ** rng.uniform(-300, 300) if i % 3 == 0 else 10 ** rng.uniform(-3, 3)
            else:
                mode = "G"
                k = -d * (10 ** -rng.uniform(0, 300) if i % 3 == 0 else rng.uniform(0.001, 0.999))
            try:
                getattr(V, f"extremal_{mode}")(d, alpha, k)
                results += 1
            except UncrelError:
                pass
        # the typed errors take no result away: 119 draws returned one before
        assert results >= 119

    def test_overflowing_density_times_underflowing_weight_is_a_typed_error(self):
        # at d = 300 the minimizer overflows near the origin, where r^299
        # underflows to 0; inf * 0 is NaN, which the quadrature rejects
        # without a numpy warning first
        with pytest.raises(NonFiniteError):
            V.extremal_F(300, 3.7602917135850507, 421.5072643689511)


_ORACLE_BITS_PATH = Path(__file__).resolve().parent / "data" / "oracle_bits.json"
_ORACLE_BITS = json.loads(_ORACLE_BITS_PATH.read_text())


def _oracle_draws() -> list[tuple[str, int, float, float]]:
    """40 seeded (mode, d, alpha, k) of each mode over the ranges of the
    benchmark's bounds catalog: d in 1..5 and alpha, k in [0.5, 4] for F;
    -0.9 d < k < -0.1 d and alpha inside the window for G."""
    rng = random.Random(1505)
    draws = [("F", rng.randint(1, 5), rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
             for _ in range(40)]
    for _ in range(40):
        d = rng.randint(1, 5)
        k = -rng.uniform(0.1, 0.9) * d
        window = -k * d / (d + k)
        draws.append(("G", d, window * rng.uniform(1.1, 3.0) + 0.05, k))
    return draws


def _oracle_bits(draws) -> tuple[list[list], int, int]:
    """([mode, d, alpha, k, value, est_error] per draw, sweeps, nodes): the
    entropic moment W_{1+k/d} of each draw's extremal density by
    quadrature, value and error as float.hex, and the Gauss-Kronrod sweeps
    and integrand nodes of all of them."""
    gk21, sweeps = M._gk21, []

    def counted(f, lo, hi):
        sweeps.append(lo.size * 21)
        return gk21(f, lo, hi)

    rows = []
    M._gk21 = counted
    try:
        for mode, d, alpha, k in draws:
            density = V.minimizer_density if mode == "F" else V.maximizer_density
            mv = entropic_moment(density(d, alpha, k), 1.0 + k / d)
            rows.append([mode, d, alpha, k, mv.value.hex(), mv.est_error.hex()])
    finally:
        M._gk21 = gk21
    return rows, len(sweeps), sum(sweeps)


class TestOracleBits:
    """The quadrature of the variational oracle, pinned bit for bit: a
    change of the quadrature engine that keeps its panels and arithmetic
    keeps every value and error estimate here."""

    def test_draws_are_the_recorded_ones(self):
        assert [list(d) for d in _oracle_draws()] == [row[:4] for row in _ORACLE_BITS["rows"]]

    def test_same_bits_and_work(self):
        rows, sweeps, nodes = _oracle_bits([tuple(row[:4]) for row in _ORACLE_BITS["rows"]])
        assert rows == _ORACLE_BITS["rows"]
        assert (sweeps, nodes) == (_ORACLE_BITS["sweeps"], _ORACLE_BITS["nodes"])


def _dump_oracle_bits(bits) -> str:
    """oracle_bits.json as recorded: one line per draw."""
    rows = ",\n".join(f"  {json.dumps(row)}" for row in bits["rows"])
    return (f'{{\n "about": {json.dumps(bits["about"])},\n "sweeps": {bits["sweeps"]},\n'
            f' "nodes": {bits["nodes"]},\n "rows": [\n{rows}\n ]\n}}\n')


if __name__ == "__main__":
    # Re-record oracle_bits.json, for a change that moves the oracle's
    # quadrature on purpose, and print each value that moved.
    #
    #     PYTHONPATH=src python tests/test_varoracle.py
    rows, sweeps, nodes = _oracle_bits(_oracle_draws())
    old = {tuple(row[:4]): row for row in _ORACLE_BITS["rows"]} if _ORACLE_BITS_PATH.exists() else {}
    for row in rows:
        was = old.get(tuple(row[:4]))
        if was is not None and was[4:] != row[4:]:
            print(f"{row[:4]}: {was[4:]} -> {row[4:]}")
    bits = {"about": _ORACLE_BITS["about"], "sweeps": sweeps, "nodes": nodes, "rows": rows}
    _ORACLE_BITS_PATH.write_text(_dump_oracle_bits(bits))
    print(f"{sweeps} sweeps, {nodes} nodes; wrote {_ORACLE_BITS_PATH}", file=sys.stderr)
