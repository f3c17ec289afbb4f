import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from uncrel.errors import (BracketError, ConvergenceError, DomainError, FormatError,
                           NonFiniteError)
from uncrel.mathcore import (QuadratureSpec, beta, exp_e1, interpolate_monotone,
                             minimize_scalar, omega, quad_finite, quad_halfline,
                             solve_root)


class TestSpecialFunctions:
    def test_omega_low_dimensions(self):
        assert omega(1) == pytest.approx(2.0, rel=1e-14)
        assert omega(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert omega(3) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_omega_domain(self):
        with pytest.raises(DomainError):
            omega(0)

    def test_beta_values(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)

    @pytest.mark.parametrize("fn,args", [(beta, (0.0, 1.0)), (beta, (1.0, -2.0))])
    def test_positive_argument_required(self, fn, args):
        with pytest.raises(DomainError):
            fn(*args)


class TestExpE1:
    @pytest.mark.parametrize("x", [1e-5, 0.1, 0.6, 0.999, 1.0, 1.001, 2.0, 10.0, 50.0])
    def test_against_scipy(self, x):
        assert exp_e1(x) == pytest.approx(float(scipy.special.exp1(x)), rel=1e-13)

    @pytest.mark.parametrize("x", [0.3, 0.6, 3.0])
    def test_against_quadrature(self, x):
        # E1(x) = int_x^inf e^-u / u du, shifted to the half line
        direct = quad_halfline(lambda t: np.exp(-(t + x)) / (t + x))[0]
        assert exp_e1(x) == pytest.approx(direct, rel=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            exp_e1(0.0)


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

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_refinements=0)

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

    def test_endpoint_singularity(self):
        val, err = quad_finite(lambda r: r ** -0.5, 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-10)
        assert err >= abs(val - 2.0)

    def test_exhausted_budget(self):
        with pytest.raises(ConvergenceError):
            quad_finite(lambda r: r ** -0.5, 0.0, 1.0, QuadratureSpec(max_refinements=5))


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
        root = solve_root(lambda a: inner(a) - a * exp_e1(a), (0.1, 2.0))
        assert 0.55 < res.argmin < 0.65
        assert res.argmin == pytest.approx(root, abs=1e-7)

    def test_monotone_function_has_no_interior_minimum(self):
        with pytest.raises(BracketError):
            minimize_scalar(lambda x: x, (0.1, 1.0))


class TestSolveRoot:
    def test_sqrt2(self):
        assert solve_root(lambda x: x * x - 2.0, (1.0, 2.0)) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_log2(self):
        assert solve_root(lambda x: math.exp(-x) - 0.5, (0.0, 2.0)) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            solve_root(lambda x: 1.0 + x * x, (0.0, 1.0))


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
        assert float(interp.derivative(0.25)) == pytest.approx(2.0, rel=1e-12)

    def test_negative_ordinate_rejected(self):
        with pytest.raises(FormatError):
            interpolate_monotone([0.0, 1.0, 2.0], [1.0, -0.1, 0.5])

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
