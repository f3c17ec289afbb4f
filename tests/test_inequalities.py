import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncrel import densities as D
from uncrel import inequalities as I
from uncrel.constants import SystemConfig
from uncrel.errors import DomainError

PI = math.pi

H_PAIR = D.hydrogenic_pair(1.0)
G3_PAIR = D.gaussian_pair(3, 1.0, 1.0)
CFG_H = SystemConfig(d=3, N=1.0, q=2)


class TestReportMechanics:
    @settings(max_examples=60, deadline=None)
    @given(lhs=st.floats(1e-6, 1e6), rhs=st.floats(1e-6, 1e6),
           direction=st.sampled_from(list(I.Direction)))
    def test_margin_ratio_consistency(self, lhs, rhs, direction):
        rep = I._report("cramer_rao", direction, lhs, rhs, {})
        assert rep.ratio == pytest.approx(lhs / rhs, rel=1e-14)
        expected_margin = lhs - rhs if direction is I.Direction.LHS_GE_RHS else rhs - lhs
        assert rep.margin == expected_margin
        tol = I.REPORT_TOL * max(abs(lhs), abs(rhs))
        assert rep.satisfied == (rep.margin >= -tol)
        assert rep.status in ("satisfied", "violated")

    def test_hole(self):
        rep = I._hole("negative_order", I.Direction.LHS_LE_RHS, {}, "window violated")
        assert rep.status == "hole"
        assert rep.satisfied is None
        assert math.isnan(rep.lhs)


class TestSemiclassical:
    def test_hydrogenic_rigorous_k2(self):
        rep = I.check_semiclassical(H_PAIR, CFG_H, 2.0, constant="rigorous")
        assert rep.satisfied and rep.direction is I.Direction.LHS_GE_RHS
        assert rep.ineq == "daubechies"
        assert rep.lhs == pytest.approx(1.0, rel=1e-10)  # <p^2> of the 1s state

    def test_gaussian_semiclassical_k1(self):
        cfg = SystemConfig(d=3, N=1.0, q=1)
        rep = I.check_semiclassical(G3_PAIR, cfg, 1.0, constant="semiclassical")
        assert rep.satisfied

    def test_inverted_direction_below_zero(self):
        rep = I.check_semiclassical(H_PAIR, CFG_H, -1.0, constant="thakkar")
        assert rep.direction is I.Direction.LHS_LE_RHS
        assert rep.ineq == "thakkar_upper"
        assert rep.satisfied

    def test_thakkar_upper_k_minus_two(self):
        rep = I.check_semiclassical(H_PAIR, CFG_H, -2.0, constant="thakkar")
        assert rep.satisfied
        assert rep.lhs == pytest.approx(5.0, rel=1e-10)  # <p^-2> of the 1s state

    @pytest.mark.parametrize("k", [1.0, 2.0, 3.0, 4.0])
    def test_thakkar_lower_orders(self, k):
        rep = I.check_semiclassical(H_PAIR, CFG_H, k, constant="thakkar")
        assert rep.satisfied and rep.direction is I.Direction.LHS_GE_RHS

    def test_rigorous_requires_positive_order(self):
        with pytest.raises(DomainError):
            I.check_semiclassical(H_PAIR, CFG_H, -1.0, constant="rigorous")

    def test_thakkar_is_three_dimensional(self):
        pair = D.gaussian_pair(2, 1.0, 1.0)
        with pytest.raises(DomainError):
            I.check_semiclassical(pair, SystemConfig(d=2, N=1.0, q=2), 1.0, constant="thakkar")


class TestHeisenberg:
    def test_hydrogenic_alpha1_k1(self):
        rep = I.check_heisenberg(H_PAIR, CFG_H, 1.0, 1.0)
        assert rep.lhs == pytest.approx(4.0 / PI, rel=1e-10)
        assert rep.rhs == pytest.approx((9.0 / 49.0) * (45.0 * PI) ** (1.0 / 3.0), rel=1e-10)
        assert rep.satisfied
        assert rep.ineq == "heisenberg_d3"

    def test_gaussian_electron_bound(self):
        rep = I.check_heisenberg(G3_PAIR, CFG_H, 2.0, 2.0)
        assert rep.lhs == pytest.approx(2.25, rel=1e-10)
        assert rep.rhs == pytest.approx(1.17005, abs=2e-4)
        assert rep.satisfied

    def test_gaussian_spinless_bound(self):
        rep = I.check_heisenberg(G3_PAIR, SystemConfig(d=3, N=1.0, q=1), 2.0, 2.0)
        assert rep.rhs == pytest.approx(1.85733, abs=2e-4)
        assert rep.satisfied
        assert rep.ineq == "heisenberg_general"

    def test_harmonic_pair_with_margin(self):
        pair = D.harmonic_fermions_1d(2, 1)
        rep = I.check_heisenberg(pair, SystemConfig(d=1, N=2.0, q=1), 2.0, 2.0)
        assert rep.satisfied
        assert math.isfinite(rep.margin)

    def test_domain(self):
        with pytest.raises(DomainError):
            I.check_heisenberg(H_PAIR, CFG_H, -1.0, 2.0)


class TestNegativeOrder:
    def test_alpha3(self):
        rep = I.check_negative_order(H_PAIR, CFG_H, 3.0, -1.0)
        assert rep.direction is I.Direction.LHS_LE_RHS
        assert rep.lhs == pytest.approx(7.5 ** (-1.0 / 3.0) * 16.0 / (3.0 * PI), rel=1e-10)
        assert rep.lhs == pytest.approx(0.86728, abs=1e-4)
        assert rep.rhs == pytest.approx(1.2407, abs=1e-4)
        assert rep.satisfied

    def test_alpha2(self):
        rep = I.check_negative_order(H_PAIR, CFG_H, 2.0, -1.0)
        assert rep.rhs == pytest.approx(1.51309, abs=1e-4)
        assert rep.satisfied

    def test_window_violation(self):
        with pytest.raises(DomainError):
            I.check_negative_order(H_PAIR, CFG_H, 1.0, -1.0)

    def test_k_range(self):
        with pytest.raises(DomainError):
            I.check_negative_order(H_PAIR, CFG_H, 2.0, 1.0)


class TestZumbach:
    def test_gaussian_both_orientations(self):
        for orientation in ("momentum", "position"):
            rep = I.check_zumbach(G3_PAIR, CFG_H, orientation=orientation)
            assert rep.satisfied
            assert rep.direction is I.Direction.LHS_LE_RHS
            assert rep.ratio < 0.01  # the non-optimal constant leaves enormous slack

    def test_harmonic(self):
        pair = D.harmonic_fermions_1d(5, 2)
        cfg = SystemConfig(d=1, N=5.0, q=2)
        for orientation in ("momentum", "position"):
            assert I.check_zumbach(pair, cfg, orientation=orientation).satisfied

    def test_dimension_window(self):
        pair = D.gaussian_pair(6, 1.0, 1.0)
        with pytest.raises(DomainError):
            I.check_zumbach(pair, SystemConfig(d=6, N=1.0, q=2))


class TestFisherProduct:
    def test_gaussian_saturates_real_bound(self):
        for d in (1, 2, 3):
            pair = D.gaussian_pair(d, 1.0, 1.0)
            rep = I.check_fisher_product(pair, SystemConfig(d=d, N=1.0, q=2), "real_4d2")
            assert rep.satisfied
            assert rep.margin == pytest.approx(0.0, abs=1e-8 * rep.rhs)

    def test_hydrogenic_product(self):
        rep = I.check_fisher_product(H_PAIR, CFG_H, "real_4d2")
        assert rep.lhs == pytest.approx(48.0, rel=1e-9)
        assert rep.rhs == 36.0
        assert rep.satisfied

    def test_real_bound_requires_real_state(self):
        pair = D.DensityPair(H_PAIR.position, H_PAIR.momentum, real_wavefunction=False)
        with pytest.raises(DomainError):
            I.check_fisher_product(pair, CFG_H, "real_4d2")

    def test_chain_consistency(self):
        # the closed-form N bound substitutes the variance-product bound
        # into the measured-product form, so its rhs can only be smaller
        for pair, cfg in ((H_PAIR, CFG_H), (G3_PAIR, CFG_H),
                          (D.harmonic_fermions_1d(4, 2), SystemConfig(d=1, N=4.0, q=2))):
            r_meas = I.check_fisher_product(pair, cfg, "heisenberg_product")
            r_n = I.check_fisher_product(pair, cfg, "general")
            assert r_n.rhs <= r_meas.rhs * (1.0 + 1e-12)
            assert r_meas.satisfied and r_n.satisfied

    def test_d3_large_n_square_check(self):
        rep = I.check_fisher_product(H_PAIR, CFG_H, "d3_large_N")
        assert rep.rhs == pytest.approx(1.98107e-5, abs=1e-9)
        assert rep.satisfied


class TestSweep:
    def test_harmonic_sweep_saturates_spinless(self):
        fleet = [D.harmonic_fermions_1d(n, 1) for n in range(1, 21)]
        rows = I.sweep(I.InequalityId.HEISENBERG_GENERAL, fleet,
                       SystemConfig(d=1, N=1.0, q=1), {"alpha": 2.0, "k": 2.0})
        assert len(rows) == 20
        assert all(r.satisfied for r in rows)
        rhs = [r.rhs for r in rows]
        assert all(b > a for a, b in zip(rhs, rhs[1:]))  # monotone in N
        # the filled-oscillator states saturate this bound exactly
        assert all(abs(r.ratio - 1.0) < 1e-9 for r in rows)

    def test_spin_factor_between_sweeps(self):
        fleet = [D.harmonic_fermions_1d(n, 1) for n in (2, 4, 6)]
        rows_q1 = I.sweep(I.InequalityId.HEISENBERG_GENERAL, fleet,
                          SystemConfig(d=1, N=1.0, q=1), {"alpha": 2.0, "k": 2.0})
        rows_q2 = I.sweep(I.InequalityId.HEISENBERG_GENERAL, fleet,
                          SystemConfig(d=1, N=1.0, q=2), {"alpha": 2.0, "k": 2.0})
        for r1, r2 in zip(rows_q1, rows_q2):
            assert r2.rhs == pytest.approx(r1.rhs * 2.0 ** (-2.0), rel=1e-12)

    def test_thakkar_sweep_with_holes(self):
        fleet = [D.gaussian_pair(1, 1.0, 1.0), D.gaussian_pair(3, 1.0, 1.0),
                 D.hydrogenic_pair(2.0)]
        rows = I.sweep(I.InequalityId.THAKKAR_LOWER, fleet, SystemConfig(d=3, N=1.0, q=2))
        statuses = {r.inputs["state"]: r.status for r in rows}
        assert statuses["gaussian(d=1,a=1.0,N=1.0)"] == "hole"  # d != 3
        assert statuses["gaussian(d=3,a=1.0,N=1.0)"] == "satisfied"
        assert statuses["hydrogenic(Z=2.0)"] == "satisfied"

    def test_negative_order_window_holes(self):
        fleet = [D.hydrogenic_pair(1.0)]
        rows = I.sweep(I.InequalityId.NEGATIVE_ORDER, fleet, CFG_H,
                       {"alpha": 1.0, "k": -1.0})
        assert rows[0].status == "hole"
        assert "window" in rows[0].note


    @pytest.mark.parametrize("ineq,params", [
        (I.InequalityId.HEISENBERG_GENERAL, {"alpha": 2.0, "k": 2.0}),
        (I.InequalityId.CRAMER_RAO, {})])
    def test_non_finite_member_becomes_hole(self, ineq, params):
        fleet = [D.harmonic_fermions_1d(n, 1) for n in range(1, 5)]
        bad = fleet[2].position
        fleet[2] = dataclasses.replace(fleet[2], position=dataclasses.replace(
            bad, rho=lambda x: np.full(np.shape(x), np.nan), analytic_moments=None))
        rows = I.sweep(ineq, fleet, SystemConfig(d=1, N=1.0, q=1), params)
        assert [r.status for r in rows] == ["satisfied", "satisfied", "hole", "satisfied"]
        assert "not finite" in rows[2].note

DIMENSIONLESS = [
    (I.InequalityId.HEISENBERG_GENERAL, {"alpha": 2.0, "k": 2.0}),
    (I.InequalityId.NEGATIVE_ORDER, {"alpha": 3.0, "k": -1.0}),
    (I.InequalityId.CRAMER_RAO, {}),
    (I.InequalityId.FISHER_REAL_4D2, {}),
    (I.InequalityId.FISHER_PRODUCT_HEISENBERG, {}),
    (I.InequalityId.FISHER_PRODUCT_N, {}),
]

DIMENSIONFUL = [
    (I.InequalityId.THAKKAR_LOWER, {"k": 2.0}),
    (I.InequalityId.THAKKAR_UPPER, {"k": -1.0}),
    (I.InequalityId.DAUBECHIES, {"k": 1.0}),
    (I.InequalityId.ZUMBACH, {}),
    (I.InequalityId.ZUMBACH_CONJUGATE, {}),
]


class TestScaleInvariance:
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    @pytest.mark.parametrize("ineq,params", DIMENSIONLESS,
                             ids=lambda p: p.value if hasattr(p, "value") else "")
    def test_dimensionless_reports_invariant(self, ineq, params, lam):
        base = I.evaluate(ineq, H_PAIR, CFG_H, params)
        scaled = I.evaluate(ineq, D.scale_pair(H_PAIR, lam), CFG_H, params)
        assert scaled.lhs == pytest.approx(base.lhs, rel=1e-9)
        assert scaled.rhs == pytest.approx(base.rhs, rel=1e-9)
        assert scaled.margin == pytest.approx(base.margin, rel=1e-9, abs=1e-9 * abs(base.lhs))
        assert scaled.satisfied == base.satisfied

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    @pytest.mark.parametrize("ineq,params", DIMENSIONFUL,
                             ids=lambda p: p.value if hasattr(p, "value") else "")
    def test_dimensionful_verdicts_invariant(self, ineq, params, lam):
        base = I.evaluate(ineq, H_PAIR, CFG_H, params)
        scaled = I.evaluate(ineq, D.scale_pair(H_PAIR, lam), CFG_H, params)
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-9)
        assert scaled.satisfied == base.satisfied


class TestDirectionConsistency:
    def test_catalog_directions(self):
        for k in (-2.0, -1.0):
            rep = I.check_semiclassical(H_PAIR, CFG_H, k, constant="semiclassical")
            assert rep.direction is I.Direction.LHS_LE_RHS
        for k in (1.0, 2.0, 3.0, 4.0):
            rep = I.check_semiclassical(H_PAIR, CFG_H, k, constant="semiclassical")
            assert rep.direction is I.Direction.LHS_GE_RHS
        rep = I.check_negative_order(H_PAIR, CFG_H, 4.0, -1.0)
        assert rep.direction is I.Direction.LHS_LE_RHS
