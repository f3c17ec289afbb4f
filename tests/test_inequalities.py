import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncrel import constants as C
from uncrel import densities as D
from uncrel import inequalities as I
from uncrel import varoracle as V
from uncrel.constants import SystemConfig
from uncrel.errors import DomainError, FormatError, UncrelError

from helpers import scale_pair

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


class TestConfigOfThePair:
    """The rows read d and N from the config and the pair alike, so a
    config that is not the pair's is rejected, not judged."""

    @pytest.mark.parametrize("ineq", list(I.InequalityId))
    @pytest.mark.parametrize("cfg", [
        SystemConfig(d=2, N=1.0, q=2),  # fisher_product_N would take the d = 2 form
        SystemConfig(d=3, N=50.0, q=2)],  # heisenberg_general would read rhs 3.97e4
        ids=["d", "N"])
    def test_mismatch_raises(self, ineq, cfg):
        with pytest.raises(DomainError, match=f"^{ineq.value}: the config's .* not the pair's"):
            I.evaluate(ineq, G3_PAIR, cfg)

    def test_N_within_rounding_is_accepted(self):
        # DensityPair's rule for model pairs: 1e-12 relative
        cfg = SystemConfig(d=3, N=1.0 + 1e-13, q=2)
        assert I.evaluate(I.InequalityId.HEISENBERG_GENERAL, G3_PAIR, cfg).status == "satisfied"


class TestSemiclassical:
    def test_hydrogenic_rigorous_k2(self):
        rep = I.evaluate(I.InequalityId.DAUBECHIES, H_PAIR, CFG_H,
                         {"k": 2.0, "constant": "rigorous"})
        assert rep.satisfied and rep.direction is I.Direction.LHS_GE_RHS
        assert rep.ineq == "daubechies"
        assert rep.lhs == pytest.approx(1.0, rel=1e-10)  # <p^2> of the 1s state

    def test_gaussian_semiclassical_k1(self):
        cfg = SystemConfig(d=3, N=1.0, q=1)
        rep = I.evaluate(I.InequalityId.THAKKAR_LOWER, G3_PAIR, cfg,
                         {"k": 1.0, "constant": "semiclassical"})
        assert rep.satisfied

    def test_inverted_direction_below_zero(self):
        rep = I.evaluate(I.InequalityId.THAKKAR_UPPER, H_PAIR, CFG_H,
                         {"k": -1.0, "constant": "thakkar"})
        assert rep.direction is I.Direction.LHS_LE_RHS
        assert rep.ineq == "thakkar_upper"
        assert rep.satisfied

    def test_thakkar_upper_k_minus_two(self):
        rep = I.evaluate(I.InequalityId.THAKKAR_UPPER, H_PAIR, CFG_H,
                         {"k": -2.0, "constant": "thakkar"})
        assert rep.satisfied
        assert rep.lhs == pytest.approx(5.0, rel=1e-10)  # <p^-2> of the 1s state

    @pytest.mark.parametrize("k", [1.0, 2.0, 3.0, 4.0])
    def test_thakkar_lower_orders(self, k):
        rep = I.evaluate(I.InequalityId.THAKKAR_LOWER, H_PAIR, CFG_H,
                         {"k": k, "constant": "thakkar"})
        assert rep.satisfied and rep.direction is I.Direction.LHS_GE_RHS

    def test_rigorous_requires_positive_order(self):
        with pytest.raises(DomainError):
            I.evaluate(I.InequalityId.DAUBECHIES, H_PAIR, CFG_H,
                       {"k": -1.0, "constant": "rigorous"})

    def test_thakkar_is_three_dimensional(self):
        pair = D.gaussian_pair(2, 1.0, 1.0)
        with pytest.raises(DomainError):
            I.evaluate(I.InequalityId.THAKKAR_LOWER, pair, SystemConfig(d=2, N=1.0, q=2),
                       {"k": 1.0, "constant": "thakkar"})


class TestHeisenberg:
    def test_hydrogenic_alpha1_k1(self):
        rep = I.evaluate(I.InequalityId.HEISENBERG_GENERAL, H_PAIR, CFG_H,
                         {"alpha": 1.0, "k": 1.0})
        assert rep.lhs == pytest.approx(4.0 / PI, rel=1e-10)
        assert rep.rhs == pytest.approx((9.0 / 49.0) * (45.0 * PI) ** (1.0 / 3.0), rel=1e-10)
        assert rep.satisfied
        assert rep.ineq == "heisenberg_d3"

    def test_gaussian_electron_bound(self):
        rep = I.evaluate(I.InequalityId.HEISENBERG_GENERAL, G3_PAIR, CFG_H,
                         {"alpha": 2.0, "k": 2.0})
        assert rep.lhs == pytest.approx(2.25, rel=1e-10)
        assert rep.rhs == pytest.approx(1.17005, abs=2e-4)
        assert rep.satisfied

    def test_gaussian_spinless_bound(self):
        rep = I.evaluate(I.InequalityId.HEISENBERG_GENERAL, G3_PAIR, SystemConfig(d=3, N=1.0, q=1),
                         {"alpha": 2.0, "k": 2.0})
        assert rep.rhs == pytest.approx(1.85733, abs=2e-4)
        assert rep.satisfied
        assert rep.ineq == "heisenberg_general"

    def test_harmonic_pair_with_margin(self):
        pair = D.harmonic_fermions_1d(2, 1)
        rep = I.evaluate(I.InequalityId.HEISENBERG_GENERAL, pair, SystemConfig(d=1, N=2.0, q=1),
                         {"alpha": 2.0, "k": 2.0})
        assert rep.satisfied
        assert math.isfinite(rep.margin)

    def test_domain(self):
        with pytest.raises(DomainError):
            I.evaluate(I.InequalityId.HEISENBERG_GENERAL, H_PAIR, CFG_H, {"alpha": -1.0, "k": 2.0})


class TestNegativeOrder:
    def test_alpha3(self):
        rep = I.evaluate(I.InequalityId.NEGATIVE_ORDER, H_PAIR, CFG_H, {"alpha": 3.0, "k": -1.0})
        assert rep.direction is I.Direction.LHS_LE_RHS
        assert rep.lhs == pytest.approx(7.5 ** (-1.0 / 3.0) * 16.0 / (3.0 * PI), rel=1e-10)
        assert rep.lhs == pytest.approx(0.86728, abs=1e-4)
        assert rep.rhs == pytest.approx(1.2407, abs=1e-4)
        assert rep.satisfied

    def test_alpha2(self):
        rep = I.evaluate(I.InequalityId.NEGATIVE_ORDER, H_PAIR, CFG_H, {"alpha": 2.0, "k": -1.0})
        assert rep.rhs == pytest.approx(1.51309, abs=1e-4)
        assert rep.satisfied

    def test_window_violation(self):
        with pytest.raises(DomainError):
            I.evaluate(I.InequalityId.NEGATIVE_ORDER, H_PAIR, CFG_H, {"alpha": 1.0, "k": -1.0})

    def test_k_range(self):
        with pytest.raises(DomainError):
            I.evaluate(I.InequalityId.NEGATIVE_ORDER, H_PAIR, CFG_H, {"alpha": 2.0, "k": 1.0})


ZUMBACH_FORMS = ((I.InequalityId.ZUMBACH, "momentum"),
                 (I.InequalityId.ZUMBACH_CONJUGATE, "position"))


class TestZumbach:
    def test_gaussian_both_orientations(self):
        for ineq, orientation in ZUMBACH_FORMS:
            rep = I.evaluate(ineq, G3_PAIR, CFG_H, {"orientation": orientation})
            assert rep.satisfied
            assert rep.direction is I.Direction.LHS_LE_RHS
            assert rep.ratio < 0.01  # the non-optimal constant leaves enormous slack

    def test_harmonic(self):
        pair = D.harmonic_fermions_1d(5, 2)
        cfg = SystemConfig(d=1, N=5.0, q=2)
        for ineq, orientation in ZUMBACH_FORMS:
            assert I.evaluate(ineq, pair, cfg, {"orientation": orientation}).satisfied

    def test_dimension_window(self):
        pair = D.gaussian_pair(6, 1.0, 1.0)
        with pytest.raises(DomainError):
            I.evaluate(I.InequalityId.ZUMBACH, pair, SystemConfig(d=6, N=1.0, q=2))


class TestFisherProduct:
    def test_gaussian_saturates_real_bound(self):
        for d in (1, 2, 3):
            pair = D.gaussian_pair(d, 1.0, 1.0)
            rep = I.evaluate(I.InequalityId.FISHER_REAL_4D2, pair, SystemConfig(d=d, N=1.0, q=2),
                             {"variant": "real_4d2"})
            assert rep.satisfied
            assert rep.margin == pytest.approx(0.0, abs=1e-8 * rep.rhs)

    def test_hydrogenic_product(self):
        rep = I.evaluate(I.InequalityId.FISHER_REAL_4D2, H_PAIR, CFG_H, {"variant": "real_4d2"})
        assert rep.lhs == pytest.approx(48.0, rel=1e-9)
        assert rep.rhs == 36.0
        assert rep.satisfied

    def test_real_bound_requires_real_state(self):
        pair = D.DensityPair(H_PAIR.position, H_PAIR.momentum, real_wavefunction=False)
        with pytest.raises(DomainError):
            I.evaluate(I.InequalityId.FISHER_REAL_4D2, pair, CFG_H, {"variant": "real_4d2"})

    def test_chain_consistency(self):
        # the closed-form N bound substitutes the variance-product bound
        # into the measured-product form, so its rhs can only be smaller
        for pair, cfg in ((H_PAIR, CFG_H), (G3_PAIR, CFG_H),
                          (D.harmonic_fermions_1d(4, 2), SystemConfig(d=1, N=4.0, q=2))):
            r_meas = I.evaluate(I.InequalityId.FISHER_PRODUCT_HEISENBERG, pair, cfg,
                                {"variant": "heisenberg_product"})
            r_n = I.evaluate(I.InequalityId.FISHER_PRODUCT_N, pair, cfg, {"variant": "general"})
            assert r_n.rhs <= r_meas.rhs * (1.0 + 1e-12)
            assert r_meas.satisfied and r_n.satisfied

    def test_d3_large_n_square_check(self):
        rep = I.evaluate(I.InequalityId.FISHER_D3, H_PAIR, CFG_H, {"variant": "d3_large_N"})
        assert rep.rhs == pytest.approx(1.98107e-5, abs=1e-9)
        assert rep.satisfied


class TestCramerRao:
    def test_gaussian_pair_saturates_at_two_particles(self):
        pair = D.gaussian_pair(3, 1.0, 2.0)
        rep = I.evaluate(I.InequalityId.CRAMER_RAO, pair, SystemConfig(d=3, N=2.0, q=2))
        assert rep.rhs == 18.0
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)


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
            bad, rho=lambda x: np.full(np.shape(x), np.nan), exact=None))
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
        scaled = I.evaluate(ineq, scale_pair(H_PAIR, lam), CFG_H, params)
        assert scaled.lhs == pytest.approx(base.lhs, rel=1e-9)
        assert scaled.rhs == pytest.approx(base.rhs, rel=1e-9)
        assert scaled.margin == pytest.approx(base.margin, rel=1e-9, abs=1e-9 * abs(base.lhs))
        assert scaled.satisfied == base.satisfied

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    @pytest.mark.parametrize("ineq,params", DIMENSIONFUL,
                             ids=lambda p: p.value if hasattr(p, "value") else "")
    def test_dimensionful_verdicts_invariant(self, ineq, params, lam):
        base = I.evaluate(ineq, H_PAIR, CFG_H, params)
        scaled = I.evaluate(ineq, scale_pair(H_PAIR, lam), CFG_H, params)
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-9)
        assert scaled.satisfied == base.satisfied


class TestDirectionConsistency:
    def test_catalog_directions(self):
        for k in (-2.0, -1.0):
            rep = I.evaluate(I.InequalityId.THAKKAR_UPPER, H_PAIR, CFG_H,
                             {"k": k, "constant": "semiclassical"})
            assert rep.direction is I.Direction.LHS_LE_RHS
        for k in (1.0, 2.0, 3.0, 4.0):
            rep = I.evaluate(I.InequalityId.THAKKAR_LOWER, H_PAIR, CFG_H,
                             {"k": k, "constant": "semiclassical"})
            assert rep.direction is I.Direction.LHS_GE_RHS
        rep = I.evaluate(I.InequalityId.NEGATIVE_ORDER, H_PAIR, CFG_H, {"alpha": 4.0, "k": -1.0})
        assert rep.direction is I.Direction.LHS_LE_RHS


class TestCatalog:
    def test_enum_follows_the_table(self):
        assert [i.value for i in I.InequalityId] == list(I.CATALOG)
        assert I.InequalityId("fisher_product_largeN") is I.InequalityId.FISHER_PRODUCT_LARGEN

    def test_defaults_report_under_their_id(self):
        for entry in I.CATALOG.values():
            rep = I.evaluate(entry.id, H_PAIR, CFG_H)
            # the one id a state, not a param, moves: d = 3, q = 2
            expected = "heisenberg_d3" if entry.id == "heisenberg_general" else entry.id
            assert (rep.ineq, rep.direction) == (expected, entry.direction)

    def test_forms_keep_the_id(self):
        rep = I.evaluate(I.InequalityId.THAKKAR_LOWER, D.gaussian_pair(2, 1.0, 1.0),
                         SystemConfig(d=2, N=1.0, q=1), {"constant": "semiclassical"})
        assert rep.ineq == "thakkar_lower"
        rep = I.evaluate(I.InequalityId.DAUBECHIES, H_PAIR, CFG_H, {"constant": "rigorous"})
        assert rep.ineq == "daubechies"
        rep = I.evaluate(I.InequalityId.FISHER_PRODUCT_N, H_PAIR, CFG_H,
                         {"variant": "electronic"})
        assert rep.ineq == "fisher_product_N"

    def test_param_not_taken(self):
        with pytest.raises(FormatError, match="zumbach does not take k; it takes orientation"):
            I.evaluate(I.InequalityId.ZUMBACH, H_PAIR, CFG_H, {"k": 3.0})
        with pytest.raises(FormatError, match="cramer_rao"):
            I.sweep(I.InequalityId.CRAMER_RAO, [H_PAIR], CFG_H, {"alpha": 2.0})

    @pytest.mark.parametrize("ineq,params", [
        (I.InequalityId.DAUBECHIES, {"constant": "thakkar"}),
        (I.InequalityId.DAUBECHIES, {"k": -1.0}),
        (I.InequalityId.THAKKAR_LOWER, {"k": -1.0}),
        (I.InequalityId.THAKKAR_UPPER, {"k": 1.0}),
        (I.InequalityId.ZUMBACH, {"orientation": "position"}),
        (I.InequalityId.FISHER_PRODUCT_N, {"variant": "d3_electron"}),
        (I.InequalityId.FISHER_D3, {"variant": "bogus"})])
    def test_params_cannot_select_another_id(self, ineq, params):
        with pytest.raises(DomainError):
            I.evaluate(ineq, H_PAIR, CFG_H, params)

    def test_closed_form_variants_are_the_fisher_forms(self):
        named = {variant for e in I.CATALOG.values() if "variant" in e.params
                 for variant in (e.params["variant"], *e.forms)}
        # the two variants _fisher_product forms from the pair itself
        assert named - {"heisenberg_product", "real_4d2"} == set(C._FISHER_FORMS)

    def test_heisenberg_d3_guard(self):
        with pytest.raises(DomainError, match="specialization"):
            I.evaluate(I.InequalityId.HEISENBERG_D3, G3_PAIR, SystemConfig(d=3, N=1.0, q=1))

    def test_sweep_rows_keep_the_id(self):
        fleet = [D.gaussian_pair(1, 1.0, 1.0), D.hydrogenic_pair(1.0)]
        rows = I.sweep(I.InequalityId.THAKKAR_LOWER, fleet, CFG_H, {"k": -1.0})
        assert [(r.ineq, r.direction, r.status) for r in rows] == \
            [("thakkar_lower", I.Direction.LHS_GE_RHS, "hole")] * 2


class TestOutOfRange:
    """A side that leaves the double range is a typed error, in a sweep a hole."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1e100, 1e150, 1e200, 1e250, 1e-200, 1e-300])
    def test_finite_report_or_typed_error(self, d, n):
        pair, cfg = D.gaussian_pair(d, 1.0, n), SystemConfig(d=d, N=n, q=2)
        for ineq in I.InequalityId:
            try:
                rep = I.evaluate(ineq, pair, cfg)
            except UncrelError:
                continue
            assert all(math.isfinite(x) for x in (rep.lhs, rep.rhs, rep.margin, rep.ratio))

    @pytest.mark.parametrize("ineq,d,n", [
        (I.InequalityId.HEISENBERG_GENERAL, 1, 1e100),  # an rhs that overflows
        (I.InequalityId.FISHER_PRODUCT_HEISENBERG, 5, 1e200),  # a NaN ratio
        (I.InequalityId.FISHER_REAL_4D2, 3, 1e250),  # an infinite lhs
        (I.InequalityId.FISHER_PRODUCT_N, 3, 1e-200)])  # an rhs that underflows to 0
    def test_names_the_range(self, ineq, d, n):
        # an rhs out of the range is refused by its closed form's own guard
        own = {I.InequalityId.HEISENBERG_GENERAL:
               r"heisenberg_rhs\(1, 2\.0, 2\.0, N=1e\+100, q=2\)",
               I.InequalityId.FISHER_PRODUCT_N:
               r"fisher_product_rhs\('general', SystemConfig\(d=3, N=1e-200, q=2\)\)"}
        name = own.get(ineq, f"{ineq.value}: a side of the bound")
        with pytest.raises(DomainError, match=f"^{name} leaves the double-precision range$"):
            I.evaluate(ineq, D.gaussian_pair(d, 1.0, n), SystemConfig(d=d, N=n, q=2))

    @pytest.mark.parametrize("ineq", [I.InequalityId.FISHER_REAL_4D2,
                                      I.InequalityId.FISHER_PRODUCT_LARGEN])
    def test_underflowing_fisher_product(self, ineq):
        # I[rho] I[gamma] ~ N^2 = 1e-400 underflows to 0, though neither
        # factor is 0; in a sweep the member is a hole
        tiny = D.gaussian_pair(3, 1.0, 1e-200)
        with pytest.raises(DomainError, match=f"^{ineq.value}: a side of the bound leaves"):
            I.evaluate(ineq, tiny, SystemConfig(d=3, N=1e-200, q=2))
        rows = I.sweep(ineq, [tiny, G3_PAIR], CFG_H)
        assert [r.status for r in rows] == ["hole", "satisfied"]

    @pytest.mark.parametrize("ineq", [I.InequalityId.FISHER_REAL_4D2,
                                      I.InequalityId.FISHER_PRODUCT_LARGEN])
    def test_zero_fisher_product_is_a_value(self, ineq):
        # a flat table has exactly zero Fisher information: a report, not an error
        r = np.linspace(0.0, 1.0, 50)
        flat = D.load_tabulated(SystemConfig(d=3, N=4.0 * PI / 3.0), r, np.ones_like(r))
        pair = D.DensityPair(flat, flat, real_wavefunction=True)
        rep = I.evaluate(ineq, pair, SystemConfig(d=3, N=flat.N, q=2))
        assert (rep.lhs, rep.ratio, rep.status) == (0.0, 0.0, "violated")

    def test_sweep_member_becomes_hole(self):
        fleet = [D.gaussian_pair(1, 1.0, 1e100), D.gaussian_pair(1, 1.0, 1.0)]
        rows = I.sweep(I.InequalityId.HEISENBERG_GENERAL, fleet, SystemConfig(d=1))
        assert [r.status for r in rows] == ["satisfied", "hole"]
        assert rows[1].note == ("hole: heisenberg_rhs(1, 2.0, 2.0, N=1e+100, q=2) leaves "
                                "the double-precision range")


def _window_grid() -> list[tuple[int, float, float]]:
    """Seeded (d, alpha, k) around the window -k d / (d + k): well inside
    and outside it, 1e-3 from it, within three ulps of it on either side,
    and where k alpha underflows to 0, inside and outside."""
    rng, points = random.Random(32), []
    for _ in range(40):
        d = rng.randint(1, 12)
        k = -d * rng.uniform(0.01, 0.99)
        below = above = window = C.negative_order_window(d, k)
        alphas = [window, window * (1 - 1e-3), window * (1 + 1e-3),
                  window * rng.uniform(0.1, 0.9), window * rng.uniform(1.1, 10.0)]
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            alphas += [below, above]
        points += [(d, alpha, k) for alpha in alphas]
    return points + [(d, alpha, k) for d in (1, 3)
                     for alpha, k in ((1e-100, -1e-250), (1e-200, -1e-300), (1e-300, -1e-200))]


class TestWindowDecidedOnce:
    """Every entry point of the negative-order bound takes the window from
    one check: each agrees on inside or outside and raises one text."""

    @staticmethod
    def _window_text(call) -> str | None:
        # the window's text, or None for a value or any other typed error;
        # an untyped error (ZeroDivisionError, OverflowError) fails the test
        try:
            call()
        except UncrelError as exc:
            return str(exc) if "window" in str(exc) else None
        return None

    def test_entry_points_agree(self):
        sides = set()
        for d, alpha, k in _window_grid():
            pair = D.gaussian_pair(d, 1.0)
            texts = {self._window_text(call) for call in (
                lambda: C.entropic_upper_coeff_closed(d, alpha, k),
                lambda: C.negative_order_rhs(d, alpha, k),
                lambda: C.heisenberg_rhs(d, alpha, k),
                lambda: V.maximizer_density(d, alpha, k),
                lambda: V.extremal_G(d, alpha, k),
                lambda: I.evaluate(I.InequalityId.NEGATIVE_ORDER, pair,
                                   SystemConfig(d=d, N=1.0, q=1), {"alpha": alpha, "k": k}))}
            assert len(texts) == 1, (d, alpha, k, texts)
            sides.add(texts.pop() is None)
        assert sides == {True, False}
