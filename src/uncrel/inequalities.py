"""Catalog of the uncertainty relations, each evaluable against model or
tabulated densities to produce margin reports and N-sweeps.

Checks are pure; a sweep evaluates fleet members independently and
records parameter-domain violations as first-class hole rows instead of
aborting.  Reports carry the ratio lhs/rhs so the tightness of each
bound is quantifiable, not just its validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from . import constants
from .constants import ConstantValue, SystemConfig
from .densities import DensityPair, RadialDensity
from .errors import ConvergenceError, DomainError
from .functionals import entropic_moment, fisher_information, radial_moment, variance
from .mathcore import QuadratureSpec

__all__ = ["Direction", "InequalityId", "BoundReport", "CATALOG_PARAMS",
           "check_semiclassical", "check_heisenberg", "check_negative_order",
           "check_zumbach", "check_fisher_product", "check_cramer_rao",
           "evaluate", "sweep"]

# satisfied <=> margin >= -REPORT_TOL * max(|lhs|, |rhs|)
REPORT_TOL = 1e-9


class Direction(str, Enum):
    LHS_GE_RHS = "lhs>=rhs"
    LHS_LE_RHS = "lhs<=rhs"


class InequalityId(str, Enum):
    THAKKAR_UPPER = "thakkar_upper"
    THAKKAR_LOWER = "thakkar_lower"
    DAUBECHIES = "daubechies"
    HEISENBERG_GENERAL = "heisenberg_general"
    HEISENBERG_D3 = "heisenberg_d3"
    NEGATIVE_ORDER = "negative_order"
    ZUMBACH = "zumbach"
    ZUMBACH_CONJUGATE = "zumbach_conjugate"
    FISHER_PRODUCT_HEISENBERG = "fisher_product_heisenberg"
    FISHER_PRODUCT_N = "fisher_product_N"
    FISHER_PRODUCT_LARGEN = "fisher_product_largeN"
    FISHER_D3 = "fisher_d3"
    CRAMER_RAO = "cramer_rao"
    FISHER_REAL_4D2 = "fisher_real_4d2"


@dataclass(frozen=True)
class BoundReport:
    """One inequality evaluation.

    margin is the signed slack (positive means satisfied with room),
    defined as lhs - rhs or rhs - lhs depending on the direction; ratio
    is always lhs/rhs.  A hole (parameter-domain violation in a sweep)
    carries NaN numbers, satisfied = None and the reason in `note`.
    """

    ineq: str
    direction: Direction
    lhs: float
    rhs: float
    margin: float
    satisfied: bool | None
    ratio: float
    inputs: dict = field(default_factory=dict)
    note: str = ""

    @property
    def status(self) -> str:
        if self.satisfied is None:
            return "hole"
        return "satisfied" if self.satisfied else "violated"


def _report(ineq: str, direction: Direction, lhs: float, rhs: float,
            inputs: dict, note: str = "") -> BoundReport:
    margin = lhs - rhs if direction is Direction.LHS_GE_RHS else rhs - lhs
    tol = REPORT_TOL * max(abs(lhs), abs(rhs))
    return BoundReport(ineq=ineq, direction=direction, lhs=lhs, rhs=rhs,
                       margin=margin, satisfied=bool(margin >= -tol),
                       ratio=lhs / rhs, inputs=inputs, note=note)


def _hole(ineq: str, direction: Direction, inputs: dict, reason: str) -> BoundReport:
    return BoundReport(ineq=ineq, direction=direction, lhs=math.nan, rhs=math.nan,
                       margin=math.nan, satisfied=None, ratio=math.nan,
                       inputs=inputs, note=f"hole: {reason}")


def _base_inputs(pair_label: str, cfg: SystemConfig, **params) -> dict:
    out = {"state": pair_label, "d": cfg.d, "N": cfg.N, "q": cfg.q}
    out.update(params)
    return out


def check_semiclassical(pair: DensityPair, cfg: SystemConfig, k: float,
                        constant: str = "rigorous",
                        spec: QuadratureSpec | None = None) -> BoundReport:
    """Momentum moment against the position entropic moment:
    <p^k> >= const * W_{1+k/d}[rho] for k > 0, direction inverted for k < 0.

    constant selects the prefactor: 'rigorous' (Daubechies-tightened,
    k > 0 only), 'semiclassical' (plain K_d(k) q^(-k/d)), or 'thakkar'
    (the d = 3 electron-system coefficient c_k, spin weight implicit).
    """
    d = pair.position.d
    if k == 0 or k <= -d:
        raise DomainError(f"momentum order must satisfy -d < k, k != 0, got {k}")
    if constant == "thakkar":
        if d != 3:
            raise DomainError("the thakkar coefficients are three-dimensional (d = 3)")
        const = constants.thakkar_coefficient(k)
    elif constant == "semiclassical":
        const = constants.semiclassical_constant(d, k) * cfg.q ** (-k / d)
    elif constant == "rigorous":
        const = constants.rigorous_constant(d, k) * cfg.q ** (-k / d)  # k > 0 enforced there
    else:
        raise DomainError(f"unknown constant selector {constant!r}")
    lhs = radial_moment(pair.momentum, k, spec).value
    w = entropic_moment(pair.position, 1.0 + k / d, spec).value
    rhs = const * w
    direction = Direction.LHS_GE_RHS if k > 0 else Direction.LHS_LE_RHS
    ineq = {"thakkar": InequalityId.THAKKAR_LOWER if k > 0 else InequalityId.THAKKAR_UPPER,
            "semiclassical": InequalityId.THAKKAR_LOWER if k > 0 else InequalityId.THAKKAR_UPPER,
            "rigorous": InequalityId.DAUBECHIES}[constant]
    return _report(ineq.value, direction, lhs, rhs,
                   _base_inputs(pair.label, cfg, k=k, constant=constant))


def check_heisenberg(pair: DensityPair, cfg: SystemConfig, alpha: float, k: float,
                     spec: QuadratureSpec | None = None) -> BoundReport:
    """Generalized product bound <r^alpha>^(k/alpha) <p^k> >= coeff(d, alpha, k)
    q^(-k/d) N^(1 + k(1/alpha + 1/d)) for positive orders."""
    if alpha <= 0 or k <= 0:
        raise DomainError(f"check_heisenberg requires alpha, k > 0, got ({alpha}, {k})")
    d = pair.position.d
    ra = radial_moment(pair.position, alpha, spec).value
    pk = radial_moment(pair.momentum, k, spec).value
    lhs = ra ** (k / alpha) * pk
    rhs = constants.heisenberg_rhs(d, alpha, k, N=cfg.N, q=cfg.q)
    ineq = InequalityId.HEISENBERG_D3 if (d == 3 and cfg.q == 2) else InequalityId.HEISENBERG_GENERAL
    return _report(ineq.value, Direction.LHS_GE_RHS, lhs, rhs,
                   _base_inputs(pair.label, cfg, alpha=alpha, k=k))


def check_negative_order(pair: DensityPair, cfg: SystemConfig, alpha: float, k: float,
                         spec: QuadratureSpec | None = None) -> BoundReport:
    """Negative-order product bound <r^alpha>^(k/alpha) <p^k> <= coeff
    q^(-k/d) N^(1 + k(1/alpha + 1/d)), valid for -d < k < 0 and alpha
    above the window -k d / (d + k); d = 3 electron systems additionally
    need k >= -2 for the momentum moment to exist."""
    d = pair.position.d
    if not -d < k < 0:
        raise DomainError(f"check_negative_order requires -d < k < 0, got {k}")
    rhs_value: ConstantValue = constants.negative_order_rhs(
        d, alpha, k, N=cfg.N, q=cfg.q, strict=True)
    ra = radial_moment(pair.position, alpha, spec).value
    pk = radial_moment(pair.momentum, k, spec).value
    lhs = ra ** (k / alpha) * pk
    return _report(InequalityId.NEGATIVE_ORDER.value, Direction.LHS_LE_RHS,
                   lhs, rhs_value.require_valid(),
                   _base_inputs(pair.label, cfg, alpha=alpha, k=k))


def check_zumbach(pair: DensityPair, cfg: SystemConfig,
                  orientation: str = "momentum",
                  spec: QuadratureSpec | None = None) -> BoundReport:
    """Kinetic-energy versus Fisher-information bound
    <p^2> <= (1/2)[1 + C_d (N/q)^(2/d)] I_d[rho], and by position-momentum
    reciprocity the conjugate form with <r^2> and I_d[gamma]."""
    d = pair.position.d
    factor = 0.5 * (1.0 + constants.zumbach_constant(d) * (cfg.N / cfg.q) ** (2.0 / d))
    if orientation == "momentum":
        lhs = radial_moment(pair.momentum, 2.0, spec).value
        rhs = factor * fisher_information(pair.position, spec).value
        ineq = InequalityId.ZUMBACH
    elif orientation == "position":
        lhs = radial_moment(pair.position, 2.0, spec).value
        rhs = factor * fisher_information(pair.momentum, spec).value
        ineq = InequalityId.ZUMBACH_CONJUGATE
    else:
        raise DomainError(f"unknown orientation {orientation!r}")
    return _report(ineq.value, Direction.LHS_LE_RHS, lhs, rhs,
                   _base_inputs(pair.label, cfg, orientation=orientation))


def check_fisher_product(pair: DensityPair, cfg: SystemConfig, variant: str,
                         spec: QuadratureSpec | None = None) -> BoundReport:
    """Position-momentum Fisher-information product bounds.

    variant 'heisenberg_product' compares against
    4 <r^2><p^2> / [1 + C_d (N/q)^(2/d)]^2 measured on the same pair;
    'real_4d2' is the saturated bound 4 d^2 for real wavefunctions; the
    remaining variants take their right-hand side from the N-dependent
    closed forms (see constants.FISHER_VARIANTS).
    """
    d = pair.position.d
    if variant == "real_4d2":
        if not pair.real_wavefunction:
            raise DomainError(
                "fisher_real_4d2 requires a real position or momentum wavefunction")
        rhs = 4.0 * d * d
        ineq = InequalityId.FISHER_REAL_4D2.value
    elif variant == "heisenberg_product":
        denom = (1.0 + constants.zumbach_constant(d) * (cfg.N / cfg.q) ** (2.0 / d)) ** 2
        r2 = radial_moment(pair.position, 2.0, spec).value
        p2 = radial_moment(pair.momentum, 2.0, spec).value
        rhs = 4.0 * r2 * p2 / denom
        ineq = InequalityId.FISHER_PRODUCT_HEISENBERG.value
    else:
        rhs = constants.fisher_product_rhs(variant, cfg)
        ineq = {"general": InequalityId.FISHER_PRODUCT_N,
                "electronic": InequalityId.FISHER_PRODUCT_N,
                "large_N_fermion": InequalityId.FISHER_PRODUCT_LARGEN,
                "large_N_electron": InequalityId.FISHER_PRODUCT_LARGEN,
                "d3_electron": InequalityId.FISHER_D3,
                "d3_large_N": InequalityId.FISHER_D3}[variant].value
    lhs = fisher_information(pair.position, spec).value \
        * fisher_information(pair.momentum, spec).value
    return _report(ineq, Direction.LHS_GE_RHS, lhs, rhs,
                   _base_inputs(pair.label, cfg, variant=variant))


def check_cramer_rao(dens: RadialDensity, cfg: SystemConfig,
                     spec: QuadratureSpec | None = None) -> BoundReport:
    """Cramer-Rao bound I[rho] * V[rho] >= d^2 (V per particle)."""
    lhs = fisher_information(dens, spec).value * variance(dens, spec)
    rhs = float(dens.d * dens.d)
    return _report(InequalityId.CRAMER_RAO.value, Direction.LHS_GE_RHS, lhs, rhs,
                   _base_inputs(dens.label, cfg))


# default parameters used when an id is swept without explicit params
CATALOG_PARAMS: dict[InequalityId, dict] = {
    InequalityId.THAKKAR_UPPER: {"k": -1.0, "constant": "thakkar"},
    InequalityId.THAKKAR_LOWER: {"k": 1.0, "constant": "thakkar"},
    InequalityId.DAUBECHIES: {"k": 2.0, "constant": "rigorous"},
    InequalityId.HEISENBERG_GENERAL: {"alpha": 2.0, "k": 2.0},
    InequalityId.HEISENBERG_D3: {"alpha": 2.0, "k": 2.0},
    InequalityId.NEGATIVE_ORDER: {"alpha": 2.0, "k": -1.0},
    InequalityId.ZUMBACH: {"orientation": "momentum"},
    InequalityId.ZUMBACH_CONJUGATE: {"orientation": "position"},
    InequalityId.FISHER_PRODUCT_HEISENBERG: {"variant": "heisenberg_product"},
    InequalityId.FISHER_PRODUCT_N: {"variant": "general"},
    InequalityId.FISHER_PRODUCT_LARGEN: {"variant": "large_N_fermion"},
    InequalityId.FISHER_D3: {"variant": "d3_electron"},
    InequalityId.CRAMER_RAO: {},
    InequalityId.FISHER_REAL_4D2: {"variant": "real_4d2"},
}


def evaluate(ineq: InequalityId, pair: DensityPair, cfg: SystemConfig,
             params: dict | None = None,
             spec: QuadratureSpec | None = None) -> BoundReport:
    """Evaluate one catalog inequality on one density pair."""
    p = dict(CATALOG_PARAMS[ineq])
    p.update(params or {})
    if ineq in (InequalityId.THAKKAR_UPPER, InequalityId.THAKKAR_LOWER, InequalityId.DAUBECHIES):
        rep = check_semiclassical(pair, cfg, p["k"], constant=p["constant"], spec=spec)
    elif ineq in (InequalityId.HEISENBERG_GENERAL, InequalityId.HEISENBERG_D3):
        if ineq is InequalityId.HEISENBERG_D3 and (pair.position.d != 3 or cfg.q != 2):
            raise DomainError("heisenberg_d3 is the d = 3, q = 2 specialization")
        rep = check_heisenberg(pair, cfg, p["alpha"], p["k"], spec=spec)
    elif ineq is InequalityId.NEGATIVE_ORDER:
        rep = check_negative_order(pair, cfg, p["alpha"], p["k"], spec=spec)
    elif ineq in (InequalityId.ZUMBACH, InequalityId.ZUMBACH_CONJUGATE):
        rep = check_zumbach(pair, cfg, orientation=p["orientation"], spec=spec)
    elif ineq is InequalityId.CRAMER_RAO:
        rep = check_cramer_rao(pair.position, cfg, spec=spec)
    else:
        rep = check_fisher_product(pair, cfg, p["variant"], spec=spec)
    return rep


def sweep(ineq: InequalityId, fleet: Iterable[DensityPair], cfg_template: SystemConfig,
          params: dict | None = None,
          spec: QuadratureSpec | None = None) -> list[BoundReport]:
    """Evaluate one inequality across an ordered fleet of density pairs.

    Each pair is checked with the template's q and its own particle
    count; members violating the inequality's parameter domain, and
    members whose functionals fail to converge or meet a non-finite
    value, become hole rows and the sweep continues.  Rows are ordered
    by N.
    """
    members = sorted(fleet, key=lambda pr: pr.position.N)
    rows: list[BoundReport] = []
    p = dict(CATALOG_PARAMS[ineq])
    p.update(params or {})
    for pair in members:
        cfg = SystemConfig(d=pair.position.d, N=pair.position.N, q=cfg_template.q)
        try:
            rows.append(evaluate(ineq, pair, cfg, p, spec=spec))
        except (DomainError, ConvergenceError) as exc:  # includes divergence and non-finite holes
            direction = Direction.LHS_LE_RHS if ineq in (
                InequalityId.THAKKAR_UPPER, InequalityId.NEGATIVE_ORDER,
                InequalityId.ZUMBACH, InequalityId.ZUMBACH_CONJUGATE,
            ) else Direction.LHS_GE_RHS
            rows.append(_hole(ineq.value, direction,
                              _base_inputs(pair.label, cfg, **p), str(exc)))
    return rows
