"""Catalog of the uncertainty relations, each evaluable against model or
tabulated densities to produce margin reports and N-sweeps.

`CATALOG` is the one table of the relations: per id, the check, the
direction and the default params, which are also the only params the
relation takes.  `InequalityId`, `evaluate`, sweep holes and the CLI's
`--ineq` names derive from it.  Params cannot move a report to another
id: a selector (`constant`, `variant` or `orientation`) is the default or
one of the entry's `forms`, and k > 0 exactly for lhs >= rhs bounds.  Only
the state can: `heisenberg_general` on d = 3, q = 2 reports `heisenberg_d3`.

Checks are pure; a sweep evaluates fleet members independently and
records parameter-domain violations as first-class hole rows instead of
aborting.  Reports carry the ratio lhs/rhs so the tightness of each
bound is quantifiable, not just its validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping

from . import constants
from .constants import SystemConfig
from .densities import DensityPair, RadialDensity
from .errors import ConvergenceError, DomainError, FormatError
from .functionals import entropic_moment, fisher_information, radial_moment, variance
from .mathcore import QuadratureSpec

__all__ = ["Direction", "Inequality", "CATALOG", "InequalityId", "BoundReport",
           "check_semiclassical", "check_heisenberg", "check_negative_order",
           "check_zumbach", "check_fisher_product", "check_cramer_rao",
           "evaluate", "sweep"]

# satisfied <=> margin >= -REPORT_TOL * max(|lhs|, |rhs|)
REPORT_TOL = 1e-9


class Direction(str, Enum):
    LHS_GE_RHS = "lhs>=rhs"
    LHS_LE_RHS = "lhs<=rhs"


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
    k > 0 only), 'thakkar' (the d = 3 electron-system coefficient c_k,
    spin weight implicit), or 'semiclassical' (plain K_d(k) q^(-k/d), the
    general-d, explicit-q form of the thakkar bound, reported under the
    same ids).
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
    return _report(_selected_id(constant, direction), direction, lhs, rhs,
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
    rhs = constants.negative_order_rhs(d, alpha, k, N=cfg.N, q=cfg.q)
    ra = radial_moment(pair.position, alpha, spec).value
    pk = radial_moment(pair.momentum, k, spec).value
    lhs = ra ** (k / alpha) * pk
    return _report(InequalityId.NEGATIVE_ORDER.value, Direction.LHS_LE_RHS, lhs, rhs,
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
    elif orientation == "position":
        lhs = radial_moment(pair.position, 2.0, spec).value
        rhs = factor * fisher_information(pair.momentum, spec).value
    else:
        raise DomainError(f"unknown orientation {orientation!r}")
    return _report(_selected_id(orientation, Direction.LHS_LE_RHS), Direction.LHS_LE_RHS,
                   lhs, rhs, _base_inputs(pair.label, cfg, orientation=orientation))


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
    elif variant == "heisenberg_product":
        denom = (1.0 + constants.zumbach_constant(d) * (cfg.N / cfg.q) ** (2.0 / d)) ** 2
        r2 = radial_moment(pair.position, 2.0, spec).value
        p2 = radial_moment(pair.momentum, 2.0, spec).value
        rhs = 4.0 * r2 * p2 / denom
    else:
        rhs = constants.fisher_product_rhs(variant, cfg)
    lhs = fisher_information(pair.position, spec).value \
        * fisher_information(pair.momentum, spec).value
    return _report(_selected_id(variant, Direction.LHS_GE_RHS), Direction.LHS_GE_RHS,
                   lhs, rhs, _base_inputs(pair.label, cfg, variant=variant))


def check_cramer_rao(dens: RadialDensity, cfg: SystemConfig,
                     spec: QuadratureSpec | None = None) -> BoundReport:
    """Cramer-Rao bound I[rho] * V[rho] >= d^2 (V per particle)."""
    lhs = fisher_information(dens, spec).value * variance(dens, spec)
    rhs = float(dens.d * dens.d)
    return _report(InequalityId.CRAMER_RAO.value, Direction.LHS_GE_RHS, lhs, rhs,
                   _base_inputs(dens.label, cfg))


def _check_heisenberg_d3(pair: DensityPair, cfg: SystemConfig, alpha: float, k: float,
                         spec: QuadratureSpec | None = None) -> BoundReport:
    if pair.position.d != 3 or cfg.q != 2:
        raise DomainError("heisenberg_d3 is the d = 3, q = 2 specialization")
    return check_heisenberg(pair, cfg, alpha, k, spec=spec)


_SELECTORS = ("constant", "variant", "orientation")


@dataclass(frozen=True)
class Inequality:
    """One relation: `check(pair, cfg, **params, spec=spec)` evaluates it;
    `params` are the defaults, `forms` further selector values of the same
    bound, and `alias` a short name the CLI accepts."""

    id: str
    check: Callable[..., BoundReport]
    direction: Direction
    params: Mapping[str, object] = field(default_factory=dict)
    forms: tuple[str, ...] = ()
    alias: str | None = None

    @property
    def selects(self) -> tuple[str, ...]:
        """Selector values reported under this id, the default first."""
        return tuple(v for key, v in self.params.items() if key in _SELECTORS) + self.forms

    def with_params(self, params: Mapping | None) -> dict:
        """The defaults overridden by `params`, all of which this must take."""
        foreign = [key for key in params or {} if key not in self.params]
        if foreign:
            raise FormatError(f"{self.id} does not take {', '.join(foreign)}; it takes "
                              f"{', '.join(self.params) or 'no params'}")
        return {**self.params, **(params or {})}


_GE, _LE = Direction.LHS_GE_RHS, Direction.LHS_LE_RHS

CATALOG: dict[str, Inequality] = {e.id: e for e in (
    # constant 'semiclassical' is the general-d, explicit-q form of the thakkar bound
    Inequality("thakkar_upper", check_semiclassical, _LE, {"k": -1.0, "constant": "thakkar"},
               forms=("semiclassical",)),
    Inequality("thakkar_lower", check_semiclassical, _GE, {"k": 1.0, "constant": "thakkar"},
               forms=("semiclassical",), alias="thakkar"),
    Inequality("daubechies", check_semiclassical, _GE, {"k": 2.0, "constant": "rigorous"}),
    Inequality("heisenberg_general", check_heisenberg, _GE, {"alpha": 2.0, "k": 2.0},
               alias="heisenberg"),
    Inequality("heisenberg_d3", _check_heisenberg_d3, _GE, {"alpha": 2.0, "k": 2.0}),
    Inequality("negative_order", check_negative_order, _LE, {"alpha": 2.0, "k": -1.0}),
    Inequality("zumbach", check_zumbach, _LE, {"orientation": "momentum"}),
    Inequality("zumbach_conjugate", check_zumbach, _LE, {"orientation": "position"}),
    Inequality("fisher_product_heisenberg", check_fisher_product, _GE,
               {"variant": "heisenberg_product"}),
    Inequality("fisher_product_N", check_fisher_product, _GE, {"variant": "general"},
               forms=("electronic",)),
    Inequality("fisher_product_largeN", check_fisher_product, _GE,
               {"variant": "large_N_fermion"}, forms=("large_N_electron",)),
    Inequality("fisher_d3", check_fisher_product, _GE, {"variant": "d3_electron"},
               forms=("d3_large_N",)),
    Inequality("cramer_rao", lambda pair, cfg, spec: check_cramer_rao(pair.position, cfg, spec),
               _GE),
    Inequality("fisher_real_4d2", check_fisher_product, _GE, {"variant": "real_4d2"}),
)}

InequalityId = Enum("InequalityId", [(e.id.upper(), e.id) for e in CATALOG.values()],
                    type=str, module=__name__)


def _selected_id(selector: str, direction: Direction) -> str:
    """Id of the entry that reports `direction` and takes this selector value."""
    return next(e.id for e in CATALOG.values()
                if e.direction is direction and selector in e.selects)


def evaluate(ineq: InequalityId, pair: DensityPair, cfg: SystemConfig,
             params: dict | None = None,
             spec: QuadratureSpec | None = None) -> BoundReport:
    """Evaluate one catalog inequality on one density pair; params override
    the entry's defaults and may not select another id (module docstring)."""
    entry = CATALOG[ineq]
    p = entry.with_params(params)
    for key in _SELECTORS:
        if key in p and p[key] not in entry.selects:
            raise DomainError(f"{key} {p[key]!r} is not a form of {entry.id}; "
                              f"it takes {', '.join(entry.selects)}")
    if "k" in p and (p["k"] > 0) != (entry.direction is _GE):
        raise DomainError(f"{entry.id} is a {entry.direction.value} bound and takes "
                          f"k {'>' if entry.direction is _GE else '<'} 0, got {p['k']}")
    return entry.check(pair, cfg, spec=spec, **p)


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
    entry = CATALOG[ineq]
    p = entry.with_params(params)
    members = sorted(fleet, key=lambda pr: pr.position.N)
    rows: list[BoundReport] = []
    for pair in members:
        cfg = SystemConfig(d=pair.position.d, N=pair.position.N, q=cfg_template.q)
        try:
            rows.append(evaluate(ineq, pair, cfg, p, spec=spec))
        except (DomainError, ConvergenceError) as exc:  # includes divergence and non-finite holes
            rows.append(_hole(entry.id, entry.direction,
                              _base_inputs(pair.label, cfg, **p), str(exc)))
    return rows
