"""Catalog of the uncertainty relations, each evaluable against model or
tabulated densities to produce margin reports and N-sweeps.

`CATALOG` is the one table of the relations: per id, the function giving
the two sides of the bound, the direction and the default params, which
are also the only params the relation takes.  `InequalityId`, sweep holes
and the CLI's `--ineq` names and param flags derive from it.  A row only
measures: `sides(pair, cfg, spec, **params)` returns (lhs, rhs), and
`evaluate` names and judges every report.  Params cannot move a report to
another id: a selector, a param whose default is a string, is the
default or one of the entry's `forms`, and k > 0 exactly for lhs >= rhs
bounds.  Only the state can: `heisenberg_general` on d = 3, q = 2 reports
`heisenberg_d3`.

Evaluations are pure; a sweep evaluates fleet members independently and
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
from .densities import DensityPair
from .errors import ConvergenceError, DomainError, FormatError
from .functionals import entropic_moment, fisher_information, radial_moment, variance
from .mathcore import QuadratureSpec

__all__ = ["Direction", "Inequality", "CATALOG", "InequalityId", "BoundReport",
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
            inputs: dict) -> BoundReport:
    margin = lhs - rhs if direction is Direction.LHS_GE_RHS else rhs - lhs
    tol = REPORT_TOL * max(abs(lhs), abs(rhs))
    return BoundReport(ineq=ineq, direction=direction, lhs=lhs, rhs=rhs,
                       margin=margin, satisfied=bool(margin >= -tol),
                       ratio=lhs / rhs, inputs=inputs)


def _hole(ineq: str, direction: Direction, inputs: dict, reason: str) -> BoundReport:
    return BoundReport(ineq=ineq, direction=direction, lhs=math.nan, rhs=math.nan,
                       margin=math.nan, satisfied=None, ratio=math.nan,
                       inputs=inputs, note=f"hole: {reason}")


def _inputs(pair: DensityPair, cfg: SystemConfig, params: dict) -> dict:
    return {"state": pair.label, "d": cfg.d, "N": cfg.N, "q": cfg.q, **params}


def _semiclassical(pair: DensityPair, cfg: SystemConfig, spec: QuadratureSpec | None,
                   k: float, constant: str) -> tuple[float, float]:
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
    else:  # rigorous
        const = constants.rigorous_constant(d, k) * cfg.q ** (-k / d)  # k > 0 enforced there
    lhs = radial_moment(pair.momentum, k, spec).value
    w = entropic_moment(pair.position, 1.0 + k / d, spec).value
    return lhs, const * w


def _heisenberg(pair: DensityPair, cfg: SystemConfig, spec: QuadratureSpec | None,
                alpha: float, k: float) -> tuple[float, float]:
    """Generalized product bound <r^alpha>^(k/alpha) <p^k> >= coeff(d, alpha, k)
    q^(-k/d) N^(1 + k(1/alpha + 1/d)) for positive orders."""
    if alpha <= 0 or k <= 0:
        raise DomainError(f"the heisenberg bound requires alpha, k > 0, got ({alpha}, {k})")
    ra = radial_moment(pair.position, alpha, spec).value
    pk = radial_moment(pair.momentum, k, spec).value
    return ra ** (k / alpha) * pk, constants.heisenberg_rhs(pair.position.d, alpha, k,
                                                            N=cfg.N, q=cfg.q)


def _heisenberg_d3(pair: DensityPair, cfg: SystemConfig, spec: QuadratureSpec | None,
                   alpha: float, k: float) -> tuple[float, float]:
    if pair.position.d != 3 or cfg.q != 2:
        raise DomainError("heisenberg_d3 is the d = 3, q = 2 specialization")
    return _heisenberg(pair, cfg, spec, alpha, k)


def _negative_order(pair: DensityPair, cfg: SystemConfig, spec: QuadratureSpec | None,
                    alpha: float, k: float) -> tuple[float, float]:
    """Negative-order product bound <r^alpha>^(k/alpha) <p^k> <= coeff
    q^(-k/d) N^(1 + k(1/alpha + 1/d)), valid for -d < k < 0 and alpha
    above the window -k d / (d + k); d = 3 electron systems additionally
    need k >= -2 for the momentum moment to exist."""
    d = pair.position.d
    if not -d < k < 0:
        raise DomainError(f"the negative-order bound requires -d < k < 0, got {k}")
    rhs = constants.negative_order_rhs(d, alpha, k, N=cfg.N, q=cfg.q)
    ra = radial_moment(pair.position, alpha, spec).value
    pk = radial_moment(pair.momentum, k, spec).value
    return ra ** (k / alpha) * pk, rhs


def _zumbach(pair: DensityPair, cfg: SystemConfig, spec: QuadratureSpec | None,
             orientation: str) -> tuple[float, float]:
    """Kinetic-energy versus Fisher-information bound
    <p^2> <= (1/2)[1 + C_d (N/q)^(2/d)] I_d[rho], and by position-momentum
    reciprocity the conjugate form with <r^2> and I_d[gamma] (orientation
    'position')."""
    d = pair.position.d
    factor = 0.5 * (1.0 + constants.zumbach_constant(d) * (cfg.N / cfg.q) ** (2.0 / d))
    kinetic, fisher = ((pair.momentum, pair.position) if orientation == "momentum"
                       else (pair.position, pair.momentum))
    return (radial_moment(kinetic, 2.0, spec).value,
            factor * fisher_information(fisher, spec).value)


def _fisher_product(pair: DensityPair, cfg: SystemConfig, spec: QuadratureSpec | None,
                    variant: str) -> tuple[float, float]:
    """Position-momentum Fisher-information product bounds.

    variant 'heisenberg_product' compares against
    4 <r^2><p^2> / [1 + C_d (N/q)^(2/d)]^2 measured on the same pair;
    'real_4d2' is the saturated bound 4 d^2 for real wavefunctions; the
    remaining variants take their right-hand side from the N-dependent
    closed form of constants.fisher_product_rhs.
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
    i_rho = fisher_information(pair.position, spec).value
    i_gamma = fisher_information(pair.momentum, spec).value
    if i_rho * i_gamma == 0.0 and i_rho and i_gamma:  # a flat table's exact 0 is a value
        raise FloatingPointError("the Fisher product underflows")
    return i_rho * i_gamma, rhs


def _cramer_rao(pair: DensityPair, cfg: SystemConfig,
                spec: QuadratureSpec | None) -> tuple[float, float]:
    """Cramer-Rao bound I[rho] * V[rho] >= N d^2 on the position density:
    V is per particle and I[rho] = N I[rho/N], so the per-particle
    statement I[rho/N] V >= d^2 carries a factor N."""
    dens = pair.position
    return fisher_information(dens, spec).value * variance(dens, spec), dens.N * dens.d * dens.d


@dataclass(frozen=True)
class Inequality:
    """One relation: `sides(pair, cfg, spec, **params)` gives its (lhs, rhs);
    `params` are the defaults, `forms` further selector values of the same
    bound, and `alias` a short name the CLI accepts."""

    id: str
    sides: Callable[..., tuple[float, float]]
    direction: Direction
    params: Mapping[str, object] = field(default_factory=dict)
    forms: tuple[str, ...] = ()
    alias: str | None = None

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
    Inequality("thakkar_upper", _semiclassical, _LE, {"k": -1.0, "constant": "thakkar"},
               forms=("semiclassical",)),
    Inequality("thakkar_lower", _semiclassical, _GE, {"k": 1.0, "constant": "thakkar"},
               forms=("semiclassical",), alias="thakkar"),
    Inequality("daubechies", _semiclassical, _GE, {"k": 2.0, "constant": "rigorous"}),
    Inequality("heisenberg_general", _heisenberg, _GE, {"alpha": 2.0, "k": 2.0},
               alias="heisenberg"),
    Inequality("heisenberg_d3", _heisenberg_d3, _GE, {"alpha": 2.0, "k": 2.0}),
    Inequality("negative_order", _negative_order, _LE, {"alpha": 2.0, "k": -1.0}),
    Inequality("zumbach", _zumbach, _LE, {"orientation": "momentum"}),
    Inequality("zumbach_conjugate", _zumbach, _LE, {"orientation": "position"}),
    Inequality("fisher_product_heisenberg", _fisher_product, _GE,
               {"variant": "heisenberg_product"}),
    Inequality("fisher_product_N", _fisher_product, _GE, {"variant": "general"},
               forms=("electronic",)),
    Inequality("fisher_product_largeN", _fisher_product, _GE,
               {"variant": "large_N_fermion"}, forms=("large_N_electron",)),
    Inequality("fisher_d3", _fisher_product, _GE, {"variant": "d3_electron"},
               forms=("d3_large_N",)),
    Inequality("cramer_rao", _cramer_rao, _GE),
    Inequality("fisher_real_4d2", _fisher_product, _GE, {"variant": "real_4d2"}),
)}

InequalityId = Enum("InequalityId", [(e.id.upper(), e.id) for e in CATALOG.values()],
                    type=str, module=__name__)


def evaluate(ineq: InequalityId, pair: DensityPair, cfg: SystemConfig,
             params: dict | None = None,
             spec: QuadratureSpec | None = None) -> BoundReport:
    """Evaluate one catalog inequality on one density pair.  params override
    the entry's defaults and may not select another id (module docstring);
    a side outside the double range, or a cfg whose d or N is not the
    pair's, raises DomainError."""
    entry = CATALOG[ineq]
    if cfg.d != pair.position.d or not math.isclose(cfg.N, pair.position.N, rel_tol=1e-12):
        raise DomainError(f"{entry.id}: the config's d = {cfg.d}, N = {cfg.N} are not the "
                          f"pair's d = {pair.position.d}, N = {pair.position.N}")
    p = entry.with_params(params)
    for key, default in entry.params.items():
        forms = (default, *entry.forms)
        if isinstance(default, str) and p[key] not in forms:
            raise DomainError(f"{key} {p[key]!r} is not a form of {entry.id}; "
                              f"it takes {', '.join(forms)}")
    if "k" in p and (p["k"] > 0) != (entry.direction is _GE):
        raise DomainError(f"{entry.id} is a {entry.direction.value} bound and takes "
                          f"k {'>' if entry.direction is _GE else '<'} 0, got {p['k']}")
    try:
        lhs, rhs = entry.sides(pair, cfg, spec, **p)
    except (OverflowError, FloatingPointError):  # a float power or product left the double range
        lhs = rhs = math.inf
    if not (math.isfinite(lhs) and 0 < rhs < math.inf):  # a bound's rhs is 0 only by underflow
        raise DomainError(f"{entry.id}: a side of the bound leaves the double-precision range")
    reported_id = entry.id
    if entry.id == "heisenberg_general" and pair.position.d == 3 and cfg.q == 2:
        reported_id = "heisenberg_d3"
    return _report(reported_id, entry.direction, lhs, rhs, _inputs(pair, cfg, p))


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
            rows.append(_hole(entry.id, entry.direction, _inputs(pair, cfg, p), str(exc)))
    return rows
