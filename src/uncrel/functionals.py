"""Measurable quantities of a radial density: radial moments, entropic
moments, Fisher information and variance.

Conventions: every functional is a total (the density integrates to N);
variance alone is per particle, so the Cramer-Rao statement reads
I * V >= N d^2.  Outputs record whether the analytic fast path or
quadrature produced them, together with an error estimate.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .densities import RadialDensity
from .errors import DivergenceError, DomainError, FormatError, NonFiniteError
from .mathcore import DEFAULT_QUADRATURE, QuadratureSpec, gauss_cells, omega, quad_finite, quad_halfline

__all__ = ["MomentValue", "radial_moment", "entropic_moment", "fisher_information", "variance"]

# half-line tail handled by the geometric panel ladder beyond this multiple of the decay scale
_TAIL_FACTOR = 5.0
# smallest normal float; below it a density value has lost precision
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class MomentValue:
    """One functional value and how it was made.

    est_error estimates |value - exact|: 0 for closed forms; otherwise the
    adaptive quadrature's summed panel error estimate plus the size of any
    extrapolated tail remainder and of any tail panels left out because
    the integrand underflowed to zero on them.  For tabulated densities
    that is the rule error of the integral of the interpolant; how far the
    interpolant itself lies from the sampled density is not included.
    """

    order: float
    value: float
    method: str  # 'analytic' or 'quadrature'
    est_error: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DivergenceError(f"non-finite functional value for order {self.order}")
        if self.est_error < 0:
            raise DomainError("est_error must be non-negative")


# memo of quadrature results per density object (results are pure, the
# table is append-only, and entries die with their density)
_MEMO: "weakref.WeakKeyDictionary[RadialDensity, dict]" = weakref.WeakKeyDictionary()


def _memoized(dens: RadialDensity, key, compute):
    table = _MEMO.setdefault(dens, {})
    if key not in table:
        table[key] = compute()
    return table[key]


def _integrate(dens: RadialDensity, integrand, spec: QuadratureSpec | None) -> tuple[float, float]:
    """Integrate `integrand(r)` over the density's radial support, laid out
    by the density: its knot cells, its compact support, or a half line
    whose tail ladder starts at _TAIL_FACTOR decay scales."""
    if dens.knots is not None:
        return gauss_cells(integrand, dens.knots, spec)
    if dens.support is not None:
        lo, hi = dens.support
        return quad_finite(integrand, lo, hi, spec)
    return quad_halfline(integrand, spec, _TAIL_FACTOR * dens.support_hint)


def _weight(r, w: float, where) -> np.ndarray:
    """r^w where `where` holds and 0 elsewhere.  Far out on the tail
    ladder r^w overflows at high d while the density has underflowed to
    0, and 0 * inf would be NaN."""
    return np.power(r, w, out=np.zeros(np.shape(where)), where=where)


def radial_moment(dens: RadialDensity, alpha: float,
                  spec: QuadratureSpec | None = None) -> MomentValue:
    """Total radial moment <r^alpha> = Omega_d int r^(alpha+d-1) rho(r) dr.

    Uses the attached closed form when available.  Orders alpha <= -d, or
    orders the density's declared tail decay cannot pay for, raise
    DivergenceError up front instead of returning a large number.
    """
    alpha = float(alpha)
    if alpha <= -dens.d:
        raise DivergenceError(
            f"<r^{alpha}> diverges at the origin for d = {dens.d} (need alpha > {-dens.d})")
    if dens.analytic_moments is not None and alpha in dens.analytic_moments:
        return MomentValue(alpha, float(dens.analytic_moments[alpha]), "analytic")
    s = dens.tail_exponent
    if alpha + dens.d >= s:
        raise DivergenceError(
            f"<r^{alpha}> diverges: tail decay exponent ~{s:.3g} cannot pay for "
            f"order {alpha} in d = {dens.d}")
    w = alpha + dens.d - 1.0
    f = dens.rho

    def compute():
        def integrand(r):
            v = f(r)
            return v * _weight(r, w, v != 0)

        value, err = _integrate(dens, integrand, spec)
        return MomentValue(alpha, omega(dens.d) * value, "quadrature", omega(dens.d) * err)

    return _memoized(dens, ("moment", alpha, spec or DEFAULT_QUADRATURE), compute)


def entropic_moment(dens: RadialDensity, m: float,
                    spec: QuadratureSpec | None = None) -> MomentValue:
    """Entropic moment W_m = Omega_d int rho(r)^m r^(d-1) dr for m > 0."""
    m = float(m)
    if m <= 0:
        raise DomainError(f"entropic moment order must be positive, got {m}")
    if m == 1.0:
        return MomentValue(1.0, dens.N, "analytic")
    s = dens.tail_exponent
    if m < 1.0 and m * s <= dens.d:
        raise DivergenceError(
            f"W_{m} diverges: tail decay exponent ~{s:.3g} is too slow for "
            f"m = {m} in d = {dens.d}")
    w = dens.d - 1.0
    f = dens.rho

    def compute():
        def integrand(r):
            v = f(r)
            if np.any(np.asarray(v) < 0):
                raise FormatError(f"density is negative near r = {r!r}")
            # a subnormal density value has lost significant bits, and
            # rho^m with m < 1 magnifies that loss: read it as an
            # underflowed zero, past which the half-line tail is extrapolated
            v = np.where(v < _TINY, 0.0, v)
            return np.power(v, m) * _weight(r, w, v != 0)

        value, err = _integrate(dens, integrand, spec)
        return MomentValue(m, omega(dens.d) * value, "quadrature", omega(dens.d) * err)

    return _memoized(dens, ("entropic", m, spec or DEFAULT_QUADRATURE), compute)


def _peak(dens: RadialDensity) -> float:
    if dens.support is not None:
        grid = np.linspace(dens.support[0], dens.support[1], 513)
    else:
        grid = np.linspace(0.0, 8.0 * dens.support_hint, 513)
    return float(np.max(dens.rho(grid)))


def fisher_information(dens: RadialDensity,
                       spec: QuadratureSpec | None = None) -> MomentValue:
    """Shift-invariant Fisher information, radial reduction:
    I = Omega_d int rho'(r)^2 / rho(r) r^(d-1) dr.

    Regions where the density falls below a floor relative to its peak
    are excluded from the integrand (the interpolant of a tabulated
    density may touch zero).  For a tabulated density the error estimate
    is the rule error of the integral over its knot cells plus the mass
    excluded that way.
    """
    tabulated = dens.knots is not None
    w = dens.d - 1.0
    f, df = dens.rho, dens.drho

    def compute():
        peak = _peak(dens)
        if not math.isfinite(peak):
            raise NonFiniteError("density is not finite on the probe grid")
        if peak <= 0:
            raise DomainError("density is identically zero on the probe grid")
        floor = (1e-12 if tabulated else 1e-300) * peak

        def integrand(r):
            v = np.asarray(f(r), dtype=float)
            g = np.asarray(df(r), dtype=float)
            safe = v > floor
            out = np.zeros_like(v)
            np.divide(g * g, v, out=out, where=safe)
            return out * _weight(r, w, safe)

        value, err = _integrate(dens, integrand, spec)

        excluded = 0.0
        if tabulated:
            # mass sitting below the floor, reported as a correction estimate
            def excluded_mass(r):
                v = np.asarray(f(r), dtype=float)
                return np.where(v <= floor, v, 0.0) * np.power(r, w)

            excluded = omega(dens.d) * gauss_cells(excluded_mass, dens.knots, spec)[0]
        return MomentValue(2.0, omega(dens.d) * value, "quadrature",
                           omega(dens.d) * err + excluded)

    return _memoized(dens, ("fisher", spec or DEFAULT_QUADRATURE), compute)


def variance(dens: RadialDensity, spec: QuadratureSpec | None = None) -> float:
    """Per-particle variance <r^2>/N; the centroid of a radial density is
    the origin, so no centering term appears."""
    return radial_moment(dens, 2.0, spec).value / dens.N
