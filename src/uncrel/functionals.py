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

from .constants import omega
from .densities import RadialDensity
from .errors import DivergenceError, DomainError, FormatError, check_finite, check_positive
from .mathcore import DEFAULT_QUADRATURE, QuadratureSpec, gauss_cells, quad_finite, quad_halfline

__all__ = ["MomentValue", "radial_moment", "entropic_moment", "fisher_information", "variance"]

# half-line tail handled by the geometric panel ladder beyond this multiple of the decay scale
_TAIL_FACTOR = 5.0
# smallest normal float; below it a density value has lost precision
_TINY = np.finfo(float).tiny
# share of the largest integrand value below which zeros past an
# overflowing weight are taken as true zeros (the default relative
# tolerance: the mass they could hide spans a decay length, not the bulk)
_HIDDEN_SHARE = 1e-10


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


# memo of quadrature results under what a quadrature reads: the density's
# rho (held weakly, so entries die with it), then the functional, order and
# spec, and its d, support, support_hint, drho and knots (by identity; the
# entry keeps the array, so that identity is not reused while it lives).
# label, N, analytic_moments and tail_exponent never reach the quadrature,
# so the self-dual ho1d momentum twin reads its position side's entries.
_MEMO: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()


def _quadrature(dens: RadialDensity, key: tuple, order: float, integrand,
                spec: QuadratureSpec | None, excluded=None) -> MomentValue:
    """Omega_d int integrand(r) dr over the density, memoized (see _MEMO)
    under `key`, the spec and what the quadrature reads of the density.
    `excluded(r)`, when given, is integrated the same way and its total
    added to the error estimate."""
    table = _MEMO.setdefault(dens.rho, {})
    key = (*key, spec or DEFAULT_QUADRATURE, dens.d, dens.support, dens.support_hint,
           dens.drho, id(dens.knots))
    if key not in table:
        value, err = _integrate(dens, integrand, spec)
        scale = omega(dens.d)
        extra = 0.0 if excluded is None else scale * _integrate(dens, excluded, spec)[0]
        table[key] = (MomentValue(order, scale * value, "quadrature", scale * err + extra),
                      dens.knots)
    return table[key][0]


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


def _weighted(x, r, w: float) -> np.ndarray:
    """x r^w, and 0 where x is 0: far out on the tail ladder r^w overflows
    at high d while x has underflowed to 0, and 0 * inf would be NaN.
    Where r^w overflows and x > 0 the product is formed as
    (x r^(w/2)) r^(w/2), which stays finite if the product is; an
    overflow left stays inf, for the quadrature to reject.  A zero x past
    the outermost such node may be an underflow hiding the mass of
    x r^w there, so those zeros become inf too, unless the product at
    that node is negligible against the largest one."""
    out = np.zeros(np.shape(x))
    with np.errstate(over="ignore"):
        np.power(r, w, out=out, where=x != 0)
        prod = x * out
        big = np.isinf(out) & (x > 0)
        if big.any():
            half = np.power(r[big], w / 2)
            prod[big] = x[big] * half * half
            edge = np.argmax(np.where(big, r, -np.inf))
            if abs(prod.flat[edge]) > _HIDDEN_SHARE * np.max(np.abs(prod)):
                prod[(x == 0) & (r > r.flat[edge])] = np.inf
        return prod


def radial_moment(dens: RadialDensity, alpha: float,
                  spec: QuadratureSpec | None = None) -> MomentValue:
    """Total radial moment <r^alpha> = Omega_d int r^(alpha+d-1) rho(r) dr.

    Uses the attached closed form when available.  Orders alpha <= -d, or
    orders the density's declared tail decay cannot pay for, raise
    DivergenceError up front instead of returning a large number.
    """
    check_finite("moment order", alpha)
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
    return _quadrature(dens, ("moment", alpha), alpha,
                       lambda r: _weighted(dens.rho(r), r, w), spec)


def entropic_moment(dens: RadialDensity, m: float,
                    spec: QuadratureSpec | None = None) -> MomentValue:
    """Entropic moment W_m = Omega_d int rho(r)^m r^(d-1) dr for m > 0."""
    check_positive("entropic moment order", m)
    m = float(m)
    if m == 1.0:
        return MomentValue(1.0, dens.N, "analytic")
    s = dens.tail_exponent
    if m < 1.0 and m * s <= dens.d:
        raise DivergenceError(
            f"W_{m} diverges: tail decay exponent ~{s:.3g} is too slow for "
            f"m = {m} in d = {dens.d}")
    w = dens.d - 1.0

    def integrand(r):
        v = dens.rho(r)
        negative = np.asarray(v) < 0
        if negative.any():
            raise FormatError(f"density is negative at r = {float(np.asarray(r)[negative][0])}")
        # a subnormal density value has lost significant bits, and
        # rho^m with m < 1 magnifies that loss: read it as an
        # underflowed zero, past which the half-line tail is extrapolated
        v = np.where(v < _TINY, 0.0, v)
        with np.errstate(over="ignore"):  # an overflow stays inf, for the quadrature to reject
            return _weighted(np.power(v, m), r, w)

    return _quadrature(dens, ("entropic", m), m, integrand, spec)


def fisher_information(dens: RadialDensity,
                       spec: QuadratureSpec | None = None) -> MomentValue:
    """Shift-invariant Fisher information, radial reduction:
    I = Omega_d int rho'(r)^2 / rho(r) r^(d-1) dr.

    The integrand is 0 where the density is.  The interpolant of a
    tabulated density may touch zero, so there it is also 0 where the
    density is at most 1e-12 of its peak (PCHIP peaks at a knot), and the
    mass left out that way is added to the error estimate.
    """
    w = dens.d - 1.0
    f, df = dens.rho, dens.drho
    floor = 0.0 if dens.knots is None else 1e-12 * float(np.max(f(dens.knots)))

    def integrand(r):
        # drho first: a density may compute rho alongside and hand it back
        g = np.asarray(df(r), dtype=float)
        v = np.asarray(f(r), dtype=float)
        safe = ~(v <= floor)  # a NaN value passes, for the quadrature to reject
        # (g / v) g, not g^2 / v: g^2 leaves the float range at extreme scales
        ratio = np.divide(g, v, out=np.zeros_like(v), where=safe)
        return _weighted(np.multiply(ratio, g, out=ratio, where=safe), r, w)

    def excluded(r):
        v = np.asarray(f(r), dtype=float)
        return np.where(v <= floor, v, 0.0) * np.power(r, w)

    return _quadrature(dens, ("fisher",), 2.0, integrand, spec,
                       None if dens.knots is None else excluded)


def variance(dens: RadialDensity, spec: QuadratureSpec | None = None) -> float:
    """Per-particle variance <r^2>/N; the centroid of a radial density is
    the origin, so no centering term appears."""
    return radial_moment(dens, 2.0, spec).value / dens.N
