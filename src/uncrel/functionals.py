"""Measurable quantities of a radial density: radial moments, entropic
moments, Fisher information and variance.

Conventions: every functional is a total (the density integrates to N);
variance alone is per particle, so the Cramer-Rao statement reads
I * V >= N d^2.  Outputs record whether a closed form or quadrature
produced them, together with an error estimate.

One step, _quadrature, decides between the two: a density's closed form
(RadialDensity.exact) answers where it has one, and everything else is
one quadrature from the density's cuts.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .constants import omega
from .densities import RadialDensity
from .errors import TINY, DivergenceError, DomainError, FormatError, check_finite, check_positive
from .mathcore import DEFAULT_QUADRATURE, QuadratureSpec, gauss_cells, quad_halfline

__all__ = ["MomentValue", "radial_moment", "entropic_moment", "fisher_information", "variance"]

# share of the largest integrand value below which zeros past an
# overflowing weight are taken as true zeros (the default relative
# tolerance: the mass they could hide spans a decay length, not the bulk)
_HIDDEN_SHARE = 1e-10


@dataclass(frozen=True)
class MomentValue:
    """One functional value and how it was made.

    method is 'analytic' for a closed form (see RadialDensity.exact; W_1
    = N is exact for every density) and 'quadrature' otherwise.
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


# memo of quadrature results: per density (held weakly, so its entries die
# with it), under the functional, order and spec.  A density is frozen and
# compares by identity, so a dataclasses.replace copy is another density
# with entries of its own.
_MEMO: "weakref.WeakKeyDictionary[RadialDensity, dict]" = weakref.WeakKeyDictionary()


def _quadrature(dens: RadialDensity, key: tuple, order: float, integrand,
                spec: QuadratureSpec | None, left_out: float = 0.0) -> MomentValue:
    """The density's closed form for (key[0], order) where it has one;
    otherwise Omega_d int integrand(r) dr, one quadrature over the
    density's cuts, or over the half line they head where it has no
    support, memoized per density under `key` and the spec (see _MEMO),
    with `left_out` added to its error estimate."""
    if dens.exact is not None:
        value = dens.exact(key[0], order)
        if value is not None:
            return MomentValue(order, float(value), "analytic")
    table = _MEMO.setdefault(dens, {})
    key = (*key, spec or DEFAULT_QUADRATURE)
    if key not in table:
        value, err = (quad_halfline(integrand, spec, dens.cuts) if dens.support is None
                      else gauss_cells(integrand, dens.cuts, spec))
        scale = omega(dens.d)
        table[key] = MomentValue(order, scale * value, "quadrature", scale * err + left_out)
    return table[key]


def _weighted(x, r, w: float, m: float = 1.0) -> np.ndarray:
    """x^m r^w, and 0 where x is 0: far out on the tail ladder r^w overflows
    at high d while x has underflowed to 0, and 0 * inf would be NaN.
    Where r^w overflows and x^m > 0 the product is formed as
    (x^m r^(w/2)) r^(w/2), and where x > 0 but x^m underflows (m > 1) as
    (x r^(w/2m) r^(w/2m))^m; either stays finite if the product is.  An
    overflow left stays inf, and an x that is itself not finite gives NaN
    or inf, for the quadrature to reject.  A zero x^m past the outermost
    node where r^w overflows may be an underflow hiding the mass of
    x^m r^w there, so those zeros become inf too, unless the product at
    that node is negligible against the largest one."""
    with np.errstate(over="ignore", invalid="ignore"):
        power = x if m == 1.0 else np.power(x, m)
        out = np.power(r, w)
        prod = power * out
        if not np.isfinite(out).all():
            zero = power == 0
            prod[zero] = power[zero]
            big = np.isinf(out) & (power > 0)
            if big.any():
                half = np.power(r[big], w / 2)
                prod[big] = power[big] * half * half
                edge = np.argmax(np.where(big, r, -np.inf))
                if abs(prod.flat[edge]) > _HIDDEN_SHARE * np.max(np.abs(prod)):
                    prod[(power == 0) & (r > r.flat[edge])] = np.inf
        if m != 1.0 and not power.all():
            lost = (power == 0) & (x > 0)
            if lost.any():
                half = np.power(r[lost], w / (2.0 * m))
                prod[lost] = np.power(x[lost] * half * half, m)
        return prod


def radial_moment(dens: RadialDensity, alpha: float,
                  spec: QuadratureSpec | None = None) -> MomentValue:
    """Total radial moment <r^alpha> = Omega_d int r^(alpha+d-1) rho(r) dr.

    Exact where the density has a closed form.  Orders alpha <= -d, or
    orders the density's declared tail decay cannot pay for, raise
    DivergenceError up front instead of returning a large number.
    """
    check_finite("moment order", alpha)
    alpha = float(alpha)
    if alpha <= -dens.d:
        raise DivergenceError(
            f"<r^{alpha}> diverges at the origin for d = {dens.d} (need alpha > {-dens.d})")
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
    """Entropic moment W_m = Omega_d int rho(r)^m r^(d-1) dr for m > 0,
    exact where the density has a closed form."""
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
        v = np.asarray(dens.rho(r))
        # a subnormal density value has lost significant bits, and
        # rho^m with m < 1 magnifies that loss: read it as an
        # underflowed zero, past which the half-line tail is extrapolated
        small = v < TINY
        if small.any():
            negative = v < 0
            if negative.any():
                raise FormatError(f"density is negative at r = {float(np.asarray(r)[negative][0])}")
            v = np.where(small, 0.0, v)
        return _weighted(v, r, w, m)

    return _quadrature(dens, ("entropic", m), m, integrand, spec)


def fisher_information(dens: RadialDensity,
                       spec: QuadratureSpec | None = None) -> MomentValue:
    """Shift-invariant Fisher information, radial reduction:
    I = Omega_d int rho'(r)^2 / rho(r) r^(d-1) dr, with rho and rho'
    from one drho call, exact where the density has a closed form.

    The integrand is 0 where the density is.  The interpolant of a
    tabulated density may touch zero, so there it is also 0 where the
    density is at most 1e-12 of its peak (PCHIP peaks at a knot).  PCHIP
    keeps a cell between its knot values y_i and y_(i+1), so the mass left
    out is at most min(floor, max(y_i, y_(i+1))) Omega_d (r_(i+1)^d - r_i^d)
    / d summed over the cells with min(y_i, y_(i+1)) <= floor; that bound
    is added to the error estimate.
    """
    w = dens.d - 1.0
    floor = left_out = 0.0
    if dens.knots is not None:
        x, y = dens.knots, dens.rho(dens.knots)
        floor = 1e-12 * float(np.max(y))
        low, high = np.minimum(y[:-1], y[1:]), np.maximum(y[:-1], y[1:])
        cells = (low <= floor) & (high > 0.0)
        top = np.minimum(floor, high[cells])
        shells = _weighted(top, x[1:][cells], dens.d) - _weighted(top, x[:-1][cells], dens.d)
        left_out = omega(dens.d) / dens.d * float(np.sum(shells))

    def integrand(r):
        v, g = (np.asarray(part, dtype=float) for part in dens.drho(r))
        safe = ~(v <= floor)  # a NaN value passes, for the quadrature to reject
        # (g / v) g, not g^2 / v: g^2 leaves the float range at extreme scales
        ratio = np.divide(g, v, out=np.zeros_like(v), where=safe)
        return _weighted(np.multiply(ratio, g, out=ratio, where=safe), r, w)

    return _quadrature(dens, ("fisher",), 2.0, integrand, spec, left_out)


def variance(dens: RadialDensity, spec: QuadratureSpec | None = None) -> float:
    """Per-particle variance <r^2>/N; the centroid of a radial density is
    the origin, so no centering term appears."""
    return radial_moment(dens, 2.0, spec).value / dens.N
