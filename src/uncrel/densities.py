"""Analytic model densities with known conjugate partners, plus the loader
for tabulated radial densities.

All densities are radial and live in natural units (hbar = m = 1).  A
RadialDensity is immutable after construction and its evaluation returns
the same values for the same input, so instances can be shared freely
across concurrent sweeps.  Evaluation callables accept scalars or numpy
arrays, give np.float64 for a scalar, and keep no state between calls.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import SystemConfig, Wide, beta, omega, wide_gamma
from .errors import DomainError, FormatError, check_integer, check_positive
from .mathcore import gauss_cells, interpolate_monotone, uniform_cuts

__all__ = [
    "RadialDensity",
    "DensityPair",
    "gaussian_pair",
    "hydrogenic_pair",
    "exponential_radial",
    "harmonic_fermions_1d",
    "load_tabulated",
    "fixed_moments",
    "density_views",
]


# relative deviation of a table's measured normalization from its declared N
# beyond which load_tabulated warns
_TABLE_NORM_TOL = 0.01
# most oscillator levels harmonic_fermions_1d fills.  The recurrence starts
# from pi^(-1/4) e^(-x^2/2), subnormal from |x| ~ 37.6 and 0 from 38.6 on.
# The first 676 levels integrate to 1 within 1.5e-15, the noise of a
# trapezoid sum (step 1e-4 on [0, 80]); from the 677th on the error doubles
# with each level, to 3e-10 at the 700th, and an 800-level density is 0.7%
# short of its particles
MAX_OSCILLATOR_LEVELS = 676
# ho1d's quadrature head ends this far past the top level's classical
# turning point sqrt(2 top + 1).  The ground state decays fastest there:
# rho/N = pi^(-1/2) e^(-36) = 1.3e-16 and rho'^2/(rho N) = 1.9e-14 at
# x = 1 + 5, the most of any state of up to 676 levels (q = 1..3, each
# evaluated at its own cut), against a relative tolerance of 1e-10
_HEAD_MARGIN = 5.0
# ho1d's uniform head panels per occupied level, where that makes more than
# 16; measured on ho1d Fisher information: its 40 states N = 1..40, q = 2
# take 50 sweeps at 1 panel per level, 42 at 1.25 and 40 at 1.5, and
# N = 676, q = 1 one sweep at each, of 18081 nodes at 1.25 and 21630 at 1.5
_PANELS_PER_LEVEL = 1.25


@dataclass(frozen=True, eq=False)
class RadialDensity:
    """A radial probability density in d dimensions normalized to N particles.

    rho maps radius to density value, and drho to the pair (rho, rho')
    with rho's bits, read by Fisher information at the same nodes; both
    view one evaluation (density_views).  exact, when present, is the
    closed form: exact(kind, order) is the exact <r^order> for kind
    "moment", W_order for kind "entropic" and the Fisher information for
    kind "fisher" (order 2), or None where there is no closed form, so the
    functionals integrate; a value out of the double range is a
    DomainError.  Exact are
      Gaussian: every <r^a>, a > -d, every W_m, and I = N d / sigma^2;
      hydrogenic position: the exponential model at d = 3, lam = 2 Z;
      hydrogenic momentum: <p^k> for -3 < k < 5, and W_m for m > 3/8
        (the whole convergence windows), and I = 12 / Z^2;
      exponential: every <r^a>, a > -d, every W_m, and I = lam^2 N;
      ho1d: <x^0> and <x^2> only;
      extremal densities (varoracle): their constraint moments, orders 0
        and alpha, only, and the minimizer's Fisher information for k >= d,
        which diverges (DivergenceError);
    and tabulated densities nothing.  cuts, a read-only float64 array, are
    the breakpoints of the first quadrature sweep: 16 uniform panels over
    five lengths the density falls off over for the single-orbital models,
    on [0, 5 a] for the maximizer and [0, a] for the minimizer,
    max(16, ceil(1.25 levels)) on ho1d's head, and a table's knots; export's
    default grid ends at cuts[-1].  support is a finite radial interval the
    cuts span, or None for the half line, whose tail ladder starts at
    cuts[-1] (see mathcore.quad_halfline).  knots marks interpolation
    breakpoints of tabulated data.  tail_exponent is the s of a power-law
    tail rho ~ r^-s at large radius, and inf (the default) for faster than
    any power (exponential, Gaussian) or compact support; the functionals
    read it to reject divergent orders up front.
    Instances compare by identity (eq=False), and the functionals memoize
    quadrature results per instance.
    """

    d: int
    N: float
    rho: Callable
    drho: Callable
    cuts: np.ndarray = field(repr=False)
    exact: Callable[[str, float], float | None] | None = None
    support: tuple[float, float] | None = None
    knots: np.ndarray | None = field(default=None, repr=False)
    tail_exponent: float = math.inf
    label: str = ""

    def __post_init__(self):
        self.cuts.flags.writeable = False  # memo entries were integrated over them


def density_views(density: Callable) -> dict:
    """rho and drho of a RadialDensity, views of one evaluation density(r, slope):
    the value at a float64 array r, or with slope the pair (value, derivative)."""
    return {"rho": lambda r: density(np.asarray(r, dtype=float), False),
            "drho": lambda r: density(np.asarray(r, dtype=float), True)}


def fixed_moments(moments: dict) -> Callable:
    """A RadialDensity.exact that knows the radial moments {order: <r^order>}
    and nothing else."""
    def exact(kind, order):
        return moments.get(order) if kind == "moment" else None
    return exact


@dataclass(frozen=True)
class DensityPair:
    """Conjugate position/momentum densities of one state.

    real_wavefunction marks states whose position (or momentum)
    wavefunction is real, the precondition of the saturated
    Fisher-product bound.  The two particle counts must agree to 1e-12,
    or to the 1% that load_tabulated allows a measured normalization
    when either side is tabulated.
    """

    position: RadialDensity
    momentum: RadialDensity
    real_wavefunction: bool = False
    label: str = ""

    def __post_init__(self):
        if self.position.d != self.momentum.d:
            raise DomainError("conjugate densities must share the dimension")
        tabulated = self.position.knots is not None or self.momentum.knots is not None
        if not math.isclose(self.position.N, self.momentum.N,
                            rel_tol=_TABLE_NORM_TOL if tabulated else 1e-12):
            raise DomainError("conjugate densities must share the particle count")


def _gaussian_radial(d: int, sigma2: float, N: float, label: str) -> RadialDensity:
    norm = (Wide(N) * Wide(2.0 * math.pi * sigma2) ** (-d / 2.0)).value(label)
    (Wide(norm) / Wide(sigma2) ** 0.5).value(label)  # the peak of drho, r = sigma

    def density(r, slope):
        e = np.exp(-r * r / (2.0 * sigma2))
        return (norm * e, -r / sigma2 * norm * e) if slope else norm * e

    def exact(kind, order):
        if kind == "moment" and order > -d:
            # <r^a> = N (2 sigma^2)^(a/2) Gamma((a+d)/2) / Gamma(d/2)
            value = N * Wide(2.0 * sigma2) ** (order / 2.0) \
                * wide_gamma((order + d) / 2.0) / wide_gamma(d / 2.0)
        elif kind == "entropic" and order > 0:
            # W_m = N^m (B^-m)^(d/2) B^(d/2) / m^(d/2), B = 2 pi sigma^2: no
            # exponent m - 1, which rounds to m from m = 2^53 on, and no
            # power of order m of a rounded quotient, whose rounding m magnifies
            base, half = Wide(2.0 * math.pi * sigma2), d / 2.0
            value = Wide(N) ** order * (base ** -order) ** half * base ** half \
                / Wide(order) ** half
        elif kind == "fisher":
            # I = N d / sigma^2
            value = Wide(N) * d / sigma2
        else:
            return None
        return value.value(f"{label}: {kind} of order {order}")

    # five decay lengths of 4 sigma
    return RadialDensity(d=d, N=N, **density_views(density),
                         cuts=uniform_cuts(0.0, 5.0 * (4.0 * math.sqrt(sigma2))),
                         exact=exact, label=label)


def gaussian_pair(d: int, a: float, N: float = 1.0) -> DensityPair:
    """Minimum-uncertainty Gaussian state: position wavefunction
    proportional to exp(-r^2 / (4 a^2)), exact Fourier-conjugate partner.

    Per particle, <r^2> = d a^2 and <p^2> = d / (4 a^2).
    """
    check_integer("dimension", d)
    check_positive("length scale", a)
    check_positive("particle count", N)
    label = f"gaussian(d={d},a={a})"
    # a^2 and 8 pi a^2 normal: so are sigma^2, 2 sigma^2 and 2 pi sigma^2 of both sides
    a2 = Wide(a * a).value(label)
    Wide(8.0 * math.pi * a2).value(label)
    pos = _gaussian_radial(d, a2, N, label=label)
    mom = _gaussian_radial(d, 1.0 / (4.0 * a2), N, label=f"gaussian-mom(d={d},a={a})")
    return DensityPair(pos, mom, real_wavefunction=True, label=f"gaussian(d={d},a={a},N={N})")


def hydrogenic_pair(Z: float) -> DensityPair:
    """Ground-state hydrogenic densities (d = 3, N = 1): position (Z^3/pi) e^(-2 Z r),
    the exponential model at lam = 2 Z, and momentum (8 Z^5 / pi^2) (Z^2 + p^2)^-4."""
    check_positive("charge", Z)
    # the widest intermediate below: (Z^2 + p^2)^5, Z^10 to 32 Z^10 for p <= Z
    for bound in (1.0, 32.0):
        (Wide(Z) ** 10.0 * bound).value(f"hydrogenic(Z={Z})")
    pos = _exponential_radial(3, 2.0 * Z, 1.0, f"hydrogenic(Z={Z})", 2.0 / Z)

    cmom = 8.0 * Z ** 5 / math.pi ** 2

    # np.power, not **: a numpy scalar's ** rounds apart from an array's
    def density(p, slope):
        s = Z * Z + p * p
        gam = cmom / np.power(s, 4)
        return (gam, -8.0 * p * cmom / np.power(s, 5)) if slope else gam

    def mom_exact(kind, order):
        if kind == "moment" and -3.0 < order < 5.0:
            # <p^k> = (16 Z^k / pi) B((k+3)/2, (5-k)/2)
            value = 16.0 * Wide(Z) ** order / math.pi \
                * beta((order + 3.0) / 2.0, (5.0 - order) / 2.0)
        elif kind == "entropic" and order > 0.375:
            # W_m = 2 pi c^m (Z^-m)^8 Z^3 B(3/2, 4m - 3/2), c = 8 Z^5 / pi^2,
            # the Beta the moments read; no exponent 3 - 8m, which overflows
            # near the float maximum m and rounds the 3 away from m = 2^52 on
            spread = (Wide(Z) ** -order) ** 8 * Wide(Z) ** 3.0
            h = 4.0 * order - 1.5  # inf near the float maximum: W_m leaves the range
            value = 2.0 * math.pi * Wide(cmom) ** order * spread \
                * (beta(1.5, h) if h < math.inf else 0.0)
        elif kind == "fisher":
            # I = 12 / Z^2
            value = Wide(12.0) / Wide(Z) ** 2.0
        else:
            return None
        return value.value(f"hydrogenic-mom(Z={Z}): {kind} of order {order}")

    mom = RadialDensity(d=3, N=1.0, **density_views(density),
                        cuts=uniform_cuts(0.0, 5.0 * (3.0 * Z)), exact=mom_exact,
                        tail_exponent=8.0, label=f"hydrogenic-mom(Z={Z})")
    return DensityPair(pos, mom, real_wavefunction=True, label=f"hydrogenic(Z={Z})")


def _exponential_radial(d: int, lam: float, N: float, label: str, length: float) -> RadialDensity:
    # Omega_d Gamma(d), past the range of math.gamma(d) from d = 172 on
    sphere = Wide(omega(d)) * wide_gamma(d)
    c = (Wide(N) * Wide(lam) ** d / sphere).value(label)
    (Wide(lam) * c).value(label)  # drho's factor

    def density(r, slope):
        e = np.exp(-lam * r)
        return (c * e, -lam * c * e) if slope else c * e

    def exact(kind, order):
        if kind == "moment" and order > -d:
            # <r^a> = N Gamma(d+a) / (lam^a Gamma(d))
            value = N * wide_gamma(d + order) / (Wide(lam) ** order * wide_gamma(d))
        elif kind == "entropic" and order > 0:
            # W_m = Omega_d Gamma(d) c^m / (lam m)^d
            value = sphere * Wide(c) ** order / (Wide(lam) * order) ** d
        elif kind == "fisher":
            # I = lam^2 N
            value = Wide(lam) ** 2.0 * N
        else:
            return None
        return value.value(f"{label}: {kind} of order {order}")

    return RadialDensity(d=d, N=N, **density_views(density), cuts=uniform_cuts(0.0, 5.0 * length),
                         exact=exact, label=label)


def exponential_radial(d: int, lam: float, N: float = 1.0) -> RadialDensity:
    """Position-only exponential model rho(r) = N lam^d e^(-lam r) / (Omega_d Gamma(d));
    normalization is exact by construction and <r^a> = N Gamma(d+a) / (lam^a Gamma(d))."""
    check_integer("dimension", d)
    check_positive("decay rate", lam)
    check_positive("particle count", N)
    return _exponential_radial(d, lam, N, f"exponential(d={d},lam={lam})", 8.0 / lam)


def _oscillator_levels(weights) -> tuple:
    """_level_pass's rows for occupations weights[n] of levels n = 0..top."""
    return tuple((float(w), math.sqrt(2.0 / n) if n else 0.0,
                  math.sqrt((n - 1.0) / n) if n else 0.0, math.sqrt(2.0 * n))
                 for n, w in enumerate(weights))


def _level_pass(x: np.ndarray, levels: tuple, slope: bool):
    """(rho, rho' or None) at x of the oscillator levels n = 0..top, where
    rho = sum w_n psi_n^2, psi_n the normalized 1-d oscillator
    eigenfunctions, and rho' = sum w_n 2 psi_n (sqrt(2n) psi_{n-1} - x psi_n).
    levels[n] = (w_n, sqrt(2/n), sqrt((n-1)/n), sqrt(2n)), the coefficients
    of the three-term recurrence on the normalized functions.

    One run of the recurrence, into buffers allocated once per call.  Each
    product and sum takes its operands in the order the formulas above
    give them, with psi_{-1} = 0 and each sum started from +0, so the bits
    are those of summing the terms one by one.  The recurrence runs only
    where psi_0 = pi^(-1/4) e^(-x^2/2) is nonzero: from |x| ~ 38.6 on it
    underflows, every level with it, and rho and rho' are +0.
    """
    cur = np.exp(x * -0.5 * x, out=np.empty(x.shape))
    cur *= math.pi ** -0.25
    live = cur != 0.0
    whole = live.all()
    if not whole:
        x, cur = x[live], cur[live]
    prev, rho, drho = (np.zeros(x.shape) for _ in range(3))
    nxt, tmp, inner = (np.empty(x.shape) for _ in range(3))
    for n, (w, up, down, lift) in enumerate(levels):
        if n:
            # psi_n = sqrt(2/n) x psi_{n-1} - sqrt((n-1)/n) psi_{n-2}
            np.multiply(x, up, out=nxt)
            nxt *= cur
            np.multiply(prev, down, out=tmp)
            nxt -= tmp
            prev, cur, nxt = cur, nxt, prev
        np.multiply(cur, w, out=tmp)
        tmp *= cur
        rho += tmp
        if slope:
            np.multiply(prev, lift, out=inner)
            np.multiply(x, cur, out=tmp)
            inner -= tmp
            np.multiply(cur, 2.0 * w, out=tmp)
            tmp *= inner
            drho += tmp
    if not whole:
        rho, drho, live_rho, live_drho = np.zeros(live.shape), np.zeros(live.shape), rho, drho
        rho[live], drho[live] = live_rho, live_drho
    return rho[()], drho[()] if slope else None  # a scalar for a 0-d x


def harmonic_fermions_1d(N: int, q: int) -> DensityPair:
    """Ground state of N spin-(q-1)/2 fermions in a 1-d harmonic well
    (natural units): levels below top = (N - 1) // q hold q fermions each,
    and level top the remaining N - q top; DomainError past
    MAX_OSCILLATOR_LEVELS levels.

    The one-particle density is the occupation-weighted sum of squared
    oscillator eigenfunctions; the momentum density coincides with it
    pointwise because Hermite functions are Fourier eigenfunctions, so
    the pair's two sides are one density, and each quadrature-backed
    functional of the pair is integrated once.  rho and drho are each one
    level pass (_level_pass), so a Fisher-information sweep, which reads
    rho and rho' from drho, runs the recurrence once.
    """
    check_integer("particle number", N)
    check_integer("spin multiplicity", q)
    top, rest = divmod(int(N) - 1, int(q))
    if top >= MAX_OSCILLATOR_LEVELS:
        raise DomainError(
            f"ho1d(N={N},q={q}) fills {top + 1} oscillator levels; at most "
            f"{MAX_OSCILLATOR_LEVELS} are supported, as the recurrence's start "
            f"underflows where higher levels still hold particles")
    weights = [int(q)] * top + [rest + 1]  # fermions on levels 0..top
    levels = _oscillator_levels(weights)

    def density(x, slope):
        return _level_pass(x, levels, True) if slope else _level_pass(x, levels, False)[0]

    # total <x^2> = total <p^2> = sum over occupied levels of w (n + 1/2)
    second = sum(w * (n + 0.5) for n, w in enumerate(weights))
    turn = math.sqrt(2.0 * top + 1.0)  # the top level's classical turning point
    panels = max(16, math.ceil(_PANELS_PER_LEVEL * (top + 1)))
    dens = RadialDensity(d=1, N=float(N), **density_views(density),
                         cuts=uniform_cuts(0.0, turn + _HEAD_MARGIN, panels),
                         exact=fixed_moments({0.0: float(N), 2.0: second}),
                         label=f"ho1d(N={N},q={q})")
    return DensityPair(dens, dens, real_wavefunction=True, label=f"ho1d(N={N},q={q})")


def load_tabulated(cfg: SystemConfig, r, rho_values) -> RadialDensity:
    """Interpolant-backed density from a strictly increasing (r, rho) table.

    Its evaluation is the table's PCHIP interpolant (mathcore.MonotoneInterpolant),
    0 outside the table.  The normalization is measured (not rescaled) and
    stored on the returned density; a measured count deviating from cfg.N
    by more than 1% emits a warning.
    """
    r = np.array(r, dtype=float)  # a copy: the density makes it read-only
    rho_values = np.asarray(rho_values, dtype=float)
    if r.ndim != 1 or r.shape != rho_values.shape:
        raise FormatError("tabulated density must be two equal-length columns")
    if r.size < 8:
        raise FormatError(f"tabulated density needs at least 8 samples, got {r.size}")
    if r[0] < 0:
        raise FormatError("radii must be non-negative")
    interp = interpolate_monotone(r, rho_values)  # validates ordering and sign
    # r^(d-1) can overflow at large d: the quadrature's NonFiniteError
    # reports it, with no warning on the way
    with np.errstate(over="ignore"):
        measured = omega(cfg.d) * gauss_cells(lambda x: interp(x) * x ** (cfg.d - 1), r)[0]
    if measured <= 0:
        raise DomainError("tabulated density has zero measured normalization")
    if abs(measured - cfg.N) > _TABLE_NORM_TOL * cfg.N:
        warnings.warn(
            f"measured normalization {measured:.6g} deviates from declared "
            f"N = {cfg.N:.6g} by more than 1%", stacklevel=2)
    return RadialDensity(d=cfg.d, N=float(measured), **density_views(interp), cuts=r,
                         support=(float(r[0]), float(r[-1])), knots=r, label="tabulated")
