"""Analytic model densities with known conjugate partners, plus the loader
for tabulated radial densities.

All densities are radial and live in natural units (hbar = m = 1).  A
RadialDensity is immutable after construction and its evaluation is pure,
so instances can be shared freely across concurrent sweeps.  Evaluation
callables accept scalars or numpy arrays.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .constants import SystemConfig
from .errors import DomainError, FormatError, check_integer, check_positive
from .mathcore import beta, gauss_cells, interpolate_monotone, omega

__all__ = [
    "RadialDensity",
    "DensityPair",
    "gaussian_pair",
    "hydrogenic_pair",
    "exponential_radial",
    "harmonic_fermions_1d",
    "load_tabulated",
    "scale_density",
    "scale_pair",
]


# relative deviation of a table's measured normalization from its declared N
# beyond which load_tabulated warns
_TABLE_NORM_TOL = 0.01
_LOG_RANGE = 708.0  # |ln x| below this: x is a finite normal float, with room for rounding


def _check_range(what: str, *products: tuple[float, ...]) -> None:
    """DomainError unless every factor of each product, and each running
    product taken left to right, is a finite normal float.  A product is
    given by the natural logs of its factors, a divisor by minus its log."""
    if not all(abs(x) < _LOG_RANGE for p in products for x in (*p, *itertools.accumulate(p))):
        raise DomainError(f"{what}: its closed forms leave the double-precision range")


@dataclass(frozen=True, eq=False)
class RadialDensity:
    """A radial probability density in d dimensions normalized to N particles.

    rho and drho map radius to density value and radial derivative;
    analytic_moments, when present, maps moment orders to exact values of
    <r^order> for the quadrature fast path; support_hint is the decay
    scale steering tail handling; support restricts the density to a
    finite radial interval; knots marks interpolation breakpoints of
    tabulated data.  tail_exponent is the s of a power-law tail rho ~ r^-s
    at large radius, and inf (the default) for faster than any power
    (exponential, Gaussian) or compact support; the functionals read it
    to reject divergent orders up front.  Instances compare by identity
    (eq=False); the functionals memoize quadrature results under rho and
    the other fields a quadrature reads, not per density object.
    """

    d: int
    N: float
    rho: Callable
    drho: Callable
    analytic_moments: Mapping[float, float] | None = None
    support_hint: float = 1.0
    support: tuple[float, float] | None = None
    knots: np.ndarray | None = field(default=None, repr=False)
    tail_exponent: float = math.inf
    label: str = ""


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
    orders = [a for a in (-2, -1, 0, 1, 2, 3, 4) if a > -d]
    log_n, log_pow = math.log(N), -d / 2.0 * math.log(2.0 * math.pi * sigma2)
    _check_range(label, (log_n, log_pow), (-0.5 * math.log(sigma2), log_n + log_pow),
                 *((log_n, a / 2.0 * math.log(2.0 * sigma2), math.lgamma((a + d) / 2.0),
                    -math.lgamma(d / 2.0)) for a in orders))
    norm = N * (2.0 * math.pi * sigma2) ** (-d / 2.0)

    def rho(r):
        r = np.asarray(r, dtype=float)
        return norm * np.exp(-r * r / (2.0 * sigma2))

    def drho(r):
        r = np.asarray(r, dtype=float)
        return -r / sigma2 * norm * np.exp(-r * r / (2.0 * sigma2))

    # <r^a> = N (2 sigma^2)^(a/2) Gamma((a+d)/2) / Gamma(d/2)
    moments = {
        float(a): N * (2.0 * sigma2) ** (a / 2.0)
        * math.gamma((a + d) / 2.0) / math.gamma(d / 2.0)
        for a in orders
    }
    return RadialDensity(d=d, N=N, rho=rho, drho=drho, analytic_moments=moments,
                         support_hint=4.0 * math.sqrt(sigma2), label=label)


def gaussian_pair(d: int, a: float, N: float = 1.0) -> DensityPair:
    """Minimum-uncertainty Gaussian state: position wavefunction
    proportional to exp(-r^2 / (4 a^2)), exact Fourier-conjugate partner.

    Per particle, <r^2> = d a^2 and <p^2> = d / (4 a^2).
    """
    check_integer("dimension", d)
    check_positive("length scale", a)
    check_positive("particle count", N)
    # a^2 and 8 pi a^2 normal: so are sigma^2, 2 sigma^2 and 2 pi sigma^2 of both sides
    _check_range(f"gaussian(d={d},a={a})", (2.0 * math.log(a), math.log(8.0 * math.pi)))
    pos = _gaussian_radial(d, a * a, N, label=f"gaussian(d={d},a={a})")
    mom = _gaussian_radial(d, 1.0 / (4.0 * a * a), N, label=f"gaussian-mom(d={d},a={a})")
    return DensityPair(pos, mom, real_wavefunction=True, label=f"gaussian(d={d},a={a},N={N})")


def hydrogenic_pair(Z: float) -> DensityPair:
    """Ground-state hydrogenic densities (d = 3, N = 1): position
    (Z^3/pi) e^(-2 Z r), momentum (8 Z^5 / pi^2) (Z^2 + p^2)^-4."""
    check_positive("charge", Z)
    # the widest intermediate below: (Z^2 + p^2)^5, Z^10 to 32 Z^10 for p <= Z
    _check_range(f"hydrogenic(Z={Z})", (10.0 * math.log(Z), 5.0 * math.log(2.0)))

    cpos = Z ** 3 / math.pi

    def rho(r):
        r = np.asarray(r, dtype=float)
        return cpos * np.exp(-2.0 * Z * r)

    def drho(r):
        r = np.asarray(r, dtype=float)
        return -2.0 * Z * cpos * np.exp(-2.0 * Z * r)

    # <r^a> = Gamma(a + 3) / (2^(a+1) Z^a) for a > -3
    pos_moments = {float(a): math.gamma(a + 3.0) / (2.0 ** (a + 1.0) * Z ** a)
                   for a in (-2, -1, 0, 1, 2, 3, 4)}
    pos = RadialDensity(d=3, N=1.0, rho=rho, drho=drho,
                        analytic_moments=pos_moments, support_hint=4.0 / (2.0 * Z),
                        label=f"hydrogenic(Z={Z})")

    cmom = 8.0 * Z ** 5 / math.pi ** 2

    def gam(p):
        p = np.asarray(p, dtype=float)
        return cmom / (Z * Z + p * p) ** 4

    def dgam(p):
        p = np.asarray(p, dtype=float)
        return -8.0 * p * cmom / (Z * Z + p * p) ** 5

    # <p^k> = (16 Z^k / pi) B((k+3)/2, (5-k)/2) for -3 < k < 5
    mom_moments = {float(k): 16.0 * Z ** k / math.pi
                   * beta((k + 3.0) / 2.0, (5.0 - k) / 2.0)
                   for k in (-2, -1, 0, 1, 2, 3, 4)}
    mom = RadialDensity(d=3, N=1.0, rho=gam, drho=dgam,
                        analytic_moments=mom_moments, support_hint=3.0 * Z,
                        tail_exponent=8.0, label=f"hydrogenic-mom(Z={Z})")
    return DensityPair(pos, mom, real_wavefunction=True, label=f"hydrogenic(Z={Z})")


def exponential_radial(d: int, lam: float, N: float = 1.0) -> RadialDensity:
    """Position-only exponential model rho(r) = N lam^d e^(-lam r) / (Omega_d Gamma(d));
    normalization is exact by construction and <r^a> = N Gamma(d+a) / (lam^a Gamma(d))."""
    check_integer("dimension", d)
    check_positive("decay rate", lam)
    check_positive("particle count", N)
    orders = [a for a in (-2, -1, 0, 1, 2, 3, 4) if a > -d]
    log_n, log_lam, log_gd = math.log(N), math.log(lam), math.lgamma(d)
    log_den = math.log(2.0) + d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0) + log_gd
    _check_range(f"exponential(d={d},lam={lam})", (log_den - log_gd, log_gd),
                 (log_n, d * log_lam, -log_den), (log_lam, log_n + d * log_lam - log_den),
                 *((log_n, math.lgamma(d + a), -(a * log_lam + log_gd)) for a in orders),
                 *((a * log_lam, log_gd) for a in orders))
    c = N * lam ** d / (omega(d) * math.gamma(d))

    def rho(r):
        r = np.asarray(r, dtype=float)
        return c * np.exp(-lam * r)

    def drho(r):
        r = np.asarray(r, dtype=float)
        return -lam * c * np.exp(-lam * r)

    moments = {float(a): N * math.gamma(d + a) / (lam ** a * math.gamma(d)) for a in orders}
    return RadialDensity(d=d, N=N, rho=rho, drho=drho, analytic_moments=moments,
                         support_hint=8.0 / lam, label=f"exponential(d={d},lam={lam})")


def _hermite_levels(x, top: int):
    """Yield (n, psi_{n-1}, psi_n) for n = 0..top, psi_n the normalized 1-d
    oscillator eigenfunctions (psi_{-1} = 0).

    Three-term recurrence on the normalized functions; stable (no
    factorial overflow) for the level range used here.
    """
    prev, cur = 0.0, math.pi ** -0.25 * np.exp(-0.5 * x * x)
    yield 0, prev, cur
    for n in range(1, top + 1):
        prev, cur = cur, np.sqrt(2.0 / n) * x * cur - np.sqrt((n - 1.0) / n) * prev
        yield n, prev, cur


def harmonic_fermions_1d(N: int, q: int) -> DensityPair:
    """Ground state of N spin-(q-1)/2 fermions in a 1-d harmonic well
    (natural units): levels below top = (N - 1) // q hold q fermions each,
    and level top the remaining N - q top.

    The one-particle density is the occupation-weighted sum of squared
    oscillator eigenfunctions; the momentum density coincides with it
    pointwise because Hermite functions are Fourier eigenfunctions.  The
    momentum side shares the position side's rho and drho, so each
    quadrature-backed functional of the pair is integrated once.
    """
    check_integer("particle number", N)
    check_integer("spin multiplicity", q)
    top, rest = divmod(int(N) - 1, int(q))
    weights = [int(q)] * top + [rest + 1]  # fermions on levels 0..top

    def rho(x):
        x = np.asarray(x, dtype=float)
        return sum(weights[n] * psi * psi for n, _, psi in _hermite_levels(x, top))

    def drho(x):
        # d/dx psi_n^2 = 2 psi_n (sqrt(2n) psi_{n-1} - x psi_n)
        x = np.asarray(x, dtype=float)
        return sum(weights[n] * 2.0 * psi * (np.sqrt(2.0 * n) * below - x * psi)
                   for n, below, psi in _hermite_levels(x, top))

    # total <x^2> = total <p^2> = sum over occupied levels of w (n + 1/2)
    second = sum(w * (n + 0.5) for n, w in enumerate(weights))
    moments = {0.0: float(N), 2.0: second}
    hint = math.sqrt(2.0 * top + 1.0) + 4.0
    pos = RadialDensity(d=1, N=float(N), rho=rho, drho=drho, analytic_moments=moments,
                        support_hint=hint, label=f"ho1d(N={N},q={q})")
    mom = replace(pos, label=f"ho1d-mom(N={N},q={q})")
    return DensityPair(pos, mom, real_wavefunction=True, label=f"ho1d(N={N},q={q})")


def load_tabulated(cfg: SystemConfig, r, rho_values) -> RadialDensity:
    """Interpolant-backed density from a strictly increasing (r, rho) table.

    The normalization is measured (not rescaled) and stored on the
    returned density; a measured count deviating from cfg.N by more than
    1% emits a warning.
    """
    r = np.asarray(r, dtype=float)
    rho_values = np.asarray(rho_values, dtype=float)
    if r.ndim != 1 or r.shape != rho_values.shape:
        raise FormatError("tabulated density must be two equal-length columns")
    if r.size < 8:
        raise FormatError(f"tabulated density needs at least 8 samples, got {r.size}")
    if r[0] < 0:
        raise FormatError("radii must be non-negative")
    interp = interpolate_monotone(r, rho_values)  # validates ordering and sign

    lo, hi = float(r[0]), float(r[-1])

    def rho(x):
        x = np.asarray(x, dtype=float)
        v = interp(np.clip(x, lo, hi))
        v = np.where((x < lo) | (x > hi), 0.0, v)
        return np.maximum(v, 0.0)

    def drho(x):
        x = np.asarray(x, dtype=float)
        v = interp.derivative(np.clip(x, lo, hi))
        return np.where((x < lo) | (x > hi), 0.0, v)

    measured = omega(cfg.d) * gauss_cells(lambda x: interp(x) * x ** (cfg.d - 1), r)[0]
    if measured <= 0:
        raise DomainError("tabulated density has zero measured normalization")
    if abs(measured - cfg.N) > _TABLE_NORM_TOL * cfg.N:
        warnings.warn(
            f"measured normalization {measured:.6g} deviates from declared "
            f"N = {cfg.N:.6g} by more than 1%", stacklevel=2)
    tail = max(hi / 8.0, float(np.median(np.diff(r))) * 8.0)
    return RadialDensity(d=cfg.d, N=float(measured), rho=rho, drho=drho,
                         support_hint=tail, support=(lo, hi), knots=r,
                         label="tabulated")


def scale_density(dens: RadialDensity, lam: float) -> RadialDensity:
    """Unit-preserving rescaling rho_lam(r) = lam^d rho(lam r).

    Keeps the particle count; radial moments of order a pick up lam^-a,
    entropic moments of order m pick up lam^(d(m-1)), and the Fisher
    information picks up lam^2.
    """
    check_positive("scale factor", lam)
    d = dens.d
    f, df = dens.rho, dens.drho

    def rho(r):
        return lam ** d * f(lam * np.asarray(r, dtype=float))

    def drho(r):
        return lam ** (d + 1) * df(lam * np.asarray(r, dtype=float))

    moments = None
    if dens.analytic_moments is not None:
        moments = {a: v * lam ** (-a) for a, v in dens.analytic_moments.items()}
    support = None
    if dens.support is not None:
        support = (dens.support[0] / lam, dens.support[1] / lam)
    knots = None if dens.knots is None else dens.knots / lam
    return RadialDensity(d=d, N=dens.N, rho=rho, drho=drho, analytic_moments=moments,
                         support_hint=dens.support_hint / lam, support=support,
                         knots=knots, tail_exponent=dens.tail_exponent,
                         label=f"{dens.label}*scale({lam})")


def scale_pair(pair: DensityPair, lam: float) -> DensityPair:
    """Conjugate rescaling: position stretched by lam, momentum by 1/lam."""
    return DensityPair(scale_density(pair.position, lam),
                       scale_density(pair.momentum, 1.0 / lam),
                       real_wavefunction=pair.real_wavefunction,
                       label=f"{pair.label}*scale({lam})")
