"""Closed-form and numerically defined constants for the uncertainty bounds.

Every evaluator is scale-free: it takes dimensionless parameters
(d, alpha, k, N, q) and returns a pure number, raising DomainError
outside a formula's validity window.  The one exception is the
closed-form cross-check entropic_upper_coeff_closed, which returns a
ConstantValue flagged invalid outside its window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, check_finite, check_integer, check_positive
from .mathcore import beta, exp_e1_scaled, minimize_scalar, omega

__all__ = [
    "SystemConfig",
    "ConstantValue",
    "thakkar_coefficient",
    "semiclassical_constant",
    "daubechies_factor",
    "rigorous_constant",
    "entropic_lower_coeff",
    "heisenberg_coeff",
    "heisenberg_exponent",
    "heisenberg_rhs",
    "negative_order_window",
    "entropic_upper_coeff_closed",
    "negative_order_rhs",
    "zumbach_constant",
    "heisenberg_product_constant",
    "FISHER_VARIANTS",
    "fisher_product_rhs",
]


@dataclass(frozen=True)
class SystemConfig:
    """Spatial dimension d, particle count N and spin multiplicity q = 2s + 1."""

    d: int
    N: float = 1.0
    q: int = 2

    def __post_init__(self):
        check_integer("dimension", self.d)
        check_positive("particle count", self.N)
        check_integer("spin multiplicity", self.q)

    @property
    def s(self) -> float:
        """Spin, derived from the multiplicity: s = (q - 1) / 2."""
        return (self.q - 1) / 2.0


@dataclass(frozen=True)
class ConstantValue:
    """A constant together with its validity flag and any domain restriction note."""

    value: float
    valid: bool = True
    domain_note: str = ""


def thakkar_coefficient(k: float) -> float:
    """Semiclassical coefficient c_k = 3 (3 pi^2)^(k/3) / (k + 3) of the
    three-dimensional electron-system momentum-moment bounds."""
    check_finite("momentum order", k)
    if k <= -3:
        raise DomainError(f"thakkar_coefficient requires k > -3, got {k}")
    return 3.0 * (3.0 * math.pi ** 2) ** (k / 3.0) / (k + 3.0)


def semiclassical_constant(d: int, k: float) -> float:
    """Dimension-dependent semiclassical constant relating <p^k> to the
    position entropic moment of order 1 + k/d."""
    check_integer("dimension", d)
    check_finite("momentum order", k)
    if k <= -d:
        raise DomainError(f"semiclassical constant requires k > -d = {-d}, got k = {k}")
    return (d / (k + d)) * (2.0 * math.pi) ** k \
        * math.gamma(1.0 + d / 2.0) ** (k / d) / math.pi ** (k / 2.0)


# 256 slots hold the 96 points of the minimizer's scan grid, which every
# rho shares, plus the points of the last few Brent runs (up to ~40 each);
# with fewer than about 140 the grid would be evicted between two scans
@lru_cache(maxsize=256)
def _log_daubechies_inner(a: float) -> float:
    # ln int_a^inf e^-u (u - a) / u du = ln(e^-a - a E1(a)), written as
    # -a + ln(1 - a e^a E1(a)) so that it stays finite where e^-a underflows
    return -a + math.log1p(-a * exp_e1_scaled(a))


@lru_cache(maxsize=None)
def _daubechies_ratio(rho: float) -> float:
    # B depends on d and k only through rho = d / k; the objective
    # a^-rho / (e^-a - a E1(a)) is minimized through its logarithm, since
    # a^-rho alone overflows on the scan grid once rho reaches ~80
    def objective(a: float) -> float:
        return -rho * math.log(a) - _log_daubechies_inner(a)

    res = minimize_scalar(objective, bracket=(1e-4, 60.0), rel_tol=1e-13)
    return math.exp(-(math.lgamma(rho) + res.min_value) / rho)


def daubechies_factor(d: int, k: float) -> float:
    """Rigor-restoring factor B(d, k) < 1 multiplying the semiclassical
    constant, defined through an infimum over the scale of a truncated
    exponential weight.  Requires an integer d >= 1 and a finite k > 0."""
    check_integer("dimension", d)
    check_positive("momentum order", k)
    return _daubechies_ratio(d / k)


def rigorous_constant(d: int, k: float) -> float:
    """Semiclassical constant tightened by the Daubechies factor; both
    factors check d and k before any work."""
    return semiclassical_constant(d, k) * daubechies_factor(d, k)


def entropic_lower_coeff(d: int, alpha: float, k: float) -> float:
    """Variational coefficient in the lower bound on the entropic moment
    of order 1 + k/d under normalization and one radial-moment constraint
    (positive orders alpha, k)."""
    check_integer("dimension", d)
    check_finite("alpha", alpha)
    check_finite("momentum order", k)
    if alpha <= 0 or k <= 0:
        raise DomainError(f"entropic_lower_coeff requires alpha, k > 0, got ({alpha}, {k})")
    m = 1.0 + k / d
    b = beta(d / alpha, 2.0 + d / k)
    head = m ** m * alpha ** (1.0 + 2.0 * k / d) * (omega(d) * b) ** (-k / d)
    tail = (k ** k / (m * alpha + k) ** (m * alpha + k)) ** (1.0 / alpha)
    return head * tail


def heisenberg_coeff(d: int, alpha: float, k: float) -> float:
    """Coefficient of the generalized Heisenberg-like product bound
    <r^alpha>^(k/alpha) <p^k> for positive orders."""
    return semiclassical_constant(d, k) * entropic_lower_coeff(d, alpha, k)


def heisenberg_exponent(d: int, alpha: float, k: float) -> float:
    """Exponent of N on the right-hand side: 1 + k (1/alpha + 1/d)."""
    return 1.0 + k * (1.0 / alpha + 1.0 / d)


def heisenberg_rhs(d: int, alpha: float, k: float, N: float = 1.0, q: int = 1) -> float:
    """Full right-hand side of the generalized Heisenberg-like relation."""
    check_positive("particle count", N)
    check_integer("spin multiplicity", q)
    return heisenberg_coeff(d, alpha, k) * q ** (-k / d) \
        * N ** heisenberg_exponent(d, alpha, k)


def negative_order_window(d: int, k: float) -> float:
    """Lower admissible limit on alpha for the negative-order (k < 0) bound:
    alpha must exceed -k d / (d + k)."""
    if not -d < k < 0:
        raise DomainError(f"negative-order bounds require -d < k < 0, got k = {k}")
    return -k * d / (d + k)


def entropic_upper_coeff_closed(d: int, alpha: float, k: float) -> ConstantValue:
    """Closed-form coefficient of the upper bound on the entropic moment of
    order 1 + k/d for k < 0.

    Evaluable on the real line exactly when alpha lies inside the validity
    window (there the first Beta argument is positive); outside it the
    value is returned flagged invalid instead of raising, since this
    closed form is only the secondary cross-check against the variational
    reconstruction.
    """
    check_integer("dimension", d)
    check_finite("momentum order", k)
    if not -d < k < 0:
        raise DomainError(f"entropic_upper_coeff_closed requires -d < k < 0, got {k}")
    check_positive("alpha", alpha)
    b1 = -1.0 - d * (k + alpha) / (k * alpha)
    b2 = d / alpha
    if b1 <= 0:
        return ConstantValue(
            math.nan, valid=False,
            domain_note=f"Beta argument {b1:.6g} <= 0: alpha = {alpha} is outside "
                        f"the window alpha > {negative_order_window(d, k):.6g}")
    m = 1.0 + k / d
    value = (alpha ** (1.0 + 2.0 * k / d)
             * (-k) ** (k / alpha)
             * (1.0 / (alpha + alpha * k / d + k)) ** (k * (1.0 / alpha + 1.0 / d) + 1.0)
             * m ** m
             * (omega(d) * beta(b1, b2)) ** (-k / d))
    return ConstantValue(value)


def negative_order_rhs(d: int, alpha: float, k: float, N: float = 1.0, q: int = 1) -> float:
    """Right-hand side of the negative-order uncertainty relation
    <r^alpha>^(k/alpha) <p^k> <= coeff * q^(-k/d) * N^(1 + k(1/alpha + 1/d)).

    The coefficient is taken from the variational reconstruction of the
    extremal density (the authoritative route); the closed form is kept
    alongside in the oracle's discrepancy report.
    """
    check_positive("particle count", N)
    check_integer("spin multiplicity", q)
    window = negative_order_window(d, k)
    if alpha <= window:
        raise DomainError(
            f"alpha = {alpha} violates the validity window alpha > {window:.6g} "
            f"for d = {d}, k = {k}")
    from . import varoracle  # deferred: varoracle builds on densities/functionals

    g = varoracle.extremal_G(d, alpha, k).numeric_value
    return semiclassical_constant(d, k) * g * q ** (-k / d) \
        * N ** heisenberg_exponent(d, alpha, k)


def zumbach_constant(d: int) -> float:
    """Non-optimal constant C_d of the kinetic-energy versus Fisher-information
    bound, valid for 1 <= d <= 5."""
    check_integer("dimension", d)
    if d > 5:
        raise DomainError(f"zumbach_constant is only valid for 1 <= d <= 5, got {d}")
    return (4.0 * math.pi) ** 2 * 5.0 * d ** 2 / (d + 2.0) * (2.0 / (d + 2.0)) ** (2.0 / d)


def heisenberg_product_constant(d: int) -> float:
    """Coefficient A(2, d) of the d-dimensional variance product bound
    <r^2><p^2> >= A(2,d) q^(-2/d) N^(2 + 2/d)."""
    check_integer("dimension", d)
    return ((d / (d + 1.0)) * math.gamma(d + 1.0) ** (1.0 / d)) ** 2


FISHER_VARIANTS = (
    "general",
    "electronic",
    "large_N_fermion",
    "large_N_electron",
    "d3_electron",
    "d3_large_N",
)


def fisher_product_rhs(variant: str, cfg: SystemConfig) -> float:
    """Lower bound on the position-momentum Fisher-information product.

    Variants: 'general' (any q), 'electronic' (q = 2), the two large-N
    asymptotic forms, and the two d = 3 electronic forms.  All require the
    Zumbach window 1 <= d <= 5; the electronic forms require q = 2 and the
    d3 forms additionally d = 3.
    """
    d, N, q = cfg.d, cfg.N, cfg.q
    if variant not in FISHER_VARIANTS:
        raise DomainError(f"unknown fisher variant {variant!r}")
    if not 1 <= d <= 5:
        raise DomainError(f"fisher product bounds require 1 <= d <= 5, got {d}")
    if variant in ("electronic", "large_N_electron", "d3_electron", "d3_large_N") and q != 2:
        raise DomainError(f"variant {variant!r} is an electron-system (q = 2) form, got q = {q}")
    if variant.startswith("d3") and d != 3:
        raise DomainError(f"variant {variant!r} requires d = 3, got d = {d}")
    A = heisenberg_product_constant(d)
    if variant in ("general", "electronic"):
        x = zumbach_constant(d) * (N / q) ** (2.0 / d)
        return 4.0 * A * N ** (2.0 / d + 2.0) * q ** (-2.0 / d) / (1.0 + x) ** 2
    if variant == "large_N_fermion":
        return A * N ** (2.0 - 2.0 / d) * q ** (2.0 / d) * (d + 2.0) ** (4.0 / d + 2.0) \
            / (25.0 * math.pi ** 4 * 4.0 ** (2.0 / d + 3.0) * d ** 4)
    if variant == "large_N_electron":
        return A * N ** (2.0 - 2.0 / d) * (d + 2.0) ** (4.0 / d + 2.0) \
            / (25.0 * math.pi ** 4 * 4.0 ** (1.0 / d + 3.0) * d ** 4)
    if variant == "d3_electron":
        x = N ** (2.0 / 3.0) * 144.0 * math.pi ** 2 / 5.0 ** (2.0 / 3.0)
        return N ** (8.0 / 3.0) / (x + 1.0) ** 2 * 3.0 ** (8.0 / 3.0) / 4.0
    # d3_large_N is the electronic large-N form specialized to d = 3
    return fisher_product_rhs("large_N_electron", cfg)
