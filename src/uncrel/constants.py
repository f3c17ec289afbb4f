"""Closed-form and numerically defined constants for the uncertainty bounds.

Every evaluator is scale-free: it takes dimensionless parameters
(d, alpha, k, N, q) and returns a pure number, raising DomainError
outside a formula's validity window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConvergenceError, DomainError, check_finite, check_integer, check_positive
from .mathcore import beta, e1_fraction_tail, exp_e1_scaled, omega

__all__ = [
    "SystemConfig",
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


# Newton steps the stationarity solve may take; from its start point no
# rho sampled over [1e-3, 1e300] needs more than 5
_NEWTON_STEPS = 50
# lgamma(rho) and rho ln a overflow from rho ~ 2.5e305
_RHO_MAX = 1e300


def _stationarity(a: float) -> tuple[float, float, float]:
    """(ln(aS / (1 - aS)), its derivative in ln a, ln(1 - aS)) at a, with
    S = e^a E1(a); d(aS)/d ln a = a (S (1 + a) - 1)."""
    if a <= 1.0:
        s = exp_e1_scaled(a)
        p = a * s
        ln_gap = math.log1p(-p)
        return math.log(p) - ln_gap, a * (s * (1.0 + a) - 1.0) / (p * (1.0 - p)), ln_gap
    # 1/S = a + 1 - r, so 1 - aS = (1 - r) S and S (1 + a) - 1 = r S, free
    # of the cancellation that 1 - aS suffers as aS -> 1
    r = e1_fraction_tail(a)
    return (math.log(a) - math.log1p(-r), r * (a + 1.0 - r) / (1.0 - r),
            math.log1p(-r) - math.log(a + 1.0 - r))


@lru_cache(maxsize=None)
def _daubechies_ratio(rho: float) -> float:
    """B(rho) = exp(-min_a [lgamma(rho) - rho ln a - ln(e^-a - a E1(a))] / rho)
    from the stationarity equation, not by minimizing.

    As d/da (e^-a - a E1(a)) = -E1(a), the minimum sits where
    aS / (1 - aS) = rho with S = e^a E1(a).  The left side increases in
    a, and Newton's method in t = ln a solves the equation in a few
    steps.  All of it stays in logarithms: a^-rho overflows once rho
    reaches ~80 and e^-a underflows for large a.
    """
    target = math.log(rho)
    t = math.log(rho if rho >= 2.0 else rho / 2.0)
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        a = math.exp(t)
        f, df, ln_gap = _stationarity(a)
        step = (f - target) / df
        # converged once the step is at rounding level, or has stopped
        # shrinking this close to the root; the objective is stationary
        # there, so B is taken at a itself
        if abs(step) < 1e-14 or (abs(step) >= abs(last) and abs(step) < 1e-10):
            return math.exp(-(math.lgamma(rho) - rho * t + a - ln_gap) / rho)
        t -= step
        last = step
    raise ConvergenceError(f"Daubechies stationarity equation at rho = {rho} "
                           f"did not converge in {_NEWTON_STEPS} Newton steps")


def daubechies_factor(d: int, k: float) -> float:
    """Rigor-restoring factor B(d, k) < 1 multiplying the semiclassical
    constant, defined through an infimum over the scale a of a truncated
    exponential weight.  B depends on rho = d/k alone and is taken at
    the root of the infimum's stationarity equation, not by minimizing.
    Its relative error grows like eps ln rho: from rho ~ 1e15 on, B is 1
    to rounding and may round above it.  Requires an integer d >= 1, a
    finite k > 0 and d/k <= 1e300."""
    check_integer("dimension", d)
    check_positive("momentum order", k)
    rho = d / k
    if rho > _RHO_MAX:
        raise DomainError(f"daubechies_factor requires d/k <= {_RHO_MAX:g}, got {rho}")
    return _daubechies_ratio(rho)


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


def entropic_upper_coeff_closed(d: int, alpha: float, k: float) -> float:
    """Closed-form coefficient of the upper bound on the entropic moment of
    order 1 + k/d for -d < k < 0: W_{1+k/d} of the half-line extremal
    density C (a^alpha + r^alpha)^(d/k) at N = <r^alpha> = 1.

    Real-evaluable exactly when alpha lies above the window
    -k d / (d + k), where the first Beta argument is positive; outside it
    raises DomainError naming the window.
    """
    check_integer("dimension", d)
    check_finite("momentum order", k)
    if not -d < k < 0:
        raise DomainError(f"entropic_upper_coeff_closed requires -d < k < 0, got {k}")
    check_positive("alpha", alpha)
    b1 = -1.0 - d * (k + alpha) / (k * alpha)
    b2 = d / alpha
    # alpha (d + k) / d + k, positive inside the window as b1 is; within
    # an ulp of the window either one can round to 0
    base = alpha + alpha * k / d + k
    if b1 <= 0 or base <= 0:
        raise DomainError(f"alpha = {alpha} is outside the window "
                          f"alpha > {negative_order_window(d, k):.6g} for d = {d}, k = {k}")
    m = 1.0 + k / d
    return (alpha ** (1.0 + 2.0 * k / d)
            * (-k) ** (k / alpha)
            * (1.0 / base) ** (k * (1.0 / alpha + 1.0 / d) + 1.0)
            * m ** m
            * (omega(d) * beta(b1, b2)) ** (-k / d))


def negative_order_rhs(d: int, alpha: float, k: float, N: float = 1.0, q: int = 1) -> float:
    """Right-hand side of the negative-order uncertainty relation
    <r^alpha>^(k/alpha) <p^k> <= coeff * q^(-k/d) * N^(1 + k(1/alpha + 1/d)),
    with coeff the semiclassical constant times the closed-form
    entropic-moment coefficient; alpha must lie above the window
    -k d / (d + k)."""
    check_positive("particle count", N)
    check_integer("spin multiplicity", q)
    window = negative_order_window(d, k)
    if alpha <= window:
        raise DomainError(
            f"alpha = {alpha} violates the validity window alpha > {window:.6g} "
            f"for d = {d}, k = {k}")
    return semiclassical_constant(d, k) * entropic_upper_coeff_closed(d, alpha, k) \
        * q ** (-k / d) * N ** heisenberg_exponent(d, alpha, k)


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
