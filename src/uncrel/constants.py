"""Closed-form and numerically defined constants for the uncertainty bounds.

Every evaluator is scale-free: it takes dimensionless parameters
(d, alpha, k, N, q) and returns a pure number, raising DomainError
outside a formula's validity window.

The scalar special functions the coefficients are built from live here
too: the sphere measure Omega_d, the Euler Beta, and the exponential
integral E1.  E1 is computed locally (power series up to x = 1,
modified-Lentz continued fraction above) because it sits inside the
Newton solve of the Daubechies factor, which also reads the continued
fraction's tail, and its accuracy budget is audited by the test suite
against independent quadrature.  Nothing here needs numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, check_finite, check_integer, check_positive

EULER_GAMMA = 0.5772156649015328606065120900824024

__all__ = [
    "SystemConfig",
    "omega",
    "beta",
    "exp_e1_scaled",
    "e1_fraction_tail",
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
    "fisher_product_rhs",
]


def omega(d: int) -> float:
    """Surface measure of the unit sphere in d dimensions, 2 pi^(d/2) / Gamma(d/2).

    This is the angular factor turning a radial integral into a full
    d-dimensional one (2 for d=1, 2 pi for d=2, 4 pi for d=3).
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def beta(a: float, b: float) -> float:
    """Euler Beta for strictly positive arguments, via log-gamma."""
    if a <= 0 or b <= 0:
        raise DomainError(f"beta requires positive arguments, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_{n>=1} (-1)^(n+1) x^n / (n n!)
    s, term = 0.0, 1.0
    for n in range(1, 500):
        term *= -x / n
        add = term / n
        s += add
        if abs(add) < 1e-18 * max(1.0, abs(s)):
            break
    return -EULER_GAMMA - math.log(x) - s


def e1_fraction_tail(x: float) -> float:
    """Tail r = 1/(x + 3 - 4/(x + 5 - 9/(x + 7 - ...))) of the continued
    fraction e^x E1(x) = 1/(x + 1 - r), for x > 1 (modified Lentz).

    With it 1/(e^x E1(x)) - x = 1 - r is free of the cancellation that
    subtracting x from 1/(e^x E1(x)) suffers for large x.
    """
    if not x > 1.0:
        raise DomainError(f"e1_fraction_tail requires x > 1, got {x}")
    tiny = 1e-300
    b = x + 3.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(2, 500):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        if c == 0.0:
            c = tiny
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def exp_e1_scaled(x: float) -> float:
    """e^x E1(x) for x > 0, finite where E1(x) itself underflows.

    Power series up to x = 1, continued fraction above; both branches
    agree with direct quadrature of the defining integral to ~1e-14.
    """
    if x <= 0:
        raise DomainError(f"exp_e1_scaled requires x > 0, got {x}")
    if x <= 1.0:
        return math.exp(x) * _e1_series(x)
    return 1.0 / (x + 1.0 - e1_fraction_tail(x))


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
# from this rho on, lgamma(rho) is taken from Stirling's series
_STIRLING_FROM = 1e3


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


def _daubechies_ratio(rho: float) -> float:
    """B(rho) = exp(-min_a [lgamma(rho) - rho ln a - ln(e^-a - a E1(a))] / rho)
    from the stationarity equation, not by minimizing.

    As d/da (e^-a - a E1(a)) = -E1(a), the minimum sits where
    aS / (1 - aS) = rho with S = e^a E1(a).  The left side increases in
    a, and Newton's method in t = ln a solves the equation in a few
    steps.  All of it stays in logarithms: a^-rho overflows once rho
    reaches ~80 and e^-a underflows for large a.  From _STIRLING_FROM on,
    lgamma(rho) and rho ln a cancel to ~1/(2 rho) of their size, and B
    is formed without them from Stirling's series and a = rho (1 - r) at
    the root, r being the continued fraction tail.
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
            if rho < _STIRLING_FROM:
                return math.exp(-(math.lgamma(rho) - rho * t + a - ln_gap) / rho)
            # lgamma(rho) - (rho - 1/2) ln rho + rho - ln(2 pi) / 2 = g(rho), and
            # rho ln(rho / a) + a - rho = rho (-r - log1p(-r)), not formed
            # from a - rho, whose rounding is eps rho
            r = e1_fraction_tail(a)
            ln_1r = math.log1p(-r)
            g = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * rho * rho)) / (rho * rho)) / rho
            return math.exp(-(g + 0.5 * math.log(2.0 * math.pi / rho) + rho * (-r - ln_1r)
                              + math.log(a + 1.0 - r) - ln_1r) / rho)
        t -= step
        last = step
    raise ConvergenceError(f"Daubechies stationarity equation at rho = {rho} "
                           f"did not converge in {_NEWTON_STEPS} Newton steps")


def daubechies_factor(d: int, k: float) -> float:
    """Rigor-restoring factor B(d, k) < 1 multiplying the semiclassical
    constant, defined through an infimum over the scale a of a truncated
    exponential weight.  B depends on rho = d/k alone and is taken at
    the root of the infimum's stationarity equation, not by minimizing.
    It never exceeds 1 and does not decrease in rho; 1 - B is about
    ln(2 pi rho) / (2 rho), so B rounds to 1 from rho ~ 5e17 on.
    Requires an integer d >= 1, a finite k > 0 and d/k <= 1e300."""
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


# variant -> (q = 2 only, d = 3 only, large-N limit)
_FISHER_FORMS = {"general": (False, False, False), "electronic": (True, False, False),
                 "large_N_fermion": (False, False, True), "large_N_electron": (True, False, True),
                 "d3_electron": (True, True, False), "d3_large_N": (True, True, True)}


def fisher_product_rhs(variant: str, cfg: SystemConfig) -> float:
    """Lower bound 4 A(2,d) q^(-2/d) N^(2+2/d) / [1 + C_d (N/q)^(2/d)]^2 on
    the position-momentum Fisher-information product (A the variance-product
    and C_d the Zumbach constant), or its large-N limit without the 1.

    Variants: 'general' and 'large_N_fermion' take any q, the electronic
    forms q = 2, the d3 forms d = 3 and q = 2; all need 1 <= d <= 5.  The
    bracket is divided through by (N/q)^(2/d), so that no power of N above
    the bound's own N^(2-2/d) is formed.  A bound whose terms leave the
    double range raises DomainError.
    """
    d, N, q = cfg.d, cfg.N, cfg.q
    if variant not in _FISHER_FORMS:
        raise DomainError(f"unknown fisher variant {variant!r}")
    electron, three_d, large_N = _FISHER_FORMS[variant]
    if not 1 <= d <= 5:
        raise DomainError(f"fisher product bounds require 1 <= d <= 5, got {d}")
    if electron and q != 2:
        raise DomainError(f"variant {variant!r} is an electron-system (q = 2) form, got q = {q}")
    if three_d and d != 3:
        raise DomainError(f"variant {variant!r} requires d = 3, got d = {d}")
    try:
        one = 0.0 if large_N else (N / q) ** (-2.0 / d)  # the bracket's 1, divided through
        return 4.0 * heisenberg_product_constant(d) * q ** (2.0 / d) * N ** (2.0 - 2.0 / d) \
            / (one + zumbach_constant(d)) ** 2
    except OverflowError:  # the bracket squared or N^(2-2/d) leaves the double range
        raise DomainError(f"fisher product variant {variant!r} at N = {N:g}, q = {q} "
                          "leaves the double-precision range") from None
