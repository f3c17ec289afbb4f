"""Closed-form and numerically defined constants for the uncertainty bounds.

Every evaluator is scale-free: it takes dimensionless parameters
(d, alpha, k, N, q) and returns a pure number, raising DomainError
outside a formula's validity window and, from one guard, errors.formed,
where a double cannot hold the value.  The Heisenberg-like coefficients of
both signs of k share one closed form, W_{1+k/d} of the extremal density.

The scalar special functions the coefficients are built from live here
too: the sphere measure Omega_d, the Euler Beta, the exponential
integral E1, and, for the densities' closed-form moments and the
constants' Gamma powers, Gamma functions and powers past the double range
(Wide, wide_gamma).  E1 is computed locally (power series up to
x = 1, above it a continued fraction evaluated backward from a depth set
by x) because it sits inside the Newton solve of the Daubechies factor,
which also reads the continued fraction's tail, and its accuracy budget
is audited by the test suite against mpmath and independent quadrature.
Nothing here needs numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (TINY, ConvergenceError, DomainError, check_finite, check_integer,
                     check_positive, formed)

EULER_GAMMA = 0.5772156649015328606065120900824024

__all__ = [
    "SystemConfig",
    "omega",
    "beta",
    "Wide",
    "wide_gamma",
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
    d-dimensional one (2 for d=1, 2 pi for d=2, 4 pi for d=3).  From
    d = 344 on, Gamma(d/2) leaves the double range, and the quotient is
    formed as a Wide, a normal float up to d = 438; from d = 439 on
    Omega_d underflows: a DomainError.
    """
    check_integer("dimension", d)
    if d < 344:  # Gamma(d/2) is a double, and Omega_d >= 3.8e-223
        return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return (2.0 * Wide(math.pi) ** (d / 2.0) / wide_gamma(d / 2.0)).value(f"omega({d})")


def _stirling(x: float) -> float:
    """lgamma(x) - (x - 1/2) ln x + x - ln(2 pi) / 2 for x >= 20, to 1e-17."""
    u = 1.0 / (x * x)
    return (1 / 12 - u * (1 / 360 - u * (1 / 1260 - u * (1 / 1680 - u / 1188)))) / x


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b): lgamma(a) + lgamma(b) - lgamma(a + b) below max(a, b) = 20;
    beyond, with a <= b, z = a + b and ln z = ln b + log1p(a/b), Stirling's series
    gives lgamma(b) - lgamma(z) = a - a ln z - (b - 1/2) log1p(a/b) + st(b) - st(z),
    and lgamma(a) from a = 20 on: no term of size z ln z is formed."""
    a, b = min(a, b), max(a, b)
    if b < 20.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    t = math.log1p(a / b)
    rest = _stirling(b) - _stirling(a + b) - (b - 0.5) * t
    if a < 20.0:
        return math.lgamma(a) + a - a * (math.log(b) + t) + rest
    return 0.5 * math.log(2.0 * math.pi / a) - a * math.log1p(b / a) + _stirling(a) + rest


def beta(a: float, b: float) -> float:
    """Euler Beta exp(_log_beta(a, b)) for finite positive arguments; a value past
    the double range is a DomainError, one below it is returned subnormal or 0."""
    check_positive("Beta argument", a)
    check_positive("Beta argument", b)
    try:
        return math.exp(_log_beta(a, b))
    except OverflowError:
        raise DomainError(f"beta({a}, {b}) leaves the double-precision range") from None


class Wide:
    """A positive number m 2^e with a float m and an unbounded integer e,
    so that products of Gamma functions and powers can pass beyond the
    double range on the way to a result inside it.

    Products, quotients and powers take the bits of the same float
    operation wherever that operation's operands and result are normal
    floats, since scaling by powers of two rounds nothing.  Beyond that a
    power of x = m 2^e is m^y 2^(e y), and m^y for |y| > 512 is m^z,
    |z| <= 512, squared j times: its relative error about doubles with
    each squaring, up to |y|/256 ulps (none for a power of two), and even
    y ~ 1e300 takes only a thousand squarings.  float() is the result, an
    OverflowError past the range and subnormal or 0 below it; value(what)
    refuses it by errors.formed, naming what, outside the normals.
    """

    __slots__ = ("m", "e")

    def __init__(self, x: float, e: int = 0):
        self.m, k = math.frexp(x)
        self.e = e + k

    @staticmethod
    def _of(x) -> "Wide":
        return x if isinstance(x, Wide) else Wide(x)

    def __mul__(self, other) -> "Wide":
        other = Wide._of(other)
        return Wide(self.m * other.m, self.e + other.e)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Wide":
        other = Wide._of(other)
        return Wide(self.m / other.m, self.e - other.e)

    def __pow__(self, y: float) -> "Wide":
        if -1021 <= self.e <= 1024:  # a normal float: x ** y where that is one too
            try:
                v = math.ldexp(self.m, self.e) ** y
            except OverflowError:
                v = math.inf
            if TINY <= v < math.inf:
                return Wide(v)
        check_finite("exponent", y)
        # x^y = m^y 2^(e y), e y split exactly into an integer and a
        # fraction; a power of two is 1 2^(e-1), so that its powers round
        # nothing
        m, e = (1.0, self.e - 1) if self.m == 0.5 else (self.m, self.e)
        p, q = float(y).as_integer_ratio()
        n, rest = divmod(e * p, q)
        w = Wide(2.0 ** (rest / q), n)
        if m != 1.0:
            # m^y = (m^z)^(2^j) with y = z 2^j exactly and |z| <= 512, so
            # that m^z stays a normal float
            j = max(0, math.frexp(y)[1] - 9)
            mz = Wide(m ** math.ldexp(y, -j))
            for _ in range(j):
                mz = mz * mz
            w = w * mz
        return w

    def __float__(self) -> float:
        return math.ldexp(self.m, self.e)

    def value(self, what: str) -> float:
        return formed("{}", self.__float__, what)


def wide_gamma(x: float) -> Wide:
    """Gamma(x) for x > 0 as a Wide: math.gamma up to 171.5 (past it,
    near 171.62, Gamma leaves the double range), and beyond it Legendre's
    duplication with h = x/2,
    Gamma(x) = Gamma(h)^2 (Gamma(h + 1/2) / Gamma(h)) 2^(x-1) / sqrt(pi),
    one halving a step, so that Gamma(1e300) takes a thousand steps.  The
    ratio, at h > 85.75, is Stirling's: with u = 1/(2h) and st = _stirling,
    sqrt(h) exp(h (log1p(u) - u) + st(h + 1/2) - st(h)).  The relative error
    about doubles with each step: a few ulps up to x ~ 1000, 3.7e-12 by
    x ~ 1e6, within x/32 ulps.  Below x ~ 5.6e-309, where math.gamma
    overflows, it is Gamma(1 + x) / x."""
    check_positive("Gamma argument", x)
    steps = []
    while x > 171.5:
        steps.append(x)
        x /= 2.0
    try:
        g = Wide(math.gamma(x))
    except OverflowError:
        g = Wide(math.gamma(1.0 + x)) / x
    for x in reversed(steps):
        h, u = x / 2.0, 1.0 / x
        s = h * (math.log1p(u) - u) + (_stirling(h + 0.5) - _stirling(h))
        g = g * g * (math.sqrt(h) * math.exp(s)) * Wide(2.0) ** (x - 1.0) / math.sqrt(math.pi)
    return g


# coefficients (-1)^(n+1) / (n n!), n = 1..19, of Ein(x) = sum_n c_n x^n;
# the next term is below 2.1e-20 for x <= 1
_EIN = tuple((-1) ** (n + 1) / (n * math.factorial(n)) for n in range(1, 20))


def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln x + Ein(x), Ein by Horner's rule
    s = 0.0
    for c in reversed(_EIN):
        s = s * x + c
    return -EULER_GAMMA - math.log(x) + s * x


def e1_fraction_tail(x: float) -> float:
    """Tail r = 1/(x + 3 - 4/(x + 5 - 9/(x + 7 - ...))) of the continued
    fraction e^x E1(x) = 1/(x + 1 - r), for x > 1.

    The fraction is evaluated backward from depth n = 10 + 114/x, with x
    added last at each level, so that its low bits are not rounded away
    in the deep denominators.  Cut at depth n, the fraction is off by
    about exp(-4 sqrt(n x)); at this depth that stays below 1e-17 relative
    (against 40-digit mpmath over x in (1, 200]), and r and 1 - r come out
    within 4e-16 relative, one ulp above x = 2.

    With it 1/(e^x E1(x)) - x = 1 - r is free of the cancellation that
    subtracting x from 1/(e^x E1(x)) suffers for large x.
    """
    if not 1.0 < x < math.inf:  # NaN and a bool too
        raise DomainError(f"e1_fraction_tail requires a finite x > 1, got {x}")
    n = int(10.0 + 114.0 / x)
    t, c = 0.0, 2.0 * n + 3.0
    for i in range(n, 1, -1):
        c -= 2.0  # 2 i + 1
        t = i * i / (x + (c - t))
    return 1.0 / (x + (3.0 - t))


def exp_e1_scaled(x: float) -> float:
    """e^x E1(x) for x > 0, finite where E1(x) itself underflows.

    Power series up to x = 1, continued fraction above; both branches
    agree with direct quadrature of the defining integral to ~1e-14.
    """
    check_positive("E1 argument", x)
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


def thakkar_coefficient(k: float) -> float:
    """Semiclassical coefficient c_k = 3 (3 pi^2)^(k/3) / (k + 3) of the
    three-dimensional electron-system momentum-moment bounds."""
    check_finite("momentum order", k)
    if k <= -3:
        raise DomainError(f"thakkar_coefficient requires k > -3, got {k}")
    return formed("thakkar_coefficient({})",
                  lambda: 3.0 * (3.0 * math.pi ** 2) ** (k / 3.0) / (k + 3.0), k)


def semiclassical_constant(d: int, k: float) -> float:
    """Dimension-dependent semiclassical constant relating <p^k> to the
    position entropic moment of order 1 + k/d."""
    check_integer("dimension", d)
    check_finite("momentum order", k)
    if k <= -d:
        raise DomainError(f"semiclassical constant requires k > -d = {-d}, got k = {k}")
    return formed("semiclassical_constant({}, {})", lambda: (
        (d / (k + d)) * (2.0 * math.pi) ** k
        * float(wide_gamma(1.0 + d / 2.0) ** (k / d)) / math.pi ** (k / 2.0)), d, k)


# Newton steps the stationarity solve may take; from its start point no
# rho sampled over [1e-3, 1e300] needs more than 4
_NEWTON_STEPS = 50
# lgamma(rho) and rho ln a overflow from rho ~ 2.5e305
_RHO_MAX = 1e300
# from this rho on, lgamma(rho) is taken from Stirling's series
_STIRLING_FROM = 1e3


def _stationarity(a: float) -> tuple[float, float, float, float]:
    """(ln(aS / (1 - aS)), its derivative in ln a, ln(1 - aS), r) at a,
    with S = e^a E1(a) = 1/(a + 1 - r), r being the continued fraction
    tail from a = 1 on; d(aS)/d ln a = a (S (1 + a) - 1)."""
    if a <= 1.0:
        s = exp_e1_scaled(a)
        p = a * s
        ln_gap = math.log1p(-p)
        return (math.log(p) - ln_gap, a * (s * (1.0 + a) - 1.0) / (p * (1.0 - p)), ln_gap,
                a + 1.0 - 1.0 / s)
    # 1/S = a + 1 - r, so 1 - aS = (1 - r) S and S (1 + a) - 1 = r S, free
    # of the cancellation that 1 - aS suffers as aS -> 1
    r = e1_fraction_tail(a)
    ln_1r = math.log1p(-r)
    return math.log(a) - ln_1r, r * (a + 1.0 - r) / (1.0 - r), ln_1r - math.log(a + 1.0 - r), r


def _daubechies_ratio(rho: float) -> float:
    """B(rho) = exp(-min_a [lgamma(rho) - rho ln a - ln(e^-a - a E1(a))] / rho)
    from the stationarity equation, not by minimizing.

    As d/da (e^-a - a E1(a)) = -E1(a), the minimum sits where
    aS / (1 - aS) = rho with S = e^a E1(a).  The left side increases in
    a, and Newton's method in t = ln a solves the equation in a few
    steps.  All of it stays in logarithms: a^-rho overflows once rho
    reaches ~80 and e^-a underflows for large a.  Below _STIRLING_FROM the
    objective's four terms are summed exactly, as dividing by a small rho
    magnifies their rounding; from there on lgamma(rho) and rho ln a
    cancel to ~1/(2 rho) of their size, and B is formed without them from
    Stirling's series and a = rho (1 - r) at the root, r being the
    continued fraction tail.
    """
    target = math.log(rho)
    if rho >= 0.8:
        # a = rho (1 - r) at the root, a quadratic in a for r ~ 1/(a + 3);
        # the tail's first two levels at its root put t within 0.13 of the
        # root at rho = 0.8 (where rho / 2 is as close), 3e-4 at 10
        a = 0.5 * (rho - 3.0 + math.hypot(rho - 3.0, math.sqrt(8.0 * rho)))
        t = math.log(rho * (1.0 - 1.0 / (a + 3.0 - 4.0 / (a + 5.0))))
    else:
        t = math.log(rho / 2.0)
    # an offset delta of t from the root moves the stationary objective's
    # ln B by at most delta^2 / 2 (40-digit mpmath, rho in [1e-6, 1e3]); the
    # Stirling form uses a = rho (1 - r), true at the root alone
    tol = 1e-8 if rho < _STIRLING_FROM else 1e-14
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        a = math.exp(t)
        f, df, ln_gap, r = _stationarity(a)
        step = (f - target) / df
        # converged once the step is below tol, or has stopped shrinking
        # this close to the root; B is taken at a itself
        if abs(step) < tol or (abs(step) >= abs(last) and abs(step) < 1e-10):
            if rho < _STIRLING_FROM:
                return math.exp(-math.fsum((math.lgamma(rho), -rho * t, a, -ln_gap)) / rho)
            # lgamma(rho) - (rho - 1/2) ln rho + rho - ln(2 pi) / 2 = _stirling(rho),
            # and rho ln(rho / a) + a - rho = rho (-r - log1p(-r)), not formed
            # from a - rho, whose rounding is eps rho
            ln_1r = math.log1p(-r)
            return math.exp(-(_stirling(rho) + 0.5 * math.log(2.0 * math.pi / rho)
                              + rho * (-r - ln_1r) - ln_gap) / rho)
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
    ln(2 pi rho) / (2 rho), so B rounds to 1 from rho ~ 5e17 on, and
    falls below the normal floats once rho < ~1/141: the guard's DomainError.
    Requires an integer d >= 1, a finite k > 0 and d/k <= 1e300."""
    check_integer("dimension", d)
    check_positive("momentum order", k)
    rho = d / k
    if rho > _RHO_MAX:
        raise DomainError(f"daubechies_factor requires d/k <= {_RHO_MAX:g}, got {rho}")
    return formed("daubechies_factor({}, {})", lambda: _daubechies_ratio(rho), d, k)


def rigorous_constant(d: int, k: float) -> float:
    """Semiclassical constant tightened by the Daubechies factor; both
    factors check d and k before any work."""
    return semiclassical_constant(d, k) * daubechies_factor(d, k)


def _log_omega_beta(d: int, x: float, y: float) -> float:
    """log(Omega_d B(x, y)), finite where the product is no normal double."""
    return math.log(omega(d)) + _log_beta(x, y)


def _extremal_entropic(name: str, d: int, alpha: float, k: float, b: float) -> float:
    """W_{1+k/d} at N = <r^alpha> = 1 of the density extremizing it at fixed
    N and <r^alpha>, C (a^alpha - r^alpha)^(d/k) on the ball for k > 0 and
    C (a^alpha + r^alpha)^(d/k) on the half line for -d < k < 0; b is the
    Beta argument the constraints reduce to.  With m = 1 + k/d, y = m + k/alpha
    it is alpha^(1+2k/d) |k|^(k/alpha) (m alpha + k)^-y m^m (Omega_d B(b, d/alpha))^(-k/d),
    one exact sum of logarithms, ln(m alpha + k) split by the larger of m alpha
    and |k| (for k < 0, ln(alpha b |k| / d)): no term of size k/alpha cancels."""
    m, y, ln_alpha = 1.0 + k / d, 1.0 + k / d + k / alpha, math.log(alpha)
    if k < 0:
        head = (-m * math.log(-k), -y * ln_alpha, -y * math.log(b / d))
    elif k < m * alpha:
        head = (k / alpha * math.log(k), -y * (math.log(m) + ln_alpha),
                -y * math.log1p(k / (m * alpha)))
    else:
        head = (-m * math.log(k), -y * math.log1p(m * alpha / k))
    terms = ((1.0 + 2.0 * k / d) * ln_alpha, *head, m * math.log(m),
             -k / d * _log_omega_beta(d, b, d / alpha))
    return formed(name + "({}, {}, {})", lambda: math.exp(math.fsum(terms))
                  if all(map(math.isfinite, terms)) else math.inf, d, alpha, k)


def entropic_lower_coeff(d: int, alpha: float, k: float) -> float:
    """Variational coefficient in the lower bound on the entropic moment
    of order 1 + k/d under normalization and one radial-moment constraint
    (positive orders alpha, k): W_{1+k/d} of the ball extremal density."""
    check_integer("dimension", d)
    check_finite("alpha", alpha)
    check_finite("momentum order", k)
    if alpha <= 0 or k <= 0:
        raise DomainError(f"positive-order bounds require alpha, k > 0, got ({alpha}, {k})")
    return _extremal_entropic("entropic_lower_coeff", d, alpha, k, 2.0 + d / k)


def heisenberg_coeff(d: int, alpha: float, k: float) -> float:
    """Coefficient of the generalized Heisenberg-like bound on
    <r^alpha>^(k/alpha) <p^k>, a lower one for alpha, k > 0 and an upper one
    for -d < k < 0 and alpha above the window -k d / (d + k)."""
    w = (entropic_lower_coeff if k > 0 else entropic_upper_coeff_closed)(d, alpha, k)
    return formed("heisenberg_coeff({}, {}, {})", lambda: w * semiclassical_constant(d, k),
                  d, alpha, k)


def heisenberg_exponent(d: int, alpha: float, k: float) -> float:
    """Exponent of N on the right-hand side: 1 + k (1/alpha + 1/d)."""
    if not alpha or not d:
        raise DomainError(f"heisenberg_exponent requires alpha, d != 0, got ({alpha}, {d})")
    check_integer("dimension", d)
    check_finite("alpha", alpha)
    check_finite("momentum order", k)
    return 1.0 + k * (1.0 / alpha + 1.0 / d)


def heisenberg_rhs(d: int, alpha: float, k: float, N: float = 1.0, q: int = 1) -> float:
    """Full right-hand side of the generalized Heisenberg-like relation,
    coeff q^(-k/d) N^(1 + k(1/alpha + 1/d)), for either sign of k."""
    check_positive("particle count", N)
    check_integer("spin multiplicity", q)
    return formed("heisenberg_rhs({}, {}, {}, N={}, q={})", lambda: heisenberg_coeff(d, alpha, k)
                  * q ** (-k / d) * N ** heisenberg_exponent(d, alpha, k), d, alpha, k, N, q)


def negative_order_window(d: int, k: float) -> float:
    """Lower limit -k d / (d + k) on alpha for the negative-order (k < 0)
    branch of the Heisenberg-like relation; the one check that -d < k < 0."""
    check_integer("dimension", d)
    check_finite("momentum order", k)
    if not -d < k < 0:
        raise DomainError(f"negative-order bounds require -d < k < 0, got k = {k}")
    return -k * d / (d + k)


def _window(d: int, alpha: float, k: float) -> float:
    """The Beta argument b = -1 - d/alpha - d/k of the half-line extremal
    density, finite wherever d/alpha is, after the one check that alpha lies
    above the window: alpha > -k d / (d + k) and b > 0, since next to it
    each can round the other way; m alpha + k = alpha b |k| / d is then positive."""
    window = negative_order_window(d, k)
    check_positive("alpha", alpha)
    b = -1.0 - d / alpha - d / k
    if alpha > window and b > 0:
        return b
    raise DomainError(f"alpha = {alpha} violates the validity window alpha > {window:.6g} "
                      f"for d = {d}, k = {k}")


def entropic_upper_coeff_closed(d: int, alpha: float, k: float) -> float:
    """Closed-form coefficient of the upper bound on the entropic moment of
    order 1 + k/d for -d < k < 0: W_{1+k/d} of the half-line extremal
    density at N = <r^alpha> = 1, alpha above the window -k d / (d + k)."""
    return _extremal_entropic("entropic_upper_coeff_closed", d, alpha, k, _window(d, alpha, k))


def negative_order_rhs(d: int, alpha: float, k: float, N: float = 1.0, q: int = 1) -> float:
    """heisenberg_rhs restricted to -d < k < 0, the right-hand side of the
    negative-order relation <r^alpha>^(k/alpha) <p^k> <= rhs."""
    negative_order_window(d, k)
    return heisenberg_rhs(d, alpha, k, N, q)


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
    return formed("heisenberg_product_constant({})",
                  lambda: ((d / (d + 1.0)) * float(wide_gamma(d + 1.0) ** (1.0 / d))) ** 2, d)


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
    the bound's own N^(2-2/d) is formed.  A bound outside the normal
    floats, past them or below, raises DomainError.
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
    return formed("fisher_product_rhs({!r}, {!r})", lambda: (  # the bracket's 1 divided through
        4.0 * heisenberg_product_constant(d) * q ** (2.0 / d) * N ** (2.0 - 2.0 / d)
        / ((0.0 if large_N else (N / q) ** (-2.0 / d)) + zumbach_constant(d)) ** 2), variant, cfg)
