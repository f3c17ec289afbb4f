"""Numerical reconstruction of the Lagrange-multiplier extremal densities.

For positive momentum order k the entropic moment W_{1+k/d} is minimized
under fixed normalization and fixed <r^alpha>; the stationary density is
C (a^alpha - r^alpha)^(d/k) on the ball r <= a.  For negative k the same
stationarity condition is solved for the maximization of W_{1+k/d}
(0 < 1+k/d < 1); the integrable branch has both multipliers positive and
reads C (a^alpha + r^alpha)^(d/k) on the whole half line [0, inf) -- the
compact-support branch and the r >= a branch are non-normalizable in the
admissible window alpha > -k d / (d + k).  (The r >= a candidate carries
a (r - a)^(d/k) endpoint singularity with d/k <= -1 throughout that
window, so its normalization integral diverges.)

The reconstruction is the brute-force oracle validating the one closed
form of W_{1+k/d} that `constants` gives for both signs of k: the
constraints are solved through Beta-function reduction, the extremal's
entropic moment by quadrature.  So an extremal density's closed form
(RadialDensity.exact) knows only its constraint moments, orders 0 and
alpha, and where the minimizer's Fisher information diverges: a closed-form
W_{1+k/d} would hand the oracle the very value it is there to check.  The
maximizer takes the window and the Beta argument of its scale from the
closed form's one check, so the two agree on it; each normalization is
formed from the closed form's log(Omega_d B).  A scale, normalization or
closed form that a double cannot hold is a DomainError, from errors.formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import constants
from .densities import RadialDensity, density_views, fixed_moments
from .errors import (DivergenceError, DomainError, check_finite, check_integer,
                     check_positive, formed)
from .functionals import entropic_moment
from .mathcore import QuadratureSpec, np, uniform_cuts

__all__ = ["ExtremalConstant", "minimizer_density", "maximizer_density",
           "extremal_F", "extremal_G"]


@dataclass(frozen=True)
class ExtremalConstant:
    """A variational constant recovered numerically by quadrature of the
    extremal density, its closed-form counterpart from `constants`, and
    their relative discrepancy."""

    d: int
    alpha: float
    k: float
    numeric_value: float
    closed_form_value: float
    discrepancy: float


def _scale_from_ratio(alpha: float, ratio: float, N: float, r_alpha: float, label: str) -> float:
    # a^alpha = (r_alpha / N) * ratio, from the Beta reduction of the two
    # constraint integrals; ratio > 0 for both extremal densities
    check_positive("particle count", N)
    check_positive("radial moment", r_alpha)
    return formed("the scale of {}", lambda: (r_alpha / N * ratio) ** (1.0 / alpha), label)


def _normalization(d: int, alpha: float, a: float, s: float, xy: tuple[float, float],
                   N: float, label: str) -> float:
    # C = N alpha / (Omega_d a^s B(x, y)) from the normalization integral, in logarithms
    return formed("the normalization of {}", lambda: N * alpha * math.exp(
        -s * math.log(a) - constants._log_omega_beta(d, *xy)), label)


def minimizer_density(d: int, alpha: float, k: float,
                      N: float = 1.0, r_alpha: float = 1.0) -> RadialDensity:
    """Compactly supported extremal density C (a^alpha - r^alpha)^(d/k),
    r <= a, meeting the constraints int f = N and <r^alpha> = r_alpha.

    Minimizes W_{1+k/d} for k > 0 under those constraints.  Near the edge
    rho'^2 / rho ~ (a^alpha - r^alpha)^(d/k - 2), so for k >= d the Fisher
    information is infinite: its closed form raises DivergenceError.
    """
    check_integer("dimension", d)
    check_positive("alpha", alpha)
    check_finite("momentum order", k)
    if k <= 0:
        raise DomainError(f"minimizer_density requires k > 0, got {k}")
    e = d / k
    label = f"extremal-min(d={d},alpha={alpha},k={k})"
    a = _scale_from_ratio(alpha, 1.0 + alpha * (e + 1.0) / d, N, r_alpha, label)
    C = _normalization(d, alpha, a, d + alpha * e, (d / alpha, e + 1.0), N, label)
    a_alpha = formed("the scale of {}", lambda: a ** alpha, label)

    def density(r, slope):
        core = np.maximum(a_alpha - np.power(r, alpha), 0.0)
        # C and core^e can each be a double while their product overflows
        # near the origin: the quadrature's NonFiniteError reports it, with
        # no warning on the way; for alpha < 1 the slope at r = 0 is -inf
        with np.errstate(over="ignore", divide="ignore"):
            value = C * np.power(core, e)
            if not slope:
                return value
            # 0 past the edge, and at it, where core^(e - 1) is infinite for k > d
            inner = np.power(core, e - 1.0, out=np.zeros_like(core), where=core > 0.0)
            return value, -C * e * alpha * np.power(r, alpha - 1.0) * inner

    moments = fixed_moments({0.0: N, float(alpha): r_alpha})

    def exact(kind, order):
        if kind == "fisher" and k >= d:
            raise DivergenceError(f"Fisher information of {label} diverges at the "
                                  f"support edge for k >= d")
        return moments(kind, order)

    return RadialDensity(d=d, N=N, **density_views(density), cuts=uniform_cuts(0.0, a),
                         exact=exact, support=(0.0, a), label=label)


def maximizer_density(d: int, alpha: float, k: float,
                      N: float = 1.0, r_alpha: float = 1.0) -> RadialDensity:
    """Half-line extremal density C (a^alpha + r^alpha)^(d/k) meeting the
    constraints int f = N and <r^alpha> = r_alpha.

    Maximizes W_{1+k/d} for -d < k < 0; requires alpha inside the window
    alpha > -k d / (d + k), outside which the candidate is not
    normalizable together with a finite <r^alpha>.
    """
    b = constants._window(d, alpha, k)
    e = d / k
    t = -e  # positive exponent of (a^alpha + r^alpha)^-t
    label = f"extremal-max(d={d},alpha={alpha},k={k})"
    # the ratio alpha (d + k) / (-d k) - 1 is b alpha / d, positive by the window
    a = _scale_from_ratio(alpha, b * alpha / d, N, r_alpha, label)
    C = _normalization(d, alpha, a, d + alpha * e, (d / alpha, t - d / alpha), N, label)

    # a^alpha + r^alpha = hi^alpha (1 + (lo/hi)^alpha) with hi = max(a, r),
    # lo = min(a, r): far out, r^alpha alone overflows while the density
    # is still representable
    def density(r, slope):
        hi = np.maximum(r, a)
        base = 1.0 + np.power(np.minimum(r, a) / hi, alpha)
        value = C * np.power(hi, alpha * e) * np.power(base, e)
        if not slope:
            return value
        # r^(alpha-1) = (r/hi)^(alpha-1) hi^(alpha-1), merged into hi^(alpha e - 1)
        return value, C * e * alpha * np.power(r / hi, alpha - 1.0) \
            * np.power(hi, alpha * e - 1.0) * np.power(base, e - 1.0)

    return RadialDensity(d=d, N=N, **density_views(density), cuts=uniform_cuts(0.0, 5.0 * a),
                         exact=fixed_moments({0.0: N, float(alpha): r_alpha}),
                         tail_exponent=alpha * t, label=label)


def _extremal(d: int, alpha: float, k: float, spec: QuadratureSpec | None,
              density: Callable, closed_form: Callable) -> ExtremalConstant:
    # W_{1+k/d} of the extremal density at N = <r^alpha> = 1 and its closed form
    numeric = entropic_moment(density(d, alpha, k, N=1.0, r_alpha=1.0), 1.0 + k / d, spec).value
    closed = closed_form(d, alpha, k)
    return ExtremalConstant(d, alpha, k, numeric, closed, abs(numeric - closed) / closed)


def extremal_F(d: int, alpha: float, k: float,
               spec: QuadratureSpec | None = None) -> ExtremalConstant:
    """Numeric variational coefficient of the entropic-moment lower bound
    (k > 0), read off the reconstructed minimizer at reference constraints
    N = 1, <r^alpha> = 1, compared against the closed form."""
    return _extremal(d, alpha, k, spec, minimizer_density, constants.entropic_lower_coeff)


def extremal_G(d: int, alpha: float, k: float,
               spec: QuadratureSpec | None = None) -> ExtremalConstant:
    """Numeric variational coefficient of the entropic-moment upper bound
    (-d < k < 0), read off the reconstructed maximizer at reference
    constraints N = 1, <r^alpha> = 1, compared against the closed form."""
    return _extremal(d, alpha, k, spec, maximizer_density, constants.entropic_upper_coeff_closed)
