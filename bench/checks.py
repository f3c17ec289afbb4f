"""Values computed apart from uncrel, used to check the outputs of every pass.

Closed forms are re-derived here from the defining integrals (Beta-function
reductions) rather than copied from the program, and the Daubechies factor
is recomputed from its stationarity condition with scipy.special.exp1.
Nothing here imports uncrel.
"""

from __future__ import annotations

import json
import math
import os

from inputs import key

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(perturb: bool = False) -> dict:
    """reference.json as floats; `perturb` scales every value by 1 + 1e-6 so
    the self-test can see the correctness checks fail."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    scale = 1.0 + 1e-6 if perturb else 1.0
    return {name: {k: float(v) * scale for k, v in table.items()}
            for name, table in raw.items() if isinstance(table, dict)}


def rel_err(value: float, expected: float) -> float:
    if expected == 0.0:
        return abs(value)
    return abs(value - expected) / abs(expected)


def _log_omega(d: int) -> float:
    return math.log(2.0) + (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0)


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def extremal_F_closed(d: int, alpha: float, k: float) -> float:
    """W_{1+k/d} of C (a^alpha - r^alpha)^(d/k) on r <= a with N = <r^alpha> = 1.

    With e = d/k: N = Omega C a^(d+alpha e) B(d/alpha, e+1) / alpha, the
    same with d/alpha + 1 for <r^alpha>, and W_m the same with C^m and e m.
    """
    e = d / k
    m = 1.0 + k / d
    log_a_alpha = _log_beta(d / alpha, e + 1.0) - _log_beta(d / alpha + 1.0, e + 1.0)
    log_a = log_a_alpha / alpha
    log_c = -(_log_omega(d) + (d + alpha * e) * log_a + _log_beta(d / alpha, e + 1.0)
              - math.log(alpha))
    return math.exp(_log_omega(d) + m * log_c + (d + alpha * e * m) * log_a
                    + _log_beta(d / alpha, e * m + 1.0) - math.log(alpha))


def extremal_G_closed(d: int, alpha: float, k: float) -> float:
    """W_{1+k/d} of C (a^alpha + r^alpha)^(-t) on [0, inf), t = -d/k, N = <r^alpha> = 1.

    int_0^inf r^(d-1) (a^alpha + r^alpha)^(-t) dr = a^(d - alpha t) B(d/alpha, t - d/alpha) / alpha.
    """
    t = -d / k
    m = 1.0 + k / d
    b0 = _log_beta(d / alpha, t - d / alpha)
    log_a = (b0 - _log_beta(d / alpha + 1.0, t - d / alpha - 1.0)) / alpha
    log_c = -(_log_omega(d) + (d - alpha * t) * log_a + b0 - math.log(alpha))
    return math.exp(_log_omega(d) + m * log_c + (d - alpha * t * m) * log_a
                    + _log_beta(d / alpha, t * m - d / alpha) - math.log(alpha))


def daubechies_B(d: int, k: float) -> float:
    """B(d, k), rho = d/k, from the stationarity condition of
    -rho log a - log(e^-a - a E1(a)), which reads x(a) = rho / (1 + rho)
    with x(a) = a e^a E1(a) increasing from 0 to 1.  Scaling by e^a keeps
    every term finite for rho up to several hundred.
    """
    from scipy import optimize, special

    rho = d / k

    def x(a):
        return a * math.exp(a) * special.exp1(a)

    a = optimize.brentq(lambda a: x(a) - rho / (1.0 + rho), 1e-12, min(2.0 * rho + 8.0, 700.0),
                        xtol=1e-300, rtol=1e-15, maxiter=400)
    log_inner = -a + math.log1p(-x(a))
    return math.exp(-(math.lgamma(rho) - rho * math.log(a) - log_inner) / rho)


def ho1d_second(N: int, q: int) -> float:
    """Total <x^2> = <p^2> = sum over filled levels of w (n + 1/2)."""
    total, left, level = 0.0, N, 0
    while left > 0:
        w = min(q, left)
        total += w * (level + 0.5)
        left -= w
        level += 1
    return total


def zumbach_C(d: int) -> float:
    return (4.0 * math.pi) ** 2 * 5.0 * d * d / (d + 2.0) * (2.0 / (d + 2.0)) ** (2.0 / d)


def hydrogenic_fisher(Z: float) -> tuple[float, float]:
    """Position 4 Z^2 (rho' / rho = -2Z) and momentum
    (1024 / pi) B(5/2, 7/2) / Z^2 = 12 / Z^2."""
    return 4.0 * Z * Z, 1024.0 / math.pi * math.exp(_log_beta(2.5, 3.5)) / (Z * Z)


def hydrogenic_moment(ref: dict, Z: float, space: str, order: float) -> float:
    return ref["hydrogenic"][key(int(Z), space, order)]


class Verdict:
    """Accumulates check outcomes and the largest relative error met."""

    def __init__(self):
        self.failures: list[str] = []
        self.max_rel_err = 0.0

    def close(self, what: str, value: float, expected: float, tol: float,
              functional: bool = False) -> None:
        """value within relative `tol` of expected; `functional` marks a
        moment or Fisher value, whose error enters max_rel_err."""
        err = rel_err(value, expected)
        if functional:
            self.max_rel_err = max(self.max_rel_err, err)
        if not err <= tol:
            self.failures.append(f"{what}: {value!r} vs {expected!r} (rel {err:.3g} > {tol:g})")

    def true(self, what: str, cond: bool) -> None:
        if not cond:
            self.failures.append(what)

    @property
    def correct(self) -> bool:
        return not self.failures
