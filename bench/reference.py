"""Recompute bench/reference.json with mpmath at 30 significant digits.

Every value is coded here from its defining formula; uncrel is not
imported.  Run from the repository root:

    python3 bench/reference.py            # about 2 minutes

Contents:
  ho1d_fisher   I = 2 int_0^inf rho'^2 / rho dx for harmonic_fermions_1d(N, q=2)
  daubechies    B(d, k) = [Gamma(rho) min_a a^-rho / (e^-a - a E1(a))]^(-1/rho)
  table2        heisenberg_rhs(3, alpha, k, N=1, q=2) from the general formula
  hydrogenic    <r^a> = Gamma(a+3) / (2^(a+1) Z^a),
                <p^k> = 16 Z^k / pi * B((k+3)/2, (5-k)/2)
  gaussian      <r^a> = N (2 s^2)^(a/2) Gamma((a+d)/2) / Gamma(d/2), s^2 = a0^2
                (position) or 1 / (4 a0^2) (momentum); product N^2 d^2 / 4
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402

mp.mp.dps = 30
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def s(x) -> str:
    return mp.nstr(x, 25)


def ho1d_fisher(N: int, q: int) -> mp.mpf:
    occ, left, level = [], N, 0
    while left > 0:
        occ.append((level, min(q, left)))
        left -= min(q, left)
        level += 1
    top = occ[-1][0]

    def psis(x):
        out = [mp.pi ** mp.mpf(-0.25) * mp.exp(-x * x / 2)]
        if top >= 1:
            out.append(mp.sqrt(2) * x * out[0])
        for m in range(2, top + 1):
            out.append(mp.sqrt(mp.mpf(2) / m) * x * out[-1] - mp.sqrt(mp.mpf(m - 1) / m) * out[-2])
        return out

    def integrand(x):
        p = psis(x)
        rho = sum(w * p[n] ** 2 for n, w in occ)
        # d/dx psi_n = sqrt(2n) psi_{n-1} - x psi_n
        drho = sum(2 * w * p[n] * ((mp.sqrt(2 * n) * p[n - 1] if n else 0) - x * p[n])
                   for n, w in occ)
        return drho * drho / rho

    # the density is negligible (< e^-200) beyond x = 16 at these levels
    cuts = [mp.mpf(i) / 2 for i in range(0, 33)]
    return 2 * mp.quad(integrand, cuts)


def daubechies(rho: mp.mpf) -> mp.mpf:
    # stationarity of -rho log a - log(e^-a - a E1(a)):
    # x(a) = a e^a E1(a) = rho / (1 + rho), x increasing from 0 to 1
    def x(a):
        return a * mp.exp(a) * mp.e1(a)

    target = rho / (1 + rho)
    lo, hi = mp.mpf("1e-8"), mp.mpf(1)
    while x(hi) < target:
        hi *= 2
    a = mp.findroot(lambda a: x(a) - target, (lo, hi), solver="anderson")
    inner = mp.exp(-a) * (1 - x(a))
    return (mp.gamma(rho) * a ** (-rho) / inner) ** (-1 / rho)


def semiclassical(d, k):
    d, k = mp.mpf(d), mp.mpf(k)
    return d / (k + d) * (2 * mp.pi) ** k * mp.gamma(1 + d / 2) ** (k / d) / mp.pi ** (k / 2)


def entropic_lower(d, alpha, k):
    d, alpha, k = mp.mpf(d), mp.mpf(alpha), mp.mpf(k)
    m = 1 + k / d
    omega = 2 * mp.pi ** (d / 2) / mp.gamma(d / 2)
    head = m ** m * alpha ** (1 + 2 * k / d) * (omega * mp.beta(d / alpha, 2 + d / k)) ** (-k / d)
    tail = (k ** k / (m * alpha + k) ** (m * alpha + k)) ** (1 / alpha)
    return head * tail


def heisenberg_rhs(d, alpha, k, N, q):
    d, alpha, k = mp.mpf(d), mp.mpf(alpha), mp.mpf(k)
    return semiclassical(d, k) * entropic_lower(d, alpha, k) * mp.mpf(q) ** (-k / d) \
        * mp.mpf(N) ** (1 + k * (1 / alpha + 1 / d))


def hydrogenic_r(Z, a):
    a = mp.mpf(a)
    return mp.gamma(a + 3) / (2 ** (a + 1) * mp.mpf(Z) ** a)


def hydrogenic_p(Z, k):
    k = mp.mpf(k)
    return 16 * mp.mpf(Z) ** k / mp.pi * mp.beta((k + 3) / 2, (5 - k) / 2)


def gaussian_r(d, sigma2, N, a):
    a, d = mp.mpf(a), mp.mpf(d)
    return mp.mpf(N) * (2 * sigma2) ** (a / 2) * mp.gamma((a + d) / 2) / mp.gamma(d / 2)


def main() -> int:
    ref: dict = {"digits": mp.mp.dps}
    ref["ho1d_fisher"] = {str(n): s(ho1d_fisher(n, inputs.HO1D_Q)) for n in inputs.HO1D_NS}
    points = list(inputs.TABLE1_PUBLISHED) + list(inputs.DAUBECHIES_REFERENCE_POINTS)
    ref["daubechies"] = {inputs.key(d, float(k)): s(daubechies(mp.mpf(d) / mp.mpf(k)))
                         for d, k in points}
    ref["table2"] = {inputs.key(a, k): s(heisenberg_rhs(3, a, k, 1, 2)) for a, k in inputs.TABLE2_ORDERS}
    hyd = {}
    for Z in inputs.HYDROGENIC_ZS:
        for o in inputs.MOMENT_ORDERS:
            hyd[inputs.key(Z, "r", o)] = s(hydrogenic_r(Z, o))
            hyd[inputs.key(Z, "p", o)] = s(hydrogenic_p(Z, o))
    ref["hydrogenic"] = hyd
    gau, prod = {}, {}
    for d, a0, N in inputs.GAUSSIAN_PAIRS:
        a0m = mp.mpf(a0)
        for o in inputs.MOMENT_ORDERS:
            if o > -d:
                gau[inputs.key(d, a0, N, "r", o)] = s(gaussian_r(d, a0m ** 2, N, o))
                gau[inputs.key(d, a0, N, "p", o)] = s(gaussian_r(d, 1 / (4 * a0m ** 2), N, o))
        prod[inputs.key(d, a0, N)] = s(mp.mpf(N) ** 2 * d * d / 4)
    ref["gaussian"] = gau
    ref["gaussian_product"] = prod
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
