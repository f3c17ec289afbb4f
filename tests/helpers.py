"""Densities built from others for the tests: one stripped of its closed
forms, so that the functionals integrate it, the unit-preserving
rescaling that is the oracle of scale invariance, and a small table."""

import dataclasses

import numpy as np

from uncrel.constants import SystemConfig
from uncrel.densities import DensityPair, RadialDensity, gaussian_pair, load_tabulated


def quadrature_only(dens: RadialDensity) -> RadialDensity:
    """Strip the closed form to force the quadrature path."""
    return dataclasses.replace(dens, exact=None)


def gaussian_table() -> RadialDensity:
    """The d = 3 unit Gaussian tabulated at 40 points on [0, 8]."""
    r = np.linspace(0.0, 8.0, 40)
    return load_tabulated(SystemConfig(d=3, N=1.0), r, gaussian_pair(3, 1.0).position.rho(r))


def scale_density(dens: RadialDensity, lam: float) -> RadialDensity:
    """rho_lam(r) = lam^d rho(lam r), with no closed form.

    Keeps the particle count; radial moments of order a pick up lam^-a,
    entropic moments of order m pick up lam^(d(m-1)), and the Fisher
    information picks up lam^2, each integrated from the rescaled rho.
    """
    d, f, df = dens.d, dens.rho, dens.drho

    def rho(r):
        return lam ** d * f(lam * np.asarray(r, dtype=float))

    def drho(r):
        value, slope = df(lam * np.asarray(r, dtype=float))
        return lam ** d * value, lam ** (d + 1) * slope

    support = None if dens.support is None else (dens.support[0] / lam, dens.support[1] / lam)
    cuts = dens.cuts / lam
    return dataclasses.replace(
        dens, rho=rho, drho=drho, cuts=cuts, exact=None, support=support,
        knots=None if dens.knots is None else cuts, label=f"{dens.label}*scale({lam})")


def scale_pair(pair: DensityPair, lam: float) -> DensityPair:
    """Conjugate rescaling: position stretched by lam, momentum by 1/lam."""
    return DensityPair(scale_density(pair.position, lam),
                       scale_density(pair.momentum, 1.0 / lam),
                       real_wavefunction=pair.real_wavefunction,
                       label=f"{pair.label}*scale({lam})")
