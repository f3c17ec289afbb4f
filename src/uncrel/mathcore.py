"""Shared numerical substrate.

Special functions, quadrature on finite intervals and on the half line,
one-dimensional minimization and root finding, and monotone cubic
interpolation of tabulated data.  Everything here is a pure function of
its inputs and safe to call concurrently.

Quadrature is one globally adaptive Gauss-Kronrod 21/10 routine: every
refinement sweep evaluates all nodes of all new panels in a single call
of the integrand, so integrands take and return numpy arrays.  The half
line is a uniform head up to QuadratureSpec.tail_cut plus a geometric
ladder of tail panels closed by a geometric-series remainder.  Tabulated
data use a fixed composite Gauss-Legendre rule per knot cell.

Minimization, root finding and interpolation are backed by Brent and
PCHIP as exposed through scipy.  The exponential integral E1 is computed
locally (power series for small argument, modified-Lentz continued
fraction for large argument) because it sits inside a minimization loop
and its accuracy budget is audited by the test suite against independent
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import interpolate, optimize

from .errors import BracketError, ConvergenceError, DomainError, FormatError, NonFiniteError

EULER_GAMMA = 0.5772156649015328606065120900824024

__all__ = [
    "QuadratureSpec",
    "MinimizeResult",
    "DEFAULT_QUADRATURE",
    "omega",
    "beta",
    "exp_e1",
    "exp_e1_scaled",
    "quad_halfline",
    "quad_finite",
    "gauss_cells",
    "minimize_scalar",
    "solve_root",
    "interpolate_monotone",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for adaptive quadrature.

    max_refinements is the number of panel bisections allowed;
    tail_cut is the radius beyond which the half line is covered by a
    geometric ladder of panels instead of uniform ones.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_refinements: int = 200
    tail_cut: float = 30.0

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be positive")
        if self.abs_tol < 0:
            raise DomainError("abs_tol must be non-negative")
        if self.max_refinements < 1:
            raise DomainError("max_refinements must be at least 1")
        if not self.tail_cut > 0:
            raise DomainError("tail_cut must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class MinimizeResult:
    argmin: float
    min_value: float
    iterations: int
    converged: bool


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


def _e1_continued_fraction(x: float) -> float:
    # e^x E1(x) = 1 / (x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(...)))), modified Lentz
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
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


def exp_e1(x: float) -> float:
    """Exponential integral E1(x) for x > 0.

    Power series below x = 1, continued fraction above; both branches
    agree with direct quadrature of the defining integral to ~1e-14.
    """
    if x <= 0:
        raise DomainError(f"exp_e1 requires x > 0, got {x}")
    if x > 700.0:
        return 0.0
    return _e1_series(x) if x <= 1.0 else _e1_continued_fraction(x) * math.exp(-x)


def exp_e1_scaled(x: float) -> float:
    """e^x E1(x) for x > 0, finite where E1(x) itself underflows."""
    if x <= 0:
        raise DomainError(f"exp_e1_scaled requires x > 0, got {x}")
    return math.exp(x) * _e1_series(x) if x <= 1.0 else _e1_continued_fraction(x)


# Gauss-Kronrod 21/10 pair on [-1, 1] (Piessens et al., 1983): the 11
# non-negative Kronrod abscissae, the Gauss abscissae being those at odd
# positions, and the two weight sets
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208411400917, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_X21 = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK21 = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG21 = np.zeros(21)
_WG21[1:10:2] = _WG
_WG21[19:10:-2] = _WG

# uniform panels a finite interval (or the head [0, tail_cut]) starts from
_START_PANELS = 16
# ladder rungs [c 2^j, c 2^(j+1)] of the first half-line sweep
_FIRST_RUNGS = 16
# the ladder closes once the geometric remainder is this share of the tolerance
_REMAINDER_SHARE = 0.1


def _gk21(f, lo: np.ndarray, hi: np.ndarray):
    """One Gauss-Kronrod 21/10 evaluation of every panel [lo_i, hi_i], all
    nodes in one call of f; returns (values, error estimates, node values)."""
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (hi + lo)[:, None] + half[:, None] * _X21
    vals = np.broadcast_to(np.asarray(f(nodes), dtype=float), nodes.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise NonFiniteError(f"integrand is not finite at r = {nodes[bad][0]!r}")
    resk = vals @ _WK21
    err = np.abs((resk - vals @ _WG21) * half)
    resasc = np.abs(vals - 0.5 * resk[:, None]) @ _WK21 * np.abs(half)
    resabs = np.abs(vals) @ _WK21 * np.abs(half)
    # the Kronrod-Gauss difference overstates the error of a resolved panel
    # and understates that of an unresolved one; rescale it against the
    # panel's mean absolute deviation, and floor it at rounding level
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc > 0) & (err > 0), scaled, err)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)
    return resk * half, err, vals


def _uniform_panels(edges, count: int) -> tuple[np.ndarray, np.ndarray]:
    cuts = np.concatenate([np.linspace(a, b, count + 1)[:-1]
                           for a, b in zip(edges[:-1], edges[1:])] + [edges[-1:]])
    return cuts[:-1], cuts[1:]


def _geometric_remainder(sums: np.ndarray) -> tuple[float, float]:
    """(remainder, ratio): the sum of the rungs past the last one, taking
    the ratio of the last two rung sums as constant; remainder 0 and the
    ratio as found when it is not in (0, 1)."""
    if sums.size < 2 or sums[-2] == 0.0:
        return 0.0, math.nan
    ratio = sums[-1] / sums[-2]
    if not 0.0 < ratio < 1.0:
        return 0.0, ratio
    return sums[-1] * ratio / (1.0 - ratio), ratio


def _adaptive_gk(f, edges, spec: QuadratureSpec, ladder_from: float | None = None):
    """Globally adaptive Gauss-Kronrod 21/10 quadrature over the panels
    between consecutive `edges`, and with ladder_from = c also over
    [c, inf) by the rungs [c 2^j, c 2^(j+1)].

    Each sweep evaluates all new panels in one call of f, then bisects
    the fewest worst panels whose removal would bring the summed error
    under half the tolerance.  The ladder grows until a rung meets an
    exactly zero integrand value (an underflowed tail), which drops that
    rung and the ones after it, or until the geometric remainder past
    the last rung is a small share of the tolerance; the remainder is
    added to the value and to the error.
    """
    new_lo, new_hi = _uniform_panels(np.asarray(edges, dtype=float), _START_PANELS)
    new_rung = np.full(new_lo.size, -1)  # -1: not a ladder rung
    lo = hi = val = err = np.empty(0)
    rung = np.empty(0, dtype=int)
    ladder_open = ladder_from is not None
    remainder, refinements, rungs, add = 0.0, 0, 0, 0
    if ladder_open:
        # the last rung ends below the largest float
        max_rungs = int(math.log2(np.finfo(float).max) - math.log2(ladder_from)) - 1
        add = min(_FIRST_RUNGS, max_rungs)
    while True:
        if add:
            j = np.arange(rungs, rungs + add)
            new_lo = np.concatenate([new_lo, ladder_from * 2.0 ** j])
            new_hi = np.concatenate([new_hi, ladder_from * 2.0 ** (j + 1)])
            new_rung = np.concatenate([new_rung, j])
            rungs += add
            add = 0
        v, e, fvals = _gk21(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        val, err = np.concatenate([val, v]), np.concatenate([err, e])
        rung = np.concatenate([rung, new_rung])
        if ladder_open:
            zero = new_rung[(new_rung >= 0) & np.any(fvals == 0.0, axis=1)]
            if zero.size:
                keep = rung < zero.min()
                lo, hi, val, err, rung = lo[keep], hi[keep], val[keep], err[keep], rung[keep]
            remainder, ratio = _geometric_remainder(
                np.bincount(rung[rung >= 0], weights=val[rung >= 0]))
            tol = max(spec.abs_tol, spec.rel_tol * abs(val.sum() + remainder))
            decaying = 0.0 < ratio < 1.0
            if zero.size or (decaying and abs(remainder) <= _REMAINDER_SHARE * tol):
                ladder_open = False
            else:
                # with a constant ratio, this many more rungs close the ladder
                want = (math.log(_REMAINDER_SHARE * tol / abs(remainder)) / math.log(ratio)
                        if decaying else _FIRST_RUNGS)
                add = math.ceil(min(want, max_rungs - rungs))
                if add <= 0:
                    if not decaying:
                        raise ConvergenceError(
                            f"integrand does not decay on [{ladder_from}, inf)")
                    ladder_open = False
        total = float(val.sum() + remainder)
        panel_err = float(err.sum())
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if panel_err <= tol and not ladder_open:
            return total, panel_err + abs(remainder)
        new_lo = new_hi = np.empty(0)
        new_rung = np.empty(0, dtype=int)
        if panel_err > tol:
            budget = spec.max_refinements - refinements
            if budget <= 0:
                raise ConvergenceError(
                    f"quadrature on [{edges[0]}, {'inf' if ladder_from else edges[-1]}] "
                    f"did not converge in {spec.max_refinements} refinements: "
                    f"error {panel_err:.3g} > tolerance {tol:.3g}")
            worst = np.argsort(err)[::-1]
            rest = panel_err - np.cumsum(err[worst])  # error left if the first i+1 were exact
            split = worst[:min(int(np.searchsorted(-rest, -0.5 * tol)) + 1, budget)]
            mid = 0.5 * (lo[split] + hi[split])
            new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
            new_rung = np.tile(rung[split], 2)
            keep = np.ones(lo.size, dtype=bool)
            keep[split] = False
            lo, hi, val, err, rung = lo[keep], hi[keep], val[keep], err[keep], rung[keep]
            refinements += split.size


def quad_finite(f: Callable, lo: float, hi: float,
                spec: QuadratureSpec | None = None,
                points: Sequence[float] | None = None) -> tuple[float, float]:
    """Adaptive quadrature of f over [lo, hi]; returns (value, error estimate).

    `points` are interior breakpoints (kinks, peaks) the initial panels
    start from.  f must accept numpy arrays.
    """
    spec = spec or DEFAULT_QUADRATURE
    if hi <= lo:
        return 0.0, 0.0
    inner = sorted(p for p in (points or ()) if lo < p < hi)
    return _adaptive_gk(f, [lo, *inner, hi], spec)


def quad_halfline(f: Callable, spec: QuadratureSpec | None = None) -> tuple[float, float]:
    """Adaptive quadrature of f over [0, inf); returns (value, error estimate).

    Uniform starting panels cover [0, spec.tail_cut]; beyond it a
    geometric ladder of panels carries the tail, and the remainder past
    the last rung is summed as a geometric series.  f must accept numpy
    arrays and be finite at every interior node; NaN or infinity raises
    NonFiniteError rather than propagating silently.
    """
    spec = spec or DEFAULT_QUADRATURE
    return _adaptive_gk(f, [0.0, spec.tail_cut], spec, ladder_from=spec.tail_cut)


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_cells(f, knots: np.ndarray, order: int = 12) -> float:
    """Composite Gauss-Legendre quadrature over consecutive cells of `knots`.

    Intended for integrands that are piecewise smooth between knots
    (monotone-cubic interpolants of tabulated data); `f` must accept
    numpy arrays.
    """
    if order not in _GAUSS_CACHE:
        _GAUSS_CACHE[order] = np.polynomial.legendre.leggauss(order)
    xg, wg = _GAUSS_CACHE[order]
    knots = np.asarray(knots, dtype=float)
    lo, hi = knots[:-1], knots[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * xg[None, :]
    vals = f(nodes)
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(vals)]
        raise NonFiniteError(f"integrand is not finite at r = {bad.ravel()[0]!r}")
    return float(np.sum(half[:, None] * wg[None, :] * vals))


def minimize_scalar(f: Callable[[float], float],
                    bracket: tuple[float, float],
                    rel_tol: float = 1e-12,
                    max_iter: int = 500) -> MinimizeResult:
    """Minimize a unimodal scalar function.

    The bracket is first scanned (geometrically when it spans decades,
    linearly otherwise) for an interior point beating both ends; the
    bracket is expanded geometrically when the scan minimum sits on an
    edge.  The refined minimum comes from Brent's method (golden section
    plus parabolic steps).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"empty bracket ({lo}, {hi})")

    for _ in range(40):
        if lo > 0 and hi / lo > 100.0:
            grid = np.geomspace(lo, hi, 96)
        else:
            grid = np.linspace(lo, hi, 96)
        vals = np.array([f(x) for x in grid])
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError("objective is not finite on the scan grid")
        i = int(np.argmin(vals))
        if 0 < i < len(grid) - 1:
            break
        # minimum on an edge: expand that side and rescan
        if i == 0:
            lo = lo / 4.0 if lo > 0 else lo - (hi - lo)
        else:
            hi = hi * 4.0 if hi > 0 else hi + (hi - lo)
    else:
        raise BracketError("no interior minimum detected after bracket expansion")

    try:
        res = optimize.minimize_scalar(
            f,
            bracket=(grid[i - 1], grid[i], grid[i + 1]),
            method="brent",
            options={"xtol": rel_tol, "maxiter": max_iter},
        )
    except ValueError:
        # flat scan neighborhood (ties around the minimum): golden section
        # on the bounded interval instead of a strict three-point bracket
        res = optimize.minimize_scalar(
            f,
            bounds=(grid[i - 1], grid[i + 1]),
            method="bounded",
            options={"xatol": rel_tol * max(1.0, abs(grid[i])), "maxiter": max_iter},
        )
    if not res.success:
        raise ConvergenceError(f"scalar minimization did not converge: {res.message}")
    return MinimizeResult(argmin=float(res.x), min_value=float(res.fun),
                          iterations=int(getattr(res, "nit", res.nfev)),
                          converged=bool(res.success))


def solve_root(f: Callable[[float], float],
               bracket: tuple[float, float],
               rel_tol: float = 1e-13) -> float:
    """Root of a continuous function changing sign over the bracket."""
    lo, hi = float(bracket[0]), float(bracket[1])
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f = ({flo}, {fhi})")
    return float(optimize.brentq(f, lo, hi, rtol=max(rel_tol, 4e-16), maxiter=200))


class MonotoneInterpolant:
    """C1 monotone-preserving cubic through the sample points.

    Reproduces the samples exactly, never overshoots below the data
    (non-negative data give a non-negative interpolant), and exposes
    the first derivative.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x = x
        self.y = y
        self._p = interpolate.PchipInterpolator(x, y, extrapolate=False)
        self._dp = self._p.derivative()

    def __call__(self, r):
        return self._p(r)

    def derivative(self, r):
        return self._dp(r)


def interpolate_monotone(x, y) -> MonotoneInterpolant:
    """Build a monotone cubic interpolant from an ordered (x, y) table."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise FormatError("interpolation table must be two equal-length 1-d columns")
    if x.size < 2:
        raise FormatError("interpolation table needs at least two samples")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise FormatError("interpolation table contains non-finite entries")
    if np.any(np.diff(x) <= 0):
        raise FormatError("abscissae must be strictly increasing without duplicates")
    if np.any(y < 0):
        raise FormatError("negative ordinate in density table")
    return MonotoneInterpolant(x, y)
