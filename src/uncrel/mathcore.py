"""Shared numerical substrate.

Quadrature on finite intervals, on the half line and over the knot
cells of tabulated data, one-dimensional minimization, and monotone
cubic interpolation of tabulated data.  Everything here is a pure
function of its inputs and safe to call concurrently.

Quadrature is one globally adaptive Gauss-Kronrod 21/10 routine: every
refinement sweep evaluates all nodes of all new panels in a single call
of the integrand, so integrands take and return numpy arrays.  The node
array an integrand receives is read-only and new in every call: it
cannot change the nodes the rule reads, nor see a kept array change.
Panels are bisected, except that an end panel of the domain is graded the
first time refinement picks it: cut into 16 panels whose widths halve
towards the end.  Algebraic end singularities (fractional and negative
radial moments at r = 0, the edge of a compact extremal density) then
take a few sweeps instead of one bisection per sweep.  No cut comes
closer to a nonzero end than nodes can resolve there, so a singularity
too strong to integrate above that floor is a ConvergenceError.  The
caller gives the breakpoints of the first sweep: a finite interval's
(gauss_cells), or the half line's head [0, c] (quad_halfline), which a
geometric ladder of tail panels [c 2^j, c 2^(j+1)] continues, closed by
a geometric-series remainder; the caller places c where the integrand
has fallen off.

Minimization is Brent's method, a port of the loop of scipy's
Brent.optimize (scipy 1.17); monotone interpolation is PCHIP, a numpy
port of scipy's PchipInterpolator summed in the order of scipy's PPoly.
Both return scipy's bits on the same input (PCHIP inside its knots; it
is 0 outside them), and the test suite pins that against scipy.  None of
this imports scipy, which costs more start-up time than numpy and
everything here together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import (BracketError, ConvergenceError, FormatError, NonFiniteError,
                     check_positive)

__all__ = [
    "QuadratureSpec",
    "MinimizeResult",
    "DEFAULT_QUADRATURE",
    "quad_halfline",
    "quad_finite",
    "gauss_cells",
    "uniform_cuts",
    "minimize_scalar",
    "interpolate_monotone",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """The relative tolerance of adaptive quadrature; abs_tol is fixed at
    1e-14 and the budget at _MAX_REFINEMENTS panels (see _adaptive_gk).
    Where the panels start is the caller's: gauss_cells' knots,
    quad_halfline's head.
    """

    abs_tol: ClassVar[float] = 1e-14
    rel_tol: float = 1e-10

    def __post_init__(self):
        check_positive("rel_tol", self.rel_tol)


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class MinimizeResult:
    argmin: float
    min_value: float
    iterations: int
    converged: bool


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

# panels refinement may add to one quadrature: one per bisection, fifteen
# per graded end panel, so an end singularity needs 15 to be refined at all
_MAX_REFINEMENTS = 200
# uniform panels a finite interval (or the default head [0, 30]) starts from
_START_PANELS = 16
# ladder rungs [c 2^j, c 2^(j+1)] of the first half-line sweep
_FIRST_RUNGS = 16
# the ladder closes once the geometric remainder is this share of the tolerance
_REMAINDER_SHARE = 0.1
# an end panel chosen for refinement is graded: cut into _GRADE_PANELS
# panels of ratio 2 towards the end of the domain
_GRADE_PANELS = 16
# breakpoints of a graded end panel as shares of its width from that end:
# 0, 2^-15, 2^-14, ..., 1/2, 1
_GRADE_CUTS = np.concatenate([[0.0], np.ldexp(1.0, np.arange(1 - _GRADE_PANELS, 1))])
_EPS50 = 50.0 * np.finfo(float).eps
# the narrowest panel at an end E, as a share of |E|, whose outermost node
# lies two float spacings inside E: nodes of a narrower one round onto E
_END_FLOOR = 4.0 * np.finfo(float).eps / (1.0 - _XGK[0])
_LOG2_MAX = math.log2(np.finfo(float).max)
_NO_PANELS = np.empty(0)


def _gk21(f, lo: np.ndarray, hi: np.ndarray):
    """One Gauss-Kronrod 21/10 evaluation of every panel [lo_i, hi_i], all
    nodes in one call of f; returns (values, error estimates, node values)."""
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (hi + lo)[:, None] + half[:, None] * _X21
    nodes.flags.writeable = False  # f must not change the nodes read below
    vals = f(nodes)
    if type(vals) is not np.ndarray or vals.dtype != np.float64 or vals.shape != nodes.shape:
        vals = np.broadcast_to(np.asarray(vals, dtype=float), nodes.shape)
    if not np.isfinite(vals).all():
        raise NonFiniteError(f"integrand is not finite at r = {float(nodes[~np.isfinite(vals)][0])}")
    resk = vals @ _WK21
    err = np.abs((resk - vals @ _WG21) * half)
    resasc = np.abs(vals - 0.5 * resk[:, None]) @ _WK21 * half
    resabs = np.abs(vals) @ _WK21 * half
    # the Kronrod-Gauss difference overstates the error of a resolved panel
    # and understates that of an unresolved one; rescale it against the
    # panel's mean absolute deviation, and floor it at rounding level
    spread = resasc > 0
    ratio = 200.0 * err
    np.divide(ratio, resasc, out=ratio, where=spread)
    np.multiply(resasc, np.minimum(1.0, ratio ** 1.5), out=err, where=spread)
    return resk * half, np.maximum(err, _EPS50 * resabs), vals


def _geometric_remainder(sums: list) -> tuple[float, float]:
    """(remainder, ratio): the sum of the rungs past the last one, taking
    the ratio of the last two rung sums as constant; remainder 0 and the
    ratio as found when it is not in (0, 1)."""
    if len(sums) < 2 or sums[-2] == 0.0:
        return 0.0, math.nan
    ratio = sums[-1] / sums[-2]
    if not 0.0 < ratio < 1.0:
        return 0.0, ratio
    return sums[-1] * ratio / (1.0 - ratio), ratio


def _graded(lo: float, hi: float, at_lo: bool) -> np.ndarray:
    """Breakpoints cutting [lo, hi] into _GRADE_PANELS panels whose widths
    halve towards lo (at_lo) or towards hi, less the cuts closer to that
    end than _END_FLOOR |end|."""
    steps = (hi - lo) * _GRADE_CUTS
    steps = steps[(steps == 0.0) | (steps >= _END_FLOOR * abs(lo if at_lo else hi))]
    if at_lo:
        cuts = lo + steps
        cuts[-1] = hi
    else:
        cuts = hi - steps[::-1]
        cuts[0] = lo
    return cuts


def uniform_cuts(lo: float, hi: float, panels: int = _START_PANELS) -> np.ndarray:
    """np.linspace(lo, hi, panels + 1) bit for bit, without its generic set-up."""
    lo, hi = float(lo), float(hi)
    step = (hi - lo) / panels
    # where the step underflows, linspace forms (i / panels) (hi - lo)
    cuts = np.arange(panels + 1.0) * step if step else np.arange(panels + 1.0) / panels * (hi - lo)
    cuts += lo
    cuts[-1] = hi
    return cuts


def _adaptive_gk(f, cuts: np.ndarray, spec: QuadratureSpec, ladder_from: float | None = None):
    """Globally adaptive Gauss-Kronrod 21/10 quadrature over [cuts[0],
    cuts[-1]], starting from the panels between consecutive `cuts`, and
    with ladder_from = c also over [c, inf) by the rungs [c 2^j, c 2^(j+1)].
    A panel's rung is read off its left end (-1 below c), as bisection
    keeps both halves on their panel's rung; only a zero-width half on a
    rung's top edge, ~52 bisections deep, lands one rung up, and on the
    top rung the clip keeps it there.

    Each sweep evaluates all new panels in one call of f, then refines
    the fewest worst panels whose removal would bring the summed error
    under half the tolerance.  A panel at an end of the domain (cuts[0],
    and cuts[-1] without a ladder) is graded: cut into _GRADE_PANELS
    panels halving towards the end, so an algebraic endpoint singularity
    is resolved in a few sweeps instead of one bisection per sweep.  Cuts
    closer to a nonzero end E than _END_FLOOR |E| are left out, as the
    nodes of a narrower panel round onto E; an end panel with no cut left
    stays as it is, its error kept in the sum.  Interior panels and
    ladder rungs are only ever bisected.  _MAX_REFINEMENTS bounds the
    panels refinement adds: one per bisection, _GRADE_PANELS - 1 per
    graded end.

    The ladder grows until a rung meets an exactly zero integrand value
    (an underflowed tail), which drops that rung and the ones after it,
    or until the geometric remainder past the last rung is a small share
    of the tolerance; the remainder is added to the value and to the
    error.  The dropped rungs' absolute values and errors are added to the
    error only, so dropping them never moves the value.
    """
    ladder_open = ladder_from is not None
    # the last rung ends below the largest float
    max_rungs = int(_LOG2_MAX - math.log2(ladder_from)) - 1 if ladder_open else 0
    # the first sweep adds the first rungs as later sweeps add more
    rungs, add = 0, max(0, min(_FIRST_RUNGS, max_rungs))
    new_lo, new_hi = cuts[:-1], cuts[1:]
    # ends of the domain (a ladder has none)
    end_lo, end_hi = float(cuts[0]), (math.inf if ladder_open else float(cuts[-1]))
    # rows lo, hi, value, error of every panel, new panels last
    panels, keep = None, slice(None)
    remainder, dropped, refinements = 0.0, 0.0, 0
    while True:
        if ladder_open:
            # the rung edges c 2^j once this sweep's rungs are added; ldexp
            # scales exactly, where 2.0 ** j alone overflows past j = 1023
            edges = np.ldexp(ladder_from, np.arange(rungs + add + 1))
            if add:
                new_lo = np.concatenate((new_lo, edges[rungs:-1]))
                new_hi = np.concatenate((new_hi, edges[rungs + 1:]))
            rungs, add = rungs + add, 0
        v, e, fvals = _gk21(f, new_lo, new_hi)
        new = np.array((new_lo, new_hi, v, e))
        panels = new if panels is None else np.concatenate((panels[:, keep], new), axis=1)
        if ladder_open:
            # each panel's rung plus one: 0 on the head, and the top rung's
            # for a left end on or past the ladder's top edge
            count = edges[:-1].searchsorted(panels[0], side="right")
            zero = _NO_PANELS
            if not fvals.all():
                new_count = count[count.size - fvals.shape[0]:]
                zero = new_count[(new_count > 0) & (fvals == 0.0).any(axis=1)]
            if zero.size:
                kept = count < zero.min()
                dropped = float(np.sum(np.abs(panels[2][~kept]) + panels[3][~kept]))
                panels, count = panels[:, kept], count[kept]
            # the rung sums, each summed in panel order; bin 0 is the head's
            remainder, ratio = _geometric_remainder(
                np.bincount(count, weights=panels[2]).tolist()[1:])
        err = panels[3]
        total = float(panels[2].sum() + remainder)
        panel_err = float(err.sum())
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if ladder_open:
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
        if panel_err <= tol and not ladder_open:
            return total, panel_err + abs(remainder) + dropped
        new_lo, new_hi, keep = _NO_PANELS, _NO_PANELS, slice(None)
        if panel_err > tol:
            budget = max(_MAX_REFINEMENTS - refinements, 0)
            worst = err.argsort()[::-1]
            # the error left if the first i+1 were exact, negated: the
            # cumulative error less the total
            n = int((err[worst].cumsum() - panel_err).searchsorted(-0.5 * tol)) + 1
            split = worst[:min(n, budget)]
            s_lo, s_hi = panels[0][split], panels[1][split]
            lo_list, hi_list = s_lo.tolist(), s_hi.tolist()
            graded = []
            if end_lo in lo_list or end_hi in hi_list:
                # a graded end adds _GRADE_PANELS - 1 panels: refine the
                # worst panels whose added panels fit in the budget.  An end
                # panel too narrow for a cut outside the floor of its end
                # stays as it is, its error kept in the sum
                taken, bisected, added = [], [], 0
                for i, (a, b) in enumerate(zip(lo_list, hi_list)):
                    at_lo = a == end_lo
                    end = at_lo or b == end_hi
                    if end and not 0.5 * (b - a) >= _END_FLOOR * abs(a if at_lo else b):
                        continue
                    added += _GRADE_PANELS - 1 if end else 1
                    if added > budget:
                        break
                    taken.append(i)
                    if end:
                        graded.append(_graded(a, b, at_lo))
                    else:
                        bisected.append(i)
                split, s_lo, s_hi = split[taken], s_lo[bisected], s_hi[bisected]
            if split.size == 0:
                raise ConvergenceError(
                    f"quadrature on [{end_lo}, {end_hi}] "
                    f"did not converge in {_MAX_REFINEMENTS} refinements: "
                    f"error {panel_err:.3g} > tolerance {tol:.3g}")
            keep = np.ones(err.size, dtype=bool)
            keep[split] = False
            # one added panel per bisection, _GRADE_PANELS - 1 per graded end
            refinements += split.size + (_GRADE_PANELS - 2) * len(graded)
            mid = 0.5 * (s_lo + s_hi)
            new_lo = np.concatenate([s_lo, mid, *(c[:-1] for c in graded)])
            new_hi = np.concatenate([mid, s_hi, *(c[1:] for c in graded)])


def quad_finite(f: Callable, lo: float, hi: float,
                spec: QuadratureSpec | None = None) -> tuple[float, float]:
    """Adaptive quadrature of f over [lo, hi], starting from _START_PANELS
    uniform panels; returns (value, error estimate), (0, 0) unless lo < hi.

    f must accept numpy arrays, which it receives read-only.  No library
    caller is left, as densities state their cuts; it stays while the
    benchmark's layer trace wraps it by name and its contract test pins it.
    """
    if hi <= lo:
        return 0.0, 0.0
    return _adaptive_gk(f, uniform_cuts(lo, hi), spec or DEFAULT_QUADRATURE)


def quad_halfline(f: Callable, spec: QuadratureSpec | None = None,
                  head: np.ndarray | None = None) -> tuple[float, float]:
    """Adaptive quadrature of f over [0, inf); returns (value, error estimate).

    head holds the breakpoints of the first sweep's panels on [0, c], by
    default 16 uniform panels on [0, 30].  c = head[-1] is a finite
    positive radius by which f has fallen off; the first sweep adds 16
    rungs [c 2^j, c 2^(j+1)] of a geometric ladder that carries the tail,
    later sweeps add rungs until one meets a zero of f or the remainder
    past the last rung, summed as a geometric series, is negligible.  f
    must accept numpy arrays, which it receives read-only, and be finite
    at every interior node; NaN or infinity raises NonFiniteError rather
    than propagating silently.
    """
    head = uniform_cuts(0.0, 30.0) if head is None else np.asarray(head, dtype=float)
    end = float(head[-1])
    check_positive("head end", end)
    return _adaptive_gk(f, head, spec or DEFAULT_QUADRATURE, ladder_from=end)


def gauss_cells(f, knots: np.ndarray, spec: QuadratureSpec | None = None) -> tuple[float, float]:
    """Adaptive quadrature of f over [knots[0], knots[-1]] starting from one
    panel per knot cell; returns (value, error estimate).

    The cells are a compact density's cuts, which for tabulated data are
    the knots of the interpolant, smooth within a cell but not across it;
    f must accept numpy arrays, which it receives read-only.  The name
    stays because bench/layertrace.py traces it by name.
    """
    return _adaptive_gk(f, np.asarray(knots, dtype=float), spec or DEFAULT_QUADRATURE)


# constants of scipy's Brent.optimize
_BRENT_MINTOL = 1.0e-11
_BRENT_CG = 0.3819660


def _brent(f, xa, xb, xc, fb, tol: float, maxiter: int):
    """Brent's method from a bracket xa < xb < xc with f(xb) <= f(xa), f(xc);
    returns (x, f(x), iterations).

    A line-for-line port of the loop of scipy's Brent.optimize (scipy
    1.17), so it takes the same steps and returns the same bits.  Ties in
    the bracket are accepted: the loop never compares f(xa) or f(xc).
    """
    x = w = v = xb
    fw = fv = fx = fb
    a, b = xa, xc
    deltax = rat = 0.0
    it = 0
    while it < maxiter:
        tol1 = tol * abs(x) + _BRENT_MINTOL
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if abs(deltax) <= tol1:
            deltax = a - x if x >= xmid else b - x  # golden section step
            rat = _BRENT_CG * deltax
        else:  # parabolic step
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if (p > tmp2 * (a - x)) and (p < tmp2 * (b - x)) and \
                    (abs(p) < abs(0.5 * tmp2 * dx_temp)):
                rat = p * 1.0 / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                deltax = a - x if x >= xmid else b - x
                rat = _BRENT_CG * deltax
        if abs(rat) < tol1:  # move by at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = f(u)
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if (fu <= fw) or (w == x):
                v, w, fv, fw = w, u, fw, fu
            elif (fu <= fv) or (v == x) or (v == w):
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
        it += 1
    return x, fx, it


def minimize_scalar(f: Callable[[float], float],
                    bracket: tuple[float, float],
                    rel_tol: float = 1e-12,
                    max_iter: int = 500) -> MinimizeResult:
    """Minimize a unimodal scalar function.

    No caller in the library is left: the Daubechies factor, its last
    user, solves its stationarity equation instead.  It stays while the
    benchmark's layer trace wraps it by name and the benchmark contract
    test pins that name, and goes with the next change of the benchmark.

    The bracket is first scanned (geometrically when it spans decades,
    linearly otherwise) for an interior point beating both ends; the
    bracket is expanded geometrically when the scan minimum sits on an
    edge.  The refined minimum comes from Brent's method (golden section
    plus parabolic steps) started from the scan minimum and its two
    neighbours; f must be pure, as their scan values are reused.  f is
    called on Python floats throughout, never on numpy scalars, whose
    arithmetic is slower and would spread through f.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"empty bracket ({lo}, {hi})")

    for _ in range(40):
        if lo > 0 and hi / lo > 100.0:
            grid = np.geomspace(lo, hi, 96).tolist()
        else:
            grid = np.linspace(lo, hi, 96).tolist()
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

    x, fx, it = _brent(f, grid[i - 1], grid[i], grid[i + 1], float(vals[i]), rel_tol, max_iter)
    if it >= max_iter:
        raise ConvergenceError(f"scalar minimization did not converge in {max_iter} iterations")
    if math.isnan(x) or math.isnan(fx):
        raise ConvergenceError("scalar minimization reached a NaN")
    return MinimizeResult(argmin=float(x), min_value=float(fx), iterations=it, converged=True)


def _pchip_end_slope(h0, h1, m0, m1):
    # one-sided three-point slope, kept shape-preserving (Moler, pchiptx.m)
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class MonotoneInterpolant:
    """C1 monotone-preserving cubic (PCHIP) through the sample points, read
    as a density: interp(r) is the value, interp(r, True) the pair (value,
    derivative), both from one cell search.  Inside [x[0], x[-1]] they equal
    scipy's PchipInterpolator(extrapolate=False) and its .derivative() bit
    for bit (coefficients formed as CubicHermiteSpline forms them, summed in
    PPoly's order); outside they are 0, a NaN radius gives NaN, and the
    value is never below 0.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x = x
        with np.errstate(all="ignore"):  # out-of-range results are rejected below
            h = np.diff(x)
            m = np.diff(y) / h
            dk = np.empty_like(y)
            if x.size == 2:
                dk[:] = m[0]
            else:
                # interior slopes: weighted harmonic mean of the neighbouring
                # secants, zero at a local extremum or next to a flat cell; a
                # tiny secant makes whmean overflow to inf, i.e. a zero slope
                flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
                w1 = 2 * h[1:] + h[:-1]
                w2 = h[1:] + 2 * h[:-1]
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                dk[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
                dk[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
                dk[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
            # Hermite cubic per cell, row k the coefficient of (r - x_i)^k
            t = (dk[:-1] + dk[1:] - 2 * m) / h
            self._coef = np.array([y[:-1], dk[:-1], (m - dk[:-1]) / h - t, t / h])
            # k c_k, k = 1..3, are the slope's; an infinite secant leaves inf or NaN there
            if not np.isfinite(self._coef[1:] * 3.0).all():
                raise FormatError("table secants or cubic coefficients out of the double range")

    def __call__(self, r, slope: bool = False):
        r = np.asarray(r, dtype=float)
        x, c, shape, r = self.x, self._coef, r.shape, r.ravel()  # 1-d: sums written in place
        outside = (r < x[0]) | (r > x[-1])
        s = np.clip(r, x[0], x[-1])  # NaN stays NaN, in the last cell
        i = np.searchsorted(x[:-1], s, side="right") - 1
        s -= x[i]
        # PPoly's sums from +0, constant term first: v = sum c_k s^k, g = sum k c_k s^(k-1)
        v, g = c[0][i] + 0.0, np.zeros_like(s) if slope else None
        z, term = np.ones_like(s), np.empty_like(s)
        for k in (1, 2, 3):
            np.take(c[k], i, out=term, mode="clip")  # i is in range; "raise" would buffer a copy
            if slope:
                g += term * k * z
            z *= s
            term *= z
            v += term
        np.maximum(v, 0.0, out=v)
        v[outside] = 0.0
        if slope:
            g[outside] = 0.0
        return (v.reshape(shape)[()], g.reshape(shape)[()]) if slope else v.reshape(shape)[()]


def interpolate_monotone(x, y) -> MonotoneInterpolant:
    """Build a monotone cubic interpolant from an ordered (x, y) table; a
    FormatError where its secants or coefficients leave the double range."""
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
