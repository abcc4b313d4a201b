"""Dense-grid verification of the shape of h and the bounds on G1, G2.

Checks are floating-point sweeps with margin tolerances, not certified
interval arithmetic.  The curvature numerator N of h is given in two forms,
expanded and factored; the inflection search uses the factored one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import X0_CRITICAL, ConstantLedger, _g2_of, g1, ledger
from .geometry import TricomiDomain
from .report import VerificationReport

__all__ = [
    "verify_h_profile",
    "verify_G1_bounds",
    "verify_G2_bounds",
    "verify_profiles",
    "find_inflection",
    "N_of_X",
    "N_of_X_alt",
]

# Grid margins are compared against 1e-10 relative to the sweep's scale.
_MARGIN_RTOL = 1e-10
# Dead band for second-divided-difference classification, scaled by x0^2.
_CURVATURE_TOL = 1e-8
# Sharpness of a bound is declared when the grid gap closes to this level.
_SHARP_TOL = 1e-6
# The checks compute and reduce their per-node margins a slice of at most
# this many nodes at a time: 64 KiB of float64, under glibc's 128 KiB mmap
# threshold, so a slice's temporaries reuse the heap pages the last slice
# freed.  glibc hands a whole-sweep temporary (800 KB at the default grid)
# back to the OS when it is freed, and the next call faults it in again.
_BLOCK = 8192


def _nodes(led: ConstantLedger, n: int):
    """The sorted sweep of [2x0, 0]: an n-point linspace plus the critical
    breakpoints of the ledger, and a mask that is True at the linspace
    nodes and False at the breakpoints inserted among them."""
    # The same array as np.union1d(linspace, breakpoints) without sorting the
    # already sorted linspace: insert the sorted breakpoints after their
    # equals, then drop each entry equal to its left neighbour.  So on a tie
    # the linspace entry stays, which decides the sign of a zero, and of
    # equal breakpoints the first in sorted order.  A linspace is
    # nondecreasing, and at a subnormal x0 it holds equal neighbours itself.
    # np.sort, not np.unique: np.unique imports numpy.ma, which a short
    # `verify` would otherwise load for nothing.
    x0 = led.x0
    extra = [2.0 * x0, x0, 1.5 * x0, 0.5 * x0, led.x1, led.x2, 0.0]
    if led.x_plus is not None:
        extra += [led.x_plus, led.x_minus]
    extra = np.sort(extra)
    xs = np.linspace(2.0 * x0, 0.0, n)
    at = np.searchsorted(xs, extra, side="right")
    xs = np.insert(xs, at, extra)
    on_linspace = np.insert(np.ones(n, dtype=bool), at, False)
    keep = np.concatenate(([True], xs[1:] != xs[:-1]))
    return np.clip(xs[keep], 2.0 * x0, 0.0), on_linspace[keep]


def _G_of_X(x0: float, X):
    prod = 9.0 * (x0 * x0 - np.asarray(X, dtype=float) ** 2) / 4.0
    return np.cbrt(np.clip(prod, 0.0, None))


def N_of_X(x0: float, X):
    """Curvature numerator of H, expanded form."""
    X = np.asarray(X, dtype=float)
    G = _G_of_X(x0, X)
    return (18.0 * X**4 - 8.0 * X**2 * G**4 + 12.0 * X**2 * G**3
            + 4.0 * G**6 - (16.0 / 3.0) * G**7)


def N_of_X_alt(x0: float, X):
    """Curvature numerator of H, factored form (independent cross-check)."""
    X = np.asarray(X, dtype=float)
    G = _G_of_X(x0, X)
    return (9.0 / 4.0) * (5.0 * X**4 - 6.0 * x0**2 * X**2 + 9.0 * x0**4
                          - 4.0 * (X**4 - 4.0 * x0**2 * X**2 + 3.0 * x0**4) * G)


def find_inflection(x0: float) -> float:
    """Inflection abscissa of h in (x0, x_plus), for x0 < -sqrt(3)/4.

    Solves N(X) = 0 by bisection to 1e-12 or to adjacent doubles; N is
    negative at X = 0 and positive at X_plus, and increasing in between.
    From |x0| ~ 5.3e65 on N overflows, which raises OverflowError.
    """
    if x0 >= X0_CRITICAL:
        raise ValueError("inflection point exists only for x0 < -sqrt(3)/4")
    X_plus = math.sqrt(x0 * x0 - 3.0 / 16.0)
    try:
        # An inf - inf from 9 x0^4 (a Python float) is the same overflow.
        with np.errstate(over="raise", invalid="raise"):
            n_lo = float(N_of_X_alt(x0, 0.0))
            n_hi = float(N_of_X_alt(x0, X_plus))
            if not (n_lo < 0.0 < n_hi):
                raise RuntimeError(
                    f"sign condition N(0) < 0 < N(X_plus) failed: {n_lo:g}, {n_hi:g}")
            lo, hi = 0.0, X_plus
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):   # past X = 8192 the doubles are 1.8e-12 apart
                    break
                if float(N_of_X_alt(x0, mid)) < 0.0:
                    lo = mid
                else:
                    hi = mid
    except FloatingPointError:
        raise OverflowError(
            f"the curvature numerator N(X) overflows a float at x0={x0!r}") from None
    return x0 + 0.5 * (lo + hi)


def _finish(claim_id, x0, grid, checks, notes_extra=""):
    """Fold named (margin, tol, location) triples into one report.

    A margin that is not finite, such as a second difference over a step
    whose square underflows, fails and ranks below every finite one."""
    worst_name, worst = None, math.inf
    worst_loc = x0
    passed = True
    parts = []
    for name, (margin, tol, loc) in checks.items():
        finite = math.isfinite(margin)
        if not (finite and margin >= -tol):
            passed = False
        rank = (margin / tol if tol > 0 else margin) if finite else -math.inf
        if rank < worst:
            worst, worst_name, worst_loc = rank, name, loc
        parts.append(f"{name}={margin:.3e}(tol={tol:.1e})")
    raw_margin = checks[worst_name][0]
    notes = "; ".join(parts)
    if notes_extra:
        notes += "; " + notes_extra
    return VerificationReport(
        claim_id=claim_id,
        x0=x0,
        grid_size=len(grid),
        worst_margin=float(raw_margin),
        worst_location=float(worst_loc),
        passed=passed,
        notes=f"worst={worst_name}; {notes}",
    )


@dataclass(frozen=True)
class _Sweep:
    """The dense sweep of one (x0, grid_size): the grid and g, h on it.

    The h-profile, G1 and G2 checks all read these arrays, so `verify all`
    sorts the grid and evaluates g and h once per x0 instead of once per
    check.  The arrays are read-only because the checks share them.

    `on_linspace` is True at the nodes of the linspace and False at the
    breakpoints that are not linspace nodes, so xs[on_linspace] is that
    linspace, in order."""

    grid_size: int
    dom: TricomiDomain
    led: ConstantLedger
    xs: np.ndarray
    g: np.ndarray
    h: np.ndarray
    on_linspace: np.ndarray


def _sweep(x0: float, grid_size: int) -> _Sweep:
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    dom = TricomiDomain(x0)
    led = ledger(x0)
    xs, on_linspace = _nodes(led, grid_size)
    arrays = (xs, *dom._g_and_h(xs), on_linspace)
    for a in arrays:
        a.flags.writeable = False
    return _Sweep(grid_size, dom, led, *arrays)


def _second_differences(sw: _Sweep):
    """Central second differences of h at step delta = |2x0|/(n - 1), the
    linspace's, at every sweep node more than 2 delta inside [2x0, 0].

    A linspace node reads h at its linspace neighbours from the sweep; only
    the inserted breakpoints evaluate h, at x - delta and x + delta.
    Returns the nodes, their second differences and delta."""
    xs, hx, lin = sw.xs, sw.h, sw.on_linspace
    x0 = sw.dom.x0
    delta = abs(2.0 * x0) / (sw.grid_size - 1)
    # xs is sorted, so the nodes more than 2 delta inside form one slice.
    lo, hi = (int(np.searchsorted(xs, 2.0 * x0 + 2.0 * delta, "right")),
              int(np.searchsorted(xs, -2.0 * delta, "left")))
    hl = hx[lin]
    diff = np.zeros(len(hl))  # the linspace's end nodes are never inside
    mid = diff[1:-1]
    np.multiply(hl[1:-1], -2.0, out=mid)  # (h[k-1] - 2 h[k]) + h[k+1], in place
    mid += hl[:-2]
    mid += hl[2:]
    d2 = np.zeros(len(xs))
    d2[lin] = diff
    at = np.flatnonzero(~lin[lo:hi]) + lo
    left, right = np.split(sw.dom.h(np.concatenate((xs[at] - delta, xs[at] + delta))), 2)
    d2[at] = left - 2.0 * hx[at] + right
    d2 = d2[lo:hi]
    d2 /= delta**2
    return xs[lo:hi], d2, delta


def _slices(n: int):
    """Consecutive slices of at most _BLOCK entries that cover range(n)."""
    return [slice(k, min(k + _BLOCK, n)) for k in range(0, n, _BLOCK)]


def _argmin(values, start: int):
    """np.argmin of one slice that begins at index `start` of its array:
    (the minimum, its index in the array)."""
    i = int(np.argmin(values))
    return values[i], start + i


def _first_min(parts):
    """(minimum, index) of np.argmin over a whole array, from its slices'
    `_argmin` pairs in order.  np.argmin over the slice minima picks the
    first slice holding the first NaN or else the smallest value, so the
    first index wins a tie, and of -0.0 and 0.0 the first keeps its sign."""
    k = int(np.argmin([value for value, _ in parts]))
    return float(parts[k][0]), parts[k][1]


def _curvature_ranges(nodes, xbar_m, xbar, guard):
    """Index ranges of the sorted nodes where the second family's h is
    convex, [0, head) and [tail, n), and where it is concave, [a, b): the
    convex nodes lie at least `guard` outside the inflections xbar_m and
    xbar, the concave ones at least `guard` inside them."""
    head = int(np.searchsorted(nodes, xbar_m - guard, "right"))
    tail = int(np.searchsorted(nodes, xbar + guard, "left"))
    a = int(np.searchsorted(nodes, xbar_m + guard, "left"))
    b = int(np.searchsorted(nodes, xbar - guard, "right"))
    return ((0, head), (tail, len(nodes))), (a, b)


def _h_profile(sw: _Sweep) -> VerificationReport:
    dom, led, xs, hx = sw.dom, sw.led, sw.xs, sw.h
    x0 = dom.x0
    checks, _, scale = _range_check(sw, lambda s: hx[s], *led.bounds("h"))
    uneven = [np.max(np.abs(hx[s] - dom.h(2.0 * x0 - xs[s]))) for s in _slices(len(xs))]
    checks["evenness"] = (-float(np.max(uneven)), 1e-12 * max(1.0, scale), x0)

    interior, d2, delta = _second_differences(sw)
    curv_tol = _CURVATURE_TOL * x0 * x0
    if x0 >= X0_CRITICAL:
        j = int(np.argmin(d2))
        checks["convexity"] = (float(d2[j]), curv_tol, float(interior[j]))
    else:
        xbar = find_inflection(x0)
        outer, (a, b) = _curvature_ranges(interior, 2.0 * x0 - xbar, xbar, 2.0 * delta)
        convex = [_argmin(d2[lo:hi], lo) for lo, hi in outer if lo < hi]
        if convex:
            value, j = _first_min(convex)
            checks["convex_outer"] = (value, curv_tol, float(interior[j]))
        if a < b:
            j = a + int(np.argmax(d2[a:b]))
            checks["concave_inner"] = (float(-d2[j]), curv_tol, float(interior[j]))
        checks["inflection_in_range"] = (
            min(xbar - x0, (led.x_plus - xbar) if led.x_plus else 0.0), 1e-12, xbar)

    return _finish("h_profile", x0, xs, checks)


def _range_check(sw: _Sweep, values, lower, upper, abs_bound=None):
    """lower <= v <= upper over the sweep, and |v| <= abs_bound if given,
    where values(s) gives v on the sweep's slice s.  Returns the named
    checks, notes on the gaps to each bound and max |v|."""
    peak, margins, lo_gaps, hi_gaps, abs_margins = [], [], [], [], []
    for s in _slices(len(sw.xs)):
        vals = values(s)
        peak.append(np.max(np.abs(vals)))
        lo_gap = vals - lower
        hi_gap = upper - vals
        margins.append(_argmin(np.minimum(lo_gap, hi_gap), s.start))
        lo_gaps.append(np.min(lo_gap))
        hi_gaps.append(np.min(hi_gap))
        if abs_bound is not None:
            abs_margins.append(_argmin(abs_bound - np.abs(vals), s.start))
    peak = float(np.max(peak))
    tol = _MARGIN_RTOL * max(1.0, peak)
    margin, i = _first_min(margins)
    checks = {"bounds": (margin, tol, float(sw.xs[i]))}
    if abs_bound is not None:
        margin, j = _first_min(abs_margins)
        checks["abs_bound"] = (margin, tol, float(sw.xs[j]))
    lo, hi = float(np.min(lo_gaps)), float(np.min(hi_gaps))
    notes = (f"lower_gap={lo:.3e}; upper_gap={hi:.3e}; "
             f"sharp_lower={lo <= _SHARP_TOL}; sharp_upper={hi <= _SHARP_TOL}")
    return checks, notes, peak


def _G1_bounds(sw: _Sweep) -> VerificationReport:
    dom, xs = sw.dom, sw.xs
    checks, notes, _ = _range_check(sw, lambda s: g1(dom, xs[s]) / sw.h[s],
                                    *sw.led.bounds("G1"))
    return _finish("G1_bounds", dom.x0, xs, checks, notes)


def _G2_bounds(sw: _Sweep) -> VerificationReport:
    dom, led, xs = sw.dom, sw.led, sw.xs
    checks, notes, _ = _range_check(sw, lambda s: _g2_of(dom.x0, xs[s], sw.g[s]) / sw.h[s],
                                    *led.bounds("G2"), abs_bound=led.C13)
    return _finish("G2_bounds", dom.x0, xs, checks, notes)


def verify_h_profile(x0: float, grid_size: int = 100_000) -> VerificationReport:
    """Bounds, evenness and convexity pattern of the normal-modulus h."""
    return _h_profile(_sweep(x0, grid_size))


def verify_G1_bounds(x0: float, grid_size: int = 100_000) -> VerificationReport:
    """Regime-correct two-sided bound on G1 = g1/h over [2x0, 0]."""
    return _G1_bounds(_sweep(x0, grid_size))


def verify_G2_bounds(x0: float, grid_size: int = 100_000) -> VerificationReport:
    """Two-sided bound on G2 = g2/h plus the symmetric bound |G2| <= C13."""
    return _G2_bounds(_sweep(x0, grid_size))


def verify_profiles(x0: float, grid_size: int = 100_000) -> list:
    """The h-profile, G1 and G2 reports, in that order, from one shared sweep.

    Equal to the three single calls, but builds the grid and evaluates g and
    h on it once."""
    sw = _sweep(x0, grid_size)
    return [_h_profile(sw), _G1_bounds(sw), _G2_bounds(sw)]
