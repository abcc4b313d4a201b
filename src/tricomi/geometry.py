"""Closed-form geometry of the normal Tricomi domain.

The domain is bounded by the two characteristics AC, BC of T = -y d_xx - d_yy
in the half-plane y <= 0 and by the normal elliptic arc sigma
(9(x - x0)^2 + 4y^3 = 9 x0^2) in y > 0, for a parameter x0 < 0.
Everything here is exact closed-form evaluation; no numerical integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .report import VerificationReport

__all__ = [
    "TricomiDomain",
    "BoundaryCurve",
    "verify_star_shaped",
    "reflected_membership",
]

# Absolute tolerance on each membership inequality (`TricomiDomain.contains`);
# boundary points count as inside (flow trajectories ride exactly along BC).
_MEMBERSHIP_TOL = 1e-12

# Abscissae at most this far outside [2x0, 0] are clipped onto it; farther ones raise.
_ENDPOINT_GUARD = 1e-12


def _libm_pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """Elementwise libm pow, equal bit for bit to a Python float power.

    numpy's float64 float_power loop calls C pow once per element, the same
    libm call a Python float power makes.  np.power is not used: its SIMD
    loop differs from libm in the last ulp on some inputs (about 5 % on an
    AVX-512 CPU), which would move pinned margins.  The membership slack,
    the cut-cell crossings and the AC and BC positions take their powers
    here, so their array and scalar evaluations agree bit for bit.  That does not
    make the pinned margins independent of the CPU: g and h, and the cut
    cells' crossings of sigma, use np.cbrt and np.hypot, whose SIMD loops
    numpy picks by the CPU's vector unit and which differ from libm in the
    last ulp on many inputs.  An overflow raises FloatingPointError (an
    ArithmeticError), as a Python float power raises OverflowError,
    whatever the caller's errstate."""
    with np.errstate(over="raise"):
        return np.float_power(base, exponent)


def _at(a: np.ndarray, mask: np.ndarray, f: Callable) -> np.ndarray:
    """f(a), with `a` broadcast to the shape of `mask`, at the points where
    `mask` holds.  f is elementwise and runs once on each entry of `a` that
    some such point meets, before `a` broadcasts."""
    if a.shape == mask.shape:     # each entry meets one point: no index arrays
        return f(a[mask])
    idx = np.broadcast_to(np.arange(a.size).reshape(a.shape), mask.shape)[mask]
    used = np.zeros(a.size, dtype=bool)
    used[idx] = True
    v = np.zeros(a.size)
    v[used] = f(a.ravel()[used])
    return v[idx]


@dataclass(frozen=True)
class TricomiDomain:
    """The normal Tricomi domain for a given abscissa parameter x0 < 0."""

    x0: float

    def __post_init__(self):
        if not (self.x0 < 0.0) or not math.isfinite(self.x0):
            raise ValueError(f"x0 must be a finite negative real, got {self.x0!r}")

    @property
    def y_C(self) -> float:
        """Ordinate of the vertex C, where AC and BC meet."""
        return -((3.0 * abs(self.x0) / 2.0) ** (2.0 / 3.0))

    # -- closed-form boundary functions -------------------------------------

    def _check_range(self, x):
        """x as a float array, required to lie in [2x0, 0] up to
        _ENDPOINT_GUARD and clipped onto it.  The bounds come from two
        NaN-skipping reductions, as the elementwise comparisons skip NaN.
        The clip leaves entries inside [2x0, 0] as they are, so it runs
        only when some entry lies outside."""
        x = np.asarray(x, dtype=float)
        lo, hi = 2.0 * self.x0, 0.0
        x_min = np.fmin.reduce(x, axis=None, initial=lo)
        x_max = np.fmax.reduce(x, axis=None, initial=hi)
        if x_min < lo - _ENDPOINT_GUARD or x_max > hi + _ENDPOINT_GUARD:
            raise ValueError(f"x outside [2*x0, 0] = [{lo}, {hi}]")
        if x_min < lo or x_max > hi:
            x = np.clip(x, lo, hi)
        return x

    def _g(self, x):
        """g at checked abscissae, [9x(2x0 - x)/4]^(1/3) computed in one
        buffer.  On [2x0, 0] both factors are non-positive, so the cube-root
        argument is never below zero; the clamp turns a -0.0 at either end
        into 0.0.  A 0-d x gives a 0-d array: the buffer comes from empty_like,
        since a ufunc on 0-d operands returns a numpy scalar, which cannot
        be written in place.  From |x0| about 1e154 the argument overflows:
        that raises OverflowError naming it and x0, whatever numpy's
        errstate."""
        try:
            with np.errstate(over="raise"):
                v = np.multiply(9.0, x, out=np.empty_like(x))
                v *= 2.0 * self.x0 - x
        except FloatingPointError:
            raise OverflowError("g's cube-root argument 9x(2x0 - x)/4 overflows "
                                f"a float at x0={self.x0!r}") from None
        v /= 4.0
        np.maximum(v, 0.0, out=v)
        return np.cbrt(v, out=v)

    def _h_from_g(self, x, g):
        """h at checked abscissae x from the array g = _g(x), computed in
        g's buffer: g is overwritten."""
        np.multiply(g, g, out=g)
        g *= 2.0 / 3.0
        return np.hypot(x - self.x0, g, out=g)

    def _g_and_h(self, x):
        """(g, h) at x as arrays, g evaluated once: equal bit for bit to
        g(x) and h(x)."""
        x = self._check_range(x)
        g = self._g(x)
        return g, self._h_from_g(x, g.copy())

    def g(self, x):
        """Height of the normal curve, [9x(2x0 - x)/4]^(1/3) on [2x0, 0]."""
        out = self._g(self._check_range(x))
        return float(out) if out.ndim == 0 else out

    def h(self, x):
        """Modulus of the non-normalized normal on sigma:
        {(x - x0)^2 + (4/9) g(x)^4}^(1/2), positive on all of [2x0, 0]."""
        x = self._check_range(x)
        out = self._h_from_g(x, self._g(x))
        return float(out) if out.ndim == 0 else out

    # -- membership ---------------------------------------------------------

    def membership_slack(self, p):
        """Signed slack of the defining inequalities at p (>= 0 means inside).

        For y >= 0 the binding constraint is the normal-curve inequality
        9(x - x0)^2 + 4y^3 <= 9 x0^2; for y_C <= y < 0 the point must lie
        between the two characteristics.  The value is the worst constraint
        margin, in the natural units of each inequality.

        p = (x, y) may hold scalars, giving a Python float, or coordinate
        arrays, giving an array of their broadcast shape.  The powers take
        one libm call per element in numpy's C loop (`_libm_pow`), so each
        array entry equals the scalar call bit for bit, and an overflowing
        power raises ArithmeticError.  They are taken on each operand before
        it broadcasts, and only where the point uses them: (x - x0)^2 at an x
        that meets some y >= 0, y^3 at y >= 0 and (-y)^(3/2) at y < 0.  So
        the tensor grid (xs[:, None], ys[None, :]) costs about len(xs) +
        len(ys) libm calls, not one or two per node.

        The domain's one membership predicate: `contains` compares it with
        the tolerance, `verify_star_shaped` takes it at the flow samples.
        """
        x = np.asarray(p[0], dtype=float)
        y = np.asarray(p[1], dtype=float)
        X, Y = np.broadcast_arrays(x, y)
        up = Y >= 0.0
        lo = ~up
        out = np.empty(X.shape)
        out[up] = 9.0 * self.x0**2 - (
            _at(x, up, lambda v: 9.0 * _libm_pow(v - self.x0, 2))
            + _at(y, up, lambda v: 4.0 * _libm_pow(v, 3)))
        c = _at(y, lo, lambda v: (2.0 / 3.0) * _libm_pow(-v, 1.5))
        xl = X[lo]
        out[lo] = np.minimum(np.minimum(xl - (2.0 * self.x0 + c), -c - xl),
                             Y[lo] - self.y_C)
        return float(out) if out.ndim == 0 else out

    def contains(self, p):
        """Whether p = (x, y) is in the closed domain, membership slack >= -1e-12:
        a bool, or a bool array of the broadcast shape of p's arrays."""
        return self.membership_slack(p) >= -_MEMBERSHIP_TOL

    def boundary_curve(self, kind: str) -> "BoundaryCurve":
        """Boundary piece 'AC', 'BC' or 'Sigma', counterclockwise oriented."""
        if kind == "AC":
            return _make_ac(self)
        if kind == "BC":
            return _make_bc(self)
        if kind == "Sigma":
            return _make_sigma(self)
        raise ValueError(f"unknown boundary kind {kind!r}")


@dataclass(frozen=True)
class BoundaryCurve:
    """A parametrized boundary piece of `dom` with arc element and unit
    outer normal, oriented counterclockwise (interior on the left)."""

    dom: TricomiDomain
    kind: str
    param_range: tuple[float, float]
    position: Callable
    normal: Callable
    arc_element: Callable

    def params(self, n: int):
        """n equispaced parameters over param_range, both ends included."""
        return np.linspace(*self.param_range, n)


def _make_ac(dom: TricomiDomain) -> BoundaryCurve:
    # Parameter t = -y in [0, -y_C]; runs from A down to C.

    def position(t):
        return (2.0 * dom.x0 + (2.0 / 3.0) * _libm_pow(t, 1.5), -t)

    def normal(t):
        s = 1.0 / np.sqrt(1.0 + t)
        return (-s, -np.sqrt(t) * s)

    def arc_element(t):
        return np.sqrt(1.0 + t)

    return BoundaryCurve(dom, "AC", (0.0, -dom.y_C), position, normal, arc_element)


def _make_bc(dom: TricomiDomain) -> BoundaryCurve:
    # Parameter t = y in [y_C, 0]; runs from C up to B.

    def position(t):
        return (-(2.0 / 3.0) * _libm_pow(-t, 1.5), t)

    def normal(t):
        s = 1.0 / np.sqrt(1.0 - t)
        return (s, -np.sqrt(-t) * s)

    def arc_element(t):
        return np.sqrt(1.0 - t)

    return BoundaryCurve(dom, "BC", (dom.y_C, 0.0), position, normal, arc_element)


def _make_sigma(dom: TricomiDomain) -> BoundaryCurve:
    # Parameter t = -x in [0, -2x0]; runs from B over the arc to A.

    def position(t):
        x = -np.asarray(t, dtype=float)
        return (x, dom.g(x))

    def normal(t):
        # Endpoint-safe form h(x)^(-1) (x - x0, (2/3) g(x)^2).
        x = -np.asarray(t, dtype=float)
        g, hx = dom._g_and_h(x)
        return ((x - dom.x0) / hx, (2.0 / 3.0) * g**2 / hx)

    def arc_element(t):
        x = -np.asarray(t, dtype=float)
        return _sigma_arc_element(dom, x, *dom._g_and_h(x))

    return BoundaryCurve(dom, "Sigma", (0.0, -2.0 * dom.x0), position, normal, arc_element)


def _sigma_arc_element(dom: TricomiDomain, x, g, h):
    """Sigma's arc element |r'| = (3/2) h / g^2 at abscissae x from the
    arrays g and h there, singular like distance^(-2/3) at the endpoints.
    A g^2 of 0 strictly inside (2x0, 0), where g > 0, has underflowed (g's
    cube-root argument or the square, at |x0| below about 1e-158): it
    raises OverflowError naming the square and x0, whatever numpy's
    errstate."""
    g2 = g**2
    if not g2.all() and ((g2 == 0.0) & (x < 0.0) & (x > 2.0 * dom.x0)).any():
        raise OverflowError(f"g^2 on Sigma underflows a float at x0={dom.x0!r}")
    return 1.5 * h / g2


def _boundary_arrays(dom: TricomiDomain, n: int):
    """x and y arrays of max(2, n // 3) equispaced points on each boundary
    piece, corners included: sigma, then AC, then BC."""
    n_piece = max(2, n // 3)
    xs, ys = zip(*(curve.position(curve.params(n_piece))
                   for curve in map(dom.boundary_curve, ("Sigma", "AC", "BC"))))
    return np.concatenate(xs), np.concatenate(ys)


def verify_star_shaped(
    dom: TricomiDomain,
    n_boundary: int = 200,
    n_times: int = 50,
    membership: Callable | None = None,
) -> VerificationReport:
    """Check that dilation-flow trajectories of boundary points stay inside.

    Samples max(2, n_boundary // 3) points on each boundary piece and
    n_times log-spaced flow times in [0, 10] plus the t = +inf limit, and
    records the worst membership slack; grid_size counts these samples.
    A different `membership` predicate turns this into a negative control
    (e.g. the x-reflected domain, which the flow of Omega exits).  The
    predicate is called once, with the (points, times) coordinate arrays
    (X, Y), and returns the slack array of that shape.
    """
    if n_boundary < 2 or n_times < 2:
        raise ValueError("need at least 2 boundary points and 2 flow times")
    slack_of = membership if membership is not None else dom.membership_slack
    times = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, n_times - 1), [math.inf]])
    xs, ys = _boundary_arrays(dom, n_boundary)
    # The dilation flow (x e^{-3t}, y e^{-2t}), one libm exp per time; the
    # t = inf limit is the origin.
    X = np.zeros((len(xs), len(times)))
    Y = np.zeros_like(X)
    X[:, :-1] = xs[:, None] * [math.exp(-3.0 * t) for t in times[:-1]]
    Y[:, :-1] = ys[:, None] * [math.exp(-2.0 * t) for t in times[:-1]]
    slack = np.asarray(slack_of((X, Y)))
    # C order is point-major, and argmin keeps the first of equal minima.
    i, j = divmod(int(np.argmin(slack)), len(times))
    worst = float(slack[i, j])
    p = (float(xs[i]), float(ys[i]))
    # The slack's rounding residue scales with its 9 x0^2 terms.  A float
    # power raises on overflow rather than giving an infinite tolerance.
    tol = 1e-10 * max(1.0, float(dom.x0) ** 2)
    return VerificationReport(
        claim_id="star_shaped",
        x0=dom.x0,
        grid_size=X.size,
        worst_margin=worst,
        worst_location=p[0],
        passed=worst >= -tol,
        notes=f"tolerance={tol:g}; worst point={p}, t={float(times[j]):g}",
    )


def reflected_membership(dom: TricomiDomain) -> Callable:
    """Membership slack of the x-reflected domain (negative-control helper)."""
    return lambda p: dom.membership_slack((-p[0], p[1]))
