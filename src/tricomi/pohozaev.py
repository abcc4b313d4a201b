"""Boundary integrands of the dilation identity and the eigenfunction bound.

The identity equates 4*lambda*||u||^2 with line integrals of two integrands
omega1, omega2 over BC and sigma.  Both the general normal-based forms and
the curve-specific simplified forms are provided, together with arc-length
quadrature, the discrete residual of the identity, and the optimized-epsilon
bound check.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ConstantLedger, _g2_of, g1, ledger, optimize_epsilons
from .geometry import BoundaryCurve, TricomiDomain, _sigma_arc_element
from .report import VerificationReport

__all__ = [
    "BoundaryTrace",
    "BoundaryNormBundle",
    "omega1",
    "omega2",
    "omega1_BC_simplified",
    "omega2_BC_simplified",
    "omega1_sigma_simplified",
    "bc_trace",
    "sigma_trace",
    "line_integral",
    "norm_bundle_from_traces",
    "area_l2_norm_sq",
    "pohozaev_residual",
    "bound_check",
    "verify_integrand_equivalence",
    "verify_trace_inequalities",
]

_UNIT_NORMAL_TOL = 1e-10
# Cut-cell sub-sampling per axis in `area_l2_norm_sq`.
_SUBSAMPLES = 4


@dataclass
class BoundaryTrace:
    """Samples of (u, u_x, u_y) at quadrature nodes of one boundary curve.

    weights are quadrature weights in the parameter measure, so that
    integral of f ds ~= sum(f * arc * weights).  The fields u, ux, uy have
    the nodes on their last axis and may carry leading batch axes, one trace
    per index, all sharing params and weights.

    What no field changes is computed once, on construction: the node
    positions x, y and the arc element arc, read by `line_integral` and
    `norm_bundle_from_traces`, and on BC and sigma the coefficients coef of
    the simplified integrands, read by `_identity_integrals` (the public
    omega forms compute them with the same helpers).  On sigma g and h at
    the nodes are kept, as g (which is y) and h, and arc and coef come from
    them; elsewhere g and h are None, and on AC coef is too.  `bc_trace`
    and `sigma_trace` give zero fields; `filled` copies set them and share
    the nodes' geometry.
    """

    curve: BoundaryCurve
    params: np.ndarray
    weights: np.ndarray
    u: np.ndarray
    ux: np.ndarray
    uy: np.ndarray
    x: np.ndarray = field(init=False, repr=False, compare=False)
    y: np.ndarray = field(init=False, repr=False, compare=False)
    arc: np.ndarray = field(init=False, repr=False, compare=False)
    g: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    h: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    coef: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.params, dtype=float)
        a, b = self.curve.param_range
        if (np.diff(t) <= 0).any():
            raise ValueError("trace nodes must be strictly increasing")
        if t[0] < a - 1e-12 or t[-1] > b + 1e-12:
            raise ValueError("trace nodes outside the curve's parameter range")
        self._check_fields()
        if self.curve.kind == "Sigma":
            dom = self.curve.dom
            self.x = -t
            self.g, self.h = dom._g_and_h(self.x)
            self.y = self.g
            self.arc = _sigma_arc_element(dom, self.x, self.g, self.h)
            self.coef = _sigma_coefficients(dom, self.x, self.g, self.h)
        else:
            self.x, self.y = self.curve.position(self.params)
            self.arc = self.curve.arc_element(self.params)
            if self.curve.kind == "BC":
                self.coef = _bc_coefficients(self.y)

    def _check_fields(self):
        for name in ("u", "ux", "uy"):
            v = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(v).all():
                raise ValueError(f"non-finite values in trace field {name}")

    def filled(self, u=None, ux=None, uy=None) -> "BoundaryTrace":
        """A copy with new values for the fields given (None keeps this
        trace's), sharing its nodes and geometry instead of computing them
        again."""
        out = copy.copy(self)
        for name, v in (("u", u), ("ux", ux), ("uy", uy)):
            if v is not None:
                setattr(out, name, v)
        out._check_fields()
        return out


@dataclass(frozen=True)
class BoundaryNormBundle:
    """The boundary L2 norms entering the eigenfunction bound.

    w_ux denotes the weighted norm |||y|^(1/2) u_x||.  Each field is a
    float, or an array over the batch axes of batched traces.
    """

    u_L2_BC: float
    w_ux_L2_BC: float
    uy_L2_BC: float
    w_ux_L2_sigma: float
    uy_L2_sigma: float

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if not (np.isfinite(v) & (v >= 0)).all():
                raise ValueError(f"norm {name} must be finite and nonnegative")


# -- pointwise integrands ---------------------------------------------------

def _check_unit(normal):
    nx, ny = np.asarray(normal[0], dtype=float), np.asarray(normal[1], dtype=float)
    if np.any(np.abs(np.hypot(nx, ny) - 1.0) > _UNIT_NORMAL_TOL):
        raise ValueError("normal must be a unit vector")
    return nx, ny


def omega1(point, grad, normal):
    """General first integrand <2 Du (-y u_x, -u_y) + (y u_x^2 + u_y^2)(-3x, -2y), n>."""
    nx, ny = _check_unit(normal)
    x, y = np.asarray(point[0], dtype=float), np.asarray(point[1], dtype=float)
    ux, uy = np.asarray(grad[0], dtype=float), np.asarray(grad[1], dtype=float)
    du = -3.0 * x * ux - 2.0 * y * uy
    qx = 2.0 * du * (-y * ux) + (y * ux**2 + uy**2) * (-3.0 * x)
    qy = 2.0 * du * (-uy) + (y * ux**2 + uy**2) * (-2.0 * y)
    return qx * nx + qy * ny


def omega2(point, value, grad, normal, F_of_u):
    """General second integrand <-2 F(u) (-3x, -2y) - u (-y u_x, -u_y), n>."""
    nx, ny = _check_unit(normal)
    x, y = np.asarray(point[0], dtype=float), np.asarray(point[1], dtype=float)
    u = np.asarray(value, dtype=float)
    ux, uy = np.asarray(grad[0], dtype=float), np.asarray(grad[1], dtype=float)
    F = np.asarray(F_of_u, dtype=float)
    qx = -2.0 * F * (-3.0 * x) - u * (-y * ux)
    qy = -2.0 * F * (-2.0 * y) - u * (-uy)
    return qx * nx + qy * ny


def _bc_depth(y):
    """(y, -y) for the BC forms: y as a float array, which must be <= 0 up
    to 1e-12, and -y with a positive residue of y clamped to 0."""
    y = np.asarray(y, dtype=float)
    if np.any(y > 1e-12):
        raise ValueError("BC form needs y <= 0")
    return y, np.abs(np.minimum(y, 0.0))


def _bc_coefficients(y):
    """The BC forms' coefficients at ordinates y: (-y)^(1/2),
    4(-y)^(3/2)/(1-y)^(1/2) and -(-y)^(1/2)/(1-y)^(1/2)."""
    y, my = _bc_depth(y)
    root, dist = np.sqrt(my), np.sqrt(1.0 - y)
    return root, 4.0 * my**1.5 / dist, -root / dist


def _omega1_bc(coef, ux, uy):
    root, c1, _ = coef
    return c1 * (root * ux + uy) ** 2


def _omega2_bc(coef, u, ux, uy):
    root, _, c2 = coef
    return c2 * u * (root * ux + uy)


def _sigma_coefficients(dom: TricomiDomain, x, g, h):
    """The sigma form's coefficients at abscissae x from g = y and h there:
    G1 y, G2 y^(1/2) and G1, with G1 = g1/h and G2 = g2/h."""
    G1v = g1(dom, x) / h
    return G1v * g, _g2_of(dom.x0, x, g) / h * np.sqrt(g), G1v


def _omega1_sigma(coef, ux, uy):
    G1y, G2r, G1v = coef
    return G1y * ux**2 + G2r * ux * uy - G1v * uy**2


def omega1_BC_simplified(y, ux, uy):
    """On BC: 4(-y)^(3/2)(1-y)^(-1/2)[(-y)^(1/2) u_x + u_y]^2, a perfect square."""
    return _omega1_bc(_bc_coefficients(y), ux, uy)


def omega2_BC_simplified(y, u, ux, uy):
    """On BC: -(-y)^(1/2)(1-y)^(-1/2) u [(-y)^(1/2) u_x + u_y]."""
    return _omega2_bc(_bc_coefficients(y), u, ux, uy)


def omega1_sigma_simplified(x, ux, uy, dom: TricomiDomain):
    """On sigma with zero trace: G1 y u_x^2 + G2 y^(1/2) u_x u_y - G1 u_y^2."""
    x = np.asarray(x, dtype=float)
    return _omega1_sigma(_sigma_coefficients(dom, x, *dom._g_and_h(x)), ux, uy)


# -- quadrature -------------------------------------------------------------

def _zero_trace(curve: BoundaryCurve, params, weights) -> BoundaryTrace:
    """A trace on the given nodes with every field zero."""
    z = np.zeros(len(params))
    return BoundaryTrace(curve, params, weights, z, z, z)


def _bc_nodes(dom: TricomiDomain, n: int):
    """(curve, params, weights) of BC: trapezoid nodes uniform in y over
    [y_C, 0]."""
    w = np.full(n, (0.0 - dom.y_C) / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return dom.boundary_curve("BC"), np.linspace(dom.y_C, 0.0, n), w


def bc_trace(dom: TricomiDomain, n: int) -> BoundaryTrace:
    """Zero trace on trapezoid nodes uniform in y over [y_C, 0]."""
    return _zero_trace(*_bc_nodes(dom, n))


def _graded(s):
    # Quintic grading: endpoint distance ~ s^3, absorbing ds ~ dist^(-2/3).
    return s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


def _sigma_nodes(dom: TricomiDomain, n: int):
    """(curve, params, weights) of sigma: midpoint nodes graded toward both
    endpoints.

    The arc element (3/2) h / g^2 is singular like distance^(-2/3) at the
    endpoints; cubic grading of the node map restores algebraic convergence.
    """
    s = (np.arange(n) + 0.5) / n
    t = -2.0 * dom.x0 * _graded(s)          # parameter t = -x in (0, -2x0)
    dt_ds = -2.0 * dom.x0 * 30.0 * s**2 * (1.0 - s) ** 2
    return dom.boundary_curve("Sigma"), t, dt_ds / n


def sigma_trace(dom: TricomiDomain, n: int) -> BoundaryTrace:
    """Zero trace on midpoint nodes graded toward both endpoints of sigma."""
    return _zero_trace(*_sigma_nodes(dom, n))


def line_integral(trace: BoundaryTrace, values):
    """Composite quadrature of values * arc element over the trace nodes.

    values holds the integrand at the nodes, on its last axis (for example
    trace.u**2).  The sum runs over that axis: a float for a single trace,
    an array over the leading batch axes for a batched one.
    """
    if len(trace.params) < 3:
        raise ValueError("need at least 3 quadrature nodes")
    out = np.sum(values * trace.arc * trace.weights, axis=-1)
    return float(out) if out.ndim == 0 else out


def norm_bundle_from_traces(bc: BoundaryTrace, sigma: BoundaryTrace) -> BoundaryNormBundle:
    """Discrete boundary norms with the same quadrature as line_integral.

    Single traces give a float in every field; batched traces (all with the
    same batch axes) give arrays over those axes.  Overflow raises: in a
    squared field, an OverflowError naming it, the curve and x0.
    """

    def squared(trace, field):
        try:
            return getattr(trace, field.replace("_", "")) ** 2
        except FloatingPointError:
            raise OverflowError(f"{field}^2 on {trace.curve.kind} overflows a float "
                                f"at x0={trace.curve.dom.x0!r}") from None

    def norm(trace, values):
        return np.sqrt(np.maximum(line_integral(trace, values), 0.0))

    with np.errstate(over="raise"):
        norms = {
            "u_L2_BC": norm(bc, squared(bc, "u")),
            "w_ux_L2_BC": norm(bc, np.abs(bc.y) * squared(bc, "u_x")),
            "uy_L2_BC": norm(bc, squared(bc, "u_y")),
            "w_ux_L2_sigma": norm(sigma, np.abs(sigma.y) * squared(sigma, "u_x")),
            "uy_L2_sigma": norm(sigma, squared(sigma, "u_y")),
        }
    return BoundaryNormBundle(**{name: float(v) if np.ndim(v) == 0 else v
                                 for name, v in norms.items()})


def area_l2_norm_sq(grid, U: np.ndarray) -> float:
    """||U||^2 over Omega by midpoint rule with sub-sampled cut-cell fractions.

    U is nodal on the eigensolver `Grid` grid, shape (nx, ny); cell values
    are corner averages, cut cells are weighted by the fraction of a 4 x 4
    stencil of sub-cell midpoints lying inside grid.dom (`contains`).

    Omega is convex (sigma bounds the hypograph of the concave g, AC and BC
    convex sets, joined with C^1 tangents at A and B): a cell with four inside
    corners (grid.inside) lies inside, and one with no inside corner in its
    3 x 3 neighbourhood outside.  Only the cells between are sub-sampled.
    """
    xs, ys, c = grid.xs, grid.ys, grid.inside
    U = np.asarray(U, dtype=float)
    dx = np.diff(xs)
    dy = np.diff(ys)
    cell_val = 0.25 * (U[:-1, :-1] + U[1:, :-1] + U[:-1, 1:] + U[1:, 1:])

    inside = c[:-1, :-1] & c[1:, :-1] & c[:-1, 1:] & c[1:, 1:]
    p = np.pad(c, 1)    # near: an inside corner among the 4 x 4 around a cell
    near = p[:-3] | p[1:-2] | p[2:-1] | p[3:]
    near = near[:, :-3] | near[:, 1:-2] | near[:, 2:-1] | near[:, 3:]
    frac = inside.astype(float)
    i, j = np.nonzero(near & ~inside)
    off = (np.arange(_SUBSAMPLES) + 0.5) / _SUBSAMPLES
    sub_x = xs[i, None, None] + off[:, None] * dx[i, None, None]
    sub_y = ys[j, None, None] + off * dy[j, None, None]
    sub = grid.dom.contains((sub_x, sub_y))
    frac[i, j] = np.count_nonzero(sub, axis=(1, 2)) / (_SUBSAMPLES * _SUBSAMPLES)
    area = dx[:, None] * dy[None, :]
    return float(np.sum(cell_val**2 * frac * area))


# -- identity and bound checks ---------------------------------------------

def _identity_integrals(bc: BoundaryTrace, sg: BoundaryTrace):
    """int_BC omega1 ds, int_BC omega2 ds and int_sigma omega1 ds, each a
    float for single traces and an array over the batch axes for batched
    ones, from the coefficients the traces hold; the sigma form takes the
    zero Dirichlet trace on sg's domain."""
    return (line_integral(bc, _omega1_bc(bc.coef, bc.ux, bc.uy)),
            line_integral(bc, _omega2_bc(bc.coef, bc.u, bc.ux, bc.uy)),
            line_integral(sg, _omega1_sigma(sg.coef, sg.ux, sg.uy)))


def pohozaev_residual(lam: float, traces: dict) -> dict:
    """Discrete residual of 4 lambda ||u||^2 = int_BC(w1+w2) ds + int_sigma w1 ds.

    lam is the eigenvalue of a unit-L2(Omega) pair, so the left side is
    4 lambda; traces are its {'BC', 'Sigma'} traces from `trace_norms`.
    """
    if lam <= 0.0:
        raise ValueError("identity check needs a positive eigenvalue")
    lhs = 4.0 * lam
    w1_bc, w2_bc, rhs_sigma = _identity_integrals(traces["BC"], traces["Sigma"])
    rhs_bc = w1_bc + w2_bc
    rhs = rhs_bc + rhs_sigma
    return {
        "lhs": lhs,
        "rhs_BC": rhs_bc,
        "rhs_sigma": rhs_sigma,
        "relative_residual": abs(lhs - rhs) / max(lhs, 1e-300),
    }


def bound_check(lam: float, norms: BoundaryNormBundle, led: ConstantLedger,
                rel_tol: float = 1e-2) -> dict:
    """Check 2 sqrt(lambda) ||u|| against the optimized right-hand side;
    lam is the eigenvalue of a unit-L2(Omega) pair, so the left side is
    2 sqrt(lambda)."""
    lhs = 2.0 * math.sqrt(lam)
    eps1, eps2, rhs = optimize_epsilons(norms, led)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "eps1": eps1,
        "eps2": eps2,
        "satisfied": lhs <= rhs * (1.0 + rel_tol),
    }


# -- randomized property checks ---------------------------------------------

def verify_trace_inequalities(x0: float, n_traces: int = 1000, seed: int = 0,
                              n_nodes: int = 64) -> VerificationReport:
    """The three quadrature estimates over random trace bundles.

    For every random trace and every epsilon in {0.5, 1, 2}, all three
    margins must be >= -1e-10 (they are exact pointwise/Cauchy-Schwarz
    consequences when both sides share the quadrature weights):
      int_BC omega2 <= C3 ||u|| (||w u_x|| + ||u_y||),
      int_BC omega1 <= C1(eps) ||w u_x||^2 + C2(eps) ||u_y||^2,
      int_sigma omega1 <= C14(eps) ||w u_x||^2 + C15(eps) ||u_y||^2
    (sigma traces have zero u).  All bundles are evaluated at once as
    batched traces on one BC and one sigma quadrature, with the norms and
    identity integrals of the bound (`norm_bundle_from_traces`).
    """
    if n_traces < 1:
        raise ValueError("need at least 1 random trace bundle")
    dom = TricomiDomain(x0)
    led = ledger(x0)
    rng = np.random.default_rng(seed)
    tol = 1e-10
    # Bundle k holds uniform (u, ux, uy) in [-1, 1] on BC, then on sigma;
    # the sigma u values are drawn to keep that order and then unused.
    draws = rng.uniform(-1.0, 1.0, (n_traces, 2, 3, n_nodes))
    bc = BoundaryTrace(*_bc_nodes(dom, n_nodes), draws[:, 0, 0], draws[:, 0, 1], draws[:, 0, 2])
    sg = BoundaryTrace(*_sigma_nodes(dom, n_nodes), np.zeros(n_nodes),
                       draws[:, 1, 1], draws[:, 1, 2])
    nb = norm_bundle_from_traces(bc, sg)
    w1_bc, w2_bc, w1_sg = _identity_integrals(bc, sg)

    names = ["bc_omega2"]
    margins = [led.C3 * nb.u_L2_BC * (nb.w_ux_L2_BC + nb.uy_L2_BC) - w2_bc]
    for eps in (0.5, 1.0, 2.0):
        names += [f"bc_omega1_eps{eps:g}", f"sigma_omega1_eps{eps:g}"]
        margins += [led.C1(eps) * nb.w_ux_L2_BC**2 + led.C2(eps) * nb.uy_L2_BC**2 - w1_bc,
                    led.C14(eps) * nb.w_ux_L2_sigma**2
                    + led.C15(eps) * nb.uy_L2_sigma**2 - w1_sg]
    margins = np.stack(margins, axis=1)
    # argmin of the row-major flattening: the first worst margin in draw order.
    k, c = divmod(int(np.argmin(margins)), len(names))
    worst = float(margins[k, c])
    return VerificationReport(
        claim_id="trace_inequalities",
        x0=x0,
        grid_size=n_traces * n_nodes,
        worst_margin=worst,
        worst_location=x0,
        passed=worst >= -tol,
        notes=f"tolerance={tol:g}; worst: {names[c]} at draw {k}",
    )


def verify_integrand_equivalence(x0: float, n_states: int = 1000,
                                 seed: int = 0) -> VerificationReport:
    """General normal-based integrands versus the curve-specific forms.

    Checks, over random states per curve: omega1 on BC against its perfect
    square form (and its nonnegativity); omega2 on BC against its form with
    an arbitrary F value (the dilation field is tangent to BC, so F drops
    out); omega1 on sigma with zero trace against the G1/G2 form.  The
    agreement tolerance is 1e-12 * max(1, |x0|^(2/3)) relative to the
    state's magnitude: the general forms add terms as large as |y_C| ~
    |x0|^(2/3) that cancel (on BC, the F terms), so their rounding error
    grows with it.  Past |x0| ~ 1e18 the tolerance exceeds 1.
    """
    if n_states < 1:
        raise ValueError("need at least 1 random state per curve")
    dom = TricomiDomain(x0)
    rng = np.random.default_rng(seed)
    tol = 1e-12 * max(1.0, abs(x0) ** (2.0 / 3.0))
    bc = dom.boundary_curve("BC")
    sg = dom.boundary_curve("Sigma")
    checks = []   # (margin, location, name), one per check

    def agree(name, gen, simp, x):
        scale = np.maximum(1.0, np.abs(simp))
        err = np.abs(gen - simp) / scale
        i = int(np.argmax(err))
        checks.append((tol - err[i], float(x[i]), name))

    # BC states: interior parameters, random value/gradient/F.
    a, b = bc.param_range
    t = a + (b - a) * rng.uniform(0.05, 0.95, n_states)
    u, ux, uy, F = rng.uniform(-1.0, 1.0, (4, n_states))
    x, y = bc.position(t)
    n_vec = bc.normal(t)
    w1_simp = omega1_BC_simplified(y, ux, uy)
    agree("omega1_BC", omega1((x, y), (ux, uy), n_vec), w1_simp, x)
    i = int(np.argmin(w1_simp))
    checks.append((tol - max(-float(w1_simp[i]), 0.0), float(x[i]), "omega1_BC_nonneg"))
    agree("omega2_BC", omega2((x, y), u, (ux, uy), n_vec, F),
          omega2_BC_simplified(y, u, ux, uy), x)

    # Sigma states: zero trace, random gradient.
    a, b = sg.param_range
    t = a + (b - a) * rng.uniform(0.05, 0.95, n_states)
    ux, uy = rng.uniform(-1.0, 1.0, (2, n_states))
    x, y = sg.position(t)
    agree("omega1_sigma", omega1((x, y), (ux, uy), sg.normal(t)),
          omega1_sigma_simplified(x, ux, uy, dom), x)

    # min keeps the first of equal margins, in check order.
    worst, worst_loc, worst_note = min(checks, key=lambda c: c[0])
    return VerificationReport(
        claim_id="integrand_equivalence",
        x0=x0,
        grid_size=2 * n_states,
        worst_margin=worst,
        worst_location=worst_loc,
        passed=worst >= 0.0,
        notes=f"tolerance={tol:g}; worst: {worst_note}",
    )
