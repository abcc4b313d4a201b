"""Finite-difference discretization of T = -y d_xx - d_yy on the normal
Tricomi domain, with homogeneous Dirichlet data on AC and sigma only.

The characteristic BC carries no datum: nodes adjacent to BC satisfy the
PDE itself through interior-biased one-sided second differences, so no
boundary rows are written there.  Next to AC and sigma the Dirichlet zero
sits at the closed-form crossing, theta in [1e-3, 1] of the arm away (an
unequal-arm difference).  The real, nonsymmetric operator's real spectrum
is extracted by shift-invert Arnoldi around a small positive shift.

`Dilation` maps a pair solved at x0 = -1, and its traces, to any x0.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import TricomiDomain, _libm_pow
from .pohozaev import (
    BoundaryNormBundle,
    BoundaryTrace,
    _bc_nodes,
    _sigma_nodes,
    area_l2_norm_sq,
    norm_bundle_from_traces,
)
from .report import csv_table

__all__ = [
    "Grid",
    "TricomiOperator",
    "EigenPair",
    "Dilation",
    "assemble",
    "solve_real_spectrum",
    "boundary_traces",
    "trace_norms",
    "field_csv",
]

_REAL_EIG_RTOL = 1e-8
# ARPACK stops once every Ritz estimate is at most this times |theta|
# (theta the Ritz value of the shift-inverted operator).  The LU solves that
# apply that operator leave relative residuals of 2e-14 to 4e-11 (x0 = -1/2,
# 64^2 to 320^2), so iterating below 1e-12 improves neither lambda nor the
# residual; tol=0 (machine epsilon) spends about a fifth more solves on it.
_RITZ_TOL = 1e-12
# `solve_real_spectrum(principal_only=True)`: the Ritz tolerance of its one
# pass.  A healthy principal pair is the Ritz value nearest the shift, and
# this pass converges it to a backward error |Av - lambda v| / (|A|_1 |v|)
# of at most 6.3e-17 (64^2 to 320^2, x0 in [-4, -0.05]).  A pick it leaves
# unconverged is a wrong mode, and its algebraic residual fails the callers'
# gate.
_PICK_TOL = 1e-4
# Weight of the fourth-difference damping in the hyperbolic half (`assemble`).
_STABILIZATION = 0.5
# Trace nodes per boundary curve, BC and sigma (`boundary_traces`).
_TRACE_NODES = 400


@dataclass(frozen=True)
class Grid:
    """Tensor node grid over a padded bounding box of the domain `dom`."""

    dom: TricomiDomain
    nx: int
    ny: int
    xs: np.ndarray
    ys: np.ndarray
    inside: np.ndarray      # (nx, ny) bool, node strictly usable as unknown

    @classmethod
    def build(cls, dom: TricomiDomain, nx: int, ny: int) -> "Grid":
        if nx < 32 or ny < 32:
            raise ValueError("grid must have at least 32 nodes per direction")
        y_top = dom.g(dom.x0)
        pad_x = 0.01 * abs(2.0 * dom.x0)
        pad_y = 0.01 * (y_top - dom.y_C)
        xs = np.linspace(2.0 * dom.x0 - pad_x, pad_x, nx)
        ys = np.linspace(dom.y_C - pad_y, y_top + pad_y, ny)
        inside = dom.contains((xs[:, None], ys[None, :]))
        # Resolution check along the parabolic diameter.
        if int(np.count_nonzero(inside[:, np.argmin(np.abs(ys))])) < 32:
            raise ValueError("grid under-resolves the parabolic diameter")
        return cls(dom=dom, nx=nx, ny=ny, xs=xs, ys=ys, inside=inside)

    @property
    def hx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    @property
    def hy(self) -> float:
        return float(self.ys[1] - self.ys[0])


@dataclass(frozen=True)
class TricomiOperator:
    """Assembled sparse operator restricted to the interior unknowns."""

    grid: Grid
    matrix: sp.csr_matrix
    nodes: np.ndarray        # (n_unknowns, 2) node (i, j)
    full_stencil: np.ndarray  # rows whose stencil is fully centered interior

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def to_vector(self, F: np.ndarray) -> np.ndarray:
        return F[self.nodes[:, 0], self.nodes[:, 1]]

    def to_field(self, v: np.ndarray) -> np.ndarray:
        F = np.zeros((self.grid.nx, self.grid.ny))
        F[self.nodes[:, 0], self.nodes[:, 1]] = v
        return F


_FRACTION_FLOOR = 1e-3


def _cut_fraction(dom: TricomiDomain, x: np.ndarray, y: np.ndarray,
                  axis: int, step: float) -> np.ndarray:
    """Fraction of the arm `step` along `axis` from nodes (x, y) to the
    Dirichlet crossing, from the closed forms of sigma and AC."""
    x0 = dom.x0
    if axis == 1:
        if step > 0.0:                             # upward into sigma
            y_b = np.cbrt(np.maximum(
                9.0 * (x0 * x0 - _libm_pow(x - x0, 2)) / 4.0, 0.0))
        else:                                      # downward into AC (x < x0)
            y_b = -_libm_pow(1.5 * np.maximum(x - 2.0 * x0, 0.0), 2.0 / 3.0)
        theta = (y_b - y) / step
    else:
        sigma = y >= 0.0                           # horizontal into sigma
        x_b = np.empty_like(x)                     # else leftward into AC
        half = np.sqrt(np.maximum(x0 * x0 - (4.0 / 9.0) * _libm_pow(y[sigma], 3), 0.0))
        x_b[sigma] = x0 + half if step > 0.0 else x0 - half
        x_b[~sigma] = dom.boundary_curve("AC").position(-y[~sigma])[0]
        theta = (x_b - x) / step
    return np.clip(theta, _FRACTION_FLOOR, 1.0)


def _stencil_entries(pidx: np.ndarray, P: np.ndarray, stride: int, slots):
    """COO (rows, cols, values) triples of one stencil stage.

    Each slot is (offset in nodes along the axis of `stride`, value,
    present) per unknown row, P the rows' flat positions in `pidx`.
    Entries are laid out slot by slot, so every row keeps its stencil order
    and repeated (row, col) pairs are summed in that order by the CSR
    conversion."""
    for off, val, present in slots:
        r = np.flatnonzero(present)
        o = np.broadcast_to(off, present.shape)[r]
        yield r, pidx[P[r] + o * stride], np.broadcast_to(val, present.shape)[r]


def assemble(grid: Grid) -> TricomiOperator:
    """Second-order differences for -y u_xx - u_yy on the grid's unknown nodes.

    Row r is -y u_xx - u_yy at its node (the x term is left out where
    |y| <= 1e-14).  Each axis takes one of these second differences:

    - centered, when both neighbours along the axis are unknowns;
    - unequal-arm, when every missing neighbour lies across AC or sigma:
      the Dirichlet zero sits at the closed-form crossing, a fraction
      theta in [1e-3, 1] of the arm away, and drops out of the row;
    - one-sided, when a missing neighbour lies across BC: the chain
      (i, i -/+ 1, i -/+ 2) pointing away from BC.  If that chain itself
      leaves the unknowns the row gets no term for that axis (on the
      square grids 64..320 that is the x term of at most one row, next
      to C).

    In the hyperbolic half the centered scheme admits a parasitic branch of
    grid-oscillatory modes (the matrix is similar, via an alternating-sign
    diagonal, to one whose Perron mode is an x-checkerboard); a fourth-
    difference term of size O(h^2) per direction damps that branch without
    changing the second-order interior consistency.  It is added in rows
    with y < 0, along each axis whose five-point stencil is all unknowns,
    with weight 0.5.
    """
    dom, hx, hy = grid.dom, grid.hx, grid.hy
    index = -np.ones((grid.nx, grid.ny), dtype=np.int64)
    nodes = np.argwhere(grid.inside)
    n = len(nodes)
    index[nodes[:, 0], nodes[:, 1]] = np.arange(n)
    x, y = grid.xs[nodes[:, 0]], grid.ys[nodes[:, 1]]

    # Flat positions in the grid padded by two nodes: every stencil offset
    # stays in range, and padded nodes are not unknowns.
    strides = (grid.ny + 4, 1)
    P = (nodes[:, 0] + 2) * strides[0] + nodes[:, 1] + 2
    pin = np.pad(grid.inside, 2).ravel()
    pidx = np.pad(index, 2, constant_values=-1).ravel()

    def unknown(axis, off):
        return pin[P + off * strides[axis]]

    entries = []
    full = np.ones(n, dtype=bool)
    never = np.zeros(n, dtype=bool)
    # Per axis: coefficient / h^2, the rows the term applies to, and whether
    # a missing (-, +) neighbour lies across BC rather than AC or sigma.
    # BC is crossed by rightward arms from rows with y < 0 and by downward
    # arms at x >= x0; every other missing arm crosses AC or sigma.
    for axis, inv, h, active, free_minus, free_plus in (
            (0, -y / hx**2, hx, np.abs(y) > 1e-14, never, y < 0.0),
            (1, np.full(n, -1.0 / hy**2), hy, ~never, x >= dom.x0, never)):
        ok_m, ok_p = unknown(axis, -1), unknown(axis, 1)
        centered = active & ok_m & ok_p
        full &= centered | ~active
        miss_m, miss_p = active & ~ok_m, active & ~ok_p
        free_p = miss_p & free_plus
        one_sided = (miss_m & free_minus) | free_p
        cut = active & ~centered & ~one_sided
        frac_m, frac_p = np.ones(n), np.ones(n)
        for frac, miss, sign in ((frac_m, miss_m, -1), (frac_p, miss_p, 1)):
            sel = cut & miss
            frac[sel] = _cut_fraction(dom, x[sel], y[sel], axis, sign * h)
        step = np.where(free_p, -1, 1)
        one_sided &= unknown(axis, step) & unknown(axis, 2 * step)
        span = frac_m + frac_p
        # Three slots per row: centered (i-1, i, i+1), unequal-arm
        # (i, i-1, i+1) without the missing neighbours, or one-sided
        # (i, i+step, i+2 step) with step pointing away from BC.
        entries.extend(_stencil_entries(pidx, P, strides[axis], (
            (np.where(centered, -1, 0),
             np.where(cut, -2.0 * inv / (frac_m * frac_p), inv),
             centered | cut | one_sided),
            (np.where(centered, 0, np.where(cut, -1, step)),
             np.where(cut, 2.0 * inv / (frac_m * span), -2.0 * inv),
             centered | (cut & ok_m) | one_sided),
            (np.where(one_sided, 2 * step, 1),
             np.where(cut, 2.0 * inv / (frac_p * span), inv),
             centered | (cut & ok_p) | one_sided))))

    d4 = ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0))
    for axis, c in ((0, _STABILIZATION * np.abs(y) / hx**2),
                    (1, _STABILIZATION / hy**2)):
        present = y < 0.0
        for k in (-2, -1, 1, 2):
            present &= unknown(axis, k)
        entries.extend(_stencil_entries(pidx, P, strides[axis],
                                        [(k, c * w, present) for k, w in d4]))

    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return TricomiOperator(grid=grid, matrix=A, nodes=nodes, full_stencil=full)


@dataclass(frozen=True)
class EigenPair:
    """A discrete eigenvalue with its eigenfunction on the grid it was solved
    on, normalized to unit L2(Omega) norm."""

    grid: Grid
    lam: float
    field: np.ndarray
    residual: float
    imag: float = 0.0


def _is_real(lam) -> bool:
    return not abs(lam.imag) > _REAL_EIG_RTOL * abs(lam)


def _real_pair(op: TricomiOperator, lam, v) -> EigenPair:
    """The pair (lam, v) with v turned real (its largest entry rotated onto
    the real axis), its algebraic residual |Av - Re(lam) v| / |v|, and v
    normalized to unit L2(Omega) norm with nonnegative mean."""
    v = np.real(v * np.exp(-1j * np.angle(v[np.argmax(np.abs(v))])))
    res = float(np.linalg.norm(op.matrix @ v - lam.real * v) / np.linalg.norm(v))
    F = op.to_field(v)
    nrm_sq = area_l2_norm_sq(op.grid, F)
    if nrm_sq > 0:
        F = F / math.sqrt(nrm_sq)
    if float(np.sum(F)) < 0.0:
        F = -F
    return EigenPair(grid=op.grid, lam=float(lam.real), field=F, residual=res,
                     imag=float(lam.imag))


def solve_real_spectrum(op: TricomiOperator, count: int, shift: float = 1e-3, *,
                        principal_only: bool = False):
    """Up to `count` smallest-magnitude eigenpairs via shift-invert Arnoldi.

    Returns (real_pairs, complex_diagnostics), each in order of |lambda|.
    Pairs whose imaginary part exceeds 1e-8 relative are reported in the
    diagnostics list and excluded from the real spectrum.  Each real pair is
    normalized to unit L2(Omega) norm with nonnegative mean and carries its
    algebraic residual.

    A - shift I is factored once with `splu`, to the LU that
    `eigs(A, sigma=shift)` would build, and one Arnoldi pass over `count`
    pairs runs on that LU from a fixed start vector.  By default the pass
    runs at the Ritz tolerance 1e-12 and returns exactly the eigenpairs of
    that `eigs` call.  ARPACK stops at 1e-12, not at machine epsilon: past
    it the LU solves' own relative residual bounds what the iteration can
    gain, and neither lambda nor the residual improves.  The callers certify
    residuals to 1e-8.

    With `principal_only`, real_pairs holds at most the principal pair (the
    real pair of smallest magnitude with lambda > 0), from the pass at the
    loose Ritz tolerance 1e-4, with its residual; if that pass has no
    positive real pair, none is returned.  By LP3/LP4 a healthy principal
    pair is the Ritz value nearest the shift, which this pass converges to
    rounding: 21 LU solves at 64^2, x0 = -1/2, instead of the default
    path's 58.  A pick it leaves unconverged is a wrong mode of the mesh
    (at 40^2, x0 = -1/2, the 4th Ritz value, lambda |x0|^(4/3) = 5.79
    against 2.50), and its residual, 9.5e-6 |lambda| there, fails the
    callers' gate.  Only the returned pairs are normalized.  Only a failed
    `splu` is reported as a failed factorization.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    k = min(count, op.n - 2)
    v0 = np.full(op.n, 1.0 / math.sqrt(op.n))  # fixed start vector: reproducible runs
    # A - shift I, with the shift taken off the stored diagonal (every row of
    # `assemble` stores one): the arrays of (A - shift I).tocsc().
    shifted = op.matrix.tocsc(copy=True)
    shifted.setdiag(shifted.diagonal() - shift)
    try:
        lu = spla.splu(shifted)
    except RuntimeError as exc:
        raise RuntimeError(f"shift-invert factorization failed ({exc})") from exc
    OPinv = spla.LinearOperator(op.matrix.shape, matvec=lu.solve, dtype=float)
    w, V = spla.eigs(op.matrix, k=k, sigma=shift, which="LM", v0=v0,
                     tol=_PICK_TOL if principal_only else _RITZ_TOL, OPinv=OPinv)
    order = np.argsort(np.abs(w))
    w, V = w[order], V[:, order]
    kept = [i for i, lam in enumerate(w) if _is_real(lam)]
    if principal_only:
        kept = [i for i in kept if w[i].real > 0][:1]
    return ([_real_pair(op, w[i], V[:, i]) for i in kept],
            [complex(lam) for lam in w if not _is_real(lam)])


# -- boundary trace extraction ---------------------------------------------

def _sample_inward(grid: Grid, F: np.ndarray, valid: np.ndarray, x, y,
                   nx_in, ny_in, d0: float) -> np.ndarray:
    """Sample each field F[k] of F (k, nx, ny) at distance d0 along the inward
    normal from each point, stepping further in while the cell is not fully
    valid[k]; 0 if it never is.  Cells and weights are found once for all k."""
    step = np.array([1.0, 1.5, 2.0, 3.0, 4.0, 6.0])[:, None] * d0
    px, py = x + step * nx_in, y + step * ny_in
    i = np.clip(np.searchsorted(grid.xs, px) - 1, 0, grid.nx - 2)
    j = np.clip(np.searchsorted(grid.ys, py) - 1, 0, grid.ny - 2)
    ok = valid[:, i, j] & valid[:, i + 1, j] & valid[:, i, j + 1] & valid[:, i + 1, j + 1]
    tx = (px - grid.xs[i]) / grid.hx
    ty = (py - grid.ys[j]) / grid.hy
    v = ((1 - tx) * (1 - ty) * F[:, i, j] + tx * (1 - ty) * F[:, i + 1, j]
         + (1 - tx) * ty * F[:, i, j + 1] + tx * ty * F[:, i + 1, j + 1])
    k, first, cols = np.arange(len(F))[:, None], np.argmax(ok, axis=1), np.arange(len(x))
    return np.where(ok[k, first, cols], v[k, first, cols], 0.0)


def _gradient_grids(grid: Grid, F: np.ndarray):
    """One-sided/centered difference gradients on interior nodes.

    Neighbours are read from F and `inside` padded by two nodes, so a
    neighbour off the grid is 0 and not inside."""
    nx, ny = grid.nx, grid.ny
    PF, Pin = np.pad(F, 2), np.pad(grid.inside, 2)

    def nb(P, di, dj):
        return P[2 + di:2 + di + nx, 2 + dj:2 + dj + ny]

    grads, valid = [], grid.inside
    for (di, dj), h in (((1, 0), grid.hx), ((0, 1), grid.hy)):
        okm2, okm, okp, okp2 = (nb(Pin, k * di, k * dj) for k in (-2, -1, 1, 2))
        fm2, fm, fp, fp2 = (nb(PF, k * di, k * dj) for k in (-2, -1, 1, 2))
        ok_c = okm & okp
        ok_f = ~okm & okp & okp2
        ok_b = ~okp & okm & okm2
        grads.append(np.where(ok_c, (fp - fm) / (2 * h), np.where(
            ok_f, (-3 * F + 4 * fp - fp2) / (2 * h), np.where(
                ok_b, (3 * F - 4 * fm + fm2) / (2 * h), np.nan))))
        valid = valid & (ok_c | ok_f | ok_b)
    Ux, Uy = (np.where(valid, G, 0.0) for G in grads)
    return Ux, Uy, valid


def boundary_traces(pair: EigenPair) -> dict:
    """The eigenpair's boundary traces {'BC', 'Sigma'}, of the eigenfunction
    and its gradient at 400 nodes per curve.

    On BC (no data imposed) the values are pulled back a short distance
    along the inward normal and sampled bilinearly.  On sigma and AC the
    trace of u is the imposed Dirichlet value 0, and the gradient is the
    normal derivative reconstructed from two interior samples.
    """
    grid, F = pair.grid, pair.field
    Ux, Uy, valid = _gradient_grids(grid, F)
    d = 2.0 * max(grid.hx, grid.hy)

    # BC: free boundary, sample u and grad at pulled-back points.
    curve, params, weights = _bc_nodes(grid.dom, _TRACE_NODES)
    nx_o, ny_o = curve.normal(params)
    u, ux, uy = _sample_inward(grid, np.stack((F, Ux, Uy)),
                               np.stack((grid.inside, valid, valid)),
                               *curve.position(params), -nx_o, -ny_o, d)
    bc = BoundaryTrace(curve, params, weights, u, ux, uy)

    # sigma: Dirichlet side, u = 0, grad = (normal derivative) * n.
    curve, params, weights = _sigma_nodes(grid.dom, _TRACE_NODES)
    nx_o, ny_o = curve.normal(params)
    x, y = curve.position(params)
    u1, = _sample_inward(grid, F[None], grid.inside[None], x, y, -nx_o, -ny_o, d)
    u2, = _sample_inward(grid, F[None], grid.inside[None], x, y, -nx_o, -ny_o, 2.0 * d)
    un = (-4.0 * u1 + u2) / (2.0 * d)   # normal derivative, u = 0 on sigma
    return {"BC": bc, "Sigma": BoundaryTrace(curve, params, weights, np.zeros(len(params)),
                                             un * nx_o, un * ny_o)}


def trace_norms(pair: EigenPair) -> tuple[dict, BoundaryNormBundle]:
    """The eigenpair's `boundary_traces` and their norm bundle."""
    traces = boundary_traces(pair)
    return traces, norm_bundle_from_traces(traces["BC"], traces["Sigma"])


# -- the dilation -----------------------------------------------------------

# Each quantity's power of s = |x0| under `Dilation`, and the power as printed.
_POWERS = {
    "lambda": (-4.0 / 3.0, "-4/3"),
    "x": (1.0, "1"),
    "y": (2.0 / 3.0, "2/3"),
    "u": (-5.0 / 6.0, "-5/6"),
    "u_x": (-11.0 / 6.0, "-11/6"),
    "u_y": (-1.5, "-3/2"),
}


@dataclass(frozen=True)
class Dilation:
    """The dilation D(x, y) = (s x, s^(2/3) y), s = |x0|, which maps the
    normal domain at x0 = -1 onto the one at x0, and what it makes of a
    solution there.

    T(u o D^-1) = s^(-4/3) (Tu) o D^-1, so a pair (lambda, u) at -1 gives
    the pair at x0 once each quantity takes its power of s (`scale`):
    lambda and the algebraic residual |Av - lambda v| / |v| s^(-4/3), the
    points (s, s^(2/3)), u s^(-5/6), which keeps the unit L2(Omega) norm
    (areas scale by s^(5/3)), u_x s^(-11/6) and u_y s^(-3/2).  A pair is
    traced at -1, on the grid it was solved on, and `traces` maps its
    traces; the mapped grid of `pair` is for drawing and export only.
    """

    x0: float

    def __post_init__(self):
        if not (self.x0 < 0.0 and math.isfinite(self.x0)):
            raise ValueError(f"x0 must be a finite negative real, got {self.x0!r}")

    def scale(self, quantity: str) -> float:
        """s to the power of `quantity`: 'lambda', 'x', 'y', 'u', 'u_x' or
        'u_y'.  A factor that is not a normal float raises OverflowError
        naming the quantity: lambda's overflows for s below about 1e-231
        and underflows above about 1e231."""
        power, printed = _POWERS[quantity]
        try:
            factor = abs(self.x0) ** power
        except OverflowError:
            factor = math.inf
        if not sys.float_info.min <= factor < math.inf:
            fault = "overflows" if factor == math.inf else "underflows"
            raise OverflowError(f"{quantity}'s scale |x0|^({printed}) {fault} a float "
                                f"at x0={self.x0!r}")
        return factor

    def points(self, x, y):
        """D(x, y) of the points (x, y) at x0 = -1."""
        return x * self.scale("x"), y * self.scale("y")

    def pair(self, pair: EigenPair) -> EigenPair:
        """The pair at x0 of `pair`, solved at x0 = -1: its grid keeps the
        node mask and takes the dilated nodes and x0's domain."""
        grid = pair.grid
        if grid.dom.x0 != -1.0:
            raise ValueError("a dilation maps a pair solved at x0 = -1")
        lam = self.scale("lambda")
        xs, ys = self.points(grid.xs, grid.ys)
        grid = dataclasses.replace(grid, dom=TricomiDomain(self.x0), xs=xs, ys=ys)
        return EigenPair(grid=grid, lam=pair.lam * lam, field=pair.field * self.scale("u"),
                         residual=pair.residual * lam, imag=pair.imag * lam)

    def traces(self, traces: dict) -> dict:
        """x0's {'BC', 'Sigma'} traces of the traces at x0 = -1 that
        `boundary_traces` gives: on the nodes of `bc_trace` and `sigma_trace`
        of x0's domain, as many, with the scaled values, each built once.
        Their nodes are D of the traced nodes up to rounding.  A scaled
        value that overflows raises OverflowError naming the field, the
        curve and x0, whatever numpy's errstate."""
        if any(t.curve.dom.x0 != -1.0 for t in traces.values()):
            raise ValueError("a dilation maps traces taken at x0 = -1")
        dom = TricomiDomain(self.x0)
        scales = {q: self.scale(q) for q in ("u", "u_x", "u_y")}
        mapped = {"BC": [], "Sigma": []}
        with np.errstate(over="raise"):
            for kind, values in mapped.items():
                t = traces[kind]
                for q, v in zip(scales, (t.u, t.ux, t.uy)):
                    try:
                        values.append(v * scales[q])
                    except FloatingPointError:
                        raise OverflowError(f"{q} on {kind} overflows a float "
                                            f"at x0={self.x0!r}") from None
        return {kind: BoundaryTrace(*nodes(dom, len(traces[kind].params)), *mapped[kind])
                for kind, nodes in (("BC", _bc_nodes), ("Sigma", _sigma_nodes))}


# -- field export -----------------------------------------------------------

def field_csv(pair: EigenPair) -> str:
    """The pair's field as CSV text: one `x,y,u` row per node, x-major."""
    X, Y = np.meshgrid(pair.grid.xs, pair.grid.ys, indexing="ij")
    return csv_table(("x", "y", "u"), zip(X.ravel().tolist(), Y.ravel().tolist(),
                                           pair.field.ravel().tolist()))
