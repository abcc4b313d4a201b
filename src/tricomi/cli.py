"""Command-line front end: constant tables, verification sweeps, eigen-solves,
bound checks and static SVG plots.

Output is deterministic: floats print with 17 significant digits, no
timestamps, and the eigensolver uses a fixed start vector.  Exit codes:
0 when every emitted report passed, 1 on a numerical failure, a failed
check, an algebraic residual |Av - lambda v| / |v| above 1e-8 |lambda| (of
the principal pair for `bound`, `plot eigen` and `eigen --format csv`,
which also exit 1 without one; of every listed pair for `eigen --format
json`) or an --out file that cannot be written (each with one line of
diagnostic JSON on stderr), 2 on argument errors.  Every command computes
under numpy's errstate(raise): a floating-point overflow, division by zero
or invalid operation is a numerical failure (exit 1), never a warning on
stderr.

Each subcommand handler only computes.  It returns `(text, failure)`: the
text for stdout or --out (None to write nothing) and the JSON failure record
(None on success).  `run` alone writes both and picks the exit code.
`bound`, `plot eigen` and `eigen --format csv` pick the principal pair among
the four pairs nearest the shift, a fixed count, and render it with
`render(pair)`.

Every command that solves does so at x0 = -1 and maps the result to its x0
by the domain's dilation (`eigensolver.Dilation`): lambda, the residuals,
the complex eigenvalues, the field and the grid's coordinates.  `bound`
traces the pair at -1, on the grid it was solved on, maps the traces onto
x0's trace nodes, and evaluates the identity and the bound at x0, with
x0's ledger.  Where lambda's factor |x0|^(-4/3) is no normal float (|x0|
below about 1e-231 or above about 1e231) the command exits 1 naming it.
Two `functools.lru_cache(maxsize=1)` functions memoize the x0 = -1 work,
one entry each per process.  `_canonical(nx, ny, count, principal_only)`
keeps the last solve: the pairs and the complex eigenvalues.
`_principal_traces(nx, ny)` keeps the principal pair's traces that `bound`
took last.  A call with other arguments replaces that function's entry
alone, so an `eigen` between two `bound`s on one mesh makes the second
solve again but not trace again.  So commands on one mesh in one process
(a sweep over x0) solve once; a cold process gains nothing.

Start-up and exit dominate a short command.  Each command loads only the
layers it runs: `constants`, `plot h|domain` and `verify starshape` load
`constants`, `geometry` and `report`; the other `verify` checks add
`verifier` and/or `pohozaev`; `eigen`, `bound` and `plot eigen` add
`eigensolver` (with scipy.sparse) and `pohozaev`.  `main`, the process
entry point, freezes every live object into the collector's permanent
generation once `run` returns, so the interpreter's exit-time collections
skip them; `run` leaves the collector alone, so in-process callers keep
the default GC.

Each run logs as TRICOMI_LOG says at that run: `info` or `debug` writes log
lines to stderr; anything else writes none and does not import logging.  A
`verify` runs at most one job per x0; one job runs in the calling thread,
and only more jobs start a thread pool.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import math
import os
import sys
from time import perf_counter

import numpy as np

import tricomi

from .constants import ledger
from .geometry import TricomiDomain, reflected_membership, verify_star_shaped
from .report import csv_table, reports_to_csv, reports_to_jsonl

__all__ = ["main", "run"]

# Largest algebraic residual |Av - lambda v| / |v| that a command accepts,
# relative to |lambda|: A and lambda both scale by |x0|^(-4/3) under the
# domain's dilation, so the gate reads the same at every x0.
_RESIDUAL_TOL = 1e-8

# The pairs nearest the shift among which `bound`, `plot eigen` and `eigen
# --format csv` pick the principal one; `eigen --count`'s default.
_PAIR_COUNT = 4

# numpy's error state for every command: a floating-point fault raises.
_RAISE = {"over": "raise", "divide": "raise", "invalid": "raise"}


class _Quiet:
    """The log of a run that writes no log lines."""

    def debug(self, *args):
        pass

    info = debug


# The log of the current run (see _setup_logging), and the stderr handler
# that the last verbose run gave the "tricomi" logger.
log = _Quiet()
_log_handler = None


def _setup_logging():
    """Point `log` at what TRICOMI_LOG asks for now.  The CLI never logs
    above INFO, so any value but info and debug gets the quiet log, without
    importing logging.  A verbose run writes to the sys.stderr it runs with."""
    global log, _log_handler
    level = os.environ.get("TRICOMI_LOG")
    if level not in ("info", "debug"):
        log = _Quiet()
        return
    import logging

    log = logging.getLogger("tricomi")
    log.removeHandler(_log_handler)
    _log_handler = logging.StreamHandler(sys.stderr)
    _log_handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.addHandler(_log_handler)
    log.setLevel(logging.DEBUG if level == "debug" else logging.INFO)
    log.propagate = False


def _checked(convert, valid, requirement: str):
    """An argparse type: `convert` the text, then require `valid(value)`."""
    noun = "a number" if convert is float else "an integer"

    def parse(text: str):
        try:
            v = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}")
        if not valid(v):
            raise argparse.ArgumentTypeError(f"{requirement}, got {v}")
        return v

    return parse


_neg_float = _checked(float, lambda v: v < 0.0 and math.isfinite(v),
                      "x0 must be a finite negative real")
_tol_float = _checked(float, lambda v: v >= 0.0 and math.isfinite(v),
                      "tolerance must be finite and >= 0")
_pos_int = _checked(int, lambda v: v >= 1, "must be at least 1")
# Grid.build's floor on the nodes per direction.
_mesh_int = _checked(int, lambda v: v >= 32, "must be at least 32")


def _parse_range(spec: str):
    """`a:b:n`: two x0 endpoints and a count, each checked as its own option."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be a:b:n, got {spec!r}")
    return _neg_float(parts[0]), _neg_float(parts[1]), _pos_int(parts[2])


def _x0_list(args) -> list:
    if args.x0 is not None:
        return [args.x0]
    a, b, n = args.x0_range
    # Log-spaced sweep between the (negative) endpoints, as Python floats:
    # a sweep computes with the same types as a single --x0.
    return (-np.geomspace(abs(a), abs(b), n)).tolist()


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=float) + "\n"


def _stage(name: str, call, detail=lambda result: ""):
    """call(); under TRICOMI_LOG=debug, one line with the stage's name, its
    wall time and detail(result)."""
    t = perf_counter()
    result = call()
    log.debug("%s %.4f s%s", name, perf_counter() - t, detail(result))
    return result


# -- subcommands -------------------------------------------------------------

def _cmd_constants(args):
    rows = [ledger(x0).to_dict() for x0 in _x0_list(args)]
    if args.format == "csv":
        return csv_table(rows[0], (row.values() for row in rows)), None
    return _json(rows[0] if len(rows) == 1 else rows), None


def _starshape(x0: float, n: tuple, reflected: bool):
    dom = TricomiDomain(x0)
    membership = reflected_membership(dom) if reflected else None
    return [verify_star_shaped(dom, *n, membership=membership)]


def _integrands(x0: float, n: tuple, reflected: bool):
    return [tricomi.verify_integrand_equivalence(x0, *n)]


def _inequalities(x0: float, n: tuple, reflected: bool):
    return [tricomi.verify_trace_inequalities(x0, *n)]


# Each `verify` check, keyed by its argparse choice, and its parts in output
# order.  A part maps (x0, n, reflected) to its reports.  n is (--grid,),
# which every check takes as its second argument, its sample count, or ()
# when --grid is left out, so that each check samples its own default.  The
# package loads verifier and pohozaev on first use, so only the checks that
# call them load them.
_VERIFY_CHECKS = {
    "h-profile": (lambda x0, n, _: [tricomi.verify_h_profile(x0, *n)],),
    "g1-bounds": (lambda x0, n, _: [tricomi.verify_G1_bounds(x0, *n)],),
    "g2-bounds": (lambda x0, n, _: [tricomi.verify_G2_bounds(x0, *n)],),
    "starshape": (_starshape,),
    "integrands": (_integrands,),
    "inequalities": (_inequalities,),
    "all": (lambda x0, n, _: tricomi.verify_profiles(x0, *n),
            _starshape, _integrands, _inequalities),
}


def _verify_one(check: str, x0: float, n: tuple, reflected: bool):
    """The reports of `check` at x0.  Under TRICOMI_LOG=debug each report
    gets one line with the wall time of the call that made it; the three
    profile reports of `all` come from one shared sweep and one time."""
    reports = []
    for part in _VERIFY_CHECKS[check]:
        t = perf_counter()
        batch = part(x0, n, reflected)
        dt = perf_counter() - t
        shared = (", one sweep for " + " ".join(r.claim_id for r in batch)
                  if len(batch) > 1 else "")
        for r in batch:
            log.debug("%s %.4f s, x0=%.17g%s", r.claim_id, dt, x0, shared)
        reports.extend(batch)
    return reports


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity set, where the OS
    has one), not all the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_verify(args):
    x0s = _x0_list(args)
    jobs = min(args.jobs or _usable_cpus(), len(x0s))
    n = () if args.grid is None else (args.grid,)
    log.info("verify %s over %d value(s) of x0 with %d job(s)",
             args.check, len(x0s), jobs)

    # One job runs in the calling thread, more on a thread pool.  numpy's
    # error state is per thread, so each call sets run's.
    def one(x0):
        with np.errstate(**_RAISE):
            return _verify_one(args.check, x0, n, args.reflected)

    if jobs == 1:
        batches = map(one, x0s)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(one, x0s))
    reports = [r for batch in batches for r in batch]
    if args.tol is not None:
        reports = [dataclasses.replace(r, passed=r.worst_margin >= -args.tol)
                   for r in reports]
    text = reports_to_csv(reports) if args.format == "csv" else reports_to_jsonl(reports)
    failed = [r.claim_id for r in reports if not r.passed]
    return text, ({"error": "one or more checks failed", "failed": failed}
                  if failed else None)


@functools.lru_cache(maxsize=1)
def _canonical(nx: int, ny: int, count: int, principal_only: bool):
    """(pairs, complex_pairs) on the nx x ny mesh at x0 = -1, the frame of
    every solve.  The arguments are everything the solve depends on.  One
    entry per process: a call with other arguments replaces it, and a solve
    that raises leaves it as it was.  No command writes to what it holds."""
    from . import eigensolver   # scipy.sparse: imported only by commands that solve

    def size(op):
        return f", {op.n} unknowns, {op.matrix.nnz} nnz"

    dom = TricomiDomain(-1.0)
    grid = _stage("Grid.build", lambda: eigensolver.Grid.build(dom, nx, ny))
    op = _stage("assemble", lambda: eigensolver.assemble(grid), size)
    return _stage("solve", lambda: eigensolver.solve_real_spectrum(
        op, count, principal_only=principal_only), lambda _: size(op))


def _solve(x0: float, nx: int, ny: int, count: int, *, principal_only: bool = False):
    """The pairs at x0 and the complex eigenvalues: solved at x0 = -1 and
    mapped by Dilation(x0).  Where lambda's scale is no float, raises
    before solving."""
    from . import eigensolver

    dilation = eigensolver.Dilation(x0)
    lam = dilation.scale("lambda")
    hits = _canonical.cache_info().hits
    pairs, complex_diag = _canonical(nx, ny, count, principal_only)
    if _canonical.cache_info().hits > hits:
        log.debug("solve reused at x0=-1, %d x %d", nx, ny)
    return [dilation.pair(p) for p in pairs], [c * lam for c in complex_diag]


@functools.lru_cache(maxsize=1)
def _principal_traces(nx: int, ny: int) -> dict:
    """The principal pair's {'BC', 'Sigma'} traces at x0 = -1 on the nx x ny
    mesh.  One entry per process, kept apart from `_canonical`'s: a solve
    with another key leaves it, since a repeated solve is bit-identical."""
    from . import eigensolver

    (pair,), _ = _canonical(nx, ny, _PAIR_COUNT, True)
    return eigensolver.boundary_traces(pair)


def _residual_ok(pair) -> bool:
    return pair.residual <= _RESIDUAL_TOL * abs(pair.lam)


def _principal(args, render):
    """render(pair) -> (text, failure) on the principal pair alone: the real
    pair of smallest magnitude with lambda > 0 among the `_PAIR_COUNT`
    nearest the shift (a negative one is a spurious mode of the mesh).
    Above the residual tolerance the text is still written and the residual
    is the failure."""
    pairs, _ = _solve(args.x0, args.nx, args.ny, _PAIR_COUNT, principal_only=True)
    if not pairs:
        return None, {"error": "no positive real eigenvalue found", "x0": args.x0}
    pair, = pairs
    text, failure = render(pair)
    if not _residual_ok(pair):
        return text, {"error": "eigen residual above tolerance",
                      "residual": pair.residual, "tol": _RESIDUAL_TOL}
    return text, failure


def _cmd_eigen(args):
    from . import eigensolver

    if args.format == "csv":
        return _principal(args, lambda pair: (eigensolver.field_csv(pair), None))
    pairs, complex_diag = _solve(args.x0, args.nx, args.ny, args.count or _PAIR_COUNT)
    if not pairs:
        return None, {"error": "no real eigenvalue found", "x0": args.x0,
                      "complex_pairs": [str(c) for c in complex_diag]}
    text = _json({
        "x0": args.x0,
        "nx": args.nx,
        "ny": args.ny,
        "eigenvalues": [
            {"lambda": p.lam, "residual": p.residual, "imag": p.imag}
            for p in pairs
        ],
        "complex_pairs": [str(c) for c in complex_diag],
    })
    if all(map(_residual_ok, pairs)):
        return text, None
    return text, {"error": "eigen residual above tolerance",
                  "residuals": [p.residual for p in pairs]}


def _bound(args, pair):
    """The identity and the bound at x0 on the principal pair's traces,
    traced at x0 = -1 and mapped: the ledger mixes powers of |x0|, so the
    bound is never evaluated at -1."""
    from . import eigensolver, pohozaev

    def traces_at_x0():
        traces = eigensolver.Dilation(args.x0).traces(_principal_traces(args.nx, args.ny))
        return traces, pohozaev.norm_bundle_from_traces(traces["BC"], traces["Sigma"])

    traces, norms = _stage("traces", traces_at_x0)
    identity = _stage("identity", lambda: pohozaev.pohozaev_residual(pair.lam, traces),
                      lambda r: f", relative residual {r['relative_residual']:.3e}")
    bound = _stage("bound", lambda: pohozaev.bound_check(pair.lam, norms, ledger(args.x0),
                                                         rel_tol=args.tol),
                   lambda b: f", lhs {b['lhs']:.6g}, rhs {b['rhs']:.6g}")
    record = {
        "x0": args.x0,
        "nx": args.nx,
        "ny": args.ny,
        "lambda": pair.lam,
        "residual": pair.residual,
        "identity": identity,
        "bound": bound,
        "passed": bool(bound["satisfied"]),
    }
    if args.format == "csv":
        text = csv_table(("x0", "lambda", "lhs", "rhs", "eps1", "eps2", "satisfied"),
                         [(args.x0, pair.lam, bound["lhs"], bound["rhs"],
                           bound["eps1"], bound["eps2"], bound["satisfied"])])
    else:
        text = _json(record)
    if not record["passed"]:
        return text, {"error": "eigenfunction bound not satisfied",
                      "lhs": bound["lhs"], "rhs": bound["rhs"]}
    return text, None


def _cmd_bound(args):
    return _principal(args, functools.partial(_bound, args))


# -- SVG plotting ------------------------------------------------------------

_W, _H = 800, 600
_MARGIN = 60


def _svg(title: str, xlim, ylim, draw) -> str:
    """One SVG page: the title, the axes with their end labels, and the
    elements that `draw(to_px)` returns, where `to_px` maps data to pixels."""
    x0p, x1p = _MARGIN, _W - _MARGIN
    y0p, y1p = _H - _MARGIN, 40 + _MARGIN

    def to_px(x, y):
        tx = (x - xlim[0]) / (xlim[1] - xlim[0])
        ty = (y - ylim[0]) / (ylim[1] - ylim[0])
        return (x0p + tx * (x1p - x0p), y0p + ty * (y1p - y0p))

    ax0 = to_px(xlim[0], ylim[0])
    ax1 = to_px(xlim[1], ylim[0])
    ay1 = to_px(xlim[0], ylim[1])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="28" text-anchor="middle" '
        f'font-family="monospace" font-size="16">{title}</text>',
        f'<line x1="{ax0[0]:.2f}" y1="{ax0[1]:.2f}" x2="{ax1[0]:.2f}" '
        f'y2="{ax1[1]:.2f}" stroke="black"/>',
        f'<line x1="{ax0[0]:.2f}" y1="{ax0[1]:.2f}" x2="{ay1[0]:.2f}" '
        f'y2="{ay1[1]:.2f}" stroke="black"/>',
    ]
    for (vx, vy), label, anchor, dy in (
            ((xlim[0], ylim[0]), f"{xlim[0]:.6g}", "middle", 20),
            ((xlim[1], ylim[0]), f"{xlim[1]:.6g}", "middle", 20),
            ((xlim[0], ylim[1]), f"{ylim[1]:.6g}", "end", -6)):
        px, py = to_px(vx, vy)
        parts.append(f'<text x="{px:.2f}" y="{py + dy:.2f}" text-anchor="{anchor}" '
                     f'font-family="monospace" font-size="12">{label}</text>')
    parts.extend(draw(to_px))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _polyline(xs, ys, to_px, color="steelblue"):
    pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in (to_px(x, y)
                                                       for x, y in zip(xs, ys)))
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'


def _plot_h(x0: float) -> str:
    dom = TricomiDomain(x0)
    led = ledger(x0)
    xs = np.linspace(2.0 * x0, 0.0, 600)
    hs = np.asarray(dom.h(xs))
    pad = 0.05 * (float(np.max(hs)) - float(np.min(hs)) + 1e-12)
    ylim = (float(np.min(hs)) - pad, float(np.max(hs)) + pad)
    i = int(np.argmin(hs))

    def draw(to_px):
        px, py = to_px(float(xs[i]), float(hs[i]))
        return [_polyline(xs, hs, to_px),
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="crimson"/>']

    return _svg(f"modulus h on [2x0, 0], x0={x0:.6g}, regime {led.regime}",
                (2.0 * x0, 0.0), ylim, draw)


def _plot_domain(x0: float) -> str:
    dom = TricomiDomain(x0)
    led = ledger(x0)
    ymax = float(dom.g(dom.x0))
    colors = {"Sigma": "steelblue", "AC": "seagreen", "BC": "darkorange"}

    def draw(to_px):
        lines = []
        for kind in ("Sigma", "AC", "BC"):
            curve = dom.boundary_curve(kind)
            x, y = curve.position(curve.params(400))
            lines.append(_polyline(np.atleast_1d(x), np.atleast_1d(y), to_px,
                                   colors[kind]))
        return lines

    return _svg(f"normal Tricomi domain, x0={x0:.6g}, regime {led.regime}",
                (2.0 * x0 * 1.05, -2.0 * x0 * 0.05), (dom.y_C * 1.1, ymax * 1.1),
                draw)


def _plot_eigen(pair) -> str:
    x0, grid, F = pair.grid.dom.x0, pair.grid, pair.field
    led = ledger(x0)
    vmax = float(np.max(np.abs(F))) or 1.0

    def draw(to_px):
        # One cell per inside node (i, j) with i < nx - 1, j < ny - 1, in
        # row-major order; red for u > 0, blue for u < 0.
        i, j = np.nonzero(grid.inside[:-1, :-1])
        v = F[i, j] / vmax
        r = (255 * np.clip(v, 0.0, 1.0)).astype(int)
        b = (255 * np.clip(-v, 0.0, 1.0)).astype(int)
        px0, py0 = to_px(grid.xs[i], grid.ys[j + 1])
        px1, py1 = to_px(grid.xs[i + 1], grid.ys[j])
        return [f'<rect x="{xa:.2f}" y="{ya:.2f}" width="{xb - xa:.2f}" '
                f'height="{yb - ya:.2f}" fill="rgb({rc},{255 - max(rc, bc)},{bc})"/>'
                for xa, ya, xb, yb, rc, bc in zip(px0.tolist(), py0.tolist(),
                                                  px1.tolist(), py1.tolist(),
                                                  r.tolist(), b.tolist())]

    return _svg(f"principal eigenfunction, x0={x0:.6g}, regime {led.regime}, "
                f"lambda={pair.lam:.6g}",
                (float(grid.xs[0]), float(grid.xs[-1])),
                (float(grid.ys[0]), float(grid.ys[-1])), draw)


def _cmd_plot(args):
    if args.target == "eigen":
        return _principal(args, lambda pair: (_plot_eigen(pair), None))
    return (_plot_h if args.target == "h" else _plot_domain)(args.x0), None


# -- parser ------------------------------------------------------------------

def _add_common(sub, fmt_choices=("json", "csv"), sweep=False, mesh=None):
    # With `sweep`, exactly one of --x0 and --x0-range; elsewhere --x0 is
    # required and argparse rejects --x0-range (exit 2) rather than ignore it.
    x0 = sub.add_mutually_exclusive_group(required=True) if sweep else sub
    x0.add_argument("--x0", type=_neg_float, required=not sweep,
                    help="domain parameter, a negative real")
    if sweep:
        x0.add_argument("--x0-range", type=_parse_range,
                        help="sweep a:b:n, log-spaced between negative a and b")
    sub.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    if mesh:
        sub.add_argument("--nx", type=_mesh_int, default=mesh)
        sub.add_argument("--ny", type=_mesh_int, default=mesh)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser.  Each subcommand sets `handler`, and for a
    numerical failure the JSON `error` prefix `failed` and the arguments
    `detail` that the failure record repeats."""
    parser = argparse.ArgumentParser(
        prog="tricomi",
        description="Geometry, constants, boundary integrals and eigenpairs "
                    "of the Tricomi operator on the normal Tricomi domain.")
    subs = parser.add_subparsers(dest="command", required=True)

    sc = subs.add_parser("constants", help="x0-dependent constant ledger")
    _add_common(sc, sweep=True)
    sc.set_defaults(handler=_cmd_constants, failed="constants failed",
                    detail=("x0", "x0_range"))

    sv = subs.add_parser("verify", help="dense-grid and randomized checks")
    sv.add_argument("check", choices=_VERIFY_CHECKS)
    _add_common(sv, sweep=True)
    sv.add_argument("--jobs", type=_pos_int, default=None,
                    help="parallel workers for sweeps, at most one per x0 "
                         "(default: the CPUs this process may run on)")
    sv.add_argument("--grid", type=_pos_int, default=None,
                    help="sample count of the check, given to each part of "
                         "all (default: each check's own: 100000 sweep nodes, "
                         "198 boundary points for starshape, which takes "
                         "n // 3 per curve, 1000 for integrands and "
                         "inequalities)")
    sv.add_argument("--tol", type=_tol_float, default=None,
                    help="override the pass/fail margin tolerance")
    sv.add_argument("--reflected", action="store_true",
                    help="starshape negative control on the x-reflected domain "
                         "(starshape and all only)")
    sv.set_defaults(handler=_cmd_verify, failed="verification failed", detail=("check",))

    se = subs.add_parser("eigen", help="solve the discrete eigenproblem")
    _add_common(se, mesh=64)
    se.add_argument("--count", type=_pos_int, default=None,
                    help=f"pairs listed by --format json (default {_PAIR_COUNT})")
    se.set_defaults(handler=_cmd_eigen, failed="eigensolve failed", detail=("x0",))

    sb = subs.add_parser("bound", help="end-to-end identity and bound check")
    _add_common(sb, mesh=64)
    sb.add_argument("--tol", type=_tol_float, default=1e-2,
                    help="relative tolerance for bound satisfaction (default 1e-2)")
    sb.set_defaults(handler=_cmd_bound, failed="bound check failed", detail=("x0",))

    sp = subs.add_parser("plot", help="static SVG plots")
    sp.add_argument("target", choices=("h", "domain", "eigen"))
    _add_common(sp, fmt_choices=("svg",))
    # plot eigen's mesh: run() rejects it for h and domain and sets its default.
    for axis in ("--nx", "--ny"):
        sp.add_argument(axis, type=_mesh_int, help="plot eigen only (default 48)")
    sp.set_defaults(handler=_cmd_plot, failed="plot failed", detail=("target", "x0"))

    return parser


# One parser per process: parse_args keeps no state in it between calls.
_parser = functools.cache(build_parser)


def _merge_range_values(argv):
    """Join `--x0 -v` and `--x0-range -a:-b:n` into one token each, so that
    argparse does not read a leading-dash value such as -1e-3 as an option."""
    out, it = [], iter(argv)
    for tok in it:
        if tok in ("--x0", "--x0-range"):
            nxt = next(it, None)
            out.append(tok if nxt is None else f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    """Run one command: write its text to stdout or --out, and on failure one
    JSON line to stderr.  Returns the exit code (0 or 1); argument errors
    raise SystemExit(2)."""
    _setup_logging()
    parser = _parser()
    args = parser.parse_args(_merge_range_values(
        sys.argv[1:] if argv is None else list(argv)))
    if args.command == "eigen" and args.format == "csv" and (not args.out or args.count):
        parser.error("eigen --format csv writes the principal field: give --out, no --count")
    if (args.command == "verify" and args.reflected
            and args.check not in ("starshape", "all")):
        parser.error("--reflected is the starshape control; give it to starshape or all")
    if args.command == "plot":
        if args.target != "eigen" and (args.nx, args.ny) != (None, None):
            parser.error("--nx and --ny set the mesh of plot eigen; give them to plot eigen")
        args.nx, args.ny = args.nx or 48, args.ny or 48
    try:
        with np.errstate(**_RAISE):
            text, failure = args.handler(args)
    except Exception as exc:  # a numerical failure, reported as JSON below
        failure = {"error": f"{args.failed}: {exc}",
                   **{key: getattr(args, key) for key in args.detail}}
        text = None
    if text is not None and not args.out:
        sys.stdout.write(text)
    elif text is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            failure = {"error": "cannot write --out file", "out": args.out,
                       "reason": str(exc)}
    if failure is None:
        return 0
    sys.stderr.write(json.dumps(failure, sort_keys=True, default=str) + "\n")
    return 1


def main() -> int:
    """The process entry point (`python -m tricomi.cli`, the `tricomi`
    script): `run` on sys.argv, then freeze every live object, also after an
    argument error.  The interpreter's exit-time collections then skip the
    tens of thousands of numpy, scipy and tricomi objects that module
    teardown leaves, and the OS reclaims their memory with the process."""
    try:
        return run()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
