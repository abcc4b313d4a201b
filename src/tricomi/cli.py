"""Command-line front end: constant tables, verification sweeps, eigen-solves,
bound checks and static SVG plots.

Output is deterministic: floats print with 17 significant digits, no
timestamps, and the eigensolver uses a fixed start vector.  Exit codes:
0 when every emitted report passed, 1 on a numerical failure, a failed
check, an eigenpair whose algebraic residual is above 1e-8 or an --out file
that cannot be written (each with one line of diagnostic JSON on stderr),
2 on argument errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

from . import pohozaev, verifier
from .constants import ledger
from .geometry import TricomiDomain, reflected_membership, verify_star_shaped
from .report import fmt, reports_to_csv, reports_to_jsonl

__all__ = ["main", "run"]

log = logging.getLogger("tricomi")

# Largest algebraic residual |Av - lambda v| / |v| that `eigen` and `bound`
# accept.
_RESIDUAL_TOL = 1e-8

_VERIFY_CHECKS = ("h-profile", "g1-bounds", "g2-bounds", "starshape",
                  "integrands", "inequalities", "all")


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("TRICOMI_LOG", "error"))
    if level is None:
        level = logging.ERROR
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _parse_range(spec: str):
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must be a:b:n with floats a, b and count n, got {spec!r}")
    if n < 1:
        raise argparse.ArgumentTypeError("range count must be >= 1")
    if not (a < 0.0 and b < 0.0) or not (math.isfinite(a) and math.isfinite(b)):
        raise argparse.ArgumentTypeError(
            f"range endpoints must be finite negative reals, got {a} and {b}")
    return (a, b, n)


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


def _x0_list(args) -> list:
    if args.x0 is not None:
        return [args.x0]
    a, b, n = args.x0_range
    if n == 1:
        return [a]
    # Log-spaced sweep between the (negative) endpoints.
    return [-v for v in np.geomspace(abs(a), abs(b), n)]


def _fail(message: str, **detail) -> int:
    payload = {"error": message}
    payload.update(detail)
    sys.stderr.write(json.dumps(payload, sort_keys=True, default=str) + "\n")
    return 1


def _unwritable(out_path, exc: OSError) -> int:
    return _fail("cannot write --out file", out=out_path, reason=str(exc))


def _write_out(text: str, out_path) -> int:
    """Write `text` to the --out file, or to stdout without one.  Returns 0,
    or 1 after a JSON line on stderr when the file cannot be written."""
    if not out_path:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _unwritable(out_path, exc)
    return 0


# -- subcommands -------------------------------------------------------------

def _cmd_constants(args, parser) -> int:
    x0s = _x0_list(args)
    rows = [ledger(x0).to_dict() for x0 in x0s]
    if args.format == "json":
        text = json.dumps(rows[0] if len(rows) == 1 else rows,
                          sort_keys=True, indent=2, default=float) + "\n"
    else:   # csv
        keys = list(rows[0].keys())
        lines = [",".join(keys)]
        for row in rows:
            lines.append(",".join(
                "" if row[k] is None else fmt(row[k]) for k in keys))
        text = "\n".join(lines) + "\n"
    return _write_out(text, args.out)


def _check_reports(check: str, x0: float, grid: int, reflected: bool):
    if check == "h-profile":
        return [verifier.verify_h_profile(x0, grid)]
    if check == "g1-bounds":
        return [verifier.verify_G1_bounds(x0, grid)]
    if check == "g2-bounds":
        return [verifier.verify_G2_bounds(x0, grid)]
    if check == "starshape":
        dom = TricomiDomain(x0)
        membership = reflected_membership(dom) if reflected else None
        n_pts = grid if grid < 10000 else 200
        return [verify_star_shaped(dom, n_pts, 50, membership=membership)]
    if check == "integrands":
        n = grid if grid < 10000 else 1000
        return [pohozaev.verify_integrand_equivalence(x0, n_states=n)]
    if check == "inequalities":
        n = grid if grid < 10000 else 1000
        return [pohozaev.verify_trace_inequalities(x0, n_traces=n)]
    if check == "profiles":     # the first three reports of `all`
        return verifier.verify_profiles(x0, grid)
    raise ValueError(f"unknown check {check!r}")


def _verify_one(check: str, x0: float, grid: int, reflected: bool):
    """The reports of `check` at x0.  Under TRICOMI_LOG=debug each report
    gets one line with the wall time of the call that made it; the three
    profile reports of `all` come from one shared sweep and one time."""
    parts = (("profiles", "starshape", "integrands", "inequalities")
             if check == "all" else (check,))
    reports = []
    for part in parts:
        t = perf_counter()
        batch = _check_reports(part, x0, grid, reflected)
        dt = perf_counter() - t
        shared = (", one sweep for " + " ".join(r.claim_id for r in batch)
                  if len(batch) > 1 else "")
        for r in batch:
            log.debug("%s %.4f s, x0=%.17g%s", r.claim_id, dt, x0, shared)
        reports.extend(batch)
    return reports


def _cmd_verify(args, parser) -> int:
    x0s = _x0_list(args)
    jobs = args.jobs or min(os.cpu_count() or 1, len(x0s))
    log.info("verify %s over %d value(s) of x0 with %d job(s)",
             args.check, len(x0s), jobs)

    def one(x0):
        # An overflow, a division by zero or a NaN is a numerical failure,
        # reported below as JSON, not a numpy warning on stderr.  The error
        # state is per thread.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _verify_one(args.check, x0, args.grid, args.reflected)

    try:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(one, x0s))
    except Exception as exc:  # numerical failure inside a worker
        return _fail(f"verification failed: {exc}", check=args.check)
    reports = [r for batch in batches for r in batch]
    if args.tol is not None:
        for r in reports:
            r.passed = r.worst_margin >= -args.tol
    text = reports_to_csv(reports) if args.format == "csv" else reports_to_jsonl(reports)
    if _write_out(text, args.out):
        return 1
    if all(r.passed for r in reports):
        return 0
    return _fail("one or more checks failed",
                 failed=[r.claim_id for r in reports if not r.passed])


def _solve(x0: float, nx: int, ny: int, count: int):
    from . import eigensolver   # scipy.sparse: imported only by commands that solve

    dom = TricomiDomain(x0)
    t = perf_counter()
    grid = eigensolver.Grid.build(dom, nx, ny)
    log.debug("Grid.build %.4f s", perf_counter() - t)
    t = perf_counter()
    op = eigensolver.assemble(dom, grid)
    log.debug("assemble %.4f s, %d unknowns, %d nnz",
              perf_counter() - t, op.n, op.matrix.nnz)
    t = perf_counter()
    pairs, complex_diag = eigensolver.solve_real_spectrum(op, count)
    log.debug("solve %.4f s, %d unknowns, %d nnz",
              perf_counter() - t, op.n, op.matrix.nnz)
    return dom, grid, pairs, complex_diag


def _principal(pairs):
    """The principal eigenpair: the real pair of smallest magnitude with
    lambda > 0, or None.  A negative real eigenvalue of the discrete
    operator is a spurious mode of the discretization."""
    return next((p for p in pairs if p.lam > 0), None)


def _cmd_eigen(args, parser) -> int:
    from . import eigensolver

    if args.format == "csv" and not args.out:
        parser.error("eigen --format csv writes the principal field; give --out")
    try:
        dom, grid, pairs, complex_diag = _solve(args.x0, args.nx, args.ny, args.count)
    except Exception as exc:
        return _fail(f"eigensolve failed: {exc}", x0=args.x0)
    if not pairs:
        return _fail("no real eigenvalue found", x0=args.x0,
                     complex_pairs=[str(c) for c in complex_diag])
    if args.format == "csv":
        pair = _principal(pairs)
        if pair is None:
            return _fail("no positive real eigenvalue found", x0=args.x0)
        try:
            eigensolver.write_field_csv(args.out, grid, pair.field)
        except OSError as exc:
            return _unwritable(args.out, exc)
    else:
        summary = {
            "x0": args.x0,
            "nx": args.nx,
            "ny": args.ny,
            "eigenvalues": [
                {"lambda": p.lam, "residual": p.residual, "imag": p.imag}
                for p in pairs
            ],
            "complex_pairs": [str(c) for c in complex_diag],
        }
        if _write_out(json.dumps(summary, sort_keys=True, indent=2, default=float)
                      + "\n", args.out):
            return 1
    if all(p.residual <= _RESIDUAL_TOL for p in pairs):
        return 0
    return _fail("eigen residual above tolerance",
                 residuals=[p.residual for p in pairs])


def _cmd_bound(args, parser) -> int:
    from . import eigensolver

    tol = args.tol if args.tol is not None else 1e-2
    try:
        dom, grid, pairs, _ = _solve(args.x0, args.nx, args.ny, args.count)
        pair = _principal(pairs)
        if pair is None:
            return _fail("no positive real eigenvalue found", x0=args.x0)
        t = perf_counter()
        norms = eigensolver.trace_norms(pair, dom, grid)
        log.debug("traces %.4f s", perf_counter() - t)
        t = perf_counter()
        identity = pohozaev.pohozaev_residual(pair, dom)
        log.debug("identity %.4f s, relative residual %.3e",
                  perf_counter() - t, identity["relative_residual"])
        t = perf_counter()
        bound = pohozaev.bound_check(pair, norms, ledger(args.x0), rel_tol=tol)
        log.debug("bound %.4f s, lhs %.6g, rhs %.6g",
                  perf_counter() - t, bound["lhs"], bound["rhs"])
    except Exception as exc:
        return _fail(f"bound check failed: {exc}", x0=args.x0)
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
        text = ("x0,lambda,lhs,rhs,eps1,eps2,satisfied\n"
                + ",".join(fmt(v) for v in (
                    args.x0, pair.lam, bound["lhs"], bound["rhs"],
                    bound["eps1"], bound["eps2"], bound["satisfied"])) + "\n")
    else:
        text = json.dumps(record, sort_keys=True, indent=2, default=float) + "\n"
    if _write_out(text, args.out):
        return 1
    if not pair.residual <= _RESIDUAL_TOL:
        return _fail("eigen residual above tolerance", residual=pair.residual,
                     tol=_RESIDUAL_TOL)
    if record["passed"]:
        return 0
    return _fail("eigenfunction bound not satisfied", lhs=bound["lhs"], rhs=bound["rhs"])


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


def _plot_eigen(x0: float, nx: int, ny: int) -> str:
    dom, grid, pairs, _ = _solve(x0, nx, ny, 4)
    pair = _principal(pairs)
    if pair is None:
        raise RuntimeError("no positive real eigenvalue found for the heat map")
    F = pair.field
    led = ledger(x0)
    vmax = float(np.max(np.abs(F))) or 1.0

    def draw(to_px):
        cells = []
        for i in range(grid.nx - 1):
            for j in range(grid.ny - 1):
                if not grid.inside[i, j]:
                    continue
                v = F[i, j] / vmax
                r = int(255 * max(0.0, min(1.0, v)))
                b = int(255 * max(0.0, min(1.0, -v)))
                px0, py0 = to_px(float(grid.xs[i]), float(grid.ys[j + 1]))
                px1, py1 = to_px(float(grid.xs[i + 1]), float(grid.ys[j]))
                cells.append(
                    f'<rect x="{px0:.2f}" y="{py0:.2f}" width="{px1 - px0:.2f}" '
                    f'height="{py1 - py0:.2f}" fill="rgb({r},{255 - max(r, b)},{b})"/>')
        return cells

    return _svg(f"principal eigenfunction, x0={x0:.6g}, regime {led.regime}, "
                f"lambda={pair.lam:.6g}",
                (float(grid.xs[0]), float(grid.xs[-1])),
                (float(grid.ys[0]), float(grid.ys[-1])), draw)


def _cmd_plot(args, parser) -> int:
    try:
        if args.target == "h":
            text = _plot_h(args.x0)
        elif args.target == "domain":
            text = _plot_domain(args.x0)
        else:
            text = _plot_eigen(args.x0, args.nx, args.ny)
    except Exception as exc:
        return _fail(f"plot failed: {exc}", target=args.target, x0=args.x0)
    return _write_out(text, args.out)


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
    parser = argparse.ArgumentParser(
        prog="tricomi",
        description="Geometry, constants, boundary integrals and eigenpairs "
                    "of the Tricomi operator on the normal Tricomi domain.")
    subs = parser.add_subparsers(dest="command", required=True)

    sc = subs.add_parser("constants", help="x0-dependent constant ledger")
    _add_common(sc, sweep=True)

    sv = subs.add_parser("verify", help="dense-grid and randomized checks")
    sv.add_argument("check", choices=_VERIFY_CHECKS)
    _add_common(sv, sweep=True)
    sv.add_argument("--jobs", type=_pos_int, default=None,
                    help="parallel workers for sweeps (default: cpu count)")
    sv.add_argument("--grid", type=int, default=100000,
                    help="sweep grid size (or sample count for randomized checks)")
    sv.add_argument("--tol", type=_tol_float, default=None,
                    help="override the pass/fail margin tolerance")
    sv.add_argument("--reflected", action="store_true",
                    help="starshape negative control on the x-reflected domain")

    se = subs.add_parser("eigen", help="solve the discrete eigenproblem")
    _add_common(se, mesh=64)
    se.add_argument("--count", type=_pos_int, default=4)

    sb = subs.add_parser("bound", help="end-to-end identity and bound check")
    _add_common(sb, mesh=64)
    sb.add_argument("--count", type=_pos_int, default=4)
    sb.add_argument("--tol", type=_tol_float, default=None,
                    help="relative tolerance for bound satisfaction (default 1e-2)")

    sp = subs.add_parser("plot", help="static SVG plots")
    sp.add_argument("target", choices=("h", "domain", "eigen"))
    _add_common(sp, fmt_choices=("svg",), mesh=48)

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
    _setup_logging()
    parser = _parser()
    args = parser.parse_args(_merge_range_values(
        sys.argv[1:] if argv is None else list(argv)))
    handler = {
        "constants": _cmd_constants,
        "verify": _cmd_verify,
        "eigen": _cmd_eigen,
        "bound": _cmd_bound,
        "plot": _cmd_plot,
    }[args.command]
    return handler(args, parser)


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
