"""Per-operation correctness checks.

`check` returns None when an operation's exit code and stdout are correct,
and otherwise the reason it failed.  A failed operation is counted, never
dropped or retried.
"""

from __future__ import annotations

import json
import math

RESIDUAL_TOL = 1e-8
# Spurious-mode guard on the dilation identity: genuine principal modes read
# 0.002-0.36, the spurious lambda = 0.979 mode at 304 squared reads 140.
IDENTITY_TOL = 1.0
# `verify all` emits one report per check.
VERIFY_ALL_REPORTS = 6


def check(op, exit_code: int, stdout: str):
    """None if the operation's output is correct, else the reason it is not."""
    if exit_code != op.exit_code:
        return f"exit code {exit_code}, expected {op.exit_code}"
    try:
        return _CHECKS[op.argv[0]](op, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def check_repeat(op, exit_code: int, stdout: bytes, reference: bytes):
    """A repeated command must give the exit code and bytes of its first run."""
    if exit_code != op.exit_code:
        return f"exit code {exit_code}, expected {op.exit_code}"
    if stdout != reference:
        return "stdout differs from the first run of the same command"
    return None


def _arg(op, flag: str) -> str:
    return op.argv[op.argv.index(flag) + 1]


def _check_bound(op, stdout):
    rec = json.loads(stdout)
    if rec["x0"] != float(_arg(op, "--x0")) or (rec["nx"], rec["ny"]) != (
            int(_arg(op, "--nx")), int(_arg(op, "--ny"))):
        return "output is for other inputs"
    lam = rec["lambda"]
    if not (isinstance(lam, float) and math.isfinite(lam) and lam > 0.0):
        return f"lambda {lam!r} is not a real number > 0"
    if not rec["residual"] <= RESIDUAL_TOL:
        return f"algebraic residual {rec['residual']:.3g} > {RESIDUAL_TOL:g}"
    rel = rec["identity"]["relative_residual"]
    if not rel <= IDENTITY_TOL:
        return (f"identity relative residual {rel:.3g} > {IDENTITY_TOL:g} "
                f"(spurious mode, lambda {lam:.4g})")
    if not (rec["bound"]["satisfied"] and rec["passed"]):
        return "bound not satisfied"
    return None


def _check_verify(op, stdout):
    reports = [json.loads(line) for line in stdout.splitlines()]
    expected = VERIFY_ALL_REPORTS if op.argv[1] == "all" else 1
    if len(reports) != expected:
        return f"{len(reports)} reports, expected {expected}"
    x0 = float(_arg(op, "--x0"))
    want_pass = op.exit_code == 0
    for r in reports:
        if r["x0"] != x0:
            return "output is for other inputs"
        if bool(r["passed"]) != want_pass:
            return f"{r['claim_id']} passed={r['passed']}, expected {want_pass}"
    return None


def _check_eigen(op, stdout):
    rec = json.loads(stdout)
    eigs = rec["eigenvalues"]
    if not eigs or not all(e["residual"] <= RESIDUAL_TOL for e in eigs):
        return "no eigenvalue, or a residual above tolerance"
    if not eigs[0]["lambda"] > 0.0:
        return f"principal lambda {eigs[0]['lambda']!r} is not > 0"
    return None


def _check_constants(op, stdout):
    header, *rows = stdout.splitlines()
    n = int(_arg(op, "--x0-range").split(":")[2])
    width = len(header.split(","))
    if not header.startswith("x0,") or len(rows) != n or any(
            len(r.split(",")) != width for r in rows):
        return "constants table has the wrong shape"
    return None


def _check_plot(op, stdout):
    if not (stdout.startswith("<svg") and stdout.endswith("</svg>\n")):
        return "not an SVG document"
    return None


_CHECKS = {
    "bound": _check_bound,
    "verify": _check_verify,
    "eigen": _check_eigen,
    "constants": _check_constants,
    "plot": _check_plot,
}
