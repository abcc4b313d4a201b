"""Acceptance suite: the nine headline guarantees of the package.

Each test emits exactly one `[PASS]`/`[FAIL]` line (echoed in the terminal
summary by conftest.py) and then asserts.  Criterion 7's eigenfunction
nonnegativity sub-check is known to fail at the required 1e-6 level with
this discretization; it is kept red deliberately rather than weakened.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from tricomi import (
    Grid,
    TricomiDomain,
    assemble,
    bound_check,
    pohozaev_residual,
    reflected_membership,
    solve_real_spectrum,
    trace_norms,
    verify_G1_bounds,
    verify_G2_bounds,
    verify_h_profile,
    verify_integrand_equivalence,
    verify_star_shaped,
    verify_trace_inequalities,
)
from tricomi.constants import SQRT33, X3, X4, ledger
from tricomi.verifier import N_of_X, N_of_X_alt

RESULTS = []

X0_SWEEP = [-v for v in np.geomspace(0.05, 4.0, 40)]


def record(criterion: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


# -- criterion 1: constant ledger exactness and branch continuity ------------

def _closed_forms(x0: float) -> dict:
    """Independent transcription of every constant's closed form."""
    ax = abs(x0)
    cube = (1.5 * ax) ** (1.0 / 3.0)
    root = math.sqrt(1.0 + cube * cube)
    out = {
        "y_C": -cube * cube,
        "C3": cube / root,
        "K2": 12.0 * ax / root,          # C1(1) = C2(1)
        "C4": ax if x0 >= -2.0 / 3.0 else (1.5 * x0**4) ** (1.0 / 3.0),
        "C5": -(1.5 ** (8.0 / 3.0)) * ax ** (2.0 / 3.0),
        "C6": 3.0 * 2.0 ** (8.0 / 3.0) * ax
              / math.sqrt(2.0 ** (4.0 / 3.0) + 9.0 * ax ** (2.0 / 3.0)),
        "C9": -(2.0 ** (-19.0 / 6.0)) * 3.0 ** (2.0 / 3.0) * (SQRT33 + 3.0)
              * math.sqrt(15.0 + SQRT33) * ax ** (2.0 / 3.0),
        "C10": 2.0 ** (-11.0 / 6.0) * 3.0 * (SQRT33 - 3.0)
               * math.sqrt(15.0 - SQRT33) * ax
               / math.sqrt(2.0 ** (4.0 / 3.0) + 9.0 * ax ** (2.0 / 3.0)),
        "x1": (7.0 + SQRT33) / 8.0 * x0,
        "x2": (7.0 - SQRT33) / 8.0 * x0,
    }
    if x0 < -math.sqrt(3.0) / 4.0:
        disc = math.sqrt(x0 * x0 - 3.0 / 16.0)
        hmin = math.sqrt(x0 * x0 - 3.0 / 64.0)
        out["x_plus"] = x0 + disc
        out["x_minus"] = x0 - disc
        out["C7"] = -(27.0 / 8.0) * x0 * x0 / hmin
        out["C8"] = out["C6"] if x0 > -0.5 else 6.0 * x0 * x0 / hmin
        out["C11"] = -(2.0 ** -3.5) * 3.0 * (SQRT33 + 3.0) \
            * math.sqrt(15.0 + SQRT33) * x0 * x0 / hmin
        out["C12"] = out["C10"] if x0 > -0.5 else \
            2.0 ** -3.5 * 3.0 * (SQRT33 - 3.0) * math.sqrt(15.0 - SQRT33) \
            * x0 * x0 / hmin
        out["C13"] = -out["C11"]
    else:
        out["C13"] = -out["C9"]
    return out


def test_criterion_1_constants_exact_and_continuous():
    rtol = 1e-12
    worst = 0.0
    singled_out = [-0.3, -math.sqrt(3.0) / 4.0, -0.45, -0.5, -0.55,
                   -2.0 / 3.0, -1.0, -2.0]
    for x0 in X0_SWEEP + singled_out:
        led = ledger(x0)
        want = _closed_forms(x0)
        got = {
            "y_C": led.y_C, "C3": led.C3, "K2": led.C1(1.0),
            "C4": led.C4, "C5": led.C5, "C6": led.C6,
            "C9": led.C9, "C10": led.C10, "C13": led.C13,
            "x1": led.x1, "x2": led.x2,
        }
        for key in ("x_plus", "x_minus", "C7", "C8", "C11", "C12"):
            if key in want:
                got[key] = getattr(led, key)
        for eps in (0.5, 1.0, 2.0):
            scale = 6.0 * abs(x0) / math.sqrt(1.0 + (1.5 * abs(x0)) ** (2.0 / 3.0))
            want[f"C1_{eps}"] = scale * (1.0 + eps)
            want[f"C2_{eps}"] = scale * (1.0 + 1.0 / eps)
            upper = want["C6"] if x0 >= -math.sqrt(3.0) / 4.0 else want["C8"]
            lower = want["C5"] if x0 >= -math.sqrt(3.0) / 4.0 else want["C7"]
            want[f"C14_{eps}"] = upper + 0.5 * eps * want["C13"]
            want[f"C15_{eps}"] = -lower + want["C13"] / (2.0 * eps)
            got[f"C1_{eps}"] = led.C1(eps)
            got[f"C2_{eps}"] = led.C2(eps)
            got[f"C14_{eps}"] = led.C14(eps)
            got[f"C15_{eps}"] = led.C15(eps)
        for key, w in want.items():
            rel = abs(got[key] - w) / max(1.0, abs(w))
            worst = max(worst, rel)
    exact_ok = worst <= rtol

    gap_worst = 0.0
    for brk in (-0.5, -2.0 / 3.0):
        d = 1e-10
        left = ledger(brk - d)
        right = ledger(brk + d)
        for name in ("C3", "C4", "C7", "C8", "C11", "C12", "C13"):
            l, r = getattr(left, name), getattr(right, name)
            gap_worst = max(gap_worst, abs(l - r) / max(1.0, abs(l)))
        for eps in (0.5, 1.0, 2.0):
            for f in ("C1", "C2", "C14", "C15"):
                l = getattr(left, f)(eps)
                r = getattr(right, f)(eps)
                gap_worst = max(gap_worst, abs(l - r) / max(1.0, abs(l)))
    cont_ok = gap_worst <= 1e-9

    record("1 (constants)", exact_ok and cont_ok,
           f"closed-form agreement worst rel err {worst:.2e} (tol 1e-12); "
           f"branch continuity at -1/2, -2/3 worst gap {gap_worst:.2e} (tol 1e-9)")


# -- criterion 2: h profile over the x0 sweep --------------------------------

def test_criterion_2_h_profile_sweep():
    t0 = time.perf_counter()
    failures = []
    dual_worst = 0.0
    for x0 in X0_SWEEP:
        rep = verify_h_profile(x0, 100000)
        if not rep.passed:
            failures.append((x0, rep.notes))
        X = np.linspace(0.0, -x0, 2001)
        n1 = np.asarray(N_of_X(x0, X))
        n2 = np.asarray(N_of_X_alt(x0, X))
        dual_worst = max(dual_worst, float(np.max(np.abs(n1 - n2)))
                         / max(1.0, float(np.max(np.abs(n1)))))
    wall = time.perf_counter() - t0
    ok = not failures and dual_worst <= 1e-10 and wall < 30.0
    record("2 (h profile)", ok,
           f"40 x0 in [-4,-0.05] at grid 1e5: {len(failures)} failures; "
           f"dual-form N agreement {dual_worst:.2e} (tol 1e-10); "
           f"wall {wall:.1f}s (budget 30s)")


# -- criterion 3: G1/G2 bounds and sharpness ---------------------------------

def test_criterion_3_G_bounds_and_sharpness():
    failures = []
    for x0 in X0_SWEEP:
        for rep in (verify_G1_bounds(x0, 100000), verify_G2_bounds(x0, 100000)):
            if not rep.passed:
                failures.append((rep.claim_id, x0))
    sharp = {
        "G1 lower at -1/sqrt(5)":
            "sharp_lower=True" in verify_G1_bounds(-1.0 / math.sqrt(5.0),
                                                   200000).notes,
        "G2 upper at x3":
            "sharp_upper=True" in verify_G2_bounds(X3, 200000).notes,
        "G2 lower at x4":
            "sharp_lower=True" in verify_G2_bounds(X4, 200000).notes,
    }
    ok = not failures and all(sharp.values())
    record("3 (G1/G2 bounds)", ok,
           f"40 x0 two-sided margins >= -1e-10: {len(failures)} failures; "
           f"sharp cases (gap <= 1e-6): "
           + ", ".join(f"{k}={v}" for k, v in sharp.items()))


# -- criterion 4: integrand equivalence --------------------------------------

def test_criterion_4_integrand_equivalence():
    worst = math.inf
    fails = 0
    for x0 in (-0.3, -0.5, -1.0, -2.0):
        rep = verify_integrand_equivalence(x0, n_states=1000)
        worst = min(worst, rep.worst_margin)
        fails += not rep.passed
    record("4 (integrand equivalence)", fails == 0,
           f"1000 random states per curve at 4 x0, agreement tol 1e-12*max(1, |x0|^(2/3)), "
           f"worst margin {worst:.2e}; {fails} failures")


# -- criterion 5: quadrature-level trace inequalities ------------------------

def test_criterion_5_trace_inequalities():
    worst = math.inf
    fails = 0
    for x0 in (-0.3, -0.5, -1.0):
        rep = verify_trace_inequalities(x0, n_traces=1000)
        worst = min(worst, rep.worst_margin)
        fails += not rep.passed
    record("5 (trace inequalities)", fails == 0,
           f"1000 random bundles x eps in {{0.5,1,2}} at 3 x0, "
           f"worst margin {worst:.2e} (tol -1e-10); {fails} failures")


# -- criterion 6: star-shapedness under the dilation flow --------------------

def test_criterion_6_star_shaped():
    worst = math.inf
    fails = 0
    for x0 in (-0.25, -0.5, -1.0, -2.0):
        rep = verify_star_shaped(TricomiDomain(x0), 200, 50)
        worst = min(worst, rep.worst_margin)
        fails += not rep.passed
    dom = TricomiDomain(-0.5)
    control = verify_star_shaped(dom, 200, 50,
                                 membership=reflected_membership(dom))
    ok = fails == 0 and not control.passed
    record("6 (star-shapedness)", ok,
           f"198 boundary points x 51 flow times at 4 x0, worst slack "
           f"{worst:.2e} (tol -1e-10); {fails} failures; reflected control "
           f"{'fails as required' if not control.passed else 'unexpectedly passes'}")


# -- criteria 7/8: eigensolver and identity/bound ----------------------------

@pytest.fixture(scope="module")
def eigen_runs():
    out = {}
    dom = TricomiDomain(-0.5)
    for n in (64, 128):
        t0 = time.perf_counter()
        grid = Grid.build(dom, n, n)
        op = assemble(grid)
        pairs, _ = solve_real_spectrum(op, 4)
        pairs = [p for p in pairs if p.lam > 0]
        pair = pairs[0]
        traces, norms = trace_norms(pair)
        identity = pohozaev_residual(pair.lam, traces)
        bound = bound_check(pair.lam, norms, ledger(-0.5), rel_tol=1e-2)
        out[n] = {
            "pair": pair,
            "identity": identity,
            "bound": bound,
            "wall": time.perf_counter() - t0,
        }
    out["dom"] = dom
    return out


def _interior_truncation(dom, n):
    grid = Grid.build(dom, n, n)
    op = assemble(grid)
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    U = np.sin(1.7 * X + 0.3) * np.sin(1.3 * Y - 0.2)
    TU = Y * 1.7**2 * U + 1.3**2 * U
    r = op.matrix @ op.to_vector(U) - op.to_vector(TU)
    return float(np.max(np.abs(r[op.full_stencil])))


def test_criterion_7_eigensolver_consistency(eigen_runs):
    dom = eigen_runs["dom"]
    e1 = _interior_truncation(dom, 64)
    e2 = _interior_truncation(dom, 128)
    order = math.log2(e1 / e2)
    order_ok = order >= 1.8

    lam_ok = all(eigen_runs[n]["pair"].lam > 0.0 for n in (64, 128))
    res_ok = all(eigen_runs[n]["pair"].residual <= 1e-8 for n in (64, 128))
    wall_ok = eigen_runs[128]["wall"] < 120.0

    neg_ratios = {}
    for n in (64, 128):
        F = eigen_runs[n]["pair"].field
        neg_ratios[n] = float(np.min(F)) / float(np.max(F))
    nonneg_ok = all(r >= -1e-6 for r in neg_ratios.values())

    ok = order_ok and lam_ok and res_ok and wall_ok and nonneg_ok
    record("7 (eigensolver consistency)", ok,
           f"interior order {order:.2f} (>=1.8: {order_ok}); "
           f"lambda0 positive at 64^2/128^2: {lam_ok} "
           f"({eigen_runs[64]['pair'].lam:.5f}, {eigen_runs[128]['pair'].lam:.5f}); "
           f"residual <= 1e-8: {res_ok}; wall 128^2 "
           f"{eigen_runs[128]['wall']:.1f}s (<120s: {wall_ok}); "
           f"nonnegativity min/max >= -1e-6: {nonneg_ok} "
           f"(measured {neg_ratios[64]:.1e} at 64^2, {neg_ratios[128]:.1e} at "
           f"128^2 -- known limitation of the non-positivity-preserving "
           f"hyperbolic stencil, kept red deliberately)")


def test_criterion_8_identity_and_bound(eigen_runs):
    r64 = eigen_runs[64]["identity"]["relative_residual"]
    r128 = eigen_runs[128]["identity"]["relative_residual"]
    decreasing = r128 < r64
    sat = all(eigen_runs[n]["bound"]["satisfied"] for n in (64, 128))
    b = eigen_runs[128]["bound"]
    record("8 (identity and bound)", decreasing and sat,
           f"identity residual {r64:.4f} -> {r128:.4f} "
           f"({'decreases' if decreasing else 'does not decrease'}); "
           f"bound satisfied at rel tol 1e-2 on both meshes: {sat} "
           f"(128^2: lhs {b['lhs']:.3f} <= rhs {b['rhs']:.3f})")


# -- criterion 9: CLI determinism and exit contract --------------------------

def _cli(*args):
    return subprocess.run([sys.executable, "-m", "tricomi.cli", *args],
                          capture_output=True)


def test_criterion_9_cli_contract():
    golden = [
        ("constants", "--x0-range", "-2:-0.1:5", "--format", "csv"),
        ("verify", "g1-bounds", "--x0", "-0.5", "--grid", "2000"),
        ("eigen", "--x0", "-0.5", "--nx", "64", "--ny", "64", "--count", "2"),
        ("plot", "h", "--x0", "-0.5"),
    ]
    deterministic = True
    for cmd in golden:
        a, b = _cli(*cmd), _cli(*cmd)
        if a.stdout != b.stdout or not a.stdout or a.returncode != 0:
            deterministic = False

    rc_pass = _cli("verify", "starshape", "--x0", "-0.5",
                   "--grid", "2000").returncode
    rc_fail = _cli("verify", "starshape", "--x0", "-0.5", "--grid", "2000",
                   "--reflected").returncode
    rc_usage = _cli("verify", "starshape", "--x0", "0.5").returncode
    fail_json_ok = True
    proc = _cli("verify", "starshape", "--x0", "-0.5", "--grid", "2000",
                "--reflected")
    try:
        json.loads(proc.stderr)
    except json.JSONDecodeError:
        fail_json_ok = False

    exit_ok = (rc_pass, rc_fail, rc_usage) == (0, 1, 2)
    record("9 (CLI contract)", deterministic and exit_ok and fail_json_ok,
           f"4 golden commands byte-identical across runs: {deterministic}; "
           f"exit codes (pass, failed check, usage) = "
           f"({rc_pass}, {rc_fail}, {rc_usage}), expected (0, 1, 2); "
           f"diagnostic stderr is JSON: {fail_json_ok}")
