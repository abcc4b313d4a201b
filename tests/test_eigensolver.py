"""Discretized operator: grids, stencils, manufactured solutions, eigenpairs."""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from tricomi import (
    Dilation,
    EigenPair,
    Grid,
    TricomiDomain,
    VerificationReport,
    area_l2_norm_sq,
    assemble,
    bc_trace,
    bound_check,
    field_csv,
    norm_bundle_from_traces,
    pohozaev_residual,
    sigma_trace,
    solve_real_spectrum,
    trace_norms,
)
from tricomi.constants import ledger

X0 = -0.5


@pytest.fixture(scope="module")
def dom():
    return TricomiDomain(X0)


@pytest.fixture(scope="module")
def grid64(dom):
    return Grid.build(dom, 64, 64)


@pytest.fixture(scope="module")
def op64(grid64):
    return assemble(grid64)


@pytest.fixture(scope="module")
def solved64(op64):
    return solve_real_spectrum(op64, 4)


class TestGrid:
    def test_too_coarse_rejected(self, dom):
        with pytest.raises(ValueError):
            Grid.build(dom, 16, 64)
        with pytest.raises(ValueError):
            Grid.build(dom, 64, 16)

    def test_box_covers_domain(self, dom, grid64):
        assert grid64.xs[0] < 2.0 * X0 and grid64.xs[-1] > 0.0
        assert grid64.ys[0] < dom.y_C and grid64.ys[-1] > float(dom.g(X0))

    def test_inside_flags(self, dom, grid64):
        ii, jj = np.nonzero(grid64.inside)
        for i, j in zip(ii[::97], jj[::97]):
            assert dom.contains((grid64.xs[i], grid64.ys[j]))

    def test_labels_populated_by_assembly(self, dom):
        grid = Grid.build(dom, 64, 64)
        snapshot = [a.copy() for a in (grid.xs, grid.ys, grid.inside)]
        assemble(grid)
        # Assembly leaves the frozen grid as it was.
        for a, b in zip((grid.xs, grid.ys, grid.inside), snapshot):
            assert np.array_equal(a, b)


class TestConsistency:
    def test_annihilates_constants(self, op64):
        r = op64.matrix @ np.ones(op64.n)
        scale = 1.0 / op64.grid.hx**2
        assert float(np.max(np.abs(r[op64.full_stencil]))) <= 1e-10 * scale

    def test_quadratic_exact_on_full_stencils(self, dom, grid64, op64):
        # u = x^2 + 2 y^2 has T u = -2y - 4 reproduced exactly by centered
        # differences; the dissipation term annihilates quadratics too.
        X, Y = np.meshgrid(grid64.xs, grid64.ys, indexing="ij")
        U = X**2 + 2.0 * Y**2
        F = -2.0 * Y - 4.0
        r = op64.matrix @ op64.to_vector(U) - op64.to_vector(F)
        scale = 1.0 / grid64.hx**2
        assert float(np.max(np.abs(r[op64.full_stencil]))) <= 1e-9 * scale

    @pytest.mark.parametrize("n, x0, nnz, sum_sq, bilinear", [
        (64, -0.5, 17710, 448147327040.05164, 44441.779871381),
        (96, -1.0, 40721, 647056281324.953, 280936.34888713673),
    ])
    def test_matrix_values_pinned(self, n, x0, nnz, sum_sq, bilinear):
        # Frozen regression anchor over every row, cut cells and one-sided
        # rows included (the checks above see only full-stencil rows).
        d = TricomiDomain(x0)
        A = assemble(Grid.build(d, n, n)).matrix
        k = np.arange(A.shape[0])
        v, w = np.cos(0.37 * k), np.sin(0.11 * k + 0.5)
        assert A.nnz == nnz
        assert float(np.sum(A.data**2)) == pytest.approx(sum_sq, rel=1e-12)
        assert float(w @ (A @ v)) == pytest.approx(bilinear, rel=1e-12)

    def test_odd_ny_pattern_moves_with_x0(self):
        # On an odd ny the middle row holds y = 0 at some x0 and about
        # -1e-16 at others, which turns the damping of that whole row on or
        # off: 65x47 keeps its unknowns but not its pattern across x0.  The
        # CLI solves at x0 = -1 only.
        ops = [assemble(Grid.build(TricomiDomain(x0), 65, 47))
               for x0 in (-0.5, -0.125, -2.0, -1.0)]
        assert len({op.n for op in ops}) == 1
        assert [op.matrix.nnz for op in ops] == [13163, 13163, 12805, 12805]

    def test_interior_order_at_least_1_8(self, dom):
        def truncation(n):
            grid = Grid.build(dom, n, n)
            op = assemble(grid)
            X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
            U = np.sin(1.7 * X + 0.3) * np.sin(1.3 * Y - 0.2)
            TU = (Y * (-1.7**2) * U * -1.0) - (-(1.3**2) * U)
            r = op.matrix @ op.to_vector(U) - op.to_vector(TU)
            return float(np.max(np.abs(r[op.full_stencil])))

        e1, e2 = truncation(64), truncation(128)
        order = math.log2(e1 / e2)
        assert order >= 1.8, f"observed interior order {order:.3f}"


class TestSpectrum:
    def test_count_validation(self, op64):
        with pytest.raises(ValueError):
            solve_real_spectrum(op64, 0)

    def test_principal_eigenvalue(self, solved64):
        pairs, _ = solved64
        assert pairs, "no real eigenpair found"
        lam0 = pairs[0].lam
        assert lam0 > 0.0
        # Frozen regression anchor for x0 = -1/2 on the 64x64 grid.
        assert lam0 == pytest.approx(6.37551, rel=1e-4)

    def test_residuals_and_normalization(self, solved64, grid64):
        from tricomi.pohozaev import area_l2_norm_sq
        pairs, _ = solved64
        for p in pairs:
            assert p.residual <= 1e-8
        F = pairs[0].field
        assert area_l2_norm_sq(grid64, F) == pytest.approx(1.0, rel=1e-10)
        assert float(np.sum(F)) >= 0.0

    def test_dilation_self_similarity(self):
        # x -> |x0| x, y -> |x0|^(2/3) y maps the x0 = -1 problem, grid and
        # all, onto any x0: lambda scales as |x0|^(-4/3) and the unit-norm
        # field as |x0|^(-5/6).
        scaled = []
        for x0 in (-0.05, -0.5, -4.0):
            d = TricomiDomain(x0)
            pair = solve_real_spectrum(assemble(Grid.build(d, 64, 64)), 1)[0][0]
            scaled.append((pair.lam * abs(x0) ** (4.0 / 3.0),
                           abs(x0) ** (5.0 / 6.0) * pair.field))
        lam, F = scaled[0]
        for lam_i, F_i in scaled[1:]:
            assert lam_i == pytest.approx(lam, rel=1e-10)
            assert np.max(np.abs(F_i - F)) <= 1e-10 * np.max(np.abs(F))

    @pytest.mark.parametrize("n, lam_eps", [
        (64, 6.375505190816736), (128, 6.2637608288653155)])
    def test_ritz_tolerance_keeps_seed_accuracy(self, dom, n, lam_eps):
        # lam_eps: the principal eigenvalue when ARPACK iterated to machine
        # epsilon (tol=0).  The 1e-12 Ritz tolerance moves it in the last
        # digits only, and keeps the spectrum's shape and every residual.
        pairs, complex_diag = solve_real_spectrum(
            assemble(Grid.build(dom, n, n)), 4)
        assert len(pairs) == 1 and len(complex_diag) == 3
        assert pairs[0].lam == pytest.approx(lam_eps, rel=1e-13)
        assert all(p.residual <= 1e-10 for p in pairs)

    def test_determinism(self, dom, op64, solved64):
        pairs2, _ = solve_real_spectrum(op64, 4)
        pairs1, _ = solved64
        assert pairs1[0].lam == pairs2[0].lam
        assert np.array_equal(pairs1[0].field, pairs2[0].field)


def _count_lu(monkeypatch):
    """Count the factorizations (`splu`, wherever scipy's eigs would look it
    up too) and the solves on their factors."""
    import sys

    import scipy.sparse.linalg as spla
    calls = {"splu": 0, "solve": 0}
    splu = spla.splu

    class Counted:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, b, *args):
            calls["solve"] += 1
            return self._lu.solve(b, *args)

    def counted(*args, **kwargs):
        calls["splu"] += 1
        return Counted(splu(*args, **kwargs))

    for module in (spla, sys.modules[spla.eigs.__module__]):
        monkeypatch.setattr(module, "splu", counted)
    return calls


def _record_splu(monkeypatch):
    """Record each `splu` call's matrix and keyword arguments."""
    import scipy.sparse.linalg as spla
    splu, factored = spla.splu, []

    def recording(M, **kwargs):
        factored.append((M, kwargs))
        return splu(M, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    return factored


class TestPrincipalOnly:
    # `principal_only`: one loose pass picks the principal pair and returns
    # it with its residual, which converges to rounding on a healthy mesh.
    @pytest.mark.parametrize("n, spurious_first", [(64, False), (80, True), (112, True)])
    def test_matches_default_principal(self, dom, n, spurious_first):
        op = assemble(Grid.build(dom, n, n))
        real, _ = solve_real_spectrum(op, 4)
        # At 80^2 and 112^2 a spurious negative mode lies nearer the shift.
        assert (real[0].lam < 0.0) == spurious_first
        want = next(p for p in real if p.lam > 0.0)
        pairs, _ = solve_real_spectrum(op, 4, principal_only=True)
        assert len(pairs) == 1
        got = pairs[0]
        assert got.lam == pytest.approx(want.lam, rel=1e-11)
        assert np.max(np.abs(got.field - want.field)) <= 1e-10 * np.max(np.abs(want.field))
        assert got.residual <= 1e-10

    def test_no_principal_among_count_pairs(self, dom, monkeypatch):
        # At 80^2 the one pair nearest the shift is the spurious negative mode.
        op = assemble(Grid.build(dom, 80, 80))
        real, _ = solve_real_spectrum(op, 1)
        assert real and all(p.lam < 0.0 for p in real)
        # The loose pass is the only one, and it has no positive pair.
        import scipy.sparse.linalg as spla

        from tricomi.eigensolver import _PICK_TOL
        calls = _count_lu(monkeypatch)
        eigs, tols = spla.eigs, []

        def recording(*args, **kwargs):
            tols.append(kwargs["tol"])
            return eigs(*args, **kwargs)

        monkeypatch.setattr(spla, "eigs", recording)
        assert solve_real_spectrum(op, 1, principal_only=True)[0] == []
        assert tols == [_PICK_TOL] and calls["splu"] == 1

    @pytest.mark.parametrize("principal_only", [False, True])
    def test_one_factorization_per_call(self, op64, monkeypatch, principal_only):
        calls = _count_lu(monkeypatch)
        solve_real_spectrum(op64, 4, principal_only=principal_only)
        assert calls["splu"] == 1
        if principal_only:
            # The loose pass; the full 4-pair solve takes 58.
            assert calls["solve"] == 21

    @pytest.mark.parametrize("argv, written", [
        (("bound",), '"passed": true'),
        (("plot", "eigen"), "principal eigenfunction"),
        (("eigen", "--format", "csv"), "x,y,u\n"),
    ], ids=["bound", "plot-eigen", "eigen-csv"])
    def test_cli_is_principal_only(self, monkeypatch, tmp_path, argv, written):
        # `bound` (64^2), `plot eigen` (48^2) and `eigen --format csv` (64^2)
        # solve for the principal pair alone: one LU and the loose pass's 21
        # solves (the 4-pair solve takes 58, 47 and 58).
        from tricomi.cli import run
        calls = _count_lu(monkeypatch)
        path = tmp_path / "out"
        assert run([*argv, "--x0", "-0.5", "--out", str(path)]) == 0
        assert written in path.read_text()
        assert calls["splu"] == 1
        assert calls["solve"] == 21

    def test_unconverged_pick_is_refused(self, capsys, monkeypatch, tmp_path):
        # At 40^2 the pick is the 4th Ritz value, a wrong mode (lambda
        # |x0|^(4/3) = 5.79) that the loose pass leaves at a residual of
        # 9.5e-6 |lambda|: one LU and its 21 solves, one pair normalized,
        # the page written and the exit 1.
        import tricomi.eigensolver as eigensolver
        from tricomi.cli import run
        calls = _count_lu(monkeypatch)
        norm_sq, normalized = eigensolver.area_l2_norm_sq, []

        def counted(*args):
            normalized.append(1)
            return norm_sq(*args)

        monkeypatch.setattr(eigensolver, "area_l2_norm_sq", counted)
        path = tmp_path / "page.svg"
        assert run(["plot", "eigen", "--x0", "-0.5", "--nx", "40", "--ny", "40",
                    "--out", str(path)]) == 1
        assert calls["splu"] == 1 and calls["solve"] == 21
        assert len(normalized) == 1
        assert "principal eigenfunction" in path.read_text()
        line, = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "eigen residual above tolerance"

    @pytest.mark.parametrize("n, x0", [
        (64, -4.0), (64, -1.0), (64, -0.5), (64, -0.05),
        (80, -0.5), (112, -0.5), (128, -0.5)])
    def test_pick_converges_to_rounding(self, n, x0):
        # LP3/LP4: a healthy principal pair is the Ritz value nearest the
        # shift, so the loose pass alone brings its backward error
        # |Av - lambda v| / (|A|_1 |v|) to rounding (2.7e-18 to 6.3e-17 here),
        # also at 80^2 and 112^2, where a spurious negative mode comes first.
        op = assemble(Grid.build(TricomiDomain(x0), n, n))
        (pair,), _ = solve_real_spectrum(op, 4, principal_only=True)
        v, A = op.to_vector(pair.field), op.matrix
        norm1 = np.bincount(A.indices, np.abs(A.data)).max()
        backward = np.linalg.norm(A @ v - pair.lam * v) / (norm1 * np.linalg.norm(v))
        assert backward <= 64 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [64, 80])
    def test_factors_a_minus_shift_identity(self, dom, monkeypatch, n):
        # The shift comes off the stored diagonal.  Each call factors exactly
        # the arrays of (A - shift I).tocsc() in splu's default (COLAMD)
        # column order, the second call as the first.
        import scipy.sparse as sp
        op = assemble(Grid.build(dom, n, n))
        want = (op.matrix - 1e-3 * sp.eye(op.n)).tocsc()
        factored = _record_splu(monkeypatch)
        solve_real_spectrum(op, 1)
        solve_real_spectrum(op, 1)
        assert len(factored) == 2
        for M, kwargs in factored:
            assert kwargs == {} and M.format == "csc"
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(M, name), getattr(want, name))

    def test_normalizes_only_the_principal_pair(self, dom, monkeypatch):
        # At 80^2 the loose pass finds two real pairs, the spurious negative
        # mode first; only the principal one is built.
        import scipy.sparse.linalg as spla

        import tricomi.eigensolver as eigensolver
        op = assemble(Grid.build(dom, 80, 80))
        real, _ = solve_real_spectrum(op, 4)
        assert [p.lam > 0.0 for p in real] == [False, True]
        eigs, ritz = spla.eigs, []

        def recording(*args, **kwargs):
            w, V = eigs(*args, **kwargs)
            ritz.extend(w)
            return w, V

        norm_sq, calls = eigensolver.area_l2_norm_sq, []

        def counted(*args):
            calls.append(1)
            return norm_sq(*args)

        monkeypatch.setattr(spla, "eigs", recording)
        monkeypatch.setattr(eigensolver, "area_l2_norm_sq", counted)
        pairs, _ = solve_real_spectrum(op, 4, principal_only=True)
        real_ritz = sorted((w.real for w in ritz if eigensolver._is_real(w)), key=abs)
        assert [lam > 0.0 for lam in real_ritz] == [False, True]
        assert len(calls) == 1
        assert len(pairs) == 1 and pairs[0].lam == pytest.approx(real[1].lam, rel=1e-11)
        assert np.max(np.abs(pairs[0].field - real[1].field)) <= (
            1e-10 * np.max(np.abs(real[1].field)))

    def test_default_path_is_eigs_with_sigma(self, op64, monkeypatch):
        # Factoring A - sigma I itself, the default path still gets exactly
        # the eigenpairs of scipy's own shift-invert.
        import scipy.sparse.linalg as spla

        from tricomi.eigensolver import _RITZ_TOL
        eigs, seen = spla.eigs, []

        def recording(*args, **kwargs):
            seen.append(eigs(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(spla, "eigs", recording)
        solve_real_spectrum(op64, 4)
        monkeypatch.undo()
        (w, V), = seen
        v0 = np.full(op64.n, 1.0 / math.sqrt(op64.n))
        w_ref, V_ref = spla.eigs(op64.matrix, k=4, sigma=1e-3, which="LM", v0=v0,
                                 tol=_RITZ_TOL)
        assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)


def _assert_same_solve(got, want):
    """Two solves' (pairs, complex diagnostics) are the same bit for bit."""
    (pairs, complex_diag), (want_pairs, want_complex) = got, want
    assert len(pairs) == len(want_pairs) and complex_diag == want_complex
    for p, q in zip(pairs, want_pairs):
        assert (p.lam, p.residual, p.imag) == (q.lam, q.residual, q.imag)
        assert np.array_equal(p.field, q.field)


class TestRepeatedSolve:
    # A solve depends on its operator alone: repeated on one operator, or
    # run after solves on another mesh and then on its own mesh at another
    # x0 (as many unknowns), it is the first solve bit for bit.
    @pytest.mark.parametrize("x0, nx, ny, count, principal_only", [
        (-0.5, 64, 64, 4, True), (-0.5, 80, 80, 4, True), (-0.5, 97, 61, 4, True),
        (-0.5, 65, 47, 8, True), (-0.5, 200, 40, 4, True),
        (-0.05, 64, 64, 4, True), (-4.0, 64, 64, 4, True),
        (-1e3, 48, 48, 4, True),    # the loose pick is a wrong mode, unconverged
        (-0.5, 64, 64, 4, False),   # the default count-pair path
    ])
    def test_repeat_is_the_cold_solve(self, x0, nx, ny, count, principal_only):
        op = assemble(Grid.build(TricomiDomain(x0), nx, ny))
        first = solve_real_spectrum(op, count, principal_only=principal_only)
        _assert_same_solve(solve_real_spectrum(op, count, principal_only=principal_only),
                           first)
        for other_x0, other_nx, other_ny in ((-2.0, 40, 40), (2.0 * x0, nx, ny)):
            solve_real_spectrum(assemble(Grid.build(TricomiDomain(other_x0), other_nx,
                                                    other_ny)), 1)
        _assert_same_solve(solve_real_spectrum(op, count, principal_only=principal_only),
                           first)

    def test_singular_factorization_is_named(self):
        # At x0 = -1e-120 (48^2) A - shift I is singular in floating point.
        # The solve names the failed factorization, and the next healthy
        # solve is the first one bit for bit.
        healthy = assemble(Grid.build(TricomiDomain(-0.5), 48, 48))
        first = solve_real_spectrum(healthy, 4, principal_only=True)
        op = assemble(Grid.build(TricomiDomain(-1e-120), 48, 48))
        with pytest.raises(RuntimeError) as exc:
            solve_real_spectrum(op, 4, principal_only=True)
        assert str(exc.value).startswith("shift-invert factorization failed (")
        _assert_same_solve(solve_real_spectrum(healthy, 4, principal_only=True), first)


def test_arpack_error_is_not_a_factorization_failure(monkeypatch):
    # Only the factorization's RuntimeError is renamed; an ARPACK error
    # leaves the solve as it was raised.
    import scipy.sparse.linalg as spla
    op = assemble(Grid.build(TricomiDomain(-0.5), 40, 40))
    error = spla.ArpackNoConvergence("No convergence",
                                     np.empty(0), np.empty((op.n, 0)))

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(spla, "eigs", failing)
    with pytest.raises(spla.ArpackNoConvergence) as exc:
        solve_real_spectrum(op, 4, principal_only=True)
    assert exc.value is error


def test_bound_takes_one_mask_pass_per_mesh(monkeypatch, tmp_path):
    # A 64^2 `bound` evaluates the slack twice: on Grid.build's tensor grid
    # (the node mask) and on the area norm's cut-cell sub-samples.  The area
    # norm reads its corners from grid.inside.
    from tricomi.cli import run
    slack, calls = TricomiDomain.membership_slack, []

    def counted(self, p):
        calls.append(np.broadcast_shapes(np.shape(p[0]), np.shape(p[1])))
        return slack(self, p)

    monkeypatch.setattr(TricomiDomain, "membership_slack", counted)
    assert run(["bound", "--x0", "-0.5", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 2 and calls[0] == (64, 64)


class TestTraces:
    def test_sigma_trace_is_dirichlet_zero(self, solved64):
        pairs, _ = solved64
        traces, _ = trace_norms(pairs[0])
        assert np.all(traces["Sigma"].u == 0.0)
        assert np.all(np.isfinite(traces["BC"].u))

    def test_trace_norms_returns_traces_and_bundle(self, solved64):
        pairs, _ = solved64
        pair = pairs[0]
        before = copy.deepcopy(vars(pair))    # the field and the grid too
        traces, bundle = trace_norms(pair)
        assert set(traces) == {"BC", "Sigma"}
        assert bundle == norm_bundle_from_traces(traces["BC"], traces["Sigma"])
        assert bundle.w_ux_L2_sigma > 0.0
        # The pair, and the grid it holds, are left as they were solved.
        after = vars(pair)
        assert after.keys() == before.keys()
        grid = before.pop("grid")
        assert all(np.array_equal(after[k], v) for k, v in before.items())
        assert after["grid"].dom == grid.dom
        assert (after["grid"].nx, after["grid"].ny) == (grid.nx, grid.ny)
        for name in ("xs", "ys", "inside"):
            assert np.array_equal(getattr(after["grid"], name), getattr(grid, name)), name

    def test_synthetic_linear_field(self, dom, grid64):
        # u = y: u_y = 1, u_x = 0, so the BC norm of u_y approaches the
        # square root of the BC arc length.
        Y = np.broadcast_to(grid64.ys[None, :], (grid64.nx, grid64.ny)).copy()
        pair = EigenPair(grid=grid64, lam=1.0, field=Y, residual=0.0)
        _, bundle = trace_norms(pair)
        arclen = (2.0 / 3.0) * ((1.0 - dom.y_C) ** 1.5 - 1.0)
        assert bundle.uy_L2_BC == pytest.approx(math.sqrt(arclen), rel=0.05)
        assert bundle.w_ux_L2_BC == pytest.approx(0.0, abs=1e-10)

    # float.hex of sum(ux**2), sum(uy**2) on BC and sigma of the principal
    # mode: the gradient stencils and the trace sampling are pinned bit for bit.
    # The BC samples resolve at the pull-back rungs 1 and 2 (64^2, x0 = -0.5),
    # 1, 2 and 4 (96^2, x0 = -1) and 1, 2, 5 and 6 (64^2, x0 = -0.819...).
    @pytest.mark.parametrize("n,x0,bc,sigma", [
        (64, -0.5, ("0x1.fc2113a4d8146p+12", "0x1.a7d2ad46e6faap+11"),
         ("0x1.36c325452183ap+15", "0x1.20b32b3fb3991p+9")),
        (96, -1.0, ("0x1.8d30ee8d74ed7p+9", "0x1.335a5e5a0e16dp+9"),
         ("0x1.4575f574e80bfp+12", "0x1.14bb6f40cc4cbp+6")),
        (64, -0.8191404571111102, ("0x1.8e8fb51ca525cp+10", "0x1.b431fbe9bc3d8p+9"),
         ("0x1.c37256847a21fp+12", "0x1.04de11594e4bap+7")),
    ])
    def test_trace_gradients_pinned(self, n, x0, bc, sigma):
        d = TricomiDomain(x0)
        op = assemble(Grid.build(d, n, n))
        pairs, _ = solve_real_spectrum(op, 4)
        traces, _ = trace_norms(pairs[0])
        for kind, want in (("BC", bc), ("Sigma", sigma)):
            t = traces[kind]
            got = tuple(float(np.sum(v**2)).hex() for v in (t.ux, t.uy))
            assert got == want, kind

    def test_stacked_fields_sample_as_each_alone(self, solved64):
        # Each field of a stack takes its first valid rung under its own
        # mask, bit for bit as if it were sampled on its own.  The last mask
        # drops a random 30 % of the nodes, so its rungs differ.
        from tricomi.eigensolver import _gradient_grids, _sample_inward
        pair = solved64[0][0]
        grid = pair.grid
        Ux, Uy, valid = _gradient_grids(grid, pair.field)
        thinned = valid & (np.random.default_rng(0).random(valid.shape) < 0.7)
        fields, masks = np.stack((pair.field, Ux, Uy)), np.stack((grid.inside, valid, thinned))
        bc = bc_trace(grid.dom, 400)
        nx_o, ny_o = bc.curve.normal(bc.params)
        args = (bc.x, bc.y, -nx_o, -ny_o, 2.0 * max(grid.hx, grid.hy))
        stacked = _sample_inward(grid, fields, masks, *args)
        for k in range(3):
            alone, = _sample_inward(grid, fields[k:k + 1], masks[k:k + 1], *args)
            assert np.array_equal(stacked[k], alone), k

    # A sample that no rung of the pull-back resolves must raise.  The grid
    # keeps only the nodes more than 8d left of x0, beyond the reach of the
    # last rung (6d) from BC, so no BC sample of u, u_x or u_y is resolved.
    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason=(
        "an unresolved sample reads 0 and u_L2_BC == 0.0, with no error (ROADMAP "
        "item 14(b); the CHANGES.md FOUND: on _sample_inward's silent zeros)"))
    @pytest.mark.parametrize("n, x0", [(64, -0.5), (48, -2.0)])
    def test_unresolved_samples_raise(self, n, x0):
        op = assemble(Grid.build(TricomiDomain(x0), n, n))
        (pair,), _ = solve_real_spectrum(op, 4, principal_only=True)
        grid = pair.grid
        d = 2.0 * max(grid.hx, grid.hy)
        inside = grid.inside & (grid.xs < x0 - 8.0 * d)[:, None]
        pair = dataclasses.replace(pair, grid=dataclasses.replace(grid, inside=inside))
        with pytest.raises(ValueError):
            trace_norms(pair)


class TestEndToEnd64:
    def test_identity_residual_small(self, solved64):
        pairs, _ = solved64
        pair = pairs[0]
        traces, _ = trace_norms(pair)
        out = pohozaev_residual(pair.lam, traces)
        assert out["relative_residual"] < 0.2
        assert out["rhs_BC"] > 0.0 and out["rhs_sigma"] > 0.0

    def test_bound_satisfied(self, solved64):
        pairs, _ = solved64
        pair = pairs[0]
        _, norms = trace_norms(pair)
        out = bound_check(pair.lam, norms, ledger(X0))
        assert out["satisfied"], out


def _scaled_principal(x0: float, n: int):
    """lambda |x0|^(4/3) of the principal pair at n^2, or None without one."""
    dom = TricomiDomain(x0)
    pairs, _ = solve_real_spectrum(assemble(Grid.build(dom, n, n)), 4,
                                   principal_only=True)
    return pairs[0].lam * abs(x0) ** (4.0 / 3.0) if pairs else None


def _broken(reason: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


_TOL = "contains' tolerance admits nodes outside the domain (ROADMAP item 14(c)): "
_SHIFT = "the fixed shift 1e-3 is far from lambda (ROADMAP item 14(a)): "


class TestSelfSimilarity:
    # Under (x, y) -> (|x0| x, |x0|^(2/3) y) the discrete problem is
    # self-similar, so lambda |x0|^(4/3) is x0 = -1's on the same mesh.  Each
    # broken cell is a strict xfail with its measured value: the fix that
    # mends it must flip the marker.
    @pytest.mark.parametrize("x0, n", [
        pytest.param(-1e-8, 48, marks=_broken(_TOL + "2.2626, 1792 unknowns, not 1534")),
        pytest.param(-1e-6, 48, marks=_broken(_TOL + "2.4889, 1616 unknowns, not 1534")),
        (-1e-3, 48),
        (-0.5, 48),
        pytest.param(-1e3, 48, marks=_broken(_SHIFT + "6.8396, not 2.5804")),
        pytest.param(-1e5, 48, marks=_broken(_SHIFT + "4567.1, not 2.5804")),
        pytest.param(-1e15, 48, marks=_broken(_SHIFT + "16067.9, not 2.5804")),
        pytest.param(-1e100, 48, marks=_broken(_SHIFT + "no positive real pair")),
        pytest.param(-1e-8, 64, marks=_broken(_TOL + "2.2395, 3198 unknowns, not 2758")),
        pytest.param(-1e-6, 64, marks=_broken(_TOL + "2.4218, 2896 unknowns, not 2758")),
        (-1e-3, 64),
        (-0.5, 64),
        pytest.param(-1e3, 64, marks=_broken(_SHIFT + "no positive real pair")),
        pytest.param(-1e5, 64, marks=_broken(_SHIFT + "4635.6, not 2.5301")),
        pytest.param(-1e15, 64, marks=_broken(_SHIFT + "20860.0, not 2.5301")),
        pytest.param(-1e100, 64, marks=_broken(_SHIFT + "no positive real pair")),
    ])
    def test_principal_lambda_scales_as_x0_to_the_minus_4_3(self, x0, n):
        scaled = _scaled_principal(x0, n)
        assert scaled is not None, "no positive real pair"
        assert scaled == pytest.approx(_scaled_principal(-1.0, n), rel=1e-10, abs=0.0)


# The x0 of TestSelfSimilarity.
_SELF_SIMILAR_X0 = (-1e-8, -1e-6, -1e-3, -0.5, -1e3, -1e5, -1e15, -1e100)


def _manufactured(x, y):
    """A smooth field at x0 = -1 and its gradient: (u, u_x, u_y)."""
    return (np.sin(2.0 * x + 0.3) * np.cos(1.5 * y - 0.2) + x * y,
            2.0 * np.cos(2.0 * x + 0.3) * np.cos(1.5 * y - 0.2) + y,
            -1.5 * np.sin(2.0 * x + 0.3) * np.sin(1.5 * y - 0.2) + x)


class TestDilation:
    # D(x, y) = (s x, s^(2/3) y) maps x0 = -1 onto x0, s = |x0|.  The field
    # v = s^(-5/6) u o D^-1 has v_x = s^(-11/6) u_x o D^-1 and v_y =
    # s^(-3/2) u_y o D^-1, and T v = s^(-4/3) (T u) o D^-1.
    @pytest.mark.parametrize("x0", _SELF_SIMILAR_X0)
    def test_mapped_trace_nodes_lie_on_x0s_curves(self, x0):
        dilation = Dilation(x0)
        for make in (bc_trace, sigma_trace):
            at_1, at_x0 = make(TricomiDomain(-1.0), 400), make(TricomiDomain(x0), 400)
            x, y = dilation.points(at_1.x, at_1.y)
            assert np.max(np.abs(x - at_x0.x)) <= 1e-11 * np.max(np.abs(at_x0.x))
            assert np.max(np.abs(y - at_x0.y)) <= 1e-11 * np.max(np.abs(at_x0.y))

    @pytest.mark.parametrize("x0", [-1e-6, -0.5, -1.0, -8.0, -1e3, -1e5])
    def test_traces_of_a_manufactured_field(self, x0):
        # Each of u, u_x and u_y is compared on its own, so a wrong exponent
        # of any one fails by itself (at s = 1e3 a power of s off by 1/3
        # is a factor of 10).
        s = abs(x0)
        at_1 = {kind: make(TricomiDomain(-1.0), 400) for kind, make in
                (("BC", bc_trace), ("Sigma", sigma_trace))}
        filled = {kind: t.filled(*_manufactured(t.x, t.y)) for kind, t in at_1.items()}
        mapped = Dilation(x0).traces(filled)
        for kind, t in mapped.items():
            assert t.curve.dom == TricomiDomain(x0) and len(t.params) == 400
            u, ux, uy = _manufactured(t.x / s, t.y / s ** (2.0 / 3.0))
            for got, want, power in ((t.u, u, -5.0 / 6.0), (t.ux, ux, -11.0 / 6.0),
                                     (t.uy, uy, -1.5)):
                want = want * s ** power
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), (kind, power)

    def test_mapped_overflow_names_the_field(self):
        # u_x's scale s^(-11/6) is a float at s = 1e-168, but u_x on BC,
        # mapped, is not; numpy's default errstate too.
        at_1 = {kind: make(TricomiDomain(-1.0), 40) for kind, make in
                (("BC", bc_trace), ("Sigma", sigma_trace))}
        filled = {kind: t.filled(*_manufactured(t.x, t.y)) for kind, t in at_1.items()}
        with pytest.raises(OverflowError) as exc:
            Dilation(-1e-168).traces(filled)
        assert str(exc.value) == "u_x on BC overflows a float at x0=-1e-168"

    @pytest.mark.parametrize("x0", [-1e-3, -0.5, -8.0, -1e3])
    def test_lambda_scales_as_the_operator(self, x0):
        # The FD operator at x0 is s^(-4/3) times x0 = -1's on the same
        # 64^2 mesh, up to the rounding of the cut-cell fractions, so lambda
        # and the algebraic residual take that power.
        grids = [Grid.build(TricomiDomain(v), 64, 64) for v in (-1.0, x0)]
        A1, Ax = (assemble(g).matrix for g in grids)
        assert np.array_equal(A1.indptr, Ax.indptr) and np.array_equal(A1.indices, Ax.indices)
        lam = Dilation(x0).scale("lambda")
        assert np.max(np.abs(Ax.data - lam * A1.data)) <= 1e-10 * np.max(np.abs(Ax.data))

    @pytest.mark.parametrize("x0", [-1e-3, -0.5, -8.0])
    def test_pair_keeps_the_unit_norm(self, x0):
        grid = Grid.build(TricomiDomain(-1.0), 64, 64)
        X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
        U = np.where(grid.inside, _manufactured(X, Y)[0], 0.0)
        U = U / math.sqrt(area_l2_norm_sq(grid, U))
        pair = EigenPair(grid=grid, lam=2.5, field=U, residual=1e-12, imag=0.5)
        got = Dilation(x0).pair(pair)
        s = abs(x0)
        assert got.grid.dom == TricomiDomain(x0)
        assert (got.grid.nx, got.grid.ny) == (64, 64)
        assert got.grid.inside is grid.inside
        assert np.allclose(got.grid.xs, s * grid.xs, rtol=1e-15, atol=0.0)
        assert np.allclose(got.grid.ys, s ** (2.0 / 3.0) * grid.ys, rtol=1e-15, atol=0.0)
        assert area_l2_norm_sq(got.grid, got.field) == pytest.approx(1.0, rel=1e-12)
        for name in ("lam", "residual", "imag"):
            assert getattr(got, name) == pytest.approx(
                getattr(pair, name) * s ** (-4.0 / 3.0), rel=1e-14), name

    def test_identity_at_minus_1(self):
        grid = Grid.build(TricomiDomain(-1.0), 48, 48)
        pair = EigenPair(grid=grid, lam=2.5, field=np.ones((48, 48)), residual=1e-12)
        got = Dilation(-1.0).pair(pair)
        assert (got.lam, got.residual, got.imag) == (pair.lam, pair.residual, pair.imag)
        for a, b in ((got.field, pair.field), (got.grid.xs, grid.xs), (got.grid.ys, grid.ys)):
            assert np.array_equal(a, b)

    def test_maps_only_from_minus_1(self):
        grid = Grid.build(TricomiDomain(-0.5), 48, 48)
        pair = EigenPair(grid=grid, lam=2.5, field=np.ones((48, 48)), residual=0.0)
        with pytest.raises(ValueError, match="x0 = -1"):
            Dilation(-2.0).pair(pair)
        traces, _ = trace_norms(pair)
        with pytest.raises(ValueError, match="x0 = -1"):
            Dilation(-2.0).traces(traces)

    @pytest.mark.parametrize("x0, quantity, fault", [
        (-1e-300, "lambda", "overflows"), (-1e300, "lambda", "underflows"),
        (-1e-200, "u_x", "overflows"), (-1e200, "u_x", "underflows"),
        (-1e-320, "x", "underflows"),
    ])
    def test_scale_names_the_quantity_out_of_range(self, x0, quantity, fault):
        # lambda's scale holds from about 1e-231 to 1e231, u_x's only from
        # about 1e-168 to 1e168.
        with pytest.raises(OverflowError) as exc:
            Dilation(x0).scale(quantity)
        assert str(exc.value) == (f"{quantity}'s scale |x0|^(" + {
            "lambda": "-4/3", "u_x": "-11/6", "x": "1"}[quantity]
            + f") {fault} a float at x0={x0!r}")
        if quantity == "u_x":
            assert math.isfinite(Dilation(x0).scale("lambda"))

    @pytest.mark.parametrize("x0", [0.0, 0.5, math.inf, -math.inf, math.nan])
    def test_rejects_an_x0_off_the_family(self, x0):
        with pytest.raises(ValueError):
            Dilation(x0)


# Every name the package exports: (defining module, names).  The package
# loads each on first use.
_PACKAGE_EXPORTS = (
    ("constants", ("G1", "G2", "SQRT3", "SQRT33", "X0_CRITICAL", "ConstantLedger",
                   "g1", "g2", "ledger", "optimize_epsilons")),
    ("geometry", ("BoundaryCurve", "TricomiDomain", "reflected_membership",
                  "verify_star_shaped")),
    ("pohozaev", ("BoundaryNormBundle", "BoundaryTrace", "area_l2_norm_sq", "bc_trace",
                  "bound_check", "line_integral", "norm_bundle_from_traces", "omega1",
                  "omega1_BC_simplified", "omega1_sigma_simplified", "omega2",
                  "omega2_BC_simplified", "pohozaev_residual", "sigma_trace",
                  "verify_integrand_equivalence", "verify_trace_inequalities")),
    ("report", ("VerificationReport", "reports_to_csv", "reports_to_jsonl")),
    ("verifier", ("find_inflection", "verify_G1_bounds", "verify_G2_bounds",
                  "verify_h_profile", "verify_profiles")),
    ("eigensolver", ("Dilation", "EigenPair", "Grid", "TricomiOperator", "assemble",
                     "boundary_traces", "field_csv", "solve_real_spectrum",
                     "trace_norms")),
)


class TestExport:
    def test_package_exports_resolve_to_their_modules(self):
        import sys

        import tricomi
        assert sum(len(names) for _, names in _PACKAGE_EXPORTS) == 47
        for module, names in _PACKAGE_EXPORTS + (("cli", ()),):
            mod = getattr(tricomi, module)
            assert mod is sys.modules[f"tricomi.{module}"]
            for name in names:
                assert getattr(tricomi, name) is getattr(mod, name), name
        # Every package name is public in its own module.
        for name, module in tricomi._EXPORTS.items():
            assert name in getattr(tricomi, module).__all__, name
        # The eigensolver names are exactly eigensolver's public API.
        eigensolver_names, = (names for module, names in _PACKAGE_EXPORTS
                              if module == "eigensolver")
        assert set(eigensolver_names) == set(tricomi.eigensolver.__all__)
        with pytest.raises(AttributeError):
            tricomi.no_such_name

    def test_csv_shape(self, grid64, solved64):
        pairs, _ = solved64
        text = field_csv(pairs[0])
        lines = text.splitlines()
        assert text.endswith("\n")
        assert lines[0] == "x,y,u"
        assert len(lines) == 1 + grid64.nx * grid64.ny
        i, j = 5, 7
        assert lines[1 + i * grid64.ny + j] == ",".join(
            format(float(v), ".17g")
            for v in (grid64.xs[i], grid64.ys[j], pairs[0].field[i, j]))


class TestRecords:
    # Records are values: each is complete when built and never set after.
    @pytest.mark.parametrize("make, name", [
        (lambda op: EigenPair(grid=op.grid, lam=1.0, field=np.zeros((2, 2)), residual=0.0),
         "lam"),
        (lambda op: op, "matrix"),
        (lambda op: VerificationReport(claim_id="c", x0=-0.5, grid_size=1,
                                       worst_margin=0.0, worst_location=-0.5,
                                       passed=True), "passed"),
        (lambda op: Dilation(-0.5), "x0"),
    ], ids=["EigenPair", "TricomiOperator", "VerificationReport", "Dilation"])
    def test_frozen(self, op64, make, name):
        record = make(op64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
