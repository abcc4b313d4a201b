"""Boundary integrands, arc-length quadrature, identity and bound machinery."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from tricomi import (
    TricomiDomain,
    bc_trace,
    bound_check,
    line_integral,
    norm_bundle_from_traces,
    omega1,
    omega1_BC_simplified,
    omega1_sigma_simplified,
    omega2,
    omega2_BC_simplified,
    pohozaev_residual,
    sigma_trace,
    verify_integrand_equivalence,
    verify_trace_inequalities,
)
from tricomi.constants import G1, G2, ledger
from tricomi.eigensolver import Grid
from tricomi.pohozaev import _SUBSAMPLES, _identity_integrals, area_l2_norm_sq


def ones(trace):
    """Unit values at the trace's nodes: their line integral is the arc length."""
    return np.ones_like(trace.x)


@pytest.fixture(params=[-0.5, -1.0])
def dom(request):
    return TricomiDomain(request.param)


# The tolerance 1e-12 * max(1, |x0|^(2/3)) as the notes print it, where it is not 1e-12.
_INTEGRAND_TOL = {-4.0: "2.51984e-12", -17.0: "6.61149e-12"}


class TestIntegrands:
    def test_omega1_bc_is_perfect_square(self, dom):
        rng = np.random.default_rng(0)
        y = rng.uniform(dom.y_C, 0.0, 500)
        ux, uy = rng.uniform(-3.0, 3.0, (2, 500))
        vals = omega1_BC_simplified(y, ux, uy)
        assert np.all(vals >= 0.0)
        # The square vanishes exactly on the characteristic direction.
        assert np.allclose(omega1_BC_simplified(y, ux, -np.sqrt(-y) * ux),
                           0.0, atol=1e-12)

    def test_bc_forms_vanish_at_sonic_line(self, dom):
        assert omega1_BC_simplified(0.0, 1.3, -0.4) == 0.0
        assert omega2_BC_simplified(0.0, 0.7, 1.3, -0.4) == 0.0

    def test_bc_forms_reject_positive_y(self):
        with pytest.raises(ValueError):
            omega1_BC_simplified(0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            omega2_BC_simplified(0.1, 1.0, 1.0, 1.0)

    def test_omega_general_requires_unit_normal(self):
        with pytest.raises(ValueError):
            omega1((0.0, 1.0), (1.0, 1.0), (0.5, 0.0))
        with pytest.raises(ValueError):
            omega2((0.0, 1.0), 1.0, (1.0, 1.0), (2.0, 0.0), 0.0)

    def test_sigma_form_antisymmetric_part(self, dom):
        # Swapping (ux, uy) -> (uy, -ux) flips the sign of the G1 part only;
        # check against direct evaluation.
        x = np.array([1.2 * dom.x0, dom.x0, 0.4 * dom.x0])
        v = omega1_sigma_simplified(x, 0.0, 1.0, dom)
        from tricomi.constants import G1
        assert np.allclose(v, -np.asarray(G1(dom, x)), rtol=1e-13)

    @pytest.mark.parametrize("x0", [-0.3, -0.5, -0.8, -1.5])
    def test_equivalence_report(self, x0):
        rep = verify_integrand_equivalence(x0, n_states=300)
        assert rep.passed, rep.notes

    @pytest.mark.parametrize("x0, seed, n_states, margin, location, worst", [
        (-0.05, 1, 300, "0x1.19659812dea11p-40", "-0x1.e16bd82a8b3e4p-5", "omega1_sigma"),
        (-0.3, 2, 10, "0x1.1962e87ce8271p-40", "-0x1.f03c06f6580a1p-3", "omega1_BC"),
        (-0.5, 0, 1000, "0x1.19299812dea11p-40", "-0x1.cca3afcb00dbcp-1", "omega1_sigma"),
        (-1.0, 11, 1, "0x1.19669cab32bf4p-40", "-0x1.862906dcb1e89p-1", "omega1_BC"),
        (-4.0, 3, 300, "0x1.6242e12915e23p-39", "-0x1.96d98dcd00c3ep+1", "omega2_BC"),
        (-17.0, 0, 300, "0x1.d0b79f714c397p-38", "-0x1.c3fc6d01918eep+3", "omega2_BC"),
    ])
    def test_equivalence_report_pinned(self, x0, seed, n_states, margin, location, worst):
        # Values of the closure-tracking implementation: same draws, same
        # checks in the same order, same first-worst tie-break.
        rep = verify_integrand_equivalence(x0, n_states=n_states, seed=seed)
        assert float(rep.worst_margin).hex() == margin
        assert float(rep.worst_location).hex() == location
        assert rep.notes == f"tolerance={_INTEGRAND_TOL.get(x0, '1e-12')}; worst: {worst}"
        assert rep.passed and rep.grid_size == 2 * n_states

    @pytest.mark.parametrize("x0", [-1e5, -1e8, -1e15])
    def test_tolerance_scales_with_x0(self, x0):
        # On BC the general omega2 adds F terms of size |y_C| ~ |x0|^(2/3)
        # that cancel, so its rounding error grows like |x0|^(2/3).
        rep = verify_integrand_equivalence(x0)
        assert rep.passed, rep.notes
        assert rep.notes.startswith(f"tolerance={1e-12 * abs(x0) ** (2.0 / 3.0):g}; ")


class TestQuadrature:
    def test_bc_arc_length(self, dom):
        tr = bc_trace(dom, 4001)
        exact = (2.0 / 3.0) * ((1.0 - dom.y_C) ** 1.5 - 1.0)
        assert line_integral(tr, ones(tr)) == pytest.approx(exact, rel=1e-7)

    def test_bc_trapezoid_second_order(self, dom):
        exact = (2.0 / 3.0) * ((1.0 - dom.y_C) ** 1.5 - 1.0)
        t1, t2 = bc_trace(dom, 65), bc_trace(dom, 129)
        e1 = abs(line_integral(t1, ones(t1)) - exact)
        e2 = abs(line_integral(t2, ones(t2)) - exact)
        assert e1 / e2 > 3.0

    def test_sigma_arc_length_converges(self, dom):
        # Reference by adaptive quadrature in the graded variable.
        curve = dom.boundary_curve("Sigma")
        a, b = curve.param_range

        def integrand(t):
            return float(curve.arc_element(t))

        ref = quad(integrand, a, b, points=[a, b], limit=200)[0]
        t1, t2 = sigma_trace(dom, 400), sigma_trace(dom, 1600)
        v1 = line_integral(t1, ones(t1))
        v2 = line_integral(t2, ones(t2))
        assert v2 == pytest.approx(ref, rel=1e-5)
        assert abs(v2 - ref) < abs(v1 - ref)

    def test_sigma_arc_length_frozen(self):
        dom = TricomiDomain(-0.5)
        tr = sigma_trace(dom, 2000)
        v = line_integral(tr, ones(tr))
        assert v == pytest.approx(2.1822469, rel=1e-5)

    def test_bc_omega1_constant_ux_closed_form(self, dom):
        # ux = 1, uy = 0: the arc elements cancel and the integral is
        # (8/7) (-y_C)^(7/2).
        n = 4001
        tr = bc_trace(dom, n).filled(ux=np.ones(n))
        val = line_integral(tr, omega1_BC_simplified(tr.y, tr.ux, tr.uy))
        exact = (8.0 / 7.0) * (-dom.y_C) ** 3.5
        assert val == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("make", [bc_trace, sigma_trace])
    def test_batched_trace_matches_rows(self, dom, make):
        rng = np.random.default_rng(3)
        u, ux, uy = rng.uniform(-1.0, 1.0, (3, 5, 48))
        integral = lambda tr: line_integral(
            tr, tr.u * tr.ux + np.abs(tr.y) * tr.uy**2 - tr.x * tr.ux)
        tr = make(dom, 48)
        batched = integral(tr.filled(u=u, ux=ux, uy=uy))
        rows = [integral(tr.filled(u=u[k], ux=ux[k], uy=uy[k])) for k in range(5)]
        assert batched.shape == (5,)
        assert batched.tolist() == rows

    def test_too_few_nodes(self, dom):
        tr = bc_trace(dom, 8)
        tr2 = bc_trace(dom, 2)
        line_integral(tr, ones(tr))
        with pytest.raises(ValueError):
            line_integral(tr2, ones(tr2))

    def test_trace_validation(self, dom):
        curve = dom.boundary_curve("BC")
        from tricomi.pohozaev import BoundaryTrace
        y = np.linspace(dom.y_C, 0.0, 9)
        w = np.ones(9)
        with pytest.raises(ValueError):   # non-monotone nodes
            BoundaryTrace(curve, y[::-1], w, y, y, y)
        with pytest.raises(ValueError):   # out of range
            BoundaryTrace(curve, y + 1.0, w, y, y, y)
        bad = y.copy()
        bad[3] = np.nan
        with pytest.raises(ValueError):   # non-finite field
            BoundaryTrace(curve, y, w, bad, y, y)

    def test_filled_shares_geometry(self, dom):
        # A filled copy keeps the nodes' positions and arc element (the
        # same arrays, not recomputed), takes the new fields, keeps the
        # others, and still rejects non-finite values.
        tr = sigma_trace(dom, 40)
        ux = np.linspace(1.0, 2.0, 40)
        out = tr.filled(ux=ux)
        assert out.x is tr.x and out.y is tr.y and out.arc is tr.arc
        assert out.ux is ux and out.uy is tr.uy and out.u is tr.u
        assert np.all(tr.ux == 0.0)
        bad = ux.copy()
        bad[3] = np.inf
        with pytest.raises(ValueError):
            tr.filled(uy=bad)


def _reference_forms(bc, sg):
    """The three simplified integrands on the traces' nodes, each written
    as one expression from y, g, G1 and G2."""
    y, my = bc.y, np.abs(np.minimum(bc.y, 0.0))
    w1 = 4.0 * my**1.5 / np.sqrt(1.0 - y) * (np.sqrt(my) * bc.ux + bc.uy) ** 2
    w2 = -np.sqrt(my) / np.sqrt(1.0 - y) * bc.u * (np.sqrt(my) * bc.ux + bc.uy)
    dom, x = sg.curve.dom, sg.x
    g = dom.g(x)
    G1v, G2v = G1(dom, x), G2(dom, x)
    w3 = G1v * g * sg.ux**2 + G2v * np.sqrt(g) * sg.ux * sg.uy - G1v * sg.uy**2
    return w1, w2, w3


class TestTraceGeometry:
    """A trace computes its curve's geometry once; the identity reads its
    coefficients and gives the public forms' integrals bit for bit."""

    @pytest.mark.parametrize("x0", [-4.0, -0.5, -0.05, -1e3])
    def test_identity_is_the_public_forms_bit_for_bit(self, x0):
        dom = TricomiDomain(x0)
        u, ux, uy, vx, vy = np.random.default_rng(7).uniform(-1.0, 1.0, (5, 7, 64))
        bc = bc_trace(dom, 64).filled(u=u, ux=ux, uy=uy)
        sg = sigma_trace(dom, 64).filled(ux=vx, uy=vy)
        forms = (omega1_BC_simplified(bc.y, ux, uy),
                 omega2_BC_simplified(bc.y, u, ux, uy),
                 omega1_sigma_simplified(sg.x, vx, vy, dom))
        for form, ref in zip(forms, _reference_forms(bc, sg)):
            assert form.shape == (7, 64)
            assert form.tolist() == ref.tolist()
        got = _identity_integrals(bc, sg)
        want = (line_integral(bc, forms[0]), line_integral(bc, forms[1]),
                line_integral(sg, forms[2]))
        for a, b in zip(got, want):
            assert a.shape == (7,)
            assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("x0", [-4.0, -0.5, -0.05, -1e3])
    def test_sigma_trace_keeps_g_and_h(self, x0):
        dom = TricomiDomain(x0)
        tr = sigma_trace(dom, 400)
        curve = tr.curve
        assert tr.y is tr.g
        assert tr.x.tolist() == curve.position(tr.params)[0].tolist()
        assert tr.g.tolist() == dom.g(tr.x).tolist()
        assert tr.h.tolist() == dom.h(tr.x).tolist()
        assert tr.arc.tolist() == curve.arc_element(tr.params).tolist()
        assert tr.arc.tolist() == (1.5 * dom.h(tr.x) / dom.g(tr.x) ** 2).tolist()

    def test_sigma_g_squared_underflow_is_named(self):
        # At x0 = -1e-160 g(x)^2 is 0 at the graded end nodes, where g > 0.
        dom = TricomiDomain(-1e-160)
        curve = dom.boundary_curve("Sigma")
        for make in (lambda: sigma_trace(dom, 400),
                     lambda: curve.arc_element(-2.0 * dom.x0 * np.array([1e-9, 0.5]))):
            with pytest.raises(OverflowError) as exc:
                make()
            assert str(exc.value) == "g^2 on Sigma underflows a float at x0=-1e-160"

    def test_sigma_arc_element_at_the_endpoints_stays_infinite(self, dom):
        # g = 0 there: the singularity itself, not an underflow.
        curve = dom.boundary_curve("Sigma")
        with np.errstate(divide="ignore"):
            arc = curve.arc_element(np.array([0.0, -dom.x0, -2.0 * dom.x0]))
        assert np.isinf(arc[0]) and np.isinf(arc[2]) and np.isfinite(arc[1])


class TestNormBundle:
    def test_u_norm_on_bc_against_quadrature(self, dom):
        # u = y on BC: ||u||^2 = int y^2 sqrt(1 - y) dy.
        n = 4001
        y = np.linspace(dom.y_C, 0.0, n)
        tr = bc_trace(dom, n).filled(u=y)
        bundle = norm_bundle_from_traces(tr, sigma_trace(dom, n))
        exact = quad(lambda t: t * t * math.sqrt(1.0 - t), dom.y_C, 0.0)[0]
        assert bundle.u_L2_BC**2 == pytest.approx(exact, rel=1e-7)

    def test_weighted_ux_norm(self, dom):
        n = 4001
        tr = bc_trace(dom, n).filled(ux=np.ones(n))
        bundle = norm_bundle_from_traces(tr, sigma_trace(dom, n))
        exact = quad(lambda t: -t * math.sqrt(1.0 - t), dom.y_C, 0.0)[0]
        assert bundle.w_ux_L2_BC**2 == pytest.approx(exact, rel=1e-7)

    @pytest.mark.parametrize("curve, field, name", [
        ("BC", "u", "u"), ("BC", "ux", "u_x"), ("BC", "uy", "u_y"),
        ("Sigma", "ux", "u_x"), ("Sigma", "uy", "u_y")])
    def test_squared_overflow_names_the_field(self, dom, curve, field, name):
        # Under numpy's default error state too: no inf reaches the norms.
        n = 40
        bc, sg = bc_trace(dom, n), sigma_trace(dom, n)
        big = np.full(n, 1e200)
        if curve == "BC":
            bc = bc.filled(**{field: big})
        else:
            sg = sg.filled(**{field: big})
        with pytest.raises(OverflowError) as exc:
            norm_bundle_from_traces(bc, sg)
        assert str(exc.value) == (
            f"{name}^2 on {curve} overflows a float at x0={dom.x0!r}")

    def test_batched_bundle_matches_rows(self, dom):
        # Every field of a batched bundle equals the bundle of each row, bit
        # for bit; single traces give Python floats.
        rng = np.random.default_rng(5)
        draws = rng.uniform(-1.0, 1.0, (5, 6, 40))
        bc, sg = bc_trace(dom, 40), sigma_trace(dom, 40)
        bundle = lambda k: norm_bundle_from_traces(
            bc.filled(u=draws[0, k], ux=draws[1, k], uy=draws[2, k]),
            sg.filled(ux=draws[3, k], uy=draws[4, k]))
        batched = bundle(slice(None))
        rows = [bundle(k) for k in range(6)]
        for name, v in vars(batched).items():
            assert v.shape == (6,), name
            assert [type(getattr(r, name)) for r in rows] == [float] * 6
            assert [x.hex() for x in v.tolist()] == [
                getattr(r, name).hex() for r in rows], name


def _area_norm_reference(grid, U):
    """area_l2_norm_sq with every cell sub-sampled: one pass of the slack
    over all cells per sub-cell midpoint."""
    dom, xs, ys = grid.dom, grid.xs, grid.ys
    dx, dy = np.diff(xs), np.diff(ys)
    cell_val = 0.25 * (U[:-1, :-1] + U[1:, :-1] + U[:-1, 1:] + U[1:, 1:])
    off = (np.arange(_SUBSAMPLES) + 0.5) / _SUBSAMPLES
    frac = np.zeros((len(xs) - 1, len(ys) - 1))
    for ox in off:
        sub_x = xs[:-1] + ox * dx
        for oy in off:
            sub_y = ys[:-1] + oy * dy
            frac += dom.contains((sub_x[:, None], sub_y[None, :]))
    frac /= _SUBSAMPLES * _SUBSAMPLES
    area = dx[:, None] * dy[None, :]
    return float(np.sum(cell_val**2 * frac * area))


def _box(dom, xs, ys):
    """The Grid on nodes xs x ys, without Grid.build's resolution check."""
    return Grid(dom, len(xs), len(ys), xs, ys, dom.contains((xs[:, None], ys[None, :])))


def _padded_box(dom, nx, ny):
    """The Grid on Grid.build's box, without its resolution check."""
    y_top = dom.g(dom.x0)
    pad_x, pad_y = 0.01 * abs(2.0 * dom.x0), 0.01 * (y_top - dom.y_C)
    return _box(dom, np.linspace(2.0 * dom.x0 - pad_x, pad_x, nx),
                np.linspace(dom.y_C - pad_y, y_top + pad_y, ny))


_AREA_MESHES = ([(n, n) for n in range(32, 161, 4)]
                + [(255, 255), (320, 320), (511, 511), (200, 40), (34, 32)])


class TestAreaNorm:
    @pytest.mark.parametrize("x0", [-1e-3, -0.05, -0.5, -1.0 / math.sqrt(5.0),
                                    -1.0, -4.0, -1e3])
    def test_equals_sub_sampling_every_cell(self, x0):
        # The corner rules (fraction 1 inside, 0 far outside) skip cells the
        # reference samples; the result must not move by a bit.
        dom = TricomiDomain(x0)
        rng = np.random.default_rng(27)
        for nx, ny in _AREA_MESHES:
            grid = _padded_box(dom, nx, ny)
            U = rng.uniform(0.5, 1.5, (nx, ny))
            got = area_l2_norm_sq(grid, U)
            assert got.hex() == _area_norm_reference(grid, U).hex(), (nx, ny)

    def test_area_of_domain(self, dom):
        # U = 1: the weighted cell sum approximates |Omega|.
        grid = _box(dom, np.linspace(2.0 * dom.x0 - 0.01, 0.01, 257),
                    np.linspace(dom.y_C - 0.01, float(dom.g(dom.x0)) + 0.01, 257))
        val = area_l2_norm_sq(grid, np.ones((257, 257)))
        elliptic = quad(lambda x: float(dom.g(x)), 2.0 * dom.x0, 0.0)[0]
        hyper = quad(lambda y: -2.0 * dom.x0 - (4.0 / 3.0) * (-y) ** 1.5,
                     dom.y_C, 0.0)[0]
        assert val == pytest.approx(elliptic + hyper, rel=2e-3)

    def test_scaling(self, dom):
        grid = _box(dom, np.linspace(2.0 * dom.x0 - 0.01, 0.01, 65),
                    np.linspace(dom.y_C - 0.01, float(dom.g(dom.x0)) + 0.01, 65))
        U = np.ones((65, 65))
        v1 = area_l2_norm_sq(grid, U)
        v3 = area_l2_norm_sq(grid, 3.0 * U)
        assert v3 == pytest.approx(9.0 * v1, rel=1e-12)


class TestIdentityAndBound:
    def test_residual_requires_positive_eigenvalue(self, dom):
        traces = {"BC": bc_trace(dom, 16), "Sigma": sigma_trace(dom, 16)}
        with pytest.raises(ValueError):
            pohozaev_residual(-1.0, traces)

    def test_zero_trace_residual_is_one(self, dom):
        # Zero boundary data makes the right-hand side vanish; the relative
        # residual is then exactly 1.
        traces = {"BC": bc_trace(dom, 16), "Sigma": sigma_trace(dom, 16)}
        out = pohozaev_residual(2.0, traces)
        assert out["relative_residual"] == pytest.approx(1.0, rel=1e-15)
        assert out["lhs"] == pytest.approx(8.0, rel=1e-15)

    def test_bound_fails_for_zero_norms(self, dom):
        from tricomi.pohozaev import BoundaryNormBundle
        zero = BoundaryNormBundle(0, 0, 0, 0, 0)
        out = bound_check(2.0, zero, ledger(dom.x0))
        assert not out["satisfied"]
        assert out["rhs"] == 0.0
        assert out["lhs"] > 0.0


class TestRandomizedInequalities:
    @pytest.mark.parametrize("x0", [-0.3, -0.5, -1.0])
    def test_report_passes(self, x0):
        rep = verify_trace_inequalities(x0, n_traces=100, n_nodes=48)
        assert rep.passed, rep.notes
        assert rep.worst_margin >= -1e-10

    def test_seed_determinism(self):
        a = verify_trace_inequalities(-0.5, n_traces=20, seed=11)
        b = verify_trace_inequalities(-0.5, n_traces=20, seed=11)
        assert a.worst_margin == b.worst_margin

    @pytest.mark.parametrize("x0, seed, n_nodes, worst, note", [
        (-0.5, 0, 64, 0.26252158021410665, "bc_omega2 at draw 430"),
        (-0.05, 0, 64, 0.01623377097445991, "bc_omega1_eps2 at draw 279"),
        (-1.0, 11, 48, 0.4786421787286533, "bc_omega2 at draw 157"),
    ])
    def test_worst_margin_pinned(self, x0, seed, n_nodes, worst, note):
        # Values of the one-bundle-at-a-time implementation: same draws, same
        # quadrature, same first-worst tie-break.
        rep = verify_trace_inequalities(x0, seed=seed, n_nodes=n_nodes)
        assert rep.worst_margin == worst
        assert rep.notes == f"tolerance=1e-10; worst: {note}"


class TestOneBoundaryPath:
    """`bound` and `verify inequalities` take their boundary norms and
    identity integrals from one path: five norms and three integrals, each
    one line integral, none computed twice."""

    @pytest.mark.parametrize("argv", [
        ("bound", "--x0", "-0.5"),
        ("verify", "inequalities", "--x0", "-0.5", "--grid", "50"),
    ])
    def test_eight_line_integrals(self, capsys, monkeypatch, argv):
        from tricomi import cli, pohozaev
        calls = []
        original = pohozaev.line_integral
        monkeypatch.setattr(pohozaev, "line_integral",
                            lambda *a: calls.append(a) or original(*a))
        assert cli.run(list(argv)) == 0
        capsys.readouterr()
        assert len(calls) == 8
