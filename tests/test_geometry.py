"""Geometry of the normal Tricomi domain: curves, membership, dilation flow."""

import math

import numpy as np
import pytest

from tricomi import TricomiDomain, reflected_membership, verify_star_shaped
from tricomi import geometry
from tricomi.geometry import _boundary_arrays, _libm_pow


@pytest.fixture(params=[-0.3, -0.5, -1.0, -2.0])
def dom(request):
    return TricomiDomain(request.param)


def _corners(dom):
    """The vertices A, B, C of the domain."""
    return (2.0 * dom.x0, 0.0), (0.0, 0.0), (dom.x0, dom.y_C)


def _g_prime(dom, x):
    """dg/dx = -(3/2)(x - x0)/g(x)^2 on the open interval (2x0, 0)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 2.0 * dom.x0 + 1e-12) or np.any(x >= -1e-12):
        raise ValueError("g' is singular at the endpoints of [2*x0, 0]")
    return -1.5 * (x - dom.x0) / np.asarray(dom.g(x)) ** 2


def _tangent(dom, kind, t):
    """d(position)/dt in closed form: (sqrt(t), -1) on AC, (sqrt(-t), 1) on
    BC and (-1, -g'(x)) at x = -t on sigma."""
    t = np.asarray(t, dtype=float)
    if kind == "AC":
        return np.sqrt(t), -np.ones_like(t)
    if kind == "BC":
        return np.sqrt(-t), np.ones_like(t)
    return -np.ones_like(t), -_g_prime(dom, -t)


def _starlike_product(dom, kind, t):
    """<(-3x, -2y), outer normal> at the boundary point of parameter t."""
    curve = dom.boundary_curve(kind)
    x, y = curve.position(t)
    nx, ny = curve.normal(t)
    return -3.0 * x * nx - 2.0 * y * ny


def flow(p, t):
    """Exact dilation flow (x e^{-3t}, y e^{-2t}); t = +inf returns the origin."""
    x, y = float(p[0]), float(p[1])
    if t < 0.0:
        raise ValueError("flow time must be nonnegative")
    if math.isinf(t):
        return (0.0, 0.0)
    return (x * math.exp(-3.0 * t), y * math.exp(-2.0 * t))


def boundary_points(dom, n):
    """The boundary points that verify_star_shaped flows, as float pairs."""
    xs, ys = _boundary_arrays(dom, n)
    return list(zip(xs.tolist(), ys.tolist()))


class TestDomainBasics:
    def test_corners(self, dom):
        x0 = dom.x0
        cx, cy = _corners(dom)[2]
        assert cx == x0
        assert cy == pytest.approx(-((3.0 * abs(x0) / 2.0) ** (2.0 / 3.0)), rel=1e-15)

    def test_characteristics_meet_at_C(self, dom):
        # Both characteristic equations hold at C.
        cx, cy = _corners(dom)[2]
        assert 3.0 * (cx - 2.0 * dom.x0) == pytest.approx(2.0 * (-cy) ** 1.5, rel=1e-12)
        assert 3.0 * cx == pytest.approx(-2.0 * (-cy) ** 1.5, rel=1e-12)

    def test_g_endpoints_and_apex(self, dom):
        assert dom.g(0.0) == 0.0
        assert dom.g(2.0 * dom.x0) == 0.0
        assert dom.g(dom.x0) == pytest.approx((9.0 * dom.x0**2 / 4.0) ** (1.0 / 3.0), rel=1e-14)

    def test_g_on_normal_curve(self, dom):
        # (x, g(x)) satisfies the normal-curve equation.
        xs = np.linspace(2.0 * dom.x0, 0.0, 101)
        g = np.asarray(dom.g(xs))
        lhs = 9.0 * (xs - dom.x0) ** 2 + 4.0 * g**3
        assert np.allclose(lhs, 9.0 * dom.x0**2, rtol=0, atol=1e-11 * dom.x0**2)

    def test_g_prime_matches_divided_difference(self, dom):
        xs = np.linspace(1.9 * dom.x0, 0.1 * dom.x0, 41)
        d = 1e-7 * abs(dom.x0)
        num = (np.asarray(dom.g(xs + d)) - np.asarray(dom.g(xs - d))) / (2 * d)
        assert np.allclose(_g_prime(dom, xs), num, rtol=1e-5, atol=1e-8)

    def test_g_prime_endpoint_raises(self, dom):
        with pytest.raises(ValueError):
            _g_prime(dom, 0.0)
        with pytest.raises(ValueError):
            _g_prime(dom, 2.0 * dom.x0)

    def test_h_endpoint_values(self, dom):
        # At both endpoints g = 0 and h reduces to |x - x0| = |x0|.
        assert dom.h(0.0) == pytest.approx(abs(dom.x0), rel=1e-14)
        assert dom.h(2.0 * dom.x0) == pytest.approx(abs(dom.x0), rel=1e-14)
        # At the midpoint the horizontal part vanishes.
        g_mid = dom.g(dom.x0)
        assert dom.h(dom.x0) == pytest.approx((2.0 / 3.0) * g_mid**2, rel=1e-14)

    def test_domain_validation(self):
        for bad in (0.0, 0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                TricomiDomain(bad)

    def test_range_check(self, dom):
        lo = 2.0 * dom.x0
        msg = rf"^x outside \[2\*x0, 0\] = \[{lo}, 0.0\]$"
        for f in (dom.g, dom.h):
            for bad in (0.1, lo - 0.1, np.array([lo, 0.1]), np.array([np.nan, lo - 0.1])):
                with pytest.raises(ValueError, match=msg):
                    f(bad)

    def test_cube_root_residue_check(self, dom):
        # The range check clips x onto [2x0, 0], where the cube-root argument
        # is never negative; the kernel clamps a residue below zero to 0.
        assert dom._g(np.asarray(1e-17)) == 0.0

    @pytest.mark.parametrize("errstate", [{}, {"all": "ignore"}, {"all": "raise"}])
    def test_cube_root_argument_overflow_names_it(self, errstate):
        # 9x(2x0 - x) exceeds the largest float near the apex from |x0|
        # about 1e154; 1e153 still computes.
        assert np.isfinite(TricomiDomain(-1e153).g(-1e153))
        dom = TricomiDomain(-1e160)
        for f in (dom.g, dom.h, dom._g_and_h):
            with np.errstate(**errstate), pytest.raises(OverflowError) as exc:
                f(np.array([-1.0, dom.x0]))
            assert str(exc.value) == ("g's cube-root argument 9x(2x0 - x)/4 overflows "
                                      "a float at x0=-1e+160")

    def test_arrays_equal_scalar_calls(self, dom):
        lo = 2.0 * dom.x0
        rng = np.random.default_rng(11)
        # Endpoints, points within the guard beyond them, -0.0 and the apex.
        xs = np.concatenate([np.linspace(lo, 0.0, 257), rng.uniform(lo, 0.0, 256),
                             [lo - 5e-13, 5e-13, -0.0, dom.x0]])
        for f in (dom.g, dom.h):
            arr = f(xs)
            assert isinstance(arr, np.ndarray) and arr.shape == xs.shape
            scalars = [f(float(x)) for x in xs]
            assert all(type(v) is float for v in scalars)
            assert np.array_equal(arr.view(np.int64), np.array(scalars).view(np.int64))
            assert type(f(np.float64(dom.x0))) is float


class TestBoundaryCurves:
    @pytest.mark.parametrize("kind", ["AC", "BC", "Sigma"])
    def test_unit_normals_and_arc_element(self, dom, kind):
        curve = dom.boundary_curve(kind)
        ts = curve.params(257)
        nx, ny = curve.normal(ts)
        assert np.all(np.abs(np.hypot(nx, ny) - 1.0) <= 1e-12)
        # |tangent| = arc element away from parametrization endpoints.
        interior = ts[5:-5] if kind == "Sigma" else ts
        tx, ty = _tangent(dom, kind, interior)
        assert np.allclose(np.hypot(tx, ty), curve.arc_element(interior),
                           rtol=1e-12, atol=1e-12)

    def test_orientation_endpoints(self, dom):
        # Counterclockwise: sigma B->A, AC A->C, BC C->B.
        sg = dom.boundary_curve("Sigma")
        ac = dom.boundary_curve("AC")
        bc = dom.boundary_curve("BC")
        A, B, C = _corners(dom)
        for (curve, start, end) in ((sg, B, A), (ac, A, C), (bc, C, B)):
            a, b = curve.param_range
            xs, ys = curve.position(a)
            xe, ye = curve.position(b)
            assert (float(xs), float(ys)) == pytest.approx(start, abs=1e-12)
            assert (float(xe), float(ye)) == pytest.approx(end, abs=1e-12)

    def test_normals_point_outward(self, dom):
        for kind in ("AC", "BC", "Sigma"):
            curve = dom.boundary_curve(kind)
            for t in curve.params(33)[1:-1]:
                x, y = curve.position(t)
                nx, ny = curve.normal(t)
                eps = 1e-7
                outside = (float(x) + eps * float(nx), float(y) + eps * float(ny))
                inside = (float(x) - eps * float(nx), float(y) - eps * float(ny))
                assert dom.membership_slack(outside) < dom.membership_slack(inside)

    def test_unknown_kind(self, dom):
        with pytest.raises(ValueError):
            dom.boundary_curve("CD")


class TestStarlikeProducts:
    def test_bc_product_vanishes(self, dom):
        # The dilation field is tangent to the characteristic BC.
        curve = dom.boundary_curve("BC")
        for t in curve.params(65):
            assert abs(_starlike_product(dom, "BC", t)) <= 1e-12

    def test_ac_product_closed_form(self, dom):
        curve = dom.boundary_curve("AC")
        for t in curve.params(65):
            _, y = curve.position(t)
            expect = 6.0 * dom.x0 / math.sqrt(1.0 - float(y))
            assert _starlike_product(dom, "AC", t) == pytest.approx(expect, rel=1e-12)

    def test_sigma_product_closed_form(self, dom):
        curve = dom.boundary_curve("Sigma")
        for t in curve.params(65):
            x, _ = curve.position(t)
            expect = -3.0 * float(x) * dom.x0 / float(dom.h(float(x)))
            assert _starlike_product(dom, "Sigma", t) == pytest.approx(
                expect, rel=1e-12, abs=1e-12)

    def test_products_nonpositive(self, dom):
        for kind in ("AC", "BC", "Sigma"):
            curve = dom.boundary_curve(kind)
            assert np.all(np.asarray(
                [_starlike_product(dom, kind, t) for t in curve.params(65)]) <= 1e-12)


class TestFlow:
    def test_identity_at_zero(self):
        assert flow((1.25, -3.5), 0.0) == (1.25, -3.5)

    def test_infinite_time_limit(self):
        assert flow((1.0, 1.0), math.inf) == (0.0, 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            flow((1.0, 1.0), -0.1)

    def test_exact_exponential(self):
        x, y = flow((2.0, -1.0), 0.7)
        assert x == pytest.approx(2.0 * math.exp(-2.1), rel=1e-15)
        assert y == pytest.approx(-math.exp(-1.4), rel=1e-15)

    def test_flow_preserves_characteristic_bc(self, dom):
        # BC is invariant under the dilation flow.
        curve = dom.boundary_curve("BC")
        for t in curve.params(17)[1:-1]:
            x, y = curve.position(t)
            fx, fy = flow((float(x), float(y)), 0.37)
            assert 3.0 * fx == pytest.approx(-2.0 * (-fy) ** 1.5, rel=1e-12)


class TestStarShaped:
    def test_positive(self, dom):
        rep = verify_star_shaped(dom, 120, 30)
        assert rep.passed
        assert rep.worst_margin >= -1e-10

    def test_reflected_negative_control(self, dom):
        rep = verify_star_shaped(dom, 120, 30,
                                 membership=reflected_membership(dom))
        assert not rep.passed

    def test_boundary_points_inside(self, dom):
        for p in boundary_points(dom, 60):
            assert dom.contains(p)

    def test_input_validation(self, dom):
        with pytest.raises(ValueError):
            verify_star_shaped(dom, 1, 30)
        with pytest.raises(ValueError):
            verify_star_shaped(dom, 30, 1)


def _slack_reference(dom, x, y):
    """membership_slack in plain Python floats (libm powers), one point."""
    x, y = float(x), float(y)
    if y >= 0.0:
        return 9.0 * dom.x0**2 - (9.0 * (x - dom.x0) ** 2 + 4.0 * y**3)
    c = (2.0 / 3.0) * (-y) ** 1.5
    return min(x - (2.0 * dom.x0 + c), -c - x, y - dom.y_C)


def _star_shaped_reference(dom, n_boundary, n_times, slack):
    """Worst slack over boundary points x flow times, one point at a time."""
    times = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, n_times - 1), [math.inf]])
    worst, worst_at = math.inf, None
    for p in boundary_points(dom, n_boundary):
        for t in times:
            s = slack(flow(p, t))
            if s < worst:
                worst, worst_at = s, (p, float(t))
    return worst, worst_at


# The tolerance 1e-10 * max(1, x0^2) as the notes print it, where it is not 1e-10.
_STAR_TOL = {-4.0: "1.6e-09"}


class TestStarShapedArrayPass:
    @pytest.mark.parametrize("x0, n, reflected, margin, point, t", [
        (-0.5, 200, False, "-0x1.0000000000000p-51",
         (-0.24615384615384617, 0.7474072205585838), "0"),
        (-0.5, 200, True, "-0x1.2000000000000p+4", (-1.0, 0.0), "0"),
        (-4.0, 2000, False, "-0x1.0000000000000p-44",
         (-2.297744360902256, 3.0891830041612183), "0"),
        (-0.07, 120, False, "-0x1.0000000000000p-55",
         (-0.0646850198228093, -0.21115270517970505), "5.36002e-06"),
    ])
    def test_reports_pinned(self, x0, n, reflected, margin, point, t):
        # Frozen regression anchor: the worst slack is a last-ulp residue,
        # so any change in how a power or product is evaluated shows here.
        d = TricomiDomain(x0)
        rep = verify_star_shaped(d, n, 50,
                                 membership=reflected_membership(d) if reflected else None)
        assert rep.worst_margin.hex() == margin
        assert rep.worst_location == point[0]
        assert rep.notes == (f"tolerance={_STAR_TOL.get(x0, '1e-10')}; "
                             f"worst point={point}, t={t}")
        assert rep.passed is (not reflected)
        assert rep.grid_size == 3 * (n // 3) * 51

    @pytest.mark.parametrize("x0", [-0.05, -0.5, -4.0])
    @pytest.mark.parametrize("reflected", [False, True])
    def test_matches_point_by_point_reference(self, x0, reflected):
        d = TricomiDomain(x0)
        sign = -1.0 if reflected else 1.0
        worst, (p, t) = _star_shaped_reference(
            d, 120, 30, lambda q: _slack_reference(d, sign * q[0], q[1]))
        rep = verify_star_shaped(d, 120, 30,
                                 membership=reflected_membership(d) if reflected else None)
        assert rep.worst_margin.hex() == worst.hex()
        assert rep.worst_location == p[0]
        assert rep.notes == (f"tolerance={_STAR_TOL.get(x0, '1e-10')}; "
                             f"worst point={p}, t={t:g}")

    @pytest.mark.parametrize("x0", [-300.0, -1000.0, -1e6, -1e150])
    def test_tolerance_scales_with_x0_squared(self, x0):
        # The slack's rounding residue grows like ulp(9 x0^2) and the
        # reflected control's worst slack like -72 x0^2, so a tolerance
        # relative to x0^2 tells them apart at every scale.
        d = TricomiDomain(x0)
        plain = verify_star_shaped(d, 200, 50)
        reflected = verify_star_shaped(d, 200, 50, membership=reflected_membership(d))
        assert plain.passed is True and reflected.passed is False
        assert plain.notes.startswith(f"tolerance={1e-10 * x0 * x0:g}; ")

    def test_membership_slack_arrays_match_scalar_calls(self):
        dom = TricomiDomain(-0.7)
        rng = np.random.default_rng(5)
        bx, by = (np.array(c) for c in zip(*boundary_points(dom, 90)))
        # Random points, both signed zeros of y, the t = inf origin and the
        # boundary points themselves.
        X = np.concatenate([rng.uniform(2.5 * dom.x0, 0.5, 400),
                            [0.3, -0.4, 0.0, -0.0, 0.0], bx])
        Y = np.concatenate([rng.uniform(1.5 * dom.y_C, 1.5, 400),
                            [0.0, -0.0, 0.0, -0.0, -0.0], by])
        arr = dom.membership_slack((X.reshape(-1, 5), Y.reshape(-1, 5)))
        assert arr.shape == (len(X) // 5, 5)
        scalar = [dom.membership_slack((x, y)) for x, y in zip(X, Y)]
        assert all(type(s) is float for s in scalar)
        ref = [_slack_reference(dom, x, y).hex() for x, y in zip(X, Y)]
        assert [s.hex() for s in arr.ravel().tolist()] == ref
        assert [s.hex() for s in scalar] == ref

    @pytest.mark.parametrize("x0", [-0.05, -0.7, -4.0, -1e8])
    def test_membership_slack_broadcast_operands_match_scalar_calls(self, x0, monkeypatch):
        # Grid.build's tensor grid and area_l2_norm_sq's (cells, 4, 1) x
        # (cells, 1, 4) sub-samples: the powers are taken on each operand
        # before it broadcasts, and must still equal the scalar call.
        dom = TricomiDomain(x0)
        powered = []
        monkeypatch.setattr(geometry, "_libm_pow",
                            lambda base, e: powered.append(base.size) or _libm_pow(base, e))
        rng = np.random.default_rng(7)
        xs = np.linspace(2.1 * x0, -0.1 * x0, 29)
        ys = np.concatenate([np.linspace(1.1 * dom.y_C, 1.1 * dom.g(x0), 31), [0.0, -0.0]])
        off = (np.arange(4) + 0.5) / 4
        i, j = rng.integers(0, 28, 9), rng.integers(0, 30, 9)
        sub_x = xs[i, None, None] + off[:, None] * (xs[1] - xs[0])
        sub_y = ys[j, None, None] + off * (ys[1] - ys[0])
        for p in ((xs[:, None], ys[None, :]), (sub_x, sub_y), (xs[3], ys), (xs, ys[5])):
            powered.clear()
            arr = dom.membership_slack(p)
            assert sum(powered) <= np.size(p[0]) + np.size(p[1])
            X, Y = np.broadcast_arrays(*p)
            assert arr.shape == X.shape
            ref = [_slack_reference(dom, x, y).hex() for x, y in zip(X.flat, Y.flat)]
            assert [s.hex() for s in arr.ravel().tolist()] == ref
            assert [dom.membership_slack((x, y)).hex() for x, y in zip(X.flat, Y.flat)] == ref

    def test_membership_slack_broadcast_overflow_raises_as_scalar_calls(self):
        dom = TricomiDomain(-0.5)
        xs = np.array([[-0.3], [1e200]])
        # (x - x0)^2 overflows at x = 1e200, and y^3 at y = 1e150: a point
        # that takes either power raises, in a broadcast call as in a scalar one.
        for p in ((xs, np.array([[-0.1, 0.2]])), (-0.3, np.array([0.1, 1e150]))):
            with pytest.raises(ArithmeticError):
                dom.membership_slack(p)
            with pytest.raises(ArithmeticError):
                [_slack_reference(dom, x, y) for x, y in zip(*map(np.ravel, np.broadcast_arrays(*p)))]
        # Below the axis no point powers x, so x = 1e200 raises nowhere.
        below = np.array([[-0.1, -0.2]])
        arr = dom.membership_slack((xs, below))
        X, Y = np.broadcast_arrays(xs, below)
        assert [s.hex() for s in arr.ravel().tolist()] == [
            _slack_reference(dom, x, y).hex() for x, y in zip(X.flat, Y.flat)]

    @pytest.mark.parametrize("n", [7, 60, 200])
    def test_boundary_points_match_per_point_positions(self, dom, n):
        ref = []
        for kind in ("Sigma", "AC", "BC"):
            curve = dom.boundary_curve(kind)
            for t in curve.params(max(2, n // 3)):
                x, y = curve.position(t)
                ref.append((float(x).hex(), float(y).hex()))
        assert [(x.hex(), y.hex()) for x, y in boundary_points(dom, n)] == ref


class TestLibmPow:
    # _libm_pow must equal a Python float power (C pow) bit for bit; it
    # fails here if numpy ever routes float_power through a SIMD loop.
    @pytest.mark.parametrize("exponent, signed, top", [
        (2, True, 150), (3, True, 100), (1.5, False, 150), (2.0 / 3.0, False, 150),
    ])
    def test_matches_python_float_power(self, exponent, signed, top):
        rng = np.random.default_rng(25)
        base = 10.0 ** rng.uniform(-300.0, top, 100_000)
        base = np.concatenate([base, [0.0, -0.0, 5e-324, 1e-310, 2.2e-308, 1.0]])
        if signed:
            base[::2] = -base[::2]
        ref = np.array([float(v) ** exponent for v in base])
        assert np.array_equal(_libm_pow(base, exponent).view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("errstate", [{}, {"all": "ignore"}])
    def test_overflow_raises(self, errstate):
        with np.errstate(**errstate), pytest.raises(ArithmeticError):
            _libm_pow(np.array([1.0, 1e200]), 2)
