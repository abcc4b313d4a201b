"""Dense-grid verifier: h profile, G1/G2 bounds, inflection, proof internals."""

import math
import tracemalloc

import numpy as np
import pytest

from tricomi import (
    TricomiDomain,
    find_inflection,
    verify_G1_bounds,
    verify_G2_bounds,
    verify_h_profile,
    verify_profiles,
)
from tricomi import verifier
from tricomi.constants import X0_CRITICAL, X3, X4, _g2_of, g1, ledger
from tricomi.verifier import (
    _BLOCK,
    N_of_X,
    N_of_X_alt,
    _argmin,
    _curvature_ranges,
    _finish,
    _first_min,
    _G_of_X,
    _nodes,
    _range_check,
    _second_differences,
    _slices,
    _sweep,
)

X0_SAMPLES = [-0.2, -0.4, -0.45, -0.55, -0.8, -1.5]
# The regime switch -sqrt(3)/4 and the branch switches -1/2 and -2/3, the
# next double on each side of each, and x0 = -4 deep in R2c.
SWITCH_X0 = [x for switch in (X0_CRITICAL, -0.5, -2.0 / 3.0)
             for x in (math.nextafter(switch, -math.inf), switch,
                       math.nextafter(switch, 0.0))] + [-4.0]


def sweep_grid(x0, n):
    """The sorted abscissae of the dense sweep of (x0, n)."""
    return _nodes(ledger(x0), n)[0]


def proof_internals(x0, X=None, x=None):
    """Evaluate the proof-internal functions at one abscissa.

    Accepts either the shifted coordinate X = x - x0 in [0, -x0] or the
    plain abscissa x.  H, H', N, N1, R live on the shifted coordinate;
    S1, S2 (derivative numerators of G1, G2) live on x in [2x0, 0], with
    G1'(x) proportional to S1(x) and G2'(x) proportional to -S2(x).
    """
    if (X is None) == (x is None):
        raise ValueError("give exactly one of X or x")
    if X is None:
        X = x - x0
    else:
        x = x0 + X
    dom = TricomiDomain(x0)
    out = {"X": float(X), "x": float(x)}
    if 0.0 <= X <= -x0 + 1e-12:
        G = float(_G_of_X(x0, X))
        H = math.hypot(X, (2.0 / 3.0) * G * G)
        out["H"] = H
        out["G"] = G
        out["H_prime"] = (3.0 - 4.0 * G) * X / (3.0 * H)
        out["N"] = float(N_of_X(x0, X))
        out["N_alt"] = float(N_of_X_alt(x0, X))
        out["N1"] = float(2.0 * (5.0 * X**2 - 3.0 * x0**2) * G**2
                          + 21.0 * X**4 - 66.0 * x0**2 * X**2 + 45.0 * x0**4)
        denom = 4.0 * (11.0 * x0**2 - 7.0 * X**2)
        if denom != 0.0:
            out["R"] = (21.0 * x0**2 - 25.0 * X**2) / denom
    if 2.0 * x0 - 1e-12 <= x <= 1e-12:
        gx = float(dom.g(x))
        out["S1"] = (3.0 * (2.0 * x**3 - 6.0 * x0 * x**2 + 7.0 * x0**2 * x - 3.0 * x0**3)
                     - x * (4.0 * x**2 - 13.0 * x0 * x + 6.0 * x0**2) * gx)
        out["S2"] = (3.0 * (2.0 * x**4 - 8.0 * x0 * x**3 + 12.0 * x0**2 * x**2
                            - 7.0 * x0**3 * x + x0**4)
                     - x * (4.0 * x**3 - 17.0 * x0 * x**2 + 17.0 * x0**2 * x
                            + 2.0 * x0**3) * gx)
    return out


class TestSweepGrid:
    def test_contains_breakpoints(self):
        x0 = -0.9
        led = ledger(x0)
        xs = sweep_grid(x0, 5000)
        for pt in (2.0 * x0, x0, 1.5 * x0, 0.5 * x0, led.x1, led.x2,
                   led.x_plus, led.x_minus, 0.0):
            assert np.min(np.abs(xs - pt)) < 1e-14
        assert np.all(np.diff(xs) > 0)
        assert xs[0] == 2.0 * x0 and xs[-1] == 0.0

    # The last two x0 are subnormal: there the linspace holds equal
    # neighbours, and 0.5 * x0 rounds to -0.0, a tie with the grid's 0.0.
    @pytest.mark.parametrize("x0", [-0.05, -0.4, -0.5, -0.9, -1.0 / math.sqrt(5.0),
                                    X3, X4, -4.0, -1e-321, -5e-324])
    @pytest.mark.parametrize("n", [1000, 1001, 20000, 100000])
    def test_equals_union1d_reference(self, x0, n):
        led = ledger(x0)
        extra = [2.0 * x0, x0, 1.5 * x0, 0.5 * x0, led.x1, led.x2, 0.0]
        if led.x_plus is not None:
            extra += [led.x_plus, led.x_minus]
        ref = np.clip(np.union1d(np.linspace(2.0 * x0, 0.0, n), extra), 2.0 * x0, 0.0)
        xs = sweep_grid(x0, n)
        assert xs.shape == ref.shape
        assert np.array_equal(xs.view(np.int64), ref.view(np.int64))


class TestHProfile:
    @pytest.mark.parametrize("x0", X0_SAMPLES)
    def test_passes(self, x0):
        rep = verify_h_profile(x0, 20000)
        assert rep.passed, rep.notes
        assert rep.claim_id == "h_profile"

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_h_profile(-0.5, 100)

    @pytest.mark.parametrize("x0", [
        pytest.param(X0_CRITICAL, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=(
                "convexity reads -3.7e-6 against tol 1.9e-9: the rounding noise of a "
                "second difference at the default step, ~4 eps max(h) / delta^2, is "
                "far above the dead band 1e-8 x0^2 where h'' -> 0 at the apex "
                "(ROADMAP item 15; the CHANGES.md FOUND: on h-profile's dead band)"))),
        pytest.param(math.nextafter(X0_CRITICAL, -math.inf), marks=pytest.mark.xfail(
            strict=True, raises=RuntimeError, reason=(
                "find_inflection's sign condition N(0) < 0 < N(X_plus) reads "
                "-1.249e-16, 0 (ROADMAP item 15; the same FOUND:)"))),
    ])
    def test_passes_at_the_regime_switch(self, x0):
        rep = verify_h_profile(x0)
        assert rep.passed, rep.notes


class TestG1G2Bounds:
    @pytest.mark.parametrize("x0", X0_SAMPLES)
    def test_G1_passes(self, x0):
        rep = verify_G1_bounds(x0, 20000)
        assert rep.passed, rep.notes
        assert rep.worst_margin >= -1e-10 * max(1.0, abs(rep.worst_margin))

    @pytest.mark.parametrize("x0", X0_SAMPLES)
    def test_G2_passes(self, x0):
        rep = verify_G2_bounds(x0, 20000)
        assert rep.passed, rep.notes

    def test_G1_sharp_lower_at_special_abscissa(self):
        # At x0 = -1/sqrt(5) the lower G1 bound is attained on the grid.
        rep = verify_G1_bounds(-1.0 / math.sqrt(5.0), 200000)
        assert "sharp_lower=True" in rep.notes

    def test_G2_sharpness_abscissas(self):
        rep_hi = verify_G2_bounds(X3, 200000)
        rep_lo = verify_G2_bounds(X4, 200000)
        assert "sharp_upper=True" in rep_hi.notes
        assert "sharp_lower=True" in rep_lo.notes

    def test_bounds_not_sharp_generic(self):
        rep = verify_G1_bounds(-0.25, 50000)
        assert "sharp_lower=False" in rep.notes


# Reports at grid size 20000, frozen from the per-check implementation that
# built the grid and evaluated g and h separately in each check, except the
# curvature notes of the h rows, which come from second differences at the
# linspace's step |2x0|/(n - 1) that read their neighbours from the sweep:
# (x0, check) -> (worst_margin.hex(), worst_location.hex(), passed, grid_size, notes).
# The x0 cover R1, R2a, R2b and R2c, plus the sharp cases of G1 and G2.
_PINNED = {
    (-0.05, "h"): ("-0x1.8000000000000p-57", "-0x1.999999999999ap-5", True, 20005,
        "worst=evenness; bounds=-3.469e-18(tol=1.0e-10); evenness=-1.041e-17(tol=1.0e-12); convexity=9.250e+00(tol=2.5e-11)"),
    (-0.05, "G1"): ("0x1.80d1c7d7ee950p-6", "-0x1.68f5232b2166fp-5", True, 20005,
        "worst=bounds; bounds=2.349e-02(tol=1.0e-10); lower_gap=2.349e-02; upper_gap=1.924e-01; sharp_lower=False; sharp_upper=False"),
    (-0.05, "G2"): ("0x1.a3814b740fb30p-5", "-0x1.3ddd90f79d970p-7", True, 20005,
        "worst=bounds; bounds=5.121e-02(tol=1.0e-10); abs_bound=3.305e-01(tol=1.0e-10); lower_gap=3.305e-01; upper_gap=5.121e-02; sharp_lower=False; sharp_upper=False"),
    (-0.45, "h"): ("-0x1.8000000000000p-53", "-0x1.ccccccccccccdp-2", True, 20007,
        "worst=evenness; bounds=0.000e+00(tol=1.0e-10); evenness=-1.665e-16(tol=1.0e-12); convex_outer=2.510e-04(tol=2.0e-09); concave_inner=1.717e-04(tol=2.0e-09); inflection_in_range=5.135e-02(tol=1.0e-12)"),
    (-0.45, "G1"): ("0x1.bf5f49f8e0000p-16", "-0x1.596ed5eb4f1dap-2", True, 20007,
        "worst=bounds; bounds=2.667e-05(tol=2.7e-10); lower_gap=2.667e-05; upper_gap=3.683e-01; sharp_lower=False; sharp_upper=False"),
    (-0.45, "G2"): ("0x1.864a432198900p-5", "-0x1.6aa50a8cdfa48p-1", True, 20007,
        "worst=bounds; bounds=4.764e-02(tol=5.4e-10); abs_bound=4.764e-02(tol=5.4e-10); lower_gap=4.764e-02; upper_gap=5.477e-02; sharp_lower=False; sharp_upper=False"),
    (-0.55, "h"): ("-0x1.0000000000000p-52", "-0x1.199999999999ap-1", True, 20007,
        "worst=evenness; bounds=-1.110e-16(tol=1.0e-10); evenness=-2.220e-16(tol=1.0e-12); convex_outer=4.478e-04(tol=3.0e-09); concave_inner=5.599e-04(tol=3.0e-09); inflection_in_range=1.352e-01(tol=1.0e-12)"),
    (-0.55, "G1"): ("0x1.ce14d521c26c0p-6", "-0x1.9f6fe54074d2ep-2", True, 20007,
        "worst=bounds; bounds=2.820e-02(tol=3.3e-10); lower_gap=2.820e-02; upper_gap=2.898e-01; sharp_lower=False; sharp_upper=False"),
    (-0.55, "G2"): ("0x1.7c7edefd4a000p-11", "-0x1.c1424a15c1872p-1", True, 20007,
        "worst=bounds; bounds=7.257e-04(tol=6.3e-10); abs_bound=7.257e-04(tol=6.3e-10); lower_gap=7.257e-04; upper_gap=2.486e-02; sharp_lower=False; sharp_upper=False"),
    (-1.0, "h"): ("-0x1.0000000000000p-51", "-0x1.0000000000000p+0", True, 20007,
        "worst=evenness; bounds=0.000e+00(tol=1.1e-10); evenness=-4.441e-16(tol=1.1e-12); convex_outer=1.013e-03(tol=1.0e-08); concave_inner=7.368e-04(tol=1.0e-08); inflection_in_range=2.941e-01(tol=1.0e-12)"),
    (-1.0, "G1"): ("0x1.2a8995fd916e0p-3", "-0x1.0000000000000p+1", True, 20007,
        "worst=bounds; bounds=1.458e-01(tol=6.0e-10); lower_gap=4.463e-01; upper_gap=1.458e-01; sharp_lower=False; sharp_upper=False"),
    (-1.0, "G2"): ("0x1.2acd6e4700f00p-7", "-0x1.388a596cde940p-3", True, 20007,
        "worst=bounds; bounds=9.119e-03(tol=1.0e-09); abs_bound=5.957e-01(tol=1.0e-09); lower_gap=5.957e-01; upper_gap=9.119e-03; sharp_lower=False; sharp_upper=False"),
    (-4.0, "h"): ("-0x1.8000000000000p-49", "-0x1.0000000000000p+2", True, 20007,
        "worst=evenness; bounds=0.000e+00(tol=7.3e-10); evenness=-2.665e-15(tol=7.3e-12); convex_outer=1.659e-03(tol=1.6e-07); concave_inner=1.245e-03(tol=1.6e-07); inflection_in_range=7.181e-01(tol=1.0e-12)"),
    (-4.0, "G1"): ("0x1.20a265829f000p-5", "-0x1.0000000000000p+3", True, 20007,
        "worst=bounds; bounds=3.523e-02(tol=2.4e-09); lower_gap=5.727e+00; upper_gap=3.523e-02; sharp_lower=False; sharp_upper=False"),
    (-4.0, "G2"): ("0x1.0ce8e9fbe4698p+0", "-0x1.f1b05abb1ea90p-2", True, 20007,
        "worst=bounds; bounds=1.050e+00(tol=3.1e-09); abs_bound=1.145e+01(tol=3.1e-09); lower_gap=1.145e+01; upper_gap=1.050e+00; sharp_lower=False; sharp_upper=False"),
    (-1.0 / math.sqrt(5.0), "G1"): ("-0x1.0000000000000p-51", "-0x1.5775c544ff264p-2", True, 20007,
        "worst=bounds; bounds=-4.441e-16(tol=2.7e-10); lower_gap=-4.441e-16; upper_gap=3.703e-01; sharp_lower=True; sharp_upper=False"),
    (X3, "G2"): ("0x1.8000000000000p-51", "-0x1.02c4d9eb8b5a0p-3", True, 20006,
        "worst=bounds; bounds=6.661e-16(tol=8.6e-10); abs_bound=2.403e-01(tol=8.6e-10); lower_gap=2.403e-01; upper_gap=6.661e-16; sharp_lower=False; sharp_upper=True"),
    (X4, "G2"): ("0x0.0p+0", "-0x1.b6a90d931194ep-1", True, 20006,
        "worst=bounds; bounds=0.000e+00(tol=6.2e-10); abs_bound=0.000e+00(tol=6.2e-10); lower_gap=0.000e+00; upper_gap=2.787e-02; sharp_lower=True; sharp_upper=False"),
}
_CHECKS = {"h": verify_h_profile, "G1": verify_G1_bounds, "G2": verify_G2_bounds}


def _fields(rep):
    return (rep.claim_id, rep.x0, rep.worst_margin.hex(), rep.worst_location.hex(),
            rep.passed, rep.grid_size, rep.notes)


class TestSharedSweep:
    @pytest.mark.parametrize("x0, check", list(_PINNED))
    def test_reports_pinned(self, x0, check):
        margin, location, passed, grid_size, notes = _PINNED[(x0, check)]
        rep = _CHECKS[check](x0, 20000)
        assert rep.worst_margin.hex() == margin
        assert rep.worst_location.hex() == location
        assert rep.passed is passed
        assert rep.grid_size == grid_size
        assert rep.notes == notes

    @pytest.mark.parametrize("x0", [-0.05, -0.45, -1.0 / math.sqrt(5.0), -0.55, X3, -4.0])
    @pytest.mark.parametrize("n", [1000, 20000])
    def test_verify_profiles_equals_single_calls(self, x0, n):
        shared = verify_profiles(x0, n)
        single = [verify_h_profile(x0, n), verify_G1_bounds(x0, n),
                  verify_G2_bounds(x0, n)]
        assert [_fields(r) for r in shared] == [_fields(r) for r in single]

    def test_verify_profiles_rejects_small_grid(self):
        with pytest.raises(ValueError):
            verify_profiles(-0.5, 999)

    def test_sweep_arrays_read_only(self):
        sw = _sweep(-0.5, 1000)
        for a in (sw.xs, sw.g, sw.h):
            with pytest.raises(ValueError):
                a[0] = 1.0


def _values(sw):
    """h, G1 and G2 on the whole sweep, without slicing."""
    return {"h": sw.h, "G1": g1(sw.dom, sw.xs) / sw.h,
            "G2": _g2_of(sw.dom.x0, sw.xs, sw.g) / sw.h}


class TestRangeCheck:
    """One two-sided range check serves h, G1 and G2, against the pairs the
    ledger states."""

    @pytest.mark.parametrize("x0", SWITCH_X0)
    def test_reports_check_the_ledger_pairs(self, x0, monkeypatch):
        # find_inflection fails one double below -sqrt(3)/4 (the strict xfail
        # in TestHProfile).  The bounds check of h reads no inflection, so a
        # stand-in lets the report form at every x0.
        monkeypatch.setattr(verifier, "find_inflection",
                            lambda x: 0.5 * (x + ledger(x).x_plus))
        sw = _sweep(x0, 1000)
        reports = {"h": verifier._h_profile(sw), "G1": verifier._G1_bounds(sw),
                   "G2": verifier._G2_bounds(sw)}
        for quantity, v in _values(sw).items():
            lower, upper = sw.led.bounds(quantity)
            margins = np.minimum(v - lower, upper - v)
            tol = 1e-10 * max(1.0, float(np.max(np.abs(v))))
            notes = reports[quantity].notes
            assert f"bounds={np.min(margins):.3e}(tol={tol:.1e})" in notes, quantity
            if quantity != "h":
                gaps = f"lower_gap={np.min(v - lower):.3e}; upper_gap={np.min(upper - v):.3e}"
                assert gaps in notes, quantity

    @pytest.mark.parametrize("x0", [-0.3, -0.55, -4.0])
    def test_equals_a_whole_array_check(self, x0):
        # 20000 nodes span three slices.
        sw = _sweep(x0, 20000)
        for quantity, v in _values(sw).items():
            lower, upper = sw.led.bounds(quantity)
            checks, notes, peak = _range_check(sw, lambda s: v[s], lower, upper,
                                               abs_bound=sw.led.C13)
            margins = np.minimum(v - lower, upper - v)
            i, j = int(np.argmin(margins)), int(np.argmin(sw.led.C13 - np.abs(v)))
            tol = 1e-10 * max(1.0, float(np.max(np.abs(v))))
            assert peak == float(np.max(np.abs(v)))
            assert checks == {"bounds": (margins[i], tol, sw.xs[i]),
                              "abs_bound": (sw.led.C13 - abs(v[j]), tol, sw.xs[j])}
            lo, hi = float(np.min(v - lower)), float(np.min(upper - v))
            assert notes == (f"lower_gap={lo:.3e}; upper_gap={hi:.3e}; "
                             f"sharp_lower={lo <= 1e-6}; sharp_upper={hi <= 1e-6}")


class TestSecondDifferences:
    @pytest.mark.parametrize("x0", [-0.3, -1.0])
    def test_two_grid_sized_h_evaluations(self, x0, monkeypatch):
        # One call for the sweep; the evenness mirror evaluates h slice by
        # slice, and the curvature check only at the inserted breakpoints
        # +- delta, at most 18 nodes.
        sizes = []
        h_from_g = TricomiDomain._h_from_g
        monkeypatch.setattr(TricomiDomain, "_h_from_g",
                            lambda self, x, g: sizes.append(np.size(x)) or h_from_g(self, x, g))
        verify_profiles(x0, 100000)
        n = len(sweep_grid(x0, 100000))
        assert sizes.count(n) == 1
        assert all(size <= _BLOCK for size in sizes if size != n)
        assert 2 * n <= sum(sizes) <= 2 * n + 18

    @pytest.mark.parametrize("x0", [-0.05, -0.45, -0.55, -1.0, -4.0])
    @pytest.mark.parametrize("n", [1000, 20000])
    def test_neighbours_read_from_the_sweep(self, x0, n):
        sw = _sweep(x0, n)
        nodes, d2, delta = _second_differences(sw)
        assert delta == abs(2.0 * x0) / (n - 1)
        # Every node more than 2 delta inside [2x0, 0] gets a second
        # difference, the inserted breakpoints among them.
        xs = sw.xs
        assert np.array_equal(nodes, xs[(xs > 2.0 * x0 + 2.0 * delta) & (xs < -2.0 * delta)])
        inner = [e for e in xs[~sw.on_linspace] if 2.0 * x0 + 2.0 * delta < e < -2.0 * delta]
        assert inner and np.all(np.isin(inner, nodes))
        assert np.array_equal(xs[sw.on_linspace], np.linspace(2.0 * x0, 0.0, n))
        # A linspace neighbour is x -+ delta up to a few ulp of x, so the
        # quotients agree to rounding: 64 eps max(h) / delta^2 (the largest
        # gap seen is under 5 eps max(h) / delta^2).
        dom = sw.dom
        direct = (dom.h(nodes - delta) - 2.0 * dom.h(nodes) + dom.h(nodes + delta)) / delta**2
        bound = 64.0 * np.finfo(float).eps * float(np.max(sw.h)) / delta**2
        assert np.max(np.abs(d2 - direct)) <= bound

    def test_underflowed_step_fails(self):
        # At x0 = -5e-324 the step's square underflows, so every second
        # difference is infinite or NaN: the report fails, never passes.
        with np.errstate(all="ignore"):
            rep = verify_h_profile(-5e-324, 1000)
        assert rep.passed is False and rep.notes.startswith("worst=convexity; ")


def _bits(value):
    return np.float64(value).view(np.int64)


def _sliced_argmin(a):
    return _first_min([_argmin(a[s], s.start) for s in _slices(len(a))])


class TestSlices:
    LENGTHS = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]

    @staticmethod
    def _cases(n):
        """Arrays of length n: random values, a minimum tied across each
        slice edge, -0.0 against 0.0 in both orders, and two NaNs."""
        rng = np.random.default_rng(n)
        edges = list(range(_BLOCK, n, _BLOCK)) or [n - 1]
        yield rng.standard_normal(n)
        tie = rng.random(n) + 1.0
        for e in edges:
            tie[e - 1 : e + 1] = -1.0
        yield tie
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            zeros = rng.random(n) + 1.0
            zeros[edges[-1]:] = second
            zeros[max(edges[0] - 1, 0)] = first
            yield zeros
        nan = rng.standard_normal(n)
        nan[edges[-1]:] = math.nan
        nan[max(edges[0] - 1, 0)] = math.nan
        yield nan

    @pytest.mark.parametrize("n", LENGTHS)
    def test_cover_the_range(self, n):
        slices = _slices(n)
        assert all(s.stop - s.start <= _BLOCK for s in slices)
        assert np.array_equal(np.concatenate([np.arange(n)[s] for s in slices]), np.arange(n))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_reducer_equals_whole_array(self, n):
        for a in self._cases(n):
            i = int(np.argmin(a))
            value, j = _sliced_argmin(a)
            assert j == i and _bits(value) == _bits(a[i])
            for whole in (np.min, np.max):
                parts = [whole(a[s]) for s in _slices(n)]
                if np.any(a == 0.0):   # the sign of a zero minimum is np.min's choice
                    assert whole(parts) == whole(a)
                else:
                    assert _bits(whole(parts)) == _bits(whole(a))

    def test_first_nan_wins(self):
        a = np.ones(3 * _BLOCK + 7)
        a[[_BLOCK + 3, 2 * _BLOCK]] = math.nan
        value, j = _sliced_argmin(a)
        assert math.isnan(value) and j == _BLOCK + 3 == int(np.argmin(a))
        for whole in (np.min, np.max):
            assert math.isnan(whole([whole(a[s]) for s in _slices(len(a))]))

    # Nodes are multiples of 1/32, so every guarded bound below is a node or
    # exactly between two; the last node is -0.0, which equals 0.0.
    @pytest.mark.parametrize("xbar_m, xbar, guard", [
        (-1.5, -0.5, 0.125), (-1.5, -0.5, 0.5), (-1.5, -0.5, 0.75), (-1.5, -0.5, 2.0),
        (-1.25, -0.75, 1.0 / 64.0), (-1.25, -0.75, 0.0), (-1.5, -0.5, 0.5 + 1.0 / 64.0),
    ])
    def test_curvature_ranges_equal_masks(self, xbar_m, xbar, guard):
        nodes = np.arange(-64, 1) / 32.0
        nodes[-1] = -0.0
        convex = (nodes <= xbar_m - guard) | (nodes >= xbar + guard)
        concave = (nodes >= xbar_m + guard) & (nodes <= xbar - guard)
        outer, (a, b) = _curvature_ranges(nodes, xbar_m, xbar, guard)
        ranged = np.zeros(len(nodes), dtype=bool)
        for lo, hi in outer:
            ranged[lo:hi] = True
        assert np.array_equal(ranged, convex)
        ranged[:] = False
        ranged[a:max(a, b)] = True
        assert np.array_equal(ranged, concave)

    def test_peak_memory_of_a_default_sweep(self):
        # The sweep's four arrays take about 2.4 MiB at x0 = -3; margins
        # computed over the whole sweep at once took the peak to 7 MiB.
        verify_profiles(-3.0, 1000)
        tracemalloc.start()
        try:
            verify_profiles(-3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * 2**20


class TestFinish:
    def test_infinite_margin_fails_and_is_worst(self):
        checks = {"bounds": (1.0, 1e-10, -0.2), "convexity": (math.inf, 0.0, -0.3)}
        rep = _finish("h_profile", -0.5, np.zeros(1000), checks)
        assert rep.passed is False
        assert rep.worst_margin == math.inf and rep.worst_location == -0.3
        assert rep.notes.startswith("worst=convexity; ")

    def test_nan_margin_fails_and_is_worst(self):
        checks = {"bounds": (1.0, 1e-10, -0.2), "convexity": (math.nan, 0.0, -0.3),
                  "evenness": (-5.0, 1e-12, -0.5)}
        rep = _finish("h_profile", -0.5, np.zeros(1000), checks)
        assert rep.passed is False
        assert math.isnan(rep.worst_margin)
        assert rep.worst_location == -0.3
        assert rep.notes.startswith("worst=convexity; ")

    def test_all_nan_margins(self):
        checks = {"bounds": (math.nan, 1e-10, -0.2)}
        rep = _finish("G1_bounds", -0.5, np.zeros(1000), checks)
        assert rep.passed is False and rep.notes.startswith("worst=bounds; ")


class TestInflection:
    @pytest.mark.parametrize("x0", [-0.5, -0.9, -2.0])
    def test_root_and_range(self, x0):
        xbar = find_inflection(x0)
        led = ledger(x0)
        assert x0 < xbar < led.x_plus
        X = xbar - x0
        scale = max(1.0, abs(float(N_of_X_alt(x0, led.x_plus - x0))))
        assert abs(float(N_of_X_alt(x0, X))) <= 1e-9 * scale

    @pytest.mark.parametrize("x0", [-1e4, -1e6])
    def test_ends_where_doubles_are_coarser_than_the_tolerance(self, x0):
        # Past X = 8192 neighbouring doubles lie more than 1e-12 apart, so
        # the bisection stops at adjacent doubles, where N changes sign.
        X = find_inflection(x0) - x0
        step = 4.0 * math.ulp(X)
        assert float(N_of_X_alt(x0, X - step)) < 0.0 < float(N_of_X_alt(x0, X + step))

    def test_curvature_changes_sign_at_inflection(self):
        x0 = -1.0
        dom = TricomiDomain(x0)
        xbar = find_inflection(x0)
        d = 1e-4

        def h2(x):
            return (dom.h(x - d) - 2.0 * dom.h(x) + dom.h(x + d)) / d**2

        assert h2(xbar + 0.05) > 0.0   # convex outside
        assert h2(xbar - 0.05) < 0.0   # concave inside

    def test_first_family_rejected(self):
        with pytest.raises(ValueError):
            find_inflection(-0.3)
        with pytest.raises(ValueError):
            find_inflection(X0_CRITICAL)


class TestDualForms:
    @pytest.mark.parametrize("x0", X0_SAMPLES)
    def test_N_forms_agree(self, x0):
        X = np.linspace(0.0, -x0, 2001)
        n1 = np.asarray(N_of_X(x0, X))
        n2 = np.asarray(N_of_X_alt(x0, X))
        scale = max(1.0, float(np.max(np.abs(n1))))
        assert float(np.max(np.abs(n1 - n2))) <= 1e-10 * scale


class TestProofInternals:
    def test_exactly_one_coordinate(self):
        with pytest.raises(ValueError):
            proof_internals(-0.5)
        with pytest.raises(ValueError):
            proof_internals(-0.5, X=0.1, x=-0.4)

    def test_H_matches_h(self):
        x0 = -0.8
        dom = TricomiDomain(x0)
        # The shifted coordinate X = x - x0 covers the right half [x0, 0].
        for x in (-0.8, -0.5, -0.3):
            out = proof_internals(x0, x=x)
            assert out["H"] == pytest.approx(float(dom.h(x)), rel=1e-13)

    def test_H_prime_matches_divided_difference(self):
        x0 = -0.8
        dom = TricomiDomain(x0)
        d = 1e-7
        for x in (-0.7, -0.4, -0.1):
            out = proof_internals(x0, x=x)
            num = (dom.h(x + d) - dom.h(x - d)) / (2 * d)
            assert out["H_prime"] == pytest.approx(num, rel=1e-6, abs=1e-8)

    def test_S1_sign_matches_G1_slope(self):
        # G1'(x) is a positive multiple of S1(x).
        from tricomi import G1
        x0 = -0.7
        dom = TricomiDomain(x0)
        d = 1e-7
        for x in (-1.2, -0.9, -0.5, -0.2):
            s1 = proof_internals(x0, x=x)["S1"]
            slope = (G1(dom, x + d) - G1(dom, x - d)) / (2 * d)
            if abs(slope) > 1e-4:
                assert math.copysign(1.0, s1) == math.copysign(1.0, slope)

    def test_S2_sign_matches_minus_G2_slope(self):
        # G2'(x) is a negative multiple of S2(x).
        from tricomi import G2
        x0 = -0.7
        dom = TricomiDomain(x0)
        d = 1e-7
        for x in (-1.2, -0.9, -0.5, -0.2):
            s2 = proof_internals(x0, x=x)["S2"]
            slope = (G2(dom, x + d) - G2(dom, x - d)) / (2 * d)
            if abs(slope) > 1e-4:
                assert math.copysign(1.0, s2) == -math.copysign(1.0, slope)

    def test_N_and_alt_present(self):
        out = proof_internals(-0.9, X=0.3)
        assert out["N"] == pytest.approx(out["N_alt"], rel=1e-10, abs=1e-10)
        assert "N1" in out and "R" in out
