"""The x0-dependent constant ledger for the eigenfunction bound.

All constants are closed-form functions of x0 with a regime switch at
x0 = -sqrt(3)/4 (the critical parabolic half-diameter) and branch switches
at x0 = -1/2 and x0 = -2/3.  The epsilon-dependent constants enter the
boundary-integral estimates and are minimized by `optimize_epsilons`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .geometry import TricomiDomain

__all__ = [
    "ConstantLedger",
    "ledger",
    "g1",
    "g2",
    "G1",
    "G2",
    "optimize_epsilons",
    "SQRT3",
    "SQRT33",
    "X0_CRITICAL",
]

SQRT3 = math.sqrt(3.0)
SQRT33 = math.sqrt(33.0)

# Below this abscissa the modulus h develops two symmetric minima and the
# whole constant family switches.
X0_CRITICAL = -SQRT3 / 4.0

# Abscissas where the two-sided bound on G2 is sharp (x_- = x1 resp. x_+ = x2).
X3 = -math.sqrt((15.0 + SQRT33) / 32.0)
X4 = -math.sqrt((15.0 - SQRT33) / 32.0)


def g1(dom: TricomiDomain, x):
    """3x(2x - 3x0); vanishes at 0 and (3/2)x0, equals 6x0^2 at 2x0."""
    x = dom._check_range(x)
    out = 3.0 * x * (2.0 * x - 3.0 * dom.x0)
    return float(out) if out.ndim == 0 else out


def _g2_of(x0: float, x, g):
    """g2 at abscissae x from g = g(x); the verifier's sweep and sigma's
    traces reuse their g."""
    return 4.0 * (2.0 * x - x0) * g**1.5


def g2(dom: TricomiDomain, x):
    """4(2x - x0) g(x)^(3/2); vanishes at the endpoints and at x0/2."""
    x = np.asarray(x, dtype=float)
    out = _g2_of(dom.x0, x, np.asarray(dom.g(x)))
    return float(out) if out.ndim == 0 else out


def G1(dom: TricomiDomain, x):
    """g1(x)/h(x), finite on all of [2x0, 0] since h > 0."""
    out = np.asarray(g1(dom, x)) / np.asarray(dom.h(x))
    return float(out) if out.ndim == 0 else out


def G2(dom: TricomiDomain, x):
    """g2(x)/h(x), finite on all of [2x0, 0]."""
    out = np.asarray(g2(dom, x)) / np.asarray(dom.h(x))
    return float(out) if out.ndim == 0 else out


def _positive(eps: float) -> float:
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps


@dataclass(frozen=True)
class ConstantLedger:
    """All x0-dependent constants, critical abscissas and branch labels.

    x_plus/x_minus (the minima of h) exist only for x0 < -sqrt(3)/4, as do
    the second-family constants C7, C8, C11, C12.
    """

    x0: float
    regime: str
    y_C: float
    x_plus: Optional[float]
    x_minus: Optional[float]
    x1: float
    x2: float
    x3: float
    x4: float
    C3: float
    C4: float
    C5: float
    C6: float
    C7: Optional[float]
    C8: Optional[float]
    C9: float
    C10: float
    C11: Optional[float]
    C12: Optional[float]
    C13: float
    _K12: float = field(repr=False)  # common factor of C1, C2
    _bounds: dict = field(repr=False, compare=False)  # quantity -> (lower, upper)

    def bounds(self, quantity: str) -> tuple:
        """(lower, upper) of 'h', 'G1' or 'G2' over [2x0, 0]: h lies in
        [h_min, C4], G1 in [C5, C6] for x0 >= -sqrt(3)/4, else [C7, C8],
        and G2 in [C9, C10], else [C11, C12]."""
        return self._bounds[quantity]

    def C1(self, eps: float) -> float:
        return self._K12 * (1.0 + _positive(eps))

    def C2(self, eps: float) -> float:
        return self._K12 * (1.0 + 1.0 / _positive(eps))

    def C14(self, eps: float) -> float:
        return self.bounds("G1")[1] + 0.5 * _positive(eps) * self.C13

    def C15(self, eps: float) -> float:
        return -self.bounds("G1")[0] + self.C13 / (2.0 * _positive(eps))

    def to_dict(self) -> dict:
        """Every public field by name, in declaration order, with the
        epsilon-dependent constants at eps = 1: C1 and C2 just before C3,
        C14 and C15 last."""
        out = {}
        for f in fields(self):
            if f.name == "C3":
                out.update(C1_eps1=self.C1(1.0), C2_eps1=self.C2(1.0))
            if not f.name.startswith("_"):
                out[f.name] = getattr(self, f.name)
        out.update(C14_eps1=self.C14(1.0), C15_eps1=self.C15(1.0))
        return out


def _regime(x0: float) -> str:
    if x0 >= X0_CRITICAL:
        return "R1"
    if x0 > -0.5:
        return "R2a"
    if x0 > -2.0 / 3.0:
        return "R2b"
    return "R2c"


def ledger(x0: float) -> ConstantLedger:
    """Evaluate every constant by its closed form with the regime-correct branch."""
    dom = TricomiDomain(x0)
    ax = abs(x0)

    # Common factor of the characteristic-side constants C1, C2.
    root = math.sqrt(1.0 + (3.0 * ax / 2.0) ** (2.0 / 3.0))
    K12 = 6.0 * ax / root
    C3 = (3.0 * ax / 2.0) ** (1.0 / 3.0) / root

    # h at the apex x0.  It is the minimum of h while x0 >= -sqrt(3)/4 and the
    # maximum C4 from x0 = -2/3 on; C4 is |x0| in between.  x0**4 overflows
    # from |x0| ~ 1.2e77; the error names the quantity, not errno.
    try:
        h_apex = (1.5 * x0**4) ** (1.0 / 3.0)
    except OverflowError:
        raise OverflowError(
            f"C4 = (1.5*x0^4)^(1/3) overflows a float at x0={x0!r}") from None
    C4 = ax if x0 >= -2.0 / 3.0 else h_apex

    # First-family bounds on G1 = g1/h and G2 = g2/h.
    denom6 = math.sqrt(2.0 ** (4.0 / 3.0) + 9.0 * ax ** (2.0 / 3.0))
    C5 = -(1.5 ** (8.0 / 3.0)) * ax ** (2.0 / 3.0)
    C6 = 2.0 ** (8.0 / 3.0) * 3.0 * ax / denom6
    C9 = -(2.0 ** (-19.0 / 6.0)) * 3.0 ** (2.0 / 3.0) * (SQRT33 + 3.0) \
        * math.sqrt(15.0 + SQRT33) * ax ** (2.0 / 3.0)
    C10 = 2.0 ** (-11.0 / 6.0) * 3.0 * (SQRT33 - 3.0) \
        * math.sqrt(15.0 - SQRT33) * ax / denom6

    if x0 < X0_CRITICAL:
        disc = math.sqrt(x0 * x0 - 3.0 / 16.0)
        x_plus, x_minus = x0 + disc, x0 - disc
        hmin = math.sqrt(x0 * x0 - 3.0 / 64.0)
        C7 = -(1.5**3) * x0 * x0 / hmin
        C8 = C6 if x0 > -0.5 else 6.0 * x0 * x0 / hmin
        C11 = -(2.0**-3.5) * 3.0 * (SQRT33 + 3.0) * math.sqrt(15.0 + SQRT33) * x0 * x0 / hmin
        C12 = C10 if x0 > -0.5 else \
            2.0**-3.5 * 3.0 * (SQRT33 - 3.0) * math.sqrt(15.0 - SQRT33) * x0 * x0 / hmin
        G1_pair, G2_pair = (C7, C8), (C11, C12)
    else:
        x_plus = x_minus = C7 = C8 = C11 = C12 = None
        hmin = h_apex
        G1_pair, G2_pair = (C5, C6), (C9, C10)
    C13 = abs(G2_pair[0])

    return ConstantLedger(
        x0=x0,
        regime=_regime(x0),
        y_C=dom.y_C,
        x_plus=x_plus,
        x_minus=x_minus,
        x1=(7.0 + SQRT33) / 8.0 * x0,
        x2=(7.0 - SQRT33) / 8.0 * x0,
        x3=X3,
        x4=X4,
        C3=C3,
        C4=C4,
        C5=C5,
        C6=C6,
        C7=C7,
        C8=C8,
        C9=C9,
        C10=C10,
        C11=C11,
        C12=C12,
        C13=C13,
        _K12=K12,
        _bounds={"h": (hmin, C4), "G1": G1_pair, "G2": G2_pair},
    )


_EPS_LO, _EPS_HI = 1e-6, 1e6


def _bracket_sum(led: ConstantLedger, bundle, eps1: float, eps2: float) -> float:
    a1 = bundle.w_ux_L2_BC**2
    a2 = bundle.uy_L2_BC**2
    cross = bundle.u_L2_BC * (bundle.w_ux_L2_BC + bundle.uy_L2_BC)
    b1 = bundle.w_ux_L2_sigma**2
    b2 = bundle.uy_L2_sigma**2
    return (
        led.C1(eps1) * a1
        + led.C2(eps1) * a2
        + led.C3 * cross
        + led.C14(eps2) * b1
        + led.C15(eps2) * b2
    )


def _argmin_eps(a: float, b: float) -> float:
    """Minimizer of a*eps + b/eps (a, b >= 0) on [1e-6, 1e6]: sqrt(b/a),
    the lower end if only a > 0, the upper end if only b > 0, else 1."""
    if a > 0 and b > 0:
        eps = math.sqrt(b / a)
    elif a > 0:
        eps = _EPS_LO
    elif b > 0:
        eps = _EPS_HI
    else:
        eps = 1.0
    return min(max(eps, _EPS_LO), _EPS_HI)


def optimize_epsilons(bundle, led: ConstantLedger):
    """Pick the epsilons that make the eigenfunction bound tightest.

    Each epsilon enters the bracketed sum as a*eps + b/eps + c: eps1
    through C1, C2 with (a, b) = (w_ux_BC^2, uy_BC^2) times a common
    factor, eps2 through C14, C15 with (w_ux_sigma^2, uy_sigma^2) times
    C13/2.  So both minimizers are sqrt(b/a) in closed form, clamped to
    [1e-6, 1e6].  Returns (eps1, eps2, rhs) where rhs is the minimized
    right-hand side of the bound (the square root of the bracketed sum).
    """
    eps1 = _argmin_eps(bundle.w_ux_L2_BC**2, bundle.uy_L2_BC**2)
    eps2 = _argmin_eps(bundle.w_ux_L2_sigma**2, bundle.uy_L2_sigma**2)
    total = _bracket_sum(led, bundle, eps1, eps2)
    return eps1, eps2, math.sqrt(max(total, 0.0))
