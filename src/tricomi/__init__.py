"""Geometry, constants, boundary integrals and a desk-scale eigensolver for
the Tricomi operator T = -y d_xx - d_yy on the normal Tricomi domain."""

from .constants import (
    G1,
    G2,
    SQRT3,
    SQRT33,
    X0_CRITICAL,
    ConstantLedger,
    g1,
    g2,
    ledger,
    optimize_epsilons,
)
from .geometry import (
    MEMBERSHIP_TOL,
    BoundaryCurve,
    TricomiDomain,
    boundary_points,
    flow,
    reflected_membership,
    verify_star_shaped,
)
from .pohozaev import (
    BoundaryNormBundle,
    BoundaryTrace,
    area_l2_norm_sq,
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
from .report import VerificationReport, reports_to_csv, reports_to_jsonl
from .verifier import (
    find_inflection,
    proof_internals,
    sweep_grid,
    verify_G1_bounds,
    verify_G2_bounds,
    verify_h_profile,
    verify_profiles,
)

__version__ = "0.1.0"

# eigensolver imports scipy.sparse, which costs more than the rest of the
# package together; its names are loaded on first use (PEP 562).
_EIGENSOLVER_NAMES = {"EigenPair", "Grid", "TricomiOperator", "assemble", "extract_traces",
                      "field_csv", "solve_real_spectrum", "trace_norms"}


def __getattr__(name):
    if name in _EIGENSOLVER_NAMES:
        from . import eigensolver
        return getattr(eigensolver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
