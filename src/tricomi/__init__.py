"""Geometry, constants, boundary integrals and a desk-scale eigensolver for
the Tricomi operator T = -y d_xx - d_yy on the normal Tricomi domain."""

import importlib

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.  Importing the
# package loads no submodule: a name, or a submodule, is loaded on first use
# (PEP 562), so a CLI command loads only the layers it runs and only the
# solving commands load eigensolver's scipy.sparse.
_EXPORTS = {name: module for module, names in (
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
) for name in names}
_SUBMODULES = ("cli", "constants", "eigensolver", "geometry", "pohozaev", "report",
               "verifier")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
