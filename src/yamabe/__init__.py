"""Residual certification, explicit families, and geodesics for gradient
Yamabe solitons on warped products over conformally flat translation-
invariant bases."""

from .catalog import build_example, catalog, example5_spec, portrait_defaults
from .errors import (BranchDomainError, DimensionMismatchError, DomainError,
                     EvaluationError, ExpressionSyntaxError,
                     FamilyConstructionError, PositivityError, QuadratureError,
                     RootFindError, SpecValidationError, YamabeError)
from .expressions import compile_callable, differentiate, parse_expression
from .families import (almost_soliton_lightlike, family_thm15, family_thm16,
                       family_thm17, family_thm18, phase_portrait,
                       riccati_general_solution, riccati_residual)
from .geodesics import (compare_probe_modes, completeness_probe, energy,
                        fiber_momentum, geodesic_rhs, integrate_geodesic)
from .geometry import (SignatureSpec, TranslationDirection, causal_class,
                       signed_norm)
from .lambertw import lambert_w
from .profiles import Interval, Profile, grid_points
from .soliton import (ANALYTIC_TOL, ResidualReport, WarpedSolitonSpec,
                      certify, classify, full_tensor_residual,
                      lemma_identities, point_eval, reduced_residuals)
from .specio import load_document

__version__ = "0.1.0"

__all__ = [
    "ANALYTIC_TOL", "BranchDomainError",
    "DimensionMismatchError", "DomainError", "EvaluationError",
    "ExpressionSyntaxError", "FamilyConstructionError", "Interval",
    "PositivityError", "Profile", "QuadratureError", "ResidualReport",
    "RootFindError", "SignatureSpec", "SpecValidationError",
    "TranslationDirection", "WarpedSolitonSpec",
    "YamabeError", "almost_soliton_lightlike", "build_example", "catalog",
    "causal_class", "certify", "classify", "compare_probe_modes",
    "compile_callable", "completeness_probe", "differentiate", "energy",
    "example5_spec", "family_thm15",
    "family_thm16", "family_thm17", "family_thm18", "fiber_momentum",
    "full_tensor_residual", "geodesic_rhs", "grid_points",
    "integrate_geodesic", "lambert_w", "lemma_identities", "load_document",
    "parse_expression", "phase_portrait", "point_eval", "portrait_defaults",
    "reduced_residuals", "riccati_general_solution", "riccati_residual",
    "signed_norm",
]
