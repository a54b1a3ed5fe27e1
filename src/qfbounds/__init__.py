"""Exact rational isometries of signature (3,1) quadratic forms into the
standard signature (6,1) form, with the arithmetic and hyperbolic-geometry
constants that turn them into effective index and growth bounds.

The package root exports the names the README documents; everything else
is imported from its module (qfbounds.forms, qfbounds.arithmetic, ...)."""

from .forms import DiagForm, invariant_profile, is_isotropic_Q
from .complement import complementary_form, verify_complement
from .isometry import full_isometry_to_standard, verify_isometry
from .pipeline import REPORT_SCHEMA, run_pipeline, run_preset, verify_paper_corpus

__version__ = "0.1.0"

__all__ = [
    "DiagForm",
    "invariant_profile",
    "is_isotropic_Q",
    "complementary_form",
    "verify_complement",
    "full_isometry_to_standard",
    "verify_isometry",
    "run_pipeline",
    "run_preset",
    "verify_paper_corpus",
    "REPORT_SCHEMA",
    "__version__",
]
