"""Exact rational isometries of signature (3,1) quadratic forms into the
standard signature (6,1) form, with the arithmetic and hyperbolic-geometry
constants that turn them into effective index and growth bounds."""

from .forms import (
    DiagForm,
    hasse_witt,
    hilbert_symbol,
    invariant_profile,
    is_isometric_Q,
    is_isotropic_Q,
    is_similar,
    standard_lorentzian,
)
from .complement import ComplementWitness, complementary_form, verify_complement
from .isometry import (
    IsometryWitness,
    bound_E,
    cassels_bound,
    cassels_isotropic_vector,
    full_isometry_to_standard,
    represent_one,
    verify_isometry,
)
from .arithmetic import (
    ImagQuadField,
    QuatAlgebra,
    c_eps_bound,
    c_prime_eps,
    eichler_covolume,
    field_from_form,
    maximal_covolume,
    quaternion_from_form,
    sharp_S_enumeration,
    total_index_bound,
    zeta_k_2,
)
from .geometry import (
    CoxeterSimplex,
    GeometryConstants,
    effective_K,
    p6_constants,
    rf_growth_constant,
)
from .pipeline import (
    PRESETS,
    PipelineConfig,
    PipelineReport,
    REPORT_SCHEMA,
    run_pipeline,
    run_preset,
    verify_paper_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "DiagForm",
    "hasse_witt",
    "hilbert_symbol",
    "invariant_profile",
    "is_isometric_Q",
    "is_isotropic_Q",
    "is_similar",
    "standard_lorentzian",
    "ComplementWitness",
    "complementary_form",
    "verify_complement",
    "IsometryWitness",
    "bound_E",
    "cassels_bound",
    "cassels_isotropic_vector",
    "full_isometry_to_standard",
    "represent_one",
    "verify_isometry",
    "ImagQuadField",
    "QuatAlgebra",
    "c_eps_bound",
    "c_prime_eps",
    "eichler_covolume",
    "field_from_form",
    "maximal_covolume",
    "quaternion_from_form",
    "sharp_S_enumeration",
    "total_index_bound",
    "zeta_k_2",
    "CoxeterSimplex",
    "GeometryConstants",
    "effective_K",
    "p6_constants",
    "rf_growth_constant",
    "PRESETS",
    "PipelineConfig",
    "PipelineReport",
    "REPORT_SCHEMA",
    "run_pipeline",
    "run_preset",
    "verify_paper_corpus",
    "__version__",
]
