"""Exact invariants of n-gonal curve families.

Intersection arithmetic on rational normal scrolls, scroll
classification, section counts of multiples of the gonal pencil with an
independent Hirzebruch-surface oracle for the trigonal case, the degree
lattice behind modular-degree divisibility, hyperelliptic twisting, and
a report/verification front end.
"""

from .chow import AmbientScroll, ChowClass, DivisorClass, intersect_number
from .errors import ConsistencyError, DomainError, UnsupportedError
from .hirzebruch import (
    Cohomology,
    FeBundle,
    RatherFreeResult,
    bundle_cohomology,
    canonical_bundle,
    rather_free_check,
    trigonal_curve_bundle,
    trigonal_h0_oracle,
)
from .hyperelliptic import (
    BinaryForm,
    HyperellipticModel,
    discriminant_nonzero,
    hg_dimension,
    twist_with_point,
)
from .invariants import (
    ballico_h0,
    chi_normal_bundle,
    chi_restricted_tangent,
    gonal_pencil_count,
    h1_double_pencil,
    maroni_h0,
    moduli_dimension,
)
from .picard import (
    DivisibilityVerdict,
    VerdictStatus,
    degree_subgroup,
    modular_degree_constraint,
    solve_degree,
)
from .report import (
    GonalReport,
    SweepSummary,
    emit_json,
    generate_report,
    parse_json,
    render_text,
    sweep_verify,
)
from .scroll import (
    AutNumerics,
    ScrollSpec,
    aut_group_numerics,
    canonical_class,
    curve_class,
    generic_scroll,
    validate_scroll,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientScroll",
    "AutNumerics",
    "BinaryForm",
    "ChowClass",
    "Cohomology",
    "ConsistencyError",
    "DivisibilityVerdict",
    "DivisorClass",
    "DomainError",
    "FeBundle",
    "GonalReport",
    "HyperellipticModel",
    "RatherFreeResult",
    "ScrollSpec",
    "SweepSummary",
    "UnsupportedError",
    "VerdictStatus",
    "aut_group_numerics",
    "ballico_h0",
    "bundle_cohomology",
    "canonical_bundle",
    "canonical_class",
    "chi_normal_bundle",
    "chi_restricted_tangent",
    "curve_class",
    "degree_subgroup",
    "discriminant_nonzero",
    "emit_json",
    "generate_report",
    "generic_scroll",
    "gonal_pencil_count",
    "h1_double_pencil",
    "hg_dimension",
    "intersect_number",
    "maroni_h0",
    "moduli_dimension",
    "modular_degree_constraint",
    "parse_json",
    "rather_free_check",
    "render_text",
    "solve_degree",
    "sweep_verify",
    "trigonal_curve_bundle",
    "trigonal_h0_oracle",
    "twist_with_point",
    "validate_scroll",
]
