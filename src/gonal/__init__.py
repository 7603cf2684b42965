"""Exact invariants of n-gonal curve families.

Intersection arithmetic on rational normal scrolls, scroll
classification, section counts of multiples of the gonal pencil with an
independent Hirzebruch-surface oracle for the trigonal case, the degree
lattice behind modular-degree divisibility, hyperelliptic twisting, and
a report/verification front end.

Each export is read from its submodule on first use (PEP 562), so
``import gonal`` loads no submodule. Nothing is cached here: a patched
submodule attribute shows through ``gonal.<name>``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "checks": ("SweepSummary", "sweep_verify"),
    "chow": ("AmbientScroll", "ChowClass", "intersect_number"),
    "errors": ("ConsistencyError", "DomainError", "UnsupportedError"),
    "hirzebruch": (
        "Cohomology", "FeBundle", "RatherFreeResult", "bundle_cohomology",
        "canonical_bundle", "rather_free_check", "trigonal_curve_bundle",
        "trigonal_h0_oracle",
    ),
    "hyperelliptic": (
        "BinaryForm", "HyperellipticModel", "discriminant_nonzero", "hg_dimension",
        "twist_with_point",
    ),
    "invariants": (
        "ballico_h0", "chi_normal_bundle", "chi_restricted_tangent",
        "gonal_pencil_count", "h1_double_pencil", "maroni_h0", "moduli_dimension",
    ),
    "picard": (
        "DivisibilityVerdict", "VerdictStatus", "degree_subgroup",
        "modular_degree_constraint", "solve_degree",
    ),
    "report": ("GonalReport", "emit_json", "generate_report", "parse_json", "render_text"),
    "scroll": (
        "AutNumerics", "ScrollSpec", "aut_group_numerics", "canonical_class",
        "curve_class", "generic_scroll", "validate_scroll",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# every submodule, reachable as gonal.<name> whether or not it is loaded
_MODULES = {*_EXPORTS, "cli"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _MODULES:
        return _import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module("." + _HOME[name], __name__), name)


def __dir__():
    return sorted(globals().keys() | _HOME.keys() | _MODULES)
