"""The package surface: what `import gonal` exports, read on first use."""

import importlib
import sys

import pytest

import gonal

EXPORTS = [
    "AmbientScroll", "AutNumerics", "BinaryForm", "ChowClass", "Cohomology",
    "ConsistencyError", "DivisibilityVerdict", "DomainError",
    "FeBundle", "GonalReport", "HyperellipticModel", "RatherFreeResult",
    "ScrollSpec", "SweepSummary", "UnsupportedError", "VerdictStatus",
    "aut_group_numerics", "ballico_h0", "bundle_cohomology", "canonical_bundle",
    "canonical_class", "chi_normal_bundle", "chi_restricted_tangent",
    "curve_class", "degree_subgroup", "discriminant_nonzero", "emit_json",
    "generate_report", "generic_scroll", "gonal_pencil_count",
    "h1_double_pencil", "hg_dimension", "intersect_number", "maroni_h0",
    "modular_degree_constraint", "moduli_dimension", "parse_json",
    "rather_free_check", "render_text", "solve_degree", "sweep_verify",
    "trigonal_curve_bundle", "trigonal_h0_oracle", "twist_with_point",
    "validate_scroll",
]


def test_all_is_pinned():
    assert len(EXPORTS) == 45
    assert gonal.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_its_home_object(name):
    obj = getattr(gonal, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("gonal.")
    assert getattr(home, name) is obj


def test_star_import_and_dir():
    namespace = {}
    exec("from gonal import *", namespace)
    assert set(EXPORTS) <= namespace.keys()
    assert set(EXPORTS) <= set(dir(gonal))
    assert "__version__" in dir(gonal)
    public = {name for name in dir(gonal) if not name.startswith("_")}
    assert public - set(EXPORTS) <= {
        "chow", "errors", "hirzebruch", "hyperelliptic", "invariants", "picard",
        "report", "scroll", "cli",
    }


def test_unknown_name():
    with pytest.raises(AttributeError, match="nope"):
        gonal.nope
    with pytest.raises(ImportError, match="nope"):
        from gonal import nope  # noqa: F401


def test_submodule_by_attribute():
    assert gonal.report is sys.modules["gonal.report"]
    assert gonal.report.sweep_verify is gonal.sweep_verify


def test_patched_attribute_shows_through(monkeypatch):
    def stand_in(*args):
        return None

    monkeypatch.setattr("gonal.report.generate_report", stand_in)
    assert gonal.generate_report is stand_in
    monkeypatch.undo()
    assert gonal.generate_report is not stand_in
