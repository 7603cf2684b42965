"""The package surface: what `import gonal` exports, read on first use."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

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

SUBMODULES = [
    "checks", "chow", "cli", "errors", "hirzebruch", "hyperelliptic", "invariants",
    "picard", "report", "scroll",
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
    assert public - set(EXPORTS) == set(SUBMODULES)


def test_every_submodule_by_attribute_in_a_fresh_interpreter():
    # dir(gonal) lists every submodule before any is loaded, and loading
    # them changes nothing in it
    code = (
        "import sys, gonal\n"
        "before = dir(gonal)\n"
        "assert not any(m.startswith('gonal.') for m in sys.modules), sorted(sys.modules)\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert getattr(gonal, name) is sys.modules['gonal.' + name]\n"
        "assert dir(gonal) == before\n"
    )
    home = str(Path(gonal.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": home},
    )
    assert proc.returncode == 0, proc.stderr


def test_version_has_one_home():
    # pyproject.toml reads the version from gonal.__version__ and spells none
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'dynamic = ["version"]' in text
    assert 'version = {attr = "gonal.__version__"}' in text
    assert re.search(r'^version\s*=\s*"', text, re.M) is None
    assert re.fullmatch(r"\d+\.\d+\.\d+", gonal.__version__)


def test_unknown_name():
    with pytest.raises(AttributeError, match="nope"):
        gonal.nope
    with pytest.raises(ImportError, match="nope"):
        from gonal import nope  # noqa: F401


def test_submodule_by_attribute():
    assert gonal.report is sys.modules["gonal.report"]
    assert gonal.checks.sweep_verify is gonal.sweep_verify


def test_patched_attribute_shows_through(monkeypatch):
    def stand_in(*args):
        return None

    monkeypatch.setattr("gonal.report.generate_report", stand_in)
    assert gonal.generate_report is stand_in
    monkeypatch.undo()
    assert gonal.generate_report is not stand_in


def _readme_names() -> list[str]:
    """Each gonal.<module>.<name> that README spells in a code span, fenced
    blocks left out."""
    text = re.sub(r"```.*?```", "", (Path(__file__).parents[1] / "README.md").read_text(), flags=re.S)
    return sorted({m for span in re.findall(r"`([^`]+)`", text) for m in re.findall(r"\bgonal(?:\.\w+){2,}", span)})


def test_readme_names_resolve():
    names = _readme_names()
    # the caps of every command, and the entry points, are among them
    assert {"gonal.cli.run", "gonal.report.K_MAX_LIMIT", "gonal.checks.SWEEP_POINT_LIMIT"} <= set(names)
    for name in names:
        _, module, *path = name.split(".")
        value = importlib.import_module(f"gonal.{module}")
        for attr in path:
            assert hasattr(value, attr), name
            value = getattr(value, attr)
