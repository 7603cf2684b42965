"""Tests for report generation, serialization, and the sweep harness."""

import pytest

from gonal.errors import DomainError
from gonal.report import (
    GonalReport,
    _encode_ints,
    emit_json,
    generate_report,
    parse_json,
    render_text,
    sweep_verify,
)


class TestGenerateReport:
    def test_trigonal_dossier(self):
        report = generate_report(5, 3, 6)
        assert report.invariants.hilbert_scheme_dimension == 17
        assert report.scroll.aut_total_dim == 6
        assert report.divisibility.divisor == 1
        assert report.oracle_checks is not None
        assert len(report.oracle_checks) == 6
        assert all(row.agree for row in report.oracle_checks)
        flags = report.consistency_flags
        assert flags.euler_chain and flags.branch_continuity
        assert flags.dim_p_l and flags.oracle_agreement
        assert report.scroll.surface == "F1"

    def test_higher_gonality_marks_oracle_not_applicable(self):
        report = generate_report(8, 4, 0)
        assert report.oracle_checks is None
        assert report.consistency_flags.dim_p_l is None
        assert report.consistency_flags.oracle_agreement is None
        assert report.section_counts == ()
        assert report.divisibility.divisor == 2
        assert report.divisibility.status.value == "conjecture"
        assert report.scroll.surface is None

    def test_boundary_genus_rejected(self):
        with pytest.raises(DomainError, match="2n-2 < g"):
            generate_report(4, 3, 1)

    def test_negative_kmax_rejected(self):
        with pytest.raises(DomainError):
            generate_report(5, 3, -1)

    def test_deterministic(self):
        a = generate_report(7, 3, 5)
        b = generate_report(7, 3, 5)
        assert a == b
        assert emit_json(a) == emit_json(b)
        assert render_text(a) == render_text(b)


class TestSerialization:
    @pytest.mark.parametrize("g,n,k", [(5, 3, 6), (8, 4, 3), (12, 5, 0)])
    def test_json_round_trip(self, g, n, k):
        report = generate_report(g, n, k)
        assert parse_json(emit_json(report)) == report

    def test_snake_case_fields(self):
        import json

        doc = json.loads(emit_json(generate_report(5, 3, 2)))
        assert set(doc) == {
            "input",
            "scroll",
            "classes",
            "invariants",
            "section_counts",
            "oracle_checks",
            "divisibility",
            "consistency_flags",
        }
        assert doc["divisibility"]["status"] == "provenForTrigonal"
        assert doc["consistency_flags"]["dim_p_l"] is True

    def test_big_integers_become_strings(self):
        safe = (1 << 53) - 1
        encoded = _encode_ints({"a": safe, "b": safe + 1, "c": [-safe - 2, True]})
        assert encoded == {"a": safe, "b": str(safe + 1), "c": [str(-safe - 2), True]}

    def test_from_dict_coerces_string_integers(self):
        report = generate_report(5, 3, 2)
        doc = report.to_dict()
        doc["invariants"]["chi_normal_bundle"] = str(
            doc["invariants"]["chi_normal_bundle"]
        )
        doc["input"]["g"] = "5"
        assert GonalReport.from_dict(doc) == report


class TestRenderText:
    def test_sections_present(self):
        text = render_text(generate_report(5, 3, 4))
        assert "scroll: dimension 2, degree 3 in P^4" in text
        assert "canonical K_X = -2*D + f" in text
        assert "curve     C   = 3*D - f" in text
        assert "multiple of 1 [provenForTrigonal, sharp]" in text
        assert "oracle ok" in text

    def test_not_applicable_rendering(self):
        text = render_text(generate_report(8, 4, 2))
        assert "not applicable" in text
        assert "dim-P(L) n/a" in text


class TestSweep:
    def test_clean_grid(self):
        summary = sweep_verify(range(5, 13), range(3, 5))
        assert summary.failed == 0
        assert summary.first_failure is None
        assert summary.checked > 100
        assert summary.ok

    def test_hypothesis_skips_counted(self):
        # n = 5 needs g > 8, so every point of this grid is skipped
        summary = sweep_verify(range(5, 9), range(5, 6))
        assert summary.skipped == 4
        assert summary.failed == 0
        assert summary.skip_reasons == {"requires n >= 3 and 2n-2 < g": 4}

    def test_empty_ranges_rejected(self):
        with pytest.raises(DomainError):
            sweep_verify(range(5, 5), range(3, 4))

    def test_negative_kmax_rejected(self):
        # every k-scan would be empty, so the sweep would pass vacuously
        with pytest.raises(DomainError, match=r"requires k_max >= 0 \(got k_max=-5\)"):
            sweep_verify(range(5, 9), range(3, 4), k_max=-5)

    def test_kmax_override(self):
        summary = sweep_verify(range(9, 10), range(3, 4), k_max=3)
        assert summary.failed == 0
