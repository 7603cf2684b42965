"""Tests for report generation, serialization, and the sweep harness."""

import builtins
import itertools
import json
import math
import os
import random
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations_with_replacement
from pathlib import Path

import pytest

from gonal import checks, cli, hirzebruch, hyperelliptic, invariants, picard, report, scroll
from gonal.chow import AmbientScroll, ChowClass
from gonal.errors import ConsistencyError, DomainError, in_scroll_range, int_text_limit
from gonal.invariants import decisive_ks
from gonal.report import (
    ConsistencyFlags,
    GonalReport,
    InvariantSummary,
    OracleRow,
    ScrollSummary,
    _agree,
    _encode_ints,
    _cells,
    _column,
    _cut,
    _runs,
    emit_json,
    generate_report,
    parse_json,
    render_text,
    write_report,
)
from gonal.checks import (
    SweepSummary,
    _case_rows,
    _curve_h1,
    _global_checks,
    _pieri_degrees,
    _point_rows,
    sweep_verify,
)


def outcomes(rows) -> list[tuple[str, str]]:
    """(name, "pass" | "fail" | "skip") of each check row, in order, as
    the sweep's tally counts it."""
    out = []
    for row in rows:
        tally = checks._Tally()
        tally.count([row], 0)
        (outcome,) = tally.outcomes
        out.append((row[0], outcome))
    return out


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

    def test_kmax_capped(self):
        assert len(generate_report(5, 3, report.K_MAX_LIMIT).section_counts) == 10**7
        with pytest.raises(DomainError, match="k_max <= 10000000"):
            generate_report(5, 3, report.K_MAX_LIMIT + 1)

    def test_gonality_capped(self, monkeypatch):
        with pytest.raises(DomainError) as info:
            generate_report(10**20, 5 * 10**19 - 1, 0)
        assert str(info.value) == "requires n <= 1000000 (got n=49999999999999999999)"
        # the bound is read from its one home, for reports and sweeps alike
        monkeypatch.setattr(report, "GONALITY_LIMIT", 10)
        assert generate_report(21, 10, 0).n == 10
        with pytest.raises(DomainError, match=r"^requires n <= 10 \(got n=11\)$"):
            generate_report(23, 11, 0)
        assert sweep_verify([21], range(3, 11)).ok
        with pytest.raises(DomainError, match=r"^requires n <= 10 \(got n=11\)$"):
            sweep_verify([21], range(3, 12))

    def test_sweep_points_capped(self, monkeypatch):
        monkeypatch.setattr(checks, "SWEEP_POINT_LIMIT", 6)
        # a list counts its distinct values, a range its length
        assert sweep_verify([5, 6, 6, 7], range(3, 5)).ok
        with pytest.raises(DomainError, match=r"^requires at most 6 grid points \(got 8\)$"):
            sweep_verify(range(5, 9), [3, 4, 4])
        # refused before a check runs, however wide the range
        monkeypatch.setattr(checks, "_global_checks", None)
        with pytest.raises(DomainError, match=r"\(got 10000000000000000000000\)$"):
            sweep_verify(range(10**22), range(3, 4))

    def test_genus_capped(self, monkeypatch):
        # every value a report or a sweep prints stays within the digits
        # the interpreter converts to text: 4000 by default, fewer under a
        # lowered int-to-text limit
        digits = report.genus_digits()
        message = rf"^requires g < 10\^{digits} \(got a genus of more than {digits} digits\)$"
        with pytest.raises(DomainError, match=message):
            generate_report(report.GENUS_LIMIT, 3, 0)
        with pytest.raises(DomainError, match=message):
            sweep_verify(range(5, report.GENUS_LIMIT + 1), [3])
        assert generate_report(10**digits - 1, 3, 0).g == 10**digits - 1
        # read from its one home
        monkeypatch.setattr(report, "GENUS_LIMIT", 100)
        assert sweep_verify(range(97, 100), [3, 4]).ok
        for call in (lambda: generate_report(100, 3, 0), lambda: sweep_verify([99, 100], [3])):
            with pytest.raises(DomainError, match=r"^requires g < 10\^2 \(got a genus of more than 2 digits\)$"):
                call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: generate_report(7.0, 3, 2), "an integer g (got float)"),
            (lambda: generate_report(7, 3.0, 2), "an integer n (got float)"),
            (lambda: generate_report(7, 3, "2"), "an integer k_max (got str)"),
            (lambda: sweep_verify([5.5, 6.0], [3]), "an integer g (got float)"),
            (lambda: sweep_verify(["7"], [3]), "an integer g (got str)"),
            (lambda: sweep_verify(range(5, 8), [3, None]), "an integer n (got NoneType)"),
        ],
        ids=["report-g", "report-n", "report-k_max", "sweep-g-float", "sweep-g-str", "sweep-n-none"],
    )
    def test_integer_inputs_only(self, call, message):
        with pytest.raises(DomainError, match=rf"^requires {re.escape(message)}$"):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: generate_report(-(10**5000), 3, 0), "requires g >= 2 (got g={})"),
            (lambda: generate_report(12, -(10**5000), 0), "requires n >= 3 (got n={})"),
            (lambda: generate_report(12, 3, -(10**5000)), "requires k_max >= 0 (got k_max={})"),
        ],
        ids=["g", "n", "k_max"],
    )
    def test_a_refused_value_too_long_to_print(self, call, message):
        # written by its digit count, where the interpreter would not print it
        limit = int_text_limit()
        shown = "-<5001 digits>" if 0 < limit < 5001 else str(-(10**5000))
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message.format(shown)

    @pytest.mark.parametrize(
        "g_values, n_values, printable",
        [
            ([-(10**5000), 7], [3], ([1, 7], [3])),
            ([7], [-(10**5000)], ([7], [0])),
            (range(7, 8), range(-(10**5000), -(10**5000) + 2), (range(7, 8), range(-1, 1))),
        ],
        ids=["g", "n", "n-range"],
    )
    def test_a_skipped_point_too_long_to_print(self, g_values, n_values, printable):
        # the point is skipped, as a point of the same outcomes that prints
        summary = sweep_verify(g_values, n_values)
        assert summary == sweep_verify(*printable)
        assert summary.ok and summary.skip_reasons["requires n >= 3 and 2n-2 < g"] >= 1

    def test_a_bool_counts_as_an_int(self):
        report = generate_report(7, 3, True)
        assert type(report.k_max) is int and report == generate_report(7, 3, 1)
        assert parse_json(emit_json(report)) == report
        assert sweep_verify([True * 7], [3]) == sweep_verify([7], [3])

    @pytest.mark.parametrize(
        "g_values, n_values",
        [
            (range(5, 9), range(0, 5)),
            ([12, 5, 30, 12], [7, 3, 4, 4]),
            (range(5, 40, 7), range(3, 12, 2)),
        ],
    )
    def test_summed_gonality_capped(self, monkeypatch, g_values, n_values):
        # the sum of n over the points in range, skips not counted
        total = sum(n for g in set(g_values) for n in set(n_values) if n >= 3 and 2 * n - 2 < g)
        monkeypatch.setattr(checks, "SWEEP_GONALITY_LIMIT", total)
        assert sweep_verify(g_values, n_values).ok
        monkeypatch.setattr(checks, "SWEEP_GONALITY_LIMIT", total - 1)
        # refused before a check runs
        monkeypatch.setattr(checks, "_global_checks", None)
        message = rf"^requires a sum of n over the points in range of at most {total - 1} \(got {total}\)$"
        with pytest.raises(DomainError, match=message):
            sweep_verify(g_values, n_values)

    def test_deterministic(self):
        a = generate_report(7, 3, 5)
        b = generate_report(7, 3, 5)
        assert a == b
        assert emit_json(a) == emit_json(b)
        assert render_text(a) == render_text(b)


class TestSerialization:
    @pytest.fixture
    def strict_issubclass(self, monkeypatch):
        """issubclass as Python 3.13 has it, which refuses an alias such as
        tuple[int, int], with the codec's type-keyed caches emptied."""

        def strict(cls, classinfo):
            if not isinstance(cls, type):
                raise TypeError("issubclass() arg 1 must be a class")
            return builtins.issubclass(cls, classinfo)

        caches = (report._is_record, report._plan, report._tables, report._row_template)
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(report, "issubclass", strict, raising=False)
        yield
        for cache in caches:
            cache.cache_clear()

    def test_records_under_a_strict_issubclass(self, strict_issubclass):
        is_record = report._is_record.__wrapped__
        assert not is_record(tuple[int, int])
        assert is_record(GonalReport) and is_record(OracleRow)
        assert not is_record(int)
        r = generate_report(12, 3, 24)
        assert parse_json(emit_json(r)) == r

    @pytest.mark.parametrize("g,n,k", [(5, 3, 6), (8, 4, 3), (12, 5, 0)])
    def test_json_round_trip(self, g, n, k):
        report = generate_report(g, n, k)
        assert parse_json(emit_json(report)) == report

    def test_emit_matches_json_dumps(self):
        """emit_json writes the tables from a row template; json.dumps of
        to_dict is the second route to the same bytes."""
        reports = [
            generate_report(g, n, k_max)
            for n in range(3, 7)
            for g in range(2 * n - 1, 41)
            for k_max in (0, 2 * g)
        ]
        big = generate_report((1 << 60) + 1, 3, 4)
        safe = (1 << 53) - 1
        base = generate_report(9, 3, 6)
        reports += [
            big,
            big._replace(
                section_counts=((1, safe), (2, safe + 1)),
                oracle_checks=(OracleRow(1, -safe - 1, safe, False),),
            ),
            # one unsafe cell in the middle of a column
            base._replace(
                section_counts=((1, 2), (2, -safe - 5), (3, 4)),
                oracle_checks=(
                    OracleRow(1, 2, 2, True),
                    OracleRow(2, 3, safe + 9, False),
                    OracleRow(3, 4, 4, True),
                ),
            ),
            # unsafe values only in the k column
            base._replace(
                section_counts=((1, 2), (safe + 1, 3)),
                oracle_checks=(OracleRow(-safe - 1, 2, 2, True), OracleRow(2, 3, 3, True)),
            ),
            # the edges of the safe range, inside and just outside
            base._replace(
                section_counts=((safe, -safe), (-safe, safe), (safe + 1, -safe - 1)),
                oracle_checks=(
                    OracleRow(safe, -safe, safe, True),
                    OracleRow(-safe - 1, safe + 1, -safe, False),
                ),
            ),
            base._replace(
                section_counts=((safe, -safe), (-safe, safe)),
                oracle_checks=(OracleRow(-safe, safe, -safe, False),),
            ),
        ]
        for r in reports:
            assert emit_json(r) == json.dumps(r.to_dict(), indent=2) + "\n", (
                r.g,
                r.n,
                r.k_max,
            )
            assert parse_json(emit_json(r)) == r

    def test_oracle_row_is_a_named_tuple(self):
        row = OracleRow(3, 4, 4, True)
        assert OracleRow._fields == ("k", "formula_value", "oracle_value", "agree")
        assert (row.k, row.formula_value, row.oracle_value, row.agree) == (3, 4, 4, True)
        with pytest.raises(AttributeError):
            row.agree = False
        assert hash(row) == hash(OracleRow(3, 4, 4, True))
        assert len({row, OracleRow(3, 4, 4, True)}) == 1
        report = generate_report(11, 3, 22)
        assert all(type(r) is OracleRow for r in report.oracle_checks)
        assert parse_json(emit_json(report)) == report
        assert all(type(r) is OracleRow for r in parse_json(emit_json(report)).oracle_checks)

    def test_record_types_survive_the_round_trip(self):
        # a NamedTuple equals a plain tuple, so equality alone would not see
        # a decoder that builds tuples
        records = (
            ("scroll", ScrollSummary),
            ("invariants", InvariantSummary),
            ("consistency_flags", ConsistencyFlags),
        )
        for r in (generate_report(11, 3, 22), generate_report(13, 5, 4)):
            back = parse_json(emit_json(r))
            assert back == r
            for name, tp in records:
                assert type(getattr(r, name)) is tp and type(getattr(back, name)) is tp
        summary = sweep_verify(range(5, 9), range(3, 5))
        assert type(summary) is SweepSummary
        doc = summary.to_dict()
        assert list(doc) == list(SweepSummary._fields)
        again = SweepSummary(**doc)
        assert type(again) is SweepSummary and again == summary

    def test_snake_case_fields(self):
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
        encoded = _encode_ints({"a": safe, "b": safe + 1, "c": [-safe - 2, True, -safe, -safe - 1]})
        assert encoded == {
            "a": safe, "b": str(safe + 1), "c": [str(-safe - 2), True, -safe, str(-safe - 1)]
        }

    def test_from_dict_coerces_string_integers(self):
        report = generate_report(5, 3, 2)
        doc = report.to_dict()
        doc["invariants"]["chi_normal_bundle"] = str(
            doc["invariants"]["chi_normal_bundle"]
        )
        doc["input"]["g"] = "5"
        assert GonalReport.from_dict(doc) == report


def _set(*path):
    """An edit of a report's JSON document: the value at path, replaced."""

    def edit(doc, value):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value

    return edit


class TestStrictParse:
    """parse_json and from_dict read only what emit_json writes."""

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("consistency_flags", "euler_chain"), "false", "euler_chain"),
            (("oracle_checks", 0, "agree"), "false", "oracle_checks.agree"),
            (("input", "g"), 5.9, "g"),
            (("section_counts", 1, 1), 2.5, "section_counts.1"),
            (("scroll", "splitting", 1), 1.9, "splitting"),  # [0, 1.9]
            (("input", "g"), True, "g"),
            (("input", "g"), None, "g"),
        ],
        ids=["bool-string", "row-bool-string", "float-int", "float-cell", "float-item", "bool-int", "null-int"],
    )
    def test_refused(self, path, value, field):
        doc = json.loads(emit_json(generate_report(9, 3, 4)))
        _set(*path)(doc, value)
        message = rf"^cannot read '{re.escape(field)}' from JSON: expected [^\n]*, got {re.escape(json.dumps(value))}$"
        with pytest.raises(DomainError, match=message):
            GonalReport.from_dict(doc)
        with pytest.raises(DomainError, match=message):
            parse_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit, value",
        [
            (_set("divisibility", "status"), "Theorem"),
            (_set("divisibility", "status"), 1),
            (_set("classes", "canonical_class"), [-2, 4, 0]),
            (_set("scroll", "splitting"), "01"),
            (_set("section_counts"), ["12", "23", "34", "45"]),
            (_set("section_counts", 0), [1, 2, 3]),
            (_set("oracle_checks", 0), {"k": 1, "formula_value": 2, "oracle_value": 2, "agreed": True}),
            (_set("scroll"), [2]),
            (_set("input"), None),
            (_set("divisibility", "sharp"), 1),
            (_set("scroll", "aut_components"), "+1"),
            (_set("scroll", "aut_components"), "١"),
            # a key emit_json never writes, at each level below the top
            (_set("input", "note"), 1),
            (_set("classes", "note"), 1),
            (_set("scroll", "note"), 1),
            (_set("invariants", "note"), 1),
            (_set("divisibility", "note"), 1),
            (_set("consistency_flags", "note"), 1),
            (_set("oracle_checks", 0, "note"), 1),
        ],
        ids=[
            "enum-case", "enum-int", "triple-for-pair", "string-for-array", "string-rows",
            "long-row", "renamed-cell", "array-for-object", "null-group", "int-for-bool",
            "signed-string", "arabic-digit", "input-key", "classes-key", "scroll-key",
            "invariants-key", "divisibility-key", "flags-key", "row-key",
        ],
    )
    def test_refused_shapes(self, edit, value):
        doc = json.loads(emit_json(generate_report(9, 3, 4)))
        edit(doc, value)
        with pytest.raises(DomainError, match=r"^cannot read '\S+' from JSON: expected [^\n]*$"):
            GonalReport.from_dict(doc)

    def test_an_unknown_top_level_key(self):
        # a copy of classes.curve_class at the top, which emit_json never writes
        doc = json.loads(emit_json(generate_report(9, 3, 4)))
        doc["curve_class"] = doc["classes"]["curve_class"]
        message = r"^cannot read 'GonalReport' from JSON: expected only GonalReport fields, got \"curve_class\"$"
        with pytest.raises(DomainError, match=message):
            GonalReport.from_dict(doc)
        with pytest.raises(DomainError, match=message):
            parse_json(json.dumps(doc))

    def test_digits_past_the_int_limit(self):
        limit = int_text_limit()
        if not limit:
            pytest.skip("this interpreter reads any number of digits")
        doc = generate_report(9, 3, 4).to_dict()
        doc["input"]["g"] = "9" * (limit + 1)
        with pytest.raises(DomainError, match=r"^cannot read 'g' from JSON: expected an integer, got \"9+$"):
            GonalReport.from_dict(doc)

    def test_a_number_past_the_int_limit(self):
        limit = int_text_limit()
        if not limit:
            pytest.skip("this interpreter reads any number of digits")
        text = emit_json(generate_report(9, 3, 4)).replace('"g": 9,', f'"g": {"9" * (limit + 701)},')
        with pytest.raises(DomainError) as info:
            parse_json(text)
        assert str(info.value).startswith("cannot read JSON: ") and "\n" not in str(info.value)

    def test_text_that_is_no_json(self):
        with pytest.raises(DomainError, match=r"^cannot read JSON: Expecting value: line 1 column 1 \(char 0\)$"):
            parse_json("")

    @pytest.mark.parametrize("text", ["[" * 100000, '{"input": ' * 100000], ids=["arrays", "objects"])
    def test_text_nested_too_deep(self, text):
        with pytest.raises(DomainError, match=r"^cannot read JSON: [^\n]+$"):
            parse_json(text)

    @pytest.mark.parametrize(
        "path, value, got",
        [
            (("input", "g"), Fraction(7), "a value of type Fraction"),
            (("input", "g"), {1, 2}, "a value of type set"),
            (("input", "g"), b"7", "a value of type bytes"),
            (("input", "g"), object(), "a value of type object"),
            (("scroll", "surface"), 10**5000, "<5001 digits>" if 0 < int_text_limit() < 5001 else "1" + "0" * 39),
        ],
        ids=["fraction", "set", "bytes", "object", "int-past-the-limit"],
    )
    def test_a_value_json_cannot_write(self, path, value, got):
        doc = generate_report(9, 3, 4).to_dict()
        _set(*path)(doc, value)
        field = path[-1]
        message = rf"^cannot read '{field}' from JSON: expected [^\n]*, got {re.escape(got)}$"
        with pytest.raises(DomainError, match=message):
            GonalReport.from_dict(doc)

    @pytest.mark.parametrize(
        "path, field, sign",
        [
            (("input", "g"), "g", 1),
            (("scroll", "degree"), "degree", 1),
            # a negative item is the least of its array
            (("scroll", "splitting", 0), "splitting", -1),
            (("classes", "curve_class", 1, 2), "curve_class", 1),
            (("section_counts", 2, 1), "section_counts.1", 1),
            (("oracle_checks", 3, "oracle_value"), "oracle_checks.oracle_value", 1),
        ],
        ids=["g", "degree", "splitting-item", "curve-class-cell", "section-counts-cell", "oracle-checks-cell"],
    )
    def test_an_int_too_long_to_write(self, path, field, sign):
        # an int, not a decimal string, past the int-to-text limit: read
        # back, emit_json and render_text could not write it
        limit = int_text_limit()
        if not 0 < limit < 5000:
            pytest.skip("this interpreter writes 10^5000")
        doc = generate_report(9, 3, 4).to_dict()
        _set(*path)(doc, sign * 10**5000)
        message = (
            f"cannot read '{field}' from JSON: expected an integer of at most {limit} digits, "
            f"got {'-' if sign < 0 else ''}<5001 digits>"
        )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            GonalReport.from_dict(doc)

    def test_null_only_where_the_hint_allows_it(self):
        report = generate_report(13, 4, 3)
        doc = report.to_dict()
        assert [doc["scroll"]["surface"], doc["oracle_checks"]] == [None, None]
        assert GonalReport.from_dict(doc) == report
        for path in (("scroll", "degree"), ("consistency_flags", "euler_chain"), ("section_counts",)):
            doc = report.to_dict()
            _set(*path)(doc, None)
            with pytest.raises(DomainError, match=r"got null$"):
                GonalReport.from_dict(doc)

    def test_decimal_strings_in_cells_and_items(self):
        report = generate_report(9, 3, 4)
        doc = report.to_dict()
        doc["section_counts"][2][1] = str(doc["section_counts"][2][1])
        doc["scroll"]["splitting"] = [str(x) for x in doc["scroll"]["splitting"]]
        assert GonalReport.from_dict(doc) == report
        assert type(GonalReport.from_dict(doc).section_counts[2][1]) is int


class TestTables:
    """The k-tables are read-only sequences of rows over affine pieces."""

    def test_sequence_of_rows(self):
        r = generate_report(11, 3, 30)
        for table in (r.section_counts, r.oracle_checks):
            rows = list(table)
            assert len(table) == len(rows) == 30
            assert [table[i] for i in range(-30, 30)] == rows + rows
            assert type(table[-1]) is type(rows[-1])
            with pytest.raises(IndexError):
                table[30]
            assert table == rows and table == tuple(rows) and tuple(rows) == table
            assert table != rows[:-1] and table != rows[:-1] + [rows[0]]
            assert hash(table) == hash(tuple(rows))
            assert (table == 5) is False and table != 5
            assert repr(table) == repr(tuple(rows))
        assert r.section_counts[0] == (1, 2)
        assert r.oracle_checks[4] == OracleRow(5, 6, 6, True)

    def test_slices(self, monkeypatch):
        r = generate_report(11, 3, 10)
        # bounds inside, at and past both ends of the 10 rows
        bounds = (None, -20, -3, 0, 2, 9, 10, 20)
        for table in (r.section_counts, r.oracle_checks):
            rows = tuple(table)
            for a, b, c in itertools.product(bounds, bounds, (1, 2, -1)):
                picked = table[a:b:c]
                assert type(picked) is tuple and picked == rows[a:b:c], (a, b, c)
                assert [type(row) for row in picked] == [type(row) for row in rows[a:b:c]]
                assert [type(cell) for row in picked for cell in row] == [
                    type(cell) for row in rows[a:b:c] for cell in row
                ]
        # a slice makes the cells of its own rows only, at any length
        big = generate_report(2000, 3, report.K_MAX_LIMIT).oracle_checks
        made, ints = [], report._ints
        monkeypatch.setattr(report, "_ints", lambda *piece: made.append(piece[0]) or ints(*piece))
        assert big[-3:] == tuple(big[i] for i in range(-3, 0))
        assert big[5 : 10**7 : 2 * 10**6] == tuple(big[i] for i in range(5, 10**7, 2 * 10**6))
        assert big[::-4 * 10**6] == (big[-1], big[-1 - 4 * 10**6], big[-1 - 8 * 10**6])
        # 11 rows picked by slices and 11 one by one, in each of 4 columns
        assert sum(made) == 4 * 2 * 11

    def test_replaced_rows_are_read_into_pieces(self):
        base = generate_report(9, 3, 6)
        rows = ((1, 5), (2, 7), (9, 7))
        r = base._replace(section_counts=rows, oracle_checks=None)
        assert type(r.section_counts) is type(base.section_counts)
        assert r.section_counts == rows and list(r.section_counts) == list(rows)
        assert base._replace(section_counts=()).section_counts == ()

    def test_many_pieces_are_read_in_one_pass(self):
        # 2 x 10^5 rows of alternating h^0, a piece every two rows: a read
        # that restarts at the top for every piece takes minutes
        rows = [(k, k % 2) for k in range(1, 200001)]
        base = generate_report(12, 4, 0)
        start = time.perf_counter()
        replaced = base._replace(k_max=len(rows), section_counts=rows)
        assert time.perf_counter() - start < 2
        assert list(replaced.section_counts) == rows
        assert len(replaced.section_counts.columns[1]) == len(rows) // 2
        text = emit_json(replaced)
        start = time.perf_counter()
        parsed = parse_json(text)
        assert time.perf_counter() - start < 2
        assert parsed == replaced and emit_json(parsed) == text

    def test_runs_round_trip(self):
        rng = random.Random(3)
        for _ in range(300):
            size = rng.randrange(0, 12)
            ints = [rng.randrange(-3, 4) for _ in range(size)]
            bools = [rng.random() < 0.5 for _ in range(size)]
            assert list(_cells(_runs(ints, int))) == ints
            back = list(_cells(_runs(bools, bool)))
            assert back == bools and all(type(v) is bool for v in back)
        # a column affine in k is one piece, whatever its length
        assert _runs(range(7, 7 + 3 * 10**6, 3), int) == [(10**6, 7, 3)]

    def test_column(self):
        # each column against its h0 at every printed k, h0 read only at the
        # decisive ks up to k_max and the one after
        columns = [
            (partial(invariants.ballico_h0, g, n), invariants.ballico_switches(g, n), g)
            for n in range(3, 7)
            for g in range(2 * n - 1, 31)
        ] + [
            (partial(hirzebruch.trigonal_h0_oracle, g), hirzebruch.trigonal_h0_switches(g), g)
            for g in range(5, 41)
        ]
        for h0, switches, g in columns:
            values = [h0(k) for k in range(1, 3 * g + 1)]
            ks = decisive_ks(switches)
            for k_max in range(3 * g + 1):
                calls = []
                pieces = _column(lambda k: calls.append(k) or h0(k), switches, k_max)
                assert all(rows > 0 for rows, _, _ in pieces), (switches, k_max)
                assert list(_cells(pieces)) == values[:k_max], (switches, k_max)
                after = [k for k in ks if k > k_max][:1]
                read = [k for k in ks if k <= k_max] + after if k_max else []
                assert calls == read, (switches, k_max)

    @staticmethod
    def _random_column(rng, rows, tp=int):
        pieces = []
        while rows:
            size = min(rows, rng.choice([1, 1, 2, 3, 5]))
            if tp is bool:
                pieces.append((size, rng.random() < 0.5, 0))
            else:
                pieces.append((size, rng.randrange(-5, 6), rng.randrange(-3, 4)))
            rows -= size
        return pieces

    @staticmethod
    def _edges(pieces):
        return set(accumulate(rows for rows, _, _ in pieces))

    def test_indexing_keeps_cell_types(self):
        reports = [generate_report(*p) for p in ((9, 3, 6), (11, 3, 30), (20, 4, 40), (5, 3, 1))]
        tables = [t for r in reports for t in (r.section_counts, r.oracle_checks) if t is not None]
        base = reports[0]
        replaced = [OracleRow(k, k, k // 2, k % 3 == 0) for k in range(1, 9)]
        tables.append(base._replace(section_counts=((1, 5), (2, 7), (9, 7))).section_counts)
        tables.append(base._replace(oracle_checks=replaced).oracle_checks)
        for table in tables:
            rows = list(table)
            for i in range(-len(rows), len(rows)):
                assert table[i] == rows[i], (table, i)
                assert type(table[i]) is type(rows[i]), (table, i)
                assert list(map(type, table[i])) == list(map(type, rows[i])), (table, i)
        # a bool cell read from inside a run, not the int 1
        assert type(base.oracle_checks[3].agree) is bool

    def test_cut(self):
        rng = random.Random(29)
        for _ in range(500):
            tp = rng.choice([int, bool])
            rows = rng.randrange(0, 16)
            pieces = self._random_column(rng, rows, tp)
            size = rng.randrange(0, rows + 1)
            stack = pieces[::-1]
            head = _cut(stack, size)
            assert sum(n for n, _, _ in head) == size, (pieces, size)
            assert all(n > 0 for n, _, _ in head + stack), (pieces, size)
            cells = list(_cells(head)) + list(_cells(stack[::-1]))
            assert cells == list(_cells(pieces)), (pieces, size)
            assert all(type(v) is tp for _, v, _ in head + stack), (pieces, size)
            assert all(type(c) is tp for c in cells), (pieces, size)

    def test_minus(self):
        # a == b is read off the difference a - b of two random columns
        rng = random.Random(19)
        for _ in range(500):
            rows = rng.randrange(0, 16)
            a, b = self._random_column(rng, rows), self._random_column(rng, rows)
            runs = _agree(a, b)
            expected = [x == y for x, y in zip(_cells(a), _cells(b), strict=True)]
            cells = list(_cells(runs))
            assert cells == expected and all(type(c) is bool for c in cells), (a, b)
            assert all(n > 0 and slope == 0 for n, _, slope in runs), (a, b)
            # runs are cut at every edge of either column
            assert self._edges(a) | self._edges(b) <= self._edges(runs), (a, b)

    def test_zero_runs(self):
        # one affine piece against a zero column: its zero rows, at every
        # size, value and slope
        for rows in range(1, 7):
            for v in range(-6, 7):
                for slope in range(-3, 4):
                    runs = _agree([(rows, v, slope)], [(rows, 0, 0)])
                    assert all(size > 0 for size, _, _ in runs)
                    expected = [v + slope * i == 0 for i in range(rows)]
                    assert list(_cells(runs)) == expected, (rows, v, slope)


class TestFlatMemory:
    """Memory is flat in k_max: tables hold pieces, and the writers hold
    one block of rows at a time."""

    @staticmethod
    def _peak(fn) -> int:
        fn()  # caches and lazy imports first
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_write(self, fmt):
        def peak(k_max):
            r = generate_report(2000, 3, k_max)
            with open(os.devnull, "w") as sink:
                return self._peak(lambda: write_report(r, fmt, sink))

        assert peak(10**5) <= 2 * peak(10**3)

    def test_generate(self):
        assert self._peak(lambda: generate_report(20000, 3, 40000)) <= 2 * self._peak(
            lambda: generate_report(2000, 3, 4000)
        )


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

    def test_tables_of_different_lengths(self):
        r = generate_report(5, 3, 4)
        with pytest.raises(ValueError, match="^the section and oracle tables differ in length$"):
            render_text(r._replace(oracle_checks=r.oracle_checks[:-1]))


class TestBlockEdges:
    """The writers fill each block of 1,024 rows from the pieces in it, so a
    piece may end or start at a block edge or run across it."""

    @staticmethod
    def naive_table(r):
        """The table lines of render_text, one % per row."""
        if r.oracle_checks is None:
            return ["  %-3d %d" % row for row in r.section_counts]
        return [
            "  %-3d %-4d %-7d %s" % (k, h0, row.oracle_value, "yes" if row.agree else "NO")
            for (k, h0), row in zip(r.section_counts, r.oracle_checks, strict=True)
        ]

    def assert_written_row_by_row(self, r):
        assert emit_json(r) == json.dumps(r.to_dict(), indent=2) + "\n"
        lines = render_text(r).splitlines()
        start = lines.index("section counts h^0(k g^1_n):") + 2
        end = start + len(r.section_counts)
        assert lines[start:end] == self.naive_table(r)
        assert lines[end].startswith("modular degree")

    @pytest.mark.parametrize("k_max", [1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("n", [3, 4])
    def test_k_max_at_a_block_edge(self, n, k_max):
        self.assert_written_row_by_row(generate_report(9, n, k_max))

    def test_a_one_row_piece_ends_the_first_block(self):
        r = generate_report(2049, 3, 4098)
        # rows 0..1022, row 1023 alone, then a piece from row 1024 on
        assert r.section_counts.columns[1] == [(1023, 2, 1), (1, 1025, 2), (3074, 1027, 3)]
        self.assert_written_row_by_row(r)

    def test_an_unsafe_piece_across_a_block_edge(self):
        safe = (1 << 53) - 1
        ks = range(1, 1101)
        r = generate_report(9, 3, 6)._replace(
            # h0 leaves the safe range at row 1000, and stays out past row 1024
            section_counts=[(k, k if k <= 1000 else safe + k) for k in ks],
            # the oracle value crosses -safe at row 1019, inside one piece
            oracle_checks=[OracleRow(k, k, 1020 - safe - k, k > 1024) for k in ks],
        )
        assert len(r.section_counts.columns[1]) == 2
        assert len(r.oracle_checks.columns[2]) == 1
        self.assert_written_row_by_row(r)


class TestOracleColumn:
    """The printed oracle column is the surface oracle at its switch
    points, affine between them."""

    def test_every_printed_k_against_the_oracle(self):
        for g in range(5, 61):
            r = generate_report(g, 3, 2 * g)
            expected = [hirzebruch.trigonal_h0_oracle(g, k) for k in range(1, 2 * g + 1)]
            doc = json.loads(emit_json(r))
            assert [row["oracle_value"] for row in doc["oracle_checks"]] == expected, g
            lines = render_text(r).splitlines()
            start = lines.index("  k   h0   oracle  agree") + 1
            table = [line.split() for line in lines[start : start + 2 * g]]
            assert [int(cols[2]) for cols in table] == expected, g
            assert [int(cols[0]) for cols in table] == list(range(1, 2 * g + 1))

    @pytest.mark.parametrize(
        "mutate",
        [lambda switches: [-1], lambda switches: [t - 3 for t in switches]],
        ids=["no-switches", "switches-minus-3"],
    )
    def test_a_wrong_switch_list_shows(self, monkeypatch, mutate):
        switches = hirzebruch.trigonal_h0_switches
        monkeypatch.setattr(
            hirzebruch, "trigonal_h0_switches", lambda g: mutate(switches(g))
        )
        for g in range(5, 61):
            try:
                r = generate_report(g, 3, 2 * g)
            except ConsistencyError:
                continue
            assert not all(row.agree for row in r.oracle_checks), g
            assert [row.agree for row in r.oracle_checks] == [
                row.formula_value == row.oracle_value for row in r.oracle_checks
            ], g
            assert r.consistency_flags.oracle_agreement is False, g

    def test_oracle_calls_do_not_grow_with_g(self, monkeypatch):
        calls = []
        oracle = hirzebruch.trigonal_h0_oracle

        def counted(g, k):
            calls.append(k)
            return oracle(g, k)

        monkeypatch.setattr(hirzebruch, "trigonal_h0_oracle", counted)

        def evaluations(g):
            calls.clear()
            generate_report(g, 3, 2 * g)
            return len(calls)

        assert evaluations(200) == evaluations(20000)

    def test_slopes_are_exact(self):
        # read at 0, 1, 3, 4 and 5: slope 1 up to k = 1, then 3
        column = _column(lambda k: 3 * k - 1 if k else 1, [4], 7)
        assert column == [(2, 2, 3), (1, 8, 3), (4, 11, 3)]
        assert list(_cells(column)) == [2, 5, 8, 11, 14, 17, 20]
        with pytest.raises(ConsistencyError, match=r"^no integer slope from \(1, 0\) to \(3, 1\)$"):
            _column({0: 0, 1: 0, 3: 1, 4: 1, 5: 1}.__getitem__, [4], 5)

    @pytest.mark.parametrize("g, n", [(5, 3), (6, 3), (20, 7), (41, 7)])
    def test_one_scroll_per_report(self, monkeypatch, g, n):
        specs = []
        new = scroll.ScrollSpec.__new__

        def counted(cls, *args):
            specs.append(args)
            return new(cls, *args)

        monkeypatch.setattr(scroll.ScrollSpec, "__new__", counted)
        generate_report(g, n, 2 * g)
        assert len(specs) == 1


class TestFormulaColumn:
    """The printed formula column is ballico_h0 at its switch points,
    affine between them."""

    @staticmethod
    def _k_maxes(g, n):
        t = invariants.ballico_switches(g, n)[0]
        return sorted({0, 1, t - 1, t, t + 1, 2 * g})

    def test_every_printed_k_against_the_formula(self):
        for n in range(3, 9):
            for g in range(2 * n - 1, 61):
                for k_max in self._k_maxes(g, n):
                    r = generate_report(g, n, k_max)
                    ks = list(range(1, k_max + 1))
                    expected = [invariants.ballico_h0(g, n, k) for k in ks]
                    where = (g, n, k_max)
                    doc = json.loads(emit_json(r))
                    assert doc["section_counts"] == [[k, v] for k, v in zip(ks, expected)], where
                    if n == 3:
                        rows = doc["oracle_checks"]
                        assert [row["k"] for row in rows] == ks, where
                        assert [row["formula_value"] for row in rows] == expected, where
                    text = render_text(r).splitlines()
                    if not k_max:
                        assert not any(line.startswith("section counts") for line in text)
                        continue
                    start = text.index("section counts h^0(k g^1_n):") + 2
                    table = [line.split() for line in text[start : start + k_max]]
                    assert [int(cols[0]) for cols in table] == ks, where
                    assert [int(cols[1]) for cols in table] == expected, where

    def test_an_off_by_one_in_the_formula_shows(self, monkeypatch):
        h0 = invariants.ballico_h0
        monkeypatch.setattr(
            invariants,
            "ballico_h0",
            lambda g, n, k: h0(g, n, k) + (k == invariants.ballico_switches(g, n)[0]),
        )
        for g in range(5, 61):
            try:
                r = generate_report(g, 3, 2 * g)
            except ConsistencyError:
                continue
            assert not all(row.agree for row in r.oracle_checks), g
            assert r.consistency_flags.oracle_agreement is False, g

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        f = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return f(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("g, n", [(5, 3), (6, 3), (200, 3), (20001, 3), (9, 4), (200, 7)])
    def test_no_column_evaluations_at_k_max_0(self, monkeypatch, g, n):
        formula = self._count(monkeypatch, invariants, "ballico_h0")
        oracle = self._count(monkeypatch, hirzebruch, "trigonal_h0_oracle")
        generate_report(g, n, 0)
        # only the oracle_agreement predicate evaluates, at its decisive ks
        decisive = (
            decisive_ks(hirzebruch.trigonal_h0_switches(g), invariants.ballico_switches(g, 3))
            if n == 3
            else []
        )
        assert [k for _, _, k in formula] == decisive
        assert [k for _, k in oracle] == decisive

    @pytest.mark.parametrize("n", [3, 7])
    def test_formula_calls_do_not_grow_with_g(self, monkeypatch, n):
        calls = self._count(monkeypatch, invariants, "ballico_h0")

        def evaluations(g):
            calls.clear()
            generate_report(g, n, 2 * g)
            return len(calls)

        assert evaluations(200) == evaluations(20000)


def patch_everywhere(monkeypatch, name, replacement):
    """Replace gonal.scroll's function name in every gonal module that holds
    it, as an edit of its source would."""
    original = getattr(scroll, name)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("gonal.") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def one_process(monkeypatch):
    """Run every sweep in this process: for tests that watch the sweep's
    calls or memory from inside the process."""
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)


def cut_into(monkeypatch, count):
    """Deal every sweep's work to count processes, whatever the CPUs, where
    the grid has a point's worth of checks for each process but the first
    (a point in range is worth at least one) and a chunk for each."""
    monkeypatch.setattr(checks, "_usable_cpus", lambda: count)
    monkeypatch.setattr(checks, "_POINTS_PER_PROCESS", 1)


def assert_no_child():
    """No child process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def worker_starts_first(monkeypatch, on_start=lambda unit: None, until_exit=False) -> list[int]:
    """Make a forked worker take a chunk in every sweep from here on: this
    process's first unit waits on a pipe that each worker writes a unit's
    number to as it starts the unit, then runs on_start(unit).  With
    until_exit the first unit waits until every worker has exited.  The
    units read there are appended to the list returned: the first a worker
    started, or, with until_exit, every unit the workers started."""
    parent, sweep, count = os.getpid(), checks._sweep, checks._Tally.count
    started, ends = [], {}

    def synced_sweep(*args):
        ends["read"], ends["write"] = os.pipe()
        try:
            return sweep(*args)
        finally:
            for end in ends.values():
                os.close(end)
            ends.clear()

    def synced_count(self, rows, unit, *args, **kwargs):
        if os.getpid() != parent:
            os.write(ends["write"], b"%d " % unit)
            on_start(unit)
        elif "write" in ends:
            # closed here, so that the read ends once every worker has exited
            os.close(ends.pop("write"))
            data = b""
            while chunk := os.read(ends["read"], 1 << 16):
                data += chunk
                if not until_exit:
                    break
            units = [int(started_unit) for started_unit in data.split()]
            started.extend(units if until_exit else units[:1])
        return count(self, rows, unit, *args, **kwargs)

    monkeypatch.setattr(checks, "_sweep", synced_sweep)
    monkeypatch.setattr(checks._Tally, "count", synced_count)
    return started


# Mutants the sweep on g 5..30 x n 3..6 must fail on: (owner, attribute,
# the mutant made from the attribute).  ScrollSpec's sortedness check is not
# one: the sweep builds no unsorted splitting, and
# test_spec_constructor_rejects_invalid kills that mutant.
MUTANTS = {
    # chi = 1 + L.(K-L)/2: bundle_cohomology's chi is the one reader of the pairing
    "chi-sign": (hirzebruch.FeBundle, "intersect", lambda f: lambda s, o: -f(s, o)),
    "chow-sub-adds": (ChowClass, "__sub__", lambda f: ChowClass.__add__),
    "evaluate-plus-one": (hyperelliptic.BinaryForm, "evaluate", lambda f: lambda s, x: f(s, x) + 1),
    # the prefix sums of the Maroni boundaries shifted by one entry
    "prefix-sums-shifted": (
        invariants,
        "_maroni_data",
        lambda f: lambda *key: (f(*key)[0], (0, *f(*key)[1][:-1])),
    ),
    "maroni-plus-one-at-2": (
        invariants, "maroni_h0", lambda f: lambda g, n, k, *s: f(g, n, k, *s) + (k == 2)
    ),
    "hg-dimension-plus-one": (hyperelliptic, "hg_dimension", lambda f: lambda g: f(g) + 1),
    "moduli-dimension-plus-one": (
        invariants, "moduli_dimension", lambda f: lambda g, n: f(g, n) + 1
    ),
    # gcd(2g, n) in place of gcd(2g - 2, n)
    "degree-subgroup-2g": (picard, "degree_subgroup", lambda f: lambda g, n: math.gcd(2 * g, n)),
    "solve-degree-beta-plus-one": (
        picard, "solve_degree", lambda f: lambda *a: (w := f(*a)) and (w[0], w[1] + 1)
    ),
    "fe-sub-adds-b": (
        hirzebruch.FeBundle,
        "__sub__",
        lambda f: lambda s, o: hirzebruch.FeBundle._on(s.e, s.a - o.a, s.b + o.b),
    ),
    "ballico-plus-one-at-switch": (
        invariants,
        "ballico_h0",
        lambda f: lambda g, n, k: f(g, n, k) + (k == invariants.ballico_switches(g, n)[0]),
    ),
    # C_0^2 = -e - 1
    "fe-intersect-c0-squared": (
        hirzebruch.FeBundle, "intersect", lambda f: lambda s, o: f(s, o) - s.a * o.a
    ),
    # a wrong h^0 that keeps Serre duality
    "fe-h0-plus-one": (hirzebruch, "_h0", lambda f: lambda bundle: f(bundle) + 1),
    "fe-h0-plus-five": (hirzebruch, "_h0", lambda f: lambda bundle: f(bundle) + 5),
    "fe-h0-doubled": (hirzebruch, "_h0", lambda f: lambda bundle: 2 * f(bundle)),
}


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

    def test_skip_reasons_are_a_dict(self):
        # a Counter, repr'd as Counter({...}), before a JSON round trip and a dict after
        summary = sweep_verify(range(5, 9), range(3, 5))
        assert type(summary.skip_reasons) is dict and summary.skip_reasons
        again = SweepSummary(**json.loads(json.dumps(summary.to_dict())))
        assert repr(again) == repr(summary)

    def test_empty_ranges_rejected(self):
        with pytest.raises(DomainError):
            sweep_verify(range(5, 5), range(3, 4))

    def test_decreasing_ranges(self, monkeypatch):
        # a range is read increasing, so a decreasing one is capped from its
        # ends as well, before any of it is built
        assert sweep_verify(range(12, 4, -1), range(4, 2, -1)) == sweep_verify(
            range(5, 13), range(3, 5)
        )
        monkeypatch.setattr(checks, "_global_checks", None)
        message = r"^requires at most 100000 grid points \(got 999998\)$"
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=message):
                sweep_verify(range(5, 6), range(10**6, 2, -1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_an_iterable_is_read_only_to_the_point_cap(self, monkeypatch):
        # at most SWEEP_POINT_LIMIT + 1 distinct values are read: it built
        # the whole set first, a 70 MiB peak for this call
        monkeypatch.setattr(checks, "_global_checks", None)
        message = r"^requires at most 100000 grid points \(got 100001 or more\)$"
        tracemalloc.start()
        try:
            with pytest.raises(DomainError) as refused:
                sweep_verify(iter(range(10**6, 2, -1)), [5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert re.match(message, str(refused.value))
        # an endless iterator is refused too
        with pytest.raises(DomainError, match=message):
            sweep_verify([5], itertools.count(3))
        monkeypatch.undo()
        # repeats are read through: two distinct values
        assert sweep_verify(iter([6, 5] * 10**5), [3]) == sweep_verify(range(5, 7), [3])

    def test_no_hyperelliptic_genus_skips(self, capsys):
        # below genus 2 the hyperelliptic checks have no case to evaluate,
        # and below gonality 2 neither has the pencil count
        summary = sweep_verify(range(0, 2), range(0, 2))
        assert (summary.checked, summary.failed, summary.skipped) == (9, 0, 7)
        # in sorted order, as the text prints them
        assert list(summary.skip_reasons.items()) == [
            ("no genus >= 2 in the grid", 2),
            ("no gonality >= 2 in the grid", 1),
            ("requires n >= 3 and 2n-2 < g", 4),
        ]
        argv = ["verify", "--genus-min", "0", "--genus-max", "1",
                "--gonality-min", "0", "--gonality-max", "1", "--format", "json"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (
            '{\n  "checked": 9,\n  "passed": 9,\n  "failed": 0,\n  "skipped": 7,\n'
            '  "first_failure": null,\n  "failures": [],\n  "skip_reasons": {\n'
            '    "no genus >= 2 in the grid": 2,\n'
            '    "no gonality >= 2 in the grid": 1,\n'
            '    "requires n >= 3 and 2n-2 < g": 4\n  }\n}\n'
        )

    def test_no_pencil_gonality_skips(self):
        summary = sweep_verify(range(5, 7), range(0, 2))
        assert (summary.failed, summary.skipped) == (0, 5)
        assert summary.skip_reasons == {
            "requires n >= 3 and 2n-2 < g": 4,
            "no gonality >= 2 in the grid": 1,
        }
        with_pencils = sweep_verify(range(5, 7), range(0, 3))
        assert with_pencils.skip_reasons == {"requires n >= 3 and 2n-2 < g": 6}

    def test_pencil_count_cost_bounded_in_the_gonality_range(self, monkeypatch):
        counts, tables = [], []
        count = invariants.gonal_pencil_count
        monkeypatch.setattr(
            invariants, "gonal_pencil_count", lambda n: counts.append(n) or count(n)
        )
        monkeypatch.setattr(
            checks, "_pieri_degrees", lambda m: tables.append(m) or _pieri_degrees(m)
        )
        results = outcomes(_case_rows([5], list(range(3, 4001))))
        assert [o for name, o in results if name == "global/pencil-count"] == ["pass"]
        # both routes at 3..200, and the fixed values at n = 3, 4
        assert sorted(counts) == sorted([*range(3, 201), 3, 4])
        assert tables == [199]

    def test_pencil_count_above_the_case_bound(self):
        # only the fixed values at n = 3, 4 are compared: still a pass
        results = outcomes(_case_rows([5], [500, 501]))
        assert [o for name, o in results if name == "global/pencil-count"] == ["pass"]

    def test_pencil_count_routes_can_disagree(self, monkeypatch):
        def off_by_one(m_max):
            table = _pieri_degrees(m_max)
            table[6] += 1  # n = 7
            return table

        monkeypatch.setattr(checks, "_pieri_degrees", off_by_one)
        outcome = dict(outcomes(_case_rows([5], [7])))
        assert outcome["global/pencil-count"] == "fail"
        # n = 7 outside the grid: the wrong entry is never compared
        outcome = dict(outcomes(_case_rows([5], [8])))
        assert outcome["global/pencil-count"] == "pass"

    def test_pieri_degrees(self):
        # deg G(2, m+2): 1, 1, 2, 5, 14, 42 (Schubert's count of lines
        # meeting four general lines in P^3 is the 2)
        assert _pieri_degrees(5) == [1, 1, 2, 5, 14, 42]
        assert _pieri_degrees(0) == [1]
        table = _pieri_degrees(60)
        assert all(table[m] == invariants.gonal_pencil_count(m + 1) for m in range(1, 61))

    @pytest.mark.parametrize("n", [3, 7])
    def test_section_evaluations_do_not_grow_with_g(self, monkeypatch, n):
        calls = []
        for module, name in (
            (invariants, "ballico_h0"),
            (invariants, "maroni_h0"),
            (hirzebruch, "trigonal_h0_oracle"),
        ):
            def counted(*args, _f=getattr(module, name)):
                calls.append(args)
                return _f(*args)

            monkeypatch.setattr(module, name, counted)

        def evaluations(g):
            calls.clear()
            assert sweep_verify([g], [n]).ok
            return len(calls)

        assert evaluations(200) <= evaluations(20)

    def test_confluence_steps_grow_linearly_in_n(self, monkeypatch):
        iterations = []
        reduce = checks._stepwise_reduce

        class Counted:
            """The ambient scroll, counting the loop's reads of n."""

            def __init__(self, ambient):
                self.ambient, self.degree = ambient, ambient.degree

            @property
            def n(self):
                iterations.append(1)
                return self.ambient.n

        monkeypatch.setattr(
            checks, "_stepwise_reduce", lambda amb, *args: reduce(Counted(amb), *args)
        )

        def steps(n):
            iterations.clear()
            list(_point_rows(2 * n + 1, n))
            return len(iterations)

        assert steps(80) <= 16 * steps(5)

    def test_every_check_is_in_the_readme_table(self, monkeypatch):
        names = set()
        count = checks._Tally.count

        def recorded(self, rows, *args, **kwargs):
            count(self, (names.add(row[0]) or row for row in rows), *args, **kwargs)

        monkeypatch.setattr(checks._Tally, "count", recorded)
        sweep_verify(range(5, 31), range(3, 7))
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = set(re.findall(r"^\| `([^`]+)` \|", readme, re.MULTILINE))
        assert names and names <= table, sorted(names - table)
        # and no stale row: each row is a check the sweep ran, or the
        # failure the tally records for a raised error
        assert table == names | {checks.RAISED}, sorted(table ^ (names | {checks.RAISED}))

    def test_the_tally_counts_rows_and_a_raised_error(self):
        def family():
            yield "a", True
            yield "b", False, "detail"
            yield "c", None, "no case"
            yield "d", None  # a skip with no reason
            raise ConsistencyError("broken")

        tally = checks._Tally()
        tally.count(family(), 7, 5, 3)
        assert tally.outcomes == {"pass": 1, "fail": 3, "skip": 1}
        assert tally.skip_reasons == {"no case": 1}
        # each failure line names the point, the row and its detail
        assert tally.summary().failures == [
            "g=5 n=3 b: detail",
            "g=5 n=3 d",
            f"g=5 n=3 {checks.RAISED}: ConsistencyError('broken')",
        ]
        # a global family's lines name no point, and its error names the family
        tally = checks._Tally()
        tally.count(family(), 0, family="F_e oracle")
        assert tally.summary().failures == [
            "b: detail", "d", f"{checks.RAISED}: ConsistencyError('broken') (family: F_e oracle)"
        ]

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_the_sweep_fails_on_a_mutant(self, monkeypatch, capsys, mutant):
        owner, attr, mutate = MUTANTS[mutant]
        monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
        summary = sweep_verify(range(5, 31), range(3, 7))
        assert summary.failed > 0
        if mutant == "chi-sign":
            # the oracle's ConsistencyError is a failing check, not a traceback
            assert summary.first_failure.startswith(f"{checks.RAISED}: ConsistencyError(")
            tally = checks._Tally()
            for unit, (family, rows) in enumerate(_global_checks([5], [3])):
                tally.count(rows, unit, family=family)
            # the two families that raise are told apart by name, and
            # nothing else fails
            prefix = f"{checks.RAISED}: "
            lines = tally.summary().failures
            raised = [line.removeprefix(prefix) for line in lines]
            assert all(line.startswith(prefix) for line in lines)
            assert [d[d.rindex(" (family: "):] for d in raised] == [
                " (family: F_e oracle)",
                " (family: report round trip)",
            ]
            assert all(d.startswith("ConsistencyError(") for d in raised)
            # the families after the one that raised still run, and each
            # of their rows passes
            rest = dict(outcomes(checks._hyperelliptic_rows()) + outcomes(_case_rows([5], [3])))
            assert rest["global/twist-invariance"] == rest["global/moduli-boundary"] == "pass"
            assert tally.outcomes == {"pass": len(rest), "fail": 2}
            argv = ["verify", "--genus-min", "5", "--genus-max", "30",
                    "--gonality-min", "3", "--gonality-max", "6"]
            assert cli.main(argv) == 1
            out, err = capsys.readouterr()
            assert f"{checks.RAISED}: ConsistencyError(" in out
            assert "Traceback" not in err


class TestSplitSweep:
    """The sweep's chunks taken from one queue by this process and forked
    workers: the same summary as one process, and no worker left behind."""

    GRID = range(0, 60), range(0, 9)

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        assert_no_child()

    @staticmethod
    def counted_forks(monkeypatch) -> list[int]:
        """The pids os.fork returns from here on, in this process."""
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
        return forks

    def test_the_units_cover_the_grid_in_order(self, monkeypatch):
        # each unit fails once and writes its process and its label to one
        # pipe, read once the sweep is over: every unit is counted once, each
        # process counts in unit order, and the merge keeps the first 20 lines
        read_end, write_end = os.pipe()

        def logged(label):
            os.write(write_end, b"%d %s\n" % (os.getpid(), label.encode()))
            yield "planted", False, label

        monkeypatch.setattr(checks, "_global_checks", lambda g_values, n_values: [
            (family, logged(family)) for family in ("a", "b", "c", "d")
        ])
        monkeypatch.setattr(checks, "_point_rows", lambda g, n: logged(f"{g},{n}"))
        forks = self.counted_forks(monkeypatch)
        try:
            for g_values, n_values, work, chunks in (
                # 540 points worth 326, in 184 chunks of up to 3
                (*self.GRID, 326, 184),
                # a single genus splits too: 497 points worth 2446, in chunks of 2
                ([1001], range(3, 500), 2446, 253),
                # one point worth 1: two processes, though its 5 chunks allow five
                ([5], [3], 1, 5),
                # one point worth 782 at n = 50000: a process for each chunk
                ([100001], [50000], 782, 5),
            ):
                labels = ["a", "b", "c", "d", *(f"{g},{n}" for g in g_values for n in n_values)]
                place = {label: unit for unit, label in enumerate(labels)}
                for count in (1, 2, 3, 5, 8):
                    cut_into(monkeypatch, count)
                    forks.clear()
                    summary = sweep_verify(g_values, n_values)
                    by_process = {}
                    for line in os.read(read_end, 1 << 16).decode().splitlines():
                        pid, label = line.split()
                        by_process.setdefault(pid, []).append(place[label])
                    assert sorted(sum(by_process.values(), [])) == list(range(len(labels)))
                    assert all(units == sorted(units) for units in by_process.values())
                    assert [line.rpartition(" ")[2] for line in summary.failures] == labels[:20]
                    assert summary.failed == len(labels)
                    # never more processes than the work allows, nor than chunks
                    assert len(forks) == min(count, 1 + work, chunks) - 1 and all(forks)
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_the_merge_keeps_each_place_within_a_point(self, monkeypatch, capsys):
        # r2 is first seen at (5, 4) after r1, and seen again at the later
        # point (6, 4), which another process counts at w = 2 and 3, and
        # which first sees r0; the failure lines of (5, 4) keep their order,
        # which is not sorted, and the skip reasons are sorted, r0 first
        monkeypatch.setattr(checks, "_global_checks", lambda g_values, n_values: [])
        planted = {
            (5, 4): [("planted", None, "r1"), ("planted-b", False), ("planted", None, "r2"),
                     ("planted-a", False)],
            (6, 4): [("planted", None, "r2"), ("planted", None, "r0")],
        }
        monkeypatch.setattr(checks, "_point_rows", lambda g, n: planted.get((g, n), []))
        forks = self.counted_forks(monkeypatch)
        argv = ["verify", "--genus-min", "5", "--genus-max", "6",
                "--gonality-min", "3", "--gonality-max", "4", "--format", "json"]
        for count in (1, 2, 3):
            cut_into(monkeypatch, count)
            forks.clear()
            summary = sweep_verify([5, 6], [3, 4])
            assert len(forks) == count - 1
            assert list(summary.skip_reasons.items()) == [("r0", 1), ("r1", 1), ("r2", 2)]
            assert summary.failures == ["g=5 n=4 planted-b", "g=5 n=4 planted-a"]
            assert cli.main(argv) == 1
            assert list(json.loads(capsys.readouterr().out)["skip_reasons"]) == ["r0", "r1", "r2"]

    def test_the_process_count(self, monkeypatch):
        # one process per 128 points' worth of checks, a point in range
        # worth 1 + n/64 and a skipped point 1/128, at most one per usable CPU
        monkeypatch.setattr(checks, "_global_checks", lambda g_values, n_values: [])
        monkeypatch.setattr(checks, "_point_rows", lambda g, n: [("planted", True)])
        forks = self.counted_forks(monkeypatch)
        for cpus, g_values, n_values, processes in (
            # the tier-1 grid: 92 points in range worth 98, too few for a
            # second process
            (64, range(5, 31), range(3, 7), 1),
            (64, [5], [3], 1),
            # 10^4 points, 9 of them in range: worth 87
            (64, range(0, 10), range(0, 1000), 1),
            # the ROADMAP grid: 872 points in range worth 959
            (64, range(5, 121), range(3, 11), 8),
            (2, range(5, 121), range(3, 11), 2),
            # 77 and 78 points in range at one genus, worth 126 and 128
            (64, [300], range(3, 80), 1),
            (64, [300], range(3, 81), 2),
            # 127 points in range near n = 2000, worth 3970
            (4, [4001], range(1874, 2001), 4),
            # one point in range and 99,997 skipped: worth 782
            (64, [5], range(3, 100001), 7),
        ):
            monkeypatch.setattr(checks, "_usable_cpus", lambda: cpus)
            forks.clear()
            assert sweep_verify(g_values, n_values).ok
            assert len(forks) == processes - 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        # where os.sched_getaffinity is missing, as on macOS, os.cpu_count stands in
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert checks._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert checks._usable_cpus() == 1

    def test_no_fork_with_another_thread_alive(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

        def forbidden():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", forbidden)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert checks._usable_cpus() == 1
            assert sweep_verify(*self.GRID).ok
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        # the thread was the reason: alone, this process forks
        assert checks._usable_cpus() == 4
        with pytest.raises(AssertionError, match="forked"):
            sweep_verify(*self.GRID)
        # and without os.fork it cannot
        monkeypatch.delattr(os, "fork")
        assert checks._usable_cpus() == 1
        assert sweep_verify(*self.GRID).ok

    def test_the_clean_grid_split(self, monkeypatch):
        one_process(monkeypatch)
        one = sweep_verify(*self.GRID)
        for count in (2, 5):
            cut_into(monkeypatch, count)
            assert sweep_verify(*self.GRID) == one
        monkeypatch.undo()
        # on three CPUs the grid's 326 points' worth take three processes
        monkeypatch.setattr(checks, "_usable_cpus", lambda: 3)
        forks = self.counted_forks(monkeypatch)
        assert sweep_verify(*self.GRID) == one
        assert len(forks) == 2
        assert one.skipped > 0 and one.ok

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_a_mutant_split(self, monkeypatch, mutant):
        owner, attr, mutate = MUTANTS[mutant]
        monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
        one_process(monkeypatch)
        one = sweep_verify(*self.GRID)
        cut_into(monkeypatch, 2)
        split = sweep_verify(*self.GRID)
        # equal first_failure and failures, and skip reasons in the same order
        assert split == one
        assert list(split.skip_reasons.items()) == list(one.skip_reasons.items())
        assert one.failed > 0

    def test_every_deal_gives_the_one_process_summary(self, monkeypatch):
        # skip reasons first seen all over the grid, more than 20 failures
        # from every process, and a global family that raises, dealt to a
        # worker at w = 2 and 5
        def planted(g, n):
            if g % 7 == n % 3:
                yield "planted", False, f"at g={g}"
            yield "planted", None, f"skip {g % 5} {n}"

        def raising():
            yield "global/planted", True
            raise ConsistencyError("planted")

        monkeypatch.setattr(checks, "_point_rows", planted)
        monkeypatch.setattr(checks, "_report_rows", raising)
        one_process(monkeypatch)
        one = sweep_verify(*self.GRID)
        for count in (1, 2, 3, 5):
            cut_into(monkeypatch, count)
            split = sweep_verify(*self.GRID)
            assert split == one
            assert list(split.skip_reasons.items()) == list(one.skip_reasons.items())
        assert one.failed > 20 and len(one.failures) == 20
        assert one.first_failure == (
            f"{checks.RAISED}: ConsistencyError('planted') (family: report round trip)"
        )

    def test_failures_and_skips_of_every_slice_in_order(self, monkeypatch):
        # failures and skips dealt to both processes, fewer than 20
        # failures in all, and a skip reason first seen late in the grid
        point_rows = checks._point_rows

        def planted(g, n):
            yield from point_rows(g, n)
            if (g, n) in ((10, 3), (50, 4), (55, 5)):
                yield "planted", False, f"at g={g}"
            if g in (20, 40):
                yield "planted", None, f"skip {g >= 30}"

        monkeypatch.setattr(checks, "_point_rows", planted)
        one_process(monkeypatch)
        one = sweep_verify(*self.GRID)
        cut_into(monkeypatch, 2)
        split = sweep_verify(*self.GRID)
        assert one.failures == [
            "g=10 n=3 planted: at g=10", "g=50 n=4 planted: at g=50", "g=55 n=5 planted: at g=55"
        ]
        assert split == one
        assert list(split.skip_reasons.items()) == list(one.skip_reasons.items())
        assert list(one.skip_reasons)[-1] == "skip True"

    def test_the_first_twenty_failures_across_slices(self, monkeypatch):
        # every point fails: the first 20 lines are those of the first 20
        # points, whichever processes count them, and the counts add
        monkeypatch.setattr(checks, "_point_rows", lambda g, n: [("x", False)])
        one_process(monkeypatch)
        one = sweep_verify(range(5, 9), range(3, 13))
        forks = self.counted_forks(monkeypatch)
        # the grid's 6 points in range allow 7 processes, not 40
        for count, processes in ((2, 2), (3, 3), (7, 7), (40, 7)):
            cut_into(monkeypatch, count)
            forks.clear()
            assert sweep_verify(range(5, 9), range(3, 13)) == one
            assert len(forks) == processes - 1 and all(forks)
        assert one.failed == 40 and len(one.failures) == 20

    @pytest.mark.parametrize(
        "how, message",
        [
            ("exit", "exited with status 3"),
            ("kill", "was killed by signal 9"),
            ("garbage", "sent an unreadable tally"),
            # its whole dump written, then a nonzero exit
            ("exit-after-write", "exited with status 5"),
        ],
    )
    def test_a_dead_worker_fails_the_sweep(self, monkeypatch, capsys, how, message):
        dumps = checks._Tally.dumps

        def dying(unit):
            if how == "exit":
                os._exit(3)
            if how == "kill":
                os.kill(os.getpid(), 9)

        # the worker starts a unit before this process counts its first
        worker_starts_first(monkeypatch, dying)
        if how == "garbage":
            monkeypatch.setattr(checks._Tally, "dumps", lambda self: dumps(self)[:-1])
        if how == "exit-after-write":
            exit_now = os._exit
            monkeypatch.setattr(os, "_exit", lambda code: exit_now(5))
        cut_into(monkeypatch, 2)
        summary = sweep_verify(range(5, 13), range(3, 5))
        line = f"{checks.RAISED}: the worker for share 2 of 2 {message}"
        assert summary.failed == 1 and not summary.ok
        assert summary.failures == [line]
        # this process's units still count, the worker's count nothing
        one_process(monkeypatch)
        whole = sweep_verify(range(5, 13), range(3, 5)).checked
        assert 0 < summary.checked - 1 < whole
        cut_into(monkeypatch, 2)
        argv = ["verify", "--genus-min", "5", "--genus-max", "12",
                "--gonality-min", "3", "--gonality-max", "4"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert f"  {line}\n" in out and out.endswith("FAILED\n")
        assert "Traceback" not in err

    def test_a_dead_worker_leads_the_failures(self, monkeypatch):
        # every unit fails once, and the worker exits as it starts its first
        # unit: its row leads the failure lines, the other lines follow in
        # unit order, and the worker's chunk counts nothing
        def family(name):
            yield "planted", False, name

        monkeypatch.setattr(checks, "_global_checks", lambda g_values, n_values: [
            (name, family(name)) for name in ("a", "b", "c", "d")
        ])
        monkeypatch.setattr(checks, "_point_rows", lambda g, n: [("planted", False, f"{g} {n}")])
        started = worker_starts_first(monkeypatch, lambda unit: os._exit(3))
        raised = f"{checks.RAISED}: the worker for share 2 of 2 exited with status 3"
        lines = ["planted: a", "planted: b", "planted: c", "planted: d",
                 "g=5 n=3 planted: 5 3", "g=6 n=3 planted: 6 3"]
        cut_into(monkeypatch, 2)
        # at a family chunk: the worker's is the first or second ticket
        summary = sweep_verify(range(5, 7), [3])
        (unit,) = started
        assert unit in (0, 1)
        assert summary.failures == [raised] + lines[:unit] + lines[unit + 1 :]
        assert summary.first_failure == raised
        assert summary.checked == summary.failed == 6
        # without families, 260 points make 130 chunks of two: the worker's
        # chunk is the first or second, and its second point counts nothing
        monkeypatch.setattr(checks, "_global_checks", lambda g_values, n_values: [])
        started.clear()
        summary = sweep_verify(range(5, 70), range(3, 7))
        (unit,) = started
        assert unit in (0, 2)
        lines = [f"g={g} n={n} planted: {g} {n}" for g in range(5, 70) for n in range(3, 7)]
        assert summary.failures == ([raised] + lines[:unit] + lines[unit + 2 :])[:20]
        assert summary.checked == summary.failed == 259
        # a worker that exits before it takes a ticket: this process counts
        # every unit, after the row
        monkeypatch.undo()
        monkeypatch.setattr(checks, "_point_rows", lambda g, n: [("planted", False, f"{g} {n}")])
        monkeypatch.setattr(checks, "_global_checks", lambda g_values, n_values: [])
        parent, read = os.getpid(), os.read
        monkeypatch.setattr(os, "read", lambda *a: read(*a) if os.getpid() == parent else os._exit(3))
        cut_into(monkeypatch, 2)
        summary = sweep_verify(range(5, 7), [3])
        assert summary.failures == [raised, "g=5 n=3 planted: 5 3", "g=6 n=3 planted: 6 3"]

    def test_an_interrupted_parent_kills_its_workers(self, monkeypatch):
        # each worker blocks as it starts its first unit, on a pipe no one writes
        never_read, never_write = os.pipe()
        monkeypatch.setattr(checks, "_point_rows", lambda g, n: [])

        def interrupted():
            raise KeyboardInterrupt
            yield  # a family, interrupted as it starts

        monkeypatch.setattr(checks, "_global_checks", lambda g_values, n_values: [
            (name, interrupted()) for name in ("a", "b", "c", "d")
        ])
        # this process's first unit starts once a worker is stuck in its own
        worker_starts_first(monkeypatch, lambda unit: os.read(never_read, 1))
        cut_into(monkeypatch, 3)
        start = time.perf_counter()
        try:
            with pytest.raises(KeyboardInterrupt):
                sweep_verify(range(5, 13), range(3, 5))
        finally:
            os.close(never_read)
            os.close(never_write)
        assert time.perf_counter() - start < 10

    def test_a_failed_fork_runs_the_slice_here(self, monkeypatch):
        one_process(monkeypatch)
        one = sweep_verify(*self.GRID)
        fork, forks = os.fork, []

        def second_fails():
            if forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        # the two processes started take every ticket
        cut_into(monkeypatch, 4)
        assert sweep_verify(*self.GRID) == one
        assert forks == [1]


class TestBranchContinuity:
    """The flag compares maroni_h0 with the h^0 on the scroll
    S(e_1, ..., e_{n-1}), e_i = shift + r_i: k + 1 + sum of max(0, k - 1 - e_i)."""

    def test_summed_form_every_splitting(self):
        for n in range(3, 7):
            for g in range(2 * n - 1, 21):
                for rs in _splittings(g, n):
                    shift = (g - sum(rs)) // (n - 1) - 1
                    for k in range(4 * g + 1):
                        summed = k + 1 + sum(max(0, k - 1 - shift - r) for r in rs)
                        assert invariants.maroni_h0(g, n, k, rs) == summed, (g, n, rs, k)
        assert (0, 1, 4) in _splittings(11, 4)

    def test_flag_fails_on_a_shifted_formula(self, monkeypatch):
        # every branch off by one: the branches still agree with one another
        branch = invariants._maroni_branch
        monkeypatch.setattr(
            invariants, "_maroni_branch", lambda *args: branch(*args) + 1
        )
        for n in range(3, 8):
            for g in range(2 * n - 1, 40):
                flags = generate_report(g, n, 0).consistency_flags
                assert flags.branch_continuity is False, (g, n)

    def test_branch_evaluations_do_not_grow_with_n(self, monkeypatch):
        calls = []
        branch = invariants._maroni_branch

        def counted(*args):
            calls.append(args)
            return branch(*args)

        monkeypatch.setattr(invariants, "_maroni_branch", counted)

        def evaluations(n):
            calls.clear()
            generate_report(2 * n + 1, n, 0)
            return len(calls)

        assert evaluations(40) <= evaluations(5)


class TestPerPointWork:
    """Facts fixed for a grid point are derived once per point, in memos
    that hold a point's worth of data."""

    def test_boundaries_derived_once_per_point(self, monkeypatch):
        calls = []
        split = invariants._generic_splitting
        monkeypatch.setattr(
            invariants, "_generic_splitting", lambda g, n: calls.append((g, n)) or split(g, n)
        )
        invariants._maroni_data.cache_clear()
        for g, n in ((41, 7), (43, 7), (41, 6), (12, 3)):
            calls.clear()
            results = outcomes(_point_rows(g, n))
            assert all(outcome == "pass" for _, outcome in results)
            # across generate_report and the point's own rows
            assert calls == [(g, n)]

    def test_one_primality_decision_per_prime(self):
        hyperelliptic._is_prime.cache_clear()
        assert sweep_verify(range(5, 7), range(3, 4)).ok
        # 200 forms over GF(10007), one decision
        info = hyperelliptic._is_prime.cache_info()
        assert (info.misses, info.hits) == (1, 199)

    def test_confluence_builds_no_class(self, monkeypatch):
        built = []
        init = ChowClass.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(ChowClass, "__init__", counted)

        def classes(n):
            built.clear()
            list(_point_rows(2 * n + 1, n))
            return len(built)

        # the check reads 3(n+2) closed forms from chow._normal_form
        assert classes(40) == classes(5)

    def test_memory_of_a_few_points_is_that_of_one(self, monkeypatch):
        # each memo holds O(1) entries, so a sweep keeps no point's O(n)
        # data once it has moved on
        monkeypatch.setattr(checks, "_global_checks", lambda *args: [])
        one_process(monkeypatch)

        def peak(g_values):
            tracemalloc.start()
            try:
                assert sweep_verify(g_values, [5000]).ok
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak([10001])
        assert peak(range(10003, 10007)) <= 2 * one

    def test_one_generic_scroll_per_report(self, monkeypatch):
        # each dossier builds its point's scroll, and no check builds another
        built = []
        generic = scroll.generic_scroll
        patch_everywhere(
            monkeypatch, "generic_scroll", lambda g, n: built.append((g, n)) or generic(g, n)
        )
        one_process(monkeypatch)
        g_range, n_range = range(5, 121), range(3, 11)
        assert sweep_verify(g_range, n_range).ok
        points = [(g, n) for g in g_range for n in n_range if in_scroll_range(g, n)]
        # global/report-deterministic builds two reports at each of two points
        round_trip = [(5, 3), (5, 3), (8, 4), (8, 4)]
        assert Counter(built) == Counter(points + round_trip)
        assert len(built) == 876


class TestRandomClasses:
    """The four seeded classes of the chow rows at each point: three terms
    c D^a f^b each, a in [0, n), b in {0, 1} and c in [-4, 4]."""

    @staticmethod
    def record(monkeypatch) -> tuple[dict, dict]:
        """Patch the draws and the classes to record, by (g, n), the raw
        terms and the classes that the point rows draw."""
        terms, classes = {}, {}
        draws, rand_class = checks._draws, checks._rand_class

        def recorded_draws(g, n):
            for term in draws(g, n):
                terms.setdefault((g, n), []).append(term)
                yield term

        def recorded_class(draws, ambient):
            x = rand_class(draws, ambient)
            classes.setdefault((ambient.g, ambient.n), []).append(x)
            return x

        monkeypatch.setattr(checks, "_draws", recorded_draws)
        monkeypatch.setattr(checks, "_rand_class", recorded_class)
        return terms, classes

    def test_the_roadmap_grid_draws_every_term_and_few_zero_products(self, monkeypatch):
        terms, classes = self.record(monkeypatch)
        one_process(monkeypatch)
        assert sweep_verify(range(5, 121), range(3, 11)).ok
        assert len(terms) == len(classes) == 872
        seen = {}
        for (g, n), drawn in terms.items():
            assert len(drawn) == 12 and len(classes[g, n]) == 4
            seen.setdefault(n, set()).update(drawn)
        assert sorted(seen) == list(range(3, 11))
        for n, drawn in seen.items():
            assert {a for a, _, _ in drawn} == set(range(n)), n
            assert {b for _, b, _ in drawn} == {0, 1}, n
            assert {c for _, _, c in drawn} == set(range(-4, 5)), n
        # a product of classes that all vanish would check the ring on zeros
        nonzero = sum(not (x * y).is_zero() for _, x, y, _ in classes.values())
        assert nonzero >= 0.7 * len(classes)
        # and points apart draw apart
        assert len({tuple(map(repr, xs)) for xs in classes.values()}) > 0.9 * len(classes)

    def test_the_same_point_draws_the_same_classes(self, monkeypatch):
        draws, rand_class = checks._draws, checks._rand_class
        _, classes = self.record(monkeypatch)
        for g, n in ((5, 3), (41, 7), (120, 10)):
            list(_point_rows(g, n))
            for _ in range(2):
                terms = draws(g, n)
                assert [rand_class(terms, AmbientScroll(g, n)) for _ in range(4)] == classes[g, n]


class TestRatherFreeRoute:
    """oracle/rather-free pairs K_S with the curve on F_e itself, and
    scroll/euler-pairing pairs them in the scroll's Chow ring: a fault in
    one route leaves the other passing."""

    @staticmethod
    def failing() -> Counter:
        return Counter(
            name
            for g in range(5, 31)
            for name, outcome in outcomes(_point_rows(g, 3))
            if outcome == "fail"
        )

    def test_a_scroll_fault_leaves_the_surface_route(self, monkeypatch):
        canonical = scroll.canonical_class

        def shifted(spec):
            return canonical(spec) + spec.ambient.fiber()

        patch_everywhere(monkeypatch, "canonical_class", shifted)
        failing = self.failing()
        assert failing["scroll/euler-pairing"] == 26
        assert failing["oracle/rather-free"] == 0

    def test_a_surface_fault_fails_the_surface_route(self, monkeypatch):
        intersect = hirzebruch.FeBundle.intersect
        # C_0^2 = -e - 1
        monkeypatch.setattr(
            hirzebruch.FeBundle, "intersect", lambda s, o: intersect(s, o) - s.a * o.a
        )
        failing = self.failing()
        assert failing["oracle/rather-free"] == 26
        assert failing["scroll/euler-pairing"] == 0


class TestPointChecksReadTheDossier:
    def test_report_and_sweep_fail_together(self, monkeypatch):
        # an off-by-one in the surface oracle at the Ballico switch, a k
        # that k_max = 0 prints no row for
        switch = invariants.ballico_switches(5, 3)[0]
        oracle = hirzebruch.trigonal_h0_oracle
        monkeypatch.setattr(
            hirzebruch,
            "trigonal_h0_oracle",
            lambda g, k: oracle(g, k) + (k == switch),
        )
        assert generate_report(5, 3, 0).consistency_flags.oracle_agreement is False
        outcome = dict(outcomes(_point_rows(5, 3)))
        assert outcome["oracle/ballico-agreement"] == "fail"

    @pytest.mark.parametrize("g, n", [(5, 3), (6, 3), (9, 4), (12, 5)])
    def test_dossier_values_are_not_recomputed(self, monkeypatch, g, n):
        dossier = generate_report(g, n, 0)
        monkeypatch.setattr(report, "generate_report", lambda *args: dossier)

        def forbidden(*args):
            raise AssertionError("recomputed a value the dossier holds")

        monkeypatch.setattr(report, "aut_group_numerics", forbidden)
        monkeypatch.setattr(picard, "modular_degree_constraint", forbidden)
        for name in (
            "chi_restricted_tangent",
            "chi_normal_bundle",
            "h1_double_pencil",
            "moduli_dimension",
        ):
            monkeypatch.setattr(invariants, name, forbidden)
        cohomology = hirzebruch.bundle_cohomology
        curve = hirzebruch.trigonal_curve_bundle(g) if n == 3 else None

        def guarded(bundle):
            assert bundle != curve, "recomputed h0(O_S(C))"
            return cohomology(bundle)

        monkeypatch.setattr(hirzebruch, "bundle_cohomology", guarded)
        results = outcomes(_point_rows(g, n))
        assert results and all(outcome == "pass" for _, outcome in results)


def _affine_between(values, ks):
    """values[k] is affine between consecutive ks and from ks[-1] - 1 on."""
    spans = [(p, q, q) for p, q in zip(ks, ks[1:])]
    spans.append((ks[-1] - 1, ks[-1], len(values) - 1))
    return all(
        (values[k] - values[p]) * (q - p) == (values[q] - values[p]) * (k - p)
        for p, q, end in spans
        for k in range(p, end + 1)
    )


def _splittings(g, n):
    """Every splitting that embeds for (g, n)."""
    for tail in combinations_with_replacement(range(g - n + 1), n - 2):
        rs = (0, *tail)
        if sum(rs) < g - n + 1 and (g - sum(rs)) % (n - 1) == 0:
            yield rs


class TestDecisiveKs:
    """The switch lists are complete: each section count is affine between
    the points decisive_ks picks from them, checked by brute force up to
    k = 4g.  A branch added without its switch fails here."""

    def test_points(self):
        assert decisive_ks() == [0, 1]
        assert decisive_ks([-1], [5, 5]) == [0, 1, 4, 5, 6]
        assert decisive_ks([0, 9]) == [0, 1, 8, 9, 10]

    def test_ballico(self):
        for n in range(3, 9):
            for g in range(2 * n - 1, 61):
                values = [invariants.ballico_h0(g, n, k) for k in range(4 * g + 1)]
                assert _affine_between(
                    values, decisive_ks(invariants.ballico_switches(g, n))
                ), (g, n)

    def test_maroni_generic(self):
        for n in range(3, 7):
            for g in range(2 * n - 1, 41):
                values = [invariants.maroni_h0(g, n, k) for k in range(4 * g + 1)]
                ks = decisive_ks(invariants.maroni_branch_boundaries(g, n))
                assert _affine_between(values, ks), (g, n)

    def test_maroni_every_splitting(self):
        for n in range(3, 7):
            for g in range(2 * n - 1, 21):
                for rs in _splittings(g, n):
                    values = [
                        invariants.maroni_h0(g, n, k, rs) for k in range(4 * g + 1)
                    ]
                    ks = decisive_ks(invariants.maroni_branch_boundaries(g, n, rs))
                    assert _affine_between(values, ks), (g, n, rs)

    def test_trigonal_oracle_and_curve_h1(self):
        for g in range(5, 81):
            ks = decisive_ks(hirzebruch.trigonal_h0_switches(g))
            values = [hirzebruch.trigonal_h0_oracle(g, k) for k in range(4 * g + 1)]
            assert _affine_between(values, ks), g
            curve = hirzebruch.trigonal_curve_bundle(g)
            h1 = [_curve_h1(curve, k) for k in range(4 * g + 1)]
            assert _affine_between(h1, ks), g
