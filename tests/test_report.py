"""Tests for report generation and serialization, and for the input
refusals that the verify sweep shares with the report.  The sweep's own
tests, its point rows that read the dossier among them, are in
test_checks.py."""

import builtins
import itertools
import json
import os
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations_with_replacement

import pytest

from gonal import hirzebruch, invariants, report, scroll
from gonal.errors import ConsistencyError, DomainError, int_text_limit
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
from gonal.checks import SweepSummary, _curve_h1, sweep_verify


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

    def test_a_bool_counts_as_an_int(self):
        report = generate_report(7, 3, True)
        assert type(report.k_max) is int and report == generate_report(7, 3, 1)
        assert parse_json(emit_json(report)) == report
        assert sweep_verify([True * 7], [3]) == sweep_verify([7], [3])

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
        message = f"cannot read 'g' from JSON: expected an integer of at most {limit} digits, got <{limit + 1} digits>"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            GonalReport.from_dict(doc)

    @pytest.mark.parametrize(
        "path, field, sign",
        [
            (("input", "g"), "g", ""),
            (("scroll", "splitting", 1), "splitting", "-"),
            (("section_counts", 2, 1), "section_counts.1", ""),
        ],
        ids=["g", "splitting-item", "section-counts-cell"],
    )
    def test_a_decimal_string_too_long_to_read(self, path, field, sign):
        # in the words an int of those digits gets, by its digit count
        limit = int_text_limit()
        if not 0 < limit < 5000:
            pytest.skip("this interpreter reads 5000 digits")
        doc = json.loads(emit_json(generate_report(9, 3, 4)))
        _set(*path)(doc, sign + "9" * 5000)
        message = (
            f"cannot read '{field}' from JSON: expected an integer of at most {limit} digits, "
            f"got {sign}<5000 digits>"
        )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            parse_json(json.dumps(doc))

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

    @pytest.mark.parametrize("g", [20, 21])
    @pytest.mark.parametrize("k_max", ["0", "6", "2g"])
    def test_one_oracle_evaluation_per_k(self, monkeypatch, g, k_max):
        # the column and the oracle flag read the same evaluations
        calls = Counter()
        oracle = hirzebruch.trigonal_h0_oracle

        def counted(g, k):
            calls[k] += 1
            return oracle(g, k)

        monkeypatch.setattr(hirzebruch, "trigonal_h0_oracle", counted)
        generate_report(g, 3, 2 * g if k_max == "2g" else int(k_max))
        assert calls and max(calls.values()) == 1, calls

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
