"""Tests for report generation, serialization, and the sweep harness."""

import builtins
import json
import os
import random
import re
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial
from itertools import accumulate, combinations_with_replacement
from pathlib import Path

import pytest

from gonal import cli, hirzebruch, hyperelliptic, invariants, picard, report, scroll
from gonal.chow import ChowClass
from gonal.errors import ConsistencyError, DomainError, in_scroll_range
from gonal.report import (
    ConsistencyFlags,
    GonalReport,
    InvariantSummary,
    OracleRow,
    ScrollSummary,
    SweepSummary,
    _curve_h1,
    _decisive_ks,
    _encode_ints,
    _cells,
    _column,
    _global_checks,
    _minus,
    _pieri_degrees,
    _point_checks,
    _runs,
    _zero_runs,
    emit_json,
    generate_report,
    parse_json,
    render_text,
    sweep_verify,
    write_report,
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
        monkeypatch.setattr(report, "SWEEP_POINT_LIMIT", 6)
        # a list counts its distinct values, a range its length
        assert sweep_verify([5, 6, 6, 7], range(3, 5)).ok
        with pytest.raises(DomainError, match=r"^requires at most 6 grid points \(got 8\)$"):
            sweep_verify(range(5, 9), [3, 4, 4])
        # refused before a check runs, however wide the range
        monkeypatch.setattr(report, "_global_checks", None)
        with pytest.raises(DomainError, match=r"\(got 10000000000000000000000\)$"):
            sweep_verify(range(10**22), range(3, 4))

    def test_genus_capped(self, monkeypatch):
        # every value a report or a sweep prints stays within the digits
        # the interpreter converts to text
        message = r"^requires g < 10\^4000 \(got a genus of more than 4000 digits\)$"
        with pytest.raises(DomainError, match=message):
            generate_report(report.GENUS_LIMIT, 3, 0)
        with pytest.raises(DomainError, match=message):
            sweep_verify(range(5, report.GENUS_LIMIT + 1), [3])
        assert generate_report(report.GENUS_LIMIT - 1, 3, 0).g == 10**4000 - 1
        # read from its one home
        monkeypatch.setattr(report, "GENUS_LIMIT", 100)
        assert sweep_verify(range(97, 100), [3, 4]).ok
        for call in (lambda: generate_report(100, 3, 0), lambda: sweep_verify([99, 100], [3])):
            with pytest.raises(DomainError, match=r"^requires g < 10\^2 \(got a genus of more than 2 digits\)$"):
                call()

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
        monkeypatch.setattr(report, "SWEEP_GONALITY_LIMIT", total)
        assert sweep_verify(g_values, n_values).ok
        monkeypatch.setattr(report, "SWEEP_GONALITY_LIMIT", total - 1)
        # refused before a check runs
        monkeypatch.setattr(report, "_global_checks", None)
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

        caches = (report._is_record, report._plan, report._tables, report._decoder, report._row_template)
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
            replace(
                big,
                section_counts=((1, safe), (2, safe + 1)),
                oracle_checks=(OracleRow(1, -safe - 1, safe, False),),
            ),
            # one unsafe cell in the middle of a column
            replace(
                base,
                section_counts=((1, 2), (2, -safe - 5), (3, 4)),
                oracle_checks=(
                    OracleRow(1, 2, 2, True),
                    OracleRow(2, 3, safe + 9, False),
                    OracleRow(3, 4, 4, True),
                ),
            ),
            # unsafe values only in the k column
            replace(
                base,
                section_counts=((1, 2), (safe + 1, 3)),
                oracle_checks=(OracleRow(-safe - 1, 2, 2, True), OracleRow(2, 3, 3, True)),
            ),
            # the edges of the safe range, inside and just outside
            replace(
                base,
                section_counts=((safe, -safe), (-safe, safe), (safe + 1, -safe - 1)),
                oracle_checks=(
                    OracleRow(safe, -safe, safe, True),
                    OracleRow(-safe - 1, safe + 1, -safe, False),
                ),
            ),
            replace(
                base,
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
        assert r.section_counts[0] == (1, 2)
        assert r.oracle_checks[4] == OracleRow(5, 6, 6, True)

    def test_replaced_rows_are_read_into_pieces(self):
        base = generate_report(9, 3, 6)
        rows = ((1, 5), (2, 7), (9, 7))
        r = replace(base, section_counts=rows, oracle_checks=None)
        assert type(r.section_counts) is type(base.section_counts)
        assert r.section_counts == rows and list(r.section_counts) == list(rows)
        assert replace(base, section_counts=()).section_counts == ()

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

    def test_zero_runs(self):
        for rows in range(1, 7):
            for v in range(-6, 7):
                for slope in range(-3, 4):
                    runs = _zero_runs(rows, v, slope)
                    assert all(size > 0 for size, _, _ in runs)
                    expected = [v + slope * i == 0 for i in range(rows)]
                    assert list(_cells(runs)) == expected, (rows, v, slope)

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
            ks = _decisive_ks(switches)
            for k_max in range(3 * g + 1):
                calls = []
                pieces = _column(lambda k: calls.append(k) or h0(k), switches, k_max)
                assert all(rows > 0 for rows, _, _ in pieces), (switches, k_max)
                assert list(_cells(pieces)) == values[:k_max], (switches, k_max)
                after = [k for k in ks if k > k_max][:1]
                read = [k for k in ks if k <= k_max] + after if k_max else []
                assert calls == read, (switches, k_max)

    def test_minus(self):
        rng = random.Random(19)

        def column(rows):
            pieces = []
            while rows:
                size = min(rows, rng.choice([1, 1, 2, 3, 5]))
                pieces.append((size, rng.randrange(-5, 6), rng.randrange(-3, 4)))
                rows -= size
            return pieces

        def edges(pieces):
            return set(accumulate(rows for rows, _, _ in pieces))

        for _ in range(500):
            rows = rng.randrange(0, 16)
            a, b = column(rows), column(rows)
            gaps = _minus(a, b)
            expected = [x - y for x, y in zip(_cells(a), _cells(b), strict=True)]
            assert list(_cells(gaps)) == expected, (a, b)
            # one piece between each two edges of either column
            assert edges(gaps) == edges(a) | edges(b) and len(gaps) == len(edges(gaps)), (a, b)


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
        post_init = scroll.ScrollSpec.__post_init__

        def counted(self):
            specs.append(self)
            post_init(self)

        monkeypatch.setattr(scroll.ScrollSpec, "__post_init__", counted)
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
            _decisive_ks(hirzebruch.trigonal_h0_switches(g), invariants.ballico_switches(g, 3))
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


# Mutants the sweep on g 5..30 x n 3..6 must fail on: (owner, attribute,
# the mutant made from the attribute).
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

    def test_empty_ranges_rejected(self):
        with pytest.raises(DomainError):
            sweep_verify(range(5, 5), range(3, 4))

    def test_no_hyperelliptic_genus_skips(self):
        # below genus 2 the hyperelliptic checks have no case to evaluate,
        # and below gonality 2 neither has the pencil count
        summary = sweep_verify(range(0, 2), range(0, 2))
        assert (summary.checked, summary.failed, summary.skipped) == (9, 0, 7)
        assert summary.skip_reasons == {
            "requires n >= 3 and 2n-2 < g": 4,
            "no genus >= 2 in the grid": 2,
            "no gonality >= 2 in the grid": 1,
        }

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
            report, "_pieri_degrees", lambda m: tables.append(m) or _pieri_degrees(m)
        )
        results = _global_checks([5], list(range(3, 4001)))
        pencil = [r for r in results if r.name == "global/pencil-count"]
        assert [r.outcome for r in pencil] == ["pass"]
        # both routes at 3..200, and the fixed values at n = 3, 4
        assert sorted(counts) == sorted([*range(3, 201), 3, 4])
        assert tables == [199]

    def test_pencil_count_above_the_case_bound(self):
        # only the fixed values at n = 3, 4 are compared: still a pass
        results = _global_checks([5], [500, 501])
        assert [r.outcome for r in results if r.name == "global/pencil-count"] == ["pass"]

    def test_pencil_count_routes_can_disagree(self, monkeypatch):
        def off_by_one(m_max):
            table = _pieri_degrees(m_max)
            table[6] += 1  # n = 7
            return table

        monkeypatch.setattr(report, "_pieri_degrees", off_by_one)
        outcome = {r.name: r.outcome for r in _global_checks([5], [7])}
        assert outcome["global/pencil-count"] == "fail"
        # n = 7 outside the grid: the wrong entry is never compared
        outcome = {r.name: r.outcome for r in _global_checks([5], [8])}
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
        reduce = report._stepwise_reduce

        class Counted:
            """The ambient scroll, counting the loop's reads of n."""

            def __init__(self, ambient):
                self.ambient, self.degree = ambient, ambient.degree

            @property
            def n(self):
                iterations.append(1)
                return self.ambient.n

        monkeypatch.setattr(
            report, "_stepwise_reduce", lambda amb, *args: reduce(Counted(amb), *args)
        )

        def steps(n):
            iterations.clear()
            _point_checks(2 * n + 1, n)
            return len(iterations)

        assert steps(80) <= 16 * steps(5)

    def test_every_check_is_in_the_readme_table(self, monkeypatch):
        names = set()
        run = report._run

        def recorded(*args):
            results = run(*args)
            names.update(r.name for r in results)
            return results

        monkeypatch.setattr(report, "_run", recorded)
        sweep_verify(range(5, 31), range(3, 7))
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = set(re.findall(r"^\| `([^`]+)` \|", readme, re.MULTILINE))
        assert names and names <= table, sorted(names - table)
        # and no stale row: each row is a check the sweep ran, or the
        # failure the runner records for a raised error
        assert table == names | {report.RAISED}, sorted(table ^ (names | {report.RAISED}))

    def test_run_records_rows_and_a_raised_error(self):
        def family():
            yield "a", True
            yield "b", False, "detail"
            yield "c", None, "no case"
            yield "d", None  # a skip with no reason
            raise ConsistencyError("broken")

        results = report._run(5, 3, family())
        assert [(r.g, r.n) for r in results] == [(5, 3)] * 5
        assert [(r.name, r.outcome, r.detail) for r in results] == [
            ("a", "pass", ""),
            ("b", "fail", "detail"),
            ("c", "skip", "no case"),
            ("d", "fail", ""),
            (report.RAISED, "fail", "ConsistencyError('broken')"),
        ]

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_the_sweep_fails_on_a_mutant(self, monkeypatch, capsys, mutant):
        owner, attr, mutate = MUTANTS[mutant]
        monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
        summary = sweep_verify(range(5, 31), range(3, 7))
        assert summary.failed > 0
        if mutant == "chi-sign":
            # the oracle's ConsistencyError is a failing check, not a traceback
            assert summary.first_failure.startswith(f"{report.RAISED}: ConsistencyError(")
            results = _global_checks([5], [3])
            outcome = {r.name: r.outcome for r in results}
            assert outcome[report.RAISED] == "fail"
            # the two families that raise are told apart by name
            raised = [r.detail for r in results if r.name == report.RAISED]
            assert [d[d.rindex(" (family: "):] for d in raised] == [
                " (family: F_e oracle)",
                " (family: report round trip)",
            ]
            assert all(d.startswith("ConsistencyError(") for d in raised)
            # the families after the one that raised still run
            assert outcome["global/twist-invariance"] == "pass"
            assert outcome["global/moduli-boundary"] == "pass"
            argv = ["verify", "--genus-min", "5", "--genus-max", "30",
                    "--gonality-min", "3", "--gonality-max", "6"]
            assert cli.main(argv) == 1
            out, err = capsys.readouterr()
            assert f"{report.RAISED}: ConsistencyError(" in out
            assert "Traceback" not in err


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
            results = _point_checks(g, n)
            assert all(r.outcome == "pass" for r in results)
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
            _point_checks(2 * n + 1, n)
            return len(built)

        # the check reads 3(n+2) closed forms from chow._normal_form
        assert classes(40) == classes(5)

    def test_memory_of_a_few_points_is_that_of_one(self, monkeypatch):
        # each memo holds O(1) entries, so a sweep keeps no point's O(n)
        # data once it has moved on
        monkeypatch.setattr(report, "_global_checks", lambda *ranges: [])

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
        g_range, n_range = range(5, 121), range(3, 11)
        assert sweep_verify(g_range, n_range).ok
        points = [(g, n) for g in g_range for n in n_range if in_scroll_range(g, n)]
        # global/report-deterministic builds two reports at each of two points
        round_trip = [(5, 3), (5, 3), (8, 4), (8, 4)]
        assert Counter(built) == Counter(points + round_trip)
        assert len(built) == 876


class TestRatherFreeRoute:
    """oracle/rather-free pairs K_S with the curve on F_e itself, and
    scroll/euler-pairing pairs them in the scroll's Chow ring: a fault in
    one route leaves the other passing."""

    @staticmethod
    def failing() -> Counter:
        return Counter(
            r.name for g in range(5, 31) for r in _point_checks(g, 3) if r.outcome == "fail"
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
        outcomes = {r.name: r.outcome for r in _point_checks(5, 3)}
        assert outcomes["oracle/ballico-agreement"] == "fail"

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
        results = _point_checks(g, n)
        assert results and all(r.outcome == "pass" for r in results)


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
    the points _decisive_ks picks from them, checked by brute force up to
    k = 4g.  A branch added without its switch fails here."""

    def test_points(self):
        assert _decisive_ks() == [0, 1]
        assert _decisive_ks([-1], [5, 5]) == [0, 1, 4, 5, 6]
        assert _decisive_ks([0, 9]) == [0, 1, 8, 9, 10]

    def test_ballico(self):
        for n in range(3, 9):
            for g in range(2 * n - 1, 61):
                values = [invariants.ballico_h0(g, n, k) for k in range(4 * g + 1)]
                assert _affine_between(
                    values, _decisive_ks(invariants.ballico_switches(g, n))
                ), (g, n)

    def test_maroni_generic(self):
        for n in range(3, 7):
            for g in range(2 * n - 1, 41):
                values = [invariants.maroni_h0(g, n, k) for k in range(4 * g + 1)]
                ks = _decisive_ks(invariants.maroni_branch_boundaries(g, n))
                assert _affine_between(values, ks), (g, n)

    def test_maroni_every_splitting(self):
        for n in range(3, 7):
            for g in range(2 * n - 1, 21):
                for rs in _splittings(g, n):
                    values = [
                        invariants.maroni_h0(g, n, k, rs) for k in range(4 * g + 1)
                    ]
                    ks = _decisive_ks(invariants.maroni_branch_boundaries(g, n, rs))
                    assert _affine_between(values, ks), (g, n, rs)

    def test_trigonal_oracle_and_curve_h1(self):
        for g in range(5, 81):
            ks = _decisive_ks(hirzebruch.trigonal_h0_switches(g))
            values = [hirzebruch.trigonal_h0_oracle(g, k) for k in range(4 * g + 1)]
            assert _affine_between(values, ks), g
            curve = hirzebruch.trigonal_curve_bundle(g)
            h1 = [_curve_h1(curve, k) for k in range(4 * g + 1)]
            assert _affine_between(h1, ks), g
