"""Tests of the verify sweep (gonal.checks): its checks and the mutants
they kill, its tally, the work done per grid point, and the queue of
tickets its forked workers share, where every unit is counted once, by
whichever process takes its chunk, and the summary is the one a single
process counts.  The input refusals the sweep shares with `report`, and
the point rows' tests that read the report's dossier or its seeded
classes, are in test_report.py."""

import itertools
import json
import math
import os
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from gonal import checks, cli, hirzebruch, hyperelliptic, invariants, picard, scroll
from gonal.chow import ChowClass
from gonal.errors import ConsistencyError, DomainError, in_scroll_range
from gonal.checks import (
    SweepSummary,
    _case_rows,
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


# the grid of the split sweep's tests: 540 points and the 4 global families,
# in 184 chunks of 3 points each
GRID = range(0, 60), range(0, 9)


@pytest.fixture
def no_child_left():
    """After the test, no child process is left, running or unreaped."""
    yield
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
        tally.count(family(), 7, (5, 3))
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
        tally.count(family(), 0, "F_e oracle")
        assert tally.summary().failures == [
            "b: detail", "d", f"{checks.RAISED}: ConsistencyError('broken') (family: F_e oracle)"
        ]

    def test_a_failure_at_the_point_0_0_names_the_point(self, monkeypatch):
        # (0, 0) is a grid point like any other, not a global family
        monkeypatch.setattr(checks, "_point_rows", lambda g, n: [("planted", False, f"{g},{n}")])
        summary = sweep_verify([0], [0])
        assert summary.failures == ["g=0 n=0 planted: 0,0"]

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
                tally.count(rows, unit, family)
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


@pytest.mark.usefixtures("no_child_left")
class TestSplitSweep:
    """The sweep's chunks taken from one queue by this process and forked
    workers: the same summary as one process, and no worker left behind."""

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
                (*GRID, 326, 184),
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
            assert sweep_verify(*GRID).ok
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        # the thread was the reason: alone, this process forks
        assert checks._usable_cpus() == 4
        with pytest.raises(AssertionError, match="forked"):
            sweep_verify(*GRID)
        # and without os.fork it cannot
        monkeypatch.delattr(os, "fork")
        assert checks._usable_cpus() == 1
        assert sweep_verify(*GRID).ok

    def test_the_clean_grid_split(self, monkeypatch):
        one_process(monkeypatch)
        one = sweep_verify(*GRID)
        for count in (2, 5):
            cut_into(monkeypatch, count)
            assert sweep_verify(*GRID) == one
        monkeypatch.undo()
        # on three CPUs the grid's 326 points' worth take three processes
        monkeypatch.setattr(checks, "_usable_cpus", lambda: 3)
        forks = self.counted_forks(monkeypatch)
        assert sweep_verify(*GRID) == one
        assert len(forks) == 2
        assert one.skipped > 0 and one.ok

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_a_mutant_split(self, monkeypatch, mutant):
        owner, attr, mutate = MUTANTS[mutant]
        monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
        one_process(monkeypatch)
        one = sweep_verify(*GRID)
        cut_into(monkeypatch, 2)
        split = sweep_verify(*GRID)
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
        one = sweep_verify(*GRID)
        for count in (1, 2, 3, 5):
            cut_into(monkeypatch, count)
            split = sweep_verify(*GRID)
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
        one = sweep_verify(*GRID)
        cut_into(monkeypatch, 2)
        split = sweep_verify(*GRID)
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
        one = sweep_verify(*GRID)
        fork, forks = os.fork, []

        def second_fails():
            if forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        # the two processes started take every ticket
        cut_into(monkeypatch, 4)
        assert sweep_verify(*GRID) == one
        assert forks == [1]


@pytest.mark.usefixtures("no_child_left")
class TestTicketQueue:
    UNITS = 4 + 60 * 9

    def test_every_unit_is_counted_once(self, monkeypatch):
        one_process(monkeypatch)
        one = sweep_verify(*GRID)
        # every process writes its pid and each unit it counts to one pipe,
        # a few kB in all, read once the sweep is over
        read_end, write_end = os.pipe()
        count = checks._Tally.count

        def logged(self, rows, unit, *args, **kwargs):
            os.write(write_end, b"%d %d\n" % (os.getpid(), unit))
            return count(self, rows, unit, *args, **kwargs)

        monkeypatch.setattr(checks._Tally, "count", logged)
        worker_starts_first(monkeypatch)
        try:
            for processes in (2, 3):
                cut_into(monkeypatch, processes)
                summary = sweep_verify(*GRID)
                by_process = {}
                for line in os.read(read_end, 1 << 16).splitlines():
                    pid, unit = map(int, line.split())
                    by_process.setdefault(pid, []).append(unit)
                assert sorted(sum(by_process.values(), [])) == list(range(self.UNITS))
                # a worker took a chunk, and each process counted in unit order
                assert 2 <= len(by_process) <= processes
                assert all(units == sorted(units) for units in by_process.values())
                assert summary == one
                assert list(summary.skip_reasons.items()) == list(one.skip_reasons.items())
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_a_stalled_process_leaves_the_points_to_the_worker(self, monkeypatch):
        one_process(monkeypatch)
        one = sweep_verify(*GRID)
        # this process's first unit waits until the worker has exited, so
        # the worker takes every other chunk
        started = worker_starts_first(monkeypatch, until_exit=True)
        cut_into(monkeypatch, 2)
        split = sweep_verify(*GRID)
        points = [unit for unit in started if unit >= 4]
        assert len(points) == len(set(points)) > 60 * 9 // 2
        assert split == one
        assert list(split.skip_reasons.items()) == list(one.skip_reasons.items())


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
