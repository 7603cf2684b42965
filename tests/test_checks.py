"""Tests for the verify sweep's queue of tickets: every unit is counted
once, by whichever process takes its chunk, and the summary is the one a
single process counts."""

import os

import pytest

from gonal import checks
from gonal.checks import sweep_verify
from test_report import assert_no_child, cut_into, one_process, worker_starts_first


class TestTicketQueue:
    # 540 points and the 4 global families: 184 chunks, of 3 points each
    GRID = range(0, 60), range(0, 9)
    UNITS = 4 + 60 * 9

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        assert_no_child()

    def test_every_unit_is_counted_once(self, monkeypatch):
        one_process(monkeypatch)
        one = sweep_verify(*self.GRID)
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
                summary = sweep_verify(*self.GRID)
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
        one = sweep_verify(*self.GRID)
        # this process's first unit waits until the worker has exited, so
        # the worker takes every other chunk
        started = worker_starts_first(monkeypatch, until_exit=True)
        cut_into(monkeypatch, 2)
        split = sweep_verify(*self.GRID)
        points = [unit for unit in started if unit >= 4]
        assert len(points) == len(set(points)) > 60 * 9 // 2
        assert split == one
        assert list(split.skip_reasons.items()) == list(one.skip_reasons.items())
