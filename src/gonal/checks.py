"""The verification sweep over a (g, n) grid and its check families.

``sweep_verify`` re-runs every cross-module identity over the grid and
reports counts instead of aborting: a verification harness must surface
all findings, an error raised while checks run included.  Only `verify`
loads this module, so a report loads none of it.

A family of checks is a generator of rows (name, ok) or (name, ok, detail):
ok True passes, False fails, and None skips, with detail as its reason.
_Tally.count counts each row as it is yielded, and keeps none.  An
exception raised while a family runs ends it with one failing RAISED row,
detail repr(exc) and a global family's name, so the sweep names it and
goes on to the next family.

The global checks count first, then the grid points in (g, n) order: a
unit is a global family or a point, numbered in that order.  This process
and forked workers take chunks of units from one queue of tickets until it
is empty; each process counts its chunks into one tally, a worker's sent
back over a pipe, and the tallies merge by unit, so the summary is the one
a single process counts.
"""

import json
import os
import random
import signal
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import gcd
from operator import itemgetter
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import chow, hirzebruch, hyperelliptic, invariants, picard, report
from .chow import AmbientScroll, ChowClass, intersect_number
from .errors import DomainError, as_int, in_scroll_range, require_at_most, require_digits
from .picard import DivisibilityVerdict, VerdictStatus
from .scroll import validate_scroll

# global/pencil-count compares its two routes at the grid's gonalities up
# to this bound; the Pieri table costs O(n^2) additions of O(n)-bit integers.
_PENCIL_COUNT_MAX_N = 200
# The most (g, n) points a sweep takes: about a minute at n <= 10, where a
# point in range takes about 0.4 ms.
SWEEP_POINT_LIMIT = 10**5
# The largest sum of n over the points in range a sweep takes, since a
# point's cost grows with n: 10^5 points at n near 20 with this
# sum take 36 to 53 s, and 2 x 10^3 points at n up to 2 x 10^3 take 9 to
# 14 s (CPython 3.11, one Xeon core; 16 to 18 s and 4 to 5.5 s split between two).
SWEEP_GONALITY_LIMIT = 2 * 10**6

RAISED = "sweep/raised"


class SweepSummary(NamedTuple):
    checked: int
    passed: int
    failed: int
    skipped: int
    first_failure: str | None
    failures: list[str]
    skip_reasons: dict[str, int]

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return self._asdict()


def _stepwise_reduce(ambient: AmbientScroll, a: int, b: int, c: int, order: str) -> dict:
    """Rewrite c * D^a f^b one relation at a time, with a chosen rule
    priority, to confirm the two relations are confluent.

    chow/confluent-reduction runs it on a <= n+1, b <= 2.  There every
    rule is reached within three steps, in both orders: the substitution
    of D^(n-1), the f^2 kill, and the kill above codimension n-1, which
    the substitution turns into an f^2 kill.  A larger a only repeats
    these rules while c grows as deg^(a-n+1).
    """
    while True:
        top = ambient.n - 1  # read at each step
        if b >= 2 and (order == "f_first" or a < top):
            return {}  # f^2 = 0 applies
        if a < top:
            return {(a, b): c} if c else {}
        # apply D^{n-1} -> deg(X) D^{n-2} f once
        c *= ambient.degree
        a -= 1
        b += 1


def _draws(g: int, n: int) -> Iterator[tuple[int, int, int]]:
    """Endless seeded terms (a, b, c) of random classes at (g, n), uniform
    on [0, n) x {0, 1} x [-4, 4]: the top 31 bits of a 64-bit linear
    congruential generator (Knuth's MMIX constants) seeded by 7919 g + n."""
    x = 7919 * g + n
    while True:
        x = (6364136223846793005 * x + 1442695040888963407) % 2**64
        v, a = divmod(x >> 33, n)
        c, b = divmod(v % 18, 2)
        yield a, b, c - 4


def _rand_class(draws: Iterator[tuple[int, int, int]], ambient: AmbientScroll) -> ChowClass:
    """The class of the next three draws: the sum of their terms c D^a f^b."""
    coeffs = {}
    for a, b, c in islice(draws, 3):
        coeffs[a, b] = coeffs.get((a, b), 0) + c
    return ChowClass(ambient, coeffs)


def _curve_h1(curve: hirzebruch.FeBundle, k: int) -> int:
    """h^1(O_C(kf)) = h^2(kf - C) - h^2(kf), by the restriction sequence."""
    kf = hirzebruch.FeBundle._on(curve.e, 0, k)
    return hirzebruch.bundle_cohomology(kf - curve).h2 - hirzebruch.bundle_cohomology(kf).h2


def _point_rows(g: int, n: int) -> Iterator[tuple]:
    """The rows of every per-(g, n) property.

    The values the dossier holds are read from generate_report(g, n, 0);
    the flag-backed checks record its consistency flags, whose predicates
    live there.  The independent routes (Chow-ring algebra and pairings,
    maroni-ballico, the degree lattice, rather-free and Riemann-Roch on
    the curve) are computed here.
    """
    if not in_scroll_range(g, n):
        yield "hypothesis", None, "requires n >= 3 and 2n-2 < g"
        return
    rep = report.generate_report(g, n, 0)
    s, inv, flags = rep.scroll, rep.invariants, rep.consistency_flags
    amb = AmbientScroll(g, n)
    hyper = amb.hyperplane()
    fiber = amb.fiber()
    curve = ChowClass(amb, {(a, b): c for a, b, c in rep.curve_class})

    # intersection ring normalization
    power = amb.monomial(n - 2, 0)  # D^(n-2)
    yield "chow/point-degree", amb.point_class().degree() == 1 and (power * fiber).degree() == 1
    top = power * hyper
    yield "chow/top-power", top.degree() == g - n + 1, f"deg(D^(n-1)) = {top.degree()}"
    draws = _draws(g, n)
    ff = fiber * fiber
    yield "chow/fiber-squared", all(
        (ff * x).is_zero() for x in (amb.unit(), curve, _rand_class(draws, amb))
    )
    x, y, z = (_rand_class(draws, amb) for _ in range(3))
    xy, xz = x * y, x * z
    yield "chow/commutative", xy == y * x
    yield "chow/associative", xy * z == x * (y * z)
    # a subtraction that adds leaves x * (y + z) - x * z at x * y + 2 x * z
    xyz = x * (y + z)
    yield "chow/distributive", xyz == xy + xz and xyz - xz == xy
    confluent = True
    for a in range(0, n + 2):
        for b in range(0, 3):
            closed = chow._normal_form(amb, (((a, b), 1),))
            confluent &= (
                _stepwise_reduce(amb, a, b, 1, "f_first") == closed
                == _stepwise_reduce(amb, a, b, 1, "d_first")
            )
    yield "chow/confluent-reduction", confluent

    # scroll classification
    yield "scroll/generic-valid", validate_scroll(s.splitting, g, n)
    yield "scroll/shift-nonnegative", (
        s.shift >= 0 and (n - 1) * s.shift + s.big_n == top.degree()
    ), f"shift = {s.shift}"
    fc = intersect_number([fiber], curve)
    dc = intersect_number([hyper], curve)
    yield "scroll/fiber-pairing", fc == n, f"f.C = {fc}"
    yield "scroll/hyperplane-pairing", dc == 2 * g - 2, f"D.C = {dc}"
    chi_t_chow = inv.chi_restricted_tangent_chow
    yield "scroll/euler-pairing", chi_t_chow == n * n + 1 - g, (
        f"-K.C = {chi_t_chow - (n - 1) * (1 - g)}"
    )
    yield "scroll/aut-numerics", (
        s.aut_total_dim == n * n - 2 * n + 3
        and s.aut_total_dim == s.aut_vertical_dim + 3
        and s.aut_components == (2 if (n == 3 and g % 2 == 0) else 1)
    )

    # curve invariants
    yield "invariants/euler-chain", flags.euler_chain, (
        f"chi(T|C) = {inv.chi_restricted_tangent}, chi(N) = {inv.chi_normal_bundle}"
    )
    # Riemann-Roch: h^1 = h^0 - chi
    yield "invariants/h1-double-pencil", (
        inv.h1_double_pencil == invariants.ballico_h0(g, n, 2) - (2 * n + 1 - g)
    )
    # Riemann-Hurwitz: a simply branched n-sheeted cover of P^1 has
    # (2g-2) + 2n branch points, moved by PGL(2) of dimension 3
    yield "invariants/moduli-dimension", inv.moduli_dimension == (2 * g - 2) + 2 * n - 3, (
        "on this grid 2n-2 < g, so the gonal branch is the minimum"
    )
    ballico_switches = invariants.ballico_switches(g, n)
    yield "invariants/maroni-ballico", all(
        invariants.maroni_h0(g, n, k) == invariants.ballico_h0(g, n, k)
        for k in invariants.decisive_ks(invariants.maroni_branch_boundaries(g, n), ballico_switches)
    )
    yield "invariants/branch-continuity", flags.branch_continuity
    # h^0 - chi is positive below the switch and zero from it on, affine
    # between decisive points: positive on a gap iff at both ends
    yield "invariants/ballico-riemann-roch-bound", all(
        h0 == chi if k * (n - 1) >= g else h0 > chi
        for k in invariants.decisive_ks(ballico_switches)
        for h0, chi in [(invariants.ballico_h0(g, n, k), n * k + 1 - g)]
    )

    # degree lattice
    d = picard.degree_subgroup(g, n)
    yield "picard/divides-generators", d == gcd(dc, fc)
    witness = picard.solve_degree(g, n, d)
    omega_witness = picard.solve_degree(g, n, 2 * g - 2)
    yield "picard/solve-reevaluates", (
        witness is not None
        and witness[0] * (2 * g - 2) + witness[1] * n == d
        and omega_witness is not None
        and omega_witness[0] * (2 * g - 2) + omega_witness[1] * n == 2 * g - 2
        and (d == 1 or picard.solve_degree(g, n, d + 1) is None)
    )
    verdict = rep.divisibility
    expected_status = VerdictStatus.PROVEN_FOR_TRIGONAL if n == 3 else VerdictStatus.CONJECTURE
    yield "picard/constraint", (
        verdict.divisor == d and verdict.status == expected_status and verdict.sharp
    )
    # the witness for d, evaluated on the Chow-ring pairings
    yield "picard/sharpness-witness", (
        verdict.sharp and witness is not None and witness[0] * dc + witness[1] * fc == d
    )

    if n == 3:
        yield "picard/trigonal-mod-3", verdict.divisor == (3 if g % 3 == 1 else 1)
        yield "oracle/ballico-agreement", flags.oracle_agreement
        yield "oracle/dim-P(L)", flags.dim_p_l
        pairing, free = hirzebruch.rather_free_check(g)
        yield "oracle/rather-free", pairing == -g - 8 and free, f"(K_S.L) = {pairing}"
        curve_fe = hirzebruch.trigonal_curve_bundle(g)
        # h^1 is the oracle's h^0 - chi, its sign decided as in ballico-riemann-roch-bound
        yield "oracle/riemann-roch-on-curve", all(
            0 <= _curve_h1(curve_fe, k) == hirzebruch.trigonal_h0_oracle(g, k) - (3 * k + 1 - g)
            for k in invariants.decisive_ks(hirzebruch.trigonal_h0_switches(g))
        )


def _gf_polymul(u: list[int], v: list[int], p: int) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def _pieri_degrees(m_max: int) -> list[int]:
    """deg sigma_1^(2m) on the Grassmannian G(2, m+2), for m = 0..m_max.

    Pieri's rule sigma_(a,b) * sigma_1 = sigma_(a+1,b) + sigma_(a,b+1)
    (terms with b > a dropped) makes the degree the number of ways to
    grow the partition (m, m) one box at a time: ballot paths from (0, 0)
    to (m, m) that keep a >= b.  Rows stop at m on their own, so one
    table of additions holds every m.
    """
    paths = [1] * (m_max + 1)  # paths to (a, 0)
    degrees = [1]
    for b in range(1, m_max + 1):
        # paths[b] keeps its count: (b, b) is reached only from (b, b - 1)
        for a in range(b + 1, m_max + 1):
            paths[a] += paths[a - 1]
        degrees.append(paths[b])
    return degrees


def _fe_rows() -> Iterator[tuple]:
    """The surface oracle against a second route: aC_0 + bf pushes forward
    to the sum of O(b - ie), i = 0..a, so h^0 counts lattice points and h^1
    is the Leray sum, with no Euler characteristic.  Nothing pushes forward
    at a = -1, and Serre duality reaches a <= -2.  bundle_cohomology raises
    where its h^1 would be negative."""
    summed_ok = True
    for e in (0, 1):
        for a in range(-6, 13):
            # a <= -2 through its dual (-2 - a)C_0 + cf, c = -(e + 2) - b
            dual = a <= -2
            m = -2 - a if dual else a
            for b in range(-40, 41):
                c = -(e + 2) - b if dual else b
                # O(t), t = c - ie, has h^0 = t + 1 from t = 0 on, h^1 = -t - 1 below t = -1
                h0 = h1 = 0
                for i in range(m + 1):
                    t = c - i * e
                    if t >= 0:
                        h0 += t + 1
                    elif t < -1:
                        h1 -= t + 1
                summed = (0, h1, h0) if dual else (h0, h1, 0)
                bundle = hirzebruch.FeBundle._on(e, a, b)  # e is 0 or 1
                summed_ok &= hirzebruch.bundle_cohomology(bundle) == summed
    yield "global/fe-cohomology", summed_ok
    yield "global/fe-structure-sheaf", all(
        hirzebruch.bundle_cohomology(hirzebruch.FeBundle(e, 0, 0)) == (1, 0, 0)
        for e in range(0, 4)
    )


def _hyperelliptic_rows() -> Iterator[tuple]:
    """The discriminant's two routes, and the twist."""
    # discriminant: Euclid route vs Bezout-resultant route
    p = 10007
    rng = random.Random(20240)
    agree = verdicts_ok = True
    for trial in range(200):
        genus = rng.choice((2, 3, 4))
        d = 2 * genus + 2
        kind = trial % 4
        if kind == 0:
            cs = [rng.randrange(p) for _ in range(d + 1)]
        elif kind == 1:  # planted affine double root
            r = rng.randrange(p)
            h = [rng.randrange(p) for _ in range(d - 2)] + [rng.randrange(1, p)]
            cs = _gf_polymul([r * r % p, (-2 * r) % p, 1], h, p)
        elif kind == 2:  # planted double root at infinity
            cs = [rng.randrange(p) for _ in range(d - 1)] + [0, 0]
        else:  # simple root at infinity
            cs = [rng.randrange(p) for _ in range(d - 1)] + [rng.randrange(1, p), 0]
        form = hyperelliptic.BinaryForm(d, tuple(cs), p=p)
        by_gcd = hyperelliptic.discriminant_nonzero(form, method="gcd")
        by_res = hyperelliptic.discriminant_nonzero(form, method="resultant")
        agree &= by_gcd == by_res
        verdicts_ok &= not (kind in (1, 2) and by_gcd)
    yield "global/discriminant-dual-route", agree and verdicts_ok

    # the twist keeps the form, sets a' = f(x0), summed here over Fractions
    # rather than by BinaryForm.evaluate, and lands on the curve
    twist_ok = True
    for genus in (2, 3):
        d = 2 * genus + 2
        cs = [1] + [0] * (d - 1) + [1]  # x^d + 1: squarefree in char 0
        form = hyperelliptic.BinaryForm(d, tuple(cs))
        model = hyperelliptic.HyperellipticModel(2, form)
        for x0 in (0, 1, -2, 5, Fraction(-3, 2)):
            twisted, point = hyperelliptic.twist_with_point(model, x0)
            twist_ok &= (
                twisted.form == model.form
                and twisted.a == sum(c * Fraction(x0) ** i for i, c in enumerate(cs))
                and twisted.residual(*point) == 0
            )
    yield "global/twist-invariance", twist_ok


def _case_rows(g_values: list[int], n_values: list[int]) -> Iterator[tuple]:
    """The counts over the grid's genera and gonalities, and the Brill-Noether boundary."""
    # all() over no case would pass vacuously, so a check with none is a skip
    hyper_genera = [g for g in g_values if g >= 2]
    pencil_gonalities = [n for n in n_values if n >= 2]
    pencil_cases = [n for n in pencil_gonalities if n <= _PENCIL_COUNT_MAX_N]
    # Castelnuovo: a general curve of genus 2n-2 has deg G(2, n+1) pencils g^1_n
    castelnuovo = _pieri_degrees(max(pencil_cases + [4]) - 1)
    cases = {"genus": hyper_genera, "gonality": pencil_gonalities}
    for name, what, ok in (
        ("global/hyperelliptic-dimension", "genus", all(
            hyperelliptic.hg_dimension(g) == invariants.moduli_dimension(g, 2)
            for g in hyper_genera
        )),
        ("global/hyperelliptic-constraint", "genus", all(
            picard.modular_degree_constraint(g, 2)
            == DivisibilityVerdict(picard.degree_subgroup(g, 2), VerdictStatus.THEOREM, True)
            for g in hyper_genera
        )),
        # pencil count at the boundary genus, by two routes
        ("global/pencil-count", "gonality", all(
            invariants.gonal_pencil_count(n) == castelnuovo[n - 1] for n in pencil_cases
        ) and invariants.gonal_pencil_count(3) == castelnuovo[2] == 2
        and invariants.gonal_pencil_count(4) == castelnuovo[3] == 5),
    ):
        yield (name, ok) if cases[what] else (name, None, f"no {what} >= 2 in the grid")
    # Brill-Noether: the general curve of genus g has gonality (g+3)//2,
    # so the n-gonal locus is all of moduli exactly from there on
    yield "global/moduli-boundary", all(
        (invariants.moduli_dimension(g, n) == 3 * g - 3) == (n >= (g + 3) // 2)
        for n in range(2, 13)
        for g in range(2, 2 * n + 3)
    )


def _report_rows() -> Iterator[tuple]:
    """Report determinism and JSON round trip at representative points."""
    for rg, rn, rk in ((5, 3, 6), (8, 4, 4)):
        rep = report.generate_report(rg, rn, rk)
        again = report.generate_report(rg, rn, rk)
        text = report.emit_json(rep)
        same = rep == again and text == report.emit_json(again)
        yield f"global/report-deterministic-{rg}-{rn}", same
        yield f"global/report-roundtrip-{rg}-{rn}", report.parse_json(text) == rep


def _global_checks(g_values: list[int], n_values: list[int]) -> list[tuple[str, Iterator[tuple]]]:
    """The properties that are not tied to a single grid point, as
    (family, rows), each counted on its own so that an error in one family
    does not stop the others."""
    return [
        ("F_e oracle", _fe_rows()),
        ("hyperelliptic routes", _hyperelliptic_rows()),
        ("case counts", _case_rows(g_values, n_values)),
        ("report round trip", _report_rows()),
    ]


# ---------------------------------------------------------------------------
# the work, taken from a queue of tickets by this process and forked workers
# ---------------------------------------------------------------------------

# A process for every 128 points' worth of checks, a point in range at
# small n taking about 0.27 ms: 35 ms, 7 times the 5 ms a worker adds to a
# sweep on one CPU, 2 ms of it the fork, pipe and reaping.  A point in range
# at gonality n is worth 1 + n/64 of them (7 to 11 ms at n near 2000), and a
# skipped point 1/128 (1.6 to 2.7 us).
_POINTS_PER_PROCESS = 128
# The most chunks a sweep's units are cut into, so that a chunk's index is
# one byte: the global families, then runs of consecutive points (4 points
# a run on the ROADMAP grid).
_CHUNKS = 256


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it must not fork:
    without os.fork, or with another thread alive, since forking a
    threaded process can deadlock (and Python 3.12+ warns)."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Tally:
    """Check rows counted as they arrive, never kept: outcomes, skip reasons
    and the first KEPT failure lines, each line tagged with its unit (see
    _sweep)."""

    KEPT = 20

    def __init__(self) -> None:
        self.outcomes, self.skip_reasons, self.failures = Counter(), Counter(), []

    def count(self, rows: Iterable, unit: int, g: int = 0, n: int = 0, family: str = "") -> None:
        """Count one family's rows at unit, at (g, n) or under its name for
        a global family, each as it is yielded: the one place a row
        becomes a pass, a fail or a skip.  A skip gives its reason: ok None
        without one is a failure.  An exception raised while the rows run
        counts as one failing RAISED row, detail repr(exc)."""

        def guarded() -> Iterator[tuple]:
            try:
                yield from rows
            except Exception as exc:
                yield RAISED, False, f"{exc!r} (family: {family})" if family else repr(exc)

        passed = 0
        for row in guarded():
            ok = row[1]
            if ok:
                passed += 1
                continue
            detail = row[2] if len(row) == 3 else ""
            outcome = "skip" if ok is None and detail else "fail"
            self.outcomes[outcome] += 1
            if outcome == "skip":
                self.skip_reasons[detail] += 1
            elif len(self.failures) < self.KEPT:
                # written only for a line kept: a skipped g or n may not print
                where = f"g={g} n={n} " if (g, n) != (0, 0) else ""
                self.failures.append((unit, where + row[0] + (f": {detail}" if detail else "")))
        if passed:
            self.outcomes["pass"] += passed

    def dumps(self) -> bytes:
        return json.dumps([self.outcomes, self.skip_reasons, self.failures]).encode()

    @classmethod
    def loads(cls, data: bytes) -> "_Tally":
        """The tally whose dumps() is data; ValueError where data does not parse."""
        tally = cls()
        outcomes, skip_reasons, tally.failures = json.loads(data)
        tally.outcomes.update(outcomes)
        tally.skip_reasons.update(skip_reasons)
        return tally

    def merge(self, other: "_Tally") -> None:
        """Count another process's rows into this tally, as if counted here:
        a unit belongs to one process, which counts in unit order, so a
        stable sort by unit keeps each entry's place within its unit."""
        self.outcomes.update(other.outcomes)
        self.skip_reasons.update(other.skip_reasons)
        self.failures = sorted(self.failures + other.failures, key=itemgetter(0))[: self.KEPT]

    def summary(self) -> SweepSummary:
        passed, failed = self.outcomes["pass"], self.outcomes["fail"]
        failures = [line for _, line in self.failures]
        return SweepSummary(
            passed + failed, passed, failed, self.outcomes["skip"], (failures or [None])[0],
            failures, dict(sorted(self.skip_reasons.items())),
        )


def _fork(take: Callable[[], _Tally]) -> tuple[int, BinaryIO]:
    """A worker that counts the chunks take() takes and writes its tally's
    dumps to a pipe: its pid and the pipe's read end."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        # the worker ends only through os._exit, so it flushes none of the
        # parent's buffered output and runs no exit handler; it exits 0 only
        # after its whole dump is written
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(take().dumps())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _sweep(g_values: Sequence[int], n_values: Sequence[int], work: int) -> _Tally:
    """The tally of the global checks, then of every grid point in (g, n)
    order, the points being worth work points at small n (see
    _POINTS_PER_PROCESS).  Unit i < F is global family i, and F + r * m + j
    the point (g_values[r], n_values[j]).  Chunk c is the units from
    starts[c] up to starts[c + 1]: a family, or a run of step points, step
    being the least that makes at most _CHUNKS chunks.  One byte per chunk is
    written to a pipe before the w - 1 workers are forked; each process,
    this one included, reads one ticket at a time and counts its chunk
    into one tally until the pipe is empty.  A one-byte read is never split
    between readers, and the tickets are read in order, so each process
    counts its units in unit order, and a process slowed down takes fewer
    chunks.  There are never more processes than chunks.  A worker
    that dies, exits nonzero or sends an unreadable dump counts as one
    failing RAISED row naming its share, at unit -1, so that it leads the
    failure lines."""
    m = len(n_values)
    families = _global_checks(g_values, n_values)
    f, points = len(families), len(g_values) * m
    step = -(-points // (_CHUNKS - f))
    starts = [*range(f), *range(f, f + points, step), f + points]
    chunks = len(starts) - 1
    w = min(_usable_cpus(), 1 + work // _POINTS_PER_PROCESS, chunks)

    def take() -> _Tally:
        tally = _Tally()
        while ticket := os.read(tickets, 1):
            c = ticket[0]
            for unit in range(starts[c], starts[c + 1]):
                if unit < f:
                    family, rows = families[unit]
                    tally.count(rows, unit, family=family)
                else:
                    r, j = divmod(unit - f, m)
                    g, n = g_values[r], n_values[j]
                    tally.count(_point_rows(g, n), unit, g, n)
        return tally

    tickets, write_end = os.pipe()
    try:
        os.write(write_end, bytes(range(chunks)))
    finally:
        os.close(write_end)
    workers = []  # (k, pid, read end), in process order
    dead = []
    try:
        try:
            for k in range(1, w):
                workers.append((k, *_fork(take)))
        except OSError:
            pass  # no more processes: those started take every ticket
        total = take()
        while workers:
            k, pid, pipe = workers[0]
            data = pipe.read()
            pipe.close()
            del workers[0]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if not code:
                try:
                    total.merge(_Tally.loads(data))
                    continue
                except ValueError:
                    pass
            how = (
                f"was killed by signal {-code}" if code < 0
                else f"exited with status {code}" if code
                else "sent an unreadable tally"
            )
            dead.append((RAISED, False, f"the worker for share {k + 1} of {w} {how}"))
    finally:
        os.close(tickets)
        # an interrupted sweep leaves no worker running, nor a zombie
        for _, pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if dead:
        raised = _Tally()
        raised.count(dead, -1)
        total.merge(raised)
    return total


def _distinct(name: str, values: Iterable[int]) -> list[int]:
    """The sorted distinct values of the grid axis name, each an int, read
    only until there are more than SWEEP_POINT_LIMIT of them, which the
    point cap refuses."""
    seen = set()
    for v in values:
        seen.add(as_int(name, v))
        if len(seen) > SWEEP_POINT_LIMIT:
            break
    return sorted(seen)


def sweep_verify(g_range: Iterable[int], n_range: Iterable[int]) -> SweepSummary:
    """Run every module property over the (g, n) grid and summarize.

    Grid points whose hypotheses fail are counted as skips with a
    reason; failures, and errors raised while checks run, are collected,
    never raised.  Identities in k are decided for every k >= 0.  A grid
    beyond report.GONALITY_LIMIT, report.GENUS_LIMIT, SWEEP_POINT_LIMIT
    or SWEEP_GONALITY_LIMIT is refused before any check runs.  The
    summary is the one-process one, however many workers share the grid.
    """
    # a range, read increasing, is sorted and distinct, and gives its ends
    # and size unbuilt (len overflows past sys.maxsize)
    g_values, n_values = (
        (r if r.step > 0 else r[::-1]) if isinstance(r, range) else _distinct(name, r)
        for name, r in (("g", g_range), ("n", n_range))
    )
    if not g_values or not n_values:
        raise DomainError("sweep ranges must be non-empty")
    require_at_most("n", n_values[-1], report.GONALITY_LIMIT)
    digits = report.genus_digits()
    require_digits("g", "genus", g_values[-1], digits)
    points, axes = 1, (g_values, n_values)
    for v in axes:
        points *= len(v) if isinstance(v, list) else (v[-1] - v[0]) // v.step + 1
    if points > SWEEP_POINT_LIMIT:
        # ranges with ends of thousands of digits make a count too long to
        # print, and a list read in part gives a lower bound
        partial = any(isinstance(v, list) and len(v) > SWEEP_POINT_LIMIT for v in axes)
        got = (
            f"10^{digits} or more" if points >= 10**digits
            else f"{points} or more" if partial else points
        )
        raise DomainError(f"requires at most {SWEEP_POINT_LIMIT} grid points (got {got})")
    # the grid now has at most SWEEP_POINT_LIMIT points
    in_range = [n for g in g_values for n in n_values if in_scroll_range(g, n)]
    gonality = sum(in_range)
    if gonality > SWEEP_GONALITY_LIMIT:
        raise DomainError(
            f"requires a sum of n over the points in range of at most "
            f"{SWEEP_GONALITY_LIMIT} (got {gonality})"
        )
    skipped = points - len(in_range)
    return _sweep(g_values, n_values, len(in_range) + gonality // 64 + skipped // 128).summary()


def render_sweep_text(summary: SweepSummary) -> str:
    lines = [
        f"checked {summary.checked}  passed {summary.passed}  "
        f"failed {summary.failed}  skipped {summary.skipped}"
    ]
    if summary.skip_reasons:
        lines.append("skip reasons:")
        lines += [f"  {count} x {reason}" for reason, count in summary.skip_reasons.items()]
    if summary.failures:
        lines += ["failures:", *(f"  {f}" for f in summary.failures)]
    lines.append("ok" if summary.ok else "FAILED")
    return "\n".join(lines) + "\n"
