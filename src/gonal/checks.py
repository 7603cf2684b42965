"""The verification sweep over a (g, n) grid and its check families.

``sweep_verify`` re-runs every cross-module identity over the grid and
reports counts instead of aborting: a verification harness must surface
all findings, an error raised while checks run included.  Only `verify`
loads this module, so a report loads none of it.

A family of checks is a generator of rows (name, ok) or (name, ok, detail):
ok True passes, False fails, and None skips, with detail as its reason.
_run makes the rows into CheckResults.  An exception raised while a family
runs ends it with one failing RAISED result, detail repr(exc) and a global
family's name, so the sweep names it and goes on to the next family.

The global checks count first, then the grid points in (g, n) order.  The
grid runs in slices of about equal estimated cost: the first in this
process, after the global checks, and each further one in a forked worker
that sends its tally back over a pipe, merged in slice order, so the
summary is the one a single process counts.
"""

import json
import os
import random
import signal
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

from . import chow, hirzebruch, hyperelliptic, invariants, picard, report
from .chow import AmbientScroll, ChowClass, intersect_number
from .errors import DomainError, as_int, in_scroll_range, require_at_most
from .picard import DivisibilityVerdict, VerdictStatus
from .scroll import validate_scroll

# global/pencil-count compares its two routes at the grid's gonalities up
# to this bound; the Pieri table costs O(n^2) additions of O(n)-bit integers.
_PENCIL_COUNT_MAX_N = 200
# The most (g, n) points a sweep takes: about a minute at n <= 10, each
# point costing what _point_us estimates.
SWEEP_POINT_LIMIT = 10**5
# The largest sum of n over the points in range a sweep takes, since a
# point's cost grows with n (_point_us): 10^5 points at n near 20 with this
# sum take 45 to 53 s, and 2 x 10^3 points at n up to 2 x 10^3 take 11 to
# 14 s (CPython 3.11, one Xeon core; 23 to 29 s and 7 to 8 s split between two).
SWEEP_GONALITY_LIMIT = 2 * 10**6

RAISED = "sweep/raised"


class CheckResult(NamedTuple):
    g: int
    n: int
    name: str
    outcome: str  # "pass" | "fail" | "skip"
    detail: str


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
        return report._encode_ints(self)


def _run(g: int, n: int, rows: Iterable[tuple], family: str = "") -> list[CheckResult]:
    """The results of one family's rows at (g, n), or at (0, 0) under its
    name for a global family: the one place check rows become CheckResults.
    A skip gives its reason: ok None without one is a failure."""
    out = []
    try:
        for row in rows:
            ok, detail = row[1], row[2] if len(row) == 3 else ""
            outcome = "pass" if ok else "skip" if ok is None and detail else "fail"
            out.append(tuple.__new__(CheckResult, (g, n, row[0], outcome, detail)))
    except Exception as exc:
        detail = f"{exc!r} (family: {family})" if family else repr(exc)
        out.append(CheckResult(g, n, RAISED, "fail", detail))
    return out


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
        f_redex = b >= 2
        d_redex = a >= ambient.n - 1
        if not f_redex and not d_redex:
            return {(a, b): c} if c else {}
        if f_redex and (order == "f_first" or not d_redex):
            return {}
        # apply D^{n-1} -> deg(X) D^{n-2} f once
        c *= ambient.degree
        a -= 1
        b += 1


def _rand_class(rng: random.Random, ambient: AmbientScroll) -> ChowClass:
    coeffs = {}
    for _ in range(3):
        a = rng.randrange(0, ambient.n)
        b = rng.randrange(0, 2)
        coeffs[(a, b)] = coeffs.get((a, b), 0) + rng.randint(-4, 4)
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
    yield "chow/point-degree", (
        amb.point_class().degree() == 1 and (amb.monomial(n - 2, 0) * fiber).degree() == 1
    )
    top = amb.monomial(n - 2, 0) * hyper
    yield "chow/top-power", top.degree() == g - n + 1, f"deg(D^(n-1)) = {top.degree()}"
    rng = random.Random(7919 * g + n)
    ff = fiber * fiber
    yield "chow/fiber-squared", all(
        (ff * x).is_zero() for x in (amb.unit(), curve, _rand_class(rng, amb))
    )
    x, y, z = (_rand_class(rng, amb) for _ in range(3))
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
            confluent &= _stepwise_reduce(amb, a, b, 1, "f_first") == closed
            confluent &= _stepwise_reduce(amb, a, b, 1, "d_first") == closed
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
        for k in report._decisive_ks(invariants.maroni_branch_boundaries(g, n), ballico_switches)
    )
    yield "invariants/branch-continuity", flags.branch_continuity
    yield "invariants/ballico-riemann-roch-bound", all(
        h0 == chi if k * (n - 1) >= g else h0 > chi
        for k in report._decisive_ks(ballico_switches)
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
        yield "oracle/riemann-roch-on-curve", all(
            0 <= _curve_h1(curve_fe, k) == hirzebruch.trigonal_h0_oracle(g, k) - (3 * k + 1 - g)
            for k in report._decisive_ks(hirzebruch.trigonal_h0_switches(g))
        )


def _point_checks(g: int, n: int) -> list[CheckResult]:
    """All per-(g, n) properties; one CheckResult per named property."""
    return _run(g, n, _point_rows(g, n))


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
    """The surface oracle on its own: Serre duality flips the cohomology
    triple, and h^1 >= 0 (bundle_cohomology raises on a violation)."""
    serre_ok = True
    for e in (0, 1):
        k = hirzebruch.canonical_bundle(e)
        for a in range(-6, 13):
            for b in range(-40, 41):
                bundle = hirzebruch.FeBundle._on(e, a, b)  # e checked by canonical_bundle
                h = hirzebruch.bundle_cohomology(bundle)
                dual = hirzebruch.bundle_cohomology(k - bundle)
                serre_ok &= (h.h0, h.h1, h.h2) == (dual.h2, dual.h1, dual.h0)
    yield "global/fe-cohomology", serre_ok
    yield "global/fe-structure-sheaf", all(
        hirzebruch.bundle_cohomology(hirzebruch.FeBundle(e, 0, 0)) == (1, 0, 0)
        for e in range(0, 4)
    )


def _hyperelliptic_rows() -> Iterator[tuple]:
    """The discriminant's two routes, and the twist."""
    # discriminant: Euclid route vs Sylvester-resultant route
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


def _global_checks(g_values: list[int], n_values: list[int]) -> list[CheckResult]:
    """Properties that are not tied to a single grid point, family by
    family, so that an error in one family does not stop the others."""
    names = ("F_e oracle", "hyperelliptic routes", "case counts", "report round trip")
    families = (_fe_rows(), _hyperelliptic_rows(), _case_rows(g_values, n_values), _report_rows())
    return [r for name, rows in zip(names, families) for r in _run(0, 0, rows, name)]


# ---------------------------------------------------------------------------
# the grid, in slices run by forked workers
# ---------------------------------------------------------------------------

# Estimated costs in microseconds (CPython 3.11, one Xeon core): the global
# checks, which the parent runs, and a point, _point_us.  The global checks
# took 48 to 87 ms in a fresh process, 0.16 to 0.22 of the points of
# g 5..120 x n 3..10, which _point_us puts at 388 ms.
_GLOBAL_US = 60_000
# The least estimated work a slice is cut for: about 25 times the 1 to 2 ms
# of a worker's fork, pipe and reaping.
_SLICE_US = 50_000


def _point_us(g: int, n: int) -> int:
    return 400 + 7 * n if in_scroll_range(g, n) else 3


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


def _slices(g_values: Sequence[int], n_values: Sequence[int]) -> list[range]:
    """The indices of the grid's points in sweep order (point i is
    g_values[i // len(n_values)], n_values[i % len(n_values)]), cut into
    contiguous slices of about equal estimated cost, the global checks
    counted in the first: one slice per usable CPU, at most one per
    _SLICE_US of work."""
    points = len(g_values) * len(n_values)
    cpus = _usable_cpus()
    if cpus == 1:
        return [range(points)]
    costs = [_point_us(g, n) for g in g_values for n in n_values]
    work = _GLOBAL_US + sum(costs)
    count = max(1, min(cpus, work // _SLICE_US))
    cuts, done = [0], _GLOBAL_US
    for i, cost in enumerate(costs):
        # cut before the point whose middle passes the next multiple of the
        # share work / count
        if i and len(cuts) < count and count * (2 * done + cost) > 2 * len(cuts) * work:
            cuts.append(i)
        done += cost
    return [range(a, b) for a, b in zip(cuts, [*cuts[1:], points])]


class _Tally:
    """Results counted as they arrive, never kept: outcomes, skip reasons
    in first-seen order, and the first KEPT failure lines."""

    KEPT = 20

    def __init__(self) -> None:
        self.outcomes, self.skip_reasons, self.failures = Counter(), Counter(), []

    def count(self, results: Iterable[CheckResult]) -> None:
        for r in results:
            self.outcomes[r.outcome] += 1
            if r.outcome == "skip":
                self.skip_reasons[r.detail] += 1
            elif r.outcome == "fail" and len(self.failures) < self.KEPT:
                where = f"g={r.g} n={r.n} " if (r.g, r.n) != (0, 0) else ""
                self.failures.append(where + r.name + (f": {r.detail}" if r.detail else ""))

    def dumps(self) -> bytes:
        return json.dumps([self.outcomes, list(self.skip_reasons.items()), self.failures]).encode()

    def merge(self, data: bytes) -> None:
        """Count a later tally's dumps() after this one's results, as if
        they had been counted here; ValueError where data does not parse."""
        outcomes, skip_reasons, failures = json.loads(data)
        self.outcomes.update(outcomes)
        for reason, times in skip_reasons:
            self.skip_reasons[reason] += times
        self.failures += failures[: self.KEPT - len(self.failures)]

    def summary(self) -> SweepSummary:
        passed, failed = self.outcomes["pass"], self.outcomes["fail"]
        first = self.failures[0] if self.failures else None
        return SweepSummary(
            passed + failed, passed, failed, self.outcomes["skip"], first, self.failures,
            dict(self.skip_reasons),
        )


def _fork(results: Iterator[CheckResult]) -> tuple[int, BinaryIO]:
    """A worker that counts results and writes its tally's dump to a pipe:
    its pid and the pipe's read end."""
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
            tally = _Tally()
            tally.count(results)
            with open(write_end, "wb") as pipe:
                pipe.write(tally.dumps())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _sweep(g_values: Sequence[int], n_values: Sequence[int]) -> _Tally:
    """The tally of the global checks, then of every grid point in (g, n)
    order.  The slices after the first run in forked workers, started
    before any check runs; where a fork fails, the slices left run here
    after the workers' tallies.  A worker that dies, exits nonzero or sends
    an unreadable tally counts as one failing RAISED result naming its
    genera."""
    m = len(n_values)

    def results(part: range) -> Iterator[CheckResult]:
        return (r for i in part for r in _point_checks(g_values[i // m], n_values[i % m]))

    first, *rest = _slices(g_values, n_values)
    tally, workers = _Tally(), []  # workers: (slice, pid, read end), in slice order
    try:
        try:
            for part in rest:
                workers.append((part, *_fork(results(part))))
        except OSError:
            pass  # no more processes: the slices left run here, last
        local = rest[len(workers):]
        tally.count(chain(_global_checks(g_values, n_values), results(first)))
        while workers:
            part, pid, pipe = workers[0]
            data = pipe.read()
            pipe.close()
            del workers[0]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if not code:
                try:
                    tally.merge(data)
                    continue
                except ValueError:
                    pass
            lo, hi = (g_values[i // m] for i in (part[0], part[-1]))
            how = (
                f"was killed by signal {-code}" if code < 0
                else f"exited with status {code}" if code
                else "sent an unreadable tally"
            )
            detail = f"the worker for g={lo}..{hi} {how}"
            tally.count([CheckResult(0, 0, RAISED, "fail", detail)])
        for part in local:
            tally.count(results(part))
    finally:
        # an interrupted sweep leaves no worker running, nor a zombie
        for _, pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return tally


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
    report._require_genus_limit(g_values[-1])
    points, axes = 1, (g_values, n_values)
    for v in axes:
        points *= len(v) if isinstance(v, list) else (v[-1] - v[0]) // v.step + 1
    if points > SWEEP_POINT_LIMIT:
        # ranges with ends of thousands of digits make a count too long to
        # print, and a list read in part gives a lower bound
        bound = report._genus_bound()
        partial = any(isinstance(v, list) and len(v) > SWEEP_POINT_LIMIT for v in axes)
        got = (
            f"10^{len(str(bound)) - 1} or more" if points >= bound
            else f"{points} or more" if partial else points
        )
        raise DomainError(f"requires at most {SWEEP_POINT_LIMIT} grid points (got {got})")
    # the grid now has at most SWEEP_POINT_LIMIT points
    gonality = sum(n for g in g_values for n in n_values if in_scroll_range(g, n))
    if gonality > SWEEP_GONALITY_LIMIT:
        raise DomainError(
            f"requires a sum of n over the points in range of at most "
            f"{SWEEP_GONALITY_LIMIT} (got {gonality})"
        )
    return _sweep(g_values, n_values).summary()


def render_sweep_text(summary: SweepSummary) -> str:
    lines = [
        f"checked {summary.checked}  passed {summary.passed}  "
        f"failed {summary.failed}  skipped {summary.skipped}"
    ]
    if summary.skip_reasons:
        lines.append("skip reasons:")
        lines += [f"  {count} x {reason}" for reason, count in sorted(summary.skip_reasons.items())]
    if summary.failures:
        lines += ["failures:", *(f"  {f}" for f in summary.failures)]
    lines.append("ok" if summary.ok else "FAILED")
    return "\n".join(lines) + "\n"
