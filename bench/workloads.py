"""Seeded inputs for the three workloads, and the checks on their outputs.

Each workload yields ops in blocks.  A block is the unit the closed loop
repeats, and its composition is fixed, so the op mix, and with it the
medians, does not drift between seeds.  Only the values inside a block
(genera, gonalities, coefficients) come from the seed.  A run is a whole
number of blocks, set by ``--seconds`` and the block's nominal length,
never by the machine's speed, so the rank of every order statistic is
the same in every run.

Outputs are checked by content, never by bytes: JSON may gain fields.
A check returns None for a correct output, else a one-line reason.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]  # arguments after `gonal`
    kind: str  # label used to pick trace samples and in the result file
    expect: dict  # what the check compares against


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    sweep_genus_max: int
    sweep_gonality_max: int
    sweep_min_checked: int
    sweep_ops: int  # the same verify op, repeated
    dossier_trigonal: tuple[tuple[int, int, int, str], ...]  # n = 3 ops: (count, g from, g to, format)
    dossier_genus: tuple[int, int]  # of the n >= 4 ops
    dossier_gonality_max: int
    dossier_ops: tuple[int, int]  # n >= 4 ops, text ops among them
    twist_small_genus: tuple[int, int]
    twist_big: tuple[tuple[int, int], ...]  # (genus, forms)
    twist_ops: tuple[int, int]  # small forms, planted forms
    fixed_report_genus: int
    fixed_discriminant_genus: tuple[int, int]
    fixed_prime: int


FULL = Scale(
    sweep_genus_max=120,
    sweep_gonality_max=10,
    sweep_min_checked=20648,
    sweep_ops=15,
    # 24 ops, 18 in JSON.  By op time: the 7 n >= 4 ops, then the band of
    # 10 JSON reports at g 12000..12999, then 7 larger reports.  The median
    # (ranks 12 and 13) and the tail (rank 14) fall inside the band.
    dossier_trigonal=(
        (10, 12000, 12999, "json"),
        (2, 15000, 19999, "json"),
        (4, 18000, 19999, "text"),
        (1, 20000, 20000, "json"),  # the largest report: peak_rss_mb
    ),
    dossier_genus=(10000, 20000),
    dossier_gonality_max=50,
    dossier_ops=(7, 2),
    twist_small_genus=(2, 8),
    # Three big genera, seven forms each: the tail (11th-largest op) is the
    # median genus-21 form, between clusters that op-time noise cannot mix.
    # 105 ops: one in five big, one in eight planted.  By op time the 5
    # genus-24 forms come first, then 11 of genus 21: the tail (the
    # 11th-largest op) is the median genus-21 form.
    twist_big=((18, 5), (21, 11), (24, 5)),
    twist_ops=(71, 13),
    fixed_report_genus=20000,
    fixed_discriminant_genus=(20, 40),
    fixed_prime=2**40 + 15,
)
TINY = Scale(
    sweep_genus_max=12,
    sweep_gonality_max=4,
    sweep_min_checked=374,
    sweep_ops=1,
    dossier_trigonal=((2, 120, 139, "json"), (1, 140, 159, "text"), (1, 160, 160, "json")),
    dossier_genus=(120, 160),
    dossier_gonality_max=50,
    dossier_ops=(2, 1),
    twist_small_genus=(2, 3),
    twist_big=((4, 1), (5, 1)),
    twist_ops=(8, 2),
    fixed_report_genus=120,
    fixed_discriminant_genus=(3, 4),
    fixed_prime=1000003,
)

COEFF = 9  # integer form coefficients lie in [-COEFF, COEFF]
_CHECK_PRIME = 2**31 - 1


# --------------------------------------------------------------------------
# sweep: the ROADMAP grid, one `gonal verify` per op


def sweep_block(rng: random.Random, scale: Scale) -> list[Op]:
    argv = (
        "verify",
        "--genus-min", "5", "--genus-max", str(scale.sweep_genus_max),
        "--gonality-min", "3", "--gonality-max", str(scale.sweep_gonality_max),
        "--format", "json",
    )
    return [Op(argv, "verify", {"min_checked": scale.sweep_min_checked})] * scale.sweep_ops


def check_sweep(op: Op, rc: int, out: str, err: str) -> tuple[str | None, int]:
    """(failure reason or None, checks evaluated)."""
    if rc != 0:
        return f"exit {rc}: {err.strip()[-200:]}", 0
    try:
        d = json.loads(out)
        evaluated = d["passed"] + d["failed"] + d["skipped"]
        if d["failed"] != 0:
            return f"{d['failed']} checks failed: {d['first_failure']}", evaluated
        if d["checked"] < op.expect["min_checked"]:
            return f"only {d['checked']} checks, expected >= {op.expect['min_checked']}", evaluated
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable verify output: {exc!r}", 0
    return None, evaluated


# --------------------------------------------------------------------------
# dossier: `gonal report` at large genus, default k_max = 2g

def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One value from each of ``count`` equal slices of [lo, hi]."""
    width = (hi - lo + 1) / count
    return [lo + int(i * width) + rng.randrange(max(1, int(width))) for i in range(count)]


def _evenly_spaced(n: int, count: int) -> list[int]:
    """``count`` indices spread evenly over range(n)."""
    return [(2 * i + 1) * n // (2 * count) for i in range(count)]


def dossier_block(rng: random.Random, scale: Scale) -> list[Op]:
    # An op's time is noisy by about a tenth.  With n = 3 genera spread over
    # the whole range, that noise reorders neighbouring ops and moves the
    # median; inside a band of like ops it averages out.
    specs = [
        (g, 3, fmt)
        for count, lo, hi, fmt in scale.dossier_trigonal
        for g in _stratified(rng, lo, hi, count)
    ]
    other, text_other = scale.dossier_ops
    text_at = set(_evenly_spaced(other, text_other))
    specs += [
        (g, rng.randint(4, scale.dossier_gonality_max), "text" if i in text_at else "json")
        for i, g in enumerate(_stratified(rng, *scale.dossier_genus, other))
    ]
    ops = []
    for g, n, fmt in specs:
        argv = ("report", "--genus", str(g), "--gonality", str(n), "--format", fmt)
        kind = f"{'n3' if n == 3 else 'n4plus'}-{fmt}"
        ops.append(Op(argv, kind, {"g": g, "n": n, "k_max": 2 * g, "format": fmt}))
    rng.shuffle(ops)
    return ops


def section_count(g: int, n: int, k: int) -> int:
    """h^0(k g^1_n) on the generic n-gonal curve, written out independently."""
    return k + 1 if k * (n - 1) < g else n * k - g + 1


def check_dossier(op: Op, rc: int, out: str, err: str) -> tuple[str | None, int]:
    """(failure reason or None, section-count rows emitted)."""
    if rc != 0:
        return f"exit {rc}: {err.strip()[-200:]}", 0
    from gonal import parse_json

    e = op.expect
    try:
        if e["format"] == "json":
            return check_report(e, parse_json(out))
        return _check_dossier_text(e, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {exc!r}", 0


def check_report(e: dict, rep) -> tuple[str | None, int]:
    """Check a parsed GonalReport against {"g", "n", "k_max"}."""
    g, n, k_max = e["g"], e["n"], e["k_max"]
    rows = len(rep.section_counts)
    if (rep.g, rep.n, rep.k_max) != (g, n, k_max):
        return f"input echoed as {(rep.g, rep.n, rep.k_max)}", rows
    if rows != k_max:
        return f"{rows} section rows, expected {k_max}", rows
    for k, (kk, h0) in enumerate(rep.section_counts, start=1):
        if (kk, h0) != (k, section_count(g, n, k)):
            return f"section row {(kk, h0)} at k={k}", rows
    flags = rep.consistency_flags
    if not (flags.euler_chain and flags.branch_continuity):
        return f"flags {flags}", rows
    if n == 3:
        if flags.dim_p_l is not True or flags.oracle_agreement is not True:
            return f"trigonal flags {flags}", rows
        if [r.k for r in rep.oracle_checks] != list(range(1, k_max + 1)):
            return "oracle rows do not cover k = 1..k_max", rows
        bad = next((r for r in rep.oracle_checks if not r.agree), None)
        if bad is not None:
            return f"oracle disagrees at k={bad.k}", rows
    elif rep.oracle_checks is not None or flags.dim_p_l is not None or flags.oracle_agreement is not None:
        return "oracle fields set for n >= 4", rows
    return None, rows


def _check_dossier_text(e: dict, out: str) -> tuple[str | None, int]:
    g, n, k_max = e["g"], e["n"], e["k_max"]
    lines = out.splitlines()
    if f"g={g}, n={n} (sections up to k={k_max})" not in lines[0]:
        return f"header {lines[0]!r}", 0
    top = lines.index("section counts h^0(k g^1_n):") + 2  # skip the column header
    body = lines[top : top + k_max]
    rows = sum(1 for line in body if line.startswith("  ") and line.split()[0].isdigit())
    if rows != k_max:
        return f"{rows} section rows, expected {k_max}", rows
    for k, line in enumerate(body, start=1):
        cells = line.split()
        h0 = section_count(g, n, k)
        want = [str(k), str(h0)] + ([str(h0), "yes"] if n == 3 else [])
        if cells != want:
            return f"section row {line!r} at k={k}", rows
    consistency = next(line for line in lines if line.startswith("consistency: "))
    verdicts = dict(
        part.rsplit(" ", 1) for part in consistency.removeprefix("consistency: ").split(", ")
    )
    expected = "ok" if n == 3 else "n/a"
    want = {"euler-chain": "ok", "branch-continuity": "ok", "dim-P(L)": expected, "oracle": expected}
    if verdicts != want:
        return f"consistency {verdicts}", rows
    return None, rows


# --------------------------------------------------------------------------
# twist: `gonal twist` on integer forms, some with a planted double root

def _gf_rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        q = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - q * c) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def squarefree_mod_prime(cs: list[int], p: int = _CHECK_PRIME) -> bool:
    """gcd(f, f') = 1 over GF(p) with deg f kept: proves disc(f) != 0 over Q."""
    f = [c % p for c in cs]
    if f[-1] == 0:
        return False
    a, b = f, [i * c % p for i, c in enumerate(f)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _gf_rem(a, b, p)
    return len(a) == 1


def _poly_mul(u: list[int], v: list[int]) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _nonzero(rng: random.Random) -> int:
    return rng.choice([c for c in range(-COEFF, COEFF + 1) if c])


def random_squarefree_form(rng: random.Random, genus: int) -> list[int]:
    """Integer coefficients c_0..c_{2g+2}, top one nonzero, with disc != 0."""
    while True:
        cs = [rng.randint(-COEFF, COEFF) for _ in range(2 * genus + 2)] + [_nonzero(rng)]
        if squarefree_mod_prime(cs):
            return cs


def planted_form(rng: random.Random, genus: int) -> list[int]:
    """(x - r)^2 h(x) with deg h = 2g: a double root, so disc = 0."""
    r = rng.randint(-3, 3)
    h = [rng.randint(-COEFF, COEFF) for _ in range(2 * genus)] + [_nonzero(rng)]
    return _poly_mul([r * r, -2 * r, 1], h)


def _evaluate(cs: list[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _twist_op(rng: random.Random, cs: list[int], kind: str, planted: bool) -> Op:
    a = Fraction(_nonzero(rng), rng.randint(1, 3))
    while True:
        x0 = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        value = _evaluate(cs, x0)
        if value != 0:
            break
    argv = (
        "twist",
        "--coeffs=" + ",".join(map(str, cs)),  # `--coeffs -5,...` would read as an option
        f"--a={a}",
        f"--x0={x0}",
        "--format", "json",
    )
    expect = {"genus": (len(cs) - 2) // 2, "a": str(a), "x0": str(x0), "value": str(value), "planted": planted}
    return Op(argv, kind, expect)


def twist_block(rng: random.Random, scale: Scale) -> list[Op]:
    lo, hi = scale.twist_small_genus
    small, planted = scale.twist_ops
    ops = [
        _twist_op(rng, random_squarefree_form(rng, rng.randint(lo, hi)), "small", False)
        for _ in range(small)
    ]
    ops += [
        _twist_op(rng, planted_form(rng, rng.randint(lo, hi)), "planted", True)
        for _ in range(planted)
    ]
    ops += [
        _twist_op(rng, random_squarefree_form(rng, genus), "big", False)
        for genus, count in scale.twist_big
        for _ in range(count)
    ]
    rng.shuffle(ops)
    return ops


def check_twist(op: Op, rc: int, out: str, err: str) -> tuple[str | None, int]:
    """(failure reason or None, forms decided: 1 for a correct verdict)."""
    e = op.expect
    if e["planted"]:
        lines = err.splitlines()
        if rc != 2 or out or len(lines) != 1 or not lines[0].startswith("error: "):
            return f"planted form not refused cleanly: exit {rc}, stderr {err[-200:]!r}", 0
        return None, 1
    if rc != 0:
        return f"exit {rc}: {err.strip()[-200:]}", 0
    try:
        d = json.loads(out)
    except ValueError as exc:
        return f"unreadable twist output: {exc!r}", 0
    want = {
        "genus": e["genus"],
        "original_a": e["a"],
        "twisted_a": e["value"],
        "point": [e["x0"], "1"],
        "form_unchanged": True,
        "residual_at_point": "0",
    }
    got = {k: d.get(k) for k in want}
    if got != want:
        return f"twist output {got} != {want}", 0
    return None, 1


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[random.Random, Scale], list[Op]]
    check: Callable[[Op, int, str, str], tuple[str | None, int]]  # -> (failure, items)
    items: str  # what ``check`` counts, for the items_per_s alias
    trace_sample: dict[str, int]  # ops of each kind traced in process, first ones of a block
    block_s: float  # nominal seconds of one block, gauges and set-up samples included


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", sweep_block, check_sweep, "checks_per_s", {"verify": 1}, 30.0),
        Workload(
            "dossier", dossier_block, check_dossier, "section_rows_per_s",
            {"n3-json": 1, "n4plus-json": 1, "n4plus-text": 1}, 30.0,
        ),
        Workload("twist", twist_block, check_twist, "forms_per_s", {"small": 8, "planted": 2, "big": 7}, 25.0),
    )
}
