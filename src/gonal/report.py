"""Invariant dossiers for (g, n) and the grid verification sweep.

``generate_report`` aggregates every module's output for one (g, n)
into a deterministic record with text and JSON renderings.  The JSON is
derived from the dataclass fields: snake_case field names, enums as
their values, and integers beyond the 53-bit safe range as decimal
strings, so output survives consumers that parse JSON numbers as
doubles; ``parse_json`` undoes this, and parse(emit(r)) == r.

``sweep_verify`` re-runs every cross-module identity over a grid of
(g, n) and reports counts instead of aborting: a verification harness
must surface all findings.  Aggregation order is canonical (globals
first, then grid points sorted by (g, n)).
"""

import json
import random
import types
from bisect import bisect_right
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache
from math import factorial, gcd
from itertools import repeat
from operator import eq
from typing import Callable, Iterable, NamedTuple, Union, get_args, get_origin, get_type_hints

from . import hirzebruch, hyperelliptic, invariants, picard
from .chow import AmbientScroll, ChowClass, DivisorClass, intersect_number
from .errors import ConsistencyError, DomainError, in_gonal_range, require_at_least
from .picard import DivisibilityVerdict, VerdictStatus
from .scroll import (
    aut_group_numerics,
    canonical_class,
    curve_class,
    generic_scroll,
    validate_scroll,
)


@dataclass(frozen=True)
class ScrollSummary:
    dimension: int
    degree: int
    ambient_dim: int
    splitting: tuple[int, ...]
    big_n: int
    shift: int
    generic_type: int
    surface: str | None  # "F0"/"F1" for n = 3, None otherwise
    aut_total_dim: int
    aut_vertical_dim: int
    aut_components: int


@dataclass(frozen=True)
class InvariantSummary:
    chi_restricted_tangent: int
    chi_restricted_tangent_chow: int
    chi_normal_bundle: int
    hilbert_scheme_dimension: int
    h1_double_pencil: int
    moduli_dimension: int


class OracleRow(NamedTuple):
    k: int
    formula_value: int
    oracle_value: int
    agree: bool


@dataclass(frozen=True)
class ConsistencyFlags:
    """None means not applicable for this (g, n), never silently omitted."""

    euler_chain: bool
    branch_continuity: bool
    dim_p_l: bool | None
    oracle_agreement: bool | None


# JSON groups fields of the flat record under these keys, in field order.
_INPUT = {"json_group": "input"}
_CLASSES = {"json_group": "classes"}


@dataclass(frozen=True)
class GonalReport:
    g: int = field(metadata=_INPUT)
    n: int = field(metadata=_INPUT)
    k_max: int = field(metadata=_INPUT)
    scroll: ScrollSummary
    canonical_class: tuple[int, int] = field(metadata=_CLASSES)
    curve_class: tuple[tuple[int, int, int], ...] = field(metadata=_CLASSES)
    invariants: InvariantSummary
    section_counts: tuple[tuple[int, int], ...]
    oracle_checks: tuple[OracleRow, ...] | None
    divisibility: DivisibilityVerdict
    consistency_flags: ConsistencyFlags

    def to_dict(self) -> dict:
        return _encode_ints(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GonalReport":
        return _decoder(cls)(d)


def _decisive_ks(*switches: Iterable[int]) -> list[int]:
    """The k >= 0 among 0, 1 and t-1, t, t+1 for each switch t, a k where a
    section count changes formula.  Both sides of a k-identity are affine
    between consecutive points and from the next-to-last point on, so
    agreement at the points decides every k >= 0.  So do the predicates
    of ballico-riemann-roch-bound: h^0 - chi is positive below its switch
    and zero from it on, on a gap iff at both ends.  The h^1 of
    riemann-roch-on-curve is that h^0 - chi.
    """
    near = {k for ts in switches for t in ts for k in (t - 1, t, t + 1)}
    return sorted(k for k in near | {0, 1} if k >= 0)


def _piecewise_affine(points: list[tuple[int, int]]) -> Callable[[int], int]:
    """The function through the (k, value) points, sorted by k, that is
    affine between consecutive points and continues its last piece.

    Each slope is an exact integer: a remainder means integer values
    that no affine piece joins, and raises ConsistencyError.
    """
    pieces = []
    for (p, vp), (q, vq) in zip(points, points[1:]):
        slope, rem = divmod(vq - vp, q - p)
        if rem:
            raise ConsistencyError(
                f"no integer slope from ({p}, {vp}) to ({q}, {vq})"
            )
        pieces.append((p, vp, slope))
    starts = [p for p, _, _ in pieces]

    def value(k: int) -> int:
        p, vp, slope = pieces[max(0, bisect_right(starts, k) - 1)]
        return vp + slope * (k - p)

    return value


def _affine_column(h0: Callable[[int], int], switches: list[int], k_max: int) -> list[int]:
    """h0(k) for k = 1 .. k_max, read from h0 at the decisive ks of its
    switch list and joined by the exact slopes of _piecewise_affine.

    h0 is evaluated only at the points up to k_max and the one after,
    and not at all when k_max is 0.  Each piece is one range.
    """
    if k_max == 0:
        return []
    ks = _decisive_ks(switches)
    ks = ks[: bisect_right(ks, k_max) + 1]
    line = _piecewise_affine([(k, h0(k)) for k in ks])
    column: list[int] = []
    # pieces start at k = 1 and at each later point but the last
    edges = [1, *ks[2:-1], k_max + 1]
    for p, q in zip(edges, edges[1:]):
        v, slope = line(p), line(p + 1) - line(p)
        column += range(v, v + slope * (q - p), slope) if slope else repeat(v, q - p)
    return column


def generate_report(g: int, n: int, k_max: int) -> GonalReport:
    """The full invariant dossier for one (g, n).

    Section and oracle tables cover k = 1 .. k_max (k = 0 is the
    structure sheaf and always contributes 1).  Deterministic: identical
    inputs give identical reports.
    """
    require_at_least("k_max", k_max, 0)
    spec = generic_scroll(g, n)
    aut = aut_group_numerics(spec)
    kx = canonical_class(spec)
    curve = curve_class(spec)

    chi_t = invariants.chi_restricted_tangent(g, n)
    # chi(T_X|C) through the intersection ring: -K.C + (n-1)(1-g)
    chi_t_chow = intersect_number([-kx], curve) + (n - 1) * (1 - g)
    chi_n = invariants.chi_normal_bundle(g, n)
    inv = InvariantSummary(
        chi_restricted_tangent=chi_t,
        chi_restricted_tangent_chow=chi_t_chow,
        chi_normal_bundle=chi_n,
        hilbert_scheme_dimension=chi_n,
        h1_double_pencil=invariants.h1_double_pencil(g, n),
        moduli_dimension=invariants.moduli_dimension(g, n),
    )

    ks = range(1, k_max + 1)
    ballico_switches = invariants.ballico_switches(g, n)
    formula = _affine_column(
        lambda k: invariants.ballico_h0(g, n, k), ballico_switches, k_max
    )
    sections = tuple(zip(ks, formula, strict=True))

    if n == 3:
        oracle_switches = hirzebruch.trigonal_h0_switches(g)
        # the oracle at its own switch points, affine between them
        oracle = _affine_column(
            lambda k: hirzebruch.trigonal_h0_oracle(g, k), oracle_switches, k_max
        )
        agree = list(map(eq, formula, oracle))
        oracle_checks: tuple[OracleRow, ...] | None = tuple(
            map(OracleRow, ks, formula, oracle, agree)
        )
        # the printed rows, and every k >= 0 whatever k_max is
        decisive = _decisive_ks(oracle_switches, ballico_switches)
        oracle_agreement: bool | None = all(agree) and all(
            hirzebruch.trigonal_h0_oracle(g, k) == invariants.ballico_h0(g, 3, k)
            for k in decisive
        )
        curve_fe = hirzebruch.trigonal_curve_bundle(g)
        dim_p_l: bool | None = hirzebruch.bundle_cohomology(curve_fe).h0 - 1 == chi_n
        surface = f"F{curve_fe.e}"
    else:
        oracle_checks = None
        oracle_agreement = None
        dim_p_l = None
        surface = None

    # h^0(O_C(kR)) = k + 1 + sum of max(0, k - 1 - e_i) on the scroll
    # S(e_1, ..., e_{n-1}), e_i = shift + r_i, bends only at 1 + e_i; with
    # the maroni_h0 boundaries the decisive points decide every k >= 0
    shift = spec.shift
    scroll_type = [shift + r for r in spec.splitting]
    branch_continuity = all(
        invariants.maroni_h0(g, n, k)
        == k + 1 + sum(max(0, k - 1 - e) for e in scroll_type)
        for k in _decisive_ks(
            invariants.maroni_branch_boundaries(g, n), [1 + e for e in scroll_type]
        )
    )
    flags = ConsistencyFlags(
        euler_chain=chi_t == chi_t_chow and chi_n == chi_t + 3 * g - 3,
        branch_continuity=branch_continuity,
        dim_p_l=dim_p_l,
        oracle_agreement=oracle_agreement,
    )

    curve_coeffs = tuple(
        (a, b, c) for (a, b), c in sorted(curve.coefficients.items(), reverse=True)
    )
    return GonalReport(
        g=g,
        n=n,
        k_max=k_max,
        scroll=ScrollSummary(
            dimension=n - 1,
            degree=spec.ambient.degree,
            ambient_dim=g - 1,
            splitting=spec.splitting,
            big_n=spec.big_n,
            shift=spec.shift,
            generic_type=spec.generic_type,
            surface=surface,
            aut_total_dim=aut.total_dim,
            aut_vertical_dim=aut.vertical_dim,
            aut_components=aut.components,
        ),
        canonical_class=(kx.d, kx.f),
        curve_class=curve_coeffs,
        invariants=inv,
        section_counts=sections,
        oracle_checks=oracle_checks,
        divisibility=picard.modular_degree_constraint(g, n),
        consistency_flags=flags,
    )


_SAFE_INT_MAX = (1 << 53) - 1


@cache
def _is_record(tp: type) -> bool:
    """A dataclass or a NamedTuple: a type whose fields _json_fields lists."""
    return is_dataclass(tp) or issubclass(tp, tuple) and hasattr(tp, "_fields")


@cache
def _json_fields(cls: type) -> tuple[tuple[str, str | None], ...]:
    """(field name, JSON group or None) for each field of a record type."""
    if is_dataclass(cls):
        return tuple((f.name, f.metadata.get("json_group")) for f in fields(cls))
    return tuple((name, None) for name in cls._fields)


def _grouped(obj) -> dict:
    """The fields of a record by name, in field order, with grouped
    fields nested under their group's key."""
    out: dict = {}
    for name, group in _json_fields(type(obj)):
        value = getattr(obj, name)
        if group is None:
            out[name] = value
        else:
            out.setdefault(group, {})[name] = value
    return out


def _encode_ints(obj):
    """The JSON value of obj, in one walk.

    A record becomes the dict _grouped builds, an enum its value, any
    other tuple a list, and an integer beyond the 53-bit safe range a
    decimal string.
    """
    if type(obj) is int:
        return obj if -_SAFE_INT_MAX <= obj <= _SAFE_INT_MAX else str(obj)
    if _is_record(type(obj)):
        return _encode_ints(_grouped(obj))
    if isinstance(obj, (list, tuple)):
        return [_encode_ints(x) for x in obj]
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: _encode_ints(v) for k, v in obj.items()}
    return obj


@cache
def _decoder(tp):
    """A function rebuilding a value of type tp from its JSON value.

    Integers may arrive as decimal strings; tuples are homogeneous.
    """
    origin = get_origin(tp)
    if origin in (Union, types.UnionType):
        (inner,) = [a for a in get_args(tp) if a is not type(None)]
        decode_inner = _decoder(inner)
        return lambda v: None if v is None else decode_inner(v)
    if origin is tuple:
        (item,) = set(get_args(tp)) - {Ellipsis}
        decode_item = _decoder(item)
        return lambda v: tuple(map(decode_item, v))
    if _is_record(tp):
        hints = get_type_hints(tp)
        plan = tuple(
            (name, group, _decoder(hints[name])) for name, group in _json_fields(tp)
        )
        return lambda d: tp(
            *[
                decode(d[name] if group is None else d[group][name])
                for name, group, decode in plan
            ]
        )
    if tp in (int, bool, str) or issubclass(tp, Enum):
        return tp  # each converts its own JSON value; int also parses strings
    raise TypeError(f"no JSON decoder for {tp!r}")


# The k-indexed tables run to k_max rows, so emit_json writes them column
# by column instead of through json.dumps: each column is rendered whole,
# then each row fills one %-template.  The layout is json.dumps at
# indent 2: a top-level value at depth 1, a table row at depth 2.


@cache
def _json_tables(cls: type) -> dict[str, type]:
    """The row type of each ungrouped field typed tuple[Row, ...], or that | None."""
    hints = get_type_hints(cls)
    tables = {}
    for name, group in _json_fields(cls):
        tp = hints[name]
        if get_origin(tp) in (Union, types.UnionType):
            (tp,) = [a for a in get_args(tp) if a is not type(None)]
        if group is None and get_origin(tp) is tuple and get_args(tp)[-1] is Ellipsis:
            (tables[name],) = set(get_args(tp)) - {Ellipsis}
    return tables


def _json_column(tp: type, column: tuple) -> Iterable:
    """The json.dumps texts of a column of table cells of type tp, after
    _encode_ints, as %s writes them.

    One range check covers an int column: %s writes a safe int as
    json.dumps does.  A column with an unsafe cell is rendered cell by cell.
    """
    if tp is bool:
        return map(("false", "true").__getitem__, column)
    if tp is int:
        if -_SAFE_INT_MAX <= min(column) and max(column) <= _SAFE_INT_MAX:
            return column
        return [str(v) if -_SAFE_INT_MAX <= v <= _SAFE_INT_MAX else f'"{v}"' for v in column]
    raise TypeError(f"no JSON table column for {tp!r}")


@cache
def _row_template(tp: type) -> tuple[str, tuple[type, ...]]:
    """The %-template of a table row of type tp at depth 2, and the type
    of each slot.

    A record row is an object keyed by its _json_fields; a tuple row is
    an array.
    """
    if _is_record(tp):
        hints = get_type_hints(tp)
        names = [name for name, _ in _json_fields(tp)]
        slots = [json.dumps(name) + ": %s" for name in names]
        cell_types = tuple(hints[name] for name in names)
        opening, closing = "{", "}"
    else:
        cell_types = get_args(tp)
        slots = ["%s"] * len(cell_types)
        opening, closing = "[", "]"
    template = opening + "\n      " + ",\n      ".join(slots) + "\n    " + closing
    return template, cell_types


def emit_json(report: GonalReport) -> str:
    """json.dumps(report.to_dict(), indent=2) plus a newline, byte for byte."""
    tables = _json_tables(GonalReport)
    entries = []
    for key, value in _grouped(report).items():
        if key in tables and value:
            template, cell_types = _row_template(tables[key])
            columns = map(_json_column, cell_types, zip(*value))
            rows = map(template.__mod__, zip(*columns))
            text = "[\n    " + ",\n    ".join(rows) + "\n  ]"
        else:
            text = json.dumps(_encode_ints(value), indent=2).replace("\n", "\n  ")
        entries.append(f"{json.dumps(key)}: {text}")
    return "{\n  " + ",\n  ".join(entries) + "\n}\n"


def parse_json(text: str) -> GonalReport:
    return GonalReport.from_dict(json.loads(text))


def _flag_str(value: bool | None) -> str:
    if value is None:
        return "n/a"
    return "ok" if value else "FAIL"


def render_text(report: GonalReport) -> str:
    s = report.scroll
    inv = report.invariants
    amb = AmbientScroll(report.g, report.n)
    kx = DivisorClass(amb, *report.canonical_class)
    curve = ChowClass(amb, {(a, b): c for a, b, c in report.curve_class})
    lines = [
        f"n-gonal curve dossier: g={report.g}, n={report.n} (sections up to k={report.k_max})",
        "",
        f"scroll: dimension {s.dimension}, degree {s.degree} in P^{s.ambient_dim}",
        f"  splitting {s.splitting}  N={s.big_n}  shift={s.shift}  generic type r={s.generic_type}"
        + (f"  surface {s.surface}" if s.surface else ""),
        f"  Aut(X): dimension {s.aut_total_dim} (vertical {s.aut_vertical_dim}), "
        f"components {s.aut_components}",
        "classes:",
        f"  canonical K_X = {kx}",
        f"  curve     C   = {curve!r}",
        "invariants:",
        f"  chi(T_X|C)              {inv.chi_restricted_tangent} "
        f"(intersection route {inv.chi_restricted_tangent_chow})",
        f"  chi(normal bundle)      {inv.chi_normal_bundle}",
        f"  Hilbert scheme dim      {inv.hilbert_scheme_dimension}",
        f"  h^1(2 g^1_n)            {inv.h1_double_pencil}",
        f"  dim of the gonal locus  {inv.moduli_dimension}",
    ]
    if report.section_counts:
        lines.append("section counts h^0(k g^1_n):")
        if report.oracle_checks is not None:
            lines.append("  k   h0   oracle  agree")
            ks, h0s = zip(*report.section_counts)
            _, _, oracle, agree = zip(*report.oracle_checks)
            # both tables run over the same ks in the same order
            rows = zip(ks, h0s, oracle, map(("NO", "yes").__getitem__, agree), strict=True)
            lines += map("  %-3d %-4d %-7d %s".__mod__, rows)
        else:
            lines.append("  k   h0   (surface oracle not applicable for n > 3)")
            lines += map("  %-3d %d".__mod__, report.section_counts)
    div = report.divisibility
    lines += [
        f"modular degree: multiple of {div.divisor} "
        f"[{div.status.value}{', sharp' if div.sharp else ''}]",
        "consistency: "
        + ", ".join(
            f"{name} {_flag_str(value)}"
            for name, value in (
                ("euler-chain", report.consistency_flags.euler_chain),
                ("branch-continuity", report.consistency_flags.branch_continuity),
                ("dim-P(L)", report.consistency_flags.dim_p_l),
                ("oracle", report.consistency_flags.oracle_agreement),
            )
        ),
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification sweep
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
    g: int
    n: int
    name: str
    outcome: str  # "pass" | "fail" | "skip"
    detail: str


@dataclass
class SweepSummary:
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
        return _encode_ints(self)


def _stepwise_reduce(
    ambient: AmbientScroll, a: int, b: int, c: int, order: str
) -> dict:
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
    kf = hirzebruch.FeBundle(curve.e, 0, k)
    return hirzebruch.bundle_cohomology(kf - curve).h2 - hirzebruch.bundle_cohomology(kf).h2


def _point_checks(g: int, n: int) -> list[CheckResult]:
    """All per-(g, n) properties; one CheckResult per named property.

    The values the dossier holds are read from generate_report(g, n, 0);
    the flag-backed checks record its consistency flags, whose predicates
    live there.  The independent routes (Chow-ring algebra and pairings,
    maroni-ballico, the degree lattice, rather-free and Riemann-Roch on
    the curve) are computed here.
    """
    out: list[CheckResult] = []

    def rec(name: str, ok: bool, detail: str = "") -> None:
        out.append(CheckResult(g, n, name, "pass" if ok else "fail", detail))

    if n < 3 or not in_gonal_range(g, n):
        return [
            CheckResult(g, n, "hypothesis", "skip", "requires n >= 3 and 2n-2 < g")
        ]
    rep = generate_report(g, n, 0)
    s, inv, flags = rep.scroll, rep.invariants, rep.consistency_flags
    amb = AmbientScroll(g, n)
    hyper = amb.hyperplane()
    fiber = amb.fiber()
    curve = ChowClass(amb, {(a, b): c for a, b, c in rep.curve_class})

    # intersection ring normalization
    rec(
        "chow/point-degree",
        amb.point_class().degree() == 1
        and (amb.monomial(n - 2, 0) * fiber).degree() == 1,
    )
    top = amb.monomial(n - 2, 0) * hyper
    rec(
        "chow/top-power",
        top.degree() == g - n + 1,
        f"deg(D^(n-1)) = {top.degree()}",
    )
    rng = random.Random(7919 * g + n)
    ff = fiber.to_chow() * fiber
    rec(
        "chow/fiber-squared",
        all((ff * x).is_zero() for x in (amb.unit(), curve, _rand_class(rng, amb))),
    )
    x, y, z = (_rand_class(rng, amb) for _ in range(3))
    rec("chow/commutative", x * y == y * x)
    rec("chow/associative", (x * y) * z == x * (y * z))
    rec("chow/distributive", x * (y + z) == x * y + x * z)
    confluent = True
    for a in range(0, n + 2):
        for b in range(0, 3):
            closed = amb.monomial(a, b).coefficients
            if (
                _stepwise_reduce(amb, a, b, 1, "f_first") != closed
                or _stepwise_reduce(amb, a, b, 1, "d_first") != closed
            ):
                confluent = False
    rec("chow/confluent-reduction", confluent)

    # scroll classification
    rec("scroll/generic-valid", validate_scroll(s.splitting, g, n))
    rec(
        "scroll/shift-nonnegative",
        s.shift >= 0 and (n - 1) * s.shift + s.big_n == top.degree(),
        f"shift = {s.shift}",
    )
    fc = intersect_number([fiber], curve)
    dc = intersect_number([hyper], curve)
    rec("scroll/fiber-pairing", fc == n, f"f.C = {fc}")
    rec("scroll/hyperplane-pairing", dc == 2 * g - 2, f"D.C = {dc}")
    chi_t_chow = inv.chi_restricted_tangent_chow
    rec(
        "scroll/euler-pairing",
        chi_t_chow == n * n + 1 - g,
        f"-K.C = {chi_t_chow - (n - 1) * (1 - g)}",
    )
    rec(
        "scroll/aut-numerics",
        s.aut_total_dim == n * n - 2 * n + 3
        and s.aut_total_dim == s.aut_vertical_dim + 3
        and s.aut_components == (2 if (n == 3 and g % 2 == 0) else 1),
    )

    # curve invariants
    rec(
        "invariants/euler-chain",
        flags.euler_chain,
        f"chi(T|C) = {inv.chi_restricted_tangent}, chi(N) = {inv.chi_normal_bundle}",
    )
    # Riemann-Roch: h^1 = h^0 - chi
    rec(
        "invariants/h1-double-pencil",
        inv.h1_double_pencil == invariants.ballico_h0(g, n, 2) - (2 * n + 1 - g),
    )
    # Riemann-Hurwitz: a simply branched n-sheeted cover of P^1 has
    # (2g-2) + 2n branch points, moved by PGL(2) of dimension 3
    rec(
        "invariants/moduli-dimension",
        inv.moduli_dimension == (2 * g - 2) + 2 * n - 3,
        "on this grid 2n-2 < g, so the gonal branch is the minimum",
    )
    ballico_switches = invariants.ballico_switches(g, n)
    rec(
        "invariants/maroni-ballico",
        all(
            invariants.maroni_h0(g, n, k) == invariants.ballico_h0(g, n, k)
            for k in _decisive_ks(invariants.maroni_branch_boundaries(g, n), ballico_switches)
        ),
    )
    rec("invariants/branch-continuity", flags.branch_continuity)
    rec(
        "invariants/ballico-riemann-roch-bound",
        all(
            h0 == chi if k * (n - 1) >= g else h0 > chi
            for k in _decisive_ks(ballico_switches)
            for h0, chi in [(invariants.ballico_h0(g, n, k), n * k + 1 - g)]
        ),
    )

    # degree lattice
    d = picard.degree_subgroup(g, n)
    rec("picard/divides-generators", d == gcd(dc, fc))
    witness = picard.solve_degree(g, n, d)
    omega_witness = picard.solve_degree(g, n, 2 * g - 2)
    rec(
        "picard/solve-reevaluates",
        witness is not None
        and witness[0] * (2 * g - 2) + witness[1] * n == d
        and omega_witness is not None
        and omega_witness[0] * (2 * g - 2) + omega_witness[1] * n == 2 * g - 2
        and (d == 1 or picard.solve_degree(g, n, d + 1) is None),
    )
    verdict = rep.divisibility
    expected_status = (
        VerdictStatus.PROVEN_FOR_TRIGONAL if n == 3 else VerdictStatus.CONJECTURE
    )
    rec(
        "picard/constraint",
        verdict.divisor == d and verdict.status == expected_status and verdict.sharp,
    )
    # the witness for d, evaluated on the Chow-ring pairings
    rec(
        "picard/sharpness-witness",
        verdict.sharp
        and witness is not None
        and witness[0] * dc + witness[1] * fc == d,
    )

    if n == 3:
        rec(
            "picard/trigonal-mod-3",
            verdict.divisor == (3 if g % 3 == 1 else 1),
        )
        rec("oracle/ballico-agreement", flags.oracle_agreement)
        rec("oracle/dim-P(L)", flags.dim_p_l)
        pairing, free = hirzebruch.rather_free_check(g)
        rec("oracle/rather-free", pairing == -g - 8 and free, f"(K_S.L) = {pairing}")
        curve_fe = hirzebruch.trigonal_curve_bundle(g)
        rr_ok = all(
            0 <= _curve_h1(curve_fe, k) == hirzebruch.trigonal_h0_oracle(g, k) - (3 * k + 1 - g)
            for k in _decisive_ks(hirzebruch.trigonal_h0_switches(g))
        )
        rec("oracle/riemann-roch-on-curve", rr_ok)

    return out


def _gf_polymul(u: list[int], v: list[int], p: int) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def _global_checks(g_values: list[int], n_values: list[int]) -> list[CheckResult]:
    """Properties that are not tied to a single grid point."""
    out: list[CheckResult] = []

    def rec(name: str, ok: bool, detail: str = "") -> None:
        out.append(CheckResult(0, 0, name, "pass" if ok else "fail", detail))

    # surface oracle self-consistency: h^1 >= 0 by construction (raises on
    # violation) and Serre duality flips the cohomology triple
    serre_ok = True
    try:
        for e in (0, 1):
            k = hirzebruch.canonical_bundle(e)
            for a in range(-6, 13):
                for b in range(-40, 41):
                    bundle = hirzebruch.FeBundle(e, a, b)
                    h = hirzebruch.bundle_cohomology(bundle)
                    dual = hirzebruch.bundle_cohomology(k - bundle)
                    if (h.h0, h.h1, h.h2) != (dual.h2, dual.h1, dual.h0):
                        serre_ok = False
    except Exception as exc:  # ConsistencyError would mean negative h^1
        rec("global/fe-cohomology", False, repr(exc))
    else:
        rec("global/fe-cohomology", serre_ok)
    ok_sheaf = all(
        hirzebruch.bundle_cohomology(hirzebruch.FeBundle(e, 0, 0)) == (1, 0, 0)
        for e in range(0, 4)
    )
    rec("global/fe-structure-sheaf", ok_sheaf)

    # discriminant: Euclid route vs Sylvester-resultant route
    p = 10007
    rng = random.Random(20240)
    agree = True
    verdicts_ok = True
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
        if by_gcd != by_res:
            agree = False
        if kind in (1, 2) and by_gcd:
            verdicts_ok = False
    rec("global/discriminant-dual-route", agree and verdicts_ok)

    # the twist never changes the form and always lands on the curve
    twist_ok = True
    for genus in (2, 3):
        d = 2 * genus + 2
        cs = [1] + [0] * (d - 1) + [1]  # x^d + 1: squarefree in char 0
        form = hyperelliptic.BinaryForm(d, tuple(cs))
        model = hyperelliptic.HyperellipticModel(2, form)
        for x0 in (0, 1, -2, 5):
            twisted, point = hyperelliptic.twist_with_point(model, x0)
            if twisted.form != model.form or twisted.residual(*point) != 0:
                twist_ok = False
    rec("global/twist-invariance", twist_ok)

    # all() over no case would pass vacuously, so a check with none is a skip
    hyper_genera = [g for g in g_values if g >= 2]
    pencil_gonalities = [n for n in n_values if n >= 2]
    case_checks = {
        "global/hyperelliptic-dimension": (hyper_genera, "genus", all(
            hyperelliptic.hg_dimension(g) == invariants.moduli_dimension(g, 2)
            for g in hyper_genera
        )),
        "global/hyperelliptic-constraint": (hyper_genera, "genus", all(
            picard.modular_degree_constraint(g, 2)
            == DivisibilityVerdict(picard.degree_subgroup(g, 2), VerdictStatus.THEOREM, True)
            for g in hyper_genera
        )),
        # pencil count at the boundary genus, by two routes
        "global/pencil-count": (pencil_gonalities, "gonality", all(
            invariants.gonal_pencil_count(n)
            == factorial(2 * n - 2) // (factorial(n) * factorial(n - 1))
            for n in pencil_gonalities
        ) and invariants.gonal_pencil_count(3) == 2 and invariants.gonal_pencil_count(4) == 5),
    }
    for name, (cases, what, ok) in case_checks.items():
        if cases:
            rec(name, ok)
        else:
            out.append(CheckResult(0, 0, name, "skip", f"no {what} >= 2 in the grid"))
    # Brill-Noether: the general curve of genus g has gonality (g+3)//2,
    # so the n-gonal locus is all of moduli exactly from there on
    rec(
        "global/moduli-boundary",
        all(
            (invariants.moduli_dimension(g, n) == 3 * g - 3) == (n >= (g + 3) // 2)
            for n in range(2, 13)
            for g in range(2, 2 * n + 3)
        ),
    )

    # report determinism and JSON round-trip at representative points
    for rg, rn, rk in ((5, 3, 6), (8, 4, 4)):
        rep = generate_report(rg, rn, rk)
        again = generate_report(rg, rn, rk)
        text = emit_json(rep)
        rec(
            f"global/report-deterministic-{rg}-{rn}",
            rep == again and text == emit_json(again),
        )
        rec(f"global/report-roundtrip-{rg}-{rn}", parse_json(text) == rep)

    return out


def sweep_verify(g_range: Iterable[int], n_range: Iterable[int]) -> SweepSummary:
    """Run every module property over the (g, n) grid and summarize.

    Grid points whose hypotheses fail are counted as skips with a
    reason; failures are collected, never raised.  Identities in k are
    decided for every k >= 0.
    """
    g_values = sorted(set(g_range))
    n_values = sorted(set(n_range))
    if not g_values or not n_values:
        raise DomainError("sweep ranges must be non-empty")

    results = _global_checks(g_values, n_values)
    for g in g_values:
        for n in n_values:
            results.extend(_point_checks(g, n))

    passed = sum(1 for r in results if r.outcome == "pass")
    failed = [r for r in results if r.outcome == "fail"]
    skipped = [r for r in results if r.outcome == "skip"]
    skip_reasons: dict[str, int] = {}
    for r in skipped:
        skip_reasons[r.detail] = skip_reasons.get(r.detail, 0) + 1

    def describe(r: CheckResult) -> str:
        where = f"g={r.g} n={r.n} " if (r.g, r.n) != (0, 0) else ""
        suffix = f": {r.detail}" if r.detail else ""
        return f"{where}{r.name}{suffix}"

    return SweepSummary(
        checked=passed + len(failed),
        passed=passed,
        failed=len(failed),
        skipped=len(skipped),
        first_failure=describe(failed[0]) if failed else None,
        failures=[describe(r) for r in failed[:20]],
        skip_reasons=skip_reasons,
    )


def render_sweep_text(summary: SweepSummary) -> str:
    lines = [
        f"checked {summary.checked}  passed {summary.passed}  "
        f"failed {summary.failed}  skipped {summary.skipped}"
    ]
    if summary.skip_reasons:
        lines.append("skip reasons:")
        for reason, count in sorted(summary.skip_reasons.items()):
            lines.append(f"  {count} x {reason}")
    if summary.failures:
        lines.append("failures:")
        for f in summary.failures:
            lines.append(f"  {f}")
    lines.append("ok" if summary.ok else "FAILED")
    return "\n".join(lines) + "\n"
