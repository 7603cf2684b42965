"""Invariant dossiers for (g, n) and the grid verification sweep.

``generate_report`` aggregates every module's output for one (g, n)
into a deterministic record with text and JSON renderings.  The JSON is
derived from the record fields: snake_case field names, enums as
their values, and integers beyond the 53-bit safe range as decimal
strings, so output survives consumers that parse JSON numbers as
doubles; ``parse_json`` undoes this, and parse(emit(r)) == r.

``sweep_verify`` re-runs every cross-module identity over a grid of
(g, n) and reports counts instead of aborting: a verification harness
must surface all findings, an error raised while checks run included.
Aggregation order is canonical (globals first, then grid points sorted
by (g, n)).
"""

import json
import sys
import types
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache, partial
from itertools import chain, compress, count, islice, repeat
from math import gcd
from operator import eq, index, itemgetter, ne
from typing import Callable, Iterable, Iterator, NamedTuple, Union, get_args, get_origin, get_type_hints

from . import chow, hirzebruch, invariants, picard
from .chow import AmbientScroll, ChowClass, intersect_number
from .errors import ConsistencyError, DomainError, in_scroll_range, require_at_least, require_at_most
from .picard import DivisibilityVerdict, VerdictStatus
from .scroll import (
    aut_group_numerics,
    canonical_class,
    curve_class,
    generic_scroll,
    validate_scroll,
)

# The largest k_max a report covers, so that every report ends in bounded
# time: 10^7 rows of JSON stream in 10 to 15 s (CPython 3.11, one Xeon core).
K_MAX_LIMIT = 10**7
# The largest gonality a report or a sweep takes, since the generic
# splitting has n - 1 entries: (2000001, 10^6) reports in a few seconds.
GONALITY_LIMIT = 10**6
# The least genus a report or a sweep refuses.  Every value they print is
# below 10^14 * g (the curve class's (n-2)(n-g+1), a section count nk-g+1),
# so it keeps within the 4,300 digits the interpreter writes by default; a
# lower int-to-text limit of L digits lowers it to 10^(L - 14).
GENUS_LIMIT = 10**4000
# The most (g, n) points a sweep takes: at n <= 10 a point in range costs 0.4
# to 0.8 ms and a skip 3 us (CPython 3.11, one Xeon core), about a minute in all.
SWEEP_POINT_LIMIT = 10**5
# The largest sum of n over the points in range a sweep takes: a point costs
# about 0.4 ms + 7 us * n, so 10^5 points at n near 20 with this sum take 47 s,
# and 2 x 10^3 points at n up to 2 x 10^3 take 12 s (CPython 3.11, one Xeon core).
SWEEP_GONALITY_LIMIT = 2 * 10**6
# global/pencil-count compares its two routes at the grid's gonalities up
# to this bound; the Pieri table costs O(n^2) additions of O(n)-bit integers.
_PENCIL_COUNT_MAX_N = 200


def _genus_bound() -> int:
    """GENUS_LIMIT, lowered by the interpreter's int-to-text limit."""
    # 0, or none before Python 3.10.7, is no limit
    limit = getattr(sys, "get_int_max_str_digits", int)()
    return min(GENUS_LIMIT, 10 ** (limit - 14)) if limit else GENUS_LIMIT


def _require_genus_limit(g: int) -> None:
    limit = getattr(sys, "get_int_max_str_digits", int)()
    # a g of at most 3 * (limit - 14) bits is below 10^(limit - 14): build
    # the bound only past that
    if g < GENUS_LIMIT and not (limit and g.bit_length() > 3 * (limit - 14)):
        return
    bound = _genus_bound()
    if g >= bound:
        # g itself may have too many digits to print
        digits = len(str(bound)) - 1
        raise DomainError(f"requires g < 10^{digits} (got a genus of more than {digits} digits)")


class ScrollSummary(NamedTuple):
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


class InvariantSummary(NamedTuple):
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


class ConsistencyFlags(NamedTuple):
    """None means not applicable for this (g, n), never silently omitted."""

    euler_chain: bool
    branch_continuity: bool
    dim_p_l: bool | None
    oracle_agreement: bool | None


# A column of a k-table is a list of pieces (rows, value in the first row,
# slope): affine runs in an int column, constant runs (slope 0) in a bool
# column.  The section counts have O(n) pieces at any k_max.
_Piece = tuple[int, int, int]


def _cells(pieces: Iterable[_Piece]) -> Iterator:
    """The cells of a column, top to bottom, made as they are read."""
    return chain.from_iterable(
        range(v, v + slope * rows, slope) if slope else repeat(v, rows)
        for rows, v, slope in pieces
    )


def _runs(cells: Sequence, tp: type) -> list[_Piece]:
    """A column of cells of type tp as pieces, each as long as it can be
    from the top: affine runs for int, constant runs for bool."""
    pieces, start = [], 0
    while start < len(cells):
        v = cells[start]
        slope = cells[start + 1] - v if tp is int and start + 1 < len(cells) else 0
        line = range(v, v + slope * (len(cells) - start), slope) if slope else repeat(v)
        # the piece ends at the first cell off its line
        rows = next(
            compress(count(), map(ne, islice(cells, start, None), line)), len(cells) - start
        )
        pieces.append((rows, v, slope))
        start += rows
    return pieces


class _Table(Sequence):
    """The rows of a k-table, each of type ``row``, read from columns of
    pieces.

    Rows are made only as they are read, so a table holds its pieces,
    never its rows.  A table equals any table, tuple or list of the same
    rows.
    """

    __slots__ = ("row", "columns", "_rows")

    def __init__(self, row: type, columns: Iterable[list[_Piece]]) -> None:
        self.row = get_origin(row) or row  # tuple for tuple[int, int]
        self.columns = tuple(columns)
        self._rows = sum(rows for rows, _, _ in self.columns[0])

    @classmethod
    def from_cells(cls, row: type, columns: Iterable[Sequence]) -> "_Table":
        """The table of the given cell columns, each cell converted to its
        column's type as _decoder converts a JSON value."""
        return cls(
            row,
            [
                _runs(cells if set(map(type, cells)) <= {tp} else list(map(tp, cells)), tp)
                for (_, _, tp), cells in zip(_plan(row), columns, strict=True)
            ],
        )

    def __len__(self) -> int:
        return self._rows

    def __iter__(self) -> Iterator:
        rows = zip(*map(_cells, self.columns))
        return rows if self.row is tuple else map(partial(tuple.__new__, self.row), rows)

    def __getitem__(self, i):
        i = range(self._rows)[index(i)]
        cells = []
        for pieces in self.columns:
            at = i
            for rows, v, slope in pieces:
                if at < rows:
                    cells.append(v + slope * at if slope else v)
                    break
                at -= rows
        return tuple.__new__(self.row, cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (_Table, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


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
    section_counts: _Table[tuple[int, int]]
    oracle_checks: _Table[OracleRow] | None
    divisibility: DivisibilityVerdict
    consistency_flags: ConsistencyFlags

    def __post_init__(self) -> None:
        # a table given as rows, as by dataclasses.replace, is read into pieces
        for name, row in _tables(GonalReport).items():
            rows = getattr(self, name)
            if rows is not None and not isinstance(rows, _Table):
                columns = list(zip(*rows)) or [()] * len(_plan(row))
                object.__setattr__(self, name, _Table.from_cells(row, columns))

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


def _column(h0: Callable[[int], int], switches: list[int], k_max: int) -> list[_Piece]:
    """h0 over k = 1 .. k_max as pieces: read at the decisive ks of its
    switch list, joined by exact integer slopes, the last piece continued.

    h0 is evaluated only at the points up to k_max and the one after, and
    never at k_max = 0, which has no piece.  A slope with a remainder
    means integer values that no affine piece joins, and raises
    ConsistencyError.
    """
    if k_max == 0:
        return []
    ks = _decisive_ks(switches)
    points = [(k, h0(k)) for k in ks[: bisect_right(ks, k_max) + 1]]
    last = points[-1][0]
    pieces = []
    for (p, vp), (q, vq) in zip(points, points[1:]):
        slope, rem = divmod(vq - vp, q - p)
        if rem:
            raise ConsistencyError(f"no integer slope from ({p}, {vp}) to ({q}, {vq})")
        # rows start at k = 1, so the piece from 0 to 1 gives only its slope
        # when another piece follows
        start, end = max(p, 1), q if q < last else k_max + 1
        if start < end:
            pieces.append((end - start, vp + slope * (start - p), slope))
    return pieces


def _minus(a: list[_Piece], b: list[_Piece]) -> list[_Piece]:
    """The int column a - b of two columns of the same rows, one piece
    between each two edges of either."""
    gaps, a, b = [], a[::-1], b[::-1]
    while a:
        (ra, va, sa), (rb, vb, sb) = a.pop(), b.pop()
        rows = min(ra, rb)
        gaps.append((rows, va - vb, sa - sb))
        if ra > rows:
            a.append((ra - rows, va + sa * rows, sa))
        if rb > rows:
            b.append((rb - rows, vb + sb * rows, sb))
    return gaps


def _zero_runs(rows: int, v: int, slope: int) -> list[_Piece]:
    """The bool column v + slope * i == 0 for i < rows, as pieces."""
    if not slope:
        return [(rows, v == 0, 0)]
    i, rem = divmod(-v, slope)
    if rem or not 0 <= i < rows:
        return [(rows, False, 0)]
    return [piece for piece in ((i, False, 0), (1, True, 0), (rows - i - 1, False, 0)) if piece[0]]


def generate_report(g: int, n: int, k_max: int) -> GonalReport:
    """The full invariant dossier for one (g, n).

    Section and oracle tables cover k = 1 .. k_max (k = 0 is the
    structure sheaf and always contributes 1), g below GENUS_LIMIT, k_max
    at most K_MAX_LIMIT and n at most GONALITY_LIMIT.
    Each table holds O(n) affine pieces, whatever k_max is.
    Deterministic: identical inputs give identical reports.
    """
    _require_genus_limit(g)
    require_at_least("k_max", k_max, 0)
    require_at_most("k_max", k_max, K_MAX_LIMIT)
    require_at_most("n", n, GONALITY_LIMIT)
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

    ks = [(k_max, 1, 1)] if k_max else []
    ballico_switches = invariants.ballico_switches(g, n)
    formula = _column(partial(invariants.ballico_h0, g, n), ballico_switches, k_max)
    sections = _Table(tuple, [ks, formula])

    if n == 3:
        oracle_switches = hirzebruch.trigonal_h0_switches(g)
        # the oracle at its own switch points, affine between them
        oracle = _column(partial(hirzebruch.trigonal_h0_oracle, g), oracle_switches, k_max)
        agree = [run for gap in _minus(formula, oracle) for run in _zero_runs(*gap)]
        oracle_checks: _Table | None = _Table(OracleRow, [ks, formula, oracle, agree])
        # the printed rows, and every k >= 0 whatever k_max is
        decisive = _decisive_ks(oracle_switches, ballico_switches)
        oracle_agreement: bool | None = all(v for _, v, _ in agree) and all(
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
    # the sum runs over the distinct r_i with their multiplicities, as
    # aut_group_numerics sums, so each k costs O(1) on the generic scroll
    shift = spec.shift
    mult = Counter(spec.splitting).items()
    branch_continuity = all(
        invariants.maroni_h0(g, n, k)
        == k + 1 + sum(m * max(0, k - 1 - shift - r) for r, m in mult)
        for k in _decisive_ks(
            invariants.maroni_branch_boundaries(g, n), [1 + shift + r for r, _ in mult]
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
        canonical_class=itemgetter((1, 0), (0, 1))(kx.coefficients),
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
    """A dataclass or a NamedTuple; an alias such as tuple[int, int] is neither."""
    named_tuple = isinstance(tp, type) and issubclass(tp, tuple) and hasattr(tp, "_fields")
    return is_dataclass(tp) or named_tuple


@cache
def _plan(tp: type) -> tuple[tuple[str | int, str | None, type], ...]:
    """The field plan of tp, the one reader of its type hints: (JSON key,
    JSON group or None, type) of each field of a record type, in field
    order, or of each cell of a tuple row type such as tuple[int, int],
    keyed by position.  A type X | None is read as X."""
    if not _is_record(tp):
        return tuple((i, None, t) for i, t in enumerate(get_args(tp)))
    groups = {f.name: f.metadata.get("json_group") for f in fields(tp)} if is_dataclass(tp) else {}
    plan = []
    for name, t in get_type_hints(tp).items():
        if get_origin(t) in (Union, types.UnionType):
            (t,) = [a for a in get_args(t) if a is not type(None)]
        plan.append((name, groups.get(name), t))
    return tuple(plan)


@cache
def _tables(cls: type) -> dict[str, type]:
    """The row type of each field typed _Table[Row], or that | None."""
    return {name: get_args(t)[0] for name, _, t in _plan(cls) if get_origin(t) is _Table}


def _grouped(obj) -> dict:
    """The fields of a record by name, in field order, with grouped
    fields nested under their group's key."""
    out: dict = {}
    for name, group, _ in _plan(type(obj)):
        value = getattr(obj, name)
        if group is None:
            out[name] = value
        else:
            out.setdefault(group, {})[name] = value
    return out


def _encode_ints(obj):
    """The JSON value of obj, in one walk.

    A record becomes the dict _grouped builds, an enum its value, any
    other tuple or a table a list, and an integer beyond the 53-bit safe
    range a decimal string.
    """
    if type(obj) is int:
        return obj if -_SAFE_INT_MAX <= obj <= _SAFE_INT_MAX else str(obj)
    if _is_record(type(obj)):
        return _encode_ints(_grouped(obj))
    if isinstance(obj, (list, tuple, _Table)):
        return [_encode_ints(x) for x in obj]
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: _encode_ints(v) for k, v in obj.items()}
    return obj


@cache
def _decoder(tp):
    """A function rebuilding a value of type tp from its JSON value.

    Integers may arrive as decimal strings; tuples are homogeneous.  A
    table is read column by column, and null is None in any record field.
    """
    origin = get_origin(tp)
    if origin is tuple:
        (item,) = set(get_args(tp)) - {Ellipsis}
        decode_item = _decoder(item)
        return lambda v: tuple(map(decode_item, v))
    if origin is _Table:
        (row,) = get_args(tp)
        getters = [itemgetter(key) for key, _, _ in _plan(row)]
        return lambda rows: _Table.from_cells(row, [list(map(get, rows)) for get in getters])
    if _is_record(tp):
        plan = [(name, group, _decoder(t)) for name, group, t in _plan(tp)]

        def decode(d: dict):
            values = [d[name] if group is None else d[group][name] for name, group, _ in plan]
            return tp(*[None if v is None else dec(v) for v, (_, _, dec) in zip(values, plan)])

        return decode
    if tp in (int, bool, str) or issubclass(tp, Enum):
        return tp  # each converts its own JSON value; int also parses strings
    raise TypeError(f"no JSON decoder for {tp!r}")


# The k-tables run to k_max rows, so the writers produce them a block of
# rows at a time, straight from their columns: one %-template of
# _BLOCK_ROWS rows per block.  The JSON layout is json.dumps at indent 2:
# a top-level value at depth 1, a table row at depth 2.
_BLOCK_ROWS = 1024


def _row_blocks(template: str, sep: str, columns: list[Iterable], rows: int) -> Iterator[str]:
    """template % the cells of each of the rows, joined by sep, one % per
    block of _BLOCK_ROWS rows.  A block after the first starts with sep,
    so each block is one write."""
    cells = chain.from_iterable(zip(*columns))
    lead = ""
    for start in range(0, rows, _BLOCK_ROWS):
        size = min(rows - start, _BLOCK_ROWS)
        yield (lead + sep.join([template] * size)) % tuple(islice(cells, size * len(columns)))
        lead = sep


def _json_cells(tp: type, pieces: list[_Piece]) -> Iterable:
    """The json.dumps texts of a column's cells of type tp, after
    _encode_ints, as %s writes them.

    Each piece is monotone, so its ends bound it: %s writes a column
    inside the safe range as json.dumps does.  A column with an unsafe
    cell is written cell by cell.
    """
    cells = _cells(pieces)
    if tp is bool:
        return map(("false", "true").__getitem__, cells)
    if tp is int:
        ends = [end for rows, v, slope in pieces for end in (v, v + slope * (rows - 1))]
        if all(-_SAFE_INT_MAX <= v <= _SAFE_INT_MAX for v in ends):
            return cells
        return (str(v) if -_SAFE_INT_MAX <= v <= _SAFE_INT_MAX else f'"{v}"' for v in cells)
    raise TypeError(f"no JSON table column for {tp!r}")


@cache
def _row_template(tp: type) -> str:
    """The %-template of a table row of type tp at depth 2."""
    cells = _plan(tp)
    if _is_record(tp):
        slots = [json.dumps(key) + ": %s" for key, _, _ in cells]
        opening, closing = "{", "}"
    else:
        slots = ["%s"] * len(cells)
        opening, closing = "[", "]"
    return opening + "\n      " + ",\n      ".join(slots) + "\n    " + closing


def _json_chunks(report: GonalReport) -> Iterator[str]:
    """json.dumps(report.to_dict(), indent=2) plus a newline, in pieces."""
    tables = _tables(GonalReport)
    sep = "{\n  "
    for key, value in _grouped(report).items():
        yield f"{sep}{json.dumps(key)}: "
        sep = ",\n  "
        if key in tables and value:
            columns = [
                _json_cells(tp, pieces)
                for (_, _, tp), pieces in zip(_plan(tables[key]), value.columns)
            ]
            yield "[\n    "
            yield from _row_blocks(_row_template(tables[key]), ",\n    ", columns, len(value))
            yield "\n  ]"
        else:
            yield json.dumps(_encode_ints(value), indent=2).replace("\n", "\n  ")
    yield "\n}\n"


def emit_json(report: GonalReport) -> str:
    """json.dumps(report.to_dict(), indent=2) plus a newline, byte for byte."""
    return "".join(_json_chunks(report))


def parse_json(text: str) -> GonalReport:
    return GonalReport.from_dict(json.loads(text))


def _flag_str(value: bool | None) -> str:
    if value is None:
        return "n/a"
    return "ok" if value else "FAIL"


def _text_chunks(report: GonalReport) -> Iterator[str]:
    """The text dossier, in pieces."""
    s = report.scroll
    inv = report.invariants
    amb = AmbientScroll(report.g, report.n)
    d, f = report.canonical_class
    kx = amb.hyperplane() * d + amb.fiber() * f
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
    sections = report.section_counts
    table: Iterable[str] = ()
    if sections:
        lines.append("section counts h^0(k g^1_n):")
        if report.oracle_checks is not None:
            lines.append("  k   h0   oracle  agree")
            # both tables run over the same ks in the same order
            if len(report.oracle_checks) != len(sections):
                raise ValueError("the section and oracle tables differ in length")
            _, _, oracle, agree = report.oracle_checks.columns
            columns = [
                *map(_cells, sections.columns),
                _cells(oracle),
                map(("NO", "yes").__getitem__, _cells(agree)),
            ]
            table = _row_blocks("  %-3d %-4d %-7d %s\n", "", columns, len(sections))
        else:
            lines.append("  k   h0   (surface oracle not applicable for n > 3)")
            columns = list(map(_cells, sections.columns))
            table = _row_blocks("  %-3d %d\n", "", columns, len(sections))
    yield "\n".join(lines) + "\n"
    yield from table
    div = report.divisibility
    lines = [
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
    yield "\n".join(lines) + "\n"


def render_text(report: GonalReport) -> str:
    return "".join(_text_chunks(report))


_WRITERS = {"json": _json_chunks, "text": _text_chunks}


def write_report(report: GonalReport, fmt: str, file) -> None:
    """Write the report as emit_json ("json") or render_text ("text")
    would return it, a block of table rows at a time, so memory stays
    flat in k_max."""
    file.writelines(_WRITERS[fmt](report))


# ---------------------------------------------------------------------------
# verification sweep
# ---------------------------------------------------------------------------
# A family of checks is a generator of rows (name, ok) or (name, ok, detail):
# ok True passes, False fails, and None skips, with detail as its reason.
# _run makes the rows into CheckResults.  An exception raised while a family
# runs ends it with one failing RAISED result, detail repr(exc) and a global
# family's name, so the sweep names it and goes on to the next family.
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
        return _encode_ints(self)


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


def _rand_class(rng: "random.Random", ambient: AmbientScroll) -> ChowClass:
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
    import random

    rep = generate_report(g, n, 0)
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
        for k in _decisive_ks(invariants.maroni_branch_boundaries(g, n), ballico_switches)
    )
    yield "invariants/branch-continuity", flags.branch_continuity
    yield "invariants/ballico-riemann-roch-bound", all(
        h0 == chi if k * (n - 1) >= g else h0 > chi
        for k in _decisive_ks(ballico_switches)
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
            for k in _decisive_ks(hirzebruch.trigonal_h0_switches(g))
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
    import random
    from fractions import Fraction

    from . import hyperelliptic

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
    from . import hyperelliptic

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
        rep = generate_report(rg, rn, rk)
        again = generate_report(rg, rn, rk)
        text = emit_json(rep)
        yield f"global/report-deterministic-{rg}-{rn}", rep == again and text == emit_json(again)
        yield f"global/report-roundtrip-{rg}-{rn}", parse_json(text) == rep


def _global_checks(g_values: list[int], n_values: list[int]) -> list[CheckResult]:
    """Properties that are not tied to a single grid point, family by
    family, so that an error in one family does not stop the others."""
    names = ("F_e oracle", "hyperelliptic routes", "case counts", "report round trip")
    families = (_fe_rows(), _hyperelliptic_rows(), _case_rows(g_values, n_values), _report_rows())
    return [r for name, rows in zip(names, families) for r in _run(0, 0, rows, name)]


def sweep_verify(g_range: Iterable[int], n_range: Iterable[int]) -> SweepSummary:
    """Run every module property over the (g, n) grid and summarize.

    Grid points whose hypotheses fail are counted as skips with a
    reason; failures, and errors raised while checks run, are collected,
    never raised.  Identities in k are decided for every k >= 0.  A grid
    beyond GONALITY_LIMIT, GENUS_LIMIT, SWEEP_POINT_LIMIT or
    SWEEP_GONALITY_LIMIT is refused before any check runs.
    """
    # an increasing range is sorted and distinct, and gives its ends and
    # size unbuilt (len overflows past sys.maxsize)
    g_values, n_values = (
        r if isinstance(r, range) and r.step > 0 else sorted(set(r)) for r in (g_range, n_range)
    )
    if not g_values or not n_values:
        raise DomainError("sweep ranges must be non-empty")
    require_at_most("n", n_values[-1], GONALITY_LIMIT)
    _require_genus_limit(g_values[-1])
    points = 1
    for v in (g_values, n_values):
        points *= len(v) if isinstance(v, list) else (v[-1] - v[0]) // v.step + 1
    if points > SWEEP_POINT_LIMIT:
        # ranges with ends of thousands of digits make a count too long to print
        bound = _genus_bound()
        got = points if points < bound else f"10^{len(str(bound)) - 1} or more"
        raise DomainError(f"requires at most {SWEEP_POINT_LIMIT} grid points (got {got})")
    # each range now has at most SWEEP_POINT_LIMIT values; the points in
    # range at n are the g > 2n-2, and n >= 3 makes g >= 2
    gonality = sum(
        n * (len(g_values) - bisect_right(g_values, 2 * n - 2)) for n in n_values if n >= 3
    )
    if gonality > SWEEP_GONALITY_LIMIT:
        raise DomainError(
            f"requires a sum of n over the points in range of at most "
            f"{SWEEP_GONALITY_LIMIT} (got {gonality})"
        )

    # results are counted as they arrive, never kept
    tally, skip_reasons, failures = Counter(), Counter(), []
    grid = (r for g in g_values for n in n_values for r in _point_checks(g, n))
    for r in chain(_global_checks(g_values, n_values), grid):
        tally[r.outcome] += 1
        if r.outcome == "skip":
            skip_reasons[r.detail] += 1
        elif r.outcome == "fail" and len(failures) < 20:
            where = f"g={r.g} n={r.n} " if (r.g, r.n) != (0, 0) else ""
            failures.append(where + r.name + (f": {r.detail}" if r.detail else ""))
    return SweepSummary(
        checked=tally["pass"] + tally["fail"],
        passed=tally["pass"],
        failed=tally["fail"],
        skipped=tally["skip"],
        first_failure=failures[0] if failures else None,
        failures=failures,
        skip_reasons=skip_reasons,
    )


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
