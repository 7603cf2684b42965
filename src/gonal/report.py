"""Invariant dossiers for (g, n).

``generate_report`` aggregates every module's output for one (g, n)
into a deterministic record with text and JSON renderings.  The JSON is
derived from the record fields: snake_case field names, enums as
their values, and integers beyond the 53-bit safe range as decimal
strings, so output survives consumers that parse JSON numbers as
doubles; ``parse_json`` undoes this, and parse(emit(r)) == r.
"""

import json
import types
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import suppress
from enum import Enum
from functools import cache, partial
from itertools import chain, compress, count, islice, repeat, starmap
from operator import eq, index, itemgetter, ne
from typing import Annotated, NamedTuple, Union, get_args, get_origin, get_type_hints

from . import hirzebruch, invariants, picard
from .chow import AmbientScroll, ChowClass, intersect_number
from .errors import ConsistencyError, DomainError, _shown, _Validated, as_int, digit_cap
from .errors import digits_past_limit, int_text_limit
from .errors import require_at_least, require_at_most, require_digits
from .picard import DivisibilityVerdict
from .scroll import aut_group_numerics, canonical_class, curve_class, generic_scroll

# The largest k_max a report covers, so that every report ends in bounded
# time: 10^7 rows of JSON stream in 8.4 to 8.7 s (CPython 3.11, one Xeon core).
K_MAX_LIMIT = 10**7
# The largest gonality a report or a sweep takes, since the generic
# splitting has n - 1 entries: (2000001, 10^6) reports in a few seconds.
GONALITY_LIMIT = 10**6
# The least genus a report or a sweep refuses.  Every value they print is
# below 10^14 * g (the curve class's (n-2)(n-g+1), a section count nk-g+1),
# so it keeps within the 4,300 digits the interpreter writes by default.
GENUS_LIMIT = 10**4000


def genus_digits() -> int:
    """The D of the cap g < 10^D of generate_report and sweep_verify: GENUS_LIMIT
    = 10^D, lowered to the int-to-text limit less 14.  D is read from its bits b,
    as D log2(10) < b <= D log2(10) + 1, exactly for D < 4 * 10^7."""
    return digit_cap(GENUS_LIMIT.bit_length() * 30103 // 10**5, 14)


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


def _ints(rows: int, v: int, slope: int) -> Iterable:
    """The cells of a piece: a range, or v repeated for slope 0, so that a
    bool stays a bool."""
    return range(v, v + slope * rows, slope) if slope else repeat(v, rows)


def _cut(stack: list[_Piece], rows: int) -> list[_Piece]:
    """The pieces of the next rows rows, popped off a column kept reversed
    as a stack.  A piece that runs on past them is split, its rest pushed
    back; a bool value stays a bool."""
    out = []
    while rows:
        n, v, slope = stack.pop()
        if n > rows:
            stack.append((n - rows, v + slope * rows if slope else v, slope))
            n = rows
        out.append((n, v, slope))
        rows -= n
    return out


def _cells(pieces: Iterable[_Piece]) -> Iterator:
    """The cells of a column, top to bottom, made as they are read."""
    return chain.from_iterable(starmap(_ints, pieces))


def _at(pieces: Iterable[_Piece], picked: range) -> Iterator:
    """The cells of a column at the increasing row indices picked, made as
    they are read: the picked rows of a piece are one _ints."""
    cells, top = [], 0
    for rows, v, slope in pieces:
        lo, hi = bisect_left(picked, top), bisect_left(picked, top + rows)
        if lo < hi:
            first = v + slope * (picked[lo] - top) if slope else v
            cells.append(_ints(hi - lo, first, slope * picked.step))
        top += rows
    return chain.from_iterable(cells)


def _runs(cells: Sequence, tp: type) -> list[_Piece]:
    """A column of cells of type tp as pieces, each as long as it can be
    from the top: affine runs for int, constant runs for bool.  The cells
    are read in one pass, each compared once with the line of its piece."""
    pieces, start, size = [], 0, len(cells)
    rest = islice(cells, 1, None)  # the cells after a piece's first
    while start < size:
        v = cells[start]
        slope = cells[start + 1] - v if tp is int and start + 1 < size else 0
        line = _ints(size - start - 1, v + slope, slope)
        # the piece ends at the first cell off its line, which map has read:
        # it starts the next piece, and rest goes on after it
        rows = 1 + next(compress(count(), map(ne, rest, line)), size - start - 1)
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
    def from_cells(cls, row: type, columns: Iterable[Sequence], name: str) -> "_Table":
        """The table of the field name from the given cell columns.  A column
        whose cells all have its type is taken as it is, once _writable has
        read its extremes; else each cell is read as _decode reads a JSON
        value of that type."""
        pieces = []
        for (key, _, tp), cells in zip(_plan(row), columns, strict=True):
            if set(map(type, cells)) <= {tp}:
                _writable(tp, f"{name}.{key}", cells)
            else:
                cells = list(map(partial(_scalar, tp, f"{name}.{key}"), cells))
            pieces.append(_runs(cells, tp))
        return cls(row, pieces)

    def __len__(self) -> int:
        return self._rows

    def __iter__(self) -> Iterator:
        rows = zip(*map(_cells, self.columns))
        return rows if self.row is tuple else map(partial(tuple.__new__, self.row), rows)

    def _picked(self, picked: range) -> Iterator:
        """The rows at the increasing indices picked, made as they are read."""
        rows = zip(*(_at(pieces, picked) for pieces in self.columns))
        return rows if self.row is tuple else map(partial(tuple.__new__, self.row), rows)

    def __getitem__(self, i):
        """A row, or the tuple of the rows a slice selects."""
        if not isinstance(i, slice):
            i = range(self._rows)[index(i)]
            return next(self._picked(range(i, i + 1)))
        picked = range(self._rows)[i]
        if picked.step > 0:
            return tuple(self._picked(picked))
        return tuple(self._picked(picked[::-1]))[::-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (_Table, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


# JSON groups fields under the key their Annotated hint names, in field order.
class _ReportFields(NamedTuple):
    g: Annotated[int, "input"]
    n: Annotated[int, "input"]
    k_max: Annotated[int, "input"]
    scroll: ScrollSummary
    canonical_class: Annotated[tuple[int, int], "classes"]
    curve_class: Annotated[tuple[tuple[int, int, int], ...], "classes"]
    invariants: InvariantSummary
    section_counts: _Table[tuple[int, int]]
    oracle_checks: _Table[OracleRow] | None
    divisibility: DivisibilityVerdict
    consistency_flags: ConsistencyFlags


class GonalReport(_Validated, _ReportFields):
    def __new__(cls, *fields, **named):
        report = _ReportFields(*fields, **named)
        # a table given as rows, as to _replace, is read into pieces first
        tables = {
            name: _Table.from_cells(row, list(zip(*rows)) or [()] * len(_plan(row)), name)
            for name, row in _tables(cls).items()
            if (rows := getattr(report, name)) is not None and type(rows) is not _Table
        }
        return tuple.__new__(cls, report._replace(**tables) if tables else report)

    def to_dict(self) -> dict:
        return _encode_ints(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GonalReport":
        return _decode(cls, cls.__name__, d)


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
    ks = invariants.decisive_ks(switches)
    points = [(k, h0(k)) for k in ks[: bisect_right(ks, k_max) + 1]]
    last = points[-1][0]
    pieces = []
    for (p, vp), (q, vq) in zip(points, points[1:]):
        slope, rem = divmod(vq - vp, q - p)
        if rem:
            raise ConsistencyError(f"no integer slope from ({p}, {vp}) to ({q}, {vq})")
        pieces.append(((q if q < last else k_max + 1) - p, vp, slope))
    # the pieces run from k = 0, and the rows from k = 1
    pieces.reverse()
    _cut(pieces, 1)
    return pieces[::-1]


def _agree(a: list[_Piece], b: list[_Piece]) -> list[_Piece]:
    """The bool column a == b of two int columns of the same rows, as runs
    cut at the edges of both.  Where a - b = gap + step * i is not
    constant, it is zero in at most one row, i = -gap / step."""
    runs, b = [], b[::-1]
    for rows, v, slope in a:
        for n, w, s in _cut(b, rows):
            gap, step = v - w, slope - s
            v += slope * n
            i, rem = divmod(-gap, step) if step else (n, 0)
            if rem or not 0 <= i < n:
                runs.append((n, not step and gap == 0, 0))
            else:
                runs += [r for r in ((i, False, 0), (1, True, 0), (n - i - 1, False, 0)) if r[0]]
    return runs


def generate_report(g: int, n: int, k_max: int) -> GonalReport:
    """The full invariant dossier for one (g, n).

    Section and oracle tables cover k = 1 .. k_max (k = 0 is the
    structure sheaf and always contributes 1), g below GENUS_LIMIT, k_max
    at most K_MAX_LIMIT and n at most GONALITY_LIMIT.
    Each table holds O(n) affine pieces, whatever k_max is.
    Deterministic: identical inputs give identical reports.
    """
    g, n, k_max = as_int("g", g), as_int("n", n), as_int("k_max", k_max)
    require_digits("g", "genus", g, genus_digits())
    require_at_least("k_max", k_max, 0)
    require_at_most("k_max", k_max, K_MAX_LIMIT)
    require_at_most("n", n, GONALITY_LIMIT)
    spec = generic_scroll(g, n)
    aut = aut_group_numerics(spec)
    kx = canonical_class(spec)
    curve = curve_class(spec)

    chi_t = invariants.chi_restricted_tangent(g, n)
    # chi(T_X|C) through the intersection ring: -K.C + (n-1)(1-g)
    chi_t_chow = -intersect_number([kx], curve) + (n - 1) * (1 - g)
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
        # the oracle once at each k that decides every k >= 0, for column and flag
        decisive = invariants.decisive_ks(oracle_switches, ballico_switches)
        oracle_h0 = {k: hirzebruch.trigonal_h0_oracle(g, k) for k in decisive}
        oracle = _column(oracle_h0.__getitem__, oracle_switches, k_max)
        agree = _agree(formula, oracle)
        oracle_checks: _Table | None = _Table(OracleRow, [ks, formula, oracle, agree])
        oracle_agreement: bool | None = all(v for _, v, _ in agree) and all(
            oracle_h0[k] == invariants.ballico_h0(g, 3, k) for k in decisive
        )
        curve_fe = hirzebruch.trigonal_curve_bundle(g)
        dim_p_l: bool | None = hirzebruch.bundle_cohomology(curve_fe).h0 - 1 == chi_n
        surface = f"F{curve_fe.e}"
    else:
        oracle_checks = oracle_agreement = dim_p_l = surface = None

    # h^0(O_C(kR)) = k + 1 + sum of max(0, k - 1 - e_i) on the scroll
    # S(e_1, ..., e_{n-1}), e_i = shift + r_i, bends only at 1 + e_i; with
    # the maroni_h0 boundaries the decisive points decide every k >= 0
    # the sum runs over the distinct r_i with their multiplicities, as
    # aut_group_numerics sums, so each k costs O(1) on the generic scroll
    shift = spec.shift
    bends = [(1 + shift + r, m) for r, m in Counter(spec.splitting).items()]
    points = invariants.decisive_ks(invariants.maroni_branch_boundaries(g, n), [t for t, _ in bends])
    summed = [k + 1 for k in points]
    for t, m in bends:
        summed = [h + m * max(0, k - t) for h, k in zip(summed, points)]
    branch_continuity = list(map(partial(invariants.maroni_h0, g, n), points)) == summed
    flags = ConsistencyFlags(
        euler_chain=chi_t == chi_t_chow and chi_n == chi_t + 3 * g - 3,
        branch_continuity=branch_continuity,
        dim_p_l=dim_p_l,
        oracle_agreement=oracle_agreement,
    )

    curve_coeffs = tuple((a, b, c) for (a, b), c in sorted(curve.coefficients.items(), reverse=True))
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


# the integers JSON carries exactly: within 53 bits
_SAFE_INTS = range(-(1 << 53) + 1, 1 << 53)


@cache
def _is_record(tp: type) -> bool:
    """A NamedTuple; an alias such as tuple[int, int] is not one."""
    return isinstance(tp, type) and issubclass(tp, tuple) and hasattr(tp, "_fields")


@cache
def _plan(tp: type) -> tuple[tuple[str | int, str | None, type], ...]:
    """The field plan of tp, the one reader of its type hints: (JSON key,
    JSON group or None, type) of each field of a record type, in field
    order, or of each cell of a tuple row type such as tuple[int, int],
    keyed by position.  Annotated[X, group] is X in group."""
    if not _is_record(tp):
        return tuple((i, None, t) for i, t in enumerate(get_args(tp)))
    plan = []
    for name, t in get_type_hints(tp, include_extras=True).items():
        t, group = get_args(t) if get_origin(t) is Annotated else (t, None)
        plan.append((name, group, t))
    return tuple(plan)


def _bare(t):
    """X of a type X | None, else t itself."""
    if get_origin(t) in (Union, types.UnionType):
        (t,) = [a for a in get_args(t) if a is not type(None)]
    return t


@cache
def _tables(cls: type) -> dict[str, type]:
    """The row type of each field typed _Table[Row], or that | None."""
    return {name: get_args(_bare(t))[0] for name, _, t in _plan(cls) if get_origin(_bare(t)) is _Table}


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
        return obj if obj in _SAFE_INTS else str(obj)
    if _is_record(type(obj)):
        return _encode_ints(_grouped(obj))
    if isinstance(obj, (list, tuple, _Table)):
        return [_encode_ints(x) for x in obj]
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: _encode_ints(v) for k, v in obj.items()}
    return obj


def _refused(name: str, what: str, v) -> DomainError:
    """The error for a value v of the field name that is not what it takes:
    v by its first 40 characters of JSON, an int past the int-to-text limit by
    its digit count, and a value JSON cannot write by its type."""
    got = {list: "an array", dict: "an object"}.get(type(v))
    if got is None:
        try:
            got = (_shown(v) if type(v) is int else json.dumps(v))[:40]
        except (TypeError, ValueError):  # no JSON value, or one holding an int too long to write
            got = f"a value of type {type(v).__name__}"
    return DomainError(f"cannot read {name!r} from JSON: expected {what}, got {got}")


_SCALARS = {int: "an integer", bool: "true or false", str: "a string"}


def _writable(tp: type, name: str, values: Sequence) -> Sequence:
    """values, each of type tp, in the field name, unless an int among them
    has more digits than the interpreter writes, which raises DomainError.
    Only the least and the greatest are read."""
    if tp is int and values:
        for v in (min(values), max(values)):
            if digits_past_limit(v):
                raise _refused(name, f"an integer of at most {int_text_limit()} digits", v)
    return values


def _scalar(tp: type, name: str, v):
    """The value of type tp, in the field name, that JSON writes as v: an int
    as an integer or a decimal string, a bool as true or false, a string as
    a string and an enum as its value."""
    if type(v) is tp:  # not isinstance: a bool is no int
        return _writable(tp, name, (v,))[0]
    if tp is int and type(v) is str and v.isascii() and v.removeprefix("-").isdecimal():
        with suppress(ValueError):  # more digits than the interpreter reads
            return int(v)
    if issubclass(tp, Enum) and type(v) is str and any(v == m.value for m in tp):
        return tp(v)
    raise _refused(name, _SCALARS.get(tp) or f"a {tp.__name__} value", v)


def _decode(tp, name: str, v):
    """The value of type tp, in the field name, that emit_json writes as the
    JSON value v; any other value raises DomainError.

    Null is None only in a field typed X | None, and tuples are
    homogeneous.  A table is read column by column.
    """
    origin = get_origin(tp)
    if origin in (Union, types.UnionType):
        return None if v is None else _decode(_bare(tp), name, v)
    if origin is tuple:
        (item,) = set(get_args(tp)) - {Ellipsis}
        size = None if Ellipsis in get_args(tp) else len(get_args(tp))
        if type(v) is not list or size not in (None, len(v)):
            raise _refused(name, f"an array of {size}" if size else "an array", v)
        if set(map(type, v)) <= {item}:
            return tuple(_writable(item, name, v))
        return tuple(_decode(item, name, x) for x in v)
    if origin is _Table:
        (row,) = get_args(tp)
        keys = [key for key, _, _ in _plan(row)]
        shape = dict if _is_record(row) else list
        if type(v) is list and set(map(type, v)) <= {shape} and set(map(len, v)) <= {len(keys)}:
            with suppress(KeyError):  # a row object that names another field
                return _Table.from_cells(row, [list(map(itemgetter(key), v)) for key in keys], name)
        raise _refused(name, f"an array of {len(keys)}-cell rows", v)
    if _is_record(tp):
        plan = _plan(tp)
        try:
            values = [v[key] if group is None else v[group][key] for key, group, _ in plan]
        except (KeyError, TypeError):  # a missing field, or a group that is no object
            raise _refused(name, f"an object with every {tp.__name__} field", v) from None
        # the keys emit_json writes in each group, and at the top (None)
        for group in dict.fromkeys([*(group for _, group, _ in plan), None]):
            known = {key if group else grp or key for key, grp, _ in plan if group in (None, grp)}
            unknown = [key for key in (v if group is None else v[group]) if key not in known]
            if unknown:
                raise _refused(group or name, f"only {tp.__name__} fields", unknown[0])
        return tp(*[_decode(t, key, x) for x, (key, _, t) in zip(values, plan)])
    if tp in _SCALARS or issubclass(tp, Enum):
        return _scalar(tp, name, v)
    raise TypeError(f"no JSON decoder for {tp!r}")


# The k-tables run to k_max rows, so the writers produce them a block of
# rows at a time, straight from their columns' pieces: one %-template of
# _BLOCK_ROWS rows per block.  The JSON layout is json.dumps at indent 2:
# a top-level value at depth 1, a table row at depth 2.
_BLOCK_ROWS = 1024


def _row_blocks(template: str, sep: str, columns: list[tuple], rows: int) -> Iterator[str]:
    """template % the cells of each of the rows, joined by sep, one % per
    block of _BLOCK_ROWS rows.  A column is its pieces and a function
    (rows, v, slope) -> the cells of a piece, so a block's arguments take
    one slice per column and per piece in the block.  A block after the
    first starts with sep, so each block is one write."""
    width = len(columns)
    stacks = [pieces[::-1] for pieces, _ in columns]
    lead = ""
    for start in range(0, rows, _BLOCK_ROWS):
        size = min(rows - start, _BLOCK_ROWS)
        args = [None] * (size * width)
        for j, ((_, cells), stack) in enumerate(zip(columns, stacks)):
            for n, v, slope in _cut(stack, size):
                args[j : j + n * width : width] = cells(n, v, slope)
                j += n * width
        yield (lead + sep.join([template] * size)) % tuple(args)
        lead = sep


def _json_ints(rows: int, v: int, slope: int) -> Iterable:
    """The cells of an int piece as %s writes their json.dumps texts after
    _encode_ints.  A piece is monotone, so its ends bound it: inside the
    safe range its ints are written as is, else each cell as its text."""
    cells = _ints(rows, v, slope)
    last = v + slope * (rows - 1)
    if v in _SAFE_INTS and last in _SAFE_INTS:
        return cells
    return [json.dumps(_encode_ints(c)) for c in cells]


def _literals(texts: tuple[str, str]) -> Callable[[int, bool, int], list[str]]:
    """The cells of a bool piece as texts[False] or texts[True]."""
    return lambda rows, v, slope: [texts[v]] * rows


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
                (pieces, _json_ints if tp is int else _literals(("false", "true")))
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
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # no JSON, an int past the limit, or too deep
        raise DomainError(f"cannot read JSON: {exc}") from None
    return GonalReport.from_dict(doc)


# the text of each consistency flag, in field order, and of its values
_FLAG_NAMES = ("euler-chain", "branch-continuity", "dim-P(L)", "oracle")
_FLAG_TEXT = {None: "n/a", True: "ok", False: "FAIL"}


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
                *((pieces, _ints) for pieces in sections.columns),
                (oracle, _ints),
                (agree, _literals(("NO", "yes"))),
            ]
            table = _row_blocks("  %-3d %-4d %-7d %s\n", "", columns, len(sections))
        else:
            lines.append("  k   h0   (surface oracle not applicable for n > 3)")
            columns = [(pieces, _ints) for pieces in sections.columns]
            table = _row_blocks("  %-3d %d\n", "", columns, len(sections))
    yield "\n".join(lines) + "\n"
    yield from table
    div = report.divisibility
    lines = [
        f"modular degree: multiple of {div.divisor} "
        f"[{div.status.value}{', sharp' if div.sharp else ''}]",
        "consistency: "
        + ", ".join(
            f"{name} {_FLAG_TEXT[value]}"
            for name, value in zip(_FLAG_NAMES, report.consistency_flags, strict=True)
        ),
    ]
    yield "\n".join(lines) + "\n"


def render_text(report: GonalReport) -> str:
    return "".join(_text_chunks(report))


def write_report(report: GonalReport, fmt: str, file) -> None:
    """Write the report as emit_json ("json") or render_text ("text")
    would return it, a block of table rows at a time, so memory stays
    flat in k_max."""
    file.writelines({"json": _json_chunks, "text": _text_chunks}[fmt](report))
