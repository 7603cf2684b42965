"""The package promises exact arithmetic: no floating point anywhere.

A static guard over the source of ``gonal``: it refuses float literals,
the name ``float``, any ``math`` import beyond the integer functions
comb, gcd, factorial and isqrt, and any true division ``/`` that has no
``Fraction(...)`` operand.  A second guard keeps the discriminant
elimination in ``hyperelliptic`` on integers: the two routes and every
module helper they call never name ``Fraction``.  A third pins the calls
of the single-bound range helpers and every boundary genus ``2 * n - 2``
outside ``errors``, so that each standing hypothesis keeps its one home
there.  A fourth bounds every
``functools`` memo, and keeps every public callable a plain function.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "gonal"
INTEGER_MATH = {"comb", "gcd", "factorial", "isqrt"}


def _is_fraction(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
    )


def _float_hazards(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "the name float"))
        elif isinstance(node, ast.Import):
            found += [
                (node.lineno, f"import {a.name}") for a in node.names if a.name == "math"
            ]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                (node.lineno, f"from math import {a.name}")
                for a in node.names
                if a.name not in INTEGER_MATH
            ]
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if not (_is_fraction(node.left) or _is_fraction(node.right)):
                found.append((node.lineno, "true division without a Fraction operand"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            if not _is_fraction(node.value):
                found.append((node.lineno, "/= without a Fraction operand"))
    return found


MODULES = sorted(SOURCE.glob("*.py"))


def test_package_sources_found():
    assert {p.name for p in MODULES} >= {"chow.py", "hyperelliptic.py", "report.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    hazards = _float_hazards(ast.parse(path.read_text(), filename=str(path)))
    assert hazards == [], [f"{path.name}:{line}: {what}" for line, what in hazards]


@pytest.mark.parametrize(
    "snippet",
    [
        "x = 0.5",
        "x = 1e3",
        "x = 2j",
        "x = float(y)",
        "isinstance(y, float)",
        "import math",
        "import math as m",
        "from math import sqrt",
        "from math import gcd, log",
        "x = a / b",
        "x = a / (b + Fraction(1))",
        "x /= 2",
    ],
)
def test_guard_catches(snippet):
    assert _float_hazards(ast.parse(snippet))


@pytest.mark.parametrize(
    "snippet",
    [
        "x = 7 // 2",
        "from math import comb, gcd, factorial, isqrt",
        "x = Fraction(1) / c",
        "x = c / Fraction(3, 2)",
        "x /= Fraction(2)",
        "x = 'float'",
    ],
)
def test_guard_allows(snippet):
    assert _float_hazards(ast.parse(snippet)) == []


# Outside errors.py, the range helpers are called only for the bounds
# that belong to one function: k, k_max and e, hg_dimension's genus,
# gonal_pencil_count's n, h1_double_pencil's pair, and the caps of the
# report and the sweep.  The pencil and scroll hypotheses are checked
# through require_pencil_range and require_scroll_range, so a
# hand-assembled one changes this list.  So does a boundary genus 2n-2
# spelled out, as a re-derived scroll range spells it; the one left is a
# binomial coefficient, not a bound.
RANGE_HELPERS = {"require_at_least", "require_at_most", "require_gonal_range", "in_gonal_range"}
RANGE_CALLS = [
    ("checks.sweep_verify", "require_at_most('n', n_values[-1], report.GONALITY_LIMIT)"),
    ("hirzebruch.FeBundle.__new__", "require_at_least('e', e, 0)"),
    ("hirzebruch.trigonal_h0_oracle", "require_at_least('k', k, 0)"),
    ("hyperelliptic.hg_dimension", "require_at_least('g', g, 2)"),
    ("invariants.h1_double_pencil", "require_at_least('n', n, 2)"),
    ("invariants.h1_double_pencil", "require_gonal_range(g, n)"),
    ("invariants.gonal_pencil_count", "require_at_least('n', n, 2)"),
    ("invariants.gonal_pencil_count", "2 * n - 2"),
    ("invariants.ballico_h0", "require_at_least('k', k, 0)"),
    ("invariants.maroni_h0", "require_at_least('k', k, 0)"),
    ("report.generate_report", "require_at_least('k_max', k_max, 0)"),
    ("report.generate_report", "require_at_most('k_max', k_max, K_MAX_LIMIT)"),
    ("report.generate_report", "require_at_most('n', n, GONALITY_LIMIT)"),
]


# the boundary genus 2n-2, of any n or x.n, as ast.unparse writes it
BOUNDARY_GENUS = re.compile(r"(2 \* (\w+\.)?n|(\w+\.)?n \* 2) - 2")


def _is_boundary_genus(node: ast.AST) -> bool:
    return isinstance(node, ast.BinOp) and BOUNDARY_GENUS.fullmatch(ast.unparse(node)) is not None


def _range_calls(node: ast.AST, scope: str) -> list[tuple[str, str]]:
    """(enclosing function, source) of each call of a RANGE_HELPERS name
    and each boundary genus 2 * n - 2 under node, the function named by
    its dotted path from scope."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id in RANGE_HELPERS
        ) or _is_boundary_genus(child):
            found.append((scope, ast.unparse(child)))
        found += _range_calls(child, inner)
    return found


def test_range_helpers_are_called_only_for_single_bounds():
    calls = [
        call
        for path in MODULES
        if path.name != "errors.py"
        for call in _range_calls(ast.parse(path.read_text()), path.stem)
    ]
    assert calls == RANGE_CALLS


def test_range_call_guard_finds_hand_assembled_checks():
    tree = ast.parse(
        "class Scroll:\n"
        "    def __post_init__(self):\n"
        "        require_at_least('n', self.n, 3)\n"
        "        require_gonal_range(self.g, self.n)\n"
        "def point(g, n):\n"
        "    if n < 3 or not in_gonal_range(g, n):\n"
        "        return require_scroll_range(g, n)\n"
        "def in_range(gs, n):\n"
        "    return len(gs) - bisect_right(gs, 2 * n - 2) if n >= 3 else 0\n"
        "def above(g, x):\n"
        "    return g > x.n * 2 - 2\n"
    )
    assert _range_calls(tree, "m") == [
        ("m.Scroll.__post_init__", "require_at_least('n', self.n, 3)"),
        ("m.Scroll.__post_init__", "require_gonal_range(self.g, self.n)"),
        ("m.point", "in_gonal_range(g, n)"),
        ("m.in_range", "2 * n - 2"),
        ("m.above", "x.n * 2 - 2"),
    ]


INTEGER_ROUTES = ("_gcd_degree", "_resultant_nonzero")


def _called_helpers(tree: ast.Module, roots) -> dict[str, ast.FunctionDef]:
    """The module-level functions named in roots and, transitively, in them."""
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    reached, todo = {}, list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached[name] = defs[name]
        todo += [
            n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name) and n.id in defs
        ]
    return reached


def _names_fraction(fn: ast.FunctionDef) -> bool:
    return any(
        (isinstance(n, ast.Name) and n.id == "Fraction")
        or (isinstance(n, ast.Attribute) and n.attr == "Fraction")
        for n in ast.walk(fn)
    )


def test_discriminant_routes_are_integer_only():
    path = SOURCE / "hyperelliptic.py"
    helpers = _called_helpers(ast.parse(path.read_text()), INTEGER_ROUTES)
    assert set(INTEGER_ROUTES) < set(helpers)  # they call at least one helper
    assert [name for name, fn in helpers.items() if _names_fraction(fn)] == []


def test_route_guard_follows_calls():
    tree = ast.parse(
        "def _route(f):\n    return _helper(f)\n"
        "def _helper(f):\n    return Fraction(f[0])\n"
        "def _unrelated():\n    return Fraction(1)\n"
    )
    helpers = _called_helpers(tree, ["_route"])
    assert set(helpers) == {"_route", "_helper"}
    assert [name for name, fn in helpers.items() if _names_fraction(fn)] == ["_helper"]


# Memos: every functools memo in the package names a finite maxsize, so no
# cache grows with the integers a user passes.  The report codec's caches
# are keyed by record type, so they hold one entry per type, and are
# exempt by name.
TYPE_KEYED_CACHES = {
    ("report", "_is_record"),
    ("report", "_plan"),
    ("report", "_tables"),
    ("report", "_row_template"),
}


def _memo_kind(node: ast.expr) -> str | None:
    """"cache" or "lru_cache" when node names that functools memo."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in ("cache", "lru_cache") else None


def _maxsize(memo: ast.expr):
    """The maxsize a memo decorator sets: an int, or None when unbounded or
    not written out (a bare lru_cache takes its default)."""
    if not isinstance(memo, ast.Call) or _memo_kind(memo.func) != "lru_cache":
        return None
    given = memo.args[:1] + [kw.value for kw in memo.keywords if kw.arg == "maxsize"]
    if len(given) == 1 and isinstance(given[0], ast.Constant) and type(given[0].value) is int:
        return given[0].value
    return None


def _memos(tree: ast.AST) -> list[tuple[str, object]]:
    """(name, maxsize) of each memo: a decorated function, or the target of
    an assignment such as f = lru_cache(maxsize=2)(g)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            memos = [d for d in node.decorator_list if _memo_kind(getattr(d, "func", d))]
            found += [(node.name, _maxsize(d)) for d in memos]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            memo = node.value.func  # cache(g), or lru_cache(...)(g)
            if _memo_kind(getattr(memo, "func", memo)):
                found += [(ast.unparse(t), _maxsize(memo)) for t in node.targets]
    return found


def test_every_memo_is_bounded():
    memos = {(p.stem, name): size for p in MODULES for name, size in _memos(ast.parse(p.read_text()))}
    assert TYPE_KEYED_CACHES <= set(memos)  # no stale exemption
    unbounded = sorted(key for key, size in memos.items() if size is None)
    assert unbounded == sorted(TYPE_KEYED_CACHES)
    assert all(0 < size <= 4 for key, size in memos.items() if key not in TYPE_KEYED_CACHES)


def test_memo_guard_reads_each_form():
    tree = ast.parse(
        "@cache\ndef a(x): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef b(x): pass\n"
        "@lru_cache\ndef c(x): pass\n"
        "@lru_cache(typed=True)\ndef d(x): pass\n"
        "@lru_cache(3)\ndef e(x): pass\n"
        "@lru_cache(maxsize=2, typed=True)\ndef f(x): pass\n"
        "@cached_property\ndef g(self): pass\n"
        "h = lru_cache(maxsize=1)(f)\n"
        "i = cache(f)\n"
    )
    assert _memos(tree) == [
        ("a", None), ("b", None), ("c", None), ("d", None), ("e", 3), ("f", 2),
        ("h", 1), ("i", None),
    ]


def test_surface_oracle_holds_no_memo():
    # every F_e class is derived in place from its (e, a, b)
    (path,) = [p for p in MODULES if p.stem == "hirzebruch"]
    assert _memos(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_callables_are_plain_functions(path):
    # the tracer in bench/spans.py traces inspect.isfunction callables, and
    # tests patch public functions by module attribute: a memo would hide them
    mod = importlib.import_module(f"gonal.{path.stem}" if path.stem != "__init__" else "gonal")
    wrapped = [
        name
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and callable(obj)
        and not inspect.isclass(obj)
        and getattr(obj, "__module__", None) == mod.__name__
        and not inspect.isfunction(obj)
    ]
    assert wrapped == []
