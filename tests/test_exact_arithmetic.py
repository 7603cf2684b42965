"""The package promises exact arithmetic: no floating point anywhere.

A static guard over the source of ``gonal``: it refuses float literals,
the name ``float``, any ``math`` import beyond the integer functions
comb, gcd, factorial and isqrt, and any true division ``/`` that has no
``Fraction(...)`` operand.
"""

import ast
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
