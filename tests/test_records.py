"""The package's records are one idiom: a NamedTuple of the fields,
subclassed by a class that checks and normalizes them in __new__, and
read-only once built."""

import ast
from pathlib import Path

import pytest

from gonal import (
    AmbientScroll,
    BinaryForm,
    DivisibilityVerdict,
    DomainError,
    FeBundle,
    HyperellipticModel,
    VerdictStatus,
    generate_report,
    generic_scroll,
)

SOURCE = Path(__file__).resolve().parent.parent / "src" / "gonal"
MODULES = sorted(SOURCE.glob("*.py"))


def _record_idiom_breaks(tree: ast.AST) -> list[tuple[int, str]]:
    """Each import of dataclasses and each call of object.__setattr__."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.append((node.lineno, "from dataclasses import"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        ):
            found.append((node.lineno, "object.__setattr__"))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses_and_no_forced_writes(path):
    breaks = _record_idiom_breaks(ast.parse(path.read_text(), filename=str(path)))
    assert breaks == [], [f"{path.name}:{line}: {what}" for line, what in breaks]


def test_idiom_guard_finds_each_break():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "def f(x):\n"
        "    object.__setattr__(x, 'a', 1)\n"
        "    x.__setattr__('a', 1)\n"
    )
    assert _record_idiom_breaks(tree) == [
        (1, "import dataclasses"),
        (2, "from dataclasses import"),
        (4, "object.__setattr__"),
    ]


FORM = BinaryForm(6, (-1, 0, 0, 0, 0, 0, 1))
# one of each validating record, with the names of its cached values
RECORDS = [
    (AmbientScroll(9, 3), ()),
    (generic_scroll(41, 7), ("big_n", "shift")),
    (FeBundle(1, 2, 3), ()),
    (DivisibilityVerdict(3, VerdictStatus.THEOREM, True), ()),
    (generate_report(9, 3, 4), ()),
    (FORM, ("smooth",)),
    (HyperellipticModel(3, FORM), ()),
]


@pytest.mark.parametrize("record, cached", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_read_only(record, cached):
    fields, values = tuple(record), [getattr(record, name) for name in cached]
    for name in (*record._fields, *cached, "foo"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(record) == fields and [getattr(record, name) for name in cached] == values
    assert not hasattr(record, "foo")
    assert isinstance(record, tuple) and record._replace() == record


@pytest.mark.parametrize(
    "record, change, message",
    [
        (AmbientScroll(9, 3), {"n": 6}, r"2n-2 < g"),
        (generic_scroll(9, 3), {"splitting": (0, 2)}, "does not embed"),
        (FeBundle(1, 2, 3), {"e": -1}, r"e >= 0"),
        (DivisibilityVerdict(3, VerdictStatus.THEOREM, True), {"divisor": 0}, "positive"),
    ],
)
def test_replace_and_make_validate(record, change, message):
    with pytest.raises(DomainError, match=message):
        record._replace(**change)
    with pytest.raises(DomainError, match=message):
        type(record)._make({**record._asdict(), **change}.values())
    assert record._replace() == record and type(record._replace()) is type(record)
