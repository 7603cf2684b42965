"""Exception types, the record base and the range hypotheses shared across
the package: the pencil range, the scroll range, and 2n-2 < g on its own;
and the interpreter's int-to-text limit, which every command reads."""

import sys


class DomainError(ValueError):
    """An input violates a stated hypothesis (range, congruence, compatibility)."""


class UnsupportedError(ValueError):
    """The requested computation is outside what this package implements."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, never bad user input."""


class _Validated:
    """The base of a record: a NamedTuple of its fields, subclassed by a
    class that checks and normalizes them in __new__.  _make, and with it
    _replace, builds through that __new__; no attribute can be set or
    deleted, so neither can a cached value."""

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def int_text_limit() -> int:
    """The most digits the interpreter converts between int and text, or 0
    for no limit, as before Python 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", int)()


def as_int(name: str, value) -> int:
    """value as a plain int, or DomainError unless it is an int: a bool
    counts, as in arithmetic, and reads as 0 or 1."""
    if not isinstance(value, int):
        raise DomainError(f"requires an integer {name} (got {type(value).__name__})")
    return int(value)


def require_at_least(name: str, value: int, bound: int) -> None:
    """Raise DomainError unless value >= bound; name is the variable's name."""
    if value < bound:
        raise DomainError(f"requires {name} >= {bound} (got {name}={value})")


def require_at_most(name: str, value: int, bound: int) -> None:
    """Raise DomainError unless value <= bound; name is the variable's name."""
    if value > bound:
        raise DomainError(f"requires {name} <= {bound} (got {name}={value})")


def in_gonal_range(g: int, n: int) -> bool:
    """The hypothesis 2n-2 < g: the genus lies above the boundary genus 2n-2."""
    return 2 * n - 2 < g


def require_gonal_range(g: int, n: int) -> None:
    """Raise DomainError unless 2n-2 < g; each caller checks its own bound on n."""
    if not in_gonal_range(g, n):
        raise DomainError(f"requires 2n-2 < g (got 2n-2={2 * n - 2}, g={g})")


def require_pencil_range(g: int, n: int) -> None:
    """The pencil hypothesis: a degree-n pencil in genus g, g >= 2 and n >= 2."""
    require_at_least("g", g, 2)
    require_at_least("n", n, 2)


def in_scroll_range(g: int, n: int) -> bool:
    """The scroll hypothesis: n >= 3, g >= 2 and 2n-2 < g."""
    # 2n-2 < g written out: the passing path of require_scroll_range is this one call
    return n >= 3 and g >= 2 and 2 * n - 2 < g


def require_scroll_range(g: int, n: int) -> None:
    """Raise DomainError naming the first of n >= 3, g >= 2, 2n-2 < g to fail.

    A point in range is answered by one in_scroll_range test; the bounds
    are checked one by one, for the message, only when it fails.
    """
    if in_scroll_range(g, n):
        return
    require_at_least("n", n, 3)
    require_at_least("g", g, 2)
    require_gonal_range(g, n)
