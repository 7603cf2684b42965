"""Exception types, the record base and the range hypotheses shared across
the package: the pencil range, the scroll range, and 2n-2 < g on its own;
and the interpreter's int-to-text limit, which every digit cap and every
refusal that shows a number reads."""

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


def digit_cap(cap: int, margin: int = 0) -> int:
    """cap digits, lowered to the int-to-text limit less margin, so that a
    value of margin more digits still prints."""
    limit = int_text_limit()
    return min(cap, limit - margin) if limit else cap


def require_digits(name: str, noun: str, value: int, digits: int) -> None:
    """Raise DomainError unless value < 10^digits, read from its bits where they
    decide (2^(3D) < 10^D); value, which may be too long to print, is not."""
    if value.bit_length() > 3 * digits and value >= 10**digits:
        raise DomainError(f"requires {name} < 10^{digits} (got a {noun} of more than {digits} digits)")


def decimal_digits(value: int) -> int:
    """The decimal digits of |value|, counted without writing it out."""
    v = abs(value)
    # 2^(b-1) <= v and 10^0.30102999 < 2: a count never above the true one
    d = max(1, (v.bit_length() - 1) * 30102999 // 10**8 + 1)
    while v >= 10**d:
        d += 1
    return d


def digits_past_limit(value: int) -> int:
    """The decimal digits of value if they are more than the int-to-text limit
    lets the interpreter write, else 0."""
    limit = int_text_limit()
    if limit and value.bit_length() > 3 * limit and (digits := decimal_digits(value)) > limit:
        return digits
    return 0


def _shown(value: int) -> str:
    """value in decimal or, past the int-to-text limit, its sign and its
    digit count, as -<5001 digits>."""
    if digits := digits_past_limit(value):
        return f"{'-' if value < 0 else ''}<{digits} digits>"
    return str(value)


def as_int(name: str, value) -> int:
    """value as a plain int, or DomainError unless it is an int: a bool
    counts, as in arithmetic, and reads as 0 or 1."""
    if not isinstance(value, int):
        raise DomainError(f"requires an integer {name} (got {type(value).__name__})")
    return int(value)


def require_at_least(name: str, value: int, bound: int) -> None:
    """Raise DomainError unless value is an int >= bound; name is the
    variable's name."""
    if not isinstance(value, int) or value < bound:
        as_int(name, value)
        raise DomainError(f"requires {name} >= {bound} (got {name}={_shown(value)})")


def require_at_most(name: str, value: int, bound: int) -> None:
    """Raise DomainError unless value <= bound; name is the variable's name."""
    if value > bound:
        raise DomainError(f"requires {name} <= {bound} (got {name}={_shown(value)})")


def in_gonal_range(g: int, n: int) -> bool:
    """The hypothesis 2n-2 < g: the genus lies above the boundary genus 2n-2."""
    return 2 * n - 2 < g


def require_gonal_range(g: int, n: int) -> None:
    """Raise DomainError unless g and n are ints with 2n-2 < g; each caller
    checks its own bound on n."""
    if not (isinstance(g, int) and isinstance(n, int) and in_gonal_range(g, n)):
        as_int("g", g)
        as_int("n", n)
        raise DomainError(f"requires 2n-2 < g (got 2n-2={_shown(2 * n - 2)}, g={_shown(g)})")


def require_pencil_range(g: int, n: int) -> None:
    """The pencil hypothesis: a degree-n pencil in genus g, g >= 2 and n >= 2."""
    require_at_least("g", g, 2)
    require_at_least("n", n, 2)


def in_scroll_range(g: int, n: int) -> bool:
    """The scroll hypothesis: n >= 3, g >= 2 and 2n-2 < g, for ints g and n;
    DomainError for any other g or n."""
    if not (isinstance(g, int) and isinstance(n, int)):
        as_int("g", g)
        as_int("n", n)
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
