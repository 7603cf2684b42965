"""Exception types and the range hypotheses shared across the package:
the pencil range, the scroll range, and 2n-2 < g on its own."""


class DomainError(ValueError):
    """An input violates a stated hypothesis (range, congruence, compatibility)."""


class UnsupportedError(ValueError):
    """The requested computation is outside what this package implements."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, never bad user input."""


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
