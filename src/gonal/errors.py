"""Exception types and the range hypotheses shared across the package."""


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


def in_gonal_range(g: int, n: int) -> bool:
    """The hypothesis 2n-2 < g: the genus lies above the boundary genus 2n-2."""
    return 2 * n - 2 < g


def require_gonal_range(g: int, n: int) -> None:
    """Raise DomainError unless 2n-2 < g; each caller checks its own bound on n."""
    if not in_gonal_range(g, n):
        raise DomainError(f"requires 2n-2 < g (got 2n-2={2 * n - 2}, g={g})")
