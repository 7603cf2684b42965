"""Numeric invariants of the generic n-gonal curve of genus g.

Euler characteristics of the restricted tangent and normal bundles,
section counts of multiples of the degree-n pencil (both the piecewise
splitting-type formula and the generic closed form), moduli and
Hilbert-scheme dimensions, and the pencil count at the boundary genus.

Everything is an exact integer; branch thresholds are decided by integer
comparisons, never floats.
"""

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Iterable, Sequence

from .chow import AmbientScroll
from .errors import require_at_least, require_gonal_range, require_pencil_range, require_scroll_range
from .scroll import ScrollSpec, _generic_splitting


def chi_restricted_tangent(g: int, n: int) -> int:
    """chi of the ambient tangent bundle restricted to the curve: n^2+1-g."""
    require_scroll_range(g, n)
    return n * n + 1 - g


def chi_normal_bundle(g: int, n: int) -> int:
    """chi of the normal bundle of the embedded curve: 2g + n^2 - 2.

    This is also the dimension of the Hilbert scheme of such curves on
    the generic scroll, and equals chi_restricted_tangent + 3g - 3.
    """
    require_scroll_range(g, n)
    return 2 * g + n * n - 2


def h1_double_pencil(g: int, n: int) -> int:
    """h^1 of twice the pencil on the generic curve: g - 2n + 2."""
    require_at_least("n", n, 2)
    require_gonal_range(g, n)
    return g - 2 * n + 2


def moduli_dimension(g: int, n: int) -> int:
    """Dimension of the n-gonal locus in moduli: min(3g-3, 2n+2g-5)."""
    require_pencil_range(g, n)
    return min(3 * g - 3, 2 * n + 2 * g - 5)


def gonal_pencil_count(n: int) -> int:
    """Number of degree-n pencils on the generic curve of genus 2n-2.

    The exact value (2n-2)! / (n! (n-1)!), a Catalan number.
    """
    require_at_least("n", n, 2)
    return comb(2 * n - 2, n - 1) // n


def ballico_switches(g: int, n: int) -> list[int]:
    """The k at which ballico_h0 changes formula: the least k with k(n-1) >= g."""
    return [-(-g // (n - 1))]


def ballico_h0(g: int, n: int, k: int) -> int:
    """Sections of k times the pencil on the generic n-gonal curve.

    k+1 below the threshold k < g/(n-1), and the Riemann-Roch value
    nk - g + 1 at or above it.  The threshold is the exact integer
    ceil(g/(n-1)) of ballico_switches.
    """
    require_scroll_range(g, n)
    require_at_least("k", k, 0)
    if k < ballico_switches(g, n)[0]:
        return k + 1
    return n * k - g + 1


def _maroni_branch(prefix_sums: Sequence[int], j: int, k: int) -> int:
    """Value of branch j of the piecewise section-count formula at k.

    Branch j is (j+1)k + 1 - j*eta - (r_1 + ... + r_j), where the last two
    terms are prefix_sums[j], the sum of the first j boundaries eta + r_i.
    It is k+1 for j = 0 and nk + 1 - g for j = n-1, because
    (n-1)*eta + N = g.
    """
    return (j + 1) * k + 1 - prefix_sums[j]


def maroni_h0(
    g: int, n: int, k: int, splitting: Sequence[int] | None = None
) -> int:
    """Sections of k times the pencil, from the scroll's splitting type.

    With eta = (g-N)/(n-1), the value is k+1 for k < eta, then the
    piecewise-linear branch for eta + r_j <= k < eta + r_{j+1}
    (j = 1..n-2), and nk + 1 - g once k >= eta + r_{n-1}.  The default
    splitting is the generic one, where this agrees with ballico_h0.
    """
    boundaries, prefix_sums = _maroni_data(g, n, None if splitting is None else tuple(splitting))
    require_at_least("k", k, 0)
    return _maroni_branch(prefix_sums, bisect_right(boundaries, k), k)


def maroni_branch_boundaries(
    g: int, n: int, splitting: Sequence[int] | None = None
) -> list[int]:
    """The branch switch points eta + r_j, j = 1..n-1, eta = (g-N)/(n-1).

    A given splitting is validated by ScrollSpec; the default is the
    generic one.
    """
    return list(_maroni_data(g, n, None if splitting is None else tuple(splitting))[0])


def decisive_ks(*switches: Iterable[int]) -> list[int]:
    """The k >= 0 among 0, 1 and t-1, t, t+1 for each switch t, a k where a
    section count changes formula.  Both sides of a k-identity are affine
    between consecutive points and from the next-to-last point on, so
    agreement at the points decides every k >= 0."""
    ts = set().union(*switches)
    ks = sorted(ts.union([t - 1 for t in ts], [t + 1 for t in ts], (0, 1)))
    return ks[bisect_left(ks, 0) :]


# The sweep visits one (g, n) at a time, and an entry holds O(n) integers,
# so one entry is enough and keeps the memory of a single point.  Typed, so
# that a float g or n equal to the cached int misses and is refused.
@lru_cache(maxsize=1, typed=True)
def _maroni_data(
    g: int, n: int, splitting: tuple[int, ...] | None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The boundaries of maroni_branch_boundaries and their prefix sums,
    derived once per (g, n, splitting), where (g, n) is checked to be in
    range: a refusal raises on every call, since no entry is kept for it."""
    require_scroll_range(g, n)
    if splitting is None:
        rs = _generic_splitting(g, n)
    else:
        rs = ScrollSpec(AmbientScroll(g, n), splitting).splitting
    eta = (g - sum(rs)) // (n - 1)
    boundaries = tuple(eta + r for r in rs)
    return boundaries, (0, *accumulate(boundaries))
