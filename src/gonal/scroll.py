"""Classification of the scrolls attached to n-gonal curves.

The scroll for (g, n) is the projectivization of a split bundle
O(-r_1) + ... + O(-r_{n-1}) over P^1, normalized so that
0 = r_1 <= ... <= r_{n-1}.  Writing N for the sum of the splitting
invariants, the abstract bundle embeds as a non-singular rational
normal scroll of degree g-n+1 in P^{g-1} exactly when N < g-n+1 and
N = g (mod n-1); the embedding divisor is the tautological class
shifted by ((g-N)/(n-1) - 1) fibers.

The generic curve lands on the scroll whose splitting is all zeros and
ones, with r = g mod (n-1) ones.  For n = 3 that surface is P^1 x P^1
(g even) or the one-point blow-up of P^2 (g odd).
"""

from collections import Counter
from functools import cached_property
from typing import NamedTuple, Sequence

from .chow import AmbientScroll, ChowClass
from .errors import DomainError, _Validated


def validate_scroll(splitting: Sequence[int], g: int, n: int) -> bool:
    """True iff the splitting embeds as a degree-(g-n+1) scroll in P^{g-1}.

    Assumes the splitting is already sorted, non-negative, and starts
    with 0; checks only N < g-n+1 and N = g (mod n-1).
    """
    big_n = sum(splitting)
    return big_n < g - n + 1 and (g - big_n) % (n - 1) == 0


class _SpecFields(NamedTuple):
    ambient: AmbientScroll
    splitting: tuple[int, ...]


class ScrollSpec(_Validated, _SpecFields):
    """A scroll over P^1 with its splitting type, validated for (g, n)."""

    def __new__(cls, ambient: AmbientScroll, splitting: Sequence[int]):
        r = tuple(splitting)
        g, n = ambient.g, ambient.n
        if len(r) != n - 1:
            raise DomainError(f"splitting needs n-1 = {n - 1} entries (got {len(r)})")
        if r[0] != 0:
            raise DomainError("splitting must be normalized with first entry 0")
        # with r[0] == 0, a sorted splitting is non-negative
        if any(r[i] > r[i + 1] for i in range(len(r) - 1)):
            raise DomainError("splitting must be sorted and non-negative")
        if not validate_scroll(r, g, n):
            raise DomainError(
                f"splitting {r} does not embed for (g, n) = ({g}, {n}): "
                f"needs N < g-n+1 and N = g (mod n-1)"
            )
        return tuple.__new__(cls, (ambient, r))

    @property
    def g(self) -> int:
        return self.ambient.g

    @property
    def n(self) -> int:
        return self.ambient.n

    @cached_property
    def big_n(self) -> int:
        """Sum of the splitting invariants."""
        return sum(self.splitting)

    @cached_property
    def shift(self) -> int:
        """Fiber shift (g-N)/(n-1) - 1 of the embedding divisor."""
        return (self.g - self.big_n) // (self.n - 1) - 1

    @property
    def generic_type(self) -> int:
        """The residue r = g mod (n-1) classifying the generic scroll."""
        return self.g % (self.n - 1)


def _generic_splitting(g: int, n: int) -> tuple[int, ...]:
    """n-1-r zeros followed by r ones, where r = g mod (n-1).

    Under 2n-2 < g it always embeds: N = r <= n-2 < g-n+1, and
    g - r = 0 (mod n-1).
    """
    r = g % (n - 1)
    return (0,) * (n - 1 - r) + (1,) * r


def generic_scroll(g: int, n: int) -> ScrollSpec:
    """The scroll of the generic n-gonal curve of genus g, with the
    splitting of _generic_splitting."""
    return ScrollSpec(AmbientScroll(g, n), _generic_splitting(g, n))


def canonical_class(spec: ScrollSpec) -> ChowClass:
    """The canonical divisor class -(n-1)D + (g-n-1)f."""
    g, n = spec.g, spec.n
    return ChowClass(spec.ambient, {(1, 0): -(n - 1), (0, 1): g - n - 1})


def curve_class(spec: ScrollSpec) -> ChowClass:
    """Class of the embedded canonical curve: n D^{n-2} + (n-2)(n-g+1) D^{n-3} f.

    It pairs to n with the fiber and to 2g-2 with the hyperplane.
    """
    g, n = spec.g, spec.n
    return ChowClass(
        spec.ambient,
        {(n - 2, 0): n, (n - 3, 1): (n - 2) * (n - g + 1)},
    )


class AutNumerics(NamedTuple):
    """Dimension and component count of the scroll's automorphism group."""

    total_dim: int
    vertical_dim: int
    components: int


def aut_group_numerics(spec: ScrollSpec) -> AutNumerics:
    """Aut(X) numerics of X = P(E), E = O(-r_1) + ... + O(-r_{n-1}).

    The vertical part Aut(E)/G_m has dimension h^0(End E) - 1, where
    h^0(End E) = sum over i, j of max(0, r_i - r_j + 1); PGL(2) on the
    base adds 3.  The sum runs over the distinct r with their
    multiplicities, so the cost stays linear in n.  The group is
    connected except for P^1 x P^1 (n = 3, splitting (0, 0)), where
    swapping the rulings gives a second component.
    """
    mult = Counter(spec.splitting)
    end_e = sum(
        mi * mj * max(0, ri - rj + 1)
        for ri, mi in mult.items()
        for rj, mj in mult.items()
    )
    is_p1xp1 = spec.splitting == (0, 0)
    return AutNumerics(end_e + 2, end_e - 1, 2 if is_p1xp1 else 1)
