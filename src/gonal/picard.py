"""Degree lattice of rationally determined line bundles on gonal families.

On the universal family of n-gonal curves the relative canonical sheaf
has vertical degree 2g-2 and the relative degree-n pencil has vertical
degree n; the degrees they span form the subgroup gcd(2g-2, n) * Z.
The divisibility verdicts below keep track of their epistemic status:
proved in general for n = 2, proved for n = 3, conjectural for n >= 4.
"""

from dataclasses import dataclass
from enum import Enum
from math import gcd

from .errors import DomainError, require_at_least, require_gonal_range


class VerdictStatus(str, Enum):
    THEOREM = "theorem"
    CONJECTURE = "conjecture"
    PROVEN_FOR_TRIGONAL = "provenForTrigonal"


@dataclass(frozen=True)
class DivisibilityVerdict:
    """Modular degrees of families with a rational section are multiples
    of ``divisor``; ``status`` records how firmly that is known."""

    divisor: int
    status: VerdictStatus
    sharp: bool

    def __post_init__(self) -> None:
        if self.divisor <= 0:
            raise DomainError(f"divisor must be positive (got {self.divisor})")


@dataclass(frozen=True)
class PicardLattice:
    """Rank-2 lattice spanned by the relative canonical class (vertical
    degree 2g-2) and the relative pencil (vertical degree n)."""

    g: int
    n: int

    def __post_init__(self) -> None:
        require_at_least("g", self.g, 2)
        require_at_least("n", self.n, 2)

    @property
    def generator_degrees(self) -> tuple[int, int]:
        return (2 * self.g - 2, self.n)

    def degree_of(self, alpha: int, beta: int) -> int:
        """Vertical degree of alpha * omega + beta * pencil."""
        return alpha * (2 * self.g - 2) + beta * self.n


def degree_subgroup(g: int, n: int) -> int:
    """Generator of the image of the degree map: gcd(2g-2, n)."""
    return gcd(*PicardLattice(g, n).generator_degrees)


def modular_degree_constraint(g: int, n: int) -> DivisibilityVerdict:
    """Divisibility constraint on the modular degree of a family with a
    rational section and maximal variation of moduli.

    n = 2: a multiple of 2, a theorem in any characteristic != 2.
    n = 3: a multiple of gcd(3, 2g-2), proved.
    n >= 4: a multiple of gcd(n, 2g-2), conjectural.  For n >= 3 the
    hypothesis 4 <= 2n-2 < g is required.
    """
    require_at_least("g", g, 2)
    require_at_least("n", n, 2)
    if n == 2:
        return DivisibilityVerdict(2, VerdictStatus.THEOREM, sharp=True)
    require_gonal_range(g, n)
    divisor = gcd(n, 2 * g - 2)
    status = VerdictStatus.PROVEN_FOR_TRIGONAL if n == 3 else VerdictStatus.CONJECTURE
    return DivisibilityVerdict(divisor, status, sharp=True)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, x, y) with a*x + b*y = d = gcd(a, b)."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    d, next_d = a, b
    while next_d:
        q = d // next_d
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        d, next_d = next_d, d - q * next_d
    if d < 0:
        x, y, d = -x, -y, -d
    return d, x, y


def solve_degree(g: int, n: int, target: int) -> tuple[int, int] | None:
    """Integers (alpha, beta) with alpha*(2g-2) + beta*n = target, if any.

    Returns None when gcd(2g-2, n) does not divide the target.  The
    witness is canonicalized to minimal |alpha|, ties broken by
    alpha >= 0, so output is deterministic.
    """
    w, pencil = PicardLattice(g, n).generator_degrees
    d, x, _ = _xgcd(w, pencil)
    if target % d != 0:
        return None
    step = pencil // d
    alpha = (x * (target // d)) % step
    if 2 * alpha > step:
        alpha -= step
    beta = (target - alpha * w) // pencil
    return (alpha, beta)


@dataclass(frozen=True)
class SharpnessWitness:
    """Effective generator degrees certifying that the gcd constraint is
    attained: the fiber-cut divisor has vertical degree n and the
    relative canonical divisor has vertical degree 2g-2."""

    fiber_degree: int
    canonical_degree: int
    achieved_divisor: int
    combination: tuple[int, int]


def sharpness_witness(g: int, n: int) -> SharpnessWitness:
    """Arithmetic certificate for sharpness of the divisibility bound.

    The two effective degrees are n and 2g-2; their gcd is realized by
    the returned integer combination, so no multiple of a larger d can
    constrain every family.
    """
    if n < 3:
        raise DomainError(f"requires 4 <= 2n-2 (got 2n-2={2 * n - 2})")
    require_gonal_range(g, n)
    divisor = degree_subgroup(g, n)
    combination = solve_degree(g, n, divisor)
    assert combination is not None
    return SharpnessWitness(n, 2 * g - 2, divisor, combination)
