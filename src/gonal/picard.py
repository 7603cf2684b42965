"""Degree lattice of rationally determined line bundles on gonal families.

On the universal family of n-gonal curves the relative canonical sheaf
has vertical degree 2g-2 and the relative degree-n pencil has vertical
degree n; the degrees they span form the subgroup gcd(2g-2, n) * Z.
The divisibility verdicts below keep track of their epistemic status:
proved in general for n = 2, proved for n = 3, conjectural for n >= 4.
"""

from enum import Enum
from math import gcd
from typing import NamedTuple

from .errors import DomainError, _Validated, as_int, require_pencil_range, require_scroll_range


class VerdictStatus(str, Enum):
    THEOREM = "theorem"
    CONJECTURE = "conjecture"
    PROVEN_FOR_TRIGONAL = "provenForTrigonal"


class _VerdictFields(NamedTuple):
    divisor: int
    status: VerdictStatus
    sharp: bool


class DivisibilityVerdict(_Validated, _VerdictFields):
    """Modular degrees of families with a rational section are multiples
    of ``divisor``; ``status`` records how firmly that is known."""

    def __new__(cls, divisor: int, status: VerdictStatus, sharp: bool):
        if divisor <= 0:
            raise DomainError(f"divisor must be positive (got {divisor})")
        return tuple.__new__(cls, (divisor, status, sharp))


def degree_subgroup(g: int, n: int) -> int:
    """Generator of the image of the degree map: gcd(2g-2, n)."""
    require_pencil_range(g, n)
    return gcd(2 * g - 2, n)


def modular_degree_constraint(g: int, n: int) -> DivisibilityVerdict:
    """Divisibility constraint on the modular degree of a family with a
    rational section and maximal variation of moduli.

    n = 2: a multiple of 2, a theorem in any characteristic != 2.
    n = 3: a multiple of gcd(3, 2g-2), proved.
    n >= 4: a multiple of gcd(n, 2g-2), conjectural.  For n >= 3 the
    hypothesis 4 <= 2n-2 < g is required.
    """
    require_pencil_range(g, n)
    if n == 2:
        return DivisibilityVerdict(2, VerdictStatus.THEOREM, sharp=True)
    require_scroll_range(g, n)
    divisor = gcd(n, 2 * g - 2)
    status = VerdictStatus.PROVEN_FOR_TRIGONAL if n == 3 else VerdictStatus.CONJECTURE
    return DivisibilityVerdict(divisor, status, sharp=True)


def solve_degree(g: int, n: int, target: int) -> tuple[int, int] | None:
    """Integers (alpha, beta) with alpha*(2g-2) + beta*n = target, if any.

    Returns None when gcd(2g-2, n) does not divide the target.  The
    witness is canonicalized to minimal |alpha|, ties broken by
    alpha >= 0, so output is deterministic.
    """
    require_pencil_range(g, n)
    as_int("target", target)
    w, pencil = 2 * g - 2, n
    d = gcd(w, pencil)
    if target % d != 0:
        return None
    step = pencil // d
    alpha = pow(w // d, -1, step) * (target // d) % step
    if 2 * alpha > step:
        alpha -= step
    beta = (target - alpha * w) // pencil
    return (alpha, beta)
