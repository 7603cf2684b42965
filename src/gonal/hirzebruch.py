"""Closed-form line-bundle cohomology on Hirzebruch surfaces.

F_e is the P^1-bundle over P^1 with a section C_0 of self-intersection
-e and fiber f; divisor classes are written a*C_0 + b*f.  The oracle has
exactly two primitive ingredients: the pushforward formula for h^0 and
the surface Riemann-Roch for chi.  h^2 comes from Serre duality, so any
inconsistency between the ingredients surfaces as a negative h^1 and is
raised, never clamped.

For trigonal curves the generic scroll is one of these surfaces: F_0
when g is even, F_1 when g is odd.  Restricting multiples of the fiber
class to a curve in the class 3D + (4-g)f computes section counts of
multiples of the degree-3 pencil by the restriction exact sequence,
independently of the piecewise formulas in ``invariants``.  The same
trick does not extend to n >= 4, where the curve has codimension n-2
in the scroll and is no longer a divisor.
"""

from typing import NamedTuple

from .errors import ConsistencyError, DomainError, _Validated, require_at_least, require_scroll_range


class _BundleFields(NamedTuple):
    e: int
    a: int
    b: int


class FeBundle(_Validated, _BundleFields):
    """A line bundle a*C_0 + b*f on the Hirzebruch surface F_e.

    Intersection rules: C_0^2 = -e, C_0.f = 1, f^2 = 0.
    """

    # no repeats and no multiples: a multiple is built as its own bundle
    __mul__ = __rmul__ = lambda self, other: NotImplemented

    def __new__(cls, e: int, a: int, b: int):
        require_at_least("e", e, 0)
        return tuple.__new__(cls, (e, a, b))

    @classmethod
    def _on(cls, e: int, a: int, b: int) -> "FeBundle":
        """The bundle a*C_0 + b*f on an F_e already validated: no check of e."""
        return tuple.__new__(cls, (e, a, b))

    def _coerce(self, other) -> "FeBundle":
        if not isinstance(other, FeBundle):
            raise TypeError(f"cannot combine FeBundle with {type(other).__name__}")
        if other.e != self.e:
            raise DomainError(f"bundles live on different surfaces: F_{self.e} vs F_{other.e}")
        return other

    def intersect(self, other: "FeBundle") -> int:
        other = self._coerce(other)
        return -self.e * self.a * other.a + self.a * other.b + other.a * self.b

    def __add__(self, other) -> "FeBundle":
        other = self._coerce(other)
        return self._on(self.e, self.a + other.a, self.b + other.b)

    def __sub__(self, other) -> "FeBundle":
        other = self._coerce(other)
        return self._on(self.e, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "FeBundle":
        return self._on(self.e, -self.a, -self.b)

    def __str__(self) -> str:
        sign = "-" if self.b < 0 else "+"
        return f"{self.a}*C0 {sign} {abs(self.b)}*f on F_{self.e}"


class Cohomology(NamedTuple):
    h0: int
    h1: int
    h2: int


def _dual(bundle: FeBundle) -> FeBundle:
    """The Serre dual K - L of L = bundle, with K = -2C_0 - (e+2)f."""
    return FeBundle._on(bundle.e, -2 - bundle.a, -(bundle.e + 2) - bundle.b)


def canonical_bundle(e: int) -> FeBundle:
    """The canonical class of F_e: -2C_0 - (e+2)f."""
    return _dual(FeBundle(e, 0, 0))


def _h0_switches(e: int, a: int) -> list[int]:
    """The b at which h^0(a*C_0 + b*f) changes slope: i*e - 1, i = 0..a."""
    return [i * e - 1 for i in range(a + 1)]


def _h0(bundle: FeBundle) -> int:
    # h^0(P^1, Sym^a(O + O(-e)) (x) O(b)) summed over the splitting: b - t
    # at each switch t = i*e - 1 below b, i = 0..m, summed in closed form
    a, b, e = bundle.a, bundle.b, bundle.e
    if a < 0 or b < 0:
        return 0
    m = min(a, b // e) if e else a
    return (m + 1) * (b + 1) - e * m * (m + 1) // 2


def bundle_cohomology(bundle: FeBundle) -> Cohomology:
    """(h^0, h^1, h^2) of the bundle, all exact integers.

    h^0 by pushforward, h^2 = h^0(K - L) by Serre duality, and
    h^1 = h^0 + h^2 - chi with chi = 1 + L.(L-K)/2 = 1 - L.(K-L)/2.
    A negative h^1 would mean the ingredients disagree and raises
    ConsistencyError.
    """
    h0 = _h0(bundle)
    dual = _dual(bundle)
    h2 = _h0(dual)
    chi = 1 - bundle.intersect(dual) // 2
    h1 = h0 + h2 - chi
    if h1 < 0:
        raise ConsistencyError(f"negative h^1 = {h1} for {bundle}: h0={h0}, h2={h2}, chi={chi}")
    return Cohomology(h0, h1, h2)


def trigonal_curve_bundle(g: int) -> FeBundle:
    """The class 3D + (4-g)f of a canonical trigonal curve on its surface.

    By adjunction this is 3C_0 + ((g+2+3e)/2) f on F_e with e = g mod 2:
    (3, (g+2)/2) on F_0 for g even and (3, (g+5)/2) on F_1 for g odd.
    """
    require_scroll_range(g, 3)
    e = g % 2
    return FeBundle._on(e, 3, (g + 2 + 3 * e) // 2)


def trigonal_h0_oracle(g: int, k: int) -> int:
    """Sections of k times the pencil on the generic trigonal curve.

    Computed from the restriction sequence
    0 -> O_S(kf - C) -> O_S(kf) -> O_C(kf) -> 0 on the surface S = F_e:
    the answer is h^0(kf) - h^0(kf - C) + h^1(kf - C), which is valid
    because h^1(O_S(kf)) = 0.  Both vanishing facts are asserted.
    """
    curve = trigonal_curve_bundle(g)
    require_at_least("k", k, 0)
    kf = FeBundle._on(curve.e, 0, k)
    on_s = bundle_cohomology(kf)
    twisted = bundle_cohomology(kf - curve)
    if twisted.h0 != 0:
        raise ConsistencyError(
            f"h^0(kf - C) = {twisted.h0} != 0 at (g={g}, k={k}); the C_0-coefficient should be -3"
        )
    if on_s.h1 != 0:
        raise ConsistencyError(f"h^1(O_S(kf)) = {on_s.h1} != 0 at (g={g}, k={k})")
    return on_s.h0 - twisted.h0 + twisted.h1


def trigonal_h0_switches(g: int) -> list[int]:
    """The k at which trigonal_h0_oracle(g, k) changes slope: the oracle is
    h^0(kf) + h^0(K + C - kf) - chi(kf - C), and chi is affine in k."""
    curve = trigonal_curve_bundle(g)
    dual = _dual(-curve)  # K + C - kf at k = 0
    return _h0_switches(curve.e, 0) + [dual.b - t for t in _h0_switches(dual.e, dual.a)]


class RatherFreeResult(NamedTuple):
    pairing: int
    is_rather_free: bool


def _rather_free_criterion(pairing: int, irregularity: int) -> bool:
    # sufficient criterion: (L.K_S) <= -2 on a surface with h^1(O_S) = 0
    return pairing <= -2 and irregularity == 0


def rather_free_check(g: int) -> RatherFreeResult:
    """Check that the trigonal curve system separates points fiberwise.

    Returns the intersection pairing (K_S . L) on the surface F_e itself,
    -g-8 by adjunction, together with the verdict of the sufficient
    criterion: pairing <= -2 and h^1(O_S) = 0.
    """
    curve = trigonal_curve_bundle(g)
    pairing = canonical_bundle(curve.e).intersect(curve)
    irregularity = bundle_cohomology(FeBundle(curve.e, 0, 0)).h1
    return RatherFreeResult(pairing, _rather_free_criterion(pairing, irregularity))
