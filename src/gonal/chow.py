"""Exact arithmetic in the Chow ring of a rational normal scroll.

A non-singular rational normal scroll of dimension n-1 and degree g-n+1
inside P^{g-1} has Chow ring generated by the hyperplane class D and the
fiber class f, subject to the relations

    f^2 = 0,        D^{n-1} = (g-n+1) * D^{n-2} f.

Classes are stored in the normal form these relations induce: integer
combinations of the monomials D^a f^b with 0 <= a <= n-2 and b in {0, 1}.
Monomials of codimension above n-1 vanish for dimension reasons.  The
point class is D^{n-2} f, normalized to degree 1, so deg(D^{n-1}) equals
the scroll degree g-n+1.

Coefficients are arbitrary-precision integers; there is no floating
point anywhere in this module.  All values are immutable after
construction and all operations are pure, so everything is safe for
unrestricted concurrent use.
"""

from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DomainError, _Validated, as_int, require_scroll_range

# (a, b): exponents of D and f
Monomial = tuple[int, int]


class _AmbientFields(NamedTuple):
    g: int
    n: int


class AmbientScroll(_Validated, _AmbientFields):
    """The scroll attached to a genus-g curve with a degree-n pencil.

    It has dimension n-1 and degree g-n+1 inside P^{g-1}.  The standing
    range assumption is n >= 3 and 2n-2 < g.
    """

    def __new__(cls, g: int, n: int):
        g, n = as_int("g", g), as_int("n", n)
        require_scroll_range(g, n)
        return tuple.__new__(cls, (g, n))

    @property
    def dimension(self) -> int:
        return self.n - 1

    @property
    def degree(self) -> int:
        return self.g - self.n + 1

    def unit(self) -> "ChowClass":
        return ChowClass(self, {(0, 0): 1})

    def monomial(self, a: int, b: int) -> "ChowClass":
        return ChowClass(self, {(a, b): 1})

    def point_class(self) -> "ChowClass":
        return ChowClass(self, {(self.n - 2, 1): 1})

    def hyperplane(self) -> "ChowClass":
        # D and f are basis monomials of normal form, since n >= 3
        return _class(self, {(1, 0): 1})

    def fiber(self) -> "ChowClass":
        return _class(self, {(0, 1): 1})


def _normal_form(ambient: AmbientScroll, terms: Iterable[tuple[Monomial, int]]) -> dict:
    """Sum the terms c * D^a f^b, given as ((a, b), c) with a, b >= 0, in
    normal form.

    The one home of the rewriting rules: f^2 = 0, monomials above
    codimension n-1 vanish, and D^{n-1} = deg(X) D^{n-2} f.  Zero
    coefficients are dropped.
    """
    top = ambient.n - 1
    acc: dict[Monomial, int] = {}
    for m, c in terms:
        a, b = m
        if c and b < 2 and a + b <= top:  # else killed by f^2 = 0 or codim > dim X
            if a == top:
                # here b = 0: substitute D^{n-1} = deg(X) D^{n-2} f
                m, c = (top - 1, 1), c * ambient.degree
            acc[m] = acc.get(m, 0) + c
    return {m: c for m, c in acc.items() if c} if 0 in acc.values() else acc


def _class(ambient: AmbientScroll, coeffs: dict) -> "ChowClass":
    """A ChowClass from coefficients already in normal form, zeros dropped."""
    x = object.__new__(ChowClass)
    x.ambient = ambient
    x._coeffs = coeffs
    return x


class ChowClass:
    """An integer cycle class on a scroll, kept in normal form.

    Construct from a mapping of monomials (a, b) to coefficients; any
    monomials outside the normal-form basis are rewritten on the spot.
    Supports +, -, * (by another class or an integer); a divisor is a
    class of codimension 1.  The constructor, each product, each sum and
    each difference pass their terms through _normal_form once; negation,
    integer multiples, D and f are normal by construction and skip it.
    """

    __slots__ = ("ambient", "_coeffs")

    def __init__(
        self,
        ambient: AmbientScroll,
        coeffs: Mapping[Monomial, int] | None = None,
    ) -> None:
        self.ambient = ambient
        # products of classes keep their exponents non-negative: only here
        # can a negative one come in
        if coeffs and min(map(min, coeffs)) < 0:
            a, b = next(m for m in coeffs if min(m) < 0)
            raise DomainError(f"negative exponent in monomial D^{a} f^{b}")
        self._coeffs = _normal_form(ambient, coeffs.items()) if coeffs else {}

    @property
    def coefficients(self) -> dict[Monomial, int]:
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def codimensions(self) -> set[int]:
        """Codimensions a+b present in this class (empty for the zero class)."""
        return set(map(sum, self._coeffs))

    def degree(self) -> int:
        """Coefficient of the point class D^{n-2} f; 0 if there is no top part."""
        return self._coeffs.get((self.ambient.n - 2, 1), 0)

    def _coerce(self, other) -> "ChowClass":
        if not isinstance(other, ChowClass):
            raise TypeError(f"cannot combine ChowClass with {type(other).__name__}")
        # identity first: the classes of one scroll share its AmbientScroll
        if other.ambient is not self.ambient and other.ambient != self.ambient:
            raise DomainError(
                f"classes live on different scrolls: "
                f"(g={self.ambient.g}, n={self.ambient.n}) vs "
                f"(g={other.ambient.g}, n={other.ambient.n})"
            )
        return other

    def __add__(self, other) -> "ChowClass":
        terms = [*self._coeffs.items(), *self._coerce(other)._coeffs.items()]
        return _class(self.ambient, _normal_form(self.ambient, terms))

    def __sub__(self, other) -> "ChowClass":
        return self + -self._coerce(other)

    def __neg__(self) -> "ChowClass":
        return _class(self.ambient, {m: -c for m, c in self._coeffs.items()})

    def __mul__(self, other) -> "ChowClass":
        if isinstance(other, int):
            coeffs = {m: other * c for m, c in self._coeffs.items()} if other else {}
            return _class(self.ambient, coeffs)
        y = self._coerce(other)._coeffs
        return _class(self.ambient, _normal_form(self.ambient, [
            ((a1 + a2, b1 + b2), c1 * c2)
            for (a1, b1), c1 in self._coeffs.items()
            for (a2, b2), c2 in y.items()
        ]))

    def __rmul__(self, other) -> "ChowClass":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, ChowClass):
            return self.ambient == other.ambient and self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ambient, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        bits: list[str] = []
        for (a, b), c in sorted(self._coeffs.items(), key=lambda mc: (sum(mc[0]), mc[0][1])):
            mono = _monomial_str(a, b)
            mag = abs(c)
            term = mono if (mag == 1 and mono != "1") else (
                f"{mag}" if mono == "1" else f"{mag}*{mono}"
            )
            if not bits:
                bits.append(term if c > 0 else f"-{term}")
            else:
                bits.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(bits)


def _monomial_str(a: int, b: int) -> str:
    parts = []
    if a == 1:
        parts.append("D")
    elif a > 1:
        parts.append(f"D^{a}")
    if b == 1:
        parts.append("f")
    return "*".join(parts) if parts else "1"


def intersect_number(divisors: Sequence[ChowClass], tail: ChowClass) -> int:
    """Degree of the intersection product of divisor classes with a tail class.

    Each divisor must lie in codimension 1 (the zero class included).
    The tail must be homogeneous and the total codimension (one per
    divisor plus the tail's) must equal n-1; a zero tail gives 0.
    """
    ambient = tail.ambient
    for dv in divisors:
        if dv.codimensions() - {1}:
            raise DomainError(f"divisor {dv!r} is not of codimension 1")
    codims = tail.codimensions()
    if len(codims) > 1:
        raise DomainError(
            f"tail class is not homogeneous (codimensions {sorted(codims)})"
        )
    if codims:
        total = len(divisors) + codims.pop()
        if total != ambient.dimension:
            raise DomainError(
                f"total codimension {total} does not match n-1 = {ambient.dimension}"
            )
    product = tail
    for dv in divisors:
        product = product * dv
    return product.degree()
