"""Hyperelliptic models a*y^2 = f(x) and the rescaling twist.

A binary form of degree 2g+2 with nonvanishing discriminant cuts out a
smooth hyperelliptic curve of genus g; the point of the moduli space it
determines depends only on the form, not on the scalar a.  Rescaling
a to f(x0) therefore moves inside one isomorphism class of models while
making (x0, 1) a rational point.

Coefficients live in an exact domain: the rationals (p=None, stored as
Fraction) or a prime field GF(p) with p odd.  Characteristic 2 is
refused outright.  Discriminant vanishing is decided by two independent
routes, the Euclidean algorithm on (f, f') and a Bezout-matrix
resultant, which must and do agree.  Both run on integers only: a
rational form is first scaled by the least common denominator of its
coefficients, which keeps every root.  Euclid then runs on
pseudo-remainders, each reduced to its primitive part (Collins, J. ACM
14, 1967), and the resultant is decided by Bareiss elimination, which
divides exactly by the previous pivot (Math. Comp. 22, 1968).  Over
GF(p) the steps are reduced mod p instead.  No coefficient
becomes a fraction, so the default Euclid route stays practical for
large-genus forms.  BinaryForm and HyperellipticModel are read-only
NamedTuples that validate in __new__, as every record of the package is.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from numbers import Rational
from typing import NamedTuple

from .errors import DomainError, UnsupportedError, _Validated, as_int, require_at_least

Scalar = Fraction | int


# Miller-Rabin with the prime bases up to 41 is exact below the least
# strong pseudoprime to all of them, _MR_BOUND (Sorenson and Webster,
# Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


# The sweep builds 200 forms over one prime field: each p is decided once.
@lru_cache(maxsize=4)
def _is_prime(p: int) -> bool:
    """Deterministic primality for p below _MR_BOUND; larger p is refused."""
    if p >= _MR_BOUND:
        raise DomainError(f"requires p < {_MR_BOUND} (got p={p})")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _normalize_scalar(c, p: int | None) -> Scalar:
    if p is None:
        if isinstance(c, Rational):
            return Fraction(c)
        raise DomainError(f"Q scalars must be int or Fraction (got {type(c).__name__})")
    if not isinstance(c, int):
        raise DomainError(f"GF({p}) scalars must be integers (got {c!r})")
    return c % p


def _reduce(cs: list, p: int | None) -> list:
    """The trimmed canonical associate of an integer polynomial: its
    primitive part over Z (p=None), its residues mod p over GF(p)."""
    if p is None:
        content = gcd(*cs)
        cs = [c // content for c in cs] if content > 1 else list(cs)
    else:
        cs = [c % p for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _gcd_degree(f: list, h: list, p: int | None) -> int:
    """Degree of gcd(f, h) over Q or GF(p); integer inputs, both nonzero.

    Euclid on pseudo-remainders: each division step scales by the
    divisor's leading coefficient instead of dividing by it, and each
    step is reduced by _reduce, so no fraction arises and the integer
    coefficients stay primitive.
    """
    a, b = _reduce(f, p), _reduce(h, p)
    while b:
        while len(a) >= len(b):
            q, shift = a[-1], len(a) - len(b)
            a = [b[-1] * c for c in a]
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            a = _reduce(a, p)
        a, b = b, a
    return len(a) - 1


def _resultant_nonzero(f: list, h: list, p: int | None) -> bool:
    """Res(f, h) != 0, decided by Bareiss elimination on the Bezout matrix
    of the two nonzero integer polynomials, where deg f > deg h once both
    are reduced, as for f and f'.

    With m = deg f, the m x m Bezout matrix holds the
    coefficients of (f(x) h(y) - f(y) h(x)) / (x - y).  Its determinant is
    +-lc(f)^(m - deg h) Res(f, h), so it vanishes exactly when the
    resultant does, at half the order of the Sylvester matrix.  Over Z
    each step divides exactly by the previous pivot, so entries stay
    minors of the matrix.  Over GF(p) the step is reduced mod p instead,
    and a row whose lead is already zero is left as it is: the step would
    only scale it by the pivot, a unit mod p, which keeps whether the
    determinant vanishes.
    """
    f, h = _reduce(f, p), _reduce(h, p)
    m, t = len(f) - 1, len(h) - 1
    if t == 0:
        return True  # a nonzero constant shares no root with anything
    h += [0] * (m - t)
    # the coefficient of x^i y^j, symmetric in i and j, is that of
    # x^(i-1) y^(j+1) plus f_(j+1) h_i - f_i h_(j+1) for i <= j
    mat = [[0] * m for _ in range(m)]
    for i in range(m):
        above = mat[i - 1] if i else [0] * m
        for j in range(i, m):
            x = (above[j + 1] if j + 1 < m else 0) + f[j + 1] * h[i] - f[i] * h[j + 1]
            mat[i][j] = mat[j][i] = x if p is None else x % p
    prev = 1
    for col in range(m):
        pivot = next((r for r in range(col, m) if mat[r][col] != 0), None)
        if pivot is None:
            return False
        mat[col], mat[pivot] = mat[pivot], mat[col]
        pv, tail = mat[col][col], mat[col][col + 1 :]
        for row in mat[col + 1 :]:
            lead = row[col]
            if p is None:
                row[col + 1 :] = [(pv * x - lead * y) // prev for x, y in zip(row[col + 1 :], tail)]
            elif lead:
                row[col + 1 :] = [(pv * x - lead * y) % p for x, y in zip(row[col + 1 :], tail)]
        prev = pv
    return True


class _FormFields(NamedTuple):
    degree: int
    coefficients: tuple
    p: int | None = None


class BinaryForm(_Validated, _FormFields):
    """A binary form of degree 2g+2: coefficients[i] multiplies x^i y^(d-i).

    Coefficients are normalized on construction into the chosen domain
    (Fraction for p=None, residues for an odd prime p).
    """

    def __new__(cls, degree: int, coefficients: tuple, p: int | None = None):
        degree = as_int("degree", degree)
        p = None if p is None else as_int("p", p)
        if degree < 6 or degree % 2 != 0:
            raise DomainError(f"degree must be 2g+2 with g >= 2 (got degree={degree})")
        if len(coefficients) != degree + 1:
            raise DomainError(
                f"need {degree + 1} coefficients (got {len(coefficients)})"
            )
        if p == 2:
            raise UnsupportedError("characteristic 2 is not supported")
        if p is not None and not _is_prime(p):
            raise DomainError(f"p = {p} is not prime")
        coefficients = tuple(_normalize_scalar(c, p) for c in coefficients)
        return super().__new__(cls, degree, coefficients, p)

    @property
    def genus(self) -> int:
        return (self.degree - 2) // 2

    @cached_property
    def smooth(self) -> bool:
        """discriminant_nonzero(self), decided once per form: every model
        on the form, the twisted one too, reads this verdict."""
        return discriminant_nonzero(self)

    def evaluate(self, x) -> Scalar:
        """The dehomogenized value f(x, 1)."""
        x = _normalize_scalar(x, self.p)
        acc = _normalize_scalar(0, self.p)
        for c in reversed(self.coefficients):
            acc = acc * x + c
            if self.p is not None:
                acc %= self.p
        return acc


def _integer_scaled(cs) -> list[int]:
    """The coefficients times the least common multiple of their denominators."""
    scale = 1
    for c in cs:
        scale *= c.denominator // gcd(scale, c.denominator)
    return [c.numerator * (scale // c.denominator) for c in cs]


def discriminant_nonzero(form: BinaryForm, method: str = "gcd") -> bool:
    """True iff the form has 2g+2 distinct roots in the projective line.

    The root at infinity (present when the top coefficient vanishes)
    must be simple, and the dehomogenization must be squarefree.
    method="gcd" decides squarefreeness by the Euclidean algorithm on
    (f, f'); method="resultant" decides it by Res(f, f') != 0 on the
    Bezout matrix.  The two routes agree everywhere.  Both see f
    with integer coefficients: scaled over Q, its residues over GF(p).
    """
    d, cs, p = form
    if cs[d] == 0 and cs[d - 1] == 0:
        return False  # root at infinity with multiplicity >= 2, or f = 0
    f = _integer_scaled(cs) if p is None else list(cs)  # keeps every root
    fp = _reduce([i * c for i, c in enumerate(f)][1:], p)
    if not fp:
        return False  # f' = 0 in characteristic p: f is a p-th power
    if method == "gcd":
        return _gcd_degree(f, fp, p) == 0
    if method == "resultant":
        return _resultant_nonzero(f, fp, p)
    raise ValueError(f"unknown method {method!r}")


class _ModelFields(NamedTuple):
    a: Scalar
    form: BinaryForm


class HyperellipticModel(_Validated, _ModelFields):
    """A smooth affine model a*y^2 = f(x) with a != 0."""

    def __new__(cls, a: Scalar, form: BinaryForm):
        a = _normalize_scalar(a, form.p)
        if a == 0:
            raise DomainError("requires a != 0")
        if not form.smooth:
            raise DomainError("the form has vanishing discriminant")
        return super().__new__(cls, a, form)

    def residual(self, x, y) -> Scalar:
        """a*y^2 - f(x); zero exactly when (x, y) lies on the curve."""
        p = self.form.p
        x = _normalize_scalar(x, p)
        y = _normalize_scalar(y, p)
        value = self.a * y * y - self.form.evaluate(x)
        return value % p if p is not None else value


def twist_with_point(model: HyperellipticModel, x0) -> tuple[HyperellipticModel, tuple]:
    """Rescale a to f(x0) != 0, producing a model through (x0, 1).

    The form is untouched, so the twisted model maps to the same moduli
    point; the returned point satisfies the new equation exactly.
    """
    value = model.form.evaluate(x0)
    if value == 0:
        raise DomainError(f"f(x0) = 0 at x0 = {x0}; pick x0 away from the roots")
    p = model.form.p
    point = (_normalize_scalar(x0, p), _normalize_scalar(1, p))
    return HyperellipticModel(value, model.form), point


def hg_dimension(g: int) -> int:
    """Dimension of the hyperelliptic locus: 2g-1.

    Computed as the dimension 2g+2 of the projective space of binary
    forms of degree 2g+2 minus the 3 dimensions of PGL(2).
    """
    require_at_least("g", g, 2)
    return (2 * g + 2) - 3
