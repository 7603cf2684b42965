"""Tests for binary forms, discriminants, and the model twist."""

import dataclasses
import math
import random
from fractions import Fraction
from math import isqrt

import pytest

from gonal.errors import DomainError, UnsupportedError
from gonal.hyperelliptic import (
    _MR_BOUND,
    BinaryForm,
    HyperellipticModel,
    discriminant_nonzero,
    _is_prime,
    hg_dimension,
    twist_with_point,
)


def poly_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def from_roots(roots, degree):
    """Coefficients of prod (x - r), padded with zeros up to the form degree."""
    cs = [1]
    for r in roots:
        cs = poly_mul(cs, [-r, 1])
    return cs + [0] * (degree + 1 - len(cs))


class TestBinaryForm:
    def test_degree_validation(self):
        with pytest.raises(DomainError):
            BinaryForm(5, (0,) * 6)  # odd degree
        with pytest.raises(DomainError):
            BinaryForm(4, (0,) * 5)  # genus would be < 2
        with pytest.raises(DomainError):
            BinaryForm(6, (0,) * 6)  # wrong coefficient count

    def test_characteristic_two_unsupported(self):
        with pytest.raises(UnsupportedError):
            BinaryForm(6, (1,) * 7, p=2)

    def test_composite_modulus_rejected(self):
        with pytest.raises(DomainError):
            BinaryForm(6, (1,) * 7, p=9)

    def test_large_prime_modulus_accepted(self):
        p = 2**61 - 1
        form = BinaryForm(6, (-1, 1, 0, 0, 0, 0, 1), p=p)
        assert form.coefficients[0] == p - 1

    def test_rational_normalization(self):
        form = BinaryForm(6, (1, 2, 3, 4, 5, 6, 7))
        assert all(isinstance(c, Fraction) for c in form.coefficients)
        assert form.genus == 2

    def test_prime_field_normalization(self):
        form = BinaryForm(6, (-1, 12, 0, 0, 0, 0, 7), p=7)
        assert form.coefficients == (6, 5, 0, 0, 0, 0, 0)

    def test_prime_field_takes_integers_only(self):
        with pytest.raises(DomainError, match=r"^GF\(7\) scalars must be integers \(got Fraction\(1, 2\)\)$"):
            BinaryForm(6, (Fraction(1, 2), 0, 0, 0, 0, 0, 1), p=7)

    def test_evaluate(self):
        form = BinaryForm(6, from_roots([0, 1, 2, 3, 4, 5], 6))
        assert form.evaluate(6) == 720
        assert form.evaluate(Fraction(1, 2)) == Fraction(-945, 64)
        gf = BinaryForm(6, from_roots([0, 1, 2, 3, 4, 5], 6), p=101)
        assert gf.evaluate(6) == 720 % 101


class TestRecords:
    """BinaryForm and HyperellipticModel are NamedTuples that validate."""

    def test_tuple_of_fields(self):
        form = BinaryForm(6, [-1, 0, 0, 0, 0, 0, 1], p=7)
        assert form == (6, (6, 0, 0, 0, 0, 0, 1), 7)
        assert hash(form) == hash((6, (6, 0, 0, 0, 0, 0, 1), 7))
        model = HyperellipticModel(3, form)
        degree, coefficients, p = form
        assert (degree, p, tuple(model)) == (6, 7, (3, form))
        assert HyperellipticModel._fields == ("a", "form")
        with pytest.raises(TypeError):
            dataclasses.fields(form)

    def test_replace_and_make_validate(self):
        gf7 = BinaryForm(6, (-1, 0, 0, 0, 0, 0, 1), 7)
        assert gf7._replace(p=5).coefficients == (1, 0, 0, 0, 0, 0, 1)  # 6 mod 5
        form = BinaryForm(6, (-1, 0, 0, 0, 0, 0, 1))
        assert {type(c) for c in form._replace(coefficients=[2] * 7).coefficients} == {Fraction}
        with pytest.raises(DomainError, match="need 9 coefficients"):
            form._replace(degree=8)
        with pytest.raises(DomainError, match="need 7 coefficients"):
            BinaryForm._make((6, (1,) * 6, None))
        model = HyperellipticModel(3, form)
        with pytest.raises(DomainError, match="requires a != 0"):
            model._replace(a=0)
        with pytest.raises(DomainError, match="vanishing discriminant"):
            model._replace(form=BinaryForm(6, (0, 0, 1, 0, 0, 0, 1)))

    def test_fields_and_verdict_are_fixed(self, monkeypatch):
        import gonal.hyperelliptic as hyperelliptic

        calls = []
        decide = hyperelliptic.discriminant_nonzero
        monkeypatch.setattr(
            hyperelliptic, "discriminant_nonzero", lambda f: calls.append(f) or decide(f)
        )
        form = BinaryForm(6, (-1, 0, 0, 0, 0, 0, 1))
        model = HyperellipticModel(3, form)
        assert form.smooth and form.smooth and len(calls) == 1
        for obj, name in ((form, "degree"), (form, "smooth"), (model, "a")):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert form.smooth and len(calls) == 1


# inexact or unparsed values the rationals refuse, as GF(p) refuses non-integers
INEXACT = [0.1, math.nan, math.inf, 1 + 2j, "1/2"]
SQUAREFREE = (-1, 0, 0, 0, 0, 0, 1)
ENTRY_POINTS = {
    "BinaryForm": lambda v: BinaryForm(6, (v,) + SQUAREFREE[1:]),
    "HyperellipticModel": lambda v: HyperellipticModel(v, BinaryForm(6, SQUAREFREE)),
    "evaluate": lambda v: BinaryForm(6, SQUAREFREE).evaluate(v),
    "residual": lambda v: HyperellipticModel(1, BinaryForm(6, SQUAREFREE)).residual(1, v),
    "twist_with_point": lambda v: twist_with_point(
        HyperellipticModel(1, BinaryForm(6, SQUAREFREE)), v
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("value", INEXACT, ids=repr)
def test_rationals_take_exact_scalars_only(entry, value):
    with pytest.raises(DomainError) as refused:
        ENTRY_POINTS[entry](value)
    name = type(value).__name__
    assert str(refused.value) == f"Q scalars must be int or Fraction (got {name})"


def test_exact_scalars_accepted():
    form = BinaryForm(6, (True, 0, 0, 0, 0, 0, Fraction(1)))
    assert form.coefficients[0] == 1 and isinstance(form.coefficients[0], Fraction)
    assert HyperellipticModel(Fraction(1, 2), form).residual(True, 2) == 0


class TestIsPrime:
    def test_agrees_with_trial_division_below_1e5(self):
        def by_trial_division(p):
            return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))

        for p in range(10**5):
            assert _is_prime(p) == by_trial_division(p), p

    def test_pseudoprimes_rejected(self):
        assert not _is_prime(561)  # Carmichael number
        assert not _is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7

    def test_mersenne_prime_accepted(self):
        assert _is_prime(2**61 - 1)

    def test_above_bound_raises(self):
        with pytest.raises(DomainError):
            _is_prime(_MR_BOUND)
        with pytest.raises(DomainError, match="requires p < "):
            BinaryForm(6, (1,) * 7, p=2**89 - 1)  # prime, but past the bound


class TestDiscriminant:
    def test_distinct_roots(self):
        form = BinaryForm(6, from_roots([0, 1, 2, 3, 4, 5], 6))
        assert discriminant_nonzero(form)

    def test_repeated_root(self):
        form = BinaryForm(6, from_roots([0, 0, 1, 2, 3, 4], 6))
        assert not discriminant_nonzero(form)

    def test_x6_minus_y6(self):
        form = BinaryForm(6, (-1, 0, 0, 0, 0, 0, 1))
        assert discriminant_nonzero(form)

    def test_double_root_at_infinity(self):
        # y^2 divides the form when the two top coefficients vanish
        form = BinaryForm(6, (1, 1, 1, 1, 1, 0, 0))
        assert not discriminant_nonzero(form)
        assert not discriminant_nonzero(form, method="resultant")

    def test_simple_root_at_infinity(self):
        # y * (squarefree of degree 5): still rank 2g+2 distinct roots
        form = BinaryForm(6, from_roots([0, 1, 2, 3, 4], 6))
        assert discriminant_nonzero(form)
        # y * (degree 5 with a double root): not squarefree
        form = BinaryForm(6, from_roots([0, 0, 1, 2, 3], 6))
        assert not discriminant_nonzero(form)

    def test_zero_form(self):
        assert not discriminant_nonzero(BinaryForm(6, (0,) * 7))

    def test_derivative_zero_mod_p(self):
        # x^6 + 1 = (x^2 + 1)^3 over GF(3), and f' = 6x^5 vanishes there
        form = BinaryForm(6, (1, 0, 0, 0, 0, 0, 1), p=3)
        assert not discriminant_nonzero(form)
        assert not discriminant_nonzero(form, method="resultant")

    def test_constant_derivative_mod_p(self):
        # x^5 + x + 1 over GF(5), with a simple root at infinity: f' = 5x^4 + 1 = 1
        form = BinaryForm(6, (1, 1, 0, 0, 0, 1, 0), p=5)
        assert discriminant_nonzero(form)
        assert discriminant_nonzero(form, method="resultant")

    def test_gcd_vs_resultant_random(self):
        p = 10007
        rng = random.Random(4242)
        for trial in range(200):
            genus = rng.choice((2, 3, 4))
            d = 2 * genus + 2
            if trial % 3 == 0:
                cs = [rng.randrange(p) for _ in range(d + 1)]
            elif trial % 3 == 1:
                # plant an affine double root
                r = rng.randrange(p)
                rest = [rng.randrange(p) for _ in range(d - 2)] + [rng.randrange(1, p)]
                cs = poly_mul([r * r % p, -2 * r % p, 1], rest)
            else:
                # drop the top coefficient: root at infinity
                cs = [rng.randrange(p) for _ in range(d)] + [0]
            form = BinaryForm(d, tuple(c % p for c in cs), p=p)
            assert discriminant_nonzero(form, "gcd") == discriminant_nonzero(
                form, "resultant"
            )

    def test_gcd_vs_resultant_rationals(self):
        rng = random.Random(7)
        for _ in range(40):
            cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9)]
            form = BinaryForm(8, tuple(cs))
            assert discriminant_nonzero(form, "gcd") == discriminant_nonzero(
                form, "resultant"
            )

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            discriminant_nonzero(BinaryForm(6, (-1, 0, 0, 0, 0, 0, 1)), "magic")


class TestBareissSkip:
    """Over GF(p) the Bareiss route leaves a row whose lead is already zero
    as it is, since the step would only scale it by a unit; over Z every
    row below the pivot is stepped, so that the exact division holds."""

    P = 10007
    # x^6 + x^3 + 1, the ninth cyclotomic polynomial, squarefree mod P, and
    # (x - 3)^2 (x^4 + 1), with a double root
    FORMS = {"squarefree": [1, 0, 0, 1, 0, 0, 1], "planted": poly_mul([9, -6, 1], [1, 0, 0, 0, 1])}

    @pytest.fixture
    def steps(self, monkeypatch):
        """The rows a Bareiss step rewrites, counted at their zip."""
        from gonal import hyperelliptic

        rows = []

        def counted(*columns):
            rows.append(1)
            return zip(*columns)

        monkeypatch.setattr(hyperelliptic, "zip", counted, raising=False)
        return rows

    @pytest.mark.parametrize("kind", sorted(FORMS))
    def test_skips_zero_leads_mod_p_only(self, steps, kind):
        stepped = {}
        for p in (self.P, None):
            steps.clear()
            form = BinaryForm(6, tuple(self.FORMS[kind]), p=p)
            assert discriminant_nonzero(form, "resultant") == (kind == "squarefree")
            stepped[p] = len(steps)
            assert discriminant_nonzero(form, "gcd") == (kind == "squarefree")
        # the 6 x 6 Bezout matrix of f and f' is sparse: mod p some rows
        # below a pivot already lead with 0, and are left alone
        assert 0 < stepped[self.P] < stepped[None]


def oracle_form(genus: int, kind: str) -> list:
    """Seeded coefficients c_0..c_{2g+2} of one kind of form."""
    rng = random.Random(100 * genus + len(kind))
    d = 2 * genus + 2

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    if kind == "integer":
        return [rng.randint(-9, 9) for _ in range(d)] + [rng.choice((-1, 1))]
    if kind == "rational":
        return [rational() for _ in range(d + 1)]
    if kind == "planted":  # (x - 3/2)^2 times a rational form of degree d - 2
        return poly_mul([Fraction(9, 4), -3, 1], [rational() for _ in range(d - 1)])
    assert kind == "infinity"  # top coefficient 0: a simple root at infinity
    return [rational() for _ in range(d - 1)] + [Fraction(rng.randint(1, 9), 7), 0]


ORACLE_CASES = [
    (genus, kind, method)
    for genus in (20, 40)
    for kind in ("integer", "rational", "planted", "infinity")
    for method in ("gcd", "resultant")
]


class TestSympyOracle:
    """Both routes against sympy.discriminant, a test-only oracle."""

    @pytest.fixture(scope="class")
    def sympy(self):
        return pytest.importorskip("sympy")

    @pytest.mark.parametrize("genus,kind,method", ORACLE_CASES, ids=str)
    def test_agrees_with_sympy(self, sympy, genus, kind, method):
        cs = [Fraction(c) for c in oracle_form(genus, kind)]
        top = max(i for i, c in enumerate(cs) if c != 0)
        poly = sympy.Poly.from_list(
            [sympy.Rational(c.numerator, c.denominator) for c in cs[top::-1]],
            sympy.Symbol("x"),
            domain="QQ",
        )
        # a root at infinity is simple exactly when one of the top two
        # coefficients of the form is nonzero
        expected = poly.discriminant() != 0 and (cs[-1] != 0 or cs[-2] != 0)
        assert expected == (kind != "planted")
        form = BinaryForm(2 * genus + 2, tuple(cs))
        assert discriminant_nonzero(form, method) == expected


class TestModel:
    def squarefree_form(self, p=None):
        return BinaryForm(6, from_roots([0, 1, 2, 3, 4, 5], 6), p=p)

    def test_rejects_zero_scalar(self):
        with pytest.raises(DomainError):
            HyperellipticModel(0, self.squarefree_form())

    def test_rejects_singular_form(self):
        with pytest.raises(DomainError):
            HyperellipticModel(1, BinaryForm(6, from_roots([0, 0, 1, 2, 3, 4], 6)))

    def test_residual(self):
        model = HyperellipticModel(2, self.squarefree_form())
        assert model.residual(6, 1) == 2 - 720
        assert model.residual(6, 0) == -720


class TestTwist:
    def test_verbatim_construction(self):
        # a = 2 and a form with f(0) = 5: the twist at 0 rescales a to 5
        cs = from_roots([1, 2, 3, 4, 5], 6)  # degree-5 product, f(0) = -120
        cs = [c * Fraction(-1, 24) for c in cs]  # make f(0) = 5
        form = BinaryForm(6, cs)
        assert form.evaluate(0) == 5
        model = HyperellipticModel(2, form)
        twisted, point = twist_with_point(model, 0)
        assert twisted.a == 5
        assert point == (0, 1)
        assert twisted.form == model.form

    def test_point_satisfies_equation(self):
        model = HyperellipticModel(3, BinaryForm(6, (-1, 0, 0, 0, 0, 0, 1)))
        for x0 in (0, 2, Fraction(1, 3), -7):
            twisted, point = twist_with_point(model, x0)
            assert twisted.residual(*point) == 0
            assert twisted.form == model.form

    def test_root_rejected(self):
        model = HyperellipticModel(
            1, BinaryForm(6, from_roots([0, 1, 2, 3, 4, 5], 6))
        )
        with pytest.raises(DomainError):
            twist_with_point(model, 3)

    def test_prime_field_twist(self):
        form = BinaryForm(6, from_roots([0, 1, 2, 3, 4, 5], 6), p=101)
        model = HyperellipticModel(7, form)
        twisted, point = twist_with_point(model, 50)
        assert twisted.residual(*point) == 0
        assert twisted.a == form.evaluate(50)


class TestHgDimension:
    def test_examples(self):
        assert hg_dimension(2) == 3
        assert hg_dimension(3) == 5

    def test_decomposition(self):
        # dim P(binary forms of degree 2g+2) minus dim PGL(2)
        for g in range(2, 50):
            assert hg_dimension(g) == (2 * g + 2) - 3 == 2 * g - 1

    def test_range(self):
        with pytest.raises(DomainError):
            hg_dimension(1)
