"""Tests for the scroll intersection ring."""

import random

import pytest

from gonal.chow import AmbientScroll, ChowClass, intersect_number
from gonal.errors import DomainError


def brute_reduce(ambient, coeffs, rng):
    """Independent normal-form oracle: apply the two rewriting rules
    one redex at a time in random order until no redex is left."""
    terms = [(a, b, c) for (a, b), c in coeffs.items() if c]
    done = {}
    while terms:
        idx = rng.randrange(len(terms))
        a, b, c = terms.pop(idx)
        redexes = []
        if b >= 2:
            redexes.append("f")
        if a >= ambient.n - 1:
            redexes.append("D")
        if not redexes:
            done[(a, b)] = done.get((a, b), 0) + c
            continue
        rule = rng.choice(redexes)
        if rule == "f":
            continue  # f^2 = 0
        terms.append((a - 1, b + 1, c * ambient.degree))
    return {m: c for m, c in done.items() if c}


class TestAmbientScroll:
    def test_range_validation(self):
        with pytest.raises(DomainError):
            AmbientScroll(5, 2)
        with pytest.raises(DomainError):
            AmbientScroll(4, 3)  # 2n-2 = 4 = g
        with pytest.raises(DomainError, match="2n-2 < g"):
            AmbientScroll(8, 5)

    def test_derived_quantities(self):
        amb = AmbientScroll(9, 4)
        assert amb.dimension == 3
        assert amb.degree == 6


class TestNormalForm:
    def test_fiber_squared_is_zero(self):
        amb = AmbientScroll(5, 3)
        f = amb.fiber()
        assert (f * f).is_zero()

    def test_hyperplane_square_trigonal(self):
        amb = AmbientScroll(5, 3)
        d = amb.hyperplane()
        assert (d * d).coefficients == {(1, 1): 3}

    def test_mixed_product(self):
        # (-2D + f)(3D - f) = -13 Df on the genus-5 trigonal scroll,
        # by hand: -6 D^2 + 5 Df with D^2 = 3 Df
        amb = AmbientScroll(5, 3)
        x = ChowClass(amb, {(1, 0): -2, (0, 1): 1})
        y = ChowClass(amb, {(1, 0): 3, (0, 1): -1})
        assert (x * y).coefficients == {(1, 1): -13}

    def test_high_powers_vanish(self):
        amb = AmbientScroll(9, 4)
        d = amb.hyperplane()
        d3 = d * d * d
        assert d3.degree() == 6  # the scroll degree g-n+1
        assert (d3 * d).is_zero()

    def test_point_class_normalization(self):
        for g, n in [(5, 3), (6, 3), (9, 4), (11, 5), (20, 6)]:
            amb = AmbientScroll(g, n)
            assert amb.point_class().degree() == 1
            top = amb.monomial(n - 2, 0) * amb.fiber()
            assert top.degree() == 1

    def test_top_hyperplane_power_is_scroll_degree(self):
        for g, n in [(5, 3), (9, 4), (13, 5)]:
            amb = AmbientScroll(g, n)
            power = amb.unit()
            for _ in range(n - 1):
                power = power * amb.hyperplane()
            assert power.degree() == g - n + 1

    def test_matches_random_order_rewriting(self):
        rng = random.Random(1234)
        for _ in range(300):
            n = rng.randrange(3, 7)
            g = rng.randrange(2 * n - 1, 2 * n + 20)
            amb = AmbientScroll(g, n)
            raw = {
                (rng.randrange(0, 2 * n), rng.randrange(0, 4)): rng.randint(-9, 9)
                for _ in range(4)
            }
            expected = brute_reduce(amb, raw, rng)
            assert ChowClass(amb, raw).coefficients == expected

    def test_negative_exponent_rejected(self):
        amb = AmbientScroll(5, 3)
        with pytest.raises(DomainError):
            ChowClass(amb, {(-1, 0): 1})


class TestRingAxioms:
    def rand_class(self, rng, amb):
        return ChowClass(
            amb,
            {
                (rng.randrange(0, amb.n), rng.randrange(0, 2)): rng.randint(-5, 5)
                for _ in range(3)
            },
        )

    def test_algebra_laws(self):
        rng = random.Random(99)
        for n in range(3, 7):
            g = 2 * n + 1
            amb = AmbientScroll(g, n)
            for _ in range(25):
                x, y, z = (self.rand_class(rng, amb) for _ in range(3))
                assert x * y == y * x
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z

    def test_unit_and_zero(self):
        amb = AmbientScroll(7, 3)
        x = ChowClass(amb, {(1, 0): 4, (0, 1): -2})
        assert amb.unit() * x == x
        assert (x - x).is_zero()
        assert (x - x).degree() == 0

    def test_scalar_multiplication(self):
        amb = AmbientScroll(7, 3)
        x = ChowClass(amb, {(1, 0): 4})
        assert 3 * x == x * 3 == ChowClass(amb, {(1, 0): 12})

    def test_mismatched_ambient_rejected(self):
        x = ChowClass(AmbientScroll(5, 3), {(1, 0): 1})
        y = ChowClass(AmbientScroll(7, 3), {(1, 0): 1})
        with pytest.raises(DomainError):
            x * y

    def test_hash_consistent_with_eq(self):
        amb = AmbientScroll(5, 3)
        x = ChowClass(amb, {(1, 0): 1, (0, 1): 2})
        y = ChowClass(amb, {(0, 1): 2, (1, 0): 1})
        assert x == y and hash(x) == hash(y)


class TestIntersectNumber:
    def test_trigonal_pairings(self):
        amb = AmbientScroll(5, 3)
        curve = ChowClass(amb, {(1, 0): 3, (0, 1): -1})
        assert intersect_number([amb.hyperplane()], curve) == 8  # 2g-2
        assert intersect_number([amb.fiber()], curve) == 3  # n

    def test_canonical_pairing_general_genus(self):
        for g in range(5, 13):
            amb = AmbientScroll(g, 3)
            omega = amb.hyperplane() * -2 + amb.fiber() * (g - 4)
            curve = ChowClass(amb, {(1, 0): 3, (0, 1): 4 - g})
            assert intersect_number([omega], curve) == -g - 8

    def test_codimension_mismatch_rejected(self):
        amb = AmbientScroll(9, 4)
        curve = ChowClass(amb, {(1, 0): 3})  # codim 1, plus one divisor = 2 != 3
        with pytest.raises(DomainError, match="codimension"):
            intersect_number([amb.hyperplane()], curve)

    def test_inhomogeneous_tail_rejected(self):
        amb = AmbientScroll(9, 4)
        tail = ChowClass(amb, {(1, 0): 1, (2, 0): 1})
        with pytest.raises(DomainError, match="homogeneous"):
            intersect_number([amb.hyperplane()], tail)

    def test_zero_tail_gives_zero(self):
        amb = AmbientScroll(9, 4)
        assert intersect_number([amb.hyperplane()], ChowClass(amb)) == 0

    def test_divisor_outside_codimension_one_rejected(self):
        amb = AmbientScroll(9, 4)
        # each total is n-1 = 3 when a divisor counts as codimension 1
        for divisor, tail in [
            (amb.unit(), amb.monomial(1, 1)),
            (amb.hyperplane() + amb.unit(), amb.monomial(2, 0)),
            (amb.monomial(2, 0), amb.fiber()),
        ]:
            with pytest.raises(DomainError, match="not of codimension 1"):
                intersect_number([divisor], tail)

    def test_divisor_from_another_scroll_rejected(self):
        amb = AmbientScroll(9, 4)
        # each total is n-1 = 3 on amb: only the scroll is wrong
        for other in (AmbientScroll(10, 4), AmbientScroll(9, 3)):
            for divisors, tail in [
                ([other.hyperplane()], amb.monomial(2, 0)),
                ([amb.fiber(), other.fiber()], amb.monomial(1, 0)),
            ]:
                with pytest.raises(DomainError, match="different scrolls"):
                    intersect_number(divisors, tail)

    def test_zero_divisor_gives_zero(self):
        amb = AmbientScroll(9, 4)
        assert intersect_number([ChowClass(amb)], amb.monomial(2, 0)) == 0
        assert intersect_number([amb.fiber(), ChowClass(amb)], amb.monomial(1, 0)) == 0


def test_repr_is_readable():
    amb = AmbientScroll(5, 3)
    assert repr(ChowClass(amb, {(1, 0): 3, (0, 1): -1})) == "3*D - f"
    assert repr(ChowClass(amb)) == "0"
    assert repr(amb.unit()) == "1"


def _poly_add(x, y, sign=1):
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, 0) + sign * c
    return out


def _poly_mul(x, y):
    out = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            m = (a1 + a2, b1 + b2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _raw(rng, n, terms=4, codim=None):
    """A polynomial in D and f, monomials outside normal form included,
    coefficients in -3..3 with zero among them."""
    out = {}
    for _ in range(terms):
        if codim is None:
            m = (rng.randrange(0, n + 2), rng.randrange(0, 3))
        else:
            b = rng.randrange(0, min(codim, 2) + 1)
            m = (codim - b, b)
        out[m] = rng.randint(-3, 3)
    return out


class TestAgainstPolynomialModel:
    """Each operation against Z[D, f] with no relation applied, reduced
    once at the end by random-order rewriting (brute_reduce)."""

    def test_ring_operations(self):
        rng = random.Random(2718)
        for n in range(3, 9):
            for g in (2 * n - 1, 2 * n + 2, 3 * n + 7):
                amb = AmbientScroll(g, n)

                def reduce(poly):
                    return brute_reduce(amb, poly, rng)

                for _ in range(12):
                    px, py = _raw(rng, n), _raw(rng, n)
                    x, y = ChowClass(amb, px), ChowClass(amb, py)
                    d, e, k = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
                    pdv = {(1, 0): d, (0, 1): e}
                    dv = amb.hyperplane() * d + amb.fiber() * e
                    assert x.coefficients == reduce(px)
                    assert (x + y).coefficients == reduce(_poly_add(px, py))
                    assert (x - y).coefficients == reduce(_poly_add(px, py, -1))
                    assert (-x).coefficients == reduce(_poly_add({}, px, -1))
                    assert (x * y).coefficients == reduce(_poly_mul(px, py))
                    assert (x * dv).coefficients == reduce(_poly_mul(px, pdv))
                    assert (x + dv).coefficients == reduce(_poly_add(px, pdv))
                    assert dv.coefficients == reduce(pdv)
                    assert (k * x).coefficients == (x * k).coefficients == reduce(
                        _poly_mul(px, {(0, 0): k})
                    )
                    assert (x - x).is_zero() and (x * 0).is_zero()

    def test_intersect_number(self):
        rng = random.Random(3141)
        for n in range(3, 9):
            amb = AmbientScroll(2 * n + 3, n)
            for _ in range(40):
                count = rng.randrange(0, n)
                raw_divisors = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(count)]
                raw_tail = _raw(rng, n, terms=3, codim=n - 1 - count)
                product = raw_tail
                for d, e in raw_divisors:
                    product = _poly_mul(product, {(1, 0): d, (0, 1): e})
                expected = brute_reduce(amb, product, rng).get((n - 2, 1), 0)
                divisors = [amb.hyperplane() * d + amb.fiber() * e for d, e in raw_divisors]
                assert intersect_number(divisors, ChowClass(amb, raw_tail)) == expected


class TestNormalisingWork:
    """The rewriting runs once per product and never for a result that is
    in normal form by construction."""

    @pytest.fixture
    def passes(self, monkeypatch):
        from gonal import chow

        calls = []

        def counted(ambient, terms, _f=chow._normal_form):
            calls.append(1)
            return _f(ambient, terms)

        monkeypatch.setattr(chow, "_normal_form", counted)
        return calls

    def test_one_pass_per_product(self, passes):
        amb = AmbientScroll(20, 6)
        x = ChowClass(amb, {(1, 0): 2, (4, 0): -1, (0, 1): 3})
        y = ChowClass(amb, {(2, 1): 5, (0, 0): 1})
        dv = amb.hyperplane() * 2 - amb.fiber()
        passes.clear()
        x * y
        assert len(passes) == 1
        x * dv
        assert len(passes) == 2

    def test_no_pass_for_normal_results(self, passes):
        amb = AmbientScroll(20, 6)
        x = ChowClass(amb, {(1, 0): 2, (4, 0): -1, (0, 1): 3})
        y = ChowClass(amb, {(2, 1): 5, (0, 0): 1})
        dv = amb.hyperplane() * 2 - amb.fiber()
        passes.clear()
        results = [x + y, x - y, -x, 3 * x, x * 0, x + dv, amb.hyperplane(), amb.fiber(), x - x]
        assert passes == []
        # and each is the class the constructor would build
        for r in results:
            assert r == ChowClass(amb, r.coefficients)
            assert repr(r) == repr(ChowClass(amb, r.coefficients))
            assert hash(r) == hash(ChowClass(amb, r.coefficients))


def test_results_keep_their_errors():
    x = ChowClass(AmbientScroll(5, 3), {(1, 0): 1})
    y = ChowClass(AmbientScroll(7, 3), {(1, 0): 1})
    for op in (lambda: x + y, lambda: x - y, lambda: x * y):
        with pytest.raises(DomainError, match="different scrolls"):
            op()
    for op in (lambda: x + 1, lambda: x - "D", lambda: x * 1.5):
        with pytest.raises(TypeError, match="cannot combine ChowClass"):
            op()
