"""Tests for scroll classification and its distinguished classes."""

import pytest

from dataclasses import fields

from gonal import scroll
from gonal.chow import AmbientScroll, intersect_number
from gonal.errors import DomainError
from gonal.hirzebruch import canonical_bundle, trigonal_curve_bundle
from gonal.scroll import (
    ScrollSpec,
    aut_group_numerics,
    canonical_class,
    curve_class,
    generic_scroll,
    validate_scroll,
)


class TestGenericScroll:
    def test_trigonal_odd_genus(self):
        spec = generic_scroll(5, 3)
        assert spec.splitting == (0, 1)
        assert spec.generic_type == 1
        assert spec.big_n == 1

    def test_trigonal_even_genus(self):
        spec = generic_scroll(6, 3)
        assert spec.splitting == (0, 0)
        assert spec.generic_type == 0

    def test_tetragonal(self):
        assert generic_scroll(9, 4).splitting == (0, 0, 0)

    def test_always_valid(self):
        for n in range(3, 7):
            for g in range(2 * n - 1, 41):
                spec = generic_scroll(g, n)
                assert validate_scroll(spec.splitting, g, n)
                assert set(spec.splitting) <= {0, 1}
                assert spec.big_n == spec.generic_type

    def test_range_violation(self):
        with pytest.raises(DomainError):
            generic_scroll(4, 3)


class TestValidateScroll:
    def test_examples(self):
        assert validate_scroll((0, 1), 5, 3) is True
        assert validate_scroll((0, 3), 5, 3) is False  # N = 3 not < g-n+1 = 3
        assert validate_scroll((0, 0), 5, 3) is False  # 0 != 5 mod 2

    def test_spec_constructor_rejects_invalid(self):
        with pytest.raises(DomainError):
            ScrollSpec(AmbientScroll(5, 3), (0, 3))
        with pytest.raises(DomainError):
            ScrollSpec(AmbientScroll(5, 3), (1, 1))  # not normalized
        with pytest.raises(DomainError):
            ScrollSpec(AmbientScroll(5, 3), (0, 1, 0))  # wrong length, unsorted
        # embeds, so only the sortedness check can refuse its unsorted last pair
        assert validate_scroll((0, 2, 1), 12, 4) is True
        with pytest.raises(DomainError, match="sorted"):
            ScrollSpec(AmbientScroll(12, 4), (0, 2, 1))
        # after a first entry 0, a negative entry is out of order
        for rs in ((0, -1), (0, 1, -2)):
            with pytest.raises(DomainError, match="sorted and non-negative"):
                ScrollSpec(AmbientScroll(12, len(rs) + 1), rs)


class TestShift:
    def test_non_negative_integer_on_generic(self):
        for n in range(3, 7):
            for g in range(2 * n - 1, 61):
                spec = generic_scroll(g, n)
                assert (g - spec.big_n) % (n - 1) == 0
                assert spec.shift >= 0

    def test_splitting_summed_once(self, monkeypatch):
        spec = generic_scroll(41, 7)
        text = repr(spec)
        sums = []
        monkeypatch.setattr(
            scroll, "sum", lambda xs: sums.append(xs) or sum(xs), raising=False
        )
        assert (spec.big_n, spec.shift, spec.big_n, spec.shift) == (5, 5, 5, 5)
        assert len(sums) == 1
        assert [f.name for f in fields(spec)] == ["ambient", "splitting"]
        assert repr(spec) == text and spec == generic_scroll(41, 7)


class TestCanonicalClass:
    @pytest.mark.parametrize(
        "g,n,expected",
        [(5, 3, (-2, 1)), (9, 4, (-3, 4)), (6, 3, (-2, 2))],
    )
    def test_examples(self, g, n, expected):
        d, f = expected
        assert canonical_class(generic_scroll(g, n)).coefficients == {(1, 0): d, (0, 1): f}


class TestCurveClass:
    def test_trigonal(self):
        assert curve_class(generic_scroll(5, 3)).coefficients == {(1, 0): 3, (0, 1): -1}
        assert curve_class(generic_scroll(6, 3)).coefficients == {(1, 0): 3, (0, 1): -2}

    def test_tetragonal(self):
        curve = curve_class(generic_scroll(9, 4))
        assert curve.coefficients == {(2, 0): 4, (1, 1): -8}
        amb = curve.ambient
        assert intersect_number([amb.fiber()], curve) == 4
        assert intersect_number([amb.hyperplane()], curve) == 16

    def test_pairings_on_grid(self):
        for n in range(3, 7):
            for g in range(2 * n - 1, 41):
                spec = generic_scroll(g, n)
                curve = curve_class(spec)
                amb = spec.ambient
                assert intersect_number([amb.fiber()], curve) == n
                assert intersect_number([amb.hyperplane()], curve) == 2 * g - 2

    def test_euler_pairing_rearranged(self):
        for n in range(3, 6):
            for g in range(2 * n - 1, 41):
                spec = generic_scroll(g, n)
                minus_k_dot_c = intersect_number([-canonical_class(spec)], curve_class(spec))
                assert minus_k_dot_c == n * n + 1 - g - (n - 1) * (1 - g)


class TestAutNumerics:
    def test_examples(self):
        a = aut_group_numerics(generic_scroll(5, 3))
        assert (a.total_dim, a.vertical_dim, a.components) == (6, 3, 1)
        a = aut_group_numerics(generic_scroll(6, 3))
        assert (a.total_dim, a.vertical_dim, a.components) == (6, 3, 2)
        a = aut_group_numerics(generic_scroll(9, 4))
        assert (a.total_dim, a.vertical_dim, a.components) == (11, 8, 1)

    def test_two_components_only_for_quadric(self):
        for n in range(3, 7):
            for g in range(2 * n - 1, 30):
                a = aut_group_numerics(generic_scroll(g, n))
                assert a.components == (2 if n == 3 and g % 2 == 0 else 1)

    def test_non_generic_splitting_flagged(self):
        # (g, n) = (11, 4): N must be 2 mod 3 and < 8, so (0, 1, 4) works;
        # h^0(End E) = 3 + 2 + 5 + 4 from the pairs r_i = r_j, (1, 0),
        # (4, 0) and (4, 1)
        a = aut_group_numerics(ScrollSpec(AmbientScroll(11, 4), (0, 1, 4)))
        assert (a.total_dim, a.vertical_dim, a.components) == (16, 13, 1)

    def test_hirzebruch_surfaces(self):
        # dim Aut F_e = e + 5 for e >= 1; F_0 = P^1 x P^1 has dimension 6
        # and two components
        for e in range(1, 8):
            g = e + 4  # N = e < g - 2 and N = g mod 2
            a = aut_group_numerics(ScrollSpec(AmbientScroll(g, 3), (0, e)))
            assert (a.total_dim, a.vertical_dim, a.components) == (e + 5, e + 2, 1)
        a = aut_group_numerics(ScrollSpec(AmbientScroll(8, 3), (0, 0)))
        assert (a.total_dim, a.components) == (6, 2)


class TestTrigonalSurfaceMatchesScroll:
    def test_curve_pairings_on_both_routes(self):
        # C^2 and K_S.C by FeBundle.intersect on F_e equal the scroll's
        # Chow-ring values for the curve class 3D + (4-g)f
        for g in range(5, 201):
            c = trigonal_curve_bundle(g)
            k = canonical_bundle(c.e)
            spec = generic_scroll(g, 3)
            curve = curve_class(spec)
            c_div = spec.ambient.hyperplane() * 3 + spec.ambient.fiber() * (4 - g)
            assert c.intersect(c) == intersect_number([c_div], curve) == 3 * g + 6
            assert (
                k.intersect(c)
                == intersect_number([canonical_class(spec)], curve)
                == -g - 8
            )
