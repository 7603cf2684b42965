"""Tests for the curve invariants and section-count formulas."""

import pytest

from gonal.chow import intersect_number
from gonal.errors import DomainError
from gonal.invariants import (
    ballico_h0,
    chi_normal_bundle,
    chi_restricted_tangent,
    gonal_pencil_count,
    h1_double_pencil,
    maroni_branch_boundaries,
    maroni_h0,
    moduli_dimension,
)
from gonal.scroll import canonical_class, curve_class, generic_scroll


class TestEulerCharacteristics:
    def test_restricted_tangent_examples(self):
        assert chi_restricted_tangent(5, 3) == 5
        assert chi_restricted_tangent(9, 4) == 8

    def test_chow_route_agrees(self):
        for n in range(3, 6):
            for g in range(2 * n - 1, 41):
                spec = generic_scroll(g, n)
                via_chow = intersect_number(
                    [-canonical_class(spec)], curve_class(spec)
                ) + (n - 1) * (1 - g)
                assert via_chow == chi_restricted_tangent(g, n)

    def test_normal_bundle_examples(self):
        assert chi_normal_bundle(5, 3) == 17
        assert chi_normal_bundle(9, 4) == 32

    def test_chain_identity(self):
        # chi(N) = chi(T|C) - (3 - 3g)
        assert chi_restricted_tangent(5, 3) - (3 - 15) == 17
        for n in range(3, 6):
            for g in range(2 * n - 1, 41):
                assert chi_normal_bundle(g, n) == chi_restricted_tangent(g, n) + 3 * g - 3

    def test_range_violations(self):
        with pytest.raises(DomainError):
            chi_restricted_tangent(4, 3)
        with pytest.raises(DomainError):
            chi_normal_bundle(8, 5)


class TestH1DoublePencil:
    def test_examples(self):
        assert h1_double_pencil(5, 3) == 1
        assert h1_double_pencil(7, 3) == 3

    def test_against_riemann_roch(self):
        # h^1(2 pencil) = h^0(2 pencil) - chi(2 pencil)
        for n in range(3, 6):
            for g in range(2 * n - 1, 41):
                assert h1_double_pencil(g, n) == ballico_h0(g, n, 2) - (2 * n + 1 - g)


class TestModuliDimension:
    def test_examples(self):
        assert moduli_dimension(5, 3) == 11
        assert moduli_dimension(4, 3) == 9  # both branches agree at 2n-2 = g
        assert moduli_dimension(5, 100) == 12

    def test_branch_selection(self):
        for g in range(2, 30):
            for n in range(2, 20):
                expected = 3 * g - 3 if g <= 2 * n - 2 else 2 * n + 2 * g - 5
                assert moduli_dimension(g, n) == expected


class TestPencilCount:
    def test_examples(self):
        assert gonal_pencil_count(2) == 1
        assert gonal_pencil_count(3) == 2
        assert gonal_pencil_count(4) == 5

    def test_factorial_route(self):
        from math import factorial

        for n in range(2, 15):
            assert gonal_pencil_count(n) == factorial(2 * n - 2) // (
                factorial(n) * factorial(n - 1)
            )


class TestBallico:
    def test_examples(self):
        assert ballico_h0(5, 3, 2) == 3
        assert ballico_h0(5, 3, 3) == 5
        assert ballico_h0(9, 4, 0) == 1

    def test_threshold_is_exact(self):
        # g divisible by n-1 puts k = g/(n-1) exactly on the second branch
        assert ballico_h0(6, 3, 2) == 3  # 2*2 = 4 < 6
        assert ballico_h0(6, 3, 3) == 4  # 3*2 = 6 >= 6: RR value 9 - 6 + 1
        assert ballico_h0(12, 4, 4) == 5  # 4*3 = 12 >= 12

    def test_riemann_roch_lower_bound(self):
        for n in range(3, 6):
            for g in range(2 * n - 1, 41):
                for k in range(0, 2 * g + 1):
                    h0 = ballico_h0(g, n, k)
                    chi = n * k + 1 - g
                    assert h0 >= chi
                    assert (h0 == chi) == (k * (n - 1) >= g)

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            ballico_h0(5, 3, -1)


class TestMaroni:
    def test_examples(self):
        assert maroni_h0(5, 3, 2, (0, 1)) == 3
        assert maroni_h0(6, 3, 3, (0, 0)) == 4
        assert maroni_h0(5, 3, 0, (0, 1)) == 1

    def test_default_splitting_is_generic(self):
        assert maroni_h0(5, 3, 2) == maroni_h0(5, 3, 2, (0, 1))

    def test_agrees_with_ballico_on_generic(self):
        for n in range(3, 6):
            for g in range(2 * n - 1, 61):
                for k in range(0, 2 * g + 1):
                    assert maroni_h0(g, n, k) == ballico_h0(g, n, k)

    def test_branch_continuity_non_generic(self):
        # (11, 4) with splitting (0, 1, 4): eta = 2, boundaries 2, 3, 6
        assert maroni_branch_boundaries(11, 4, (0, 1, 4)) == [2, 3, 6]
        # values walk through all three branch families without jumps
        values = [maroni_h0(11, 4, k, (0, 1, 4)) for k in range(0, 12)]
        assert values == sorted(values)
        assert values[-1] == 4 * 11 + 1 - 11  # last branch at k = 11

    def test_non_generic_splitting_values(self):
        # eta = 2 for (11, 4, (0, 1, 4)); below eta the count is k+1
        assert maroni_h0(11, 4, 1, (0, 1, 4)) == 2
        # middle branch j=1 at k=2: 2k + 1 - eta = 3
        assert maroni_h0(11, 4, 2, (0, 1, 4)) == 3
        # middle branch j=2 at k=4: 3k + 1 - 2*eta - r_2 = 8
        assert maroni_h0(11, 4, 4, (0, 1, 4)) == 8

    def test_invalid_splitting_rejected(self):
        with pytest.raises(DomainError):
            maroni_h0(5, 3, 2, (0, 0))  # 0 != 5 mod 2: eta not integral

    @pytest.mark.parametrize(
        "splitting", [(0, 7), (5, 0), (0, -1), (0, 1, 2), (0, 2)]
    )
    def test_boundaries_validate_like_maroni_h0(self, splitting):
        # both resolve a given splitting through ScrollSpec, one message
        with pytest.raises(DomainError) as from_h0:
            maroni_h0(9, 3, 0, splitting)
        with pytest.raises(DomainError) as from_boundaries:
            maroni_branch_boundaries(9, 3, splitting)
        assert str(from_boundaries.value) == str(from_h0.value)


class TestMaroniMemo:
    """maroni_h0 and maroni_branch_boundaries share boundaries and prefix
    sums derived once per (g, n, splitting): the memo keeps splittings
    apart, and a refused input is refused on every call."""

    def test_interleaved_splittings(self):
        g, n = 20, 4
        generic = generic_scroll(g, n).splitting
        other = (0, 0, 5)  # N = 5 < g-n+1 and 20 - 5 = 0 (mod 3)
        assert generic != other
        for k in range(3 * g):
            for splitting in (None, list(other), generic, other, None, [*generic]):
                rs = generic if splitting is None else tuple(splitting)
                shift = (g - sum(rs)) // (n - 1) - 1
                summed = k + 1 + sum(max(0, k - 1 - shift - r) for r in rs)
                assert maroni_h0(g, n, k, splitting) == summed, (k, splitting)
                eta = shift + 1
                assert maroni_branch_boundaries(g, n, splitting) == [eta + r for r in rs]

    def test_invalid_input_raises_on_every_call(self):
        for _ in range(3):
            assert maroni_h0(20, 4, 3) == 4
            with pytest.raises(DomainError, match="does not embed"):
                maroni_h0(20, 4, 3, (0, 0, 1))
            with pytest.raises(DomainError, match="sorted"):
                maroni_h0(20, 4, 3, [0, 2, 1])
            with pytest.raises(DomainError, match=r"^requires 2n-2 < g \(got 2n-2=6, g=6\)$"):
                maroni_h0(6, 4, 3)
            with pytest.raises(DomainError, match="does not embed"):
                maroni_branch_boundaries(20, 4, [0, 0, 1])

    def test_guards_run_in_turn(self):
        # the scroll range, then the splitting, then k; the splitting is
        # read into a tuple, the memo's key, before any guard runs
        for fn in (maroni_h0, lambda g, n, k, splitting: maroni_branch_boundaries(g, n, splitting)):
            with pytest.raises(DomainError, match="requires 2n-2 < g"):
                fn(6, 4, -1, (0, 0, 1))
            with pytest.raises(DomainError, match="does not embed"):
                fn(20, 4, -1, (0, 0, 1))
            with pytest.raises(TypeError):
                fn(6, 4, 3, 7)
        with pytest.raises(DomainError, match="k >= 0"):
            maroni_h0(20, 4, -1)
