"""Tests for the degree lattice and divisibility verdicts."""

import random
from math import gcd

import pytest

from gonal.chow import intersect_number
from gonal.errors import DomainError
from gonal.picard import (
    DivisibilityVerdict,
    VerdictStatus,
    degree_subgroup,
    modular_degree_constraint,
    solve_degree,
)
from gonal.scroll import curve_class, generic_scroll


class TestDegreeSubgroup:
    def test_examples(self):
        assert degree_subgroup(5, 3) == 1
        assert degree_subgroup(7, 3) == 3
        assert degree_subgroup(6, 4) == 2

    def test_divides_both_generators(self):
        for g in range(2, 40):
            for n in range(2, 12):
                d = degree_subgroup(g, n)
                assert (2 * g - 2) % d == 0 and n % d == 0

    def test_lattice_degree_image(self):
        rng = random.Random(5)
        for _ in range(200):
            g, n = rng.randrange(2, 40), rng.randrange(2, 12)
            alpha, beta = rng.randint(-9, 9), rng.randint(-9, 9)
            assert (alpha * (2 * g - 2) + beta * n) % degree_subgroup(g, n) == 0


class TestModularDegreeConstraint:
    def test_hyperelliptic_theorem(self):
        for g in range(2, 51):
            verdict = modular_degree_constraint(g, 2)
            assert verdict == DivisibilityVerdict(2, VerdictStatus.THEOREM, True)

    def test_trigonal_proved(self):
        verdict = modular_degree_constraint(7, 3)
        assert verdict.divisor == 3
        assert verdict.status == VerdictStatus.PROVEN_FOR_TRIGONAL
        assert verdict.sharp

    def test_higher_gonality_conjectural(self):
        verdict = modular_degree_constraint(8, 4)
        assert verdict.divisor == 2
        assert verdict.status == VerdictStatus.CONJECTURE
        assert verdict.sharp

    def test_status_labels(self):
        assert VerdictStatus.THEOREM.value == "theorem"
        assert VerdictStatus.CONJECTURE.value == "conjecture"
        assert VerdictStatus.PROVEN_FOR_TRIGONAL.value == "provenForTrigonal"

    def test_trigonal_divisor_rule(self):
        # gcd(3, 2g-2) is 3 precisely when g = 1 mod 3
        for g in range(5, 100):
            verdict = modular_degree_constraint(g, 3)
            assert verdict.divisor == (3 if g % 3 == 1 else 1)

    def test_hypothesis_violations_named(self):
        with pytest.raises(DomainError, match="2n-2 < g"):
            modular_degree_constraint(4, 3)
        with pytest.raises(DomainError, match="2n-2 < g"):
            modular_degree_constraint(6, 4)  # boundary 2n-2 = g excluded
        with pytest.raises(DomainError, match="g >= 2"):
            modular_degree_constraint(1, 2)

    def test_divisor_matches_gcd_on_grid(self):
        for n in range(3, 7):
            for g in range(2 * n - 1, 51):
                assert modular_degree_constraint(g, n).divisor == gcd(n, 2 * g - 2)


class TestSolveDegree:
    def test_examples(self):
        assert solve_degree(5, 3, 1) == (-1, 3)
        assert solve_degree(7, 3, 2) is None
        assert solve_degree(5, 3, 8) == (1, 0)  # omega itself

    def test_reevaluation(self):
        rng = random.Random(17)
        for _ in range(300):
            g, n = rng.randrange(2, 50), rng.randrange(2, 12)
            target = rng.randint(-60, 60)
            result = solve_degree(g, n, target)
            d = degree_subgroup(g, n)
            if target % d != 0:
                assert result is None
            else:
                alpha, beta = result
                assert alpha * (2 * g - 2) + beta * n == target

    def test_minimal_alpha_canonicalization(self):
        # the witness is pinned by brute force: among every alpha in
        # -step..step that solves the equation, the least |alpha|, with a
        # tie at step/2 resolved to the non-negative side; None if none
        for g in range(2, 61):
            w = 2 * g - 2
            for n in range(2, 21):
                step = n // degree_subgroup(g, n)
                for target in range(-60, 61):
                    solutions = [
                        a for a in range(-step, step + 1) if (target - a * w) % n == 0
                    ]
                    expected = None
                    if solutions:
                        alpha = min(solutions, key=lambda a: (abs(a), a < 0))
                        expected = (alpha, (target - alpha * w) // n)
                    assert solve_degree(g, n, target) == expected, (g, n, target)

    def test_zero_target(self):
        assert solve_degree(5, 3, 0) == (0, 0)


class TestSharpnessWitness:
    """The solve_degree witness for gcd(2g-2, n), evaluated on the Chow-ring
    pairings D.C = 2g-2 and f.C = n, certifies that the bound is attained."""

    @staticmethod
    def pairings(g, n):
        spec = generic_scroll(g, n)
        curve = curve_class(spec)
        amb = spec.ambient
        return (
            intersect_number([amb.hyperplane()], curve),
            intersect_number([amb.fiber()], curve),
        )

    def test_examples(self):
        assert (*self.pairings(7, 3), degree_subgroup(7, 3)) == (12, 3, 3)
        assert (*self.pairings(5, 3), degree_subgroup(5, 3)) == (8, 3, 1)
        assert (*self.pairings(8, 4), degree_subgroup(8, 4)) == (14, 4, 2)

    def test_combination_certifies(self):
        for n in range(3, 7):
            for g in range(2 * n - 1, 41):
                dc, fc = self.pairings(g, n)
                d = degree_subgroup(g, n)
                alpha, beta = solve_degree(g, n, d)
                assert alpha * dc + beta * fc == d


def test_verdict_requires_positive_divisor():
    with pytest.raises(DomainError):
        DivisibilityVerdict(0, VerdictStatus.THEOREM, True)
