"""Tests for the Hirzebruch-surface cohomology oracle."""

import ast
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from gonal import hirzebruch
from gonal.errors import ConsistencyError, DomainError
from gonal.hirzebruch import (
    FeBundle,
    bundle_cohomology,
    canonical_bundle,
    rather_free_check,
    trigonal_curve_bundle,
    trigonal_h0_oracle,
    _rather_free_criterion,
)
from gonal.invariants import ballico_h0


class TestFeBundle:
    def test_intersection_rules(self):
        c0 = FeBundle(1, 1, 0)
        f = FeBundle(1, 0, 1)
        assert c0.intersect(c0) == -1
        assert c0.intersect(f) == 1
        assert f.intersect(f) == 0

    def test_negative_e_rejected(self):
        with pytest.raises(DomainError):
            FeBundle(-1, 0, 0)

    def test_different_surfaces_rejected(self):
        with pytest.raises(DomainError):
            FeBundle(0, 1, 1).intersect(FeBundle(1, 1, 1))

    def test_arithmetic(self):
        assert FeBundle(1, 3, 6) - FeBundle(1, 0, 1) == FeBundle(1, 3, 5)
        # no integer multiples: a multiple is built as its own bundle
        with pytest.raises(TypeError):
            3 * FeBundle(1, 1, 2)
        with pytest.raises(TypeError, match="cannot combine FeBundle with int"):
            FeBundle(0, 1, 0) + 3


class TestCanonicalBundle:
    def test_values(self):
        assert canonical_bundle(1) == FeBundle(1, -2, -3)
        assert canonical_bundle(0) == FeBundle(0, -2, -2)

    def test_adjunction_genus(self):
        # C = 3C_0 + 5f on F_1: genus = C.(C+K)/2 + 1 = 5
        c = FeBundle(1, 3, 5)
        k = canonical_bundle(1)
        assert c.intersect(c + k) // 2 + 1 == 5
        # C = 3C_0 + 4f on F_0: genus 6
        c = FeBundle(0, 3, 4)
        k = canonical_bundle(0)
        assert c.intersect(c + k) // 2 + 1 == 6


class TestCohomology:
    def test_frozen_examples(self):
        assert bundle_cohomology(FeBundle(1, -3, -3)) == (0, 0, 1)
        assert bundle_cohomology(FeBundle(0, 3, 4)) == (20, 0, 0)
        for e in range(0, 6):
            assert bundle_cohomology(FeBundle(e, 0, 0)) == (1, 0, 0)

    def test_product_surface_h0(self):
        # on F_0 with a, b >= 0 sections form an (a+1) x (b+1) grid
        for a in range(0, 5):
            for b in range(0, 5):
                assert bundle_cohomology(FeBundle(0, a, b)).h0 == (a + 1) * (b + 1)

    def test_serre_duality_symmetry(self):
        for e in (0, 1):
            k = canonical_bundle(e)
            for a in range(-6, 13):
                for b in range(-40, 41):
                    h = bundle_cohomology(FeBundle(e, a, b))
                    dual = bundle_cohomology(k - FeBundle(e, a, b))
                    assert (h.h0, h.h1, h.h2) == (dual.h2, dual.h1, dual.h0)

    def test_h1_never_negative(self):
        for e in (0, 1):
            for a in range(-6, 13):
                for b in range(-40, 41):
                    assert bundle_cohomology(FeBundle(e, a, b)).h1 >= 0


class TestTrigonalOracle:
    def test_curve_bundle_coefficients(self):
        assert trigonal_curve_bundle(5) == FeBundle(1, 3, 5)  # (g+5)/2 on F_1
        assert trigonal_curve_bundle(6) == FeBundle(0, 3, 4)  # (g+2)/2 on F_0

    def test_frozen_examples(self):
        assert trigonal_h0_oracle(5, 2) == 3
        assert trigonal_h0_oracle(6, 3) == 4
        assert trigonal_h0_oracle(5, 3) == 5  # = 3k + 1 - g

    def test_matches_ballico(self):
        for g in range(5, 41):
            for k in range(0, g + 1):
                assert trigonal_h0_oracle(g, k) == ballico_h0(g, 3, k)

    def test_riemann_roch_on_curve(self):
        # h^0 - h^1 of k*pencil on the curve equals 3k + 1 - g, with h^1
        # recovered from the same restriction sequence
        for g in (5, 6, 9, 14):
            curve = trigonal_curve_bundle(g)
            for k in range(0, g + 1):
                kf = FeBundle(curve.e, 0, k)
                h0_c = trigonal_h0_oracle(g, k)
                h1_c = (
                    bundle_cohomology(kf - curve).h2 - bundle_cohomology(kf).h2
                )
                assert h1_c >= 0
                assert h0_c - h1_c == 3 * k + 1 - g

    def test_dim_of_curve_system(self):
        for g in range(5, 41):
            h0 = bundle_cohomology(trigonal_curve_bundle(g)).h0
            assert h0 - 1 == 2 * g + 7

    def test_range_violations(self):
        with pytest.raises(DomainError):
            trigonal_h0_oracle(4, 1)
        with pytest.raises(DomainError):
            trigonal_h0_oracle(5, -1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: trigonal_curve_bundle(4),
        lambda: trigonal_h0_oracle(4, -1),  # the genus is checked before k
        lambda: rather_free_check(4),
    ],
)
def test_boundary_genus_message(call):
    with pytest.raises(DomainError, match=r"^requires 2n-2 < g \(got 2n-2=4, g=4\)$"):
        call()


class TestRatherFree:
    def test_examples(self):
        assert rather_free_check(5) == (-13, True)
        assert rather_free_check(12) == (-20, True)

    def test_pairing_formula(self):
        for g in range(5, 41):
            pairing, ok = rather_free_check(g)
            assert pairing == -g - 8
            assert ok

    def test_criterion_threshold(self):
        assert _rather_free_criterion(-2, 0)
        assert not _rather_free_criterion(-1, 0)
        assert not _rather_free_criterion(-5, 1)

    def test_range_violation(self):
        with pytest.raises(DomainError):
            rather_free_check(4)


class TestStandsAlone:
    """The surface oracle is a route of its own: it reads no Chow ring and
    no scroll, so a fault there cannot reach it."""

    def test_imports_only_errors(self):
        from gonal import hirzebruch

        tree = ast.parse(Path(hirzebruch.__file__).read_text())
        relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
        assert relative == {"errors"}
        probe = (
            "import sys, gonal.hirzebruch\n"
            "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'gonal'))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["gonal", "gonal.errors", "gonal.hirzebruch"]


def test_consistency_error_surfaces_not_clamps():
    # bundle_cohomology raises if its ingredients ever disagreed; simulate
    # by checking the guard exists rather than monkeypatching internals
    from gonal import hirzebruch

    original = hirzebruch._h0
    hirzebruch._h0 = lambda bundle: max(0, original(bundle) - 1)
    try:
        with pytest.raises(ConsistencyError):
            hirzebruch.bundle_cohomology(FeBundle(0, 2, 2))
    finally:
        hirzebruch._h0 = original


def _reference_cohomology(e, a, b):
    """bundle_cohomology written out from its formulas, with no FeBundle:
    h^0 by pushforward, h^2 = h^0(K - L), chi = 1 + L.(L - K)/2."""

    def h0(a, b):
        return sum(max(0, b - (i * e - 1)) for i in range(a + 1)) if a >= 0 else 0

    ka, kb = -2, -(e + 2)
    la, lb = a - ka, b - kb  # L - K
    chi = 1 + (-e * a * la + a * lb + la * b) // 2
    h2 = h0(ka - a, kb - b)
    return h0(a, b), h0(a, b) + h2 - chi, h2


def _summed_cohomology(e, a, b):
    """(h^0, h^1, h^2) of aC_0 + bf on F_e from the pushforward
    Sym^a(O + O(-e)) (x) O(b) = sum of O(b - ie), i = 0..a: h^0 counts
    lattice points and h^1 is the Leray sum, with no Euler characteristic.
    Nothing pushes forward at a = -1, and Serre duality with
    K = -2C_0 - (e+2)f gives a <= -2."""
    if a <= -2:
        h0, h1, h2 = _summed_cohomology(e, -2 - a, -(e + 2) - b)
        return h2, h1, h0
    h0 = sum(max(0, b - i * e + 1) for i in range(a + 1))
    h1 = sum(max(0, i * e - b - 1) for i in range(a + 1))
    return h0, h1, 0


class TestSummedCohomology:
    """bundle_cohomology against a second route, on a grid wide enough that
    a wrong h^0 cannot hide behind Serre duality."""

    @staticmethod
    def mismatches():
        return [
            (e, a, b)
            for e in range(5)
            for a in range(-8, 13)
            for b in range(-40, 41)
            if bundle_cohomology(FeBundle(e, a, b)) != _summed_cohomology(e, a, b)
        ]

    def test_both_routes_agree(self):
        assert self.mismatches() == []

    @pytest.mark.parametrize(
        "mutate",
        [lambda h0: h0 + 1, lambda h0: h0 + 5, lambda h0: 2 * h0],
        ids=["plus-one", "plus-five", "doubled"],
    )
    def test_a_wrong_h0_disagrees(self, monkeypatch, mutate):
        # each mutant keeps Serre duality, so a comparison with the dual
        # alone would pass it
        h0 = hirzebruch._h0
        monkeypatch.setattr(hirzebruch, "_h0", lambda bundle: mutate(h0(bundle)))
        assert self.mismatches()

    @pytest.mark.parametrize(
        "mutate",
        [lambda h0: h0 + 1, lambda h0: h0 + 5, lambda h0: 2 * h0],
        ids=["plus-one", "plus-five", "doubled"],
    )
    def test_the_sweep_check_fails_a_wrong_h0(self, monkeypatch, mutate):
        # global/fe-cohomology sums the same two routes on its own grid
        from gonal.checks import _fe_rows

        assert dict(_fe_rows())["global/fe-cohomology"] is True
        h0 = hirzebruch._h0
        monkeypatch.setattr(hirzebruch, "_h0", lambda bundle: mutate(h0(bundle)))
        assert dict(_fe_rows())["global/fe-cohomology"] is False


class TestLeanCohomology:
    def test_matches_the_formulas_on_the_serre_grid(self):
        # the grid of global/fe-cohomology
        for e in (0, 1):
            for a in range(-6, 13):
                for b in range(-40, 41):
                    assert bundle_cohomology(FeBundle(e, a, b)) == _reference_cohomology(e, a, b)

    def test_one_checked_bundle_per_cohomology(self, monkeypatch):
        built = []
        new = FeBundle.__new__

        def counted(cls, *args):
            built.append(args)
            return new(cls, *args)

        monkeypatch.setattr(FeBundle, "__new__", counted)
        bundle = FeBundle(1, 2, 3)
        built.clear()
        bundle_cohomology(bundle)
        assert len(built) <= 1

    @pytest.fixture
    def checked(self, monkeypatch):
        """The checked FeBundles built, by their arguments."""
        built = []
        new = FeBundle.__new__

        def counted(cls, *args):
            built.append(args)
            return new(cls, *args)

        monkeypatch.setattr(FeBundle, "__new__", counted)
        return built

    def test_no_checked_bundle_once_e_is_known(self, checked):
        bundle = FeBundle(1, 2, 3)
        canonical_bundle(1)  # K of F_1 is derived once
        checked.clear()
        bundle_cohomology(bundle)
        bundle_cohomology(-bundle)
        assert checked == []

    def test_oracle_derives_its_curve_once(self, checked):
        values = [trigonal_h0_oracle(11, k) for k in range(30)]
        assert values == [ballico_h0(11, 3, k) for k in range(30)]
        # the curve class on F_1 and K of F_1, at most once each
        assert len(checked) <= 2

    def test_serre_loop_builds_no_checked_bundle(self, checked):
        from gonal.checks import _fe_rows

        assert [ok for _, ok in _fe_rows()] == [True, True]
        # 3,078 bundles in the summed loop; only the four structure sheaves
        # O on F_0 .. F_3 and at most one K per surface are checked
        assert len(checked) <= 8

    def test_h0_in_closed_form(self):
        # the sum over the switch points, term by term
        for e in range(6):
            for a in range(-4, 20):
                for b in range(-30, 60):
                    want = sum(b - t for t in hirzebruch._h0_switches(e, a) if t < b)
                    assert hirzebruch._h0(FeBundle(e, a, b)) == want, (e, a, b)

    def test_h0_in_constant_time(self):
        # h^0(a C_0 + b f) on F_0 is (a + 1)(b + 1) for a, b >= 0: no list
        # of a + 1 switches is built
        a = 10**12
        assert bundle_cohomology(FeBundle(0, a, 3)) == (4 * (a + 1), 0, 0)
        assert bundle_cohomology(FeBundle(0, -a, -3)) == (0, 0, 2 * (a - 1))
        # on F_1 only the i <= b switches count: 6 + 5 + ... + 1
        assert bundle_cohomology(FeBundle(1, a, 5)).h0 == 21
        tracemalloc.start()
        try:
            bundle_cohomology(FeBundle(0, 10**6, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_arithmetic_results_equal_checked_bundles(self):
        x, y = FeBundle(2, 1, -3), FeBundle(2, -4, 5)
        for got, want in (
            (x + y, FeBundle(2, -3, 2)),
            (x - y, FeBundle(2, 5, -8)),
            (-x, FeBundle(2, -1, 3)),
            (x + x + x, FeBundle(2, 3, -9)),
        ):
            assert got == want and hash(got) == hash(want)
            assert repr(got) == repr(want) and str(got) == str(want)
            with pytest.raises(AttributeError):
                got.a = 0
        with pytest.raises(DomainError, match="different surfaces"):
            x + FeBundle(1, 0, 0)
