"""Acceptance suite: every criterion is an exact integer identity
(tolerance zero) over its stated grid, with one verdict line printed
per criterion.  Run with `pytest tests/test_acceptance.py -v -s`."""

from math import gcd

from gonal.chow import intersect_number
from gonal.hirzebruch import (
    FeBundle,
    bundle_cohomology,
    canonical_bundle,
    rather_free_check,
    trigonal_curve_bundle,
    trigonal_h0_oracle,
)
from gonal.hyperelliptic import hg_dimension
from gonal.invariants import (
    ballico_h0,
    chi_normal_bundle,
    chi_restricted_tangent,
    gonal_pencil_count,
    maroni_branch_boundaries,
    maroni_h0,
    moduli_dimension,
)
from gonal.picard import VerdictStatus, modular_degree_constraint
from gonal.scroll import canonical_class, curve_class, generic_scroll


def verdict(number: int, ok: bool, description: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def scroll_grid(n_max: int, g_max: int):
    for n in range(3, n_max + 1):
        for g in range(2 * n - 1, g_max + 1):
            yield g, n


def test_criterion_1_curve_class_pairings():
    ok = True
    for g, n in scroll_grid(6, 60):
        spec = generic_scroll(g, n)
        curve = curve_class(spec)
        amb = spec.ambient
        if intersect_number([amb.fiber()], curve) != n:
            ok = False
        if intersect_number([amb.hyperplane()], curve) != 2 * g - 2:
            ok = False
    verdict(1, ok, "f.C = n and D.C = 2g-2 for n in 3..6, 2n-2 < g <= 60")


def test_criterion_2_euler_characteristic_chain():
    ok = True
    for g, n in scroll_grid(6, 60):
        spec = generic_scroll(g, n)
        chi_t = chi_restricted_tangent(g, n)
        via_chow = intersect_number([-canonical_class(spec)], curve_class(spec)) + (
            n - 1
        ) * (1 - g)
        chi_n = chi_normal_bundle(g, n)
        if chi_t != n * n + 1 - g or via_chow != chi_t:
            ok = False
        if chi_n != chi_t + 3 * g - 3 or chi_n != 2 * g + n * n - 2:
            ok = False
    verdict(2, ok, "chi(T|C) = n^2+1-g by formula and Chow route; chi(N) chain")


def test_criterion_3_trigonal_oracle_equivalence():
    ok = all(
        trigonal_h0_oracle(g, k) == ballico_h0(g, 3, k)
        for g in range(5, 41)
        for k in range(0, g + 1)
    )
    verdict(3, ok, "surface oracle = closed form for g in 5..40, k in 0..g")


def test_criterion_4_maroni_ballico_agreement():
    ok = True
    for g, n in scroll_grid(5, 60):
        spec = generic_scroll(g, n)
        # h^0 on the scroll S(e_1, ..., e_{n-1}), e_i = shift + r_i
        scroll_type = [spec.shift + r for r in spec.splitting]
        for k in range(0, 2 * g + 1):
            h0 = maroni_h0(g, n, k)
            if h0 != ballico_h0(g, n, k):
                ok = False
            if h0 != k + 1 + sum(max(0, k - 1 - e) for e in scroll_type):
                ok = False
        if not maroni_branch_boundaries(g, n):
            ok = False
    verdict(4, ok, "piecewise = generic formula on n in 3..5, g <= 60, k <= 2g")


def test_criterion_5_dim_of_curve_system():
    ok = True
    for g in range(5, 41):
        h0 = bundle_cohomology(trigonal_curve_bundle(g)).h0
        if h0 - 1 != 2 * g + 7 or chi_normal_bundle(g, 3) != 2 * g + 7:
            ok = False
    verdict(5, ok, "h0(F_e, C) - 1 = 2g+7 = Hilbert dimension for g in 5..40")


def test_criterion_6_rather_free_pairing():
    ok = True
    for g in range(5, 41):
        pairing, is_free = rather_free_check(g)
        if pairing != -g - 8 or not is_free:
            ok = False
    verdict(6, ok, "(K_S.L) = -g-8 and the rather-free criterion holds, g in 5..40")


def test_criterion_7_divisibility_table():
    ok = True
    for g in range(2, 51):
        v = modular_degree_constraint(g, 2)
        if (v.divisor, v.status, v.sharp) != (2, VerdictStatus.THEOREM, True):
            ok = False
    for n in range(3, 7):
        for g in range(2 * n - 1, 51):
            v = modular_degree_constraint(g, n)
            expected_status = (
                VerdictStatus.PROVEN_FOR_TRIGONAL if n == 3 else VerdictStatus.CONJECTURE
            )
            if v.divisor != gcd(n, 2 * g - 2) or v.status != expected_status:
                ok = False
            if not v.sharp:
                ok = False
    verdict(7, ok, "n=2 theorem divisor 2; n>=3 gcd(n, 2g-2) with exact statuses")


def test_criterion_8_counts_and_dimensions():
    ok = gonal_pencil_count(3) == 2 and gonal_pencil_count(4) == 5
    for g in range(2, 51):
        for n in range(2, 9):
            if moduli_dimension(g, n) != min(3 * g - 3, 2 * n + 2 * g - 5):
                ok = False
        if hg_dimension(g) != 2 * g - 1:
            ok = False
    verdict(8, ok, "pencil counts 2 and 5; moduli and hyperelliptic dimensions")


def test_criterion_9_oracle_self_consistency():
    ok = True
    for e in (0, 1):
        k = canonical_bundle(e)
        for a in range(-6, 13):
            for b in range(-40, 41):
                bundle = FeBundle(e, a, b)
                h = bundle_cohomology(bundle)  # raises on negative h^1
                dual = bundle_cohomology(k - bundle)
                if h.h1 < 0 or (h.h0, h.h1, h.h2) != (dual.h2, dual.h1, dual.h0):
                    ok = False
    verdict(9, ok, "no negative h^1 and Serre symmetry on a >= -6, |b| <= 40, e in {0,1}")
