"""The exact message of each lower-bound hypothesis at its public entry points."""

import pytest

from gonal.chow import AmbientScroll
from gonal.errors import DomainError
from gonal.hirzebruch import FeBundle, trigonal_curve_bundle, trigonal_h0_oracle
from gonal.hyperelliptic import hg_dimension
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
from gonal.picard import degree_subgroup, modular_degree_constraint, solve_degree
from gonal.report import generate_report


# Each guarded public entry point, with its exact message.  Where two
# lower bounds fail at once, the first check in the function wins.
GUARDED = [
    (AmbientScroll, (9, 2), "requires n >= 3 (got n=2)"),
    (AmbientScroll, (1, 2), "requires n >= 3 (got n=2)"),
    (AmbientScroll, (1, 3), "requires g >= 2 (got g=1)"),
    (FeBundle, (-1, 0, 0), "requires e >= 0 (got e=-1)"),
    (trigonal_h0_oracle, (6, -1), "requires k >= 0 (got k=-1)"),
    (hg_dimension, (1,), "requires g >= 2 (got g=1)"),
    (chi_restricted_tangent, (9, 2), "requires n >= 3 (got n=2)"),
    (chi_normal_bundle, (9, 2), "requires n >= 3 (got n=2)"),
    (h1_double_pencil, (9, 1), "requires n >= 2 (got n=1)"),
    (moduli_dimension, (1, 1), "requires g >= 2 (got g=1)"),
    (moduli_dimension, (9, 1), "requires n >= 2 (got n=1)"),
    (gonal_pencil_count, (1,), "requires n >= 2 (got n=1)"),
    (ballico_h0, (9, 2, 1), "requires n >= 3 (got n=2)"),
    (ballico_h0, (9, 3, -1), "requires k >= 0 (got k=-1)"),
    (maroni_h0, (9, 2, 1), "requires n >= 3 (got n=2)"),
    (maroni_h0, (9, 3, -1), "requires k >= 0 (got k=-1)"),
    (degree_subgroup, (1, 1), "requires g >= 2 (got g=1)"),
    (degree_subgroup, (9, 1), "requires n >= 2 (got n=1)"),
    (solve_degree, (1, 1, 0), "requires g >= 2 (got g=1)"),
    (solve_degree, (9, 1, 0), "requires n >= 2 (got n=1)"),
    (modular_degree_constraint, (1, 1), "requires g >= 2 (got g=1)"),
    (modular_degree_constraint, (9, 1), "requires n >= 2 (got n=1)"),
    (generate_report, (9, 3, -1), "requires k_max >= 0 (got k_max=-1)"),
    (generate_report, (9, 3, 10**7 + 1), "requires k_max <= 10000000 (got k_max=10000001)"),
    (generate_report, (10**20, 10**6 + 1, 0), "requires n <= 1000000 (got n=1000001)"),
    # the scroll hypothesis fails at the boundary genus g = 2n-2
    (trigonal_curve_bundle, (4,), "requires 2n-2 < g (got 2n-2=4, g=4)"),
    (trigonal_curve_bundle, (1,), "requires g >= 2 (got g=1)"),
    (modular_degree_constraint, (8, 5), "requires 2n-2 < g (got 2n-2=8, g=8)"),
    (maroni_branch_boundaries, (6, 4), "requires 2n-2 < g (got 2n-2=6, g=6)"),
]


@pytest.mark.parametrize(
    "entry,args,message",
    GUARDED,
    ids=[f"{entry.__name__}{args}" for entry, args, _ in GUARDED],
)
def test_guard_message(entry, args, message):
    with pytest.raises(DomainError) as info:
        entry(*args)
    assert str(info.value) == message


def test_scroll_range_passes_without_another_guard(monkeypatch):
    # a point in range is answered by one in_scroll_range test; the bound
    # by bound checks run only to name the bound that fails
    from gonal import errors

    def forbidden(*args):
        raise AssertionError("a single-bound guard ran on the passing path")

    for name in ("require_at_least", "require_gonal_range", "in_gonal_range"):
        monkeypatch.setattr(errors, name, forbidden)
    for g, n in ((5, 3), (9, 4), (2 * 10**6 + 1, 10**6), (10**40, 3)):
        assert errors.require_scroll_range(g, n) is None


def test_decimal_digits_counts_without_writing():
    from gonal.errors import decimal_digits

    for k in range(0, 4200, 7):
        for v in (10**k - 1, 10**k, 10**k + 1, -(10**k)):
            assert decimal_digits(v) == len(str(abs(v))), v
    assert decimal_digits(10**5000) == 5001
    assert decimal_digits(-(10**5000) + 1) == 5000


def test_a_value_past_the_int_limit_is_shown_by_its_digits():
    from gonal import errors

    limit = errors.int_text_limit()
    if not limit:
        pytest.skip("this interpreter prints any number of digits")
    longest = 10**limit - 1  # the most digits that print
    with pytest.raises(DomainError) as info:
        errors.require_at_most("k", longest, 0)
    assert str(info.value) == f"requires k <= 0 (got k={longest})"
    cases = [
        (lambda: errors.require_at_most("k", longest + 1, 0), f"requires k <= 0 (got k=<{limit + 1} digits>)"),
        (lambda: errors.require_at_least("k", -(10**limit), 0), f"requires k >= 0 (got k=-<{limit + 1} digits>)"),
        (
            lambda: errors.require_gonal_range(5, 10**limit),
            f"requires 2n-2 < g (got 2n-2=<{limit + 1} digits>, g=5)",
        ),
    ]
    for call, message in cases:
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message
