"""Nested-ceiling formula, closed forms, bounds, and known-number dispatch."""

import pytest

from radonum import (
    FormulaBreakdown,
    KnownSource,
    RadoEquation,
    ceil_div,
    ceiling_formula,
    closed_form,
    decompose,
    general_threshold,
    known_rado_number,
)

# Spot values for a = 3, checked by evaluating the nested ceilings by hand:
# inner = ceil((m-1)/3), value = ceil((m-1)*inner/3).
A3_VALUES = {16: 25, 15: 24, 14: 22, 13: 16, 12: 15, 11: 14, 10: 9, 9: 8, 8: 7, 7: 4, 6: 4, 5: 3}


def solution_values_fit(eq):
    """Whether 2m-2 and a+1 both lie within [1, C(m, a)].

    Monochromatic solutions are assembled from values no larger than 2m-2,
    so this is the room needed to run those constructions inside the interval
    [C(m, a)]. Holds whenever a >= 3 and m >= 2a^2 - a + 2.
    """
    value = ceiling_formula(eq)
    return 2 * eq.m - 2 <= value and eq.a + 1 <= value


def correction_term_bounded(a, v, c):
    """Bound check for the correction term of the c >= 2 closed form.

    With t = ceil((c-1)*(v+1)/a), verifies
    a*c - a <= -v*a*c + v*a + t*a^2 <= a*c - a + a^2.
    """
    if a < 3:
        raise ValueError(f"need a >= 3, got a={a}")
    if not 0 <= v <= a - 1:
        raise ValueError(f"need 0 <= v <= a-1, got v={v}")
    if not 2 <= c <= a - 1:
        raise ValueError(f"need 2 <= c <= a-1, got c={c}")
    t = ceil_div((c - 1) * (v + 1), a)
    term = -v * a * c + v * a + t * a * a
    return a * c - a <= term <= a * c - a + a * a


def test_ceil_div():
    assert ceil_div(0, 3) == 0
    assert ceil_div(1, 3) == 1
    assert ceil_div(3, 3) == 1
    assert ceil_div(4, 3) == 2
    with pytest.raises(ValueError):
        ceil_div(-1, 3)
    with pytest.raises(ValueError):
        ceil_div(3, 0)


def test_ceiling_formula_a3_values():
    for m, want in A3_VALUES.items():
        assert ceiling_formula(RadoEquation(m, 3)) == want, m


def test_ceiling_formula_is_one_up_to_a_plus_one():
    for a in range(3, 11):
        for m in range(2, a + 2):
            assert ceiling_formula(RadoEquation(m, a)) == 1, (m, a)
        assert ceiling_formula(RadoEquation(a + 2, a)) > 1


def test_inner_ceiling_must_come_first():
    # merging the ceilings into ceil((m-1)^2 / a^2) is a different function
    eq = RadoEquation(8, 3)
    merged = ceil_div((eq.m - 1) ** 2, eq.a**2)
    assert ceiling_formula(eq) == 7
    assert merged == 6


def test_decompose_examples():
    assert decompose(RadoEquation(14, 3)) == FormulaBreakdown(1, 1, 2, 1)
    assert decompose(RadoEquation(16, 3)) == FormulaBreakdown(1, 2, 1, 0)
    assert decompose(RadoEquation(9, 3)) == FormulaBreakdown(1, 0, 0, 0)
    assert decompose(RadoEquation(2, 5)) == FormulaBreakdown(0, 0, 2, 1)


def test_decompose_rejects_a1():
    with pytest.raises(ValueError):
        decompose(RadoEquation(5, 1))


def test_decompose_reassembles():
    for a in range(2, 12):
        for m in range(2, 400):
            bd = decompose(RadoEquation(m, a))
            assert bd.u * a * a + bd.v * a + bd.c == m
            assert 0 <= bd.v <= a - 1
            assert 0 <= bd.c <= a - 1
            if bd.c < 2:
                assert bd.t == 0
            else:
                assert bd.t == ceil_div((bd.c - 1) * (bd.v + 1), a)


def test_closed_form_examples():
    assert closed_form(RadoEquation(16, 3)) == 25  # c=1 case
    assert closed_form(RadoEquation(15, 3)) == 24  # c=0 case
    assert closed_form(RadoEquation(14, 3)) == 22  # c>=2 case


def test_closed_form_matches_ceiling_formula():
    for a in range(2, 7):
        for m in range(3, 500):
            eq = RadoEquation(m, a)
            assert closed_form(eq) == ceiling_formula(eq), (m, a)


def test_solution_values_fit_inside_the_proved_regime():
    for a in range(3, 9):
        start = general_threshold(a)
        for m in range(start, start + 120):
            assert solution_values_fit(RadoEquation(m, a)), (m, a)


def test_solution_values_fit_boundary():
    # at m = 2a^2 - a + b with 2 <= b <= a+1 the bound is tight: C = 2m - 2
    for a in range(3, 9):
        for b in range(2, a + 2):
            m = 2 * a * a - a + b
            eq = RadoEquation(m, a)
            assert solution_values_fit(eq)
            assert ceiling_formula(eq) == 2 * m - 2, (a, b)
    assert ceiling_formula(RadoEquation(17, 3)) == 32 == 2 * 17 - 2


def test_solution_values_fit_fails_for_small_m():
    assert not solution_values_fit(RadoEquation(5, 3))
    assert not solution_values_fit(RadoEquation(10, 4))


def test_correction_term_examples():
    assert correction_term_bounded(3, 0, 2)  # term 9 inside [3, 12]
    assert correction_term_bounded(4, 3, 3)  # term 8 equals the lower bound


def test_correction_term_bounded_everywhere():
    for a in range(3, 51):
        for v in range(0, a):
            for c in range(2, a):
                assert correction_term_bounded(a, v, c), (a, v, c)


def test_correction_term_validates_ranges():
    with pytest.raises(ValueError):
        correction_term_bounded(2, 0, 2)
    with pytest.raises(ValueError):
        correction_term_bounded(4, 4, 2)
    with pytest.raises(ValueError):
        correction_term_bounded(4, 0, 1)


def test_known_rado_number_a3():
    expected = {3: 9, 4: 1, 5: 4, 6: 5}
    for m, want in expected.items():
        known = known_rado_number(RadoEquation(m, 3))
        assert known is not None
        assert known.value == want
        assert known.source is KnownSource.A3_SMALL
    for m in range(7, 40):
        known = known_rado_number(RadoEquation(m, 3))
        assert known is not None
        assert known.source is KnownSource.A3_CEILING
        assert known.value == ceiling_formula(RadoEquation(m, 3))


def test_known_rado_number_a1():
    for m, want in [(3, 5), (4, 11), (5, 19), (6, 29)]:
        known = known_rado_number(RadoEquation(m, 1))
        assert known is not None
        assert known.value == want == m * m - m - 1
        assert known.source is KnownSource.A1_QUADRATIC
    assert known_rado_number(RadoEquation(2, 1)) is None


def test_known_rado_number_a2():
    for m in range(6, 30):
        known = known_rado_number(RadoEquation(m, 2))
        assert known is not None
        assert known.source is KnownSource.A2_CEILING
        assert known.value == ceiling_formula(RadoEquation(m, 2))
    assert known_rado_number(RadoEquation(6, 2)).value == 8
    assert known_rado_number(RadoEquation(7, 2)).value == 9
    for m in range(2, 6):
        assert known_rado_number(RadoEquation(m, 2)) is None


def test_known_rado_number_large_a_threshold():
    for a in range(4, 9):
        threshold = general_threshold(a)
        below = known_rado_number(RadoEquation(threshold - 1, a))
        assert below is None
        at = known_rado_number(RadoEquation(threshold, a))
        assert at is not None
        assert at.source is KnownSource.GENERAL_CEILING
        assert at.value == ceiling_formula(RadoEquation(threshold, a))
    assert known_rado_number(RadoEquation(10, 4)) is None
    assert known_rado_number(RadoEquation(30, 4)) is not None


def test_known_rado_number_absent_for_m2():
    for a in range(3, 10):
        assert known_rado_number(RadoEquation(2, a)) is None
