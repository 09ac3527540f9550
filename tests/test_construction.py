"""Lower-bound colorings: exact shape and solution-freeness."""

import pytest

from radonum import (
    Coloring,
    RadoEquation,
    ceiling_formula,
    is_valid_coloring,
    lower_bound_coloring,
    naive_find_mono_solution,
    small_case_coloring,
)
from radonum.formula import ceil_div


def test_shape_for_8_3():
    col = lower_bound_coloring(RadoEquation(8, 3))
    assert col == Coloring.from_red(6, [1, 2])
    assert col.blue_bits == 0b1111000  # blue is 3..6


def test_shape_for_5_3():
    col = lower_bound_coloring(RadoEquation(5, 3))
    assert col == Coloring.from_red(2, [1])


def test_empty_when_bound_is_one():
    # C(m, a) = 1 whenever m <= a + 1; the empty coloring is the certificate
    for a in range(3, 8):
        for m in range(3, a + 2):
            assert lower_bound_coloring(RadoEquation(m, a)) == Coloring(0)


def test_red_prefix_length():
    for a in range(3, 7):
        for m in range(a + 2, 2 * a * a + 7):
            eq = RadoEquation(m, a)
            col = lower_bound_coloring(eq)
            bound = ceiling_formula(eq)
            assert col.n == bound - 1
            red = col.red_elements()
            assert len(red) == ceil_div(m - 1, a) - 1
            assert red == tuple(range(1, len(red) + 1))
            # the red prefix always leaves room for at least one blue element
            assert len(red) < col.n


@pytest.mark.parametrize(("m", "a"), [(8, 2), (100, 2), (3, 1), (2, 3)])
def test_two_runs_for_every_a(m, a):
    # red 1..q-1 and blue q..C-1 is solution-free for a < 3 and m = 2 as well
    eq = RadoEquation(m, a)
    q, c = ceil_div(m - 1, a), ceiling_formula(eq)
    col = lower_bound_coloring(eq)
    assert col.n == c - 1
    assert col.red_elements() == tuple(range(1, q))
    assert col.blue_bits == (1 << c) - (1 << q)  # empty when C = 1
    assert is_valid_coloring(col, eq)


def test_solution_free_small_grid():
    for a in range(1, 5):
        for m in range(3, 2 * a * a + 7):
            eq = RadoEquation(m, a)
            assert is_valid_coloring(lower_bound_coloring(eq), eq), (m, a)


def test_solution_free_cross_checked_with_oracle():
    for m in range(3, 9):
        eq = RadoEquation(m, 3)
        col = lower_bound_coloring(eq)
        if col.n <= 8 and m <= 6:
            assert naive_find_mono_solution(col, eq) is None


def test_small_case_colorings():
    col6 = small_case_coloring(6)
    assert col6 == Coloring.from_red(4, [1, 4])
    assert is_valid_coloring(col6, RadoEquation(6, 3))
    col5 = small_case_coloring(5)
    assert col5 == Coloring.from_red(3, [1, 3])
    assert is_valid_coloring(col5, RadoEquation(5, 3))


def test_small_case_domains_touch_the_rado_number():
    # these two colorings fill [RadoNumber - 1], one better than the general pattern
    assert small_case_coloring(5).n == 4 - 1
    assert small_case_coloring(6).n == 5 - 1
    assert small_case_coloring(6).n > lower_bound_coloring(RadoEquation(6, 3)).n


def test_small_case_rejects_other_m():
    for m in (3, 4, 7, 8):
        with pytest.raises(ValueError):
            small_case_coloring(m)
