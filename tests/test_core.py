"""Domain type behavior: validation, witness checks, JSON round-trips."""

import random
import tracemalloc

import pytest

import radonum
from radonum import (
    Color,
    Coloring,
    RadoEquation,
    Witness,
    decompose,
    exact_rado_number,
    known_rado_number,
    verify_witness,
)
from radonum.cli import CertificateFile
from radonum.core import INT64_MAX, check64, iter_bits


def test_equation_validation():
    with pytest.raises(ValueError):
        RadoEquation(1, 3)
    with pytest.raises(ValueError):
        RadoEquation(3, 0)
    with pytest.raises(ValueError):
        RadoEquation(3, -1)
    RadoEquation(2, 1)  # smallest legal equation


def test_equation_overflow_guard():
    big = 3_100_000_000  # (big-1)^2 > 2^63 - 1
    assert (big - 1) ** 2 > INT64_MAX
    with pytest.raises(OverflowError):
        RadoEquation(big, 3)
    with pytest.raises(OverflowError):
        RadoEquation(3, big)
    RadoEquation(3_000_000_000, 3)  # still inside the guard


def test_check64_bounds():
    assert check64(INT64_MAX) == INT64_MAX
    assert check64(-INT64_MAX - 1) == -INT64_MAX - 1
    with pytest.raises(OverflowError):
        check64(INT64_MAX + 1)


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b101101)) == [0, 2, 3, 5]
    # a dense mask of 10^5 bits, walked in linear time, and wide random and sparse ones
    assert list(iter_bits((1 << 100_001) - 2)) == list(range(1, 100_001))
    rng = random.Random(7)
    for mask in (rng.getrandbits(3000), (1 << 20_000) | (1 << 3) | 1):
        assert list(iter_bits(mask)) == [p for p in range(mask.bit_length()) if mask >> p & 1]


def test_coloring_basics():
    col = Coloring.from_red(6, [1, 2])
    assert col.red_elements() == (1, 2)
    assert list(iter_bits(col.blue_bits)) == [3, 4, 5, 6]
    assert col.color_of(2) is Color.RED
    assert col.color_of(5) is Color.BLUE
    assert Coloring(col.n, col.blue_bits).red_elements() == (3, 4, 5, 6)
    with pytest.raises(ValueError):
        col.color_of(7)
    with pytest.raises(ValueError):
        col.color_of(0)


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring(-1)
    with pytest.raises(ValueError):
        Coloring.from_red(3, [4])
    with pytest.raises(ValueError):
        Coloring.from_red(3, [0])
    with pytest.raises(ValueError):
        Coloring(3, 1)  # bit 0 is outside the domain
    empty = Coloring(0)
    assert empty.red_elements() == ()
    assert empty.blue_bits == 0


def test_coloring_validation_builds_no_domain_mask():
    # the checks read red_bits alone: [10^8] with red {1} allocates no 10^8-bit integer
    tracemalloc.start()
    try:
        col = Coloring(10**8, 0b10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert col.red_elements() == (1,)
    assert peak < 1 << 20
    with pytest.raises(ValueError):
        Coloring(3, 1 << 4)  # bit 4 is above n


def test_from_red_matches_setting_one_bit_at_a_time():
    # the mask read from base-2 digits is the one that ORing in 1 << x per element
    # builds: random red lists, with repeats and in any order, and sparse ones
    def one_bit_at_a_time(red):
        bits = 0
        for x in red:
            bits |= 1 << x
        return bits

    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(0, 300)
        red = [rng.randint(1, n) for _ in range(rng.randint(0, 2 * n))] if n else []
        assert Coloring.from_red(n, red).red_bits == one_bit_at_a_time(red)
    n = 1_600_000_000
    for red in ([1], [3, 1, 10**6, 3], rng.sample(range(1, 10**5), 50)):
        assert Coloring.from_red(n, iter(red)).red_bits == one_bit_at_a_time(red)
    # the mask is sized by max(red), not by n: [1.6 * 10^9] with red {1, 2} stays small
    tracemalloc.start()
    try:
        col = Coloring.from_red(n, [1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert col.red_elements() == (1, 2) and peak < 1 << 20
    # every element is range-checked, wherever it sits in the list
    for red in ([0], [5, 4], [1, 2, 3, 7, 2], [-1, 2]):
        with pytest.raises(ValueError, match="outside 1..4"):
            Coloring.from_red(4, red)


def test_coloring_json_round_trip():
    col = Coloring.from_red(8, [1, 3, 4, 7])
    data = col.to_dict()
    assert data == {"n": 8, "red": [1, 3, 4, 7]}
    assert Coloring.from_dict(data) == col
    assert Coloring.from_dict(Coloring(0).to_dict()) == Coloring(0)


def holds(values, eq: RadoEquation) -> bool:
    """Whether values solve eq, checked as a red witness on the all-red [max(values)]."""
    n = max(values)
    col = Coloring.from_red(n, range(1, n + 1))
    return verify_witness(Witness(tuple(values), Color.RED), col, eq)


def test_template_slots_and_values():
    # left side 2+2+2 = 6, target 4: 6 = a*4 holds for no integer a
    assert not any(holds((2, 2, 2, 4), RadoEquation(4, a)) for a in range(1, 7))
    # left side 2+2+2 = 6, target 3: 6 = 2*3
    assert holds((2, 2, 2, 3), RadoEquation(4, 2))


def test_template_values_group_spanning_target():
    # the x_m slot sits inside the final group when its count exceeds 1:
    # 5+5+6 = a*6 is true for no integer a
    assert not any(holds((5, 5, 6, 6), RadoEquation(4, a)) for a in range(1, 7))
    # 4+4+2 = 5*2, not 4+4 = 4*2
    assert holds((4, 4, 2, 2), RadoEquation(4, 5))
    data = Witness((4, 4, 2, 2), Color.RED).to_dict()
    assert data["groups"] == [[2, 4], [2, 2]]


def test_evaluate_template_examples():
    assert holds((1, 1, 1, 1), RadoEquation(4, 3))
    assert not holds((2,) * 7 + (5,), RadoEquation(8, 3))
    assert not holds((1, 1), RadoEquation(3, 1))  # two values for three variables


def test_generic_solution_template_always_holds():
    # (m-1) copies of a plus target m-1 solves every equation of the family
    for m in range(2, 41):
        for a in range(1, 11):
            assert holds((a,) * (m - 1) + (m - 1,), RadoEquation(m, a)), (m, a)


def test_secondary_solution_template_holds():
    # (m-2) copies of (a-1) plus two copies of m-2 is the other stock solution
    for m in range(3, 41):
        for a in range(2, 11):
            assert holds((a - 1,) * (m - 2) + (m - 2, m - 2), RadoEquation(m, a)), (m, a)


def test_evaluate_invariant_under_scaling():
    eq = RadoEquation(6, 3)
    assert holds((3,) * 5 + (5,), eq)
    for factor in (2, 3, 5, 10):
        assert holds((3 * factor,) * 5 + (5 * factor,), eq)
        assert not holds((3 * factor,) * 5 + (4 * factor,), eq)


def test_verify_witness_huge_value_is_false():
    # values are range-checked before any arithmetic: no OverflowError
    col = Coloring.from_red(3, [1, 2, 3])
    huge = Witness((INT64_MAX, INT64_MAX, 1), Color.RED)
    assert not verify_witness(huge, col, RadoEquation(3, 1))
    assert not verify_witness(Witness((2**200, 2**200, 2**201), Color.RED), col, RadoEquation(3, 1))


def test_witness_json_round_trip():
    w = Witness((2, 2, 4), Color.BLUE)
    data = w.to_dict()
    assert data == {"color": "blue", "groups": [[2, 2], [1, 4]]}


def test_witness_json_merges_adjacent_values():
    data = Witness((1, 1, 2, 2, 2, 1), Color.RED).to_dict()
    assert data["groups"] == [[2, 1], [3, 2], [1, 1]]


def test_value_types_have_no_instance_dict():
    # slotted frozen dataclasses keep their fields in slots, with no per-instance dict
    eq = RadoEquation(7, 3)
    outcome = exact_rado_number(eq, n_max=12)
    values = [
        eq,
        outcome.certificate,
        Witness((1, 2, 1), Color.RED),
        decompose(eq),
        known_rado_number(eq),
        outcome.stats,
        outcome,
        CertificateFile(eq, outcome.certificate, "valid"),
    ]
    names = [type(value).__name__ for value in values]
    assert names == [
        "RadoEquation",
        "Coloring",
        "Witness",
        "FormulaBreakdown",
        "KnownNumber",
        "SearchStats",
        "SearchOutcome",
        "CertificateFile",
    ]
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_public_api_is_pinned():
    # a new public name takes an edit here; a name that only tests use belongs in the tests
    assert set(radonum.__all__) == {
        "Color", "Coloring", "FormulaBreakdown", "KnownNumber", "RadoEquation",
        "SearchOutcome", "SearchStats", "Witness", "ceil_div", "ceiling_formula", "closed_form",
        "decompose", "exact_rado_number", "find_mono_solution", "is_valid_coloring",
        "known_rado_number", "lower_bound_coloring", "naive_find_mono_solution",
        "small_case_coloring", "verify_witness",
    }
    assert all(hasattr(radonum, name) for name in radonum.__all__)
