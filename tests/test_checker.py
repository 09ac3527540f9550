"""Monochromatic solution detection: sumset table, witnesses, naive oracle."""

from itertools import product

import pytest

from radonum import (
    Color,
    Coloring,
    RadoEquation,
    Witness,
    checker,
    find_mono_solution,
    is_valid_coloring,
    lower_bound_coloring,
    naive_find_mono_solution,
    verify_witness,
)
from radonum.checker import NAIVE_GUARD, _sumset_layers


def all_colorings(n):
    for bits in range(1 << n):
        yield Coloring(n, bits << 1)


def capmask(cap):
    return (1 << (cap + 1)) - 1


def test_sumset_table_layer_one_is_the_class():
    layers = _sumset_layers(0b10110, 3, capmask(12))  # class {1, 2, 4}
    assert len(layers) == 3
    assert layers[0] == 0b10110
    assert (layers[0] >> 2) & 1
    assert not (layers[0] >> 3) & 1


def test_sumset_table_recurrence_and_support():
    elements = [1, 3, 5]
    cap = 18
    layers = _sumset_layers(0b101010, 4, capmask(cap))  # class {1, 3, 5}
    for k in range(1, 4):
        expected = 0
        for e in elements:
            expected |= layers[k - 1] << e
        assert layers[k] == expected & capmask(cap)
    for k in range(1, 5):
        layer = layers[k - 1]
        low = (layer & -layer).bit_length() - 1
        assert low == k * 1  # k copies of the least element
        assert layer.bit_length() - 1 <= k * 5


def test_sumset_table_truncates_at_cap():
    layers = _sumset_layers(0b1000, 3, capmask(5))  # class {3}, cap 5
    # L_2 = {6} & cap is L_1 shifted by min S = 3 and capped: the table stops at L_1
    assert layers == [0b1000]
    reference = [0b1000]  # the per-element recurrence L_{k+1} = (L_k << 3) & cap
    for _ in range(2):
        reference.append((reference[-1] << 3) & capmask(5))
    assert reference == [0b1000, 0, 0]  # 6 and 9 exceed the cap
    while len(layers) < 3:  # the layers past the table, one shift of min S each
        layers.append((layers[-1] << 3) & capmask(5))
    assert layers == reference


def test_three_run_tables_stop_at_the_first_repeat(monkeypatch):
    # red {1, 3, 5} and blue {2, 4} + [6, 10^5] are three runs each. Red's
    # targets are at least ceil(999*1/3) = 333 > 5, so red builds no table;
    # blue's are at least t_lo = ceil(999*2/3) = 666, so its table is capped at
    # a*T = 3*1332 = 3,996 bits, not a*max S = 300,000, and built from the
    # elements up to 3,996 - 998*2 = 2,000. It repeats by a shift of min S
    # after two layers, so layer 999 is one shift of layer 2
    tables = []
    real = checker._sumset_layers
    monkeypatch.setattr(
        checker, "_sumset_layers", lambda *args: tables.append(real(*args)) or tables[-1]
    )
    witness = find_mono_solution(Coloring.from_red(10**5, [1, 3, 5]), RadoEquation(1000, 3))
    assert witness.to_dict() == {"color": "blue", "groups": [[999, 2], [1, 666]]}
    assert len(tables) == 1 and len(tables[0]) == 2
    assert [layer.bit_length() - 1 for layer in tables[0]] == [2000, 3 * 1332]


def test_blue_is_read_from_red_without_a_mask_of_n(monkeypatch):
    # blue is the gaps of red: a blue class of one or two runs is read as run
    # ends, and one of three runs or more only up to the bound its table reads,
    # so no check below builds the (n+1)-bit blue mask of [n]
    def no_mask(col):
        raise AssertionError("the checker built the blue mask of [n]")

    monkeypatch.setattr(Coloring, "blue_bits", property(no_mask))
    eq = RadoEquation(20000, 1)
    col = lower_bound_coloring(eq)  # red 1..19998, blue 19999..399,960,000
    assert col.n == 399_960_000 and is_valid_coloring(col, eq)
    witness = find_mono_solution(Coloring(col.n, col.red_bits ^ (1 << 5)), eq)
    assert witness.to_dict() == {"color": "blue", "groups": [[19999, 5], [1, 99995]]}
    # {2, 4} and 6..10^9: three runs, decided by a table of a*T = 3,996 bits
    witness = find_mono_solution(Coloring.from_red(10**9, [1, 3, 5]), RadoEquation(1000, 3))
    assert witness.to_dict() == {"color": "blue", "groups": [[999, 2], [1, 666]]}


def test_all_red_interval_has_solution():
    # [n] in one class always solves once n >= max(a, m-1)
    for m in range(2, 7):
        for a in range(1, 5):
            n = max(a, m - 1)
            col = Coloring.from_red(n, range(1, n + 1))
            witness = find_mono_solution(col, RadoEquation(m, a))
            assert witness is not None, (m, a)
            assert witness.color is Color.RED
            assert verify_witness(witness, col, RadoEquation(m, a))


def test_lower_bound_coloring_of_8_3_is_solution_free():
    eq = RadoEquation(8, 3)
    col = Coloring.from_red(6, [1, 2])
    assert find_mono_solution(col, eq) is None
    assert naive_find_mono_solution(col, eq) is None
    assert is_valid_coloring(col, eq)


def test_single_red_prefix_of_8_3_has_blue_solution():
    # shrinking the red prefix to {1} frees 2 for blue: 6*2 + 3 = 15 = 3*5
    eq = RadoEquation(8, 3)
    col = Coloring.from_red(6, [1])
    witness = find_mono_solution(col, eq)
    assert witness is not None
    assert witness.color is Color.BLUE
    assert verify_witness(witness, col, eq)
    assert naive_find_mono_solution(col, eq) is not None


def test_hand_built_small_colorings_are_solution_free():
    assert is_valid_coloring(Coloring.from_red(4, [1, 4]), RadoEquation(6, 3))
    assert is_valid_coloring(Coloring.from_red(3, [1, 3]), RadoEquation(5, 3))


def test_empty_coloring_is_valid():
    for m, a in [(3, 3), (4, 3), (2, 1), (5, 2)]:
        assert is_valid_coloring(Coloring(0), RadoEquation(m, a))


def test_witness_determinism_smallest_target_first():
    # all-red [4] for m=5, a=3: greedy picks target 2 and left side 1+1+1+3
    eq = RadoEquation(5, 3)
    col = Coloring.from_red(4, range(1, 5))
    witness = find_mono_solution(col, eq)
    assert witness == find_mono_solution(col, eq)
    assert witness.values == (1, 1, 1, 3, 2)  # 1+1+1+3 = 3*2


def test_red_class_checked_before_blue():
    # both classes solve for (3, 1): red 1+1=2, blue 3+3=6; red must win
    eq = RadoEquation(3, 1)
    col = Coloring.from_red(6, [1, 2, 4, 5])
    swapped = Coloring(col.n, col.blue_bits)
    assert find_mono_solution(swapped, eq).color is Color.RED  # blue class alone solves
    witness = find_mono_solution(col, eq)
    assert witness is not None
    assert witness.color is Color.RED
    assert witness.values == (1, 1, 2)


def test_naive_witness_order_matches_multiset_enumeration():
    eq = RadoEquation(3, 3)
    col = Coloring.from_red(2, [1, 2])
    witness = naive_find_mono_solution(col, eq)
    assert witness is not None
    assert witness.color is Color.RED
    assert witness.values == (1, 2, 1)


def test_naive_example_one_element():
    eq = RadoEquation(4, 3)
    witness = naive_find_mono_solution(Coloring.from_red(1, [1]), eq)
    assert witness is not None
    assert witness.values == (1, 1, 1, 1)


def test_naive_guard_refuses_large_instances():
    # all-red [11] for m=7: 11^6 = 1,771,561 multisets, past the guard
    eq = RadoEquation(7, 1)
    col = Coloring.from_red(11, range(1, 12))
    assert 11**6 > NAIVE_GUARD
    with pytest.raises(ValueError, match="exceeds the guard"):
        naive_find_mono_solution(col, eq)


def test_oracle_agreement_small():
    for m, a in [(3, 3), (4, 3), (3, 1), (4, 2)]:
        eq = RadoEquation(m, a)
        for n in range(0, 6):
            for col in all_colorings(n):
                fast = find_mono_solution(col, eq)
                slow = naive_find_mono_solution(col, eq)
                assert (fast is None) == (slow is None), (m, a, col)
                if fast is not None:
                    assert verify_witness(fast, col, eq)
                    assert verify_witness(slow, col, eq)


def test_solutions_survive_extension():
    # extending the interval never destroys an existing solution
    eq = RadoEquation(3, 1)
    for col in all_colorings(4):
        if find_mono_solution(col, eq) is None:
            continue
        for extra in product([0, 1], repeat=2):
            extended = Coloring(6, col.red_bits | (extra[0] << 5) | (extra[1] << 6))
            assert find_mono_solution(extended, eq) is not None


def test_color_swap_symmetry():
    for m, a in [(3, 3), (5, 3), (4, 2)]:
        eq = RadoEquation(m, a)
        for col in all_colorings(5):
            a_side = find_mono_solution(col, eq)
            b_side = find_mono_solution(Coloring(col.n, col.blue_bits), eq)
            assert (a_side is None) == (b_side is None), (m, a, col)


def test_witness_values_scale():
    # doubling every value of a found witness still solves the equation
    eq = RadoEquation(5, 3)
    col = Coloring.from_red(6, range(1, 7))
    witness = find_mono_solution(col, eq)
    assert witness is not None
    doubled = Witness(tuple(2 * v for v in witness.values), witness.color)
    assert verify_witness(doubled, Coloring.from_red(12, range(1, 13)), eq)


def test_verify_witness_rejects_bad_claims():
    eq = RadoEquation(3, 3)
    col = Coloring.from_red(3, [1, 2])
    good = Witness((1, 2, 1), Color.RED)
    assert verify_witness(good, col, eq)
    # wrong color
    assert not verify_witness(Witness(good.values, Color.BLUE), col, eq)
    # value outside the interval
    big = Witness((6, 6, 4), Color.RED)
    assert not verify_witness(big, col, eq)
    # nonpositive values
    assert not verify_witness(Witness((0, 0, 0), Color.RED), col, eq)
    assert not verify_witness(Witness((-1, 4, 1), Color.RED), col, eq)
    # equation not satisfied
    wrong = Witness((1, 2, 2), Color.RED)
    assert not verify_witness(wrong, col, eq)
    # wrong shape
    short = Witness((1, 1), Color.RED)
    assert not verify_witness(short, col, eq)
    assert not verify_witness(Witness((1, 2, 1, 1), Color.RED), col, eq)


def test_witness_can_repeat_one_element():
    # m-1 = a makes the all-ones vector a solution inside a single element
    eq = RadoEquation(4, 3)
    col = Coloring.from_red(1, [1])
    witness = find_mono_solution(col, eq)
    assert witness is not None
    assert witness.values == (1, 1, 1, 1)
    assert verify_witness(witness, col, eq)
