"""The search's incremental sumset fold, against the checker and the naive oracle."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from radonum import (
    Coloring,
    RadoEquation,
    SumsetTable,
    naive_find_mono_solution,
    prefix_is_solution_free,
)
from radonum.core import Color, iter_bits
from radonum.search import _add_element


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(2, 6),
    a=st.integers(1, 6),
    n=st.integers(1, 24),
    data=st.data(),
)
def test_fold_matches_sumset_table(m, a, n, data):
    # elements arrive in any order and may repeat; every prefix is compared
    elements = data.draw(st.lists(st.integers(1, n), max_size=12))
    cap = a * n
    capmask = (1 << (cap + 1)) - 1
    state = ((0,) * (m - 1), 0)
    bits = 0
    for x in elements:
        state = _add_element(state, x, a, capmask)
        bits |= 1 << x
        layers, targets = state
        assert list(layers) == SumsetTable.build(bits, m - 1, cap).layers
        assert targets == sum(1 << (a * t) for t in iter_bits(bits))


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(2, 6),
    a=st.integers(1, 6),
    n=st.integers(1, 8),
    data=st.data(),
)
def test_prefix_check_matches_oracle(m, a, n, data):
    members = data.draw(st.sets(st.integers(1, n), min_size=1))
    last = data.draw(st.sampled_from(sorted(members)))
    eq = RadoEquation(m, a)
    col = Coloring.from_red(n, members)
    # the oracle searches red first, so its witness color settles the red class alone
    witness = naive_find_mono_solution(col, eq)
    want = witness is None or witness.color is Color.BLUE
    assert prefix_is_solution_free(col, eq, last) == want
    assert prefix_is_solution_free(col.swapped(), eq, last) == want
