"""The search's incremental sumset fold, against the checker and the naive oracle."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from radonum import Coloring, RadoEquation, naive_find_mono_solution
from radonum.checker import _sumset_layers
from radonum.core import Color, iter_bits
from radonum.search import _add_element, _has_solution


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
    capmask = (1 << (a * n + 1)) - 1
    state = ((0,) * (m - 1), 0)
    bits = 0
    for x in elements:
        state = _add_element(state, x, a, capmask)
        bits |= 1 << x
        layers, targets = state
        assert list(layers) == _sumset_layers(bits, m - 1, capmask)
        assert targets == sum(1 << (a * t) for t in iter_bits(bits))


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(2, 6),
    a=st.integers(1, 6),
    n=st.integers(1, 8),
    data=st.data(),
)
def test_prefix_check_matches_oracle(m, a, n, data):
    # a class folded in any order has a solution iff the oracle finds a red witness
    members = data.draw(st.sets(st.integers(1, n), min_size=1))
    order = data.draw(st.permutations(sorted(members)))
    capmask = (1 << (a * n + 1)) - 1
    state = ((0,) * (m - 1), 0)
    for x in order:
        state = _add_element(state, x, a, capmask)
    # the oracle searches red first, so its witness color settles the red class alone
    witness = naive_find_mono_solution(Coloring.from_red(n, members), RadoEquation(m, a))
    assert _has_solution(state) == (witness is not None and witness.color is Color.RED)
