"""Helpers shared by the search's fold tests in test_kernel.py and test_search.py."""

from radonum.search import _add_element, _empty_state


def fold(elements, m, a, n):
    """State of the class of elements, folded in order, capped at a*n, or None once it holds a solution."""
    capmask = (1 << (a * n + 1)) - 1
    state = _empty_state(m, a, capmask)
    for x in elements:
        state = _add_element(state, 1 << x, a, capmask)
        if state is None:
            break
    return state


class Unfolded(int):
    """A layer that raises when ORed, as every fold of a layer does."""

    def __or__(self, other):
        raise AssertionError("the layer was folded")

    __ror__ = __or__
