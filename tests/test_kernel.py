"""The search's and the checker's kernels against references and brute force.

The checker's run-length sumset layers are compared with the per-element
reference sumset_layers, down to the witnesses find_mono_solution returns. The
incremental sumset fold, its saturated-layer index and the lookahead's blocked-y
mask are compared with the layer-at-a-time checker, the reference layers, the
naive oracle, the per-y test blocks and plain enumeration, and
exact_rado_number with a search that tries every coloring.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radonum import (
    Coloring,
    RadoEquation,
    checker,
    find_mono_solution,
    lower_bound_coloring,
    naive_find_mono_solution,
)
from radonum.checker import _sumset_layers
from radonum.core import Color, iter_bits
from radonum.search import (
    CUTOFF,
    EXACT,
    _add_element,
    _empty_state,
    _has_solution,
    exact_rado_number,
)

# solution shapes blocks covers: (copies of y on the left side, whether x_m = y)
Y_RIGHT, Y_LEFT, Y_BOTH = (0, True), (1, False), (1, True)


def sumset_layers(class_bits, depth, capmask):
    """The reference for checker._sumset_layers: one shift per class element."""
    elements = list(iter_bits(class_bits))
    layers = [class_bits & capmask]
    for _ in range(depth - 1):
        acc = 0
        prev = layers[-1]
        for e in elements:
            acc |= prev << e
        layers.append(acc & capmask)
    return layers


def interval(lo, hi):
    """Bits lo..hi of a class."""
    return ((1 << (hi - lo + 1)) - 1) << lo


def sum_bits(masks):
    out = 0
    for mask in masks:
        out |= mask
    return out


# classes that are mostly long runs, with gaps and single elements between them
runs = st.lists(st.tuples(st.integers(1, 80), st.integers(0, 40)), max_size=5).map(
    lambda spans: sum_bits(interval(p, p + w) for p, w in spans)
)
scattered = st.sets(st.integers(1, 80), max_size=20).map(
    lambda members: sum_bits(1 << x for x in members)
)


@settings(max_examples=400, deadline=None)
@given(
    class_bits=st.one_of(runs, scattered, st.tuples(runs, scattered).map(lambda t: t[0] | t[1])),
    depth=st.integers(1, 7),
    cap=st.integers(0, 400),
)
def test_run_length_layers_match_reference(class_bits, depth, cap):
    capmask = (1 << (cap + 1)) - 1
    assert _sumset_layers(class_bits, depth, capmask) == sumset_layers(class_bits, depth, capmask)


@pytest.mark.parametrize(
    ("class_bits", "depth", "cap"),
    [
        (0, 4, 30),  # an empty class
        (1 << 1, 5, 30),  # single elements
        (1 << 7, 4, 30),
        ((1 << 3) | (1 << 9) | (1 << 20), 4, 60),
        (interval(1, 6), 4, 40),  # a run that starts at 1
        (interval(1, 1) | interval(3, 5) | interval(8, 15), 5, 80),  # widths 0, 2 and 7
        (interval(2, 3) | interval(10, 11), 4, 40),  # two runs of width 1
        (interval(5, 29), 3, 20),  # a run that crosses the cap
        (interval(2, 9), 1, 40),  # depth 1
        (interval(2, 9) | (1 << 30), 1, 12),  # depth 1, an element above the cap
        (interval(20, 26), 3, 10),  # a capmask below the class
        (interval(20, 26), 3, -1),  # capmask 0
    ],
)
def test_run_length_layers_edges(class_bits, depth, cap):
    capmask = (1 << (cap + 1)) - 1
    layers = _sumset_layers(class_bits, depth, capmask)
    assert len(layers) == depth
    assert layers == sumset_layers(class_bits, depth, capmask)


# certify-size points: lower-bound colorings of [C - 1] with C - 1 = 113, 112, 111
@pytest.mark.parametrize(("m", "a"), [(32, 3), (52, 5), (82, 8)])
def test_witnesses_match_reference_layers(monkeypatch, m, a):
    # the lower-bound coloring and every one-element flip of it, with the layers
    # built by run-length smearing and by the per-element reference
    eq = RadoEquation(m, a)
    base = lower_bound_coloring(eq)
    colorings = [base] + [Coloring(base.n, base.red_bits ^ (1 << x)) for x in range(1, base.n + 1)]
    fast = [find_mono_solution(col, eq) for col in colorings]
    monkeypatch.setattr(checker, "_sumset_layers", sumset_layers)
    assert fast == [find_mono_solution(col, eq) for col in colorings]
    assert fast[0] is None and all(fast[1:])


def blocks(state, y, a):
    """Whether adding a future element y to the class would close a solution.

    The reference for bit y of the state's blocked mask, one y at a time. Reads
    only the class's layers and targets a*S; y itself need not be folded in.
    Sound but incomplete: it finds the solutions in S + {y} where y appears at
    most once on the left side, namely
      a*y in L_{m-1}               y only on the right,
      y + s = a*t, s in L_{m-2}    y once on the left, some t in S on the right,
      (a-1)*y in L_{m-2}           y once on the left and on the right,
    with L_0 = {0}. Every value tested is at most a*y, so the cap at a*n_max
    loses nothing while y <= n_max.
    """
    layers, targets = state[:2]
    below = layers[-2] if len(layers) > 1 else 1  # L_{m-2}
    return bool(
        layers[-1] >> (a * y) & 1
        or (below << y) & targets
        or below >> ((a - 1) * y) & 1
    )


def fold(elements, m, a, n):
    capmask = (1 << (a * n + 1)) - 1
    state = _empty_state(m, a, capmask)
    for x in elements:
        state = _add_element(state, x, a, capmask)
    return state


def shapes_closed_by(members, y, m, a):
    """Shapes of the solutions in members + {y} that use y, by enumeration."""
    pool = sorted(set(members) | {y})
    found = set()
    for left in itertools.combinations_with_replacement(pool, m - 1):
        for right in pool:
            if sum(left) == a * right and (y in left or right == y):
                found.add((left.count(y), right == y))
    return found


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
    state = _empty_state(m, a, capmask)
    bits = 0
    for x in elements:
        state = _add_element(state, x, a, capmask)
        bits |= 1 << x
        layers, targets = state[:2]
        assert list(layers) == _sumset_layers(bits, m - 1, capmask)
        assert targets == sum(1 << (a * t) for t in iter_bits(bits))


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(2, 8),
    a=st.integers(1, 4),
    n=st.integers(1, 40),
    data=st.data(),
)
def test_saturated_tail_matches_reference(m, a, n, data):
    # elements in increasing order, as the search adds them, with repeats; dense
    # classes saturate their upper layers, whose folds are then skipped
    elements = sorted(data.draw(st.lists(st.integers(1, n), max_size=30)))
    capmask = (1 << (a * n + 1)) - 1
    state = _empty_state(m, a, capmask)
    bits = 0
    for x in elements:
        state = _add_element(state, x, a, capmask)
        bits |= 1 << x
        layers = sumset_layers(bits, m - 1, capmask)
        assert list(state[0]) == layers
        # L_k saturated: all of [k*min S, a*n], an empty set once k*min S > a*n;
        # full is the first saturated layer, and all later ones are saturated
        lows = [k * elements[0] for k in range(1, m)]
        saturated = [layer == (interval(lo, a * n) if lo <= a * n else 0) for lo, layer in zip(lows, layers)]
        assert saturated == [False] * state[3] + [True] * (m - 1 - state[3])
        if not _has_solution(state):  # reused layers add nothing new to the mask
            ys = range(1, n + 2)
            assert [bool(state[2] >> y & 1) for y in ys] == [blocks(state, y, a) for y in ys]


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
    state = fold(order, m, a, n)
    # the oracle searches red first, so its witness color settles the red class alone
    witness = naive_find_mono_solution(Coloring.from_red(n, members), RadoEquation(m, a))
    assert _has_solution(state) == (witness is not None and witness.color is Color.RED)


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(2, 8),
    a=st.integers(1, 7),
    n=st.integers(1, 30),
    data=st.data(),
)
def test_blocked_mask_matches_blocks(m, a, n, data):
    # every prefix of elements in any order, with repeats, while it is solution-free:
    # a class with a solution stays so, is pruned and its mask is never read
    elements = data.draw(st.lists(st.integers(1, n), max_size=12))
    for k in range(len(elements) + 1):
        state = fold(elements[:k], m, a, n)
        if _has_solution(state):
            break
        ys = range(1, n + 2)
        assert [bool(state[2] >> y & 1) for y in ys] == [blocks(state, y, a) for y in ys]


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(2, 5),
    a=st.integers(1, 5),
    n=st.integers(0, 8),
    data=st.data(),
)
def test_blocks_is_sound_and_finds_its_shapes(m, a, n, data):
    # a future element y, as in the search: above every member, at most n_max = n + 4
    members = data.draw(st.sets(st.integers(1, n))) if n else set()
    y = data.draw(st.integers(n + 1, n + 4))
    state = fold(sorted(members), m, a, n + 4)
    assume(not _has_solution(state))  # the search reads only a solution-free class's mask
    blocked = bool(state[2] >> y & 1)
    if blocked:  # sound: y really closes a solution
        assert _has_solution(_add_element(state, y, a, (1 << (a * (n + 4) + 1)) - 1))
    # and it finds every solution with y at most once on the left
    covered = shapes_closed_by(members, y, m, a) & {Y_RIGHT, Y_LEFT, Y_BOTH}
    assert blocked == bool(covered)


# one example per case, where y closes solutions of that shape only
@pytest.mark.parametrize(
    ("m", "a", "members", "y", "shape"),
    [
        (3, 1, {1, 3}, 4, Y_RIGHT),  # 1 + 3 = 4
        (3, 3, {1, 3}, 6, Y_LEFT),  # 6 + 3 = 3*3
        (2, 3, {2}, 6, Y_LEFT),  # 6 = 3*2, L_0 = {0}
        (4, 2, {1, 3}, 6, Y_BOTH),  # 6 + 3 + 3 = 2*6
    ],
)
def test_blocks_covers_each_case(m, a, members, y, shape):
    assert shapes_closed_by(members, y, m, a) == {shape}
    state = fold(sorted(members), m, a, y)
    assert not _has_solution(state)
    assert state[2] >> y & 1


def brute_force_search(eq, n_max):
    """exact_rado_number's answer from every coloring of [n] with 1 red, n <= n_max.

    Colorings of [n] are tried red-first on 2, then on 3, and so on: the DFS's
    preorder, so the first valid one is the certificate the search reports.
    """
    deepest = Coloring(0)
    for n in range(1, n_max + 1):
        colorings = (
            Coloring(n, sum(bit << x for x, bit in enumerate(reds, start=1)))
            for reds in itertools.product((1, 0), repeat=n)
            if reds[0]
        )
        valid = next((col for col in colorings if find_mono_solution(col, eq) is None), None)
        if valid is None:
            return EXACT, n, deepest
        deepest = valid
    return CUTOFF, None, deepest


@pytest.mark.parametrize("n_max", [5, 11])
@pytest.mark.parametrize(("m", "a"), [(2, 2), (3, 1), (3, 3), (3, 4), (4, 1), (4, 3), (5, 2), (5, 3)])
def test_exact_rado_number_matches_brute_force(m, a, n_max):
    eq = RadoEquation(m, a)
    out = exact_rado_number(eq, n_max=n_max)
    status, rado_number, certificate = brute_force_search(eq, n_max)
    assert (out.status, out.rado_number, out.certificate) == (status, rado_number, certificate)
    assert out.deepest_valid == certificate.n
