"""The search's and the checker's kernels against references and brute force.

The shared bitset helpers core.decimate and core.smear_steps are compared
with set references. The checker's run-length sumset layers, with their tail
that repeats by a shift of min S, are compared with the per-element reference
sumset_layers, down to the witnesses find_mono_solution returns;
core.fold_layers, which builds them, walks its run plan only up to that tail.
The run lemma core.least_run_target with the closed-form left side of a
one-run class, and the galloping backtrack of every other class, are compared
with those layers and the one-summand greedy_left_side, and
find_mono_solution with a checker built from both references. The two-run
lemma core.two_runs_hold_solution is compared with the reference layers of
two runs, and the search's fold, which decides such classes by it, with its
layer fold. The incremental sumset fold, of one element or of a run in one
call, its saturated-layer index and the lookahead's blocked-y mask are
compared with the layer-at-a-time checker, the reference layers, the naive
oracle, the per-y test blocks and plain enumeration, and exact_rado_number
with a search that tries every coloring.
"""

import itertools
import random

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
from radonum.checker import _greedy_left_side, _run_left_side, _sumset_layers
from radonum.core import (
    Color, Witness, decimate, fold_layers, iter_bits, least_run_target, smear_steps,
    two_runs_hold_solution,
)
from radonum.search import (
    CUTOFF,
    EXACT,
    _add_element,
    _empty_state,
    _has_solution,
    _layer_fold,
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


def greedy_left_side(layers, elements, total, count):
    """The reference for checker._greedy_left_side: one summand per step.

    Each step rescans the elements from the smallest and takes the first e
    whose remainder total - e is a sum of the summands left.
    """
    remaining = total
    out = []
    for k in range(count, 0, -1):
        prev = layers[k - 2] if k >= 2 else 1  # bit 0 is the empty sum
        for e in elements:
            rest = remaining - e
            if rest >= 0 and (prev >> rest) & 1:
                out.append(e)
                remaining = rest
                break
        else:
            raise RuntimeError("sumset table backtracking failed; table is inconsistent")
    return out


def reference_find_mono_solution(col, eq):
    """The reference for checker.find_mono_solution: per-element layers for every class.

    Red before blue, the least t with a*t in L_{m-1}, and the left side by the
    one-summand greedy: the order and witness the checker promises.
    """
    capmask = (1 << (eq.a * col.n + 1)) - 1
    for color in (Color.RED, Color.BLUE):
        bits = col.class_bits(color)
        layers = sumset_layers(bits, eq.m - 1, capmask)
        targets = [t for t in iter_bits(bits) if layers[-1] >> (eq.a * t) & 1]
        if targets:
            left = greedy_left_side(layers, list(iter_bits(bits)), eq.a * targets[0], eq.m - 1)
            return Witness((*left, targets[0]), color)
    return None


def interval(lo, hi):
    """Bits lo..hi of a class."""
    return ((1 << (hi - lo + 1)) - 1) << lo


def sum_bits(masks):
    out = 0
    for mask in masks:
        out |= mask
    return out


@settings(max_examples=300, deadline=None)
@given(members=st.sets(st.integers(0, 400), max_size=40), step=st.integers(1, 9))
def test_decimate_matches_set_reference(members, step):
    bits = sum_bits(1 << x for x in members)
    want = {x // step for x in members if x % step == 0}  # {y : step*y in bits}
    assert set(iter_bits(decimate(bits, step))) == want


def test_decimate_edge_cases():
    for step in range(1, 6):
        assert decimate(0, step) == 0
    assert decimate(0b1011_0110, 1) == 0b1011_0110
    # over 14,300 bits in and out, so more than the 4,300 decimal digits that
    # Python 3.11 allows in an int/str conversion: a decimal round trip raises
    members = {0, 2, 4, 9, 14_400, 28_602, 28_603, 40_000}
    bits = sum_bits(1 << x for x in members)
    assert bits.bit_length() > 14_300 and decimate(bits, 2).bit_length() > 14_300
    for step in (2, 3, 7):
        want = {x // step for x in members if x % step == 0}
        assert set(iter_bits(decimate(bits, step))) == want


@settings(max_examples=300, deadline=None)
@given(
    members=st.sets(st.integers(0, 200), max_size=30),
    w=st.integers(0, 150),
    a=st.integers(1, 5),
)
def test_smear_steps_match_set_reference(members, w, a):
    steps = smear_steps(w)
    assert len(steps) == w.bit_length()  # ceil(log2(w+1)), none for w = 0
    # shifting by a*s for each step s in turn gives x | x<<a | ... | x<<(a*w)
    got = sum_bits(1 << x for x in members)
    for s in steps:
        got |= got << a * s
    assert set(iter_bits(got)) == {x + a * k for x in members for k in range(w + 1)}


# classes that are mostly long runs, with gaps and single elements between them
runs = st.lists(st.tuples(st.integers(1, 80), st.integers(0, 40)), max_size=5).map(
    lambda spans: sum_bits(interval(p, p + w) for p, w in spans)
)
scattered = st.sets(st.integers(1, 80), max_size=20).map(
    lambda members: sum_bits(1 << x for x in members)
)
# about half of 1..80: the layers repeat by a shift of min S after a few steps
dense = st.lists(st.booleans(), min_size=80, max_size=80).map(
    lambda flags: sum_bits(1 << x for x, on in enumerate(flags, start=1) if on)
)


@settings(max_examples=400, deadline=None)
@given(
    class_bits=st.one_of(
        runs, scattered, dense, st.tuples(runs, scattered).map(lambda t: t[0] | t[1])
    ),
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


def first_shift_stable(layers, class_bits, capmask):
    """The first k with L_{k+1} = (L_k << min S) & capmask, 1-based, or None.

    Multiplying by the lowest set bit is the shift by min S, and gives 0 for
    the empty class, whose layers are all empty.
    """
    low = class_bits & -class_bits
    for k in range(1, len(layers)):
        if layers[k] == (layers[k - 1] * low) & capmask:
            return k
    return None


@pytest.mark.parametrize(
    ("class_bits", "depth", "cap", "stable", "saturated"),
    [
        (0, 6, 30, 1, None),  # the empty class
        (interval(20, 26), 6, 10, 1, 1),  # a class entirely above capmask: every layer empty
        # {1} + [3, 20]: L_k = {k} + [k+2, 20k] never holds k+1, so it never
        # saturates, yet it repeats by a shift of 1 once 20k reaches the cap
        ((1 << 1) | interval(3, 20), 9, 100, 5, None),
        # an interval [3, 10]: L_k = [3k, 10k] repeats by a shift only once saturated
        (interval(3, 10), 9, 60, 6, 6),
    ],
)
def test_shift_stable_tail(class_bits, depth, cap, stable, saturated):
    capmask = (1 << (cap + 1)) - 1
    reference = sumset_layers(class_bits, depth, capmask)
    assert _sumset_layers(class_bits, depth, capmask) == reference
    assert first_shift_stable(reference, class_bits, capmask) == stable
    # saturated as in the search: L_k = [k*min S, cap], empty once k*min S > cap
    lo = (class_bits & -class_bits).bit_length() - 1
    full = [
        k
        for k in range(1, depth + 1)
        if class_bits and reference[k - 1] == (interval(k * lo, cap) if k * lo <= cap else 0)
    ]
    assert (full[0] if full else None) == saturated


class WalkedStarts(list):
    """Run starts of a fold plan that count how often the fold walks them."""

    def __init__(self, starts):
        super().__init__(starts)
        self.walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@pytest.mark.parametrize(
    ("base", "added", "plan", "depth", "cap"),
    [
        # the checker's case, empty layers: {1} + [3, 20] repeats by a shift of
        # min S = 1 from L_6 on, before it saturates
        (0, (1 << 1) | interval(3, 20), [([3], smear_steps(17)), ([1], [])], 9, 100),
        # the search's case, the run 9..21 into {7, 19}: L_3 repeats L_2 by a
        # shift of min S = 7 (a row of test_run_fold_cases)
        ((1 << 7) | (1 << 19), interval(9, 21), [([9], smear_steps(12))], 7, 44),
    ],
    ids=["checker", "search"],
)
def test_fold_walks_the_plan_only_until_the_stable_tail(base, added, plan, depth, cap):
    capmask = (1 << (cap + 1)) - 1
    union = base | added
    min_s = (union & -union).bit_length() - 1
    reference = sumset_layers(union, depth, capmask)
    # the first k with L_k = (L_{k-1} << min S) & capmask, L_0 = {0}: the layers
    # after it are shifts, so the fold walks the plan k times, not depth times
    walks = next(
        k
        for k, (lower, layer) in enumerate(zip([1, *reference], reference), start=1)
        if layer == (lower << min_s) & capmask
    )
    assert walks < depth
    plan = [(WalkedStarts(starts), steps) for starts, steps in plan]
    assert fold_layers(sumset_layers(base, depth, capmask), plan, min_s, capmask) == reference
    assert [starts.walks for starts, _ in plan] == [walks] * len(plan)


# certify-size points: lower-bound colorings of [C - 1] with C - 1 = 113, 112, 111
@pytest.mark.parametrize(("m", "a"), [(32, 3), (52, 5), (82, 8)])
def test_witnesses_match_reference_layers(monkeypatch, m, a):
    # the lower-bound coloring, every one-element flip of it and seeded random
    # colorings, with the layers built by run-length smearing and its shifted
    # tail and by the per-element reference
    eq = RadoEquation(m, a)
    base = lower_bound_coloring(eq)
    rng = random.Random(m * a)
    colorings = [base] + [Coloring(base.n, base.red_bits ^ (1 << x)) for x in range(1, base.n + 1)]
    colorings += [Coloring(base.n, rng.getrandbits(base.n) << 1) for _ in range(20)]
    fast = [find_mono_solution(col, eq) for col in colorings]
    monkeypatch.setattr(checker, "_sumset_layers", sumset_layers)
    assert fast == [find_mono_solution(col, eq) for col in colorings]
    assert fast[0] is None and all(fast[1:])


@pytest.mark.parametrize(("m", "a"), [(32, 3), (52, 5), (82, 8), (3, 1), (9, 2)])
def test_witnesses_match_reference_checker(m, a):
    # the lower-bound coloring, whose classes are one run each, every one-element
    # flip of it, and seeded colorings of a few runs and random ones, against
    # the checker that builds per-element layers for every class
    eq = RadoEquation(m, a)
    base = lower_bound_coloring(eq)
    rng = random.Random(m * a + 1)
    colorings = [base] + [Coloring(base.n, base.red_bits ^ (1 << x)) for x in range(1, base.n + 1)]
    colorings += [Coloring(base.n, rng.getrandbits(base.n) << 1) for _ in range(20)]
    for _ in range(20):
        cuts = sorted(rng.sample(range(1, base.n + 2), rng.randint(1, 4)))
        colorings.append(Coloring(base.n, sum_bits(
            interval(lo, hi - 1) for lo, hi in zip([1, *cuts][::2], cuts[::2]))))
    for col in colorings:
        assert find_mono_solution(col, eq) == reference_find_mono_solution(col, eq), col
    assert find_mono_solution(base, eq) is None


def test_one_run_classes_build_no_table(monkeypatch):
    # each class of a lower-bound coloring is one run, decided by the run lemma
    # alone; so is a class of 10^7 elements, whose witness is in closed form
    def no_table(*args):
        raise AssertionError("a one-run class built a sumset table")

    monkeypatch.setattr(checker, "_sumset_layers", no_table)
    for eq in (RadoEquation(600, 3), RadoEquation(2000, 3), RadoEquation(100, 2)):
        assert find_mono_solution(lower_bound_coloring(eq), eq) is None
    witness = find_mono_solution(Coloring(10**7, 1 << 1), RadoEquation(3, 3))
    assert witness == Witness((2, 4, 2), Color.BLUE)


@settings(max_examples=500, deadline=None)
@given(
    lo=st.integers(1, 60),
    width=st.integers(0, 59),
    m=st.integers(2, 12),
    a=st.integers(1, 9),
)
def test_one_run_classes_match_reference(lo, width, m, a):
    # a run lo..hi, a single element when width is 0: the run lemma's least t
    # and the closed-form left side against the reference layers and greedy
    hi = min(lo + width, 60)
    bits = interval(lo, hi)
    eq = RadoEquation(m, a)
    layers = sumset_layers(bits, m - 1, (1 << (a * hi + 1)) - 1)
    t = next((t for t in range(lo, hi + 1) if layers[-1] >> (a * t) & 1), 0)
    assert least_run_target(lo, hi, m, a) == t
    if t:
        want = greedy_left_side(layers, list(range(lo, hi + 1)), a * t, m - 1)
        assert _run_left_side(lo, hi, a * t, m - 1) == want
    # as the red class, and as the blue one above a red run 1..lo-1, of [hi]
    for col in (Coloring(hi, bits), Coloring(hi, interval(1, lo - 1))):
        assert find_mono_solution(col, eq) == reference_find_mono_solution(col, eq)


def two_runs_reference(l1, h1, l2, h2, m, a):
    """Whether the class l1..h1, l2..h2 holds a solution, by the reference layers."""
    bits = interval(l1, h1) | interval(l2, h2)
    layers = sumset_layers(bits, m - 1, (1 << (a * h2 + 1)) - 1)
    return bool(decimate(layers[-1], a) & bits)


@settings(max_examples=600, deadline=None)
@given(m=st.integers(2, 9), a=st.integers(1, 7), data=st.data())
def test_two_run_lemma_matches_reference(m, a, data):
    # two runs within 1..60, single elements and a gap of one element drawn often,
    # so that h2-l2 falls above, below and on h1-l1, with all, some or no I_j touching
    width = st.one_of(st.just(0), st.integers(0, 30))
    l1 = data.draw(st.integers(1, 58))
    h1 = min(l1 + data.draw(width), 58)
    l2 = min(h1 + 1 + data.draw(st.one_of(st.just(1), st.integers(1, 30))), 60)
    h2 = min(l2 + data.draw(width), 60)
    assert two_runs_hold_solution(l1, h1, l2, h2, m, a) == two_runs_reference(l1, h1, l2, h2, m, a)


@pytest.mark.parametrize(
    ("runs", "m", "touching", "a_without", "a_with"),
    [
        # h2-l2 > h1-l1: the gap g(j) falls with j
        ((20, 22, 24, 28), 4, [True, True, True], 2, 3),
        ((1, 1, 10, 11), 4, [False, False, False], 4, 3),  # a single element: 1+1+1 = 3*1
        ((1, 1, 5, 8), 4, [False, True, True], 5, 4),
        # h2-l2 < h1-l1: g(j) grows with j
        ((10, 14, 16, 17), 3, [True, True], 1, 2),  # g(1) = 0: I_1 and I_2 just touch
        ((1, 2, 10, 10), 4, [False, False, False], 8, 2),
        ((10, 12, 15, 15), 4, [True, True, False], 1, 2),
        # h2-l2 = h1-l1: g is constant; a gap of one element, 13
        ((10, 12, 14, 16), 3, [True, True], 1, 2),
        ((1, 2, 9, 10), 4, [False, False, False], 1, 2),
    ],
)
def test_two_run_lemma_cases(runs, m, touching, a_without, a_with):
    l1, h1, l2, h2 = runs
    k = m - 1
    ends = [((k - j) * l1 + j * l2, (k - j) * h1 + j * h2) for j in range(k + 1)]  # I_j
    assert [ends[j + 1][0] <= ends[j][1] + 1 for j in range(k)] == touching
    for a, want in ((a_without, False), (a_with, True)):
        assert two_runs_hold_solution(l1, h1, l2, h2, m, a) is want
        assert two_runs_reference(l1, h1, l2, h2, m, a) is want


@settings(max_examples=400, deadline=None)
@given(
    class_bits=st.one_of(
        runs, scattered, dense, st.tuples(runs, scattered).map(lambda t: t[0] | t[1])
    ),
    count=st.integers(1, 12),
    pick=st.integers(0, 10**6),
)
def test_galloping_backtrack_matches_reference(class_bits, count, pick):
    # every sum of count elements of a class, not just a*t: each element is taken
    # as often as it fits, found by galloping, against one summand per step
    assume(class_bits)
    layers = sumset_layers(class_bits, count, (1 << (count * class_bits.bit_length())) - 1)
    sums = list(iter_bits(layers[-1]))
    total = sums[pick % len(sums)]
    want = greedy_left_side(layers, list(iter_bits(class_bits)), total, count)
    assert _greedy_left_side(layers, iter_bits(class_bits), total, count) == want
    assert sum(want) == total and want == sorted(want)


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
        state = _add_element(state, x, 0, a, capmask)
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
        state = _add_element(state, x, 0, a, capmask)
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
        state = _add_element(state, x, 0, a, capmask)
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


def check_run_fold(state, bits, x, w, m, a, n):
    """Folds the run x..x+w into the state of the class bits in one call.

    Compares the layer fold's result with the reference layers of the union,
    its targets {a*t}, its first saturated layer and, while the class is
    solution-free, blocks for every y; the search's fold, which decides a
    class left as two runs by the two-run lemma, must give the same solution
    test. Returns the layer fold's state and the new class.
    """
    capmask = (1 << (a * n + 1)) - 1
    solved = _has_solution(_add_element(state, x, w, a, capmask))
    state = _layer_fold(state, x, w, a, capmask)
    assert _has_solution(state) == solved
    bits |= interval(x, x + w)
    layers = sumset_layers(bits, m - 1, capmask)
    assert list(state[0]) == layers
    assert state[1] == sum_bits(1 << (a * t) for t in iter_bits(bits))
    # full is the first layer that is all of [k*min S, a*n], an empty set once k*min S > a*n
    lo = (bits & -bits).bit_length() - 1
    saturated = [layer == (interval(k * lo, a * n) if k * lo <= a * n else 0)
                 for k, layer in enumerate(layers, start=1)]
    assert saturated == [False] * state[3] + [True] * (m - 1 - state[3])
    if not _has_solution(state):  # a class with a solution keeps its parent's mask
        ys = range(1, n + 2)
        assert [bool(state[2] >> y & 1) for y in ys] == [blocks(state, y, a) for y in ys]
    return state, bits


@settings(max_examples=400, deadline=None)
@given(
    m=st.integers(2, 9),
    a=st.integers(1, 5),
    n=st.integers(1, 40),
    data=st.data(),
)
def test_run_fold_matches_reference(m, a, n, data):
    # a few runs after a prefix of single elements, all in any order: runs into an
    # empty class, below min S, over members and above them, and runs long enough
    # for the layers to repeat by a shift of min S before they saturate
    prefix = data.draw(st.lists(st.integers(1, n), max_size=8))
    state, bits = fold(prefix, m, a, n), sum_bits(1 << x for x in prefix)
    for _ in range(data.draw(st.integers(1, 3))):
        x = data.draw(st.integers(1, n))
        w = data.draw(st.integers(0, n - x))
        state, bits = check_run_fold(state, bits, x, w, m, a, n)


@pytest.mark.parametrize(
    ("m", "a", "n", "prefix", "x", "w"),
    [
        (9, 2, 17, [], 5, 12),  # into an empty class
        (8, 2, 23, [22], 9, 12),  # below min S
        (3, 4, 10, [1, 7, 9], 5, 4),  # over members; shape 2 with t < x+w blocks some y
        (9, 1, 17, [], 3, 12),  # a = 1
        (2, 4, 17, [8, 14], 5, 12),  # m = 2: L_0 = {0}
        # {7} + [9, 21]: L_3 repeats L_2 by a shift of min S = 7, and L_7 saturates
        (8, 2, 22, [7, 19], 9, 12),
    ],
)
def test_run_fold_cases(m, a, n, prefix, x, w):
    state, bits = fold(prefix, m, a, n), sum_bits(1 << t for t in prefix)
    state, _ = check_run_fold(state, bits, x, w, m, a, n)
    assert not _has_solution(state)  # so the whole mask was compared


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
        assert _has_solution(_add_element(state, y, 0, a, (1 << (a * (n + 4) + 1)) - 1))
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
