"""The search's and the checker's kernels against references and brute force.

The shared bitset helpers core.decimate and core.smear_steps are compared
with set references. The checker's run-length sumset layers stop before the
first layer that repeats its predecessor by a shift of min S; shifted out to
every layer, they are compared with the per-element reference sumset_layers,
down to the witnesses find_mono_solution returns, and core.fold_layers, which
builds them, walks its run plan only up to that repeat. The run-class entry
core.least_class_target, through the run lemma core.least_run_target and the
two-run lemma core.least_two_run_target, and the closed-form left side
core.class_left_side are compared with the reference layers of one or two
runs, the one-summand greedy_left_side and brute force; the entry returns 0
for the empty class and None for three runs or more. The galloping backtrack
of every other class, which reads the layers past the table as bits of its
last layer, is compared with those layers and greedy_left_side, and
find_mono_solution with a checker built from both references. The search's
incremental fold, of one element or of a run in one call (decided by the
run-class entry when it leaves one or two runs, and written down when it
leaves one run and no solution), returns None exactly when the reference
layers hold a solution; while they hold none, its layers, its saturated-layer
index and the lookahead's blocked-y mask are compared with the layer-at-a-time
checker, the reference layers, the naive oracle, the per-y test blocks and
plain enumeration, and exact_rado_number with a search that tries every
coloring.
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
    search,
)
from radonum.checker import _greedy_left_side, _sumset_layers
from radonum.core import (
    Color, Witness, class_left_side, decimate, fold_layers, iter_bits, least_class_target,
    least_run_target, least_two_run_target, smear_steps,
)
from radonum.search import CUTOFF, EXACT, _add_element, _empty_state, exact_rado_number

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


def assert_stable_prefix(prefix, reference, class_bits, capmask):
    """prefix is reference up to the layer before its first repeat by a shift of min S.

    The prefix L_1 .. L_j is shifted out, L_k = (L_j << (k-j)*min S) &
    capmask, to every layer of the reference, and j must be the first k with
    L_{k+1} a shift of L_k, or every layer if none is.
    """
    low = class_bits & -class_bits
    layers = list(prefix)
    while layers and len(layers) < len(reference):
        layers.append((layers[-1] * low) & capmask)
    assert layers == reference
    assert len(prefix) == (first_shift_stable(reference, class_bits, capmask) or len(reference))


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
    reference = sumset_layers(class_bits, depth, capmask)
    assert_stable_prefix(_sumset_layers(class_bits, depth, capmask), reference, class_bits, capmask)


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
    assert 1 <= len(layers) <= depth
    assert_stable_prefix(layers, sumset_layers(class_bits, depth, capmask), class_bits, capmask)


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
    prefix = _sumset_layers(class_bits, depth, capmask)
    assert_stable_prefix(prefix, reference, class_bits, capmask)
    assert first_shift_stable(reference, class_bits, capmask) == stable == len(prefix)
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
    prefix = fold_layers(sumset_layers(base, depth, capmask), plan, min_s, capmask)
    assert_stable_prefix(prefix, reference, union, capmask)
    assert len(prefix) == walks - 1  # the walk that found the repeat kept no layer
    assert [starts.walks for starts, _ in plan] == [walks] * len(plan)


# certify-size points: lower-bound colorings of [C - 1] with C - 1 = 113, 112, 111
@pytest.mark.parametrize(("m", "a"), [(32, 3), (52, 5), (82, 8)])
def test_witnesses_match_reference_layers(monkeypatch, m, a):
    # the lower-bound coloring, every one-element flip of it and seeded random
    # colorings, with the layers built by run-length smearing and its shifted
    # tail and by the per-element reference. The classes of the first two are
    # one or two runs, decided by the lemmas with no layers, so this compares
    # the layers on classes of three runs or more only: the random colorings
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
    assert least_class_target(bits, m, a) == t
    if t:
        want = greedy_left_side(layers, list(range(lo, hi + 1)), a * t, m - 1)
        assert class_left_side(bits, a * t, m - 1) == want
    # as the red class, and as the blue one above a red run 1..lo-1, of [hi]
    for col in (Coloring(hi, bits), Coloring(hi, interval(1, lo - 1))):
        assert find_mono_solution(col, eq) == reference_find_mono_solution(col, eq)


def two_runs_reference(l1, h1, l2, h2, m, a):
    """The least t of the class l1..h1, l2..h2 with a*t a sum of m-1 elements, or 0.

    By the reference layers.
    """
    bits = interval(l1, h1) | interval(l2, h2)
    layers = sumset_layers(bits, m - 1, (1 << (a * h2 + 1)) - 1)
    hits = decimate(layers[-1], a) & bits
    return (hits & -hits).bit_length() - 1 if hits else 0


def two_runs(data, top=60):
    """Two runs l1..h1 < l2..h2 within 1..top.

    Single elements and a gap of one element are drawn often, so that h2-l2
    falls above, below and on h1-l1, with all, some or no sums I_j touching.
    """
    width = st.one_of(st.just(0), st.integers(0, top // 2))
    l1 = data.draw(st.integers(1, top - 2))
    h1 = min(l1 + data.draw(width), top - 2)
    l2 = min(h1 + 1 + data.draw(st.one_of(st.just(1), st.integers(1, top // 2))), top)
    h2 = min(l2 + data.draw(width), top)
    return l1, h1, l2, h2


@settings(max_examples=600, deadline=None)
@given(m=st.integers(2, 9), a=st.integers(1, 7), data=st.data())
def test_two_run_lemma_matches_reference(m, a, data):
    l1, h1, l2, h2 = two_runs(data)
    assert least_two_run_target(l1, h1, l2, h2, m, a) == two_runs_reference(l1, h1, l2, h2, m, a)


@pytest.mark.parametrize(
    ("runs", "m", "touching", "a_without", "a_with"),
    [
        # h2-l2 > h1-l1: the gap g(j) falls with j; with a_with, t = 20: 20+20+20 = 3*20
        ((20, 22, 24, 28), 4, [True, True, True], 2, 3),
        ((1, 1, 10, 11), 4, [False, False, False], 4, 3),  # a single element: 1+1+1 = 3*1
        ((1, 1, 5, 8), 4, [False, True, True], 5, 4),  # t = 5 in the upper run: 5+7+8 = 4*5
        # h2-l2 < h1-l1: g(j) grows with j
        ((10, 14, 16, 17), 3, [True, True], 1, 2),  # g(1) = 0: I_1 and I_2 just touch; t = 10
        ((1, 2, 10, 10), 4, [False, False, False], 8, 2),  # t = 2: 1+1+2 = 2*2
        ((10, 12, 15, 15), 4, [True, True, False], 1, 2),  # t = 15: 10+10+10 = 2*15
        # h2-l2 = h1-l1: g is constant; a gap of one element, 13
        ((10, 12, 14, 16), 3, [True, True], 1, 2),  # t = 10
        ((1, 2, 9, 10), 4, [False, False, False], 1, 2),  # t = 2
    ],
)
def test_two_run_lemma_cases(runs, m, touching, a_without, a_with):
    l1, h1, l2, h2 = runs
    k = m - 1
    ends = [((k - j) * l1 + j * l2, (k - j) * h1 + j * h2) for j in range(k + 1)]  # I_j
    assert [ends[j + 1][0] <= ends[j][1] + 1 for j in range(k)] == touching
    assert least_two_run_target(l1, h1, l2, h2, m, a_without) == 0
    assert two_runs_reference(l1, h1, l2, h2, m, a_without) == 0
    t = least_two_run_target(l1, h1, l2, h2, m, a_with)
    assert t and t == two_runs_reference(l1, h1, l2, h2, m, a_with)


@settings(max_examples=600, deadline=None)
@given(m=st.integers(2, 12), a=st.integers(1, 9), data=st.data())
def test_two_run_classes_match_reference(m, a, data):
    # two runs as the red class, and as the blue one: [h2]'s other class is one
    # run, two runs or empty, so no class builds a table
    def no_table(*args):
        raise AssertionError("a class of one or two runs built a sumset table")

    l1, h1, l2, h2 = two_runs(data)
    bits = interval(l1, h1) | interval(l2, h2)
    eq = RadoEquation(m, a)
    layers = sumset_layers(bits, m - 1, (1 << (a * h2 + 1)) - 1)
    t = next((t for t in iter_bits(bits) if layers[-1] >> (a * t) & 1), 0)
    assert least_two_run_target(l1, h1, l2, h2, m, a) == t
    assert least_class_target(bits, m, a) == t
    if t:
        want = greedy_left_side(layers, list(iter_bits(bits)), a * t, m - 1)
        assert class_left_side(bits, a * t, m - 1) == want
    for col in (Coloring(h2, bits), Coloring(h2, interval(1, h2) & ~bits)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(checker, "_sumset_layers", no_table)
            got = find_mono_solution(col, eq)
        assert got == reference_find_mono_solution(col, eq)


@pytest.mark.parametrize(
    ("bits", "m", "a", "want"),
    [
        (0, 4, 2, 0),  # the empty class: no target
        (0, 2, 1, 0),  # even for L(2, 1), where every element solves y = y
        ((1 << 1) | (1 << 3) | (1 << 5), 4, 3, None),  # {1, 3, 5}: a table decides it
        # three runs that hold 1 + 1 = 2*1, and a single element above two runs
        (interval(1, 2) | interval(5, 6) | interval(9, 30), 3, 2, None),
        (interval(3, 9) | interval(12, 14) | (1 << 40), 5, 7, None),
    ],
)
def test_class_target_edges(bits, m, a, want):
    assert least_class_target(bits, m, a) == want
    # the classes of three runs go to the table, which finds what the reference does
    col = Coloring(max(bits.bit_length() - 1, 0), bits)
    assert find_mono_solution(col, RadoEquation(m, a)) == reference_find_mono_solution(
        col, RadoEquation(m, a))


@pytest.mark.parametrize(
    ("runs", "m", "a", "t", "upper", "left"),
    [
        # with T = a*t, k = m-1 and i* = ceil((T - k*l1)/(h2 - l1)), the least
        # list with i upper elements falls up to i*-1 and rises from i* on.
        # i*-1 = 1 and i* = 2 both have lists, [2, 6] and [4, 4], as many
        # leading 1s (none): the next element decides
        ((1, 2, 4, 6), 3, 8, 1, 1, [2, 6]),
        # i*-1 = 0 and i* = 1 both have lists, [1, 1, 2, 2, 2] and
        # [1, 1, 1, 1, 4]: i* has more leading 1s
        ((1, 2, 4, 4), 6, 2, 4, 1, [1, 1, 1, 1, 4]),
        # i* = 1 has no list: the upper end of the i with a list, i*-1 = 0, wins
        ((1, 2, 4, 4), 4, 1, 4, 0, [1, 1, 2]),
        # i*-1 = 0 has no list: the lower end, i* = 1, wins; i*+1 can win only
        # as the lower end, but that end is never above i*
        ((1, 2, 4, 4), 3, 5, 1, 1, [1, 4]),
        # l1 = h1: the lower run is one element, only i >= i* have lists
        ((1, 1, 3, 4), 3, 1, 4, 1, [1, 3]),
        ((1, 1, 3, 4), 5, 3, 3, 2, [1, 1, 3, 4]),
    ],
)
def test_two_run_left_side_cases(runs, m, a, t, upper, left):
    l1, h1, l2, h2 = runs
    k, total = m - 1, a * t
    assert least_two_run_target(l1, h1, l2, h2, m, a) == t
    # the least ascending list with i upper elements, by brute force, for each i
    elements = [*range(l1, h1 + 1), *range(l2, h2 + 1)]
    best = {}
    for combo in itertools.combinations_with_replacement(elements, k):
        if sum(combo) == total:
            i = sum(x >= l2 for x in combo)
            best[i] = min(best.get(i, list(combo)), list(combo))
    pivot = -(-(total - k * l1) // (h2 - l1))
    assert min(best) <= pivot <= max(best) + 1  # so i*-1 or i* has a list
    assert min(best.values()) == best[upper] == left
    assert upper in (pivot - 1, pivot)
    bits = interval(l1, h1) | interval(l2, h2)
    assert class_left_side(bits, total, k) == left
    layers = sumset_layers(bits, k, (1 << (total + 1)) - 1)
    assert greedy_left_side(layers, elements, total, k) == left


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
    capmask = (1 << (count * class_bits.bit_length())) - 1
    layers = sumset_layers(class_bits, count, capmask)
    prefix = _sumset_layers(class_bits, count, capmask)
    assert_stable_prefix(prefix, layers, class_bits, capmask)
    sums = list(iter_bits(layers[-1]))
    total = sums[pick % len(sums)]
    want = greedy_left_side(layers, list(iter_bits(class_bits)), total, count)
    assert _greedy_left_side(prefix, iter_bits(class_bits), total, count) == want
    assert sum(want) == total and want == sorted(want)


@settings(max_examples=300, deadline=None)
@given(
    class_bits=st.one_of(runs, dense, st.tuples(runs, scattered).map(lambda t: t[0] | t[1])),
    cap=st.integers(0, 2000),
    past=st.integers(1, 30),
    pick=st.integers(0, 10**6),
)
def test_greedy_reads_layers_past_the_prefix(class_bits, cap, past, pick):
    # counts past the table's last layer L_j: each later layer is read as a bit
    # of L_j, against the one-summand greedy on every layer of the reference
    assume(class_bits)
    capmask = (1 << (cap + 1)) - 1
    j = len(_sumset_layers(class_bits, 64, capmask))
    assume(j < 64)
    count = j + past
    prefix = _sumset_layers(class_bits, count, capmask)
    layers = sumset_layers(class_bits, count, capmask)
    assert_stable_prefix(prefix, layers, class_bits, capmask)
    assert len(prefix) == j < count
    sums = list(iter_bits(layers[-1]))
    assume(sums)
    total = sums[pick % len(sums)]
    want = greedy_left_side(layers, list(iter_bits(class_bits)), total, count)
    assert _greedy_left_side(prefix, iter_bits(class_bits), total, count) == want


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
    """State of the class of elements, folded in order, or None once it holds a solution."""
    capmask = (1 << (a * n + 1)) - 1
    state = _empty_state(m, a, capmask)
    for x in elements:
        state = _add_element(state, x, 0, a, capmask)
        if state is None:
            break
    return state


def targets_of(bits, a):
    """The bitset {a*t : t in the class}."""
    return sum_bits(1 << (a * t) for t in iter_bits(bits))


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
    # elements arrive in any order and may repeat; every prefix is compared while it
    # is solution-free, and the fold returns None exactly when the reference holds one
    elements = data.draw(st.lists(st.integers(1, n), max_size=12))
    capmask = (1 << (a * n + 1)) - 1
    state = _empty_state(m, a, capmask)
    bits = 0
    for x in elements:
        state = _add_element(state, x, 0, a, capmask)
        bits |= 1 << x
        reference = sumset_layers(bits, m - 1, capmask)
        if reference[-1] & targets_of(bits, a):
            assert state is None
            break
        layers, targets = state[:2]
        assert list(layers) == reference
        assert_stable_prefix(_sumset_layers(bits, m - 1, capmask), list(layers), bits, capmask)
        assert targets == targets_of(bits, a)


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
        if layers[-1] & targets_of(bits, a):  # the fold returns None exactly then
            assert state is None
            break
        assert list(state[0]) == layers
        # L_k saturated: all of [k*min S, a*n], an empty set once k*min S > a*n;
        # full is the first saturated layer, and all later ones are saturated
        lows = [k * elements[0] for k in range(1, m)]
        saturated = [layer == (interval(lo, a * n) if lo <= a * n else 0) for lo, layer in zip(lows, layers)]
        assert saturated == [False] * state[3] + [True] * (m - 1 - state[3])
        # reused layers add nothing new to the mask
        ys = range(1, n + 2)
        assert [bool(state[2] >> y & 1) for y in ys] == [blocks(state, y, a) for y in ys]


def check_run_fold(state, bits, x, w, m, a, n):
    """Folds the run x..x+w into the state of the class bits in one call.

    The fold must return None exactly when the reference layers of the union
    hold a solution, whether the run-class lemmas or the layers decide it.
    Otherwise its layers, its targets {a*t}, its first saturated layer and its
    mask are compared with the reference layers and blocks for every y.
    Returns the fold's state, None or not, and the new class.
    """
    capmask = (1 << (a * n + 1)) - 1
    state = _add_element(state, x, w, a, capmask)
    bits |= interval(x, x + w)
    layers = sumset_layers(bits, m - 1, capmask)
    if layers[-1] & targets_of(bits, a):
        assert state is None
        return state, bits
    assert list(state[0]) == layers
    assert state[1] == targets_of(bits, a)
    # full is the first layer that is all of [k*min S, a*n], an empty set once k*min S > a*n
    lo = (bits & -bits).bit_length() - 1
    saturated = [layer == (interval(k * lo, a * n) if k * lo <= a * n else 0)
                 for k, layer in enumerate(layers, start=1)]
    assert saturated == [False] * state[3] + [True] * (m - 1 - state[3])
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
    # a few runs after a prefix of single elements or of one run, all in any order:
    # runs into an empty class, below min S, over members and above them, runs that
    # leave one run, and runs long enough for the layers to repeat by a shift of
    # min S before they saturate; a class that holds a solution takes no more runs
    run = st.tuples(st.integers(1, n), st.integers(0, n)).map(
        lambda t: list(range(t[0], min(t[0] + t[1], n) + 1)))
    prefix = data.draw(st.one_of(st.lists(st.integers(1, n), max_size=8), run))
    state, bits = fold(prefix, m, a, n), sum_bits(1 << x for x in prefix)
    for _ in range(data.draw(st.integers(1, 3))):
        if state is None:
            break
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
        # results of one run, written down: [12, 20] into an empty class, where
        # only L_1 and L_2 lie below the cap, 40, and L_4 .. L_29 are empty
        (30, 2, 20, [], 12, 8),
        (8, 2, 12, [3, 4, 5, 9, 10], 6, 2),  # [6, 8] joins [3, 5] and [9, 10]
        (7, 2, 14, [8, 9, 10], 4, 3),  # [4, 7] below min S extends [8, 10] down
        (10, 3, 15, [5, 6, 7, 8], 9, 3),  # [9, 12] above [5, 8]: L_6 .. L_9 are reused
    ],
)
def test_run_fold_cases(monkeypatch, m, a, n, prefix, x, w):
    folds = []
    monkeypatch.setattr(search, "fold_layers", lambda *args: folds.append(args) or fold_layers(*args))
    parent, bits = fold(prefix, m, a, n), sum_bits(1 << t for t in prefix)
    state, bits = check_run_fold(parent, bits, x, w, m, a, n)
    assert state is not None  # so the whole mask was compared
    # a result of one run is written down, any other folded by core.fold_layers
    assert bool(folds) == bool(bits & (bits + (bits & -bits)))
    if prefix and x > min(prefix):  # min S stays: the saturated tail is reused
        assert all(new is old for new, old in zip(state[0][parent[3]:], parent[0][parent[3]:]))


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
    assert (state is None) == (witness is not None and witness.color is Color.RED)


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
        if state is None:
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
    assume(state is not None)  # the search reads only a solution-free class's mask
    blocked = bool(state[2] >> y & 1)
    if blocked:  # sound: y really closes a solution
        assert _add_element(state, y, 0, a, (1 << (a * (n + 4) + 1)) - 1) is None
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
    assert state is not None
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
