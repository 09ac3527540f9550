"""Decide whether a 2-coloring admits a monochromatic solution of L(m, a).

A color class that is one run lo..hi, as both classes of a lower-bound
coloring are, is decided by arithmetic: its sums of m-1 elements are every
integer in (m-1)*lo .. (m-1)*hi, so core.least_run_target, the run lemma the
search's goal uses too, gives the least target, and the witness's left side
has a closed form. So is a class of two runs, such as a class of a
lower-bound coloring with one element flipped: its sums of m-1 elements
are a union of intervals, one per count of elements from the upper run, so
core.least_two_run_target, the two-run lemma the search's propagation uses
too, gives the least target, and the left side is the lesser of two closed
forms. A class S of three runs or more gets a layered sumset table: layer k is
the bitset of integers expressible as a sum of exactly k elements of S with
repetition allowed, truncated at cap = a*max S, since every target a*t is at
most that. A monochromatic solution exists iff some target t in S has a*t
present in layer m-1. The targets that do are found at once: layer m-1
decimated by a (core.decimate, the search's shape-1 test), ANDed with S; the
lowest one is the witness's x_m. The layers come from core.fold_layers, which
the search's run folds share: one shift per maximal run of consecutive
elements of S plus at most ceil(log2(w+1)) shift-ORs per distinct run width
w, never more than |S| shifts. The table stops at the layer L_j whose
successor is L_j shifted by min S, as a dense class's does after a few
layers: every later layer is a shift of L_j too, so layer m-1 costs one shift
and one AND, and the left side, backtracked smallest element first, each
element as many times as it fits, reads any later layer as a bit of L_j. A
small multiset enumeration oracle provides an independent cross-check.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, repeat
from typing import Iterable

from .core import (
    Color, Coloring, RadoEquation, Witness, decimate, fold_layers, iter_bits, least_run_target,
    least_two_run_target, smear_steps,
)

NAIVE_GUARD = 1_000_000


def _sumset_layers(class_bits: int, depth: int, capmask: int) -> list[int]:
    """Layered sumset table of one color class, built a layer at a time, up to its stable tail.

    Entry k-1 holds the sums of exactly k class elements (repetition
    allowed) as a bitmask, every layer truncated to capmask. Sums only grow,
    so truncation never loses a reachable value below the cap. The table is
    L_1 .. L_j, j <= depth, with L_k = (L_j << (k-j)*min S) & capmask for
    j < k <= depth (core.fold_layers). The class is split once into maximal
    runs p..p+w, with the run starts grouped by w, widest first: the plan
    that core.fold_layers folds into empty layers.
    """
    if not class_bits:  # every layer is empty, a shift of the first by anything
        return [0]
    starts_by_width: dict[int, list[int]] = {}
    run_starts = iter_bits(class_bits & ~(class_bits << 1))
    run_ends = iter_bits(class_bits & ~(class_bits >> 1))
    for p, q in zip(run_starts, run_ends):
        starts_by_width.setdefault(q - p, []).append(p)
    widths = sorted(starts_by_width, reverse=True)
    plan = [
        (starts_by_width[w], smear_steps(w - narrower))
        for w, narrower in zip(widths, [*widths[1:], 0])
    ]
    min_s = (class_bits & -class_bits).bit_length() - 1
    return fold_layers(repeat(0, depth), plan, min_s, capmask)


def _greedy_left_side(
    layers: list[int], elements: Iterable[int], total: int, count: int
) -> list[int]:
    """Backtrack a sum of `count` class elements, smallest element first.

    layers is a table L_1 .. L_j of _sumset_layers, and total a sum in
    L_count no larger than its cap. A layer past the table is read, not
    built: bit r of L_k, k > j, is bit r - (k-j)*min S of L_j, since L_k =
    (L_j << (k-j)*min S) & capmask and every remainder r is at most total.

    The result is the one that picking the least feasible element at each
    step gives: an element e infeasible for the remainder r with k summands
    left stays so after any pick p, since r - p - e in L_{k-2} would put r -
    e in L_{k-1}. So the ascending elements are walked once, and each is
    taken as many times c as fit, the largest c <= k with r - c*e in
    L_{k-c}. Those c form a prefix of 0..k, since r - c*e in L_{k-c} puts r
    - i*e = r - c*e + (c-i)*e in L_{k-i} for i < c, so galloping over c =
    1, 2, 4, ... and bisecting the last gap finds the largest one.
    """
    sums = [1, *layers]  # sums[k]: the sums of exactly k elements, bit 0 the empty sum
    j, min_s = len(layers), (layers[0] & -layers[0]).bit_length() - 1  # min S: L_1 is S
    remaining, k = total, count

    def fits(c: int) -> bool:
        rest, row = remaining - c * e, k - c
        if row > j:  # L_{k-c} is L_j shifted by (k-c-j)*min S
            rest, row = rest - (row - j) * min_s, j
        return rest >= 0 and (sums[row] >> rest) & 1 == 1

    out: list[int] = []
    for e in elements:
        if not fits(1):
            continue
        fit, over = 1, 2
        while over <= k and fits(over):
            fit, over = over, 2 * over
        over = min(over, k + 1)
        while over - fit > 1:
            mid = (fit + over) // 2
            fit, over = (mid, over) if fits(mid) else (fit, mid)
        out += [e] * fit
        remaining, k = remaining - fit * e, k - fit
        if not k:
            return out
    raise RuntimeError("sumset table backtracking failed; table is inconsistent")


def _run_left_side(lo: int, hi: int, total: int, count: int) -> list[int]:
    """_greedy_left_side for the run lo..hi, in closed form, for total in count*lo .. count*hi.

    The least element at each step is lo while the rest can still reach total
    with hi, so the sum is lo repeated, then one lo + r, then hi repeated q
    times, with total - count*lo = q*(hi - lo) + r; the middle term goes when
    r = 0.
    """
    if lo == hi:
        return [lo] * count
    q, r = divmod(total - count * lo, hi - lo)
    middle = [lo + r] if r else []
    return [lo] * (count - q - len(middle)) + middle + [hi] * q


def _two_run_left_side(l1: int, h1: int, l2: int, h2: int, total: int, count: int) -> list[int]:
    """_greedy_left_side for the class of two runs l1..h1, l2..h2, in closed form.

    Needs 1 <= l1 <= h1 < l2 <= h2 and total a sum of count class elements.

    The greedy's sum, ascending, is the lexicographically least ascending
    list of count class elements with that total. Let k = count and T =
    total. With i elements from the upper run, the list is k-i elements of
    l1..h1 summing to some T1, then i of l2..h2 summing to T - T1. A smaller
    T1 gives a smaller lower part (_run_left_side: more leading l1s, or as
    many and a smaller next element), so the least list for i, f(i), takes
    the least feasible T1 = max((k-i)*l1, T - i*h2). Such a list exists iff
    T lies in [(k-i)*l1 + i*l2, (k-i)*h1 + i*h2], that is iff i lies in
    first..last below.

    f falls up to i*-1 and rises from i* = ceil((T - k*l1)/(h2 - l1)) on:
    - For i >= i*, T1 = (k-i)*l1: f(i) is k-i copies of l1, then upper
      elements, so f(i+1), with one l1 fewer, is larger.
    - For i < i*, T1 exceeds (k-i)*l1 by e = (T - k*l1) - i*(h2-l1) > 0, so
      h1 > l1 (else i is not feasible), and with D = h1 - l1, f(i) is
      k-i-ceil(e/D) copies of l1, then v = l1 + e - (ceil(e/D)-1)*D > l1.
      From i to i+1 < i*, e falls by h2 - l1 > D, so ceil(e/D) falls by at
      least 1 and the count of leading l1s does not fall. If it rises, f(i+1)
      holds l1 where f(i) holds v; if not, ceil(e/D) fell by exactly 1, and
      v falls by h2 - h1 > 0. Either way f(i+1) < f(i).
    Also first <= i* and i*-1 <= last: (T - k*h1)/(h2 - h1) <= (T - k*l1)/(h2
    - l1) for T <= k*h2, where both are k, since the left one grows faster
    with T; and l2 - l1 <= h2 - l1. So the least f(i) over first..last is at
    i*-1 or i*, whichever has a list, or the lesser of the two if both have:
    a comparison of at most two lists, with no table. Neither end of
    first..last nor i*+1 can win unless it is one of those two.
    """
    k = count
    first = max(0, -(-(total - k * h1) // (h2 - h1)))
    last = min(k, (total - k * l1) // (l2 - l1))
    pivot = -(-(total - k * l1) // (h2 - l1))  # i*

    def side(i: int) -> list[int]:
        lower = max((k - i) * l1, total - i * h2)
        return _run_left_side(l1, h1, lower, k - i) + _run_left_side(l2, h2, total - lower, i)

    return min(side(i) for i in (pivot - 1, pivot) if first <= i <= last)


def find_mono_solution(col: Coloring, eq: RadoEquation) -> Witness | None:
    """First monochromatic solution of L(m, a) under col, or None.

    Deterministic order: the red class is searched before blue, the smallest
    qualifying target first, and the left side is reconstructed greedily by
    smallest element. Values may repeat; a witness can sit in one element.
    """
    depth = eq.m - 1
    for color in (Color.RED, Color.BLUE):
        bits = col.class_bits(color)
        starts = bits & ~(bits << 1)  # the first element of each run
        runs = starts.bit_count()
        if runs == 1:  # one run lo..hi: no table
            lo, hi = (bits & -bits).bit_length() - 1, bits.bit_length() - 1
            t = least_run_target(lo, hi, eq.m, eq.a)
            if t:
                return Witness((*_run_left_side(lo, hi, eq.a * t, depth), t), color)
        elif runs == 2:  # two runs l1..h1, l2..h2: no table either
            l1, h2 = (bits & -bits).bit_length() - 1, bits.bit_length() - 1
            h1 = (bits & ~(bits + (1 << l1))).bit_length() - 1  # the end of the first run
            l2 = starts.bit_length() - 1
            t = least_two_run_target(l1, h1, l2, h2, eq.m, eq.a)
            if t:
                left = _two_run_left_side(l1, h1, l2, h2, eq.a * t, depth)
                return Witness((*left, t), color)
        elif runs:
            capmask = (1 << (eq.a * (bits.bit_length() - 1) + 1)) - 1  # cap a*max S
            layers = _sumset_layers(bits, depth, capmask)
            shift = (depth - len(layers)) * ((bits & -bits).bit_length() - 1)
            hits = decimate((layers[-1] << shift) & capmask, eq.a) & bits  # L_{m-1}
            if hits:
                t = (hits & -hits).bit_length() - 1
                left = _greedy_left_side(layers, iter_bits(bits), eq.a * t, depth)
                return Witness((*left, t), color)
    return None


def is_valid_coloring(col: Coloring, eq: RadoEquation) -> bool:
    """Whether col admits no monochromatic solution of L(m, a)."""
    return find_mono_solution(col, eq) is None


def verify_witness(witness: Witness, col: Coloring, eq: RadoEquation) -> bool:
    """Re-check a claimed witness against a coloring without trusting the finder.

    True iff there are m values, every value lies in [1, n] and carries the
    witness color, and the first m-1 values sum to a times the last. Values
    are range-checked before any arithmetic, so the sums stay small.
    """
    values = witness.values
    if len(values) != eq.m:
        return False
    for value in set(values):
        if not 1 <= value <= col.n or col.color_of(value) is not witness.color:
            return False
    return sum(values[:-1]) == eq.a * values[-1]


def naive_find_mono_solution(col: Coloring, eq: RadoEquation) -> Witness | None:
    """Oracle checker: enumerate all multisets of size m-1 per color class.

    Returns the first solution under the fixed lexicographic multiset order,
    red class before blue. Refuses instances whose |S|^(m-1) estimate exceeds
    NAIVE_GUARD; meant for n <= 8 and m <= 6.
    """
    m, a = eq.m, eq.a
    for color in (Color.RED, Color.BLUE):
        elements = list(iter_bits(col.class_bits(color)))
        if not elements:
            continue
        if len(elements) ** (m - 1) > NAIVE_GUARD:
            raise ValueError(
                f"naive enumeration over {len(elements)} elements to width {m - 1} "
                f"exceeds the guard of {NAIVE_GUARD}"
            )
        members = set(elements)
        for combo in combinations_with_replacement(elements, m - 1):
            total = sum(combo)
            if total % a:
                continue
            target = total // a
            if target in members:
                return Witness((*combo, target), color)
    return None
