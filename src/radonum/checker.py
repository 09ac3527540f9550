"""Decide whether a 2-coloring admits a monochromatic solution of L(m, a).

A color class of one or two runs of consecutive integers, as the classes of a
lower-bound coloring are, and of such a coloring with one element flipped,
needs no table: core.least_class_target, the run-class entry that the
search's propagation uses too, gives its least target from the class's run
ends by the run and two-run lemmas, and core.class_left_side writes the
witness's left side down in closed form. Blue is read as the gaps of red:
those below max red as a mask, and the run max red + 1 .. n as its two ends,
so a blue class of one or two runs, as a sparse coloring's is, builds no mask
of [n].

A class S of three runs or more gets a layered sumset table: layer k is the
bitset of integers expressible as a sum of exactly k elements of S with
repetition allowed, truncated at a cap. A monochromatic solution exists iff
some target t in S has a*t present in layer m-1. The cap comes from the least
target the class can have, not from max S. Every sum of m-1 elements is at
least (m-1)*min S (the first step of the run lemma, core.least_run_target),
so every target is at least t_lo = ceil((m-1)*min S / a), and a class with
t_lo > max S holds no solution and gets no table. Otherwise the table is
capped at a*T, T = 2*max(min S, t_lo), and built from the elements up to
a*T - (m-2)*min S only; if it holds no target t <= T, the class gets the
table capped at a*max S, which every target a*t is below. The small table is
skipped when 4*T > max S, where it would cost about as much as the full one.
Both give the same witness, byte for byte: a way of writing a*t as m-1 class
elements uses none above a*t - (m-2)*min S, since the other m-2 are at least
min S each. The targets below a*T are such sums, and so is each bit the
backtrack reads, r - c*e in L_{k-c} for a remainder r of a*t, t <= T, after
the elements picked before it: with them and c copies of e it writes a*t. So
the small table holds the same bits as the full one wherever either is read.

The targets that hold a solution are found at once: layer m-1 decimated by a
(core.decimate, the search's shape-1 test), ANDed with S; the lowest one is
the witness's x_m. The layers come from core.fold_layers, which the search's
run folds share: one shift per maximal run of consecutive elements of S plus
at most ceil(log2(w+1)) shift-ORs per distinct run width w, never more than
|S| shifts. The table stops at the layer L_j whose successor is L_j shifted
by min S, as a dense class's does after a few layers: every later layer is a
shift of L_j too, so layer m-1 costs one shift and one AND, and the left
side, backtracked smallest element first, each element as many times as it
fits, reads any later layer as a bit of L_j. A small multiset enumeration
oracle provides an independent cross-check.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, repeat
from typing import Iterable

from .core import (
    Color, Coloring, RadoEquation, Witness, class_left_side, decimate, fold_layers, iter_bits,
    least_class_target, run_ends, run_plan,
)

NAIVE_GUARD = 1_000_000


def _sumset_layers(class_bits: int, depth: int, capmask: int) -> list[int]:
    """Layered sumset table of one color class, built a layer at a time, up to its stable tail.

    Entry k-1 holds the sums of exactly k class elements (repetition
    allowed) as a bitmask, every layer truncated to capmask. Sums only grow,
    so truncation never loses a reachable value below the cap. The table is
    L_1 .. L_j, j <= depth, with L_k = (L_j << (k-j)*min S) & capmask for
    j < k <= depth (core.fold_layers). The class is split once into maximal
    runs, with the run starts grouped by width (core.run_plan): the plan that
    core.fold_layers folds into empty layers.

    find_mono_solution passes a cap of a*T, T = 2*max(min S, t_lo) with t_lo
    = ceil((m-1)*min S / a) the least target the class can have, and only
    the elements up to a*T - (m-2)*min S, the largest a sum a*t, t <= T, of
    m-1 elements can hold; if that table holds no target, the cap a*max S
    and the whole class. Below a*T both read the same as the whole class's
    table wherever the checker reads them (module docstring).
    """
    if not class_bits:  # every layer is empty, a shift of the first by anything
        return [0]
    min_s = (class_bits & -class_bits).bit_length() - 1
    return fold_layers(repeat(0, depth), run_plan(class_bits), min_s, capmask)


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


def _table_witness(below: int, tail: int, n: int, color: Color, eq: RadoEquation) -> Witness | None:
    """The least witness of a class of three runs or more, by a sumset table capped near it.

    The class is the elements of the mask below and the run tail..n, empty
    if tail > n; below holds min S. The cap is a*T for T = 2*max(min S,
    t_lo), t_lo the least target the class can have, and a*max S if that
    table holds no target t <= T (module docstring): the witness is the one
    a table capped at a*max S gives.
    """
    a, depth = eq.a, eq.m - 1
    min_s = (below & -below).bit_length() - 1
    max_s = n if tail <= n else below.bit_length() - 1
    t_lo = -(-depth * min_s // a)  # every sum of m-1 elements is at least (m-1)*min S
    if t_lo > max_s:
        return None
    small = 2 * max(min_s, t_lo)
    for top in (small, max_s) if 4 * small <= max_s else (max_s,):
        # the targets up to top, and every element a sum a*t, t <= top, of m-1
        # elements can hold: none above a*top - (m-2)*min S
        cut = min(n, max(top, a * top - (depth - 1) * min_s))
        bits = below & ((2 << cut) - 1) | max(0, (2 << cut) - (1 << tail))
        capmask = (1 << (a * top + 1)) - 1
        layers = _sumset_layers(bits, depth, capmask)
        shift = (depth - len(layers)) * min_s
        hits = decimate((layers[-1] << shift) & capmask, a) & bits  # L_{m-1}
        if hits:
            t = (hits & -hits).bit_length() - 1
            left = _greedy_left_side(layers, iter_bits(bits), a * t, depth)
            return Witness((*left, t), color)
    return None


def find_mono_solution(col: Coloring, eq: RadoEquation) -> Witness | None:
    """First monochromatic solution of L(m, a) under col, or None.

    Deterministic order: the red class is searched before blue, the smallest
    qualifying target first, and the left side is reconstructed greedily by
    smallest element. Values may repeat; a witness can sit in one element.
    """
    m, a, n, red = eq.m, eq.a, col.n, col.red_bits
    above = max(1, red.bit_length())  # max red + 1
    # each class as (below, tail): the elements of the mask below and the run tail..n,
    # empty for red; blue is the gaps of red below max red and the run above it, no mask
    classes = (Color.RED, red, n + 1), (Color.BLUE, ((1 << above) - 2) & ~red, above)
    for color, below, tail in classes:
        ends = run_ends(below)
        if tail <= n and ends is not None:  # blue's run above max red
            ends = (*ends, tail, n) if len(ends) < 4 else None
        t = least_class_target(ends, m, a)
        if t:  # one or two runs: no table
            return Witness((*class_left_side(ends, a * t, m - 1), t), color)
        if t is None and (witness := _table_witness(below, tail, n, color, eq)):
            return witness
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
