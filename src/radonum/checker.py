"""Decide whether a 2-coloring admits a monochromatic solution of L(m, a).

The fast path builds, per color class S, a layered sumset table: layer k is
the bitset of integers expressible as a sum of exactly k elements of S with
repetition allowed, truncated at cap = a*n. A monochromatic solution exists
iff some target t in S has a*t present in layer m-1. The targets that do are
found at once: layer m-1 decimated by a (core.decimate, the search's shape-1
test), ANDed with S; the lowest one is the witness's x_m. The layers come from
core.fold_layers, which the search's run folds share: one shift per maximal
run of consecutive elements of S plus at most ceil(log2(w+1)) shift-ORs per
distinct run width w, never more than |S| shifts (a lower-bound coloring's
classes are one run each), and one shift and one AND per layer once a layer
repeats the one before it by a shift of min S, as a dense class does after a
few layers. A small multiset enumeration oracle provides an independent
cross-check.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, repeat

from .core import (
    Color, Coloring, RadoEquation, Witness, decimate, fold_layers, iter_bits, smear_steps
)

NAIVE_GUARD = 1_000_000


def _sumset_layers(class_bits: int, depth: int, capmask: int) -> list[int]:
    """Layered sumset table of one color class, built a layer at a time.

    Entry k-1 holds the sums of exactly k class elements (repetition
    allowed, k = 1..depth) as a bitmask, every layer truncated to capmask.
    Sums only grow, so truncation never loses a reachable value below the cap.
    The class is split once into maximal runs p..p+w, with the run starts
    grouped by w, widest first: the plan that core.fold_layers folds into
    empty layers.
    """
    if not class_bits:  # no min S to shift by; every layer is empty
        return [0] * depth
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


def _greedy_left_side(layers: list[int], elements: list[int], total: int, count: int) -> list[int]:
    """Backtrack a sum of `count` class elements, smallest element first.

    Always succeeds when total is in layers[count - 1]; the result is
    non-decreasing because picking the minimum feasible element at each step
    keeps every smaller element infeasible later on.
    """
    remaining = total
    out: list[int] = []
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


def find_mono_solution(col: Coloring, eq: RadoEquation) -> Witness | None:
    """First monochromatic solution of L(m, a) under col, or None.

    Deterministic order: the red class is searched before blue, the smallest
    qualifying target first, and the left side is reconstructed greedily by
    smallest element. Values may repeat; a witness can sit in one element.
    """
    cap = eq.a * col.n
    capmask = (1 << (cap + 1)) - 1
    depth = eq.m - 1
    for color in (Color.RED, Color.BLUE):
        bits = col.class_bits(color)
        layers = _sumset_layers(bits, depth, capmask)
        hits = decimate(layers[-1], eq.a) & bits  # t <= n, so a*t <= cap
        if hits:
            t = (hits & -hits).bit_length() - 1
            left = _greedy_left_side(layers, list(iter_bits(bits)), eq.a * t, depth)
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
