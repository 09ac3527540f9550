"""Exhaustive computation of 2-color Rado numbers by incremental DFS.

Colorings are grown one element at a time in the order 1, 2, 3, ...; any
solution-free prefix of [k] is itself a valid coloring of [k], so the valid
depths form a downward-closed set and the Rado number is deepest_valid + 1
once depth deepest_valid + 1 has been refuted exhaustively. Element 1 is
pinned red: swapping the two colors preserves validity, so the red half of
the tree suffices.

Each DFS node carries, per color class, the state (layers, targets, blocked,
full): layers[k-1] is the bitset of sums of exactly k class elements
(repetition allowed, k = 1..m-1) and targets is the bitset {a*t : t in class},
both truncated at a*n_max, the largest target. Coloring element x folds it
into one class with at most m-1 shifts (see _add_element), and the child is
pruned iff the folded last layer meets the folded targets. The other class
keeps its parent state by reference. full is the index of the first
saturated layer, L_k = [k*min S, a*n_max]: adding a larger element cannot
change it, so layers from full on are reused, not folded.

blocked is the bitset of the y that would close a solution if added to the
class, as far as these shapes go, with L_0 = {0}:
  a*y in L_{m-1}               y only on the right,
  y + s = a*t, s in L_{m-2}    y once on the left, some t in the class on the right,
  (a-1)*y in L_{m-2}           y once on the left and on the right.
Solutions with y twice or more on the left are not looked for. Every value
involved is at most a*y, so the cap at a*n_max loses nothing for y <= n_max.
Since a class only grows, blocked only grows: _add_element ORs the new y into
the parent's mask with whole-integer operations, for children that survive
the solution check. The shapes are sound, so a child whose x is blocked in
its class holds a solution: the search counts its check and prunes it
without folding. Only a child whose bit is clear is folded and tested.

Lookahead: a popped node of depth d < best_depth is skipped, its children
unchecked, when some y in d+2 .. best_depth+1 is blocked in both classes,
one AND of the two masks and the window. This is sound: every descendant's
classes contain the node's, so a solution that y closes at the node stays
closed below it, and no descendant can color y; the subtree thus holds only
colorings of depth <= y-1 <= best_depth. best_depth never falls, so none of
them could have become the best, and since the DFS pops in preorder, every
node that can set a new best is still visited in the same order. The status,
rado_number, deepest_valid and certificate are therefore those of the search
without lookahead; only the node and check counts fall. (y = d+1 is left to
the child checks: each reads its class's blocked bit first, and folds only
when it is clear, so a child is pruned iff it holds a solution, as in the
plain search.) This is the forced-element pruning of exhaustive van der
Waerden searches (Kouril and Paul, The van der Waerden number W(2,6) is 1132,
Exp. Math. 2008), applied inside a node as well as across nodes.

Determinism contract: the red branch is explored before the blue branch, and
the reported certificate is the first coloring reaching the final depth in
that order. The search runs on one thread: the pure-Python DFS holds the
interpreter lock, so threads cannot speed it up. The library keyword
threads= is validated (>= 1) and otherwise ignored; no reported value or
count depends on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice

from .core import Coloring, RadoEquation, iter_bits
from .formula import KnownNumber, known_rado_number

EXACT = "exact"
CUTOFF = "cutoff"

_POLL_MASK = 127  # poll the deadline every this many expanded nodes

# (layers, targets, blocked, full): the sums of 1..m-1 elements, {a*t}, the future
# y that would close a solution, all bitsets, and the index of the first layer
# that is saturated; see the module docstring
_ClassState = tuple[tuple[int, ...], int, int, int]


def _empty_state(m: int, a: int, capmask: int) -> _ClassState:
    """State of an empty class. It blocks no y, except for L(2, 1): y = y."""
    return (0,) * (m - 1), 0, capmask << 1 if (m, a) == (2, 1) else 0, m - 1


def _decimate(bits: int, step: int) -> int:
    """The bitset {y : step*y in bits}, for step >= 1.

    Step 1 is the identity. Otherwise goes through a base-2 string, whose
    slice picks every step-th bit at C speed. Conversions between int and str
    stay in base 2 throughout: decimal ones are quadratic and capped at 4,300
    digits since Python 3.11.
    """
    if step == 1:
        return bits
    digits = bin(bits)[2:]  # bit p sits at index len - 1 - p
    return int(digits[(len(digits) - 1) % step :: step], 2)


def _add_element(state: _ClassState, x: int, a: int, capmask: int) -> _ClassState:
    """Class state after adding element x.

    A sum of k elements of S + {x} either avoids x (layer k of S) or is x
    plus a sum of k-1 elements of S + {x}, so with L'_0 = {0} the new layers
    are L'_k = L_k | (L'_{k-1} << x), built from k = 1 upwards: one shift per
    layer. Adding an element already in the class leaves the state unchanged.

    Layers from index full on are saturated: L_k is the whole interval
    [k*min S, cap], cap = a*n_max, since every sum of k elements lies in it.
    Then L_{k+1} contains L_k + min S = [(k+1)*min S, cap], so the saturated
    layers are a tail. While x >= min S, as in the search, where elements
    arrive in increasing order, min S stays and L'_{k-1} << x lies in
    [k*min S, cap] as well: the tail cannot change, is reused by reference,
    and only the layers before it are folded, after which full moves down
    past the layers that have just saturated. An x below min S (only tests
    fold out of order) lowers min S, and every layer is folded again.

    blocked only grows, so the parent's is extended by the new y of each shape:
      shape 1, a*y in L'_{m-1}:     L'_{m-1} decimated by a;
      shape 3, (a-1)*y in L'_{m-2}: L'_{m-2} decimated by a-1;
      shape 2, y + s = a*t, with s in L'_{m-2} and t in S + {x}: for t = x,
        L'_{m-2} bit-reversed about a*x; for t in S, only the s that are new
        in L'_{m-2}, each as targets >> s. Such an s can reach a target only
        below targets.bit_length(), whatever the order elements arrive in.
    A reused L'_{m-1} or L'_{m-2} adds nothing to shapes 1 and 3, nor new s:
    the solution-free state that last changed it ORed its y in already.
    blocked is left as the parent's once the class holds a solution: such a
    child is pruned, so its mask is never read.
    """
    layers, targets, blocked, full = state
    min_bit = layers[0] & -layers[0]  # the bit of min S, 0 while the class is empty
    if not min_bit or min_bit > 1 << x:  # x is the new min S: fold every layer
        full, min_bit = len(layers), 1 << x
    prev = 1
    # islice, not slices: tuples of fewer than 20 items are kept on free lists when
    # freed, and slices of every length would fill those with thousands of tuples
    head = [prev := (layer | (prev << x)) & capmask for layer in islice(layers, full)]
    reused = len(layers) - len(head)
    # L'_k is saturated when it holds all cap + 1 - k*min S values of its interval
    cap, min_s = capmask.bit_length() - 1, min_bit.bit_length() - 1
    while full and head[full - 1].bit_count() == max(0, cap + 1 - full * min_s):
        full -= 1
    new_layers = (*head, *islice(layers, len(head), None))
    ax = a * x
    new_targets = targets | (1 << ax)
    if new_layers[-1] & new_targets:
        return new_layers, new_targets, blocked, full
    below = new_layers[-2] if len(layers) > 1 else 1  # L'_{m-2}
    if not reused:  # a reused layer's y are in the parent's mask already
        blocked |= _decimate(new_layers[-1], a)
    if a > 1 and reused < 2:  # a = 1: 0 is in L'_{m-2} only for m = 2, where x = x is a solution
        blocked |= _decimate(below, a - 1)
    low = below & ((1 << ax) - 1)  # s < a*x, so that y = a*x - s >= 1
    # reversing the base-2 digits moves bit s to low.bit_length() - 1 - s
    blocked |= int(bin(low)[:1:-1], 2) << (ax + 1 - low.bit_length())
    if len(layers) > 1 and reused < 2:  # for m = 2, L_0 = {0} gains nothing
        new = below & ~layers[-2] & ((1 << targets.bit_length()) - 1)
        for s in iter_bits(new):
            blocked |= targets >> s
    return new_layers, new_targets, blocked, full


def _has_solution(state: _ClassState) -> bool:
    """Whether the class alone solves L(m, a): some a*t is a sum of m-1 elements."""
    return bool(state[0][-1] & state[1])


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    checks: int
    millis: float


@dataclass(frozen=True)
class SearchOutcome:
    """Result of an exhaustive search up to n_max.

    status "exact": rado_number = deepest_valid + 1 and depth rado_number was
    exhaustively refuted. status "cutoff": a valid coloring of [n_max] exists
    (deepest_valid = n_max) or a timeout stopped the search early; rado_number
    is None. The certificate is always a valid coloring of [deepest_valid].
    """

    status: str
    rado_number: int | None
    deepest_valid: int
    certificate: Coloring
    stats: SearchStats

    @property
    def exact(self) -> bool:
        return self.status == EXACT


def exact_rado_number(
    eq: RadoEquation,
    n_max: int = 24,
    threads: int = 1,
    timeout: float | None = None,
) -> SearchOutcome:
    """Smallest n such that every 2-coloring of [n] has a monochromatic solution.

    Exhausts colorings up to n_max elements by a preorder DFS, red child
    before blue, with the lookahead of the module docstring; a node is
    (red_bits, depth, red_state, blue_state). Reports
    "exact" with the Rado number when the stack empties, otherwise "cutoff":
    the search stops at the first node of depth n_max (in preorder it carries
    the lexicographically least red set among deepest colorings) or once the
    optional timeout (seconds, >= 0) has passed; only then can deepest_valid
    fall short of n_max. threads must be >= 1 and has no effect.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    if timeout is not None and not timeout >= 0:  # also rejects NaN
        raise ValueError(f"need timeout >= 0 seconds, got {timeout}")
    m, a = eq.m, eq.a
    start = time.perf_counter()
    deadline = start + timeout if timeout is not None else None
    capmask = (1 << (a * n_max + 1)) - 1  # a*n_max is the largest target

    # the empty coloring is always solution-free; it counts as one node, and
    # checking its pinned child (element 1 red, by color-swap symmetry) as one check
    best_depth, best_red = 0, 0
    nodes = checks = 1
    empty = _empty_state(m, a, capmask)
    pinned = _add_element(empty, 1, a, capmask)
    stack = []
    if not _has_solution(pinned):
        best_depth, best_red = 1, 0b10
        stack.append((0b10, 1, pinned, empty))

    status = CUTOFF
    while stack:
        # nodes - 1 nodes expanded so far: poll before the first and every 128th
        if (nodes & _POLL_MASK) == 1 and deadline is not None:
            if time.perf_counter() > deadline:
                break
        red, depth, red_state, blue_state = stack.pop()
        nodes += 1
        if depth > best_depth:
            best_depth, best_red = depth, red
        if depth >= n_max:
            break
        # lookahead: no extension colors y, so none goes deeper than y - 1 <= best_depth
        if (red_state[2] & blue_state[2] & ((1 << (best_depth + 2)) - 1)) >> (depth + 2):
            continue
        x = depth + 1
        bit = 1 << x
        # a child whose x is blocked in its class holds a solution: counted, not folded
        checks += 2
        if not blue_state[2] & bit:
            child = _add_element(blue_state, x, a, capmask)
            if not _has_solution(child):
                stack.append((red, x, red_state, child))
        if not red_state[2] & bit:
            child = _add_element(red_state, x, a, capmask)
            if not _has_solution(child):
                stack.append((red | bit, x, child, blue_state))
    else:  # the stack emptied: no coloring of [best_depth + 1] is solution-free
        status = EXACT

    millis = (time.perf_counter() - start) * 1000.0
    stats = SearchStats(nodes, checks, millis)
    rado_number = best_depth + 1 if status == EXACT else None
    return SearchOutcome(status, rado_number, best_depth, Coloring(best_depth, best_red), stats)


@dataclass(frozen=True)
class SweepEntry:
    """One equation of a sweep: search outcome next to the known value, if any.

    agree is True/False only when both sides are conclusive (an exact search
    and a known reference value); otherwise None.
    """

    m: int
    a: int
    outcome: SearchOutcome
    known: KnownNumber | None

    @property
    def agree(self) -> bool | None:
        if self.known is None or not self.outcome.exact:
            return None
        return self.outcome.rado_number == self.known.value

    def to_report_dict(self) -> dict:
        return {
            "m": self.m,
            "a": self.a,
            "exact": self.outcome.rado_number,
            "formula": None if self.known is None else self.known.value,
            "agree": self.agree,
            "nodes": self.outcome.stats.nodes,
            "millis": round(self.outcome.stats.millis, 3),
        }


def sweep(
    a: int,
    m_from: int,
    m_to: int,
    n_max: int = 24,
    threads: int = 1,
    timeout: float | None = None,
) -> list[SweepEntry]:
    """Run exact searches for m in [m_from, m_to] and compare with known values.

    A per-entry timeout turns into a cutoff entry and bounds the cost of a
    large n_max; the sweep itself never aborts. threads must be >= 1 and has
    no effect, as in exact_rado_number.
    """
    if m_from < 2 or m_to < m_from:
        raise ValueError(f"need 2 <= m_from <= m_to, got [{m_from}, {m_to}]")
    entries = []
    for m in range(m_from, m_to + 1):
        eq = RadoEquation(m, a)
        outcome = exact_rado_number(eq, n_max=n_max, threads=threads, timeout=timeout)
        entries.append(SweepEntry(m, a, outcome, known_rado_number(eq)))
    return entries
