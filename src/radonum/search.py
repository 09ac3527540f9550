"""Exhaustive computation of 2-color Rado numbers by incremental DFS.

Colorings are grown one element at a time in the order 1, 2, 3, ...; any
solution-free prefix of [k] is itself a valid coloring of [k], so the valid
depths form a downward-closed set and the Rado number is deepest_valid + 1
once depth deepest_valid + 1 has been refuted exhaustively. Element 1 is
pinned red: swapping the two colors preserves validity, so the red half of
the tree suffices.

Each DFS node carries, per color class, the state (layers, targets):
layers[k-1] is the bitset of sums of exactly k class elements (repetition
allowed, k = 1..m-1) and targets is the bitset {a*t : t in class}, all
truncated at a*n_max, the largest target. Coloring element x folds it into
one class with m-1 shifts (see _add_element), and the child is pruned iff
the folded last layer meets the folded targets. The other class keeps its
parent state by reference.

Lookahead: a popped node of depth d < best_depth is skipped, its children
unchecked, when some y in d+2 .. best_depth+1 is blocked in both classes
(_blocks: adding y to the class closes a solution). This is sound: every
descendant's classes contain the node's, so a solution that y closes at the
node stays closed below it, and no descendant can color y; the subtree thus
holds only colorings of depth <= y-1 <= best_depth. best_depth never falls,
so none of them could have become the best, and since the DFS pops in
preorder, every node that can set a new best is still visited in the same
order. The status, rado_number, deepest_valid and certificate are therefore
those of the search without lookahead; only the node and check counts fall.
(y = d+1 is left to the child checks, which are exact.) This is the
forced-element pruning of exhaustive van der Waerden searches (Kouril and
Paul, The van der Waerden number W(2,6) is 1132, Exp. Math. 2008).

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

from .core import Coloring, RadoEquation
from .formula import KnownNumber, known_rado_number

EXACT = "exact"
CUTOFF = "cutoff"

_POLL_MASK = 127  # poll the deadline every this many expanded nodes

_ClassState = tuple[tuple[int, ...], int]  # (layers, targets), see the module docstring


def _add_element(state: _ClassState, x: int, a: int, capmask: int) -> _ClassState:
    """Class state after adding element x: one shift per layer.

    A sum of k elements of S + {x} either avoids x (layer k of S) or is x
    plus a sum of k-1 elements of S + {x}, so with L'_0 = {0} the new layers
    are L'_k = L_k | (L'_{k-1} << x), built from k = 1 upwards. Adding an
    element already in the class leaves the state unchanged.
    """
    layers, targets = state
    prev = 1
    layers = tuple([prev := (layer | (prev << x)) & capmask for layer in layers])
    return layers, targets | (1 << (a * x))


def _has_solution(state: _ClassState) -> bool:
    """Whether the class alone solves L(m, a): some a*t is a sum of m-1 elements."""
    layers, targets = state
    return bool(layers[-1] & targets)


def _blocks(state: _ClassState, y: int, a: int) -> bool:
    """Whether adding a future element y to the class would close a solution.

    Reads only the class state (layers of S, targets a*S); y itself need not
    be folded in. Sound but incomplete: it finds the solutions in S + {y}
    where y appears at most once on the left side, namely
      a*y in L_{m-1}               y only on the right,
      y + s = a*t, s in L_{m-2}    y once on the left, some t in S on the right,
      (a-1)*y in L_{m-2}           y once on the left and on the right,
    with L_0 = {0}. Every value tested is at most a*y, so the cap at a*n_max
    loses nothing while y <= n_max.
    """
    layers, targets = state
    below = layers[-2] if len(layers) > 1 else 1  # L_{m-2}
    return bool(
        layers[-1] >> (a * y) & 1
        or (below << y) & targets
        or below >> ((a - 1) * y) & 1
    )


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
    empty = ((0,) * (m - 1), 0)
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
        if any(
            _blocks(red_state, y, a) and _blocks(blue_state, y, a)
            for y in range(depth + 2, best_depth + 2)
        ):
            continue
        x = depth + 1
        checks += 1
        child = _add_element(blue_state, x, a, capmask)
        if not _has_solution(child):
            stack.append((red, x, red_state, child))
        checks += 1
        child = _add_element(red_state, x, a, capmask)
        if not _has_solution(child):
            stack.append((red | 1 << x, x, child, blue_state))
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
