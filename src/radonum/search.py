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

Determinism contract: the red branch is explored before the blue branch, and
the reported certificate is the first coloring reaching the final depth in
that order. Worker fan-out replays the same order; results never depend on
the thread count (stats such as node counts may, wall time always does).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .core import Coloring, RadoEquation, iter_bits
from .formula import KnownNumber, known_rado_number

EXACT = "exact"
CUTOFF = "cutoff"

_SPLIT_DEPTH = 6  # fixed fan-out depth; fixed so results cannot drift with threads
_POLL_MASK = 127  # poll abort/deadline every this many expanded nodes

SWEEP_N_MAX_LIMIT = 32

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


def _class_state(class_bits: int, m: int, a: int, capmask: int) -> _ClassState:
    """State of a class built by folding in its elements one at a time."""
    state = ((0,) * (m - 1), 0)
    for x in iter_bits(class_bits):
        state = _add_element(state, x, a, capmask)
    return state


def _has_solution(state: _ClassState) -> bool:
    """Whether the class alone solves L(m, a): some a*t is a sum of m-1 elements."""
    layers, targets = state
    return bool(layers[-1] & targets)


def prefix_is_solution_free(col: Coloring, eq: RadoEquation, last_changed: int) -> bool:
    """Incremental validity check after coloring element last_changed.

    Only the class containing last_changed is rechecked: a new solution must
    use the new element, hence lives entirely in its class. The caller must
    guarantee the other class was already solution-free, as holds along any
    DFS path. The empty coloring is vacuously free.
    """
    if col.n == 0:
        return True
    bits = col.class_bits(col.color_of(last_changed))
    capmask = (1 << (eq.a * col.n + 1)) - 1
    return not _has_solution(_class_state(bits, eq.m, eq.a, capmask))


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


@dataclass
class _ExploreResult:
    best_depth: int
    best_red: int
    nodes: int
    checks: int
    reached_limit: bool
    timed_out: bool


def _explore(
    a: int,
    capmask: int,
    root: tuple,
    limit: int,
    collect_at: int | None = None,
    tasks: list[tuple] | None = None,
    should_abort=None,
    deadline: float | None = None,
    skip_root_count: bool = False,
) -> _ExploreResult:
    """Preorder DFS from one validated node, red child before blue.

    A node is (red_bits, depth, red_state, blue_state). Stops at the first
    node of depth == limit (in preorder that node carries the
    lexicographically least red set among deepest colorings). When
    collect_at is set, nodes reaching that depth are appended to tasks
    instead of being expanded. skip_root_count keeps a handed-off subtree
    root from being counted twice, once by the collector and once here.
    """
    best_depth, best_red = root[1], root[0]
    nodes = -1 if skip_root_count else 0
    checks = 0
    reached = False
    timed = False
    stack = [root]
    while stack:
        if (nodes & _POLL_MASK) == 0:
            if should_abort is not None and should_abort():
                break
            if deadline is not None and time.perf_counter() > deadline:
                timed = True
                break
        node = stack.pop()
        red, depth, red_state, blue_state = node
        nodes += 1
        if depth > best_depth:
            best_depth, best_red = depth, red
        if depth >= limit:
            reached = True
            break
        if collect_at is not None and depth >= collect_at:
            tasks.append(node)
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
    return _ExploreResult(best_depth, best_red, max(nodes, 0), checks, reached, timed)


def exact_rado_number(
    eq: RadoEquation,
    n_max: int = 24,
    threads: int = 1,
    timeout: float | None = None,
) -> SearchOutcome:
    """Smallest n such that every 2-coloring of [n] has a monochromatic solution.

    Exhausts colorings up to n_max elements. Reports "exact" with the Rado
    number when the refutation completes below n_max, otherwise "cutoff".
    An optional timeout (seconds) also yields "cutoff"; only then can
    deepest_valid fall short of n_max. threads > 1 fans independent subtrees
    out to a thread pool without changing any reported value.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    m, a = eq.m, eq.a
    start = time.perf_counter()
    deadline = start + timeout if timeout is not None else None
    capmask = (1 << (a * n_max + 1)) - 1  # a*n_max is the largest target

    best_depth, best_red = 0, 0  # the empty coloring is always solution-free
    nodes, checks = 1, 1
    reached = False
    timed_out = False
    results: list[_ExploreResult] = []

    # element 1 red; sufficient by color-swap symmetry
    pinned = _class_state(0b10, m, a, capmask)
    if not _has_solution(pinned):
        root = (0b10, 1, pinned, _class_state(0, m, a, capmask))
        split = min(_SPLIT_DEPTH, n_max)
        if split >= n_max:
            results.append(_explore(a, capmask, root, n_max, deadline=deadline))
        else:
            tasks: list[tuple] = []
            prefix = _explore(
                a, capmask, root, n_max, collect_at=split, tasks=tasks, deadline=deadline
            )
            results.append(prefix)
            if not prefix.timed_out:
                results.extend(_run_tasks(a, capmask, tasks, n_max, threads, deadline))

    for res in results:
        nodes += res.nodes
        checks += res.checks
        reached = reached or res.reached_limit
        timed_out = timed_out or res.timed_out
        if res.best_depth > best_depth:
            best_depth, best_red = res.best_depth, res.best_red

    millis = (time.perf_counter() - start) * 1000.0
    stats = SearchStats(nodes, checks, millis)
    certificate = Coloring(best_depth, best_red)
    if timed_out or reached:
        return SearchOutcome(CUTOFF, None, best_depth, certificate, stats)
    return SearchOutcome(EXACT, best_depth + 1, best_depth, certificate, stats)


def _run_tasks(
    a: int,
    capmask: int,
    tasks: list[tuple],
    n_max: int,
    threads: int,
    deadline: float | None,
) -> list[_ExploreResult]:
    """Explore the split-depth subtrees, in task order, optionally in parallel.

    A task whose subtree reaches n_max makes every later task irrelevant:
    later subtrees can only tie on depth and lose the lexicographic
    tie-break. Sequential mode therefore stops after such a task; parallel
    mode lets later tasks abort once an earlier finder is recorded. Results
    are merged in task order, so the outcome is thread-count independent.
    """
    if not tasks:
        return []
    if threads == 1:
        out: list[_ExploreResult] = []
        for task in tasks:
            res = _explore(
                a, capmask, task, n_max, deadline=deadline, skip_root_count=True
            )
            out.append(res)
            if res.reached_limit or res.timed_out:
                break
        return out

    finder_lock = threading.Lock()
    finder_index: list[int | None] = [None]

    def make_abort(index: int):
        def should_abort() -> bool:
            found = finder_index[0]
            return found is not None and found < index

        return should_abort

    def run_one(index: int, task: tuple) -> _ExploreResult:
        res = _explore(
            a, capmask, task, n_max,
            should_abort=make_abort(index), deadline=deadline, skip_root_count=True,
        )
        if res.reached_limit:
            with finder_lock:
                if finder_index[0] is None or index < finder_index[0]:
                    finder_index[0] = index
        return res

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run_one, range(len(tasks)), tasks))


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

    A per-entry timeout turns into a cutoff entry; the sweep itself never
    aborts. n_max is capped because the worst-case tree has 2^n_max leaves.
    """
    if m_from < 2 or m_to < m_from:
        raise ValueError(f"need 2 <= m_from <= m_to, got [{m_from}, {m_to}]")
    if n_max > SWEEP_N_MAX_LIMIT:
        raise ValueError(f"sweep refuses n_max > {SWEEP_N_MAX_LIMIT}, got {n_max}")
    entries = []
    for m in range(m_from, m_to + 1):
        eq = RadoEquation(m, a)
        outcome = exact_rado_number(eq, n_max=n_max, threads=threads, timeout=timeout)
        entries.append(SweepEntry(m, a, outcome, known_rado_number(eq)))
    return entries
