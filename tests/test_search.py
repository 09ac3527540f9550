"""Exhaustive search: exact values, certificates, determinism."""

import sys
from functools import reduce
from operator import or_
from types import SimpleNamespace

import pytest

from radonum import (
    Color,
    Coloring,
    RadoEquation,
    ceil_div,
    ceiling_formula,
    exact_rado_number,
    formula,
    is_valid_coloring,
    known_rado_number,
    lower_bound_coloring,
    search,
)
from radonum.core import iter_bits, least_run_target
from radonum.search import CUTOFF, EXACT, _add_element, _empty_state


def fold(eq, n, elements):
    """State of the class holding `elements`, folded in order, capped at a*n.

    None once the class holds a solution.
    """
    capmask = (1 << (eq.a * n + 1)) - 1
    state = _empty_state(eq.m, eq.a, capmask)
    for x in elements:
        state = _add_element(state, x, 0, eq.a, capmask)
        if state is None:
            break
    return state


def test_exact_values_a3_small():
    for m, want in [(3, 9), (4, 1), (5, 4), (6, 5), (7, 4)]:
        out = exact_rado_number(RadoEquation(m, 3), n_max=12)
        assert out.status == EXACT
        assert out.rado_number == want, m
        assert out.deepest_valid == want - 1


def test_exact_value_a1():
    out = exact_rado_number(RadoEquation(3, 1), n_max=10)
    assert out.rado_number == 5  # smallest n forcing x + y = z monochromatically


def test_degenerate_all_ones_solution():
    # m - 1 = a turns (1, 1, ..., 1) into a solution, so even [1] fails
    out = exact_rado_number(RadoEquation(4, 3), n_max=8)
    assert out.status == EXACT
    assert out.rado_number == 1
    assert out.deepest_valid == 0
    assert out.certificate == Coloring(0)


def test_cutoff_when_no_rado_number_exists():
    # x1 = 3*x2 never forces a monochromatic pair; only cutoffs are possible
    out = exact_rado_number(RadoEquation(2, 3), n_max=20)
    assert out.status == CUTOFF
    assert out.rado_number is None
    assert out.deepest_valid == 20
    assert out.certificate.n == 20
    assert is_valid_coloring(out.certificate, RadoEquation(2, 3))


def test_cutoff_below_the_answer():
    out = exact_rado_number(RadoEquation(3, 3), n_max=5)
    assert out.status == CUTOFF
    assert out.deepest_valid == 5


def test_certificates_are_valid_colorings():
    for m, a, n_max in [(3, 3, 12), (5, 3, 12), (8, 3, 12), (6, 2, 12), (4, 1, 14)]:
        eq = RadoEquation(m, a)
        out = exact_rado_number(eq, n_max=n_max)
        assert is_valid_coloring(out.certificate, eq), (m, a)
        assert out.certificate.n == out.deepest_valid
        if out.status == EXACT:
            assert out.rado_number == out.deepest_valid + 1


def test_search_never_beats_the_lower_bound():
    for m in range(3, 13):
        eq = RadoEquation(m, 3)
        out = exact_rado_number(eq, n_max=16)
        assert out.deepest_valid >= ceiling_formula(eq) - 1, m


def test_element_one_is_red_in_certificates():
    out = exact_rado_number(RadoEquation(3, 3), n_max=12)
    assert out.certificate.color_of(1).value == "red"


def test_thread_count_does_not_change_results():
    for m, a, n_max in [(3, 3, 12), (6, 3, 12), (4, 1, 14), (2, 3, 16)]:
        eq = RadoEquation(m, a)
        single = exact_rado_number(eq, n_max=n_max, threads=1)
        pooled = exact_rado_number(eq, n_max=n_max, threads=4)
        assert single.status == pooled.status
        assert single.rado_number == pooled.rado_number
        assert single.deepest_valid == pooled.deepest_valid
        assert single.certificate == pooled.certificate


# (m, a, n_max) -> (status, rado_number, nodes, checks, certificate red bits)
PINNED_TREES = [
    ((14, 2, 54), (EXACT, 46, 47, 55, 126)),
    ((16, 2, 68), (EXACT, 60, 61, 72, 254)),
    ((20, 3, 53), (EXACT, 45, 47, 57, 126)),
    ((25, 3, 72), (EXACT, 64, 66, 77, 254)),
    ((45, 6, 67), (EXACT, 59, 67, 79, 254)),
    ((18, 2, 40), (CUTOFF, None, 41, 51, 510)),
    # the blocked-y mask's edge cases: a = 1 (shape 3 never fires), m = 2 (L_0 = {0})
    ((5, 1, 30), (EXACT, 19, 33, 41, 458766)),
    ((8, 1, 70), (EXACT, 55, 111, 128, 35465847065542782)),
    ((2, 3, 16), (CUTOFF, None, 17, 31, 94134)),
    # the perfbench deep points and a ladder point
    ((24, 2, 146), (EXACT, 138, 139, 154, 4094)),
    ((40, 3, 177), (EXACT, 169, 171, 192, 8190)),
    ((60, 6, 107), (EXACT, 99, 107, 123, 1022)),
    ((100, 6, 281), (EXACT, 281, 287, 316, 131070)),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(("params", "want"), PINNED_TREES)
def test_search_tree_is_pinned(params, want, threads):
    m, a, n_max = params
    out = exact_rado_number(RadoEquation(m, a), n_max=n_max, threads=threads)
    got = (out.status, out.rado_number, out.stats.nodes, out.stats.checks,
           out.certificate.red_bits)
    assert got == want


def lookahead_only(eq, n_max):
    """exact_rado_number's search without propagation: only the lookahead skips nodes.

    Returns (status, rado_number, deepest_valid, certificate red bits, nodes, checks).
    """
    capmask = (1 << (eq.a * n_max + 1)) - 1
    empty = _empty_state(eq.m, eq.a, capmask)
    pinned = _add_element(empty, 1, 0, eq.a, capmask)
    stack = [] if pinned is None else [(0b10, 1, pinned, empty)]
    best, best_red = (1, 0b10) if stack else (0, 0)
    nodes = checks = 1
    while stack:
        red, depth, red_state, blue_state = stack.pop()
        nodes += 1
        if depth > best:
            best, best_red = depth, red
        if depth >= n_max:
            return CUTOFF, None, best, best_red, nodes, checks
        if (red_state[2] & blue_state[2] & ((1 << (best + 2)) - 1)) >> (depth + 2):
            continue
        x = depth + 1
        for to_red in (False, True):  # blue child first, as the search pushes it
            state = red_state if to_red else blue_state
            checks += 1
            if state[2] >> x & 1:
                continue
            child = _add_element(state, x, 0, eq.a, capmask)
            if child is not None:
                stack.append((red | 1 << x, x, child, blue_state) if to_red
                             else (red, x, red_state, child))
    return EXACT, best + 1, best, best_red, nodes, checks


def propagate(red, blue, lo, hi, a, capmask):
    """Fold each y in lo..hi blocked in one class only into the other, lowest first.

    The element-by-element reference for the search's propagation; a y already
    in a class is not folded again. Returns (conflict, folds, red, blue): a
    conflict is a fold that holds a solution or a y in lo..hi blocked in both
    classes, and red and blue are the folded states.
    """
    states, folds = [red, blue], 0
    done = {y for y in range(lo, hi + 1) if (red[0][0] | blue[0][0]) >> y & 1}
    while True:
        blocked = [[state[2] >> y & 1 for state in states] for y in range(lo, hi + 1)]
        if [1, 1] in blocked:
            return True, folds, *states
        forced = [y for y, pair in zip(range(lo, hi + 1), blocked)
                  if pair in ([0, 1], [1, 0]) and y not in done]
        if not forced:
            return False, folds, *states
        y = forced[0]
        done.add(y)
        to = blocked[y - lo][0]  # 0 = red, 1 = blue: the class where y is not blocked
        states[to] = _add_element(states[to], y, 0, a, capmask)
        folds += 1
        if states[to] is None:  # the fold holds a solution
            return True, folds, *states


def propagate_runs(red, blue, lo, hi, a, capmask):
    """The search's propagation by runs, folded one element at a time.

    The lowest y in lo..hi blocked in one class only, and in neither class yet,
    goes to the other class together with the forced y right above it that the
    same class blocks; the run is folded element by element and counts once.
    Returns (conflict, runs, red, blue), with conflicts and states as in propagate.
    """
    states, runs = [red, blue], 0
    done = {y for y in range(lo, hi + 1) if (red[0][0] | blue[0][0]) >> y & 1}
    while True:
        blocked = {y: [state[2] >> y & 1 for state in states] for y in range(lo, hi + 1)}
        if [1, 1] in blocked.values():
            return True, runs, *states
        forced = [y for y, pair in blocked.items() if pair in ([0, 1], [1, 0]) and y not in done]
        if not forced:
            return False, runs, *states
        run = [forced[0]]
        while run[-1] + 1 in forced and blocked[run[-1] + 1] == blocked[run[0]]:
            run.append(run[-1] + 1)
        done.update(run)
        runs += 1
        to = blocked[run[0]][0]  # 0 = red, 1 = blue: the class where the run is not blocked
        for y in run:
            states[to] = _add_element(states[to], y, 0, a, capmask)
            if states[to] is None:  # the run holds a solution
                return True, runs, *states


def two_run_goal(eq, n_max):
    """The search's goal, checked by the checker instead of the search's arithmetic.

    The two-run coloring of [goal], goal = min(C(m, a) - 1, n_max), is red on
    1..q-1 and blue on q..goal, q = ceil((m-1)/a). Returns goal, or 0 unless
    that coloring is nonempty and valid.
    """
    q, goal = ceil_div(eq.m - 1, eq.a), min(ceiling_formula(eq) - 1, n_max)
    if goal < 1:
        return 0
    valid = is_valid_coloring(Coloring.from_red(goal, range(1, min(q, goal + 1))), eq)
    return goal if valid else 0


def fold_every_child(eq, n_max):
    """exact_rado_number's tree with every child of a free x folded.

    Propagation is the element-by-element reference over depth+1 .. top, top =
    max(best + 1, goal), with two_run_goal's goal: a node is skipped iff
    propagate finds a conflict, and propagate_runs must find one too and end in
    the same classes. Children start from propagate's folded states. Returns
    (nodes, checks, element_checks, unfolded): checks count one per propagated
    run, as the search does, element_checks one per propagated element, and
    unfolded the children the search does not fold: those whose x is in a
    class after propagation, which count one check each and whose sibling must
    hold a solution. A node that branches has its x blocked in neither class.
    """
    goal = two_run_goal(eq, n_max)
    capmask = (1 << (eq.a * n_max + 1)) - 1
    empty = _empty_state(eq.m, eq.a, capmask)
    pinned = _add_element(empty, 1, 0, eq.a, capmask)
    stack = [] if pinned is None else [(1, pinned, empty)]
    best, nodes, checks, element_checks, unfolded = len(stack), 1, 1, 1, 0
    while stack:
        depth, red, blue = stack.pop()
        nodes += 1
        best = max(best, depth)
        if depth >= n_max:
            break
        lo, hi = depth + 1, max(best + 1, goal)
        conflict, folds, red_p, blue_p = propagate(red, blue, lo, hi, eq.a, capmask)
        run_conflict, runs, red_r, blue_r = propagate_runs(red, blue, lo, hi, eq.a, capmask)
        assert run_conflict == conflict
        checks += runs
        element_checks += folds
        if conflict:
            continue
        assert (red_r[0][0], blue_r[0][0]) == (red_p[0][0], blue_p[0][0])
        x = depth + 1
        if (red_p[0][0] | blue_p[0][0]) >> x & 1:
            checks += 1
            element_checks += 1
            unfolded += 1
            sibling = blue_p if red_p[0][0] >> x & 1 else red_p
            assert _add_element(sibling, x, 0, eq.a, capmask) is None, x
            stack.append((x, red_p, blue_p))
            continue
        assert not (red_p[2] | blue_p[2]) >> x & 1, x
        for to_red in (False, True):  # blue child first, as the search pushes it
            parent = red_p if to_red else blue_p
            checks += 1
            element_checks += 1
            child = _add_element(parent, x, 0, eq.a, capmask)
            if child is not None:
                stack.append((x, child, blue_p) if to_red else (x, red_p, child))
    return nodes, checks, element_checks, unfolded


@pytest.mark.parametrize(("params", "want"), PINNED_TREES)
def test_blocked_children_are_not_folded(monkeypatch, params, want):
    m, a, n_max = params
    folds = []

    def spy(state, x, w, a, capmask):
        folds.append(state[2] >> x & ((2 << w) - 1))  # the run's bits in the class's mask
        return _add_element(state, x, w, a, capmask)

    monkeypatch.setattr(search, "_add_element", spy)
    out = exact_rado_number(RadoEquation(m, a), n_max=n_max)
    assert out.stats.checks == want[3]
    # the pinned root is one fold and one check; no other fold, propagated runs
    # included, has an element blocked in the class it joins
    assert not any(folds[1:])
    nodes, checks, _, unfolded = fold_every_child(RadoEquation(m, a), n_max)
    assert len(folds) + unfolded == checks == out.stats.checks
    assert nodes == out.stats.nodes


def two_runs_reference(bits, m, a):
    """The least t of the class with a*t a sum of m-1 of its elements, or 0.

    By the bitset of those sums, built one summand at a time.
    """
    sums = 1  # {0}, the sum of no element
    for _ in range(m - 1):
        sums = reduce(or_, [sums << x for x in iter_bits(bits)], 0)
    return next((t for t in iter_bits(bits) if sums >> a * t & 1), 0)


@pytest.mark.parametrize(("params", "decided"), [
    ((24, 2, 146), 0),
    ((40, 3, 177), 0),
    ((60, 6, 107), 5),
])
def test_two_run_classes_are_decided_by_the_lemma(monkeypatch, params, decided):
    # the perfbench deep points: a propagated run that leaves its class as two runs
    # holding a solution builds no layers, and the tree keeps its pinned counts; each
    # run fold that returns None leaves two runs that the reference finds a solution in
    m, a, n_max = params
    solved = []

    def spy(state, x, w, a, capmask):
        out = _add_element(state, x, w, a, capmask)
        if out is None and w:
            bits = state[0][0] | ((2 << w) - 1) << x
            solved.append(bits)
            starts = bits & ~(bits << 1)  # the first element of each run
            assert starts.bit_count() == 2 and two_runs_reference(bits, m, a), (x, w)
        return out

    monkeypatch.setattr(search, "_add_element", spy)
    out = exact_rado_number(RadoEquation(m, a), n_max=n_max)
    assert len(solved) == decided
    assert (out.stats.nodes, out.stats.checks) == dict(PINNED_TREES)[params][2:4]


@pytest.mark.parametrize(("params", "want"), PINNED_TREES)
def test_one_run_classes_are_written_down(monkeypatch, params, want):
    # every propagated run on these trees leaves its class as one run, whose layers
    # are written down, or as two runs that the lemma decides: none is folded by
    # core.fold_layers, and the tree keeps its pinned counts
    m, a, n_max = params
    folds = []
    real = search.fold_layers
    monkeypatch.setattr(search, "fold_layers", lambda *args: folds.append(args) or real(*args))
    out = exact_rado_number(RadoEquation(m, a), n_max=n_max)
    assert not folds
    assert (out.stats.nodes, out.stats.checks) == want[2:4]


# m 2..12 x a 1..7 x five bounds, and a few larger m, each cut off or refuted
PROPAGATION_GRID = [
    *((m, a, n_max) for m in range(2, 13) for a in range(1, 8) for n_max in (4, 9, 15, 22, 40)),
    *((m, a, n_max) for m in (30, 45, 70) for a in (2, 3, 5, 8) for n_max in (60, 150)),
]


def same_answer_fewer_nodes(m, a, n_max):
    """Checks the search against lookahead_only and fold_every_child.

    Returns the checks of the search and of lookahead_only.
    """
    eq = RadoEquation(m, a)
    out = exact_rado_number(eq, n_max=n_max)
    status, rado_number, deepest, red_bits, nodes, checks = lookahead_only(eq, n_max)
    got = (out.status, out.rado_number, out.deepest_valid, out.certificate.red_bits)
    assert got == (status, rado_number, deepest, red_bits), (m, a, n_max)
    assert out.stats.nodes <= nodes, (m, a, n_max)
    # the search skips the nodes that element-by-element propagation skips, and
    # folding runs checks no more than folding their elements one by one
    tree_nodes, run_checks, element_checks, _ = fold_every_child(eq, n_max)
    assert (out.stats.nodes, out.stats.checks) == (tree_nodes, run_checks), (m, a, n_max)
    assert run_checks <= element_checks, (m, a, n_max)
    return out.stats.checks, checks


def test_propagation_keeps_the_answer_on_the_grid():
    assert len(PROPAGATION_GRID) == 409
    counts = [same_answer_fewer_nodes(*params) for params in PROPAGATION_GRID]
    # a propagation without a conflict is folds that prune nothing, so one search
    # can check more, e.g. (4, 7, 15): 37 -> 43; the grid as a whole checks less
    assert sum(new for new, _ in counts) < sum(old for _, old in counts)


@pytest.mark.parametrize("params", [params for params, _ in PINNED_TREES])
def test_propagation_keeps_the_answer_on_pinned_trees(params):
    new, old = same_answer_fewer_nodes(*params)
    assert new <= old


def test_the_run_test_matches_a_search_over_sums():
    # the run lemma of the goal and the checker, by interval arithmetic, against the
    # bitset of the sums of m-1 elements of lo..hi built one summand at a time: a
    # solution is an a*t in it with t in lo..hi, and the lemma returns the least such
    # t, or 0; the grid holds (m, a) = (2, 1), every lo = hi and empty runs
    seen = set()
    for m in range(2, 11):
        for lo in range(1, 31):
            for hi in range(lo - 1, 31):
                sums = 1  # {0}, the sum of no element
                for _ in range(m - 1):
                    sums = reduce(or_, [sums << x for x in range(lo, hi + 1)], 0)
                for a in range(1, 8):
                    want = next((t for t in range(lo, hi + 1) if sums >> a * t & 1), 0)
                    assert least_run_target(lo, hi, m, a) == want, (m, a, lo, hi)
                    seen.add(bool(want))
    assert seen == {False, True}


@pytest.mark.parametrize(("m", "a", "n_max"), [(40, 3, 177), (24, 2, 146)])
def test_the_goal_is_checked_not_trusted(monkeypatch, m, a, n_max):
    eq = RadoEquation(m, a)
    plain = exact_rado_number(eq, n_max=n_max)
    assert plain.stats.seed == ceiling_formula(eq) - 1
    # C + 10 - 1 > R(m, a) - 1: the two runs of [min(C + 9, n_max)] hold a solution
    monkeypatch.setattr(formula, "ceiling_formula", lambda eq: ceiling_formula(eq) + 10)
    out = exact_rado_number(eq, n_max=n_max)
    assert out.stats.seed == 0
    assert (out.status, out.rado_number, out.deepest_valid, out.certificate) == (
        plain.status, plain.rado_number, plain.deepest_valid, plain.certificate)


def test_the_first_descent_follows_forced_colors(monkeypatch):
    # (400, 4) refuted at C = 9975: a fold per element of the first descent would be
    # over 10,000 folds; from the goal and along the trail it takes a few hundred
    calls = []

    def spy(*args):
        calls.append(args[1])
        return _add_element(*args)

    monkeypatch.setattr(search, "_add_element", spy)
    out = exact_rado_number(RadoEquation(400, 4), n_max=9975)
    assert (out.status, out.rado_number, out.stats.seed) == (EXACT, 9975, 9974)
    assert len(calls) < 400


@pytest.mark.parametrize(("m", "a", "n_max", "timeout", "want"), [
    (40, 3, 177, 0.0, (CUTOFF, "timeout", 168, 168)),  # the deadline passes before the root
    (40, 3, 100, None, (CUTOFF, "n_max", 100, 100)),  # goal = n_max < C - 1
    (18, 2, 40, None, (CUTOFF, "n_max", 40, 40)),
    (2, 3, 16, None, (CUTOFF, "n_max", 16, 0)),  # C = 1: no goal
])
def test_cutoffs_keep_their_depth(m, a, n_max, timeout, want):
    eq = RadoEquation(m, a)
    out = exact_rado_number(eq, n_max=n_max, timeout=timeout)
    assert (out.status, out.stats.stop, out.deepest_valid, out.stats.seed) == want
    assert out.certificate.n == out.deepest_valid
    assert is_valid_coloring(out.certificate, eq)
    if timeout is None:  # the n_max cut-off node is the unseeded search's
        assert out.certificate.red_bits == lookahead_only(eq, n_max)[3]


def test_a_cutoff_on_the_trail_colors_only_its_depth(monkeypatch):
    # the deadline passes at the second poll, 8 nodes into (24, 2)'s first descent; the
    # trail has forced red 1..11 by then, yet the certificate is not the trail's: it is
    # the goal the search checked before the DFS, the two-run coloring of [137]
    clock = iter([0.0, 0.0, 10.0, 10.0])  # start, two polls, the elapsed time
    monkeypatch.setattr(search, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(search, "_POLL_MASK", 7)
    eq = RadoEquation(24, 2)
    out = exact_rado_number(eq, n_max=146, timeout=1.0)
    assert (out.status, out.stats.stop, out.deepest_valid) == (CUTOFF, "timeout", 137)
    assert out.certificate == Coloring.from_red(137, range(1, 12))
    assert is_valid_coloring(out.certificate, eq)


def test_the_deadline_is_polled_along_the_trail(monkeypatch):
    # (100, 2) at C = 2475: most of its nodes lie on runs of forced colors, which the
    # search passes in jumps, yet it reads the deadline before the root and every 128th
    # node as if it popped them one at a time; the fake clock records the search's node
    # count at each read
    polls = []

    def perf_counter():
        polls.append(sys._getframe(1).f_locals.get("nodes"))
        return 0.0

    monkeypatch.setattr(search, "time", SimpleNamespace(perf_counter=perf_counter))
    out = exact_rado_number(RadoEquation(100, 2), n_max=2475, timeout=1.0)
    assert (out.stats.stop, out.rado_number) == (EXACT, 2475)
    nodes = out.stats.nodes
    assert polls[0] is None and polls[-1] == nodes  # the clock's start and stop
    assert polls[1:-1] == [v for v in range(1, nodes) if v & search._POLL_MASK == 1]


@pytest.mark.parametrize(("m", "a"), [(28, 2), (50, 3), (100, 2), (200, 6)])
def test_ladder_points_reach_the_ceiling_formula(m, a):
    # ROADMAP ladder points, refuted at n_max = C(m, a) itself
    eq = RadoEquation(m, a)
    c = ceiling_formula(eq)
    out = exact_rado_number(eq, n_max=c)
    assert (out.status, out.rado_number, out.deepest_valid) == (EXACT, c, c - 1)
    assert out.certificate.n == c - 1
    assert is_valid_coloring(out.certificate, eq)


@pytest.mark.parametrize(("m", "a", "n_max", "timeout", "want"), [
    (3, 3, 12, None, (EXACT, "exact")),
    (3, 3, 5, None, (CUTOFF, "n_max")),
    (2, 3, 20, None, (CUTOFF, "n_max")),  # no Rado number: only a cutoff is possible
    (5, 1, 24, 0.0, (CUTOFF, "timeout")),
])
def test_stop_reason(m, a, n_max, timeout, want):
    out = exact_rado_number(RadoEquation(m, a), n_max=n_max, timeout=timeout)
    assert (out.status, out.stats.stop) == want


def test_timeout_reports_cutoff():
    out = exact_rado_number(RadoEquation(5, 1), n_max=24, timeout=0.0)
    assert out.status == CUTOFF
    assert out.rado_number is None
    assert is_valid_coloring(out.certificate, RadoEquation(5, 1))
    # the deadline is polled before the pinned root is expanded, and the search
    # reports the goal it checked before the DFS
    assert (out.deepest_valid, out.stats.nodes, out.stats.checks) == (15, 1, 1)
    assert out.deepest_valid == out.stats.seed == out.certificate.n


def test_validates_parameters():
    with pytest.raises(ValueError):
        exact_rado_number(RadoEquation(3, 3), n_max=0)
    with pytest.raises(ValueError):
        exact_rado_number(RadoEquation(3, 3), n_max=10, threads=0)
    for timeout in (float("nan"), -1.0):  # NaN would never expire
        with pytest.raises(ValueError):
            exact_rado_number(RadoEquation(3, 3), n_max=10, timeout=timeout)


def test_prefix_check_on_lower_bound_prefixes():
    # the DFS path to the lower-bound coloring red {1, 2} of [6]: every fold stays free
    eq = RadoEquation(8, 3)
    col = lower_bound_coloring(eq)
    capmask = (1 << (eq.a * col.n + 1)) - 1
    states = {Color.RED: fold(eq, col.n, []), Color.BLUE: fold(eq, col.n, [])}
    for k in range(1, col.n + 1):
        color = col.color_of(k)
        states[color] = _add_element(states[color], k, 0, eq.a, capmask)
        assert states[color] is not None, k


def test_prefix_check_sees_new_solutions():
    # all-red [k] with k = max(a, m-1) has the generic solution
    for m, a in [(3, 3), (4, 2), (5, 3), (3, 1)]:
        eq = RadoEquation(m, a)
        k = max(a, m - 1)
        assert fold(eq, k, range(1, k + 1)) is None


def test_prefix_check_only_looks_at_the_changed_class():
    # red {1, 2} solves (3, 3) via 1+2=3*1; blue {3} alone does not
    eq = RadoEquation(3, 3)
    assert fold(eq, 3, [1, 2]) is None
    assert fold(eq, 3, [3]) is not None


def test_prefix_check_empty():
    for m, a in [(3, 3), (2, 1), (6, 2)]:
        assert fold(RadoEquation(m, a), 4, []) is not None


def test_known_values_match_search_where_applicable():
    # cross-family spot check: every covered equation the search can finish
    for m, a, n_max in [(6, 2, 12), (7, 2, 12), (3, 1, 10), (9, 3, 12), (10, 3, 12)]:
        eq = RadoEquation(m, a)
        out = exact_rado_number(eq, n_max=n_max)
        known = known_rado_number(eq)
        assert out.status == EXACT
        assert known is not None
        assert out.rado_number == known.value, (m, a)
