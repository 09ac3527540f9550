"""Exhaustive search: exact values, certificates, determinism."""

import inspect
import sys
from functools import reduce
from itertools import chain, repeat
from operator import or_
from types import SimpleNamespace

import pytest

from radonum import (
    Color,
    Coloring,
    RadoEquation,
    ceiling_formula,
    construction,
    exact_rado_number,
    is_valid_coloring,
    known_rado_number,
    lower_bound_coloring,
    search,
)
from radonum.core import least_class_target
from radonum.search import CUTOFF, EXACT, _add_element

from reference import Unfolded, fold, fold_every_child, fold_kind, least_target, lookahead_only


def test_exact_values_a3_small():
    for m, want in [(3, 9), (4, 1), (5, 4), (6, 5), (7, 4)]:
        out = exact_rado_number(RadoEquation(m, 3), n_max=12)
        assert out.status == EXACT
        assert out.rado_number == want, m
        assert out.certificate.n == want - 1


def test_exact_value_a1():
    out = exact_rado_number(RadoEquation(3, 1), n_max=10)
    assert out.rado_number == 5  # smallest n forcing x + y = z monochromatically


def test_degenerate_all_ones_solution():
    # m - 1 = a turns (1, 1, ..., 1) into a solution, so even [1] fails
    out = exact_rado_number(RadoEquation(4, 3), n_max=8)
    assert out.status == EXACT
    assert out.rado_number == 1
    assert out.certificate.n == 0
    assert out.certificate == Coloring(0)


def test_cutoff_when_no_rado_number_exists():
    # x1 = 3*x2 never forces a monochromatic pair; only cutoffs are possible
    out = exact_rado_number(RadoEquation(2, 3), n_max=20)
    assert out.status == CUTOFF
    assert out.rado_number is None
    assert out.certificate.n == 20
    assert is_valid_coloring(out.certificate, RadoEquation(2, 3))


def test_cutoff_below_the_answer():
    out = exact_rado_number(RadoEquation(3, 3), n_max=5)
    assert out.status == CUTOFF
    assert out.certificate.n == 5


def test_certificates_are_valid_colorings():
    for m, a, n_max in [(3, 3, 12), (5, 3, 12), (8, 3, 12), (6, 2, 12), (4, 1, 14)]:
        eq = RadoEquation(m, a)
        out = exact_rado_number(eq, n_max=n_max)
        assert is_valid_coloring(out.certificate, eq), (m, a)
        if out.status == EXACT:
            assert out.rado_number == out.certificate.n + 1


def test_search_never_beats_the_lower_bound():
    for m in range(3, 13):
        eq = RadoEquation(m, 3)
        out = exact_rado_number(eq, n_max=16)
        assert out.certificate.n >= ceiling_formula(eq) - 1, m


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
        assert single.certificate.n == pooled.certificate.n
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


@pytest.mark.parametrize(("params", "want"), PINNED_TREES)
def test_blocked_children_are_not_folded(monkeypatch, params, want):
    m, a, n_max = params
    folds = []

    def spy(state, new, a, capmask):
        fold_kind(new)  # raises unless new is one bit or one run, as _add_element assumes
        folds.append(state[1] & new)  # the new elements' bits in the class's mask
        return _add_element(state, new, a, capmask)

    monkeypatch.setattr(search, "_add_element", spy)
    out = exact_rado_number(RadoEquation(m, a), n_max=n_max)
    assert out.stats.checks == want[3]
    # the pinned root is one fold and one check; no other fold, propagated runs
    # included, has an element blocked in the class it joins
    assert not any(folds[1:])
    nodes, checks, _, unfolded = fold_every_child(RadoEquation(m, a), n_max)
    assert len(folds) + unfolded == checks == out.stats.checks
    assert nodes == out.stats.nodes


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

    def spy(state, new, a, capmask):
        out = _add_element(state, new, a, capmask)
        if out is None and fold_kind(new) == "run":
            bits = state[0][0] | new
            solved.append(bits)
            starts = bits & ~(bits << 1)  # the first element of each run
            assert starts.bit_count() == 2 and least_target(bits, m, a), bin(new)
        return out

    monkeypatch.setattr(search, "_add_element", spy)
    out = exact_rado_number(RadoEquation(m, a), n_max=n_max)
    assert len(solved) == decided
    assert (out.stats.nodes, out.stats.checks) == dict(PINNED_TREES)[params][2:4]


@pytest.mark.parametrize(("params", "want"), PINNED_TREES)
def test_one_run_classes_are_written_down(monkeypatch, params, want):
    # every propagated run on these trees leaves its class as one run, whose layers
    # are written down, or as two runs that the lemma decides: no live run leaves two
    # runs or more, a written-down run ORs none of the parent's layers above L_1, and
    # the tree keeps its pinned counts
    m, a, n_max = params
    written = []

    def spy(state, new, a, capmask):
        out = _add_element(state, new, a, capmask)
        if out is not None and fold_kind(new) == "run":  # a live run
            bits = out[0][0]
            assert not bits & (bits + (bits & -bits)), bin(new)  # one run
            layers = state[0]
            unfolded = (layers[0], *map(Unfolded, layers[1:]))
            assert _add_element((unfolded, *state[1:]), new, a, capmask) == out
            written.append(bits)
        return out

    monkeypatch.setattr(search, "_add_element", spy)
    out = exact_rado_number(RadoEquation(m, a), n_max=n_max)
    assert written or m == 2
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
    got = (out.status, out.rado_number, out.certificate.n, out.certificate.red_bits)
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
                    assert least_class_target((lo, hi), m, a) == want, (m, a, lo, hi)
                    seen.add(bool(want))
    assert seen == {False, True}


@pytest.mark.parametrize(("m", "a", "n_max"), [(40, 3, 177), (24, 2, 146)])
def test_the_goal_is_checked_not_trusted(monkeypatch, m, a, n_max):
    eq = RadoEquation(m, a)
    plain = exact_rado_number(eq, n_max=n_max)
    assert plain.stats.seed == ceiling_formula(eq) - 1
    # C + 10 - 1 > R(m, a) - 1: the two runs of [min(C + 9, n_max)] hold a solution
    monkeypatch.setattr(construction, "ceiling_formula", lambda eq: ceiling_formula(eq) + 10)
    out = exact_rado_number(eq, n_max=n_max)
    assert out.stats.seed == 0
    assert (out.status, out.rado_number, out.certificate) == (
        plain.status, plain.rado_number, plain.certificate)


def test_the_first_descent_follows_forced_colors(monkeypatch):
    # (400, 4) refuted at C = 9975: a fold per element of the first descent would be
    # over 10,000 folds; from the goal and along the trail it takes a few hundred
    calls = []

    def spy(*args):
        calls.append(fold_kind(args[1]))
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
    assert (out.status, out.stats.stop, out.certificate.n, out.stats.seed) == want
    assert is_valid_coloring(out.certificate, eq)
    if timeout is None:  # the n_max cut-off node is the unseeded search's
        assert out.certificate.red_bits == lookahead_only(eq, n_max)[3]


def clock_past_deadline_at(read):
    """A fake perf_counter: 0.0 up to read - 1 calls, then 10.0, past any deadline of 1 s."""
    clock = chain(repeat(0.0, read - 1), repeat(10.0))
    return SimpleNamespace(perf_counter=lambda: next(clock))


def test_a_cutoff_on_the_trail_colors_only_its_depth(monkeypatch):
    # the clock's 17th read, after node 8 of (24, 2)'s first descent, of depth 7, has
    # folded the run 8..10 into red, is past the deadline; the trail colors red 1..10 and
    # blue from 12 on by then, yet the certificate is not the trail's: it is the goal the
    # search checked before the DFS, the two-run coloring of [137]
    monkeypatch.setattr(search, "time", clock_past_deadline_at(17))
    eq = RadoEquation(24, 2)
    out = exact_rado_number(eq, n_max=146, timeout=1.0)
    assert (out.status, out.stats.stop, out.certificate.n) == (CUTOFF, "timeout", 137)
    assert out.stats.nodes == 8
    assert out.certificate == Coloring.from_red(137, range(1, 12))
    assert is_valid_coloring(out.certificate, eq)


def test_a_timeout_inside_a_propagation_is_not_a_conflict(monkeypatch):
    # (150, 3) at C = 2484: its last node, of depth 2, popped with nothing else on the
    # stack, folds 1,653 runs and reads the clock after each, its 76th to 1,728th reads;
    # the 1,000th read is past the deadline.
    # Skipping the node as a conflict would empty the stack and report EXACT; the node
    # goes back, counted once, and the read before the next pop stops the search
    monkeypatch.setattr(search, "time", clock_past_deadline_at(1000))
    eq = RadoEquation(150, 3)
    out = exact_rado_number(eq, n_max=2484, timeout=1.0)
    assert (out.status, out.stats.stop, out.certificate.n) == (CUTOFF, "timeout", 2483)
    assert out.stats.nodes == 2486 and out.stats.checks < 4208  # 4208: the whole search
    assert is_valid_coloring(out.certificate, eq)


def test_the_deadline_is_polled_along_the_trail(monkeypatch):
    # (100, 2) at C = 2475: most of its nodes lie on runs of forced colors, which the
    # search passes in jumps. It reads the clock before it pops each node and after each
    # propagated run, and for no node passed in a jump. The fake clock and a spy on the
    # fold log the search's (nodes, checks) in one sequence: the pinned root's fold, the
    # loop, the stop read. In the loop a propagated run is a fold right after a read
    # that adds one check; a child's first fold adds two, its second none
    events = []

    def log(kind):
        frame = sys._getframe(2).f_locals
        events.append((kind, frame["nodes"], frame["checks"]))

    def perf_counter():
        if events:  # the start read comes before the counts are set
            log("read")
        return 0.0

    def spy(*args):
        fold_kind(args[1])  # raises unless the mask is one bit or one run
        log("fold")
        return _add_element(*args)

    monkeypatch.setattr(search, "time", SimpleNamespace(perf_counter=perf_counter))
    monkeypatch.setattr(search, "_add_element", spy)
    out = exact_rado_number(RadoEquation(100, 2), n_max=2475, timeout=1.0)
    assert (out.stats.stop, out.rado_number) == (EXACT, 2475)
    assert (out.stats.nodes, out.stats.checks) == (2476, 2529)  # as without a timeout
    loop = events[1:-1]
    runs = [i for i, (kind, _, checks) in enumerate(loop)
            if kind == "fold" and loop[i - 1][0] == "read" and checks == loop[i - 1][2] + 1]
    assert all(loop[i + 1] == ("read", *loop[i][1:]) for i in runs)
    pops = [i for i, event in enumerate(loop) if event[0] == "read" and i - 1 not in runs]
    for i in pops:  # the pop that follows counts one node, or k for a node that jumps k
        (_, nodes, checks), (kind, next_nodes, next_checks) = loop[i], events[i + 2]
        jump = kind == "read" and next_nodes - nodes == next_checks - checks
        assert next_nodes == nodes + 1 or jump
    # nodes counts the empty coloring, 30 pops and 2,445 nodes passed in jumps
    assert (len(pops), len(runs)) == (30, 29)


@pytest.mark.parametrize(("m", "a"), [(28, 2), (50, 3), (100, 2), (200, 6)])
def test_ladder_points_reach_the_ceiling_formula(m, a):
    # ROADMAP ladder points, refuted at n_max = C(m, a) itself
    eq = RadoEquation(m, a)
    c = ceiling_formula(eq)
    out = exact_rado_number(eq, n_max=c)
    assert (out.status, out.rado_number, out.certificate.n) == (EXACT, c, c - 1)
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
    # the deadline is read before the pinned root is popped, and the search
    # reports the goal it checked before the DFS
    assert (out.certificate.n, out.stats.nodes, out.stats.checks) == (15, 1, 1)
    assert out.stats.seed == out.certificate.n
    assert out.certificate == lower_bound_coloring(RadoEquation(5, 1))


def test_validates_parameters():
    with pytest.raises(ValueError):
        exact_rado_number(RadoEquation(3, 3), n_max=0)
    with pytest.raises(ValueError):
        exact_rado_number(RadoEquation(3, 3), n_max=10, threads=0)
    for timeout in (float("nan"), -1.0):  # NaN would never expire
        with pytest.raises(ValueError):
            exact_rado_number(RadoEquation(3, 3), n_max=10, timeout=timeout)


def test_n_max_has_no_default():
    # every search states its own bound: a silent cap would hide values past it,
    # such as C(20, 3) = 45
    n_max = inspect.signature(exact_rado_number).parameters["n_max"]
    assert n_max.default is inspect.Parameter.empty
    with pytest.raises(TypeError):
        exact_rado_number(RadoEquation(20, 3))


def test_prefix_check_on_lower_bound_prefixes():
    # the DFS path to the lower-bound coloring red {1, 2} of [6]: every fold stays free
    eq = RadoEquation(8, 3)
    col = lower_bound_coloring(eq)
    capmask = (1 << (eq.a * col.n + 1)) - 1
    states = {Color.RED: fold([], eq.m, eq.a, col.n), Color.BLUE: fold([], eq.m, eq.a, col.n)}
    for k in range(1, col.n + 1):
        color = col.color_of(k)
        states[color] = _add_element(states[color], 1 << k, eq.a, capmask)
        assert states[color] is not None, k


def test_prefix_check_sees_new_solutions():
    # all-red [k] with k = max(a, m-1) has the generic solution
    for m, a in [(3, 3), (4, 2), (5, 3), (3, 1)]:
        eq = RadoEquation(m, a)
        k = max(a, m - 1)
        assert fold(range(1, k + 1), m, a, k) is None


def test_prefix_check_only_looks_at_the_changed_class():
    # red {1, 2} solves (3, 3) via 1+2=3*1; blue {3} alone does not
    eq = RadoEquation(3, 3)
    assert fold([1, 2], eq.m, eq.a, 3) is None
    assert fold([3], eq.m, eq.a, 3) is not None


def test_prefix_check_empty():
    for m, a in [(3, 3), (2, 1), (6, 2)]:
        assert fold([], m, a, 4) is not None


def test_known_values_match_search_where_applicable():
    # cross-family spot check: every covered equation the search can finish
    for m, a, n_max in [(6, 2, 12), (7, 2, 12), (3, 1, 10), (9, 3, 12), (10, 3, 12)]:
        eq = RadoEquation(m, a)
        out = exact_rado_number(eq, n_max=n_max)
        known = known_rado_number(eq)
        assert out.status == EXACT
        assert known is not None
        assert out.rado_number == known.value, (m, a)
