"""Exhaustive search: exact values, certificates, determinism, sweep."""

import pytest

from radonum import (
    Color,
    Coloring,
    RadoEquation,
    ceiling_formula,
    exact_rado_number,
    is_valid_coloring,
    known_rado_number,
    lower_bound_coloring,
    search,
    sweep,
)
from radonum.search import CUTOFF, EXACT, _add_element, _empty_state, _has_solution


def fold(eq, n, elements):
    """State of the class holding `elements`, folded in order, capped at a*n."""
    capmask = (1 << (eq.a * n + 1)) - 1
    state = _empty_state(eq.m, eq.a, capmask)
    for x in elements:
        state = _add_element(state, x, eq.a, capmask)
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
    ((14, 2, 54), (EXACT, 46, 77, 121, 126)),
    ((16, 2, 68), (EXACT, 60, 99, 157, 254)),
    ((20, 3, 53), (EXACT, 45, 92, 147, 126)),
    ((25, 3, 72), (EXACT, 64, 120, 197, 254)),
    ((45, 6, 67), (EXACT, 59, 269, 479, 254)),
    ((18, 2, 40), (CUTOFF, None, 41, 79, 510)),
    # the blocked-y mask's edge cases: a = 1 (shape 3 never fires), m = 2 (L_0 = {0})
    ((5, 1, 30), (EXACT, 19, 55, 87, 458766)),
    ((8, 1, 70), (EXACT, 55, 278, 431, 35465847065542782)),
    ((2, 3, 16), (CUTOFF, None, 17, 31, 94134)),
    # the perfbench deep points and a ladder point
    ((24, 2, 146), (EXACT, 138, 215, 351, 4094)),
    ((40, 3, 177), (EXACT, 169, 269, 457, 8190)),
    ((60, 6, 107), (EXACT, 99, 378, 623, 1022)),
    ((100, 6, 281), (EXACT, 281, 853, 1375, 131070)),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(("params", "want"), PINNED_TREES)
def test_search_tree_is_pinned(params, want, threads):
    m, a, n_max = params
    out = exact_rado_number(RadoEquation(m, a), n_max=n_max, threads=threads)
    got = (out.status, out.rado_number, out.stats.nodes, out.stats.checks,
           out.certificate.red_bits)
    assert got == want


def fold_every_child(eq, n_max):
    """exact_rado_number's tree with every child folded, blocked bit set or not.

    Returns the checks and the children whose x is blocked in the parent's
    class; such a child must hold a solution.
    """
    capmask = (1 << (eq.a * n_max + 1)) - 1
    empty = _empty_state(eq.m, eq.a, capmask)
    pinned = _add_element(empty, 1, eq.a, capmask)
    stack = [] if _has_solution(pinned) else [(1, pinned, empty)]
    best, checks, blocked = len(stack), 1, 0
    while stack:
        depth, red, blue = stack.pop()
        best = max(best, depth)
        if depth >= n_max:
            break
        if (red[2] & blue[2] & ((1 << (best + 2)) - 1)) >> (depth + 2):
            continue
        x = depth + 1
        for to_red in (False, True):  # blue child first, as the search pushes it
            parent = red if to_red else blue
            checks += 1
            child = _add_element(parent, x, eq.a, capmask)
            if parent[2] >> x & 1:
                blocked += 1
                assert _has_solution(child), (x, to_red)
            elif not _has_solution(child):
                stack.append((x, child, blue) if to_red else (x, red, child))
    return checks, blocked


@pytest.mark.parametrize(("params", "want"), PINNED_TREES)
def test_blocked_children_are_not_folded(monkeypatch, params, want):
    m, a, n_max = params
    folds = []

    def spy(state, x, a, capmask):
        folds.append(state[2] >> x & 1)
        return _add_element(state, x, a, capmask)

    monkeypatch.setattr(search, "_add_element", spy)
    out = exact_rado_number(RadoEquation(m, a), n_max=n_max)
    assert out.stats.checks == want[3]
    # the pinned root is one fold and one check; no other fold has its x blocked
    assert not any(folds[1:])
    checks, blocked = fold_every_child(RadoEquation(m, a), n_max)
    assert len(folds) + blocked == checks == out.stats.checks


@pytest.mark.parametrize(("m", "a"), [(28, 2), (50, 3)])
def test_ladder_points_reach_the_ceiling_formula(m, a):
    # the largest ROADMAP ladder points, refuted at n_max = C(m, a) itself
    eq = RadoEquation(m, a)
    c = ceiling_formula(eq)
    out = exact_rado_number(eq, n_max=c)
    assert (out.status, out.rado_number, out.deepest_valid) == (EXACT, c, c - 1)
    assert out.certificate.n == c - 1
    assert is_valid_coloring(out.certificate, eq)


def test_timeout_reports_cutoff():
    out = exact_rado_number(RadoEquation(5, 1), n_max=24, timeout=0.0)
    assert out.status == CUTOFF
    assert out.rado_number is None
    assert is_valid_coloring(out.certificate, RadoEquation(5, 1))
    # the deadline is polled before the pinned root is expanded
    assert (out.deepest_valid, out.stats.nodes, out.stats.checks) == (1, 1, 1)


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
        states[color] = _add_element(states[color], k, eq.a, capmask)
        assert not _has_solution(states[color]), k


def test_prefix_check_sees_new_solutions():
    # all-red [k] with k = max(a, m-1) has the generic solution
    for m, a in [(3, 3), (4, 2), (5, 3), (3, 1)]:
        eq = RadoEquation(m, a)
        k = max(a, m - 1)
        assert _has_solution(fold(eq, k, range(1, k + 1)))


def test_prefix_check_only_looks_at_the_changed_class():
    # red {1, 2} solves (3, 3) via 1+2=3*1; blue {3} alone does not
    eq = RadoEquation(3, 3)
    assert _has_solution(fold(eq, 3, [1, 2]))
    assert not _has_solution(fold(eq, 3, [3]))


def test_prefix_check_empty():
    for m, a in [(3, 3), (2, 1), (6, 2)]:
        assert not _has_solution(fold(RadoEquation(m, a), 4, []))


def test_sweep_agreement_a3():
    entries = sweep(3, 3, 8, n_max=12)
    assert [e.m for e in entries] == list(range(3, 9))
    for entry in entries:
        assert entry.agree is True, entry.m
        assert entry.known is not None
        assert entry.outcome.rado_number == entry.known.value


def test_sweep_agreement_a1():
    entries = sweep(1, 3, 4, n_max=12)
    assert [e.outcome.rado_number for e in entries] == [5, 11]
    assert all(e.agree is True for e in entries)


def test_sweep_reports_unknown_regimes_as_none():
    entries = sweep(4, 6, 6, n_max=8)  # a=4, m=6: exact search, no reference value
    entry = entries[0]
    assert entry.known is None
    assert entry.agree is None
    assert entry.outcome.status in (EXACT, CUTOFF)


def test_sweep_cutoff_entries_have_agree_none():
    entries = sweep(3, 3, 3, n_max=5)  # rado number 9 is out of reach
    assert entries[0].outcome.status == CUTOFF
    assert entries[0].agree is None
    assert entries[0].known is not None


def test_sweep_report_dict_shape():
    entry = sweep(3, 7, 7, n_max=12)[0]
    row = entry.to_report_dict()
    assert sorted(row) == ["a", "agree", "exact", "formula", "m", "millis", "nodes"]
    assert row["m"] == 7 and row["a"] == 3
    assert row["exact"] == row["formula"] == 4
    assert row["agree"] is True


def test_sweep_validates_parameters():
    with pytest.raises(ValueError):
        sweep(3, 5, 4, n_max=10)
    with pytest.raises(ValueError):
        sweep(3, 3, 4, n_max=10, threads=0)
    for timeout in (float("nan"), -1.0):
        with pytest.raises(ValueError):
            sweep(3, 3, 4, n_max=10, timeout=timeout)


def test_sweep_confirms_values_past_n_max_32():
    # C(19, 3) = 36 needs n_max > 32; the tree stays tiny
    entry = sweep(3, 19, 19, n_max=40)[0]
    assert entry.outcome.status == EXACT
    assert entry.outcome.rado_number == 36
    assert entry.agree is True


def test_known_values_match_search_where_applicable():
    # cross-family spot check: every covered equation the search can finish
    for m, a, n_max in [(6, 2, 12), (7, 2, 12), (3, 1, 10), (9, 3, 12), (10, 3, 12)]:
        eq = RadoEquation(m, a)
        out = exact_rado_number(eq, n_max=n_max)
        known = known_rado_number(eq)
        assert out.status == EXACT
        assert known is not None
        assert out.rado_number == known.value, (m, a)
