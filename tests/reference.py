"""The references that the tests compare radonum with, one definition each.

Each reference states plainly, and slowly, what a piece of the package
computes:
- sum_bits and interval build masks: a union and the bits lo..hi.
- sumset_layers, the sums of k class elements with one shift per element,
  checks checker._sumset_layers and the layers of search._add_element;
  greedy_left_side, one summand per step, checks checker._greedy_left_side
  and core.class_left_side.
- least_target, the least t with a*t a sum of m-1 class elements, checks
  core.least_class_target, checker.find_mono_solution and the fold's
  solution test: _add_element returns None iff the class has one.
- shapes_by_layers reads from the layers which solutions a future y closes,
  and shapes_closed_by enumerates them; blocks, the shapes that the search
  looks for, checks bit y of the blocked mask that _add_element builds.
- fold builds a class state with search._add_element, Unfolded is a layer
  that must not be folded, and fold_kind checks that a mask passed to
  _add_element is one bit or one run.
- propagate, propagate_runs, lookahead_only and fold_every_child redo the
  search's propagation and tree with other folding units, and
  brute_force_search tries every coloring: they check the answers, nodes and
  checks of search.exact_rado_number.
- general_threshold is the paper's bound on m from which C(m, a) is proved
  exact, which formula.known_rado_number must follow.
"""

import itertools

from radonum import Coloring, ceiling_formula, find_mono_solution, is_valid_coloring
from radonum.core import iter_bits
from radonum.formula import ceil_div
from radonum.search import CUTOFF, EXACT, _add_element, _empty_state

# solution shapes that blocks covers: (copies of y on the left side, whether x_m = y)
Y_RIGHT, Y_LEFT, Y_BOTH = (0, True), (1, False), (1, True)


def sum_bits(masks):
    """The union of the masks."""
    out = 0
    for mask in masks:
        out |= mask
    return out


def interval(lo, hi):
    """Bits lo..hi of a class."""
    return ((1 << (hi - lo + 1)) - 1) << lo


def sumset_layers(class_bits, depth, capmask):
    """The sums of 1..depth class elements, capped: one shift per class element."""
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
    """The least ascending list of count elements that sums to total: one summand per step.

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


def least_target(bits, m, a):
    """The least t of the class with a*t a sum of m-1 of its elements, or 0.

    By sumset_layers capped at a*max S, the largest target.
    """
    layers = sumset_layers(bits, m - 1, (2 << a * max(bits.bit_length() - 1, 0)) - 1)
    return next((t for t in iter_bits(bits) if layers[-1] >> a * t & 1), 0)


def shapes_by_layers(bits, y, m, a, cap=None):
    """Shapes of the solutions in the class plus y that use y, read from the layers.

    A shape is (j, y on the right): j copies of y on the left side, and
    whether y is the right-hand term x_m. The class is taken without y, so j
    counts every copy. With L the sums of m-1-j class elements, L_0 = {0},
    for every j = 0..m-1:
      y on the right:            (a-j)*y in L;
      some t in S on the right:  j*y + s = a*t with s in L, for j >= 1.
    Every value tested is at most a*max(S + {y}), so without a cap the set is
    shapes_closed_by's; with one, only the sums up to cap count, as in a
    class state capped there.
    """
    bits &= ~(1 << y)
    if cap is None:
        cap = a * max(y, bits.bit_length() - 1)
    layers = [1, *sumset_layers(bits, m - 1, (2 << cap) - 1)]
    targets, found = sum_bits(1 << a * t for t in iter_bits(bits)), set()  # {a*t : t in S}
    for j, sums in enumerate(reversed(layers)):  # L_{m-1-j}
        if j <= a and sums >> (a - j) * y & 1:
            found.add((j, True))
        if j and (sums << j * y) & targets:
            found.add((j, False))
    return found


def shapes_closed_by(members, y, m, a):
    """Shapes of the solutions in members + {y} that use y, by enumeration."""
    pool = sorted(set(members) | {y})
    found = set()
    for left in itertools.combinations_with_replacement(pool, m - 1):
        for right in pool:
            if sum(left) == a * right and (y in left or right == y):
                found.add((left.count(y), right == y))
    return found


def blocks(bits, y, m, a, cap):
    """Bit y of the blocked mask of the class bits in a state capped at cap.

    The shapes of shapes_by_layers that the search looks for, with y at most
    once on the left:
      a*y in L_{m-1}               y only on the right,
      y + s = a*t, s in L_{m-2}    y once on the left, some t in S on the right,
      (a-1)*y in L_{m-2}           y once on the left and on the right.
    The values tested are a*y, (a-1)*y and a*t for t in S, so the cap at
    a*n_max loses nothing while y <= n_max.
    """
    return bool(shapes_by_layers(bits, y, m, a, cap) & {Y_RIGHT, Y_LEFT, Y_BOTH})


def fold(elements, m, a, n):
    """State of the class of elements, folded in order, capped at a*n, or None once it holds a solution."""
    capmask = (1 << (a * n + 1)) - 1
    state = _empty_state(m, a, capmask)
    for x in elements:
        state = _add_element(state, 1 << x, a, capmask)
        if state is None:
            break
    return state


class Unfolded(int):
    """A layer that raises when ORed, as every fold of a layer does."""

    def __or__(self, other):
        raise AssertionError("the layer was folded")

    __ror__ = __or__


def fold_kind(new):
    """The kind of the mask new that _add_element takes: "bit" or "run", above bit 0.

    Raises on any other mask, so a spy that calls it checks _add_element's
    unchecked precondition.
    """
    low = new & -new
    if low < 2 or new & (new + low):
        raise AssertionError(f"_add_element takes one bit or one run above 0, not {bin(new)}")
    return "run" if new & (new - 1) else "bit"


def lookahead_only(eq, n_max):
    """exact_rado_number's search without propagation: only the lookahead skips nodes.

    Returns (status, rado_number, deepest valid depth, certificate red bits, nodes,
    checks).
    """
    capmask = (1 << (eq.a * n_max + 1)) - 1
    empty = _empty_state(eq.m, eq.a, capmask)
    pinned = _add_element(empty, 0b10, eq.a, capmask)
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
        if (red_state[1] & blue_state[1] & ((1 << (best + 2)) - 1)) >> (depth + 2):
            continue
        x = depth + 1
        for to_red in (False, True):  # blue child first, as the search pushes it
            state = red_state if to_red else blue_state
            checks += 1
            if state[1] >> x & 1:
                continue
            child = _add_element(state, 1 << x, eq.a, capmask)
            if child is not None:
                stack.append((red | 1 << x, x, child, blue_state) if to_red
                             else (red, x, red_state, child))
    return EXACT, best + 1, best, best_red, nodes, checks


def propagate(red, blue, lo, hi, a, capmask, runs=False):
    """Fold each y in lo..hi blocked in one class only into the other, lowest first.

    The element-by-element reference for the search's propagation; a y already
    in a class is not folded again. Returns (conflict, folds, red, blue): a
    conflict is a fold that holds a solution or a y in lo..hi blocked in both
    classes, and red and blue are the folded states. With runs, see
    propagate_runs.
    """
    states, count = [red, blue], 0
    done = {y for y in range(lo, hi + 1) if (red[0][0] | blue[0][0]) >> y & 1}
    while True:
        blocked = {y: [state[1] >> y & 1 for state in states] for y in range(lo, hi + 1)}
        if [1, 1] in blocked.values():
            return True, count, *states
        forced = [y for y, pair in blocked.items() if pair in ([0, 1], [1, 0]) and y not in done]
        if not forced:
            return False, count, *states
        run = [forced[0]]
        while runs and run[-1] + 1 in forced and blocked[run[-1] + 1] == blocked[run[0]]:
            run.append(run[-1] + 1)
        done.update(run)
        count += 1
        to = blocked[run[0]][0]  # 0 = red, 1 = blue: the class where the run is not blocked
        for y in run:
            states[to] = _add_element(states[to], 1 << y, a, capmask)
            if states[to] is None:  # the run holds a solution
                return True, count, *states


def propagate_runs(red, blue, lo, hi, a, capmask):
    """The search's propagation by runs, folded one element at a time.

    The lowest y in lo..hi blocked in one class only, and in neither class yet,
    goes to the other class together with the forced y right above it that the
    same class blocks; the run counts once. Returns (conflict, runs, red, blue),
    with conflicts and states as in propagate.
    """
    return propagate(red, blue, lo, hi, a, capmask, runs=True)


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
    pinned = _add_element(empty, 0b10, eq.a, capmask)
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
            assert _add_element(sibling, 1 << x, eq.a, capmask) is None, x
            stack.append((x, red_p, blue_p))
            continue
        assert not (red_p[1] | blue_p[1]) >> x & 1, x
        for to_red in (False, True):  # blue child first, as the search pushes it
            parent = red_p if to_red else blue_p
            checks += 1
            element_checks += 1
            child = _add_element(parent, 1 << x, eq.a, capmask)
            if child is not None:
                stack.append((x, child, blue_p) if to_red else (x, red_p, child))
    return nodes, checks, element_checks, unfolded


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


def general_threshold(a):
    """Smallest m from which C(m, a) is proved exact for every a >= 3."""
    return 2 * a * a - a + 2
