"""Exhaustive computation of 2-color Rado numbers by incremental DFS.

Colorings are grown one element at a time in the order 1, 2, 3, ...; any
solution-free prefix of [k] is itself a valid coloring of [k], so the valid
depths form a downward-closed set and the Rado number is d + 1, d the deepest
valid depth, once depth d + 1 has been refuted exhaustively. Element 1 is
pinned red: swapping the two colors preserves validity, so the red half of
the tree suffices.

Each DFS node carries, per color class, the state (layers, blocked, full):
layers[k-1] is the bitset of sums of exactly k class elements (repetition
allowed, k = 1..m-1), truncated at a*n_max, the largest target, so layers[0]
is the class itself. Coloring element x folds it into one class with at most
m-1 shifts (see _add_element; a run of forced colors that leaves one run is
written down, any other fold shifts in its elements one at a time), and
the child is pruned iff the folded class holds a solution: the fold then
returns None, and no state of a class with a solution is ever built. The
other class keeps its parent state by reference. full is the index of the
first saturated layer, L_k = [k*min S, a*n_max]: adding a larger element
cannot change it, so layers from full on are reused, not folded.

blocked is the bitset of the y that would close a solution if added to the
class, as far as these shapes go, with L_0 = {0}:
  a*y in L_{m-1}               y only on the right,
  y + s = a*t, s in L_{m-2}    y once on the left, some t in the class on the right,
  (a-1)*y in L_{m-2}           y once on the left and on the right.
Solutions with y twice or more on the left are not looked for. Every value
involved is at most a*y, so the cap at a*n_max loses nothing for y <= n_max.
Since a class only grows, blocked only grows: _add_element ORs the new y into
the parent's mask with whole-integer operations. The shapes are sound: a class
that takes a y it blocks holds a solution. Shape 1 puts in the mask every t
with a*t in L_{m-1}, so a class holds a solution iff its mask meets the class,
layers[0]: that is the fold's one solution test, and no state keeps the set
{a*t : t in class}.

Goal: before the DFS, the search takes the paper's lower-bound coloring of
[C(m, a) - 1] from construction.lower_bound_coloring (its docstring holds the
proof that it is solution-free), cut at n_max, and keeps its n as the goal
only if checker.is_valid_coloring accepts it, else sets goal to 0: the
coloring is checked, not trusted, by the checker that radonum check runs;
stats.seed reports goal. It colors 1 red, so the tree holds it and the final
depth is at least goal; a timeout below goal reports that same coloring.

Propagation: a popped node of depth d propagates forced colors over the window
W = d+1 .. top, top = max(best_depth+1, goal), leaving out the y already in a
class; x = d+1 is in W, since x <= best_depth+1 <= top. The lowest y in W that
is blocked in exactly one class, and not yet folded, is folded into the other
class with _add_element, together with the forced y right above it that the
same class blocks: the run y..y+w that ends below the first y not forced that
way. This repeats until no y is forced. The node is skipped, its children
unchecked, on a conflict: a y in W blocked in both classes, before any fold or
after one, or a fold that holds a solution. This is sound: a descendant's
classes contain the node's, so a solution that y closes at the node stays
closed below it. A descendant that reaches depth top colors all of W; by
induction over the folds, each forced y has its forced color there (the other
color closes a solution in a class the descendant's contains), so the
descendant contains the conflict, which cannot be. The subtree thus holds only
colorings of depth < top: of depth <= best_depth, and best_depth never falls,
or below goal, and the final depth is at least goal. None of them can be the
first coloring of the final depth, and top <= n_max, so none is the cut-off
node either. Since the DFS pops in preorder, every node that can set a new
best is still visited in the same order. The status, rado_number and
certificate are therefore those of the plain search; only the node and check
counts fall. The test before the first fold, one AND of the two masks
and W, is the forced-element lookahead of exhaustive van der Waerden
searches (Kouril and Paul, The van der Waerden number W(2,6) is 1132, Exp.
Math. 2008); the folds are the unit propagation of SAT solvers (Heule,
Kullmann and Marek, The Boolean Pythagorean Triples problem, SAT 2016).

Every fold that leaves its class as one or two runs of consecutive integers,
a child's element or a propagated run y..y+w, is decided by arithmetic before
any layer is built, by core.least_class_target, the checker's entry for such
classes. If the class holds a solution, the fold returns None, and the child
is pruned or the node skipped; otherwise it builds the layers, since the
search reads the class's blocked mask on. The lemmas decide the same bit as
the layers' solution test would: every target is at most a*n_max, the cap,
so the uncapped lemmas and the capped layers agree. On the wide points, most
dead children leave two runs, and each costs a few integer operations where
its fold built m-1 layers of up to a*n_max bits only to drop them.

Trail: a node whose propagation ends without a conflict expands its children
from the folded states, so the forced colors stay until the DFS backtracks
past the node, as on the assignment trail of SAT solvers. This is sound by the
argument above: every descendant that colors a forced y gives it its forced
color, so a child whose class holds a solution with the forced y has no
descendant of depth top or more, and pruning it loses nothing. A node whose x
is colored after its propagation, forced by an ancestor or at the node itself,
pushes its one child without a fold and counts one check: the sibling would
put x into the class that blocks it. Such a child has the node's states and a
window within the node's, so it folds nothing and finds no conflict; if its
own x is colored too, its one child is pushed the same way. The node thus
jumps along the colored run x..x+k-1, counting k checks and the k-1 nodes it
passes, and pushes depth+k. k stops at n_max - depth, so the stop node and
the counts are those of popping each node; a passed node could raise
best_depth only below goal, since no colored y lies above top. Otherwise x
is blocked in neither class, and both children are folded and tested. The
states hold forced elements above depth, so the certificate's red set is
layer 1 masked to [1, depth]; a forced y is left out of W once it is in a
class, and a class member's blocked bit is clear while its class is
solution-free, so the AND over W needs no mask of the colored y.
A propagated run lies above depth, but a chain may fold a lower run after a
higher one, a child's x may lie below min S of a class that holds only forced
elements, and a run may start an empty class: _add_element allows all three,
folding every layer when min S falls.

Folding a run in one step skips exactly the nodes that folding its y one at a
time, lowest first, skips. Blocked masks and solutions only grow as a class
grows. Say one of the two loops ends without a conflict, with classes R* and
B*: then every y in W blocked in one of them only has been folded into the
other, and none is blocked in both. By induction over the other loop's folds,
its classes stay within R* and B*: a y it folds into red is blocked in its
blue class, hence in B*, so the first loop folded y, and into R*, since a
member that blocks itself would be a solution in B*; blue likewise. So the
other loop meets no conflict either, and the skip decision is the same at
every node; by symmetry both loops end in R* and B*, which the trail passes
on. Hence nodes, status, rado_number and the certificate do not depend on
the folding unit; only checks do.

Counting: nodes counts every node, a skipped one and one passed in a jump
included, and checks every child folded, every child whose x is forced, and
every propagated run, however long, whether its class is decided by the
run-class entry or by its layers; the goal's test counts nothing. A
propagation without a conflict prunes nothing, so on a small tree checks can
exceed those of a search that stops at the test before the first fold; nodes
cannot.

Determinism contract: the red branch is explored before the blue branch, and
the reported certificate is the first coloring reaching the final depth in
that order. The search runs on one thread: the pure-Python DFS holds the
interpreter lock, so threads cannot speed it up. The keyword threads= of
exact_rado_number is validated (>= 1) and otherwise ignored; no reported
value or count depends on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice

from .core import (
    Coloring, RadoEquation, decimate, iter_bits, least_class_target, run_ends, smear_steps,
)

EXACT = "exact"
CUTOFF = "cutoff"
# why a search stopped, besides EXACT: it reached depth n_max, or the timeout passed
N_MAX = "n_max"
TIMEOUT = "timeout"

# (layers, blocked, full): the sums of 1..m-1 elements and the future y that would
# close a solution, all bitsets, and the index of the first layer that is
# saturated; see the module docstring
_ClassState = tuple[tuple[int, ...], int, int]


def _empty_state(m: int, a: int, capmask: int) -> _ClassState:
    """State of an empty class. It blocks no y, except for L(2, 1): y = y."""
    return (0,) * (m - 1), capmask << 1 if (m, a) == (2, 1) else 0, m - 1


def _add_element(state: _ClassState, new: int, a: int, capmask: int) -> _ClassState | None:
    """Class state after adding the elements of the mask new, or None if it holds a solution.

    Precondition, not checked: new is one bit or one run of consecutive bits,
    the run x..x+w, w >= 0, with x >= 1 its lowest bit. Callers pass the mask
    they hold: a child its bit, the propagation its run, the pinned root 0b10.

    The search's one fold. Every fold that leaves the class as one or two
    runs, a single element or a run, is decided first by
    core.least_class_target from the run ends, with no layer built if the
    class holds a solution (see the module docstring). A run (w >= 1) that
    leaves the class as one run lo..hi is then written down, L'_k = [k*lo,
    k*hi] capped: no layer is shifted past the cap. Any other fold, a single
    element or a run that leaves two runs or more, adds the elements y =
    x..x+w one at a time, lowest first, L'_k = L_k | (L'_{k-1} << y), L'_0 =
    {0}: one shift per layer and element. Layer 1 is the class: its elements
    are at most n_max, below the cap. Adding elements already in the class
    leaves the state unchanged.

    Layers from index full on are saturated: L_k is the whole interval
    [k*min S, cap], cap = a*n_max, since every sum of k elements lies in it.
    Then L_{k+1} contains L_k + min S = [(k+1)*min S, cap], so the saturated
    layers are a tail. While x >= min S, as in most of the search's folds,
    min S stays and L'_{k-1} << y lies in [k*min S, cap] as well:
    the tail cannot change, is reused by reference, and only the layers
    before it are folded, after which full moves down past the layers that
    have just saturated. An x below min S (a propagated run below one folded
    before it, a child below the forced elements of its class, or a test)
    lowers min S, and every layer is folded again.

    blocked only grows, so the parent's is extended by the new y of each shape:
      shape 1, a*y in L'_{m-1}:     L'_{m-1} decimated by a;
      shape 3, (a-1)*y in L'_{m-2}: L'_{m-2} decimated by a-1;
      shape 2, y + s = a*t, with s in L'_{m-2} and t in S + R: for t in R,
        L'_{m-2} below a*(x+w) bit-reversed about a*(x+w), which gives the y
        of t = x+w, then smeared down with step a, which gives those of the
        smaller t; for t in S, only the s that are new in L'_{m-2}, each as
        {a*t : t in S} >> s, the parent's layer 1 spread by a, which is built
        only when there is such an s. An s can give a y >= 1 only below
        a*max S, whatever the order elements arrive in. The spread takes
        only the t with a*t <= n_max + 1 + s for the largest new s, so the
        y it gives stop at n_max + 1: the search reads y <= top <= n_max, and
        bit n_max + 1 is the highest one the tests compare. At m = 3, where
        L'_{m-2} is the class and nearly every fold has a new s, the spread
        of all of S, a string of about a*max S base-2 digits a fold, took
        most of the search's time.
    A reused L'_{m-1} or L'_{m-2} adds nothing to shapes 1 and 3, nor new s:
    the solution-free state that last changed it ORed its y in already.

    The class holds a solution iff the new blocked meets the new layer 1.
    The shapes are sound, so a member whose bit is set closes a solution.
    Conversely, take a solution with target t, a*t in L'_{m-1}: if L'_{m-1}
    was folded, shape 1 puts t in the mask; if it was reused, it is the
    parent's L_{m-1}, and the parent's mask holds t already, by the same
    argument for the state that last changed that layer.
    """
    layers, blocked, full = state
    ends = run_ends(layers[0] | new)
    if least_class_target(ends, len(layers) + 1, a):  # one or two runs, solved
        return None
    x_bit = new & -new
    x = x_bit.bit_length() - 1
    w = new.bit_length() - 1 - x
    min_bit = layers[0] & -layers[0]  # the bit of min S, 0 while the class is empty
    if not min_bit or min_bit > x_bit:  # x is the new min S: fold every layer
        full, min_bit = len(layers), x_bit
    cap, min_s = capmask.bit_length() - 1, min_bit.bit_length() - 1
    if w and ends is not None and len(ends) == 2:  # one run min_s..hi: [k*min_s, k*hi]
        hi = ends[1]
        head = [(2 << k * hi) - (1 << k * min_s) for k in range(1, min(full, cap // hi) + 1)]
        head += [capmask >> k * min_s << k * min_s for k in range(len(head) + 1, full + 1)]
    else:
        # islice, not slices: tuples of fewer than 20 items are kept on free lists when
        # freed, and slices of every length would fill those with thousands of tuples
        head = islice(layers, full)
        for y in range(x, x + w + 1):
            prev = 1
            head = [prev := (layer | (prev << y)) & capmask for layer in head]
    reused = len(layers) - len(head)
    # L'_k is saturated when it holds all cap + 1 - k*min S values of its interval
    while full and head[full - 1].bit_count() == max(0, cap + 1 - full * min_s):
        full -= 1
    new_layers = (*head, *islice(layers, len(head), None))
    below = new_layers[-2] if len(layers) > 1 else 1  # L'_{m-2}
    if not reused:  # a reused layer's y are in the parent's mask already
        blocked |= decimate(new_layers[-1], a)
    if a > 1 and reused < 2:  # a = 1: 0 is in L'_{m-2} only for m = 2, where x = x is a solution
        blocked |= decimate(below, a - 1)
    top = a * (x + w)
    low = below & ((1 << top) - 1)  # s < a*(x+w), so that y = a*(x+w) - s >= 1
    # reversing the base-2 digits moves bit s to low.bit_length() - 1 - s
    ys = int(bin(low)[:1:-1], 2) << (top + 1 - low.bit_length())
    for step in smear_steps(w):
        ys |= ys >> a * step
    blocked |= ys
    # t in S: for m = 2, L_0 = {0} gains nothing; a new s gives a y = a*t - s >= 1 only
    # below a*max S, and ((1 << a*bit_length) - 1) >> a masks those, none while S is empty
    if len(layers) > 1 and reused < 2 and (
            new_s := below & ~layers[-2] & ((1 << a * layers[0].bit_length()) - 1) >> a):
        # a-1 zeros between the base-2 digits move bit t to a*t: {a*t : t in S}, for
        # the t with a*t - max(new_s) <= n_max + 1 only, so that y <= n_max + 1
        low_t = layers[0] & ((2 << (cap // a + new_s.bit_length()) // a) - 1)
        spread = int(("0" * (a - 1)).join(bin(low_t)[2:]), 2)
        for s in iter_bits(new_s):
            blocked |= spread >> s
    return None if blocked & new_layers[0] else (new_layers, blocked, full)


@dataclass(frozen=True, slots=True)
class SearchStats:
    """Work done by one search and why it stopped: EXACT, N_MAX or TIMEOUT."""

    nodes: int
    checks: int
    millis: float
    stop: str
    seed: int  # the n of the checked lower-bound coloring that set the goal, 0 if none


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    """Result of an exhaustive search up to n_max.

    The certificate is always a valid coloring of [certificate.n], the
    deepest valid depth found. status "exact": rado_number = certificate.n + 1
    and depth rado_number was exhaustively refuted. status "cutoff": a valid
    coloring of [n_max] exists (certificate.n = n_max) or a timeout stopped
    the search early; rado_number is None.
    """

    status: str
    rado_number: int | None
    certificate: Coloring
    stats: SearchStats

    @property
    def exact(self) -> bool:
        return self.status == EXACT


def exact_rado_number(
    eq: RadoEquation,
    n_max: int,
    threads: int = 1,
    timeout: float | None = None,
) -> SearchOutcome:
    """Smallest n such that every 2-coloring of [n] has a monochromatic solution.

    Exhausts colorings up to n_max >= 1 elements, a bound with no default
    that every search states, by a preorder DFS, red child before blue, with
    the goal, propagation and trail of the module docstring; a node is
    (depth, red_state, blue_state), its red set being red_state's first
    layer up to depth. Reports "exact" with the Rado
    number when the stack empties, otherwise "cutoff": the search stops at
    the first node of depth n_max (in preorder it carries the
    lexicographically least red set among deepest colorings) or once the
    optional timeout (seconds, >= 0) has passed; only then can certificate.n
    fall short of n_max, and never below the goal. stats.stop is EXACT, N_MAX
    or TIMEOUT accordingly, and stats.seed the goal, or 0 if there is none.
    With a timeout, the clock is read before each node is popped and after
    each propagated run, and not for the nodes passed in a jump, so the DFS
    overshoots it by at most one fold or one node's two child folds. A
    timeout inside a propagation stops the search at the node, never skips it.
    threads must be >= 1 and has no effect.
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
    pinned = _add_element(empty, 0b10, a, capmask)
    # imported here, not with the module: an outcome keeps its module's namespace alive
    # through its class, and that namespace then holds no reference to theirs
    from .checker import is_valid_coloring
    from .construction import lower_bound_coloring

    # the goal: the paper's coloring cut at n_max, kept only if the checker accepts it
    goal_coloring = lower_bound_coloring(eq)
    if goal_coloring.n > n_max:
        goal_coloring = Coloring(n_max, goal_coloring.red_bits & ((2 << n_max) - 1))
    goal = goal_coloring.n if is_valid_coloring(goal_coloring, eq) else 0
    stack = []
    if pinned is not None:
        best_depth, best_red = 1, 0b10
        stack.append((1, pinned, empty))

    while stack:
        if deadline is not None and time.perf_counter() > deadline:
            stop = TIMEOUT
            break
        depth, red_state, blue_state = stack.pop()
        nodes += 1
        if depth > best_depth:
            best_depth, best_red = depth, red_state[0][0] & ((2 << depth) - 1)
        if depth >= n_max:
            stop = N_MAX
            break
        window = (2 << max(best_depth + 1, goal)) - (2 << depth)  # y in depth+1 .. top
        # a y blocked in both classes is colored by no extension, so none goes deeper than
        # y - 1 < top; a y blocked in one class only takes the other color in every
        # extension that colors it: fold it there with the forced y right above it that the
        # same class blocks, lowest first, until a conflict or none is left; layer 1 is the
        # class itself, the forced elements above depth included
        conflict = red_state[1] & blue_state[1] & window
        red_p, blue_p, free = red_state, blue_state, window & ~(red_state[0][0] | blue_state[0][0])
        while not conflict and (forced := (red_p[1] ^ blue_p[1]) & free):
            y_bit = forced & -forced
            to_red = blue_p[1] & y_bit
            same = forced & (blue_p[1] if to_red else red_p[1])
            run = same & ~(same + y_bit)  # the bits of same from y_bit up to its first gap
            free ^= run
            checks += 1
            if to_red:
                red_p = _add_element(red_p, run, a, capmask)
            else:
                blue_p = _add_element(blue_p, run, a, capmask)
            conflict = red_p is None or blue_p is None or red_p[1] & blue_p[1] & window
            if deadline is not None and time.perf_counter() > deadline:
                # not a conflict, since an emptied stack would report EXACT: the node goes
                # back on the stack, counted once, and the read before the next pop stops
                stack.append((depth, red_state, blue_state))
                conflict = True
        if conflict:
            continue
        # the children start from the folded states: the forced colors stay on the trail
        x = depth + 1
        bit = 1 << x
        colored = red_p[0][0] | blue_p[0][0]
        if colored & bit:  # x is forced: jump along the colored x..x+k-1, see Trail
            k = min((colored & ~(colored + bit)).bit_length() - x, n_max - depth)
            checks, nodes = checks + k, nodes + k - 1
            stack.append((depth + k, red_p, blue_p))
            continue
        # x is free, blocked in neither class: both children are folded and tested
        checks += 2
        child = _add_element(blue_p, bit, a, capmask)
        if child is not None:
            stack.append((x, red_p, child))
        child = _add_element(red_p, bit, a, capmask)
        if child is not None:
            stack.append((x, child, blue_p))
    else:  # the stack emptied: no coloring of [best_depth + 1] is solution-free
        stop = EXACT

    # a timeout before the search reached the goal reports the goal's coloring
    certificate = goal_coloring if goal > best_depth else Coloring(best_depth, best_red)
    millis = (time.perf_counter() - start) * 1000.0
    stats = SearchStats(nodes, checks, millis, stop, goal)
    status, rado_number = (EXACT, certificate.n + 1) if stop == EXACT else (CUTOFF, None)
    return SearchOutcome(status, rado_number, certificate, stats)

