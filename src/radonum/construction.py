"""Explicit solution-free colorings that certify Rado number lower bounds.

The general construction colors a short prefix of [C(m, a) - 1] red and the
rest blue; it is solution-free for every a >= 1 and m >= 2 (the proof is in
the search module's docstring) and therefore shows the Rado number is at least
C(m, a). Two hand-built colorings cover the a = 3 small cases where the
general construction is not tight.
"""

from __future__ import annotations

from .core import Coloring, RadoEquation
from .formula import ceil_div, ceiling_formula


def lower_bound_coloring(eq: RadoEquation) -> Coloring:
    """Solution-free coloring of [C(m, a) - 1] with red prefix [ceil((m-1)/a) - 1].

    With q = ceil((m-1)/a), red is 1..q-1 and blue q..C-1. A red sum of m-1
    elements is at least m-1 > a(q-1), a blue one at least (m-1)q > a(C-1),
    so neither class holds a solution, for every a >= 1 and m >= 2; see
    radonum.search. When C(m, a) = 1 the interval [C - 1] is empty and the
    empty coloring is returned.
    """
    bound = ceiling_formula(eq)
    if bound == 1:
        return Coloring(0)
    red_top = ceil_div(eq.m - 1, eq.a) - 1
    return Coloring.from_red(bound - 1, range(1, red_top + 1))


def small_case_coloring(m: int) -> Coloring:
    """Extremal coloring for the two a = 3 cases below the general pattern.

    m = 5: red {1, 3} and blue {2} on [3].
    m = 6: red {1, 4} and blue {2, 3} on [4].
    Both color the full interval [RadoNumber - 1].
    """
    if m == 5:
        return Coloring.from_red(3, (1, 3))
    if m == 6:
        return Coloring.from_red(4, (1, 4))
    raise ValueError(f"hand-built extremal colorings exist only for m in {{5, 6}}, got m={m}")
