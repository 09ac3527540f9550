"""Explicit solution-free colorings that certify Rado number lower bounds.

The general construction colors a short prefix of [C(m, a) - 1] red and the
rest blue; it is solution-free for every a >= 1 and m >= 2 (the proof is in
lower_bound_coloring's docstring, and checker.is_valid_coloring confirms it)
and therefore shows the Rado number is at least C(m, a). It is the only code
that builds this coloring: the search takes it as its goal. Two hand-built
colorings cover the a = 3 small cases where the general construction is not
tight.
"""

from __future__ import annotations

from .core import Coloring, RadoEquation
from .formula import ceil_div, ceiling_formula


def lower_bound_coloring(eq: RadoEquation) -> Coloring:
    """The paper's solution-free coloring of [C(m, a) - 1]: red 1..q-1, blue q..C-1.

    q = ceil((m-1)/a). A red sum of m-1 elements is at least m-1 > a(q-1),
    above a*t for every red t; a blue one is at least (m-1)q > a(C-1), since
    aC < (m-1)q + a, above a*t for every blue t. So neither class holds a
    solution, for every a >= 1 and m >= 2. When C(m, a) = 1, q = 1 as well
    and the coloring is the empty one. Red is one mask of q bits, and no mask
    of [C - 1] is built, so a large C costs no more than its red prefix.
    """
    return Coloring(ceiling_formula(eq) - 1, (1 << ceil_div(eq.m - 1, eq.a)) - 2)


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
