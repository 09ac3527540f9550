"""Closed-form quantities and known exact Rado numbers for L(m, a).

C(m, a) denotes the nested ceiling ceil(((m-1)/a) * ceil((m-1)/a)), evaluated
inside out in exact integer arithmetic. For a >= 2 the same quantity has a
polynomial closed form driven by the base-a digits of m; both routes are
implemented so each can cross-check the other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import RadoEquation, check64


def ceil_div(p: int, q: int) -> int:
    """Ceiling division for p >= 0, q >= 1, in pure integer arithmetic."""
    if p < 0 or q < 1:
        raise ValueError(f"ceil_div needs p >= 0 and q >= 1, got {p}/{q}")
    return (p + q - 1) // q


def ceiling_formula(eq: RadoEquation) -> int:
    """C(m, a) = ceil(((m-1)/a) * ceil((m-1)/a)).

    The inner ceiling is taken before the outer product. Merging the two
    ceilings into one rounded product changes the value, so the evaluation
    order is load-bearing.
    """
    inner = ceil_div(eq.m - 1, eq.a)
    return ceil_div(check64((eq.m - 1) * inner, "ceiling numerator"), eq.a)


@dataclass(frozen=True, slots=True)
class FormulaBreakdown:
    """The decomposition m = u*a^2 + v*a + c with u maximal and 0 <= v, c <= a-1.

    t = ceil((c-1)*(v+1)/a) feeds the closed form when c >= 2; it is stored
    as 0 otherwise.
    """

    u: int
    v: int
    c: int
    t: int


def decompose(eq: RadoEquation) -> FormulaBreakdown:
    """Base-a digits of m: c = m mod a, v = (m div a) mod a, u = m div a^2."""
    if eq.a < 2:
        raise ValueError(
            "decomposition needs a >= 2; the a = 1 family has its own quadratic formula"
        )
    a = eq.a
    c = eq.m % a
    v = (eq.m // a) % a
    u = eq.m // (a * a)
    t = ceil_div((c - 1) * (v + 1), a) if c >= 2 else 0
    return FormulaBreakdown(u, v, c, t)


def closed_form(eq: RadoEquation) -> int:
    """Polynomial form of C(m, a) for a >= 2, dispatched on c = m mod a.

    c = 1:  (m-1)^2 / a^2
    c = 0:  (m^2 - m + v*a) / a^2
    c >= 2: (m^2 + (a-c-1)*m + c - a*c - v*a*c + v*a + t*a^2) / a^2

    Every division is exact. A nonzero remainder means the dispatch or the
    decomposition is wrong and raises ArithmeticError.
    """
    bd = decompose(eq)
    m, a = eq.m, eq.a
    if bd.c == 1:
        numerator = (m - 1) * (m - 1)
    elif bd.c == 0:
        numerator = m * m - m + bd.v * a
    else:
        numerator = (
            m * m
            + (a - bd.c - 1) * m
            + bd.c
            - a * bd.c
            - bd.v * a * bd.c
            + bd.v * a
            + bd.t * a * a
        )
    check64(numerator, "closed form numerator")
    quotient, remainder = divmod(numerator, a * a)
    if remainder:
        raise ArithmeticError(
            f"closed form numerator {numerator} not divisible by {a * a} for (m={m}, a={a})"
        )
    return quotient


class KnownSource(enum.Enum):
    """Which exactly-solved regime produced a known Rado number."""

    A1_QUADRATIC = "a1_quadratic"  # a = 1, m >= 3: m^2 - m - 1
    A2_CEILING = "a2_ceiling"  # a = 2, m >= 6: C(m, 2)
    A3_SMALL = "a3_small"  # a = 3, m in {3, 4, 5, 6}: 9, 1, 4, 5
    A3_CEILING = "a3_ceiling"  # a = 3, m >= 7: C(m, 3)
    GENERAL_CEILING = "general_ceiling"  # a >= 4, m >= 2a^2 - a + 2: C(m, a)


@dataclass(frozen=True, slots=True)
class KnownNumber:
    """An exact 2-color Rado number together with the regime that settles it."""

    value: int
    source: KnownSource


_A3_SMALL_VALUES = {3: 9, 4: 1, 5: 4, 6: 5}


def general_threshold(a: int) -> int:
    """Smallest m for which the nested-ceiling value is proved exact for every a >= 3."""
    return 2 * a * a - a + 2


def known_rado_number(eq: RadoEquation) -> KnownNumber | None:
    """Exact Rado number of L(m, a) in the solved regimes, None elsewhere.

    Covered: a = 1 with m >= 3, a = 2 with m >= 6, a = 3 with any m >= 3,
    and a >= 4 with m >= 2a^2 - a + 2. For m = 2 and a >= 3 no Rado number
    exists at all, so None is the only honest answer there.
    """
    m, a = eq.m, eq.a
    if a == 1 and m >= 3:
        return KnownNumber(check64(m * m - m - 1, "a=1 value"), KnownSource.A1_QUADRATIC)
    if a == 2 and m >= 6:
        return KnownNumber(ceiling_formula(eq), KnownSource.A2_CEILING)
    if a == 3 and m in _A3_SMALL_VALUES:
        return KnownNumber(_A3_SMALL_VALUES[m], KnownSource.A3_SMALL)
    if a == 3 and m >= 7:
        return KnownNumber(ceiling_formula(eq), KnownSource.A3_CEILING)
    if a >= 4 and m >= general_threshold(a):
        return KnownNumber(ceiling_formula(eq), KnownSource.GENERAL_CEILING)
    return None
