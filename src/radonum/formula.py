"""Closed-form quantities and known exact Rado numbers for L(m, a).

C(m, a) denotes the nested ceiling ceil(((m-1)/a) * ceil((m-1)/a)), evaluated
inside out in exact integer arithmetic. For a >= 2 the same quantity has a
polynomial closed form driven by the base-a digits of m; both routes are
implemented so each can cross-check the other.
"""

from __future__ import annotations

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


@dataclass(frozen=True, slots=True)
class KnownNumber:
    """An exact 2-color Rado number."""

    value: int


_A3_SMALL_VALUES = {3: 9, 4: 1, 5: 4, 6: 5}
# first m at which C(m, a) is the Rado number; 2a^2 - a + 2 for every other a >= 2
_CEILING_FROM = {2: 6, 3: 7}


def known_rado_number(eq: RadoEquation) -> KnownNumber | None:
    """Exact Rado number of L(m, a) in the solved regimes, None elsewhere.

    Beutelspacher and Brestovansky (1982) give m^2 - m - 1 for a = 1 and
    m >= 3. Schaal and Vestal (2008) give C(m, 2) for a = 2 and m >= 6. The
    paper this package follows settles a >= 3: the values 9, 1, 4, 5 for
    a = 3 and m = 3..6, C(m, 3) from m = 7, and C(m, a) from
    m = 2a^2 - a + 2 for a >= 4. For m = 2 and a >= 3 no Rado number exists
    at all, so None is the only honest answer there.
    """
    m, a = eq.m, eq.a
    if a == 1:
        return KnownNumber(check64(m * m - m - 1, "a=1 value")) if m >= 3 else None
    if a == 3 and m in _A3_SMALL_VALUES:
        return KnownNumber(_A3_SMALL_VALUES[m])
    if m >= _CEILING_FROM.get(a, 2 * a * a - a + 2):
        return KnownNumber(ceiling_formula(eq))
    return None
