"""Domain types for 2-color Rado number computations.

The equation family is L(m, a): x1 + x2 + ... + x_{m-1} = a*x_m over the
positive integers. A 2-coloring of [n] = {1, ..., n} assigns every element
red or blue; a solution whose values all carry one color is monochromatic.
The types here (equations, colorings, witnesses) are shared by the formula,
checker, construction, and search layers; the bitset helpers (iter_bits,
smear_steps, decimate), the run lemma (least_run_target) and the sumset fold
(fold_layers) by the checker and the search. The two-run lemma
(two_runs_hold_solution) decides the search's propagated runs that leave
their class as two runs; the checker's two-run classes still build layers.

Arithmetic contract: every derived quantity must fit in signed 64 bits.
Constructors reject parameters whose squares already overflow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator

INT64_MAX = 2**63 - 1


def check64(value: int, what: str = "value") -> int:
    """Return value unchanged, raising OverflowError outside signed 64-bit range."""
    if value > INT64_MAX or value < -INT64_MAX - 1:
        raise OverflowError(f"{what} {value} exceeds signed 64-bit range")
    return value


def json_int(value, what: str) -> int:
    """An integer field read from a JSON document.

    JSON has one number type, so an integral float such as 3.0 reads as 3;
    a bool, a non-integral number or any other type raises ValueError.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a nonnegative mask in ascending order.

    Walks the reversed base-2 string, where bit p sits at index p, with
    str.find: linear in the mask's width. Clearing one bit at a time would
    rebuild the whole integer per bit, quadratic on a dense mask. An empty
    mask, as most of the search's new-s masks are, builds no string.
    """
    if not mask:
        return
    digits = bin(mask)[:1:-1]
    p = digits.find("1")
    while p >= 0:
        yield p
        p = digits.find("1", p + 1)


def smear_steps(w: int) -> list[int]:
    """Shifts s_i such that x |= x << s_i, in turn, gives x | x<<1 | ... | x<<w.

    Doubling, with a shorter last step: ceil(log2(w+1)) shifts, none for w = 0.
    Shifting by a*s_i instead smears with step a, and x |= x >> s_i downwards.
    """
    steps = []
    span = 1  # offsets 0 .. span-1 are covered
    while span <= w:
        step = min(span, w + 1 - span)
        steps.append(step)
        span += step
    return steps


def decimate(bits: int, step: int) -> int:
    """The bitset {y : step*y in bits}, for step >= 1.

    Step 1 is the identity. Otherwise goes through a base-2 string, whose
    slice picks every step-th bit at C speed. Conversions between int and str
    stay in base 2 throughout: decimal ones are quadratic and capped at 4,300
    digits since Python 3.11.
    """
    if step == 1:
        return bits
    digits = bin(bits)[2:]  # bit p sits at index len - 1 - p
    return int(digits[(len(digits) - 1) % step :: step], 2)


def least_run_target(lo: int, hi: int, m: int, a: int) -> int:
    """The least t in the run lo..hi with a*t a sum of m-1 of its elements, or 0 if none.

    The sums of k elements of a run are every integer in k*lo .. k*hi, so the
    t that close a solution are those of lo..hi with (m-1)*lo <= a*t <=
    (m-1)*hi, an interval. An empty run (hi < lo) has none. Needs lo >= 1,
    so that 0 is never such a t.
    """
    t = max(lo, -(-(m - 1) * lo // a))  # the least t in the run with a*t >= (m-1)*lo
    return t if t <= hi and a * t <= (m - 1) * hi else 0


def two_runs_hold_solution(l1: int, h1: int, l2: int, h2: int, m: int, a: int) -> bool:
    """Whether the class l1..h1, l2..h2 holds a solution: some a*t is a sum of m-1 elements.

    Needs 1 <= l1 <= h1 < l2 <= h2. With k = m-1, the sums of k elements,
    j of them from the upper run, are every integer of I_j = [(k-j)*l1 +
    j*l2, (k-j)*h1 + j*h2]. Both ends grow with j, so only the j whose I_j
    meets [a*l1, a*h2], where every a*t lies, matter. The gap from I_j to
    I_{j+1} is g(j) = (l2-l1) - k*(h1-l1) - 1 - j*((h2-l2) - (h1-l1)): the
    two touch iff g(j) <= 0, and since g is linear, the touching j form one
    stretch whose intervals merge into one. Each interval [A, B] left holds
    a*t for some t of a run l..h iff max(l, ceil(A/a)) <= min(h, B//a), the
    run lemma of least_run_target. This is the two-run case of the
    structure of h-fold sumsets (Nathanson, Sums of finite sets of
    integers, 1972).
    """
    k, d, slope = m - 1, l2 - l1, (h2 - l2) - (h1 - l1)
    first = max(0, -((k * h1 - a * l1) // (h2 - h1)))  # the least j with end >= a*l1
    last = min(k, (a * h2 - k * l1) // d)  # the largest j with start <= a*h2
    if first > last:
        return False
    c = d - k * (h1 - l1) - 1  # g(j) = c - j*slope
    # the j in first..last-1 whose I_j touches I_{j+1}: lo..hi, none if lo > hi
    if slope > 0:
        lo, hi = max(first, -(-c // slope)), last - 1
    elif slope < 0:
        lo, hi = first, min(last - 1, c // slope)
    else:
        lo, hi = first, last - 1 if c <= 0 else first - 1
    if lo > hi:  # no two touch: I_last stands alone, as the others do
        lo, hi = last, last - 1
    # (i, j): the union of I_i .. I_j, one interval
    spans = [(j, j) for j in range(first, lo)] + [(lo, hi + 1)]
    spans += [(j, j) for j in range(hi + 2, last + 1)]
    for i, j in spans:
        low, high = (k - i) * l1 + i * l2, (k - j) * h1 + j * h2
        t_low, t_high = -(-low // a), high // a
        if max(l1, t_low) <= min(h1, t_high) or max(l2, t_low) <= min(h2, t_high):
            return True
    return False


def fold_layers(
    layers: Iterable[int], plan: list[tuple[list[int], list[int]]], min_s: int, capmask: int
) -> list[int]:
    """Sumset layers L'_k = (L_k | (L'_{k-1} + R)) & capmask, one per given L_k, L'_0 = {0}.

    If L_k holds the sums of exactly k elements of a class S (all empty for
    S empty), L'_k holds those of S' = S + R: such a sum either avoids R or
    is an element of R plus a sum of k-1 elements of S'. min_s is min S'.

    R is given as a plan of pairs (starts, steps), widest runs first: the
    runs p..p+w of one width w start at starts, and steps (smear_steps) smear
    by w minus the next narrower width, or 0. Since smear_u(smear_v(x)) =
    smear_{u+v}(x), where smear_w(x) = x | x<<1 | ... | x<<w, each group's
    shifts of L'_{k-1} are ORed into a running sum that the group's steps
    then smear: a layer costs one shift per run and ceil(log2(gap+1)) per
    distinct width, not |R|.

    Stable tail: once L'_k = (L'_{k-1} << min_s) & capmask, every later layer
    is the one before it shifted by min_s and capped, because L'_{k+1} =
    L'_k + S' = (L'_{k-1} + S') + min S' = L'_k + min S', and truncating at
    the cap commutes with the shift since sums only grow. From there a layer
    costs one shift and one AND; a dense class gets there after a few layers.
    This is the truncated form of the structure theorem for h-fold sumsets
    (Nathanson, Sums of finite sets of integers, 1972).
    """
    out = []
    prev = 1
    layers = iter(layers)
    for layer in layers:
        acc = 0
        for starts, steps in plan:
            for p in starts:
                acc |= prev << p
            for step in steps:
                acc |= acc << step
        shifted = (prev << min_s) & capmask
        prev = (layer | acc) & capmask
        out.append(prev)
        if prev == shifted:
            break
    for _ in layers:
        prev = (prev << min_s) & capmask
        out.append(prev)
    return out


class Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True, slots=True)
class RadoEquation:
    """The equation x1 + ... + x_{m-1} = a*x_m: m variables, coefficient a on x_m."""

    m: int
    a: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"need m >= 2, got m={self.m}")
        if self.a < 1:
            raise ValueError(f"need a >= 1, got a={self.a}")
        # Downstream formulas scale like (m-1)^2 and a^2; parameters whose
        # squares overflow already cannot be handled anywhere.
        check64((self.m - 1) ** 2, "(m-1)^2")
        check64(self.a**2, "a^2")


@dataclass(frozen=True, slots=True)
class Coloring:
    """A total red/blue coloring of [n], red stored as a bitmask over bits 1..n.

    n = 0 is the empty coloring. Blue is the complement of red within [n].
    """

    n: int
    red_bits: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"need n >= 0, got n={self.n}")
        if self.red_bits < 0 or self.red_bits & ~self.domain_bits:
            raise ValueError("red elements must lie within 1..n")

    @classmethod
    def from_red(cls, n: int, red: Iterable[int]) -> Coloring:
        bits = 0
        for x in red:
            if not 1 <= x <= n:
                raise ValueError(f"red element {x} outside 1..{n}")
            bits |= 1 << x
        return cls(n, bits)

    @property
    def domain_bits(self) -> int:
        return (1 << (self.n + 1)) - 2

    @property
    def blue_bits(self) -> int:
        return self.domain_bits & ~self.red_bits

    def class_bits(self, color: Color) -> int:
        return self.red_bits if color is Color.RED else self.blue_bits

    def color_of(self, x: int) -> Color:
        if not 1 <= x <= self.n:
            raise ValueError(f"{x} is outside the colored interval [1, {self.n}]")
        return Color.RED if (self.red_bits >> x) & 1 else Color.BLUE

    def red_elements(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.red_bits))

    def to_dict(self) -> dict:
        return {"n": self.n, "red": list(self.red_elements())}

    @classmethod
    def from_dict(cls, data: dict) -> Coloring:
        if not isinstance(data["red"], list):
            raise ValueError(f"red must be a list of integers, got {data['red']!r}")
        red = [json_int(x, "red element") for x in data["red"]]
        return cls.from_red(json_int(data["n"], "n"), red)


@dataclass(frozen=True, slots=True)
class Witness:
    """A claimed solution of L(m, a): the m slot values, x_m last, and their color."""

    values: tuple[int, ...]
    color: Color

    def to_dict(self) -> dict:
        """JSON form; "groups" run-length encodes the values as [count, value] pairs."""
        groups = [[len(list(run)), v] for v, run in groupby(self.values)]
        return {"color": self.color.value, "groups": groups}
