"""Domain types for 2-color Rado number computations.

The equation family is L(m, a): x1 + x2 + ... + x_{m-1} = a*x_m over the
positive integers. A 2-coloring of [n] = {1, ..., n} assigns every element
red or blue; a solution whose values all carry one color is monochromatic.
The types here (equations, colorings, witnesses) are shared by the formula,
checker, construction, and search layers, and the rest by the checker and
the search: the bitset helpers (iter_bits, smear_steps, decimate); the one
entry that decides a class of at most two runs of consecutive integers by the
run and two-run lemmas (least_class_target), with its witness's left side in
closed form (class_left_side), both reading the class as its run ends
(run_ends); and the sumset fold (fold_layers, planned by
run_plan for a whole class), which keeps the layers only up to the first that
repeats its predecessor shifted by min S.

Arithmetic contract: every derived quantity must fit in signed 64 bits.
Constructors reject parameters whose squares already overflow.
"""

from __future__ import annotations

import enum
import re
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


def least_two_run_target(l1: int, h1: int, l2: int, h2: int, m: int, a: int) -> int:
    """The least t in the class l1..h1, l2..h2 with a*t a sum of m-1 of its elements, or 0 if none.

    Needs 1 <= l1 <= h1 < l2 <= h2. With k = m-1, the sums of k elements,
    j of them from the upper run, are every integer of I_j = [(k-j)*l1 +
    j*l2, (k-j)*h1 + j*h2], j = 0..k. Both ends grow with j, so v >= k*l1 is
    a sum iff v <= the end of I_j for the last j whose I_j starts at or below
    v. Each run, lower first, is walked from its least t with a*t >= k*l1: t
    is returned if a*t is a sum, and otherwise every v up to the start of
    I_{j+1} is not, so the walk jumps there, a gap at a time. This is the
    two-run case of the structure of h-fold sumsets (Nathanson, Sums of
    finite sets of integers, 1972).
    """
    k, d = m - 1, l2 - l1
    for lo, hi in ((l1, h1), (l2, h2)):
        t = max(lo, -(-k * l1 // a))  # the least t of the run with a*t >= k*l1
        while t <= hi and (v := a * t) <= k * h2:  # no sum lies above k*h2, the end of I_k
            j = min(k, (v - k * l1) // d)  # the last I_j that starts at or below v
            if v <= k * h1 + j * (h2 - h1):
                return t
            t = -(-(k * l1 + (j + 1) * d) // a)  # the least t with a*t >= the start of I_{j+1}
    return 0


def _run_left_side(lo: int, hi: int, total: int, count: int) -> list[int]:
    """The least ascending list of count elements of lo..hi with sum total, in count*lo .. count*hi.

    The least element at each step is lo while the rest can still reach total
    with hi, so the list is lo repeated, then one lo + r, then hi repeated q
    times, with total - count*lo = q*(hi - lo) + r; no middle term if r = 0.
    """
    if lo == hi:
        return [lo] * count
    q, r = divmod(total - count * lo, hi - lo)
    middle = [lo + r] if r else []
    return [lo] * (count - q - len(middle)) + middle + [hi] * q


def _two_run_left_side(l1: int, h1: int, l2: int, h2: int, total: int, count: int) -> list[int]:
    """The least ascending list of count elements of the runs l1..h1, l2..h2 that sums to total.

    Needs 1 <= l1 <= h1 < l2 <= h2 and total a sum of count class elements.

    Least is lexicographic, the list that picking the least feasible element
    at each step gives. Let k = count and T = total. With i elements from the
    upper run, the list is k-i elements of l1..h1 summing to some T1, then i
    of l2..h2 summing to T - T1. A smaller T1 gives a smaller lower part
    (_run_left_side: more leading l1s, or as many and a smaller next
    element), so the least list for i, f(i), takes the least feasible T1 =
    max((k-i)*l1, T - i*h2). Such a list exists iff T lies in [(k-i)*l1 +
    i*l2, (k-i)*h1 + i*h2], that is iff i lies in first..last below.

    f falls up to i*-1 and rises from i* = ceil((T - k*l1)/(h2 - l1)) on:
    - For i >= i*, T1 = (k-i)*l1: f(i) is k-i copies of l1, then upper
      elements, so f(i+1), with one l1 fewer, is larger.
    - For i < i*, T1 exceeds (k-i)*l1 by e = (T - k*l1) - i*(h2-l1) > 0, so
      h1 > l1 (else i is not feasible), and with D = h1 - l1, f(i) is
      k-i-ceil(e/D) copies of l1, then v = l1 + e - (ceil(e/D)-1)*D > l1.
      From i to i+1 < i*, e falls by h2 - l1 > D, so ceil(e/D) falls by at
      least 1 and the count of leading l1s does not fall. If it rises, f(i+1)
      holds l1 where f(i) holds v; if not, ceil(e/D) fell by exactly 1, and
      v falls by h2 - h1 > 0. Either way f(i+1) < f(i).
    Also first <= i* and i*-1 <= last: (T - k*h1)/(h2 - h1) <= (T - k*l1)/(h2
    - l1) for T <= k*h2, where both are k, since the left one grows faster
    with T; and l2 - l1 <= h2 - l1. So the least f(i) over first..last is at
    i*-1 or i*, whichever has a list, or the lesser of the two if both have:
    a comparison of at most two lists, with no table. Neither end of
    first..last nor i*+1 can win unless it is one of those two.
    """
    k = count
    first = max(0, -(-(total - k * h1) // (h2 - h1)))
    last = min(k, (total - k * l1) // (l2 - l1))
    pivot = -(-(total - k * l1) // (h2 - l1))  # i*

    def side(i: int) -> list[int]:
        lower = max((k - i) * l1, total - i * h2)
        return _run_left_side(l1, h1, lower, k - i) + _run_left_side(l2, h2, total - lower, i)

    return min(side(i) for i in (pivot - 1, pivot) if first <= i <= last)


def run_ends(bits: int) -> tuple[int, ...] | None:
    """The ends of a class's runs: (), (lo, hi) or (l1, h1, l2, h2), or None for three or more."""
    if not bits:
        return ()
    low = bits & -bits
    upper = bits & (bits + low)  # the carry clears the first run
    if not upper:
        return low.bit_length() - 1, bits.bit_length() - 1
    l2 = upper & -upper
    if upper & (upper + l2):
        return None
    l1, h1 = low.bit_length() - 1, (bits ^ upper).bit_length() - 1
    return l1, h1, l2.bit_length() - 1, bits.bit_length() - 1


def least_class_target(ends: tuple[int, ...] | None, m: int, a: int) -> int | None:
    """The least t of a class of at most two runs with a*t a sum of m-1 of its elements.

    The class is given by its run ends, as run_ends returns them, so a run
    needs no mask. 0 if there is none, as for the empty class; None for a
    class of three runs or more (ends None), which needs a sumset table
    (fold_layers). Needs min S >= 1.
    """
    if not ends:
        return None if ends is None else 0
    if len(ends) == 2:
        return least_run_target(ends[0], ends[1], m, a)
    return least_two_run_target(ends[0], ends[1], ends[2], ends[3], m, a)


def class_left_side(ends: tuple[int, ...], total: int, count: int) -> list[int]:
    """The least ascending list of count elements of a class of one or two runs summing to total.

    The class is given by its run ends, and total must be such a sum. Least
    is lexicographic, as in the checker's greedy backtrack, smallest element
    first; the closed forms need no table.
    """
    if len(ends) == 2:
        return _run_left_side(ends[0], ends[1], total, count)
    return _two_run_left_side(ends[0], ends[1], ends[2], ends[3], total, count)


def run_plan(bits: int) -> list[tuple[list[int], list[int]]]:
    """fold_layers' plan for a nonempty class: its maximal runs, starts grouped by width.

    One regex walk over the reversed base-2 string, where bit p sits at index
    p, finds every run p..q as a match of "1+" from p to q + 1.
    """
    starts_by_width: dict[int, list[int]] = {}
    for run in re.finditer("1+", bin(bits)[:1:-1]):
        starts_by_width.setdefault(run.end() - 1 - run.start(), []).append(run.start())
    widths = sorted(starts_by_width, reverse=True)
    return [
        (starts_by_width[w], smear_steps(w - narrower))
        for w, narrower in zip(widths, [*widths[1:], 0])
    ]


def fold_layers(
    layers: Iterable[int], plan: list[tuple[list[int], list[int]]], min_s: int, capmask: int
) -> list[int]:
    """Sumset layers L'_k = (L_k | (L'_{k-1} + R)) & capmask, L'_0 = {0}, up to the stable tail.

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

    Stable tail: once L'_{j+1} = (L'_j << min_s) & capmask, every later layer
    is the one before it shifted by min_s and capped, because L'_{k+1} =
    L'_k + S' = (L'_{k-1} + S') + min S' = L'_k + min S', and truncating at
    the cap commutes with the shift since sums only grow. So only the prefix
    L'_1 .. L'_j is returned, for the least such j >= 1, or one layer per
    given L_k if none repeats: L'_k = (L'_j << (k-j)*min_s) & capmask for
    k > j, which callers shift out as they need it, or read as bit r -
    (k-j)*min_s of L'_j. A dense class gets there after a few layers. This is
    the truncated form of the structure theorem for h-fold sumsets
    (Nathanson, Sums of finite sets of integers, 1972).
    """
    out = []
    prev = 1
    for layer in layers:
        acc = 0
        for starts, steps in plan:
            for p in starts:
                acc |= prev << p
            for step in steps:
                acc |= acc << step
        shifted = (prev << min_s) & capmask
        prev = (layer | acc) & capmask
        if prev == shifted and out:
            break
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
        # bit 0 and the bits above n, with no (n+1)-bit mask: a sparse [n] stays small
        if self.red_bits < 0 or self.red_bits & 1 or self.red_bits >> (self.n + 1):
            raise ValueError("red elements must lie within 1..n")

    @classmethod
    def from_red(cls, n: int, red: Iterable[int]) -> Coloring:
        """The coloring of [n] whose red class is red, each element in 1..n.

        The mask is read from a base-2 string of max(red) + 1 digits, bit x at
        index x before the string is reversed, grown as larger elements come:
        linear in max(red), not in n, so a sparse red set stays small. Setting
        one bit at a time would copy the mask per element.
        """
        digits = bytearray(b"0")
        for x in red:
            if not 1 <= x <= n:
                raise ValueError(f"red element {x} outside 1..{n}")
            if x >= len(digits):
                digits += b"0" * (x + 1 - len(digits))
            digits[x] = ord("1")
        return cls(n, int(digits[::-1], 2))

    @property
    def blue_bits(self) -> int:
        return ((1 << (self.n + 1)) - 2) & ~self.red_bits

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
