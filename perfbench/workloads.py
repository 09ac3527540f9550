"""The benchmark's workloads: seeded inputs, timed items and answer checks.

deep     exact_rado_number on (24,2), (40,3) and (60,6): a few huge trees with
         sumset depth m-2 = 22, 38 and 58, so the search kernel does nearly all
         of the work and a cheaper node or pruning shows here.
atlas    one exact_rado_number per (m, a) below the proven regime, 151 points:
         many small trees, so fixed cost per search shows, and so would a
         process pool or precomputed table that only pays off on deep.
certify  the paper's lower-bound pipeline with no search: the formula grid,
         the red-prefix colorings checked valid (full sumset table for both
         classes), and seeded perturbations that have witnesses (early exit,
         greedy backtrack and verify_witness). A kernel change that speeds one
         checker path and slows the other shows here.

The seed picks the perturbations in certify and the item order in atlas. Each
item's check compares its answer with an expectation fixed when the inputs are
made; checks run outside the timed region.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from tracing import NOTE

GOLDEN = Path(__file__).with_name("atlas_golden.json")

DEEP_POINTS = ((24, 2), (40, 3), (60, 6))
ATLAS_RANGES = {2: (6, 16), 3: (3, 24), 4: (3, 29), 5: (3, 46), 6: (3, 49)}
FORMULA_A = range(2, 11)
FORMULA_M = range(3, 2001)
CERTIFY_A = range(3, 9)
CERTIFY_N = (100, 300)  # certify every (m, a) whose lower-bound coloring has n = C-1 in this range
FLIPS_PER_POINT = 2
ORACLE_SAMPLES = 300
ORACLE_N_MAX = 7


def atlas_n_max(c: int) -> int:
    """Search bound of an atlas point: far enough above C(m, a) to refute it."""
    return max(c, 12) + 8


@dataclass
class Item:
    """One unit of closed-loop work.

    run(trace, item_id) makes the timed calls and returns the answer;
    check(answer, expect) returns None when the answer is right, else a reason.
    A search item keeps its (equation, n_max) so it can be rerun with threads.
    """

    key: str
    kind: str  # search, formula, valid or witness
    run: Callable[[Any, int], Any]
    check: Callable[[Any, Any], str | None]
    expect: Any
    search: tuple[Any, int] | None = None


@dataclass
class Workload:
    items: list[Item]
    oracle: list[tuple[Any, Any]] = field(default_factory=list)  # (eq, coloring) with n <= 7


def build(lib, name: str, seed: int) -> Workload:
    """The inputs of one workload; lib is the imported radonum package."""
    rng = random.Random(seed)
    if name == "deep":
        return _deep(lib)
    if name == "atlas":
        return _atlas(lib, rng)
    if name == "certify":
        return _certify(lib, rng)
    raise ValueError(f"unknown workload {name!r}")


def _search_item(lib, key: str, eq, n_max: int, check, expect) -> Item:
    def run(trace, item_id: int):
        with trace.span("search", item_id) as rec:
            out = lib.exact_rado_number(eq, n_max=n_max)
            rec[NOTE] = {"nodes": out.stats.nodes, "checks": out.stats.checks, "status": out.status}
        return out

    return Item(key, "search", run, check, expect, (eq, n_max))


def _deep(lib) -> Workload:
    work = Workload([])
    for m, a in DEEP_POINTS:
        eq = lib.RadoEquation(m, a)
        c = lib.ceiling_formula(eq)

        def check(out, expect, eq=eq) -> str | None:
            if not out.exact:
                return f"status {out.status}, expected exact"
            if out.rado_number != expect:
                return f"rado_number {out.rado_number}, expected {expect}"
            if out.certificate.n != expect - 1:
                return f"certificate has n={out.certificate.n}, expected {expect - 1}"
            if not lib.is_valid_coloring(out.certificate, eq):
                return "certificate coloring has a monochromatic solution"
            return None

        work.items.append(_search_item(lib, f"deep m={m} a={a}", eq, c + 8, check, c))
    return work


def load_golden() -> dict[tuple[int, int], dict]:
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {(row["m"], row["a"]): row for row in data["points"]}


def _atlas(lib, rng: random.Random) -> Workload:
    golden = load_golden()
    work = Workload([])
    for a, (lo, hi) in ATLAS_RANGES.items():
        for m in range(lo, hi + 1):
            eq = lib.RadoEquation(m, a)
            n_max = atlas_n_max(lib.ceiling_formula(eq))
            known = lib.known_rado_number(eq)
            row = golden.get((m, a), {})
            expect = (row.get("status"), row.get("rado_number"), None if known is None else known.value)

            def check(out, expect) -> str | None:
                status, rado, known = expect
                if (out.status, out.rado_number) != (status, rado):
                    return f"got ({out.status}, {out.rado_number}), golden ({status}, {rado})"
                if known is not None and out.rado_number != known:
                    return f"rado_number {out.rado_number}, known value {known}"
                return None

            work.items.append(_search_item(lib, f"atlas m={m} a={a}", eq, n_max, check, expect))
    rng.shuffle(work.items)
    return work


def certify_points(lib) -> list[tuple[int, int]]:
    """Every (m, a) with a in CERTIFY_A whose C(m, a) - 1 lies in CERTIFY_N."""
    lo, hi = CERTIFY_N
    points = []
    for a in CERTIFY_A:
        m = 3
        while (c := lib.ceiling_formula(lib.RadoEquation(m, a))) - 1 <= hi:
            if c - 1 >= lo:
                points.append((m, a))
            m += 1
    return points


def _formula_item(lib, a: int) -> Item:
    eqs = [lib.RadoEquation(m, a) for m in FORMULA_M]

    def run(trace, item_id: int):
        with trace.span("formula", item_id) as rec:
            rows = [
                (lib.ceiling_formula(eq), lib.closed_form(eq), lib.known_rado_number(eq))
                for eq in eqs
            ]
            rec[NOTE] = 3 * len(eqs)
        return rows

    def check(rows, expect) -> str | None:
        differ = tuple(eq.m for eq, (c, closed, _) in zip(eqs, rows) if c != closed)
        if len(rows) != len(eqs) or differ != expect:
            return f"closed_form != ceiling_formula at m in {differ}, expected {expect}"
        return None

    return Item(f"formula a={a}", "formula", run, check, ())


def _valid_item(lib, eq, n: int) -> Item:
    def run(trace, item_id: int):
        with trace.span("construction", item_id):
            col = lib.lower_bound_coloring(eq)
        with trace.span("checker.find", item_id) as rec:
            witness = lib.find_mono_solution(col, eq)
            rec[NOTE] = "valid" if witness is None else "witness"
        return col.n, witness

    def check(answer, expect) -> str | None:
        n, witness = answer
        if n != expect:
            return f"coloring has n={n}, expected {expect}"
        if witness is not None:
            return f"lower-bound coloring has witness {witness.to_dict()}"
        return None

    return Item(f"valid m={eq.m} a={eq.a}", "valid", run, check, n)


def _witness_item(lib, key: str, eq, col) -> Item:
    def run(trace, item_id: int):
        with trace.span("checker.find", item_id) as rec:
            witness = lib.find_mono_solution(col, eq)
            rec[NOTE] = "valid" if witness is None else "witness"
        if witness is None:
            return False
        with trace.span("checker.verify", item_id) as rec:
            ok = lib.verify_witness(witness, col, eq)
            rec[NOTE] = ok
        return ok

    def check(verified, expect) -> str | None:
        return None if verified == expect else f"verified witness {verified}, expected {expect}"

    return Item(key, "witness", run, check, True)


def _certify(lib, rng: random.Random) -> Workload:
    work = Workload([_formula_item(lib, a) for a in FORMULA_A])
    for m, a in certify_points(lib):
        eq = lib.RadoEquation(m, a)
        base = lib.lower_bound_coloring(eq)
        work.items.append(_valid_item(lib, eq, base.n))
        # Every one-element flip of every certify coloring has a witness (all
        # 44,720 flips were checked when this workload was defined), as had
        # each of 4,620 random colorings; a None here is a checker fault.
        for x in sorted(rng.sample(range(1, base.n + 1), FLIPS_PER_POINT)):
            flipped = lib.Coloring(base.n, base.red_bits ^ (1 << x))
            work.items.append(_witness_item(lib, f"flip {x} m={m} a={a}", eq, flipped))
        scrambled = lib.Coloring(base.n, rng.getrandbits(base.n) << 1)
        work.items.append(_witness_item(lib, f"random m={m} a={a}", eq, scrambled))
    for _ in range(ORACLE_SAMPLES):
        eq = lib.RadoEquation(rng.randint(3, 6), rng.randint(1, 6))
        n = rng.randint(0, ORACLE_N_MAX)
        work.oracle.append((eq, lib.Coloring(n, rng.getrandbits(n) << 1)))
    return work


def check_oracle(lib, work: Workload) -> list[str]:
    """Fast checker and naive oracle must agree on existence of a solution."""
    failures = []
    for eq, col in work.oracle:
        fast = lib.find_mono_solution(col, eq) is None
        slow = lib.naive_find_mono_solution(col, eq) is None
        if fast != slow:
            failures.append(f"oracle disagrees on m={eq.m} a={eq.a} coloring {col.to_dict()}")
    return failures
