"""In-memory spans around the benchmark's calls into radonum layers.

A span is one call from benchmark code into a layer: its name, start, end,
parent span and the id of the item it belongs to, plus an optional note
(call counts, the checker's verdict, search statistics). Spans live in memory
until the run ends; layer_metrics turns them into per-layer numbers.

Layer names are the radonum modules: search, checker, formula, construction
and cli. core has no boundary of its own, so its cost shows up inside the
self time of every other layer.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter

# span record fields
ID, PARENT, NAME, ITEM, START, END, NOTE = range(7)


class Trace:
    """Records spans; the untraced benchmark uses NO_TRACE instead."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, item: int):
        rec = [len(self.spans), self._open[-1] if self._open else None, name, item, 0.0, 0.0, None]
        self.spans.append(rec)
        self._open.append(rec[ID])
        rec[START] = perf_counter()
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._open.pop()


class _NoTrace:
    """Same interface as Trace; records nothing."""

    _null = nullcontext([None] * 7)

    def span(self, name: str, item: int):
        return self._null


NO_TRACE = _NoTrace()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] is not None:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer counts and times, each divided by the number of traced passes.

    Every pass runs the same items, so per-pass counts repeat exactly from
    run to run; times are per-pass means. A layer the workload never calls
    reports zero counts and zero times.
    """
    layer_self: dict[str, float] = {}
    time_of: dict[str, float] = {}
    count_of: dict[str, int] = {}

    def add(key: str, seconds: float, calls: int = 1) -> None:
        time_of[key] = time_of.get(key, 0.0) + seconds
        count_of[key] = count_of.get(key, 0) + calls

    for rec, own in zip(spans, self_times(spans)):
        name, note = rec[NAME], rec[NOTE]
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if name == "item":
            add(f"item.{note}", 0.0)  # note is the item kind
        elif name == "search":
            add("search", own, note["nodes"])
            add("search.checks", 0.0, note["checks"])
            add("search.cutoffs", 0.0, note["status"] == "cutoff")
        elif name == "checker.find":
            add(f"checker.{note}", own)  # note is "valid" or "witness"
        elif name == "checker.verify":
            add("checker.verify", own)
            add("checker.verified", 0.0, int(note))
        elif name == "formula":
            add("formula", own, note)  # note is the number of formula calls
        elif name == "construction":
            add("construction", own)

    def count(key: str) -> int | float:
        value = count_of.get(key, 0) / passes
        return int(value) if value.is_integer() else value

    def us_per_call(key: str) -> float:
        calls = count_of.get(key, 0)
        return time_of[key] / calls * 1e6 if calls else 0.0

    def ratio(num: str, den: str) -> float:
        return count_of.get(num, 0) / count_of[den] if count_of.get(den) else 0.0

    def self_s(layer: str) -> float:
        return layer_self.get(layer, 0.0) / passes

    return {
        "search.nodes": count("search"),
        "search.checks": count("search.checks"),
        "search.checks_per_node": ratio("search.checks", "search"),
        "search.us_per_node": us_per_call("search"),
        "search.self_s": self_s("search"),
        "search.cutoffs": count("search.cutoffs"),
        "checker.valid_calls": count("checker.valid"),
        "checker.valid_us_per_call": us_per_call("checker.valid"),
        "checker.witness_calls": count("checker.witness"),
        "checker.witness_us_per_call": us_per_call("checker.witness"),
        "checker.verify_us_per_call": us_per_call("checker.verify"),
        "checker.witness_verified_frac": ratio("checker.verified", "item.witness"),
        "checker.self_s": self_s("checker"),
        "formula.calls": count("formula"),
        "formula.us_per_call": us_per_call("formula"),
        "formula.self_s": self_s("formula"),
        "construction.calls": count("construction"),
        "construction.us_per_call": us_per_call("construction"),
    }
