"""Benchmark for radonum: the deep, atlas and certify workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 30 --trace 0

One process and one client with threads=1: each item starts when the previous
one ends (a closed loop). The timed phase repeats whole passes over the
workload's items until --seconds have elapsed; each pass's answers are checked
after the pass, outside the timed region. --trace 0 prints the end-to-end
metrics. --trace 1 alternates untraced and traced passes and prints the
per-layer metrics.

Times are reported in reference seconds. Between timed calls the benchmark
runs a fixed speed probe for about PROBE_SHARE of the elapsed time, and each
measurement is scaled by the probe's reference speed over its mean speed
within PROBE_WINDOW_S of the measurement. A shared 2-vCPU virtual machine
changed speed by up to 40% for minutes at a time and by about 13% from one
tenth of a second to the next; the probe slows with the machine, while a
change in radonum leaves it alone.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A side file under perfbench/out/ keeps the environment,
the measured seconds and probe readings behind the reported numbers, and,
when traced, every span.

radonum is imported from src/ of the checkout that holds this file and from
nowhere else; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from tracing import NO_TRACE, NOTE, Trace, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
WARM_UP = (18, 2)  # one small exact search, about 0.1 s
CLI_REPEATS = 7
REFERENCE_CHUNK_S = 0.0055  # one probe chunk's time at the reference speed
PROBE_SHARE = 0.05
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 5.0
TIME_UNITS = {"s", "ms", "us"}
SPAN_FIELDS = ["id", "parent", "name", "item", "start", "end", "note"]


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def probe_chunk() -> None:
    """A fixed stdlib-only loop: big-integer shifts as in the sumset kernel,
    then small-integer interpreter work as in the formula layer."""
    big = (1 << 320) - 1
    acc = 0
    for i in range(12_500):
        acc |= (big << (i & 63)) & big
    for i in range(27_500):
        acc ^= i * i


class SpeedProbe:
    """Probe readings between timed calls: every PROBE_EVERY_S or more, chunks
    for about PROBE_SHARE of the time since the last reading, so that the
    readings sample the machine's speed evenly over the run."""

    def __init__(self) -> None:
        self.readings: list[tuple[float, int, float]] = []  # (taken at, chunks, seconds)
        self._last = perf_counter() - 1.0

    def maybe(self) -> float:
        """Take a reading if one is due; returns the seconds it took."""
        now = perf_counter()
        since = now - self._last
        if since < PROBE_EVERY_S:
            return 0.0
        chunks = max(1, round(PROBE_SHARE * min(since, 10.0) / REFERENCE_CHUNK_S))
        for _ in range(chunks):
            probe_chunk()
        self._last = perf_counter()
        self.readings.append((now, chunks, self._last - now))
        return self._last - now

    def convert(self, passes: list[Pass]) -> None:
        """Set each pass's scale from the readings around it."""
        self.maybe()
        for p in passes:
            p.scale = self.scale(p.begin, p.end)

    def scale(self, begin: float, end: float) -> float:
        """Factor from seconds measured between begin and end to reference seconds."""
        near = [r for r in self.readings if begin - PROBE_WINDOW_S <= r[0] <= end + PROBE_WINDOW_S]
        if not near:
            near = [min(self.readings, key=lambda r: abs(r[0] - end))]
        return REFERENCE_CHUNK_S * sum(r[1] for r in near) / sum(r[2] for r in near)


def import_radonum():
    """Import radonum and radonum.cli afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "radonum" or n.startswith("radonum.")]:
        del sys.modules[name]
    lib = importlib.import_module("radonum")
    importlib.import_module("radonum.cli")
    if Path(lib.__file__).resolve().parent != SRC / "radonum":
        raise ImportError(f"radonum was imported from {lib.__file__}, not from {SRC}")
    return lib


@dataclass
class Setup:
    seconds: float
    lib: object
    work: workloads.Workload
    warm_up: object  # the warm-up search's outcome


def setup(name: str, seed: int) -> Setup:
    """Import, input generation and a warm-up search, timed together."""
    start = perf_counter()
    lib = import_radonum()
    work = workloads.build(lib, name, seed)
    eq = lib.RadoEquation(*WARM_UP)
    outcome = lib.exact_rado_number(eq, n_max=lib.ceiling_formula(eq) + 8)
    return Setup(perf_counter() - start, lib, work, outcome)


class Raised:
    """Stands in for the answer of an item whose call raised."""

    def __init__(self) -> None:
        self.text = traceback.format_exc()


@dataclass
class Pass:
    begin: float
    end: float
    wall: float  # measured seconds, probe readings left out
    latencies: list[float]  # measured seconds per item
    scale: float = 1.0  # to reference seconds, set once the probes around the pass are in


class Runner:
    """Runs passes over one workload and checks every answer after its pass."""

    def __init__(self, work: workloads.Workload, probe: SpeedProbe) -> None:
        self.work = work
        self.probe = probe
        self.next_id = 0
        self.failures: list[str] = []
        self.attempted = 0
        self.last_answers: list = []

    def passes(self, seconds: float, trace) -> list[Pass]:
        """Whole passes until `seconds` have elapsed; at least one."""
        out: list[Pass] = []
        start = perf_counter()
        while not out or perf_counter() - start < seconds:
            latencies, answers = [], []
            probing = 0.0
            begin = perf_counter()
            for item in self.work.items:
                probing += self.probe.maybe()
                item_id = self.next_id
                self.next_id += 1
                t0 = perf_counter()
                try:
                    with trace.span("item", item_id) as rec:
                        rec[NOTE] = item.kind
                        answers.append(item.run(trace, item_id))
                except Exception:  # the item failed; the gate counts it
                    answers.append(Raised())
                latencies.append(perf_counter() - t0)
            end = perf_counter()
            out.append(Pass(begin, end, end - begin - probing, latencies))
            for item, answer in zip(self.work.items, answers):
                self.gate(item, answer)
            self.last_answers = answers
        return out

    def gate(self, item: workloads.Item, answer) -> None:
        self.attempted += 1
        if isinstance(answer, Raised):
            reason = answer.text
        else:
            try:
                reason = item.check(answer, item.expect)
            except Exception:
                reason = traceback.format_exc()
        if reason:
            self.failures.append(f"{item.key}: {reason}")


def quantile(samples: list[float], q: int) -> float:
    """The q-th percentile of the samples, interpolated between order statistics."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    latencies = [x * p.scale for p in passes for x in p.latencies]
    return {
        "wall_s": statistics.median(p.wall * p.scale for p in passes),
        "item_p50_ms": quantile(latencies, 50) * 1e3,
        "item_p90_ms": quantile(latencies, 90) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def fanout2_speedup(lib, runner: Runner, threads1_wall: float) -> float:
    """Reference wall time of a pass at threads=1 over one at threads=2; 0 without searches."""
    items = [item for item in runner.work.items if item.search]
    if not items:
        return 0.0
    answers = []
    start = perf_counter()
    for item in items:
        eq, n_max = item.search
        try:
            answers.append(lib.exact_rado_number(eq, n_max=n_max, threads=2))
        except Exception:
            answers.append(Raised())
    end = perf_counter()
    runner.probe.maybe()
    wall = (end - start) * runner.probe.scale(start, end)
    for item, answer in zip(items, answers):
        runner.gate(item, answer)
    return threads1_wall / wall


def cli_check_ms(lib, runner: Runner, trace: Trace, tag: str) -> float:
    """Median reference time of `radonum check` on certify's largest certificate, stdout captured."""
    points = workloads.certify_points(lib)
    eq = lib.RadoEquation(*max(points, key=lambda p: lib.ceiling_formula(lib.RadoEquation(*p))))
    path = OUT / f"{tag}-certificate.json"
    lib.cli.write_certificate(path, lib.cli.CertificateFile(eq, lib.lower_bound_coloring(eq), "valid"))
    times = []
    begin = perf_counter()
    for _ in range(CLI_REPEATS):
        item_id = runner.next_id
        runner.next_id += 1
        stdout = io.StringIO()
        t0 = perf_counter()
        with trace.span("cli", item_id), redirect_stdout(stdout):
            code = lib.cli.run(["check", "--file", str(path)])
        times.append(perf_counter() - t0)
        runner.attempted += 1
        if (code, stdout.getvalue()) != (0, "VALID\n"):
            runner.failures.append(f"cli check m={eq.m} a={eq.a}: exit {code}, {stdout.getvalue()!r}")
    end = perf_counter()
    runner.probe.maybe()
    return statistics.median(times) * runner.probe.scale(begin, end) * 1e3


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, loadavg_start) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg_start,
        "loadavg_end": os.getloadavg(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["deep", "atlas", "certify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "radonum" / "__init__.py").is_file():
        print(f"error: no radonum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    loadavg_start = os.getloadavg()
    units = declared_units(args.trace)
    probe = SpeedProbe()

    setup_times, warm_ups = [], []
    begin = perf_counter()
    for _ in range(SETUP_REPEATS):
        s = None
        gc.collect()  # the previous set-up's garbage is not this one's cost
        probe.maybe()
        s = setup(args.workload, args.seed)
        setup_times.append(s.seconds)
        warm_ups.append(s.warm_up)
    setup_span = (begin, perf_counter())
    lib, work = s.lib, s.work
    runner = Runner(work, probe)
    expect_warm_up = lib.ceiling_formula(lib.RadoEquation(*WARM_UP))
    for outcome in warm_ups:
        runner.attempted += 1
        if (outcome.status, outcome.rado_number) != ("exact", expect_warm_up):
            runner.failures.append(f"warm-up search: {outcome.status} {outcome.rado_number}")

    trace = Trace()
    if args.trace:
        # Alternate untraced and traced passes, so a drift in machine speed
        # does not read as tracing overhead.
        plain, traced = [], []
        start = perf_counter()
        while not plain or perf_counter() - start < args.seconds:
            plain += runner.passes(0.0, NO_TRACE)
            traced += runner.passes(0.0, trace)
        probe.convert(plain + traced)
        plain_wall = statistics.median(p.wall * p.scale for p in plain)
        scale = statistics.median(p.scale for p in traced)
        metrics = {
            name: value * scale if units[name] in TIME_UNITS else value
            for name, value in layer_metrics(trace.spans, len(traced)).items()
        }
        metrics["search.fanout2_speedup"] = fanout2_speedup(lib, runner, plain_wall)
        metrics["cli.check_ms"] = cli_check_ms(lib, runner, trace, f"{args.workload}-seed{args.seed}")
        metrics["trace.overhead_frac"] = statistics.median(p.wall * p.scale for p in traced) / plain_wall - 1
        passes = plain + traced
    else:
        passes = runner.passes(args.seconds, NO_TRACE)
        probe.convert(passes)
        metrics = end_to_end(passes, statistics.median(setup_times) * probe.scale(*setup_span))

    runner.failures.extend(workloads.check_oracle(lib, work))
    runner.attempted += len(work.oracle)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    env = environment(args.seed, loadavg_start)
    item_samples = sum(len(p.latencies) for p in passes)
    side = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "fail_frac": result["failed"] / result["attempted"],
        "failures": runner.failures,
        "items_per_pass": len(work.items),
        "item_samples": item_samples,
        "setup_s_measured": setup_times,
        "pass_walls_s_measured": [p.wall for p in passes],
        "pass_scales": [p.scale for p in passes],
        "probe_readings": probe.readings,
        "reference_chunk_s": REFERENCE_CHUNK_S,
        "result": result,
        "span_fields": SPAN_FIELDS,
        "spans": trace.spans,
    }
    side_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    side_path.write_text(json.dumps(side) + "\n", encoding="utf-8")
    for failure in runner.failures[:10]:
        print(f"FAIL {failure}", file=sys.stderr)
    print("environment " + json.dumps(env))
    print(f"passes {len(passes)}, item samples {item_samples}, "
          f"fail_frac {side['fail_frac']} ({result['failed']} of {result['attempted']})")
    print(f"side file {side_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
