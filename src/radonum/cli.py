"""Command line front end.

Subcommands:
  formula   print C(m, a), optionally with the base-a breakdown
  construct emit the lower-bound coloring (or a hand-built small case)
  check     test a coloring file for monochromatic solutions
  exact     exhaustive search for the Rado number, with certificate output
  sweep     exact search across a range of m, compared against known values
  selftest  built-in consistency run (known values + oracle agreement)

Exit codes: 0 success / VALID, 1 failure / witness found / cutoff,
2 usage or input errors; a stdout closed early ends the process by SIGPIPE,
141 in a shell. JSON output is byte-stable: keys sorted, red
elements ascending, one trailing newline.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from . import __version__
from .checker import find_mono_solution, naive_find_mono_solution
from .construction import lower_bound_coloring, small_case_coloring
from .core import Coloring, RadoEquation, json_int
from .formula import ceiling_formula, closed_form, decompose, known_rado_number
from .search import exact_rado_number


def dumps(obj) -> str:
    """Canonical JSON encoding used for every file and stdout document."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _equation_from_dict(data: dict) -> RadoEquation:
    return RadoEquation(json_int(data["m"], "m"), json_int(data["a"], "a"))


@dataclass(frozen=True, slots=True)
class CertificateFile:
    """A coloring of one equation claimed to have no monochromatic solution.

    `radonum check` reads back only the coloring and the equation and
    re-runs the checker, so it trusts neither the claim nor the tool version.
    """

    equation: RadoEquation
    coloring: Coloring
    claim: str

    def __post_init__(self) -> None:
        if self.claim != "valid":
            raise ValueError(f"claim must be 'valid', got {self.claim!r}")

    def to_dict(self) -> dict:
        return {
            "equation": {"m": self.equation.m, "a": self.equation.a},
            "coloring": self.coloring.to_dict(),
            "claim": self.claim,
            "tool_version": __version__,
        }


def write_certificate(path: str | Path, cert: CertificateFile) -> None:
    Path(path).write_text(dumps(cert.to_dict()), encoding="utf-8")


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object for {what}")
    return value


def _load_coloring_file(path: str | Path) -> tuple[Coloring, RadoEquation | None]:
    """Read either a bare coloring document or a certificate wrapping one."""
    data = _json_object(json.loads(Path(path).read_text(encoding="utf-8")), "the document")
    if "coloring" in data:
        eq = None
        if "equation" in data:
            eq = _equation_from_dict(_json_object(data["equation"], "equation"))
        return Coloring.from_dict(_json_object(data["coloring"], "coloring")), eq
    return Coloring.from_dict(data), None


def _cmd_formula(args) -> int:
    eq = RadoEquation(args.m, args.a)
    bd = decompose(eq) if args.breakdown else None  # raises for a = 1 before any output
    print(ceiling_formula(eq))
    if bd is not None:
        case = "c=1" if bd.c == 1 else ("c=0" if bd.c == 0 else "2<=c<=a-1")
        print(f"breakdown: u={bd.u} v={bd.v} c={bd.c} t={bd.t}")
        print(f"case: {case}")
        print(f"closed_form: {closed_form(eq)}")
    return 0


def _print_verdict(col: Coloring, eq: RadoEquation) -> int:
    """Print VALID and return 0, or print the first witness as JSON and return 1."""
    witness = find_mono_solution(col, eq)
    if witness is None:
        print("VALID")
        return 0
    sys.stdout.write(dumps(witness.to_dict()))
    return 1


def _cmd_construct(args) -> int:
    if args.small_case is not None:
        if args.m is not None or args.a is not None:
            raise ValueError("pass --small-case alone, or --m and --a")
        eq = RadoEquation(args.small_case, 3)
        col = small_case_coloring(args.small_case)
    elif args.m is not None and args.a is not None:
        eq = RadoEquation(args.m, args.a)
        col = lower_bound_coloring(eq)
    else:
        raise ValueError("need either --m and --a, or --small-case")
    payload = dumps(col.to_dict())
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
        print(f"wrote {args.out} (n={col.n}, red={list(col.red_elements())})")
    else:
        sys.stdout.write(payload)
    return _print_verdict(col, eq) if args.verify else 0


def _cmd_check(args) -> int:
    if (args.m is None) != (args.a is None):
        raise ValueError("pass both --m and --a, or neither")
    col, embedded_eq = _load_coloring_file(args.file)
    if args.m is not None:
        eq = RadoEquation(args.m, args.a)
    elif embedded_eq is not None:
        eq = embedded_eq
    else:
        raise ValueError("the file carries no equation; pass --m and --a")
    return _print_verdict(col, eq)


def _cmd_exact(args) -> int:
    eq = RadoEquation(args.m, args.a)
    if args.cert:  # an unwritable path fails now, not after the search
        open(args.cert, "a", encoding="utf-8").close()
    outcome = exact_rado_number(eq, n_max=args.n_max, timeout=args.timeout)
    print(
        f"# deepest_valid={outcome.certificate.n} nodes={outcome.stats.nodes} "
        f"checks={outcome.stats.checks} millis={outcome.stats.millis:.1f} "
        f"stop={outcome.stats.stop} seed={outcome.stats.seed}",
        file=sys.stderr,
    )
    if args.cert:
        write_certificate(
            args.cert, CertificateFile(eq, outcome.certificate, "valid")
        )
    if outcome.exact:
        print(outcome.rado_number)
        return 0
    print(f"cutoff deepest_valid={outcome.certificate.n}")
    return 1


def _sweep_rows(
    a: int, m_from: int, m_to: int, n_max: int, timeout: float | None = None
) -> Iterator[dict]:
    """Run an exact search for each m in [m_from, m_to] and yield its report row
    as the search ends: the search next to the known value.

    agree is True or False only when both sides are conclusive (an exact
    search and a known value), otherwise None. A per-search timeout turns its
    row into a cutoff; the sweep itself goes on.
    """
    if m_from < 2 or m_to < m_from:
        raise ValueError(f"need 2 <= m_from <= m_to, got [{m_from}, {m_to}]")
    for m in range(m_from, m_to + 1):
        eq = RadoEquation(m, a)
        outcome = exact_rado_number(eq, n_max=n_max, timeout=timeout)
        known = known_rado_number(eq)
        exact, formula = outcome.rado_number, None if known is None else known.value
        yield {
            "m": m,
            "a": a,
            "exact": exact,
            "formula": formula,
            "agree": None if exact is None or formula is None else exact == formula,
            "nodes": outcome.stats.nodes,
            "millis": round(outcome.stats.millis, 3),
        }


def _format_row(row: dict) -> str:
    def show(key):
        value = row[key]
        if value is None:
            return "-"
        if key == "agree":
            return "yes" if value else "no"
        return str(value)

    return (
        f"m={row['m']} a={row['a']} exact={show('exact')} formula={show('formula')} "
        f"agree={show('agree')} nodes={row['nodes']}"
    )


def _cmd_sweep(args) -> int:
    if args.report:  # an unwritable path fails now, not after every row
        open(args.report, "a", encoding="utf-8").close()
    rows = []
    for row in _sweep_rows(args.a, args.m_from, args.m_to, args.n_max, args.timeout):
        # timings vary from run to run, so they go to stderr and stdout stays byte-stable;
        # each row is flushed as its search ends, so a reader on a pipe sees it then
        print(f"# m={row['m']} a={row['a']} millis={row['millis']}", file=sys.stderr)
        print(_format_row(row), flush=True)
        rows.append(row)
    if args.report:
        Path(args.report).write_text(dumps(rows), encoding="utf-8")
    return 1 if any(row["agree"] is False for row in rows) else 0


def _cmd_selftest(args) -> int:
    failures = 0

    for row in _sweep_rows(3, 3, 10, n_max=12):
        ok = row["agree"] is True
        failures += not ok
        print(
            f"{'PASS' if ok else 'FAIL'} exact L({row['m']},3) = {row['exact']} "
            f"(known {row['formula']})"
        )

    oracle_eqs = [(3, 1), (3, 3), (4, 3), (5, 3), (5, 2)]
    for m, a in oracle_eqs:
        eq = RadoEquation(m, a)
        mismatches = 0
        total = 0
        for n in range(0, 7):
            for red in range(1 << n):
                col = Coloring(n, red << 1)
                total += 1
                fast = find_mono_solution(col, eq)
                slow = naive_find_mono_solution(col, eq)
                if (fast is None) != (slow is None):
                    mismatches += 1
        ok = mismatches == 0
        failures += not ok
        print(
            f"{'PASS' if ok else 'FAIL'} oracle agreement L({m},{a}) "
            f"on {total} colorings of [0..6]"
        )

    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing items")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radonum",
        description="2-color Rado numbers of x1 + ... + x_{m-1} = a*x_m",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formula", help="print C(m, a)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--breakdown", action="store_true", help="also print u, v, c, t and the closed form")
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("construct", help="emit a solution-free coloring")
    p.add_argument("--m", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--small-case", type=int, dest="small_case", metavar="M",
                   help="hand-built a=3 extremal coloring, M in {5, 6}")
    p.add_argument("--verify", action="store_true", help="re-check the coloring before exiting")
    p.add_argument("--out", help="write the coloring JSON here instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check", help="search a coloring file for monochromatic solutions")
    p.add_argument("--file", required=True, help="coloring JSON or certificate JSON")
    p.add_argument("--m", type=int)
    p.add_argument("--a", type=int)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("exact", help="exhaustive Rado number search")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n-max", type=int, default=24, dest="n_max")
    p.add_argument("--timeout", type=float, default=None, help="search timeout in seconds")
    p.add_argument("--cert", help="write a validity certificate for the deepest coloring")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("sweep", help="exact search across a range of m")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--m-from", type=int, required=True, dest="m_from")
    p.add_argument("--m-to", type=int, required=True, dest="m_to")
    p.add_argument("--n-max", type=int, default=24, dest="n_max")
    p.add_argument("--timeout", type=float, default=None, help="per-entry timeout in seconds")
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("selftest", help="consistency run: known values and oracle agreement")
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv and execute one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except KeyError as exc:  # a JSON document without a field it needs
        print(f"error: missing field {exc.args[0]!r}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError, TypeError) as exc:
        # bad parameters, bad files, malformed or wrongly shaped JSON documents
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the process as it ends `cat`
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
