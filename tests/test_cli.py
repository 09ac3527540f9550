"""Command line surface: exit codes, JSON documents, pipelines."""

import ast
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import radonum
from radonum import (
    Color,
    Coloring,
    KnownNumber,
    KnownSource,
    RadoEquation,
    Witness,
    is_valid_coloring,
    verify_witness,
)
from radonum.cli import CertificateFile, dumps, run

# the bytes of `radonum exact --m 3 --a 3 --cert cert.json`, as shown in README.md
CERT_3_3 = """\
{
  "claim": "valid",
  "coloring": {
    "n": 8,
    "red": [
      1,
      3,
      4,
      7
    ]
  },
  "equation": {
    "a": 3,
    "m": 3
  },
  "tool_version": "0.1.0"
}
"""


def read_certificate_coloring(path):
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return Coloring.from_dict(data["coloring"]), data


def test_formula_prints_value(capsys):
    assert run(["formula", "--m", "14", "--a", "3"]) == 0
    assert capsys.readouterr().out == "22\n"


def test_formula_breakdown(capsys):
    assert run(["formula", "--m", "14", "--a", "3", "--breakdown"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "22"
    assert out[1] == "breakdown: u=1 v=1 c=2 t=1"
    assert out[2] == "case: 2<=c<=a-1"
    assert out[3] == "closed_form: 22"


def test_formula_breakdown_rejects_a1(capsys):
    assert run(["formula", "--m", "5", "--a", "1", "--breakdown"]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # nothing printed before the error
    assert "error" in err


def test_usage_errors_exit_2(capsys):
    assert run(["formula", "--m", "14"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["formula", "--m", "1", "--a", "3"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_construct_stdout_json(capsys):
    assert run(["construct", "--m", "8", "--a", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"n": 6, "red": [1, 2]}


def test_construct_verify_and_out(tmp_path, capsys):
    out_file = tmp_path / "coloring.json"
    code = run(["construct", "--m", "8", "--a", "3", "--verify", "--out", str(out_file)])
    assert code == 0
    assert "VALID" in capsys.readouterr().out
    data = json.loads(out_file.read_text())
    assert data == {"n": 6, "red": [1, 2]}


def test_construct_small_case(capsys):
    assert run(["construct", "--small-case", "6", "--verify"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out.split("VALID")[0]) == {"n": 4, "red": [1, 4]}


def test_construct_needs_parameters(capsys):
    assert run(["construct"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags", [
    ["--m", "3", "--a", "3"],
    ["--m", "3"],
    ["--a", "3"],
])
def test_construct_small_case_conflicts_exit_2(flags, capsys):
    # --small-case picks its own equation, so --m or --a next to it is refused
    assert run(["construct", *flags, "--small-case", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "--small-case" in captured.err


def test_check_valid_coloring(tmp_path, capsys):
    path = tmp_path / "col.json"
    path.write_text(dumps({"n": 6, "red": [1, 2]}))
    assert run(["check", "--file", str(path), "--m", "8", "--a", "3"]) == 0
    assert capsys.readouterr().out == "VALID\n"


def test_check_empty_coloring_is_valid(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(dumps({"n": 0, "red": []}))
    assert run(["check", "--file", str(path), "--m", "5", "--a", "3"]) == 0
    assert capsys.readouterr().out == "VALID\n"


def test_check_finds_witness(tmp_path, capsys):
    path = tmp_path / "col.json"
    path.write_text(dumps({"n": 4, "red": [1, 2, 3, 4]}))
    assert run(["check", "--file", str(path), "--m", "3", "--a", "1"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["color"] == "red"
    values = tuple(value for count, value in data["groups"] for _ in range(count))
    witness = Witness(values, Color(data["color"]))
    assert verify_witness(witness, Coloring.from_red(4, [1, 2, 3, 4]), RadoEquation(3, 1))


def test_check_needs_equation(tmp_path, capsys):
    path = tmp_path / "col.json"
    path.write_text(dumps({"n": 2, "red": [1]}))
    assert run(["check", "--file", str(path)]) == 2
    assert "equation" in capsys.readouterr().err


def test_check_lone_equation_flag_exits_2(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["exact", "--m", "3", "--a", "3", "--cert", str(cert_path)]) == 0
    capsys.readouterr()
    # the (3, 3) coloring has a (5, 3) witness, so a lone --m must not fall
    # back to the embedded equation and print VALID
    for flag in (["--m", "5"], ["--a", "3"]):
        assert run(["check", "--file", str(cert_path), *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--m and --a" in captured.err
    assert run(["check", "--file", str(cert_path), "--m", "5", "--a", "3"]) == 1
    capsys.readouterr()


def test_check_missing_file(tmp_path, capsys):
    assert run(["check", "--file", str(tmp_path / "nope.json"), "--m", "3", "--a", "3"]) == 2
    capsys.readouterr()


def test_exact_prints_number_and_writes_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = run(["exact", "--m", "3", "--a", "3", "--cert", str(cert_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "9\n"
    col, data = read_certificate_coloring(cert_path)
    assert data["claim"] == "valid"
    assert col.n == 8
    assert is_valid_coloring(col, RadoEquation(3, 3))


def test_exact_then_check_round_trip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["exact", "--m", "5", "--a", "3", "--cert", str(cert_path)]) == 0
    capsys.readouterr()
    # the certificate embeds the equation, so check needs no --m/--a
    assert run(["check", "--file", str(cert_path)]) == 0
    assert capsys.readouterr().out == "VALID\n"


def test_exact_cutoff_exits_1(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = run(["exact", "--m", "2", "--a", "3", "--n-max", "6", "--cert", str(cert_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("cutoff deepest_valid=6")
    assert captured.err.endswith(" stop=n_max seed=0\n")  # C(2, 3) = 1: no goal
    col, _ = read_certificate_coloring(cert_path)
    assert col.n == 6
    assert is_valid_coloring(col, RadoEquation(2, 3))


def no_search(*args, **kwargs):
    raise AssertionError("the search ran")


def test_exact_unwritable_cert_fails_before_the_search(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("radonum.cli.exact_rado_number", no_search)
    code = run(["exact", "--m", "3", "--a", "3", "--cert", str(tmp_path / "missing" / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_exact_threads_flag_and_env(capsys, monkeypatch):
    # the search runs on one thread: there is no --threads flag and no RADO_THREADS
    assert run(["exact", "--m", "3", "--a", "3", "--threads", "1"]) == 2
    assert run(["sweep", "--a", "3", "--m-from", "3", "--m-to", "3", "--threads", "1"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("RADO_THREADS", "not-a-number")
    assert run(["exact", "--m", "3", "--a", "3"]) == 0
    assert capsys.readouterr().out == "9\n"


def test_exact_timeout_flag(capsys):
    assert run(["exact", "--m", "3", "--a", "3"]) == 0
    plain = capsys.readouterr().out
    assert run(["exact", "--m", "3", "--a", "3", "--timeout", "1"]) == 0
    assert capsys.readouterr().out == plain == "9\n"
    # an expired deadline reaches the search and turns the answer into a cutoff
    assert run(["exact", "--m", "5", "--a", "1", "--timeout", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("cutoff deepest_valid=")
    assert captured.err.endswith(" stop=timeout seed=15\n")  # C(5, 1) - 1 = 15


@pytest.mark.parametrize("command", [
    ["exact", "--m", "3", "--a", "3"],
    ["sweep", "--a", "3", "--m-from", "3", "--m-to", "4"],
])
@pytest.mark.parametrize("timeout", ["nan", "-1"])
def test_timeout_must_be_a_nonnegative_number(command, timeout, capsys):
    assert run([*command, "--timeout", timeout]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "timeout" in captured.err


def test_sweep_output_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = run([
        "sweep", "--a", "3", "--m-from", "3", "--m-to", "6",
        "--n-max", "12", "--report", str(report),
    ])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "m=3 a=3 exact=9 formula=9 agree=yes nodes=10"
    # the timing of each row goes to stderr and into the report, not to stdout
    assert "millis" not in captured.out
    timings = captured.err.strip().splitlines()
    assert [line.split(" millis=")[0] for line in timings] == [f"# m={m} a=3" for m in range(3, 7)]
    rows = json.loads(report.read_text())
    assert [row["exact"] for row in rows] == [9, 1, 4, 5]
    assert all(row["agree"] is True for row in rows)
    assert all(row["millis"] >= 0 for row in rows)


def test_sweep_unwritable_report_fails_before_the_first_row(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("radonum.cli.exact_rado_number", no_search)
    report = tmp_path / "missing" / "report.json"
    code = run(["sweep", "--a", "3", "--m-from", "3", "--m-to", "6", "--report", str(report)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_sweep_stdout_is_byte_stable(capsys):
    outs = []
    for _ in range(2):
        assert run(["sweep", "--a", "3", "--m-from", "3", "--m-to", "8"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[-1] == "m=8 a=3 exact=7 formula=7 agree=yes nodes=8"


def test_sweep_unknown_regime_prints_dashes(capsys):
    assert run(["sweep", "--a", "4", "--m-from", "6", "--m-to", "6", "--n-max", "8"]) == 0
    line = capsys.readouterr().out.strip()
    assert "formula=- agree=-" in line


def test_sweep_n_max_above_32(capsys):
    code = run(["sweep", "--a", "3", "--m-from", "19", "--m-to", "19", "--n-max", "40"])
    assert code == 0
    assert capsys.readouterr().out.startswith("m=19 a=3 exact=36 formula=36 agree=yes")


def test_sweep_a1_rows_agree(capsys):
    # L(3, 1) = 5 and L(4, 1) = 11, the a = 1 values m*m - m - 1
    assert run(["sweep", "--a", "1", "--m-from", "3", "--m-to", "4", "--n-max", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" nodes=")[0] for line in lines] == [
        "m=3 a=1 exact=5 formula=5 agree=yes",
        "m=4 a=1 exact=11 formula=11 agree=yes",
    ]


@pytest.mark.parametrize("m_from, m_to", [("5", "4"), ("1", "3")])
def test_sweep_rejects_bad_m_range(m_from, m_to, capsys):
    assert run(["sweep", "--a", "3", "--m-from", m_from, "--m-to", m_to]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2 <= m_from <= m_to" in captured.err


def test_sweep_timeout_zero_cuts_off_each_row(capsys):
    # a per-search timeout turns each m into a cutoff; the sweep itself goes on
    code = run(["sweep", "--a", "1", "--m-from", "4", "--m-to", "5", "--n-max", "30",
                "--timeout", "0"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" nodes=")[0] for line in lines] == [
        "m=4 a=1 exact=- formula=11 agree=-",
        "m=5 a=1 exact=- formula=19 agree=-",
    ]


def cli_process(*args, **kwargs):
    """Run the command line in a fresh interpreter that imports this radonum, with
    stdout block-buffered as it is on a pipe unless PYTHONUNBUFFERED is set."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(radonum.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


# the command line with each search announced on fd 1 by an unbuffered write, so the
# announcements land in the pipe at once and each row only when it is flushed
ANNOUNCED_SEARCHES = """\
import os, sys
from radonum import cli
search = cli.exact_rado_number
def announced(eq, **kwargs):
    os.write(1, f"search m={eq.m}\\n".encode())
    return search(eq, **kwargs)
cli.exact_rado_number = announced
sys.exit(cli.run(sys.argv[1:]))
"""


def test_sweep_prints_each_row_as_its_search_ends():
    proc = cli_process("-c", ANNOUNCED_SEARCHES, "sweep", "--a", "3", "--m-from", "3",
                       "--m-to", "5", capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "search m=3",
        "m=3 a=3 exact=9 formula=9 agree=yes nodes=10",
        "search m=4",
        "m=4 a=3 exact=1 formula=1 agree=yes nodes=1",
        "search m=5",
        "m=5 a=3 exact=4 formula=4 agree=yes nodes=4",
    ]
    # one timing line per row on stderr
    assert [line.split(" millis=")[0] for line in proc.stderr.splitlines()] == [
        f"# m={m} a=3" for m in range(3, 6)
    ]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_process_by_sigpipe():
    # as `radonum sweep ... | head -n 1` once head has exited: not an input error
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli_process("-m", "radonum.cli", "sweep", "--a", "3", "--m-from", "3",
                           "--m-to", "4", stdout=write_end, stderr=subprocess.PIPE,
                           text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == -signal.SIGPIPE
    assert "error:" not in proc.stderr


def sweep_report(tmp_path, capsys, a, m, n_max):
    """Exit code, stdout lines and report rows of a one-row sweep --report."""
    report = tmp_path / "report.json"
    code = run([
        "sweep", "--a", str(a), "--m-from", str(m), "--m-to", str(m),
        "--n-max", str(n_max), "--report", str(report),
    ])
    return code, capsys.readouterr().out.splitlines(), json.loads(report.read_text())


def test_sweep_report_row_shape(tmp_path, capsys):
    code, lines, rows = sweep_report(tmp_path, capsys, a=3, m=7, n_max=12)
    assert code == 0
    (row,) = rows
    assert sorted(row) == ["a", "agree", "exact", "formula", "m", "millis", "nodes"]
    assert row["m"] == 7 and row["a"] == 3
    assert row["exact"] == row["formula"] == 4
    assert row["agree"] is True
    assert lines == [f"m=7 a=3 exact=4 formula=4 agree=yes nodes={row['nodes']}"]


def test_sweep_report_unknown_regime_reads_null(tmp_path, capsys):
    # a = 4, m = 6: the search is exact, but no proven value covers the point
    code, lines, rows = sweep_report(tmp_path, capsys, a=4, m=6, n_max=8)
    assert code == 0
    (row,) = rows
    assert row["exact"] == 4
    assert row["formula"] is None and row["agree"] is None
    assert lines == [f"m=6 a=4 exact=4 formula=- agree=- nodes={row['nodes']}"]


def test_sweep_report_cutoff_reads_agree_null(tmp_path, capsys):
    # L(3, 3) = 9 lies beyond n_max = 5: a cutoff next to a known value
    code, lines, rows = sweep_report(tmp_path, capsys, a=3, m=3, n_max=5)
    assert code == 0
    (row,) = rows
    assert row["exact"] is None and row["formula"] == 9 and row["agree"] is None
    assert lines == [f"m=3 a=3 exact=- formula=9 agree=- nodes={row['nodes']}"]


def test_sweep_and_selftest_read_agree_false(tmp_path, capsys, monkeypatch):
    # the search is right, so a disagreement needs a wrong reference value
    wrong = KnownNumber(10, KnownSource.A3_SMALL)
    monkeypatch.setattr("radonum.cli.known_rado_number", lambda eq: wrong)
    code, lines, rows = sweep_report(tmp_path, capsys, a=3, m=3, n_max=12)
    assert code == 1
    (row,) = rows
    assert row["exact"] == 9 and row["formula"] == 10 and row["agree"] is False
    assert lines == [f"m=3 a=3 exact=9 formula=10 agree=no nodes={row['nodes']}"]
    assert run(["selftest"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "FAIL exact L(3,3) = 9 (known 10)"
    assert out[-1] == "FAILED: 8 failing items"


def test_exact_certificate_bytes(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["exact", "--m", "3", "--a", "3", "--cert", str(cert_path)]) == 0
    capsys.readouterr()
    assert cert_path.read_bytes() == CERT_3_3.encode()
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert f"```json\n{CERT_3_3}```" in readme.read_text(encoding="utf-8")


# exit code and stdout of README.md's examples, run in order in one directory
README_EXAMPLES = {
    "construct --m 14 --a 3 --verify": (0, """\
{
  "n": 21,
  "red": [
    1,
    2,
    3,
    4
  ]
}
VALID
"""),
    "construct --small-case 6": (0, """\
{
  "n": 4,
  "red": [
    1,
    4
  ]
}
"""),
    "construct --m 8 --a 3 --out coloring.json": (0, "wrote coloring.json (n=6, red=[1, 2])\n"),
    "check --file coloring.json --m 8 --a 3": (0, "VALID\n"),
    "check --file coloring.json --m 4 --a 3": (1, """\
{
  "color": "red",
  "groups": [
    [
      4,
      1
    ]
  ]
}
"""),
    "exact --m 3 --a 3 --cert cert.json": (0, "9\n"),
    "check --file cert.json": (0, "VALID\n"),
    "sweep --a 3 --m-from 3 --m-to 8": (0, """\
m=3 a=3 exact=9 formula=9 agree=yes nodes=10
m=4 a=3 exact=1 formula=1 agree=yes nodes=1
m=5 a=3 exact=4 formula=4 agree=yes nodes=4
m=6 a=3 exact=5 formula=5 agree=yes nodes=5
m=7 a=3 exact=4 formula=4 agree=yes nodes=5
m=8 a=3 exact=7 formula=7 agree=yes nodes=8
"""),
}


def without_millis(text):
    return re.sub(r"millis=[0-9.]+", "millis=_", text)


def test_readme_example_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for command, (want_code, want_out) in README_EXAMPLES.items():
        assert run(command.split()) == want_code, command
        captured = capsys.readouterr()
        assert captured.out == want_out, command
        # the README may show the stderr lines, timings aside, between command and stdout
        shown = re.search(re.escape(f"$ radonum {command}\n") + r"((?:# .*\n)*)"
                          + re.escape(want_out), readme)
        assert shown, command
        if shown[1]:
            assert without_millis(shown[1]) == without_millis(captured.err), command


def test_readme_library_block_runs():
    # each statement runs in order; an expression whose comment is a Python literal
    # must evaluate to that literal
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    lines = block.splitlines()
    namespace, checked = {}, 0
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(source, namespace)
            continue
        value = eval(source, namespace)
        try:
            want = ast.literal_eval(lines[node.end_lineno - 1].partition("#")[2].strip())
        except (ValueError, SyntaxError):
            continue
        assert value == want, source
        checked += 1
    assert checked == 3


def test_certificate_claim_validation():
    eq = RadoEquation(3, 3)
    with pytest.raises(ValueError):
        CertificateFile(eq, Coloring(0), "unknown")
    with pytest.raises(ValueError):
        CertificateFile(eq, Coloring(0), "witness")  # only "valid" is ever written


@pytest.mark.parametrize("equation, want_code, want_out", [
    ({"m": 3, "a": 3}, 0, "VALID\n"),
    # the (3, 3) coloring of [8] holds a (5, 3) solution
    ({"m": 5, "a": 3}, 1, None),
])
def test_check_trusts_neither_claim_nor_tool_version(
    tmp_path, capsys, equation, want_code, want_out
):
    data = json.loads(CERT_3_3)
    data["equation"] = equation
    outs = []
    for claim, version in [("valid", "0.1.0"), ("bogus", "9.9.9"), ("witness", "")]:
        data["claim"] = claim
        data["tool_version"] = version
        path = tmp_path / f"{claim}.json"
        path.write_text(dumps(data))
        assert run(["check", "--file", str(path)]) == want_code
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[2] == outs[0]
    if want_out is not None:
        assert outs[0] == want_out


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["check", "--file", str(path), "--m", "3", "--a", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("document", [
    [1, 2],
    "hello",
    {"n": 3, "red": 5},
    {"n": 3, "red": ["1"]},
    {"coloring": {"n": 3, "red": [1]}, "equation": [3, 3]},
    {"n": 3.7, "red": [1]},
    {"n": True, "red": [1]},
    {"n": 3, "red": [True]},
    {"n": 3, "red": [1.5]},
    {"coloring": {"n": 3, "red": [1]}, "equation": {"m": 3.5, "a": 3}},
    {"coloring": {"n": 3, "red": [1]}, "equation": {"m": 3, "a": True}},
])
def test_wrongly_shaped_json_exits_2(tmp_path, capsys, document):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(document))
    assert run(["check", "--file", str(path), "--m", "3", "--a", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(("document", "named"), [
    ([1, 2], "JSON object"),
    ("x", "JSON object"),
    (None, "JSON object"),
    ({"coloring": 5, "equation": {"m": 3, "a": 3}}, "JSON object for coloring"),
    ({"coloring": {"n": 3, "red": [1]}, "equation": {"m": 3}}, "missing field 'a'"),
    ({"n": 3, "red": 5}, "red"),
])
def test_malformed_document_errors_name_the_problem(tmp_path, capsys, document, named):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    assert run(["check", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


def test_integral_json_numbers_are_integers(tmp_path, capsys):
    # JSON has one number type: 8.0 and 2.0 are read as 8 and 2
    path = tmp_path / "floats.json"
    path.write_text(json.dumps({"coloring": {"n": 6.0, "red": [1, 2.0]},
                                "equation": {"m": 8.0, "a": 3}}))
    assert run(["check", "--file", str(path)]) == 0
    assert capsys.readouterr().out == "VALID\n"


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 13


def test_library_certificate_matches_search(tmp_path):
    # the emitted coloring is exactly the search certificate
    from radonum import exact_rado_number

    eq = RadoEquation(6, 3)
    out = exact_rado_number(eq, n_max=12)
    cert_path = tmp_path / "c.json"
    assert run(["exact", "--m", "6", "--a", "3", "--n-max", "12", "--cert", str(cert_path)]) == 0
    assert read_certificate_coloring(cert_path)[0] == out.certificate
    assert is_valid_coloring(out.certificate, eq)
