"""Command line surface: exit codes, JSON documents, pipelines."""

import json

import pytest

from radonum import Coloring, RadoEquation, Witness, is_valid_coloring
from radonum.cli import (
    CertificateFile,
    dumps,
    load_certificate,
    run,
    write_certificate,
)


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
    witness = Witness.from_dict(json.loads(capsys.readouterr().out))
    assert witness.color.value == "red"


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
    cert = load_certificate(cert_path)
    assert cert.claim == "valid"
    assert cert.coloring.n == 8
    assert cert.verify()


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
    cert = load_certificate(cert_path)
    assert cert.coloring.n == 6
    assert cert.verify()


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
    assert capsys.readouterr().out.startswith("cutoff deepest_valid=")


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


def test_sweep_stdout_is_byte_stable(capsys):
    outs = []
    for _ in range(2):
        assert run(["sweep", "--a", "3", "--m-from", "3", "--m-to", "8"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[-1] == "m=8 a=3 exact=7 formula=7 agree=yes nodes=11"


def test_sweep_unknown_regime_prints_dashes(capsys):
    assert run(["sweep", "--a", "4", "--m-from", "6", "--m-to", "6", "--n-max", "8"]) == 0
    line = capsys.readouterr().out.strip()
    assert "formula=- agree=-" in line


def test_sweep_n_max_above_32(capsys):
    code = run(["sweep", "--a", "3", "--m-from", "19", "--m-to", "19", "--n-max", "40"])
    assert code == 0
    assert capsys.readouterr().out.startswith("m=19 a=3 exact=36 formula=36 agree=yes")


def test_certificate_round_trip_bytes(tmp_path):
    eq = RadoEquation(6, 3)
    cert = CertificateFile(eq, Coloring.from_red(4, [1, 4]), "valid")
    path = tmp_path / "cert.json"
    write_certificate(path, cert)
    first = path.read_bytes()
    write_certificate(path, load_certificate(path))
    assert path.read_bytes() == first


def test_certificate_claim_validation():
    eq = RadoEquation(3, 3)
    with pytest.raises(ValueError):
        CertificateFile(eq, Coloring(0), "unknown")
    with pytest.raises(ValueError):
        CertificateFile(eq, Coloring(0), "witness")  # witness claim without witness


def test_witness_certificate_verifies(tmp_path):
    eq = RadoEquation(3, 3)
    col = Coloring.from_red(2, [1, 2])
    from radonum import find_mono_solution

    witness = find_mono_solution(col, eq)
    cert = CertificateFile(eq, col, "witness", witness)
    path = tmp_path / "w.json"
    write_certificate(path, cert)
    loaded = load_certificate(path)
    assert loaded.claim == "witness"
    assert loaded.verify()
    assert loaded.witness == witness


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
    from radonum.cli import load_certificate as load

    eq = RadoEquation(6, 3)
    out = exact_rado_number(eq, n_max=12)
    cert_path = tmp_path / "c.json"
    assert run(["exact", "--m", "6", "--a", "3", "--n-max", "12", "--cert", str(cert_path)]) == 0
    assert load(cert_path).coloring == out.certificate
    assert is_valid_coloring(out.certificate, eq)
