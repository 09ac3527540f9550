"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
Search-heavy criteria share their outcomes through a module-scoped fixture so
the whole suite stays fast.
"""

import json

import pytest

from radonum import (
    Coloring,
    RadoEquation,
    ceil_div,
    ceiling_formula,
    closed_form,
    exact_rado_number,
    find_mono_solution,
    is_valid_coloring,
    lower_bound_coloring,
    naive_find_mono_solution,
)
from radonum.cli import CertificateFile, run, write_certificate

# (m, a) -> expected Rado number; n_max 16 for a=3, n_max 20 elsewhere
A3_SEARCH_CASES = [(3, 9), (4, 1), (5, 4), (6, 5), (7, 4), (8, 7), (9, 8), (10, 9), (11, 14), (12, 15)]
CROSS_FAMILY_CASES = [(3, 1, 5), (4, 1, 11), (5, 1, 19), (6, 2, 8), (7, 2, 9)]


def general_threshold(a: int) -> int:
    """Smallest m from which C(m, a) is proved exact for every a >= 3."""
    return 2 * a * a - a + 2


def _report(number: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = "" if not failures else f" ({len(failures)} failures)"
    print(f"[criterion {number:2d}] {status} {label}{suffix}")
    assert not failures, f"criterion {number} {label}: " + "; ".join(map(str, failures[:10]))


@pytest.fixture(scope="module")
def search_results():
    out = {}
    for m, _ in A3_SEARCH_CASES:
        out[(m, 3)] = exact_rado_number(RadoEquation(m, 3), n_max=16)
    for m, a, _ in CROSS_FAMILY_CASES:
        out[(m, a)] = exact_rado_number(RadoEquation(m, a), n_max=20)
    return out


def test_criterion_01_formula_goldens():
    failures = []
    goldens = {16: 25, 15: 24, 14: 22, 13: 16, 12: 15, 11: 14, 10: 9, 9: 8, 8: 7, 6: 4, 5: 3}
    for m, want in goldens.items():
        got = ceiling_formula(RadoEquation(m, 3))
        if got != want:
            failures.append(f"C({m},3)={got}, want {want}")
    for a in range(3, 11):
        for m in range(2, a + 2):
            got = ceiling_formula(RadoEquation(m, a))
            if got != 1:
                failures.append(f"C({m},{a})={got}, want 1")
    _report(1, "nested-ceiling goldens", failures)


def test_criterion_02_closed_form_equivalence():
    failures = []
    cases = 0
    for a in range(2, 11):
        for m in range(3, 2001):
            eq = RadoEquation(m, a)
            cases += 1
            if closed_form(eq) != ceiling_formula(eq):
                failures.append(f"(m={m}, a={a})")
    assert cases == 9 * 1998
    _report(2, f"closed form == nested ceiling on {cases} cases", failures)


def test_criterion_03_fit_inequalities_and_equality_band():
    failures = []
    for a in range(3, 11):
        start = general_threshold(a)
        for m in range(start, 2 * a * a + 501):
            eq = RadoEquation(m, a)
            value = ceiling_formula(eq)
            if not (2 * m - 2 <= value and a + 1 <= value):
                failures.append(f"bounds fail at (m={m}, a={a})")
        for b in range(2, a + 2):
            m = 2 * a * a - a + b
            value = ceiling_formula(RadoEquation(m, a))
            if value != 2 * m - 2:
                failures.append(f"equality band fails at (a={a}, b={b}): C={value}, want {2 * m - 2}")
    _report(3, "interval bounds hold, equality band is tight", failures)


def test_criterion_04_correction_term_bounds():
    failures = []
    for a in range(3, 51):
        for v in range(0, a):
            for c in range(2, a):
                term = -v * a * c + v * a + ceil_div((c - 1) * (v + 1), a) * a * a
                if not a * c - a <= term <= a * c - a + a * a:
                    failures.append(f"(a={a}, v={v}, c={c})")
    _report(4, "closed-form correction term stays within its bounds", failures)


def test_criterion_05_lower_bound_colorings_are_solution_free():
    failures = []
    for a in (3, 4, 5):
        for m in range(3, 2 * a * a + 7):
            eq = RadoEquation(m, a)
            col = lower_bound_coloring(eq)
            if not is_valid_coloring(col, eq):
                failures.append(f"(m={m}, a={a})")
    _report(5, "lower-bound colorings are solution-free", failures)


def test_criterion_06_oracle_equivalence():
    failures = []
    checked = 0
    for m, a in [(3, 1), (3, 3), (4, 3), (5, 3), (5, 2)]:
        eq = RadoEquation(m, a)
        for n in range(0, 8):
            for bits in range(1 << n):
                col = Coloring(n, bits << 1)
                checked += 1
                fast = find_mono_solution(col, eq)
                slow = naive_find_mono_solution(col, eq)
                if (fast is None) != (slow is None):
                    failures.append(f"(m={m}, a={a}, n={n}, red={col.red_elements()})")
    _report(6, f"checker matches the naive oracle on {checked} colorings", failures)


def test_criterion_07_exact_a3_values(search_results):
    failures = []
    for m, want in A3_SEARCH_CASES:
        out = search_results[(m, 3)]
        if not out.exact or out.rado_number != want:
            failures.append(f"m={m}: got {out.status}/{out.rado_number}, want {want}")
    _report(7, "exact search reproduces every a=3 value for m in [3, 12]", failures)


def test_criterion_07_stretch_larger_m():
    failures = []
    for m, want, n_max in [(13, 16, 20), (14, 22, 26)]:
        out = exact_rado_number(RadoEquation(m, 3), n_max=n_max)
        if not out.exact or out.rado_number != want:
            failures.append(f"m={m}: got {out.status}/{out.rado_number}, want {want}")
    _report(7, "stretch: a=3 values for m = 13, 14", failures)


def test_criterion_08_cross_family_values(search_results):
    failures = []
    for m, a, want in CROSS_FAMILY_CASES:
        out = search_results[(m, a)]
        if not out.exact or out.rado_number != want:
            failures.append(f"(m={m}, a={a}): got {out.status}/{out.rado_number}, want {want}")
    _report(8, "exact search reproduces a=1 and a=2 values", failures)


def test_criterion_09_certificates_round_trip(search_results, tmp_path, capsys):
    failures = []
    for (m, a), outcome in search_results.items():
        if not outcome.exact:
            failures.append(f"(m={m}, a={a}) not exact")
            continue
        eq = RadoEquation(m, a)
        path = tmp_path / f"cert_{m}_{a}.json"
        write_certificate(path, CertificateFile(eq, outcome.certificate, "valid"))
        code = run(["check", "--file", str(path)])
        capsys.readouterr()
        if code != 0:
            failures.append(f"(m={m}, a={a}) re-check exit {code}")
        data = json.loads(path.read_text(encoding="utf-8"))
        col = Coloring.from_dict(data["coloring"])
        if col.n != outcome.rado_number - 1:
            failures.append(f"(m={m}, a={a}) domain {col.n} != rado-1")
        if data["equation"] != {"m": m, "a": a}:
            failures.append(f"(m={m}, a={a}) certificate names {data['equation']}")
        if not is_valid_coloring(col, eq):
            failures.append(f"(m={m}, a={a}) coloring read back is not valid")
    _report(9, "every exact result yields a certificate that re-checks VALID", failures)


def test_criterion_10_repeat_run_determinism(tmp_path, capsys):
    failures = []
    outputs = []
    for run_index in (1, 2):
        path = tmp_path / f"cert_run{run_index}.json"
        code = run(["exact", "--m", "3", "--a", "3", "--cert", str(path)])
        captured = capsys.readouterr()
        outputs.append((code, captured.out, path.read_bytes()))
    (code1, out1, bytes1), (code2, out2, bytes2) = outputs
    if code1 != 0 or code2 != 0:
        failures.append(f"exit codes {code1}, {code2}")
    if out1 != out2:
        failures.append(f"stdout differs: {out1!r} vs {out2!r}")
    if bytes1 != bytes2:
        failures.append("certificate bytes differ")
    if json.loads(bytes1)["coloring"]["n"] != 8:
        failures.append("deepest_valid is not 8")
    _report(10, "repeated runs emit identical results", failures)
