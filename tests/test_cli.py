import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import padic_cubic
from padic_cubic.cli import MAX_DIGITS, _build_parser, main, parse_rational
from padic_cubic.errors import BadEnvironment, UsageError
from padic_cubic.oracle import enumeration_bound
from padic_cubic.padic import Prime
from padic_cubic.residues import scan_bound

P5 = Prime(5)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_parse_rational_forms():
    assert parse_rational("5", P5) == 5
    assert parse_rational("-7/4", P5) == Fraction(-7, 4)
    assert parse_rational("3/2*p^-4", P5) == Fraction(3, 2) / 625
    assert parse_rational("2*p^3", P5) == 250


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1.5", "p^2", "3/2*q^1"])
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(UsageError):
        parse_rational(bad, P5)


def test_classify_json(capsys):
    code, doc, _ = run_json(capsys, "classify", "--p", "5", "--a", "5", "--b", "25")
    assert code == 0
    assert doc["region"] == "Delta3"
    assert doc["signature"] == {"small_ball": 1}
    assert doc["total"] == 1
    assert doc["counts"]["whole"] == 1
    assert doc["solvable"]["small_ball"] is True


def test_count_json(capsys):
    code, doc, _ = run_json(capsys, "count", "--p", "11", "--a", "4", "--b", "5")
    assert code == 0
    assert doc["counts"] == {"units": 3, "small_ball": 0, "exterior": 0, "whole": 3}


def test_solve_json(capsys):
    code, doc, _ = run_json(
        capsys, "solve", "--p", "11", "--a", "4", "--b", "5", "--digits", "2"
    )
    assert code == 0
    assert [r["digits"] for r in doc["roots"]] == [[1, 0], [2, 2], [8, 8]]
    assert [r["valuation"] for r in doc["roots"]] == [0, 0, 0]
    assert all(r["multiplicity"] == 1 for r in doc["roots"])
    assert doc["residual_exponent"] == 2
    assert all("O(11^2)" in r["string"] for r in doc["roots"])


def test_solve_text_marks_truncation(capsys):
    code, out, _ = run(capsys, "solve", "--p", "11", "--a", "4", "--b", "5")
    assert code == 0
    assert "O(11^20)" in out


def test_fp_count_json(capsys):
    code, doc, _ = run_json(capsys, "fp-count", "--p", "11", "--a0", "4", "--b0", "5")
    assert code == 0
    assert doc["D0"] == 4 and doc["u_p_minus_2"] == 0 and doc["count"] == 3


def test_residue_json(capsys):
    code, doc, _ = run_json(
        capsys, "residue", "--p", "5", "--a", "8", "--q", "3"
    )
    assert code == 0
    assert doc["cbrt_exists"] is True
    assert doc["solvable"] is True and doc["root_count"] == 1


def test_verify_verb(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "--p", "11", "--r1", "1", "--r2", "2", "--digits", "8"
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["a"] == "-7" and doc["b"] == "-6"


def test_sweep_verb(capsys):
    code, doc, _ = run_json(
        capsys, "sweep", "--primes", "5,7", "--instances", "20", "--seed", "3"
    )
    assert code == 0
    assert doc["failed"] == 0
    assert doc["passed"] + doc["skipped"] == 20


def test_malformed_scan_bound_no_longer_reaches_solve(capsys, monkeypatch):
    argv = ("solve", "--p", "5", "--a", "4", "--b", "5")
    code, want, _ = run_json(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("PADIC_SCAN_BOUND", "abc")
    code, doc, err = run_json(capsys, *argv)
    assert code == 0 and doc == want and err == ""


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "1e6"])
def test_malformed_scan_bound_names_the_variable(monkeypatch, raw):
    monkeypatch.setenv("PADIC_SCAN_BOUND", raw)
    for bound in (scan_bound, enumeration_bound):
        with pytest.raises(BadEnvironment, match="PADIC_SCAN_BOUND"):
            bound()


@pytest.mark.parametrize("p", ["1000003", "1000000000000000003", "2305843009213693951"])
def test_solve_at_large_primes(capsys, p):
    code, doc, err = run_json(capsys, "solve", "--p", p, "--a", "4", "--b", "5")
    assert code == 0 and err == ""
    assert doc["roots"][0]["digits"] == [1] + [0] * 19  # x = 1 is a root


def test_composite_p_is_usage_error(capsys):
    code, out, err = run(capsys, "classify", "--p", "4", "--a", "1", "--b", "1")
    assert code == 1
    assert out == "" and "prime" in err


def test_zero_coefficient_is_usage_error(capsys):
    code, out, err = run(capsys, "classify", "--p", "5", "--a", "0", "--b", "1")
    assert code == 1
    assert "error" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--p", "5", "--a", "1")
    assert code == 1
    assert err


def test_text_and_json_report_identical_numbers(capsys):
    code, doc, _ = run_json(capsys, "count", "--p", "5", "--a", "5", "--b", "25")
    assert code == 0
    code, out, _ = run(capsys, "count", "--p", "5", "--a", "5", "--b", "25")
    assert code == 0
    for name, value in doc["counts"].items():
        assert f"N_{name} = {value}" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--p", "5", "--a", "4", "--b", "5"),
        ("verify", "--p", "5", "--r1", "1", "--r2", "2"),
        ("sweep", "--instances", "1"),
    ],
)
@pytest.mark.parametrize("digits", ["0", str(MAX_DIGITS + 1), "ten"])
def test_digits_outside_the_cap_is_usage_error(capsys, argv, digits):
    code, out, err = run(capsys, *argv, "--digits", digits)
    assert code == 1 and out == ""
    assert "--digits" in err and len(err.splitlines()) == 1


def test_digits_cap_itself_is_accepted():
    argv = ["solve", "--p", "5", "--a", "4", "--b", "5", "--digits", str(MAX_DIGITS)]
    args = _build_parser().parse_args(argv)
    assert args.digits == MAX_DIGITS == 100_000


@pytest.mark.parametrize(
    "a",
    [
        "9" * 4000 + "*p^2000",  # parses, but a prints with about 5400 digits
        "1*p^-100000",  # refused before 5^100000 is built
        "1*p^100000000",  # the same, for a power of about 7*10^7 digits
        "1" + "0" * 5000,  # a literal beyond CPython's str-to-int limit
    ],
    ids=["large_output", "negative_power", "huge_power", "long_literal"],
)
def test_oversized_numbers_are_refused_in_one_line(a):
    src = str(Path(padic_cubic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "padic_cubic", "classify", "--p", "5", "--a", a, "--b", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
