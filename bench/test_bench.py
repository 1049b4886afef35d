"""Tests of the benchmark itself: ``python -m pytest bench``.

Each workload runs at tiny size, in process, and must print every metric that
BENCHMARK.json names, with its unit.  Wrong answers injected here (and only
here) must land in ``failed`` and ``ok_share``, never among the passes.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from run import ROOT, batch_digest

run.import_package()

import padic_cubic.classify as classify_mod  # noqa: E402
import padic_cubic.padic as padic_mod  # noqa: E402
import padic_cubic.residues as residues_mod  # noqa: E402
import padic_cubic.solve as solve_mod  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _expected(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_matches_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    names = [m["name"] for s in ("workloads", "end_to_end", "per_layer") for m in SPEC[s]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric(workload, trace):
    result, meta = run.run(workload, seed=3, seconds=0.05, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, meta
    assert _units(result) == _expected("per_layer" if trace else "end_to_end")
    assert meta["ops_digest"] and meta["python"] and meta["nproc"]
    if not trace:
        assert result["metrics"]["ok_share"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_fixes_the_inputs(workload):
    def digest(seed: int) -> str:
        rng = random.Random(f"padic-cubic-bench/{workload}/{seed}/timed")
        return batch_digest(WORKLOADS[workload].batch(rng, True, None))

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)


def _flip_first_digit(records):
    rec = records[0]
    digits = (rec.expansion.digits[0] % (rec.expansion.prime.p - 1) + 1,) + rec.expansion.digits[1:]
    expansion = type(rec.expansion)(rec.expansion.prime, rec.expansion.valuation, digits)
    return [type(rec)(expansion, rec.valuation, rec.domain, rec.multiplicity)] + records[1:]


def _assert_failures_counted(result: dict, expect_all: bool) -> None:
    assert not result["correct"]
    assert result["failed"] >= 1
    ok_share = result["metrics"]["ok_share"]["value"]
    assert ok_share == pytest.approx(1 - result["failed"] / result["attempted"])
    if expect_all:
        assert result["failed"] == result["attempted"]
        assert ok_share == 0 and result["metrics"]["ops_per_s"]["value"] == 0


def test_wrong_count_fails_every_desk_op(monkeypatch):
    real = classify_mod.count_in
    monkeypatch.setattr(classify_mod, "count_in", lambda inst, d: real(inst, d) + 1)
    result, _ = run.run("desk_sweep", seed=3, seconds=0.05, trace=False, tiny=True)
    _assert_failures_counted(result, expect_all=True)


def test_desk_check_does_not_trust_the_package_digits(monkeypatch):
    """verify compares the solver with PadicRational.digits; the check also
    ties those digits to the benchmark's own reference."""
    op = WORKLOADS["desk_sweep"].batch(random.Random("desk-digits"), True, None)[0]
    out = op.run()
    assert op.check(out) is None
    real = padic_mod.PadicRational.digits

    def last_digit_off(self, n):
        e = real(self, n)
        return type(e)(e.prime, e.valuation, e.digits[:-1] + ((e.digits[-1] + 1) % e.prime.p,))

    monkeypatch.setattr(padic_mod.PadicRational, "digits", last_digit_off)
    assert op.check(out).startswith("construction digits")


def test_wrong_digit_fails_root_ops_only(monkeypatch):
    real = solve_mod.all_roots
    monkeypatch.setattr(solve_mod, "all_roots", lambda inst, n=20: _flip_first_digit(real(inst, n)))
    result, meta = run.run("hard_seeds", seed=3, seconds=0.05, trace=False, tiny=True)
    _assert_failures_counted(result, expect_all=False)
    assert result["failed"] < result["attempted"]  # classify-only ops still pass
    assert any("roots differ" in f for f in meta["failures"])


def test_wrong_cli_output_fails(monkeypatch):
    real = run.CliLauncher.__call__

    def corrupt(self, argv):
        out = real(self, argv)
        doc = json.loads(out.stdout)
        doc["total"] = 2
        out.stdout = json.dumps(doc)
        return out

    monkeypatch.setattr(run.CliLauncher, "__call__", corrupt)
    result, _ = run.run("cli_oneshot", seed=3, seconds=0.05, trace=False, tiny=True)
    _assert_failures_counted(result, expect_all=False)


def test_exception_is_a_failure(monkeypatch):
    def boom(inst, n=20):
        raise RuntimeError("injected")

    monkeypatch.setattr(solve_mod, "all_roots", boom)
    result, meta = run.run("deep_digits", seed=3, seconds=0.05, trace=False, tiny=True)
    _assert_failures_counted(result, expect_all=False)
    assert any("RuntimeError: injected" in f for f in meta["failures"])


def test_gauge_scales_each_op_by_the_samples_around_it():
    ref = 10_000_000
    gauge = run.HostGauge(lambda: None, ref)
    # host at reference speed for ops 0-9, half speed from op 10 on
    gauge.at_op = [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    gauge.ns = [ref] * 5 + [2 * ref] * 6
    assert gauge.factor(0) == 1.0
    assert gauge.factor(19) == 0.5
    seg = run.Segment(run.HostGauge(lambda: None, ref), latencies_ns=[1_000_000] * 3, batches=[(0, 3, 3)])
    seg.gauge.at_op, seg.gauge.ns = [0, 3], [2 * ref, 2 * ref]
    assert seg.latencies() == [500_000.0] * 3
    assert seg.ops_per_s() == pytest.approx(2000.0)
    assert seg.ops_per_s(at_ref=False) == pytest.approx(1000.0)


def test_gauges_do_not_call_the_package(monkeypatch):
    """A change to the package must not move the gauges."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a gauge called the package")

    for mod in (classify_mod, padic_mod, residues_mod, solve_mod):
        for name in dir(mod):
            if callable(getattr(mod, name)) and getattr(getattr(mod, name), "__module__", "").startswith("padic_cubic"):
                monkeypatch.setattr(mod, name, forbidden)
    launcher = run.CliLauncher()
    for workload in WORKLOADS.values():
        workload.gauge(launcher)


def test_tracer_wraps_where_names_are_bound_and_restores():
    original = residues_mod.nth_roots_mod_p
    tracer = Tracer()
    tracer.install()
    try:
        assert solve_mod.nth_roots_mod_p is not original
        assert solve_mod.nth_roots_mod_p.__wrapped__ is original
        assert classify_mod.sqrt_exists is residues_mod.sqrt_exists
    finally:
        tracer.uninstall()
    assert solve_mod.nth_roots_mod_p is original


def test_command_line_prints_result_last():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk_sweep", "--seed", "1", "--seconds", "0.2"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and _units(result) == _expected("end_to_end")


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk_sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
