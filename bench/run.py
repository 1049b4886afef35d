#!/usr/bin/env python3
"""padic-cubic benchmark: one closed-loop client, seeded inputs, checked outputs.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload desk_sweep --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the checkout.  One client runs the
workload's ops back to back (the next op starts when the previous one
returns), in batches drawn from a stream seeded by ``--seed``; batches run
until the ops' own wall time adds up to ``--seconds``.  Every op's output is
checked against the Vieta construction after its batch, outside the timed
interval, and every mismatch or exception counts as a failure.

Every time is reported at a reference host speed: between ops, outside the
timed interval, the loop times a fixed slice of work shaped like the
workload's own that does not touch the package (``HostGauge``), and each
op's time is scaled by how fast that slice ran around it.  The speed of a
shared host can drift by tens of percent within minutes; the scaling takes
that drift out of the figures, while a change to the package moves them as
before.  The raw wall-clock figures are in the meta line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced (see tracer.py), reports the per-layer metrics
and the tracing overhead, and writes the spans to ``.bench_out/``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it (``meta ...``) records the run conditions and
a digest of the first generated batch, so the same seed provably gives the
same inputs.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Fresh interpreters timed per run for setup_s, spread over the whole run
#: (the median is reported).
SETUP_SAMPLES = 31
#: Warm-up time before measuring, on inputs from a stream disjoint from the timed one.
WARMUP_S = 0.5
#: A CLI process that has not answered by then is killed and counted as failed.
CLI_TIMEOUT_S = 60
#: peak_rss_mb is read once this many ops have run (or at the end of a shorter
#: run), so that a faster program, which fills the profile cache with more
#: instances in the same time, does not read as a memory regression.
RSS_AFTER_OPS = 2000
#: A host-speed gauge sample is taken after every this much op time.
GAUGE_EVERY_NS = 200_000_000
#: Gauge samples whose median sets the host speed around an op.
GAUGE_WINDOW = 5
#: Failure messages kept for the meta line.
FAILURES_SHOWN = 5
#: The workloads of workloads.py (listed here so --help works without the package).
WORKLOAD_NAMES = ("desk_sweep", "deep_digits", "hard_seeds", "cli_oneshot")


class MissingPackage(Exception):
    """The checkout has no importable padic_cubic under src/."""


def import_package() -> Any:
    """Import padic_cubic from this checkout's src/, never from elsewhere."""
    if not (SRC / "padic_cubic" / "__init__.py").is_file():
        raise MissingPackage(f"no package at {SRC / 'padic_cubic'}")
    sys.path.insert(0, str(SRC))
    import padic_cubic

    if Path(padic_cubic.__file__).resolve().parent != (SRC / "padic_cubic").resolve():
        raise MissingPackage(f"padic_cubic imported from {padic_cubic.__file__}, not {SRC}")
    return padic_cubic


def child_env() -> dict[str, str]:
    """Environment for child interpreters: this checkout's src/, no scan-bound override."""
    env = {k: v for k, v in os.environ.items() if k not in ("PADIC_SCAN_BOUND", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


class CliLauncher:
    """Runs the CLI once per call in a fresh interpreter; traced through cli_child.py."""

    def __init__(self) -> None:
        self.env = child_env()
        self.tracer: Any = None

    def bare_interpreter(self) -> None:
        """Start and end one interpreter that imports nothing of the package."""
        subprocess.run([sys.executable, "-c", "pass"], capture_output=True, env=self.env, cwd=ROOT, check=True)

    def __call__(self, argv: list[str]) -> subprocess.CompletedProcess:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "padic_cubic"]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py")]
        out = subprocess.run(
            [*cmd, *argv],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=ROOT,
            timeout=CLI_TIMEOUT_S,
        )
        if self.tracer is not None:
            *rest, last = out.stderr.splitlines() or [""]
            try:
                summary = json.loads(last)
            except json.JSONDecodeError:
                rest.append(last)  # the child died before reporting; the check fails it
            else:
                self.tracer.merge(summary)
            out.stderr = "\n".join(rest)
        return out


class HostGauge:
    """Host speed over one run, sampled between ops by timing the workload's
    gauge slice (workloads.py): fixed work shaped like the workload's own,
    done without the package, so a change to the package cannot move it.

    factor(i) is ref_ns over the median of the GAUGE_WINDOW samples nearest
    to op i: the factor that turns the op's wall time into its time at the
    reference host speed, where one slice takes ref_ns.
    """

    def __init__(self, slice_: Callable[[], Any], ref_ns: int) -> None:
        self.slice = slice_
        self.ref_ns = ref_ns
        self.at_op: list[int] = []  # ops run before each sample
        self.ns: list[int] = []

    def sample(self, at_op: int) -> None:
        t0 = time.perf_counter_ns()
        self.slice()
        self.ns.append(time.perf_counter_ns() - t0)
        self.at_op.append(at_op)

    def factor(self, op_index: int) -> float:
        j = bisect_right(self.at_op, op_index)
        lo = max(0, min(j - GAUGE_WINDOW // 2 - 1, len(self.ns) - GAUGE_WINDOW))
        return self.ref_ns / statistics.median(self.ns[lo : lo + GAUGE_WINDOW])


class SetupTimer:
    """setup_s: time from a fresh interpreter to a finished import, bytecode warm.

    The samples are taken between batches, outside the timed interval, and
    spread evenly over the run; each is scaled to the reference host speed by
    the gauge samples around it.
    """

    def __init__(self) -> None:
        compileall.compile_dir(str(SRC / "padic_cubic"), quiet=1)
        self.env = child_env()
        self.samples: list[tuple[int, float]] = []  # (ops run before it, wall s)

    def catch_up(self, progress: float, at_op: int) -> None:
        """Take the samples due once progress (timed share of the run) is reached."""
        due = 1 + math.floor(min(progress, 1.0) * (SETUP_SAMPLES - 1))
        while len(self.samples) < due:
            t0 = time.perf_counter()
            # Pipes make the wait end on the child's exit; without them a wait with
            # a timeout polls at up to 50 ms steps, which would quantize the time.
            subprocess.run(
                [sys.executable, "-c", "import padic_cubic"],
                env=self.env,
                cwd=ROOT,
                check=True,
                capture_output=True,
                timeout=CLI_TIMEOUT_S,
            )
            self.samples.append((at_op, time.perf_counter() - t0))

    def median(self, gauge: Optional[HostGauge] = None) -> float:
        """Median sample, scaled to the reference host speed when gauge is given."""
        return statistics.median(s * (gauge.factor(i) if gauge else 1.0) for i, s in self.samples)


@dataclass
class Segment:
    """What one stretch of the closed loop did; times are wall-clock ns."""

    gauge: HostGauge
    latencies_ns: list[int] = field(default_factory=list)
    batches: list[tuple[int, int, int]] = field(default_factory=list)  # (first op, end op, verified)
    ok: int = 0
    failed: int = 0
    timed_ns: int = 0
    failures: list[str] = field(default_factory=list)
    first_digest: Optional[str] = None
    rss_mb: Optional[float] = None

    @property
    def attempted(self) -> int:
        return self.ok + self.failed

    def latencies(self, at_ref: bool = True) -> list[float]:
        """Per-op latencies in ns, at the reference host speed unless at_ref is false."""
        if not at_ref:
            return list(self.latencies_ns)
        return [ns * self.gauge.factor(i) for i, ns in enumerate(self.latencies_ns)]

    def ops_per_s(self, at_ref: bool = True) -> float:
        """Median over batches of verified ops per second of the batch's op time.

        The median keeps one rare slow op (a singular seed in desk_sweep) from
        swinging the whole run; its cost still shows in the latency tail.
        """
        lat = self.latencies(at_ref)
        return statistics.median(ok / (sum(lat[lo:hi]) / 1e9) for lo, hi, ok in self.batches)


def batch_digest(ops: list) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(repr(op.key).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def run_loop(
    workload: Any,
    rng: random.Random,
    seconds: float,
    launcher: CliLauncher,
    tiny: bool,
    tracer: Any = None,
    op_base: int = 0,
    setup: Optional[SetupTimer] = None,
) -> Segment:
    """Closed loop: whole batches until the timed op time reaches seconds.

    A gauge sample is taken before the first op and after every
    GAUGE_EVERY_NS of op time.  setup, if given, takes its due samples after
    each batch's check.
    """
    seg = Segment(HostGauge(lambda: workload.gauge(launcher), workload.gauge_ref_ns))
    lat = seg.latencies_ns
    seg.gauge.sample(0)
    since_gauge = 0
    while seg.timed_ns < seconds * 1e9:
        ops = workload.batch(rng, tiny, launcher)
        if seg.first_digest is None:
            seg.first_digest = batch_digest(ops)
        outputs: list[Any] = []
        first = len(lat)
        for op in ops:
            if tracer is not None:
                tracer.op_id = op_base + len(lat)
                tracer.active = True
            t0 = time.perf_counter_ns()
            try:
                out = op.run()
            except Exception as exc:  # every failure is counted, none is fatal
                out = exc
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.active = False
            lat.append(t1 - t0)
            outputs.append(out)
            seg.timed_ns += t1 - t0
            since_gauge += t1 - t0
            if since_gauge >= GAUGE_EVERY_NS:
                seg.gauge.sample(len(lat))
                since_gauge = 0
        ok_before = seg.ok
        for op, out in zip(ops, outputs):
            if isinstance(out, Exception):
                reason = f"{type(out).__name__}: {out}"
            else:
                try:
                    reason = op.check(out)
                except Exception as exc:  # a malformed output is a failure too
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is None:
                seg.ok += 1
            else:
                seg.failed += 1
                if len(seg.failures) < FAILURES_SHOWN:
                    seg.failures.append(f"{op.kind} {op.key[1:]}: {reason}"[:300])
        seg.batches.append((first, len(lat), seg.ok - ok_before))
        if setup is not None:
            setup.catch_up(seg.timed_ns / (seconds * 1e9), len(lat))
        if seg.rss_mb is None and seg.attempted >= RSS_AFTER_OPS:
            seg.rss_mb = peak_rss_mb(workload.in_children)
    seg.gauge.sample(len(lat))
    if seg.rss_mb is None:
        seg.rss_mb = peak_rss_mb(workload.in_children)
    return seg


def percentile_ms(latencies_ns: list[float], q: float) -> float:
    """Nearest-rank percentile, in ms."""
    ordered = sorted(latencies_ns)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e6


def peak_rss_mb(in_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def run_conditions() -> dict[str, Any]:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result line, meta).  tiny shrinks every op (tests)."""
    os.environ.pop("PADIC_SCAN_BOUND", None)
    import_package()
    import padic_cubic.classify as classify_mod
    from tracer import Tracer, profile_cache_counts
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    launcher = CliLauncher()
    meta: dict[str, Any] = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    meta.update(run_conditions())

    stream = f"padic-cubic-bench/{workload_name}/{seed}"
    metrics: dict[str, dict[str, Any]] = {}
    warm_rng = random.Random(stream + "/warmup")
    run_loop(workload, warm_rng, WARMUP_S, launcher, tiny=True)

    rng = random.Random(stream + "/timed")
    if not trace:
        setup = SetupTimer()
        seg = run_loop(workload, rng, seconds, launcher, tiny, setup=setup)
        segments = [seg]
        lat = seg.latencies()
        metrics.update(
            {
                "setup_s": {"value": setup.median(seg.gauge), "unit": "s"},
                "ops_per_s": {"value": seg.ops_per_s(), "unit": "ops/s"},
                "lat_p50_ms": {"value": percentile_ms(lat, 0.5), "unit": "ms"},
                "lat_p90_ms": {"value": percentile_ms(lat, 0.9), "unit": "ms"},
                "ok_share": {"value": seg.ok / seg.attempted, "unit": "ratio"},
                "peak_rss_mb": {"value": seg.rss_mb, "unit": "MB"},
            }
        )
        wall = seg.latencies(at_ref=False)
        meta.update(
            {
                "timed_s": seg.timed_ns / 1e9,
                "wall": {
                    "setup_s": setup.median(),
                    "ops_per_s": seg.ops_per_s(at_ref=False),
                    "lat_p50_ms": percentile_ms(wall, 0.5),
                    "lat_p90_ms": percentile_ms(wall, 0.9),
                },
                "gauge_samples": len(seg.gauge.ns),
                "gauge_median_ms": statistics.median(seg.gauge.ns) / 1e6,
            }
        )
    else:
        plain = run_loop(workload, rng, seconds / 2, launcher, tiny)
        tracer = Tracer()
        tracer.install()
        launcher.tracer = tracer
        before = profile_cache_counts(classify_mod)
        try:
            traced = run_loop(workload, rng, seconds / 2, launcher, tiny, tracer, op_base=plain.attempted)
        finally:
            tracer.uninstall()
            launcher.tracer = None
        after = profile_cache_counts(classify_mod)
        cache = None
        if before is not None:
            cache = (
                after[0] - before[0] + int(tracer.counters.get("classify.profile_cache.hits", 0)),
                after[1] - before[1] + int(tracer.counters.get("classify.profile_cache.misses", 0)),
            )
        segments = [plain, traced]
        for name, (value, unit) in tracer.layer_metrics(cache).items():
            metrics[name] = {"value": value, "unit": unit}
        plain_rate, traced_rate = plain.ops_per_s(), traced.ops_per_s()
        overhead = 1 - traced_rate / plain_rate if plain_rate else 0.0
        metrics["trace.overhead_share"] = {"value": overhead, "unit": "ratio"}
        spans_path = OUT_DIR / f"spans-{workload_name}-seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        meta.update(
            {
                "untraced_ops_per_s": plain_rate,
                "traced_ops_per_s": traced_rate,
                "spans_file": str(spans_path.relative_to(ROOT)),
                "spans_kept": len(tracer.spans),
                "spans_dropped": tracer.dropped,
            }
        )

    attempted = sum(s.attempted for s in segments)
    failed = sum(s.failed for s in segments)
    meta.update(
        {
            "ops_digest": segments[0].first_digest,
            "latency_samples": sum(len(s.latencies_ns) for s in segments),
            "failures": [f for s in segments for f in s.failures][:FAILURES_SHOWN],
        }
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, meta


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
