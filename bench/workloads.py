"""The benchmark's workloads: seeded op generators and their correctness checks.

Every op is built from the workload's seeded random stream, outside the timed
interval, together with the reference answer of the Vieta construction (three
known roots r1, r2, r3 = -(r1 + r2) give a = r1 r2 + r1 r3 + r2 r3 and
b = r1 r2 r3).  The reference signature, region and root digits are computed
here from the exact roots, independently of the package, and compared with
the op's output after the timed interval.

Ops call the package through module attributes looked up at call time
(``solve_mod.all_roots``), so a traced run sees the tracer's wrappers.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import padic_cubic.classify as classify_mod
import padic_cubic.oracle as oracle_mod
import padic_cubic.padic as padic_mod
import padic_cubic.solve as solve_mod

DOMAIN_NAMES = ("units", "small_ball", "integers", "exterior", "not_units", "not_small_ball", "whole")
_UNION = {
    "units": ("units",),
    "small_ball": ("small_ball",),
    "exterior": ("exterior",),
    "integers": ("units", "small_ball"),
    "not_units": ("small_ball", "exterior"),
    "not_small_ball": ("units", "exterior"),
    "whole": ("units", "small_ball", "exterior"),
}


@dataclass(frozen=True)
class Op:
    """One timed operation: inputs (for the digest), the call, and its check.

    check returns None when the output is right, else a one-line reason.
    """

    kind: str
    key: tuple
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


# -- reference answers, computed from the exact roots --


def vp(x: Fraction, p: int) -> int:
    """ord_p of a nonzero rational."""
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def ref_digits(x: Fraction, p: int, n: int) -> tuple[int, tuple[int, ...]]:
    """(valuation, first n canonical digits of the unit part) of a nonzero rational."""
    v = vp(x, p)
    unit = x / Fraction(p) ** v
    m = p**n
    r = unit.numerator * pow(unit.denominator, -1, m) % m
    digs = []
    for _ in range(n):
        r, d = divmod(r, p)
        digs.append(d)
    return v, tuple(digs)


def ref_roots(roots: tuple[Fraction, ...], p: int, n: int) -> Counter:
    return Counter(ref_digits(r, p, n) for r in roots)


def ref_signature(roots: tuple[Fraction, ...], p: int) -> dict[str, int]:
    sig = {"units": 0, "small_ball": 0, "exterior": 0}
    for r in roots:
        v = vp(r, p)
        sig["units" if v == 0 else "small_ball" if v > 0 else "exterior"] += 1
    return sig


def ref_region(a: Fraction, b: Fraction, p: int) -> str:
    """Region of an instance that has all three roots in Q_p."""
    ea, eb = -vp(a, p), -vp(b, p)
    if 3 * ea < 2 * eb:
        return "Delta1"
    return "Delta2" if 3 * ea == 2 * eb else "Delta3"


def vieta(r1: Fraction, r2: Fraction) -> tuple[Fraction, Fraction, tuple[Fraction, ...]]:
    r3 = -(r1 + r2)
    return r1 * r2 + r1 * r3 + r2 * r3, r1 * r2 * r3, (r1, r2, r3)


def draw_unit(rng: random.Random, p: int) -> Fraction:
    while True:
        num, den = rng.randint(1, 999), rng.randint(1, 999)
        if num % p and den % p:
            return Fraction(rng.choice((-1, 1)) * num, den)


def frac_key(x: Fraction) -> str:
    """Exact text of a rational for the input digest (hex has no length limit)."""
    return f"{x.numerator:x}/{x.denominator:x}"


def residue(x: Fraction, p: int) -> int:
    return x.numerator * pow(x.denominator, -1, p) % p


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (used only to pick inputs)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


# -- output comparisons --


def _sig_dict(sig: Any) -> dict[str, int]:
    return sig.as_dict(include_zero=True)


def check_records(records: Any, expected: Counter) -> Optional[str]:
    got: Counter = Counter()
    for rec in records:
        got[(rec.valuation, tuple(rec.expansion.digits))] += rec.multiplicity
    if got != expected:
        return f"roots differ: {sorted(got.items())[:3]} vs {sorted(expected.items())[:3]}"
    return None


def check_signature(sig: Any, expected: dict[str, int]) -> Optional[str]:
    got = _sig_dict(sig)
    return None if got == expected else f"signature {got} != {expected}"


def roots_op(kind: str, p: int, roots: tuple[Fraction, ...], n: int, a: Fraction, b: Fraction) -> Op:
    """all_roots from raw (p, a, b), as a caller holding only the numbers would."""

    def run() -> Any:
        prime = padic_mod.Prime(p)
        inst = classify_mod.CubicInstance.from_fractions(a, b, prime)
        return solve_mod.all_roots(inst, n)

    return Op(kind, (kind, p, frac_key(a), frac_key(b), n), run, lambda out: check_records(out, ref_roots(roots, p, n)))


def signature_op(kind: str, p: int, roots: tuple[Fraction, ...], a: Fraction, b: Fraction) -> Op:
    def run() -> Any:
        prime = padic_mod.Prime(p)
        return classify_mod.signature(classify_mod.CubicInstance.from_fractions(a, b, prime))

    return Op(kind, (kind, p, frac_key(a), frac_key(b)), run, lambda out: check_signature(out, ref_signature(roots, p)))


# -- desk_sweep: many cheap instances, the library traffic of `sweep` --

DESK_PRIMES = (5, 7, 11, 13, 101)
DESK_DIGITS = 20


#: Largest p^(k+1) accepted in the desk and CLI streams, where k is how many
#: digits two same-valuation roots share.  The singular branch costs about
#: p^(k+1) steps: one draw in ~10^4 shares 5+ digits at p = 7 and takes 12 s,
#: and deeper draws take minutes.  hard_seeds measures that axis on a fixed
#: grid; here the cap keeps every op under ~0.5 s, so a run ends on time.
GAP_COST_CAP = 30_000


def gap_cost(roots: tuple[Fraction, ...], p: int) -> int:
    """p^(k+1) for the deepest pair of distinct same-valuation roots sharing k digits."""
    worst = 1
    for i, j in ((0, 1), (0, 2), (1, 2)):
        ri, rj = roots[i], roots[j]
        if ri != rj and vp(ri, p) == vp(rj, p):
            worst = max(worst, p ** (vp(ri - rj, p) - vp(ri, p) + 1))
    return worst


def _draw_constructed(rng: random.Random, primes: tuple[int, ...]) -> Any:
    prime = padic_mod.Prime(rng.choice(primes))
    while True:
        ci = oracle_mod.random_instance(rng, prime)
        if gap_cost(tuple(r.value for r in ci.roots), prime.p) <= GAP_COST_CAP:
            return ci


def desk_batch(rng: random.Random, tiny: bool, launcher: Callable) -> list[Op]:
    ops = []
    for _ in range(5 if tiny else 100):
        ci = _draw_constructed(rng, DESK_PRIMES)
        ops.append(_desk_op(ci))
    return ops


def _desk_op(ci: Any) -> Op:
    inst = ci.instance
    p = inst.prime.p
    a, b = inst.a.value, inst.b.value
    roots = tuple(r.value for r in ci.roots)
    domains = tuple(classify_mod.Domain(name) for name in DOMAIN_NAMES)

    def run() -> Any:
        reg = classify_mod.region(inst)
        sig = classify_mod.signature(inst)
        counts = {d.value: classify_mod.count_in(inst, d) for d in domains}
        solvable = {d.value: classify_mod.solvable_in(inst, d) for d in domains}
        report = oracle_mod.verify(ci, DESK_DIGITS)
        return reg, sig, counts, solvable, report

    def check(out: Any) -> Optional[str]:
        reg, sig, counts, solvable, report = out
        expected = ref_signature(roots, p)
        if reg.value != ref_region(a, b, p):
            return f"region {reg.value} != {ref_region(a, b, p)}"
        bad = check_signature(sig, expected)
        if bad:
            return bad
        want = {d: sum(expected[atom] for atom in _UNION[d]) for d in DOMAIN_NAMES}
        if counts != want:
            return f"counts {counts} != {want}"
        if solvable != {d: c > 0 for d, c in want.items()}:
            return f"solvable {solvable} disagrees with counts {want}"
        # verify compares the solver with the construction's own digits; tie
        # those to the reference digits, so a fault shared by the two shows.
        want_digits = sorted(ref_digits(r, p, DESK_DIGITS) for r in roots)
        oracle_digits = sorted((int(r.valuation), tuple(r.digits(DESK_DIGITS).digits)) for r in ci.roots)
        if oracle_digits != want_digits:
            return f"construction digits {oracle_digits} != {want_digits}"
        if not report.passed or _sig_dict(report.actual) != expected:
            return "verify: " + "; ".join(report.entries)
        return None

    return Op("desk", ("desk", p, frac_key(a), frac_key(b)), run, check)


# -- deep_digits: the precision axis --

DEEP_DIGITS = (1000, 2000, 4000)
DEEP_NEG_EXPONENTS = (5000, 10000)


def deep_batch(rng: random.Random, tiny: bool, launcher: Callable) -> list[Op]:
    scale = 50 if tiny else 1
    ops = []
    # three unit roots, distinct mod 11: three simple Newton lifts
    while True:
        r1, r2 = draw_unit(rng, 11), draw_unit(rng, 11)
        a, b, roots = vieta(r1, r2)
        if len({residue(r, 11) for r in roots}) == 3:
            break
    ops += [roots_op("deep_units_p11", 11, roots, n // scale, a, b) for n in DEEP_DIGITS]
    # valuations (0, 1, 0) at p = 101: a square-root seed pair plus a linear seed
    a, b, roots = vieta(draw_unit(rng, 101), draw_unit(rng, 101) * 101)
    ops += [roots_op("deep_mixed_p101", 101, roots, n // scale, a, b) for n in DEEP_DIGITS]
    # roots r, r, -2r: zero discriminant, closed form then digit extraction
    r = draw_unit(rng, 101)
    a, b, roots = vieta(r, r)
    ops.append(roots_op("deep_double_p101", 101, roots, DEEP_DIGITS[-1] // scale, a, b))
    # a = u * 5^-N: long valuation loops inside the classifier
    for big_n in DEEP_NEG_EXPONENTS:
        half = big_n // scale // 2
        while True:
            u1, u2 = draw_unit(rng, 5), draw_unit(rng, 5)
            if (u1 + u2).numerator % 5 and u1 != u2:
                break
        a, b, roots = vieta(u1 / Fraction(5) ** half, u2 / Fraction(5) ** half)
        ops.append(signature_op("deep_signature_p5", 5, roots, a, b))
    return ops


# -- hard_seeds: finding seeds rather than lifting them --

CLOSE_GRID = ((5, (2, 3, 4, 5)), (7, (2, 3, 4)), (11, (2, 3)), (13, (2, 3)))
SCAN_TARGETS = (20_000, 50_000, 100_000, 200_000, 500_000, 900_000)
CLASSIFY_DECADES = range(6, 13)
HARD_DIGITS = 20


def hard_batch(rng: random.Random, tiny: bool, launcher: Callable) -> list[Op]:
    grid = ((5, (2,)), (7, (2,))) if tiny else CLOSE_GRID
    targets = (200, 500) if tiny else SCAN_TARGETS
    decades = range(4, 6) if tiny else CLASSIFY_DECADES
    ops = []
    # roots u and u + w p^k: a singular seed whose resolution costs ~p^(k+1)
    for p, ks in grid:
        for k in ks:
            u, w = draw_unit(rng, p), draw_unit(rng, p)
            a, b, roots = vieta(u, u + w * p**k)
            ops.append(roots_op(f"hard_close_p{p}_k{k}", p, roots, HARD_DIGITS, a, b))
    # large primes: O(p) residue scans for the seeds; three unit roots take the
    # full-cubic scan, valuations (0, 1, 0) take the square-root scan
    for i, target in enumerate(targets):
        p = next_prime(target + rng.randrange(max(1, target // 100)))
        while True:
            r1, r2 = draw_unit(rng, p), draw_unit(rng, p)
            if i % 2:
                r2 *= p
            a, b, roots = vieta(r1, r2)
            if len({residue(r, p) for r in roots if vp(r, p) == 0}) == 3 - i % 2:
                break
        kind = "hard_scan_sqrt" if i % 2 else "hard_scan_cubic"
        ops.append(roots_op(kind, p, roots, HARD_DIGITS, a, b))
    # classify only, at primes where primality by trial division dominates
    for d in decades:
        p = next_prime(10**d + rng.randrange(10 ** (d - 2)))
        while True:
            r1 = draw_unit(rng, p) * Fraction(p) ** rng.randint(-3, 3)
            r2 = draw_unit(rng, p) * Fraction(p) ** rng.randint(-3, 3)
            if r1 + r2 != 0:  # else r3 = 0 and b = 0
                break
        a, b, roots = vieta(r1, r2)
        ops.append(signature_op("hard_classify", p, roots, a, b))
    return ops


# -- cli_oneshot: the same layers used cold, one process per instance --

CLI_PRIMES = (5, 7, 11, 13)
CLI_VERBS = ("classify", "count", "solve")
CLI_DIGITS = 20


def cli_batch(rng: random.Random, tiny: bool, launcher: Callable[[list[str]], Any]) -> list[Op]:
    ops = []
    for _ in range(1 if tiny else 3):
        for verb in CLI_VERBS:
            ops.append(_cli_op(verb, _draw_constructed(rng, CLI_PRIMES), launcher))
    return ops


def _cli_op(verb: str, ci: Any, launcher: Callable[[list[str]], Any]) -> Op:
    inst = ci.instance
    p = inst.prime.p
    a, b = inst.a.value, inst.b.value
    roots = tuple(r.value for r in ci.roots)
    # --a=<value>: a negative literal as a separate word would parse as a flag
    argv = [verb, f"--p={p}", f"--a={a}", f"--b={b}", "--format=json"]
    if verb == "solve":
        argv.append(f"--digits={CLI_DIGITS}")

    def check(out: Any) -> Optional[str]:
        if out.returncode != 0:
            return f"exit {out.returncode}: {out.stderr.strip()[-200:]}"
        try:
            doc = json.loads(out.stdout)
        except json.JSONDecodeError:
            return f"stdout is not one JSON document: {out.stdout[:200]!r}"
        sig = ref_signature(roots, p)
        counts = {d: sum(sig[atom] for atom in _UNION[d]) for d in DOMAIN_NAMES}
        if verb == "classify":
            want = {
                "region": ref_region(a, b, p),
                "signature": {k: v for k, v in sig.items() if v},
                "total": 3,
                "counts": counts,
                "solvable": {d: c > 0 for d, c in counts.items()},
            }
        elif verb == "count":
            want = {"counts": {d: counts[d] for d in ("units", "small_ball", "exterior", "whole")}}
        else:
            got = Counter()
            for root in doc.get("roots", []):
                got[(root["valuation"], tuple(root["digits"]))] += root["multiplicity"]
            if got != ref_roots(roots, p, CLI_DIGITS):
                return f"solve roots differ: {doc.get('roots')}"
            want = {"digits": CLI_DIGITS, "total": 3}
            if doc.get("residual_exponent") is None:
                return "solve reported no residual exponent"
        for field, value in want.items():
            if doc.get(field) != value:
                return f"{verb} {field}: {doc.get(field)!r} != {value!r}"
        return None

    return Op(f"cli_{verb}", ("cli", *argv), lambda: launcher(argv), check)


# -- host-speed gauges: fixed work without the package, timed between ops --
#
# The host's speed drifts, and not alike for all code: big-integer arithmetic,
# interpreted small-int loops and process start-up slow down by different
# amounts at the same moment.  Each workload's gauge is therefore shaped like
# its own dominant work; run.HostGauge scales op times by it.

_GAUGE_X, _GAUGE_M = 3**4000, 7**3000
_GAUGE_A, _GAUGE_N = 11**20000, 13**18000


def _small_int_loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += (i * 7919) % 104729
    return s


def _fraction_sum(n: int) -> Fraction:
    f = Fraction(0)
    for i in range(1, n):
        f += Fraction(i % 13 - 6, i)
    return f


def mixed_gauge(launcher: Any) -> None:
    """desk_sweep: interpreted loops, Fraction sums and big-integer inverses."""
    _small_int_loop(3000)
    _fraction_sum(300)
    for _ in range(3):
        y = pow(_GAUGE_X, -1, _GAUGE_M)
        divmod(y * y, _GAUGE_M)


def bigint_gauge(launcher: Any) -> None:
    """deep_digits: modular powers of ~60 000-bit integers, as in Newton's lifts."""
    pow(_GAUGE_A, 3, _GAUGE_N)


def interpreter_gauge(launcher: Any) -> None:
    """hard_seeds: interpreted small-int loops, as in the residue scans."""
    _small_int_loop(60_000)
    _fraction_sum(2500)


def startup_gauge(launcher: Any) -> None:
    """cli_oneshot: one bare interpreter start, the part of each op the package cannot change."""
    launcher.bare_interpreter()


# -- registry --


@dataclass(frozen=True)
class Workload:
    """A workload of BENCHMARK.json (which records why it was chosen)."""

    name: str
    # batch(rng, tiny, launcher) -> ops; launcher(argv) runs the CLI once
    batch: Callable[[random.Random, bool, Callable], list[Op]]
    gauge: Callable[[Any], None]  # gauge(launcher): one host-speed gauge slice
    # the gauge's time at the reference host speed: its typical median on a
    # shared 2-vCPU x86-64 host with Python 3.11.7
    gauge_ref_ns: int
    in_children: bool = False  # the work runs in subprocesses, not in this one


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_sweep", desk_batch, mixed_gauge, 17_000_000),
        Workload("deep_digits", deep_batch, bigint_gauge, 21_000_000),
        Workload("hard_seeds", hard_batch, interpreter_gauge, 19_000_000),
        Workload("cli_oneshot", cli_batch, startup_gauge, 62_000_000, in_children=True),
    )
}
