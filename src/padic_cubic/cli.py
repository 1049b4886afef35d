"""Command-line front end.

Verbs: classify, count, solve, residue, fp-count, verify, sweep.  Output is
human text by default or one JSON document per invocation with --format json.
Errors go to stderr; exit status is 0 on success, 1 on usage errors, 2 on
internal inconsistencies (including oracle FAILs).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import classify
from .classify import CubicInstance, Domain
from .errors import InternalInconsistency, PadicCubicError, UsageError
from .fp_cubic import FpCubic, count_roots_formula, discriminant_mod_p, u_term
from .oracle import generate_from_roots, run_sweep, verify
from .padic import PadicRational, Prime
from .residues import cbrt_exists, monomial_root_count, monomial_solvable, sqrt_exists
from .solve import DEFAULT_DIGITS, all_roots, residual_bound

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?(?:\*p\^([+-]?\d+))?$")

#: Largest --digits accepted by solve, verify and sweep.
MAX_DIGITS = 100_000

_DOMAIN_ORDER = (
    Domain.UNITS,
    Domain.SMALL_BALL,
    Domain.INTEGERS,
    Domain.EXTERIOR,
    Domain.NOT_UNITS,
    Domain.NOT_SMALL_BALL,
    Domain.WHOLE,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        raise UsageError(message)


def parse_rational(text: str, prime: Prime) -> Fraction:
    """Parse 'n', 'n/d', or 'n/d*p^k' (p is the literal letter p)."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise UsageError(f"cannot parse rational {text!r}; use n, n/d, or n/d*p^k")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        k = int(m.group(3)) if m.group(3) else 0
    except ValueError:  # CPython's limit on str-to-int conversion
        raise UsageError(
            f"rational literal has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    if den == 0:
        raise UsageError("--a/--b denominator must be nonzero")
    limit = sys.get_int_max_str_digits()
    if limit and abs(k) * math.log10(prime.p) > limit:
        # refused before p^k is built: the answer could not be printed
        raise UsageError(f"p^{k} has more than {limit} decimal digits")
    return Fraction(num, den) * Fraction(prime.p) ** k


def _digit_count(text: str) -> int:
    """--digits: an integer from 1 to MAX_DIGITS."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= n <= MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"must be between 1 and {MAX_DIGITS}, got {n}")
    return n


def _decimal(x: Fraction) -> str:
    """x as decimal text, or a UsageError when it has too many digits to print."""
    try:
        return str(x)
    except ValueError:  # CPython's limit on int-to-str conversion
        raise UsageError(
            f"a number in the output has more than {sys.get_int_max_str_digits()}"
            " decimal digits; use smaller coefficients or roots"
        ) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="padic-cubic", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(sp: argparse.ArgumentParser, coeffs: bool = True) -> None:
        sp.add_argument("--p", type=int, required=True, help="prime > 3")
        if coeffs:
            sp.add_argument("--a", required=True, help="rational: n, n/d, or n/d*p^k")
            sp.add_argument("--b", required=True, help="rational: n, n/d, or n/d*p^k")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    add_common(sub.add_parser("classify", help="region, signature, per-domain counts"))
    add_common(sub.add_parser("count", help="root counts in the four main domains"))
    solve_p = sub.add_parser("solve", help="compute the roots to digit precision")
    add_common(solve_p)
    solve_p.add_argument("--digits", type=_digit_count, default=DEFAULT_DIGITS)

    res_p = sub.add_parser("residue", help="square/cube root existence for a")
    res_p.add_argument("--p", type=int, required=True)
    res_p.add_argument("--a", required=True)
    res_p.add_argument("--q", type=int, help="also test solvability of x^q = a")
    res_p.add_argument("--format", choices=("text", "json"), default="text")

    fp_p = sub.add_parser("fp-count", help="root count of x^3+a0*x=b0 over F_p")
    fp_p.add_argument("--p", type=int, required=True)
    fp_p.add_argument("--a0", type=int, required=True)
    fp_p.add_argument("--b0", type=int, required=True)
    fp_p.add_argument("--format", choices=("text", "json"), default="text")

    ver_p = sub.add_parser("verify", help="check pipeline against a known root pair")
    ver_p.add_argument("--p", type=int, required=True)
    ver_p.add_argument("--r1", required=True, help="first root (rational literal)")
    ver_p.add_argument("--r2", required=True, help="second root (rational literal)")
    ver_p.add_argument("--digits", type=_digit_count, default=DEFAULT_DIGITS)
    ver_p.add_argument("--format", choices=("text", "json"), default="text")

    sw_p = sub.add_parser("sweep", help="randomized oracle sweep with PASS/FAIL tally")
    sw_p.add_argument("--primes", default="5,7,11,13", help="comma-separated primes")
    sw_p.add_argument("--instances", type=int, default=100)
    sw_p.add_argument("--seed", type=int, default=0)
    sw_p.add_argument("--digits", type=_digit_count, default=DEFAULT_DIGITS)
    sw_p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _instance(args: argparse.Namespace) -> CubicInstance:
    prime = Prime(args.p)
    a = parse_rational(args.a, prime)
    b = parse_rational(args.b, prime)
    return CubicInstance(prime, PadicRational(prime, a), PadicRational(prime, b))


def _emit(doc: dict, lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc))
    else:
        for line in lines:
            print(line)


def _cmd_classify(args: argparse.Namespace) -> int:
    inst = _instance(args)
    sig = classify.signature(inst)
    counts = {d.value: classify.count_in(inst, d) for d in _DOMAIN_ORDER}
    solvable = {d.value: classify.solvable_in(inst, d) for d in _DOMAIN_ORDER}
    doc = {
        "p": inst.prime.p,
        "a": _decimal(inst.a.value),
        "b": _decimal(inst.b.value),
        "region": classify.region(inst).value,
        "signature": sig.as_dict(),
        "total": sig.total,
        "counts": counts,
        "solvable": solvable,
    }
    lines = [
        f"region: {doc['region']}",
        f"signature: {doc['signature'] or '{}'} (total {sig.total})",
        "counts: " + ", ".join(f"{k}={v}" for k, v in counts.items()),
    ]
    _emit(doc, lines, args.format)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    inst = _instance(args)
    counts = {
        d.value: classify.count_in(inst, d)
        for d in (Domain.UNITS, Domain.SMALL_BALL, Domain.EXTERIOR, Domain.WHOLE)
    }
    doc = {
        "p": inst.prime.p,
        "a": _decimal(inst.a.value),
        "b": _decimal(inst.b.value),
        "counts": counts,
    }
    lines = [f"N_{k} = {v}" for k, v in counts.items()]
    _emit(doc, lines, args.format)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _instance(args)
    records = all_roots(inst, args.digits)
    roots = [
        {
            "digits": list(rec.expansion.digits),
            "valuation": rec.valuation,
            "multiplicity": rec.multiplicity,
            "domain": rec.domain.value,
            "string": rec.expansion.unit_string(),
        }
        for rec in records
    ]
    residual = min(
        (residual_bound(inst, r, args.digits) for r in records), default=None
    )
    doc = {
        "p": inst.prime.p,
        "a": _decimal(inst.a.value),
        "b": _decimal(inst.b.value),
        "digits": args.digits,
        "roots": roots,
        "total": sum(r.multiplicity for r in records),
        "residual_exponent": residual,
    }
    lines = []
    if not records:
        lines.append("no roots in Q_p")
    for rec in records:
        lines.append(
            f"x = p^{rec.valuation} * ({rec.expansion.unit_string()})"
            f"  [{rec.domain.value}, multiplicity {rec.multiplicity}]"
        )
    if residual is not None:
        lines.append(f"residual exponent >= {residual}")
    _emit(doc, lines, args.format)
    return 0


def _cmd_residue(args: argparse.Namespace) -> int:
    prime = Prime(args.p)
    a = PadicRational(prime, parse_rational(args.a, prime))
    doc = {
        "p": prime.p,
        "a": _decimal(a.value),
        "sqrt_exists": sqrt_exists(a),
        "cbrt_exists": cbrt_exists(a),
    }
    lines = [
        f"sqrt exists: {doc['sqrt_exists']}",
        f"cbrt exists: {doc['cbrt_exists']}",
    ]
    if args.q is not None:
        doc["q"] = args.q
        doc["solvable"] = monomial_solvable(a, args.q)
        lines.append(f"x^{args.q} = a solvable: {doc['solvable']}")
        if args.q % prime.p != 0:
            doc["root_count"] = monomial_root_count(a, args.q)
            lines.append(f"root count: {doc['root_count']}")
    _emit(doc, lines, args.format)
    return 0


def _cmd_fp_count(args: argparse.Namespace) -> int:
    prime = Prime(args.p)
    cubic = FpCubic(prime, args.a0, args.b0)
    doc = {
        "p": prime.p,
        "a0": cubic.a0,
        "b0": cubic.b0,
        "D0": discriminant_mod_p(cubic),
        "u_p_minus_2": u_term(cubic, prime.p - 2),
        "count": count_roots_formula(cubic),
    }
    lines = [
        f"D0 = {doc['D0']}",
        f"u_(p-2) = {doc['u_p_minus_2']}",
        f"roots over F_{prime.p}: {doc['count']}",
    ]
    _emit(doc, lines, args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    prime = Prime(args.p)
    r1 = PadicRational(prime, parse_rational(args.r1, prime))
    r2 = PadicRational(prime, parse_rational(args.r2, prime))
    ci = generate_from_roots(r1, r2)
    report = verify(ci, args.digits)
    doc = {
        "p": prime.p,
        "a": _decimal(ci.instance.a.value),
        "b": _decimal(ci.instance.b.value),
        "passed": report.passed,
        "expected_signature": report.expected.as_dict(include_zero=True),
        "actual_signature": report.actual.as_dict(include_zero=True),
        "entries": report.entries,
    }
    lines = ["PASS" if report.passed else "FAIL"] + report.entries
    _emit(doc, lines, args.format)
    return 0 if report.passed else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        primes = [Prime(int(tok)) for tok in args.primes.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --primes list: {args.primes!r}") from exc
    if not primes:
        raise UsageError("--primes must name at least one prime")
    if args.instances < 1:
        raise UsageError("--instances must be positive")
    summary = run_sweep(primes, args.instances, args.seed, args.digits)
    doc = {
        "instances": summary.attempted,
        "passed": summary.passed,
        "failed": summary.failed,
        "skipped": summary.skipped,
        "failures": summary.failures[:10],
    }
    lines = [
        f"PASS {summary.passed}  FAIL {summary.failed}  SKIP {summary.skipped}"
        f"  (of {summary.attempted})"
    ] + summary.failures[:10]
    _emit(doc, lines, args.format)
    return 0 if summary.failed == 0 else 2


_COMMANDS = {
    "classify": _cmd_classify,
    "count": _cmd_count,
    "solve": _cmd_solve,
    "residue": _cmd_residue,
    "fp-count": _cmd_fp_count,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.verb](args)
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except PadicCubicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
