"""Independent ground truth for the classifier and solver.

Two oracles that share no code path with the main pipeline: instances built
from known root triples (Vieta), and brute-force enumeration of congruence
solutions level by level.  Discrepancies become report entries, never
silent failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import classify
from .classify import CubicInstance, LocationSignature, atom_for_valuation, Domain
from .errors import BoundExceeded, DegenerateConstruction, ZeroDiscriminant
from .padic import PadicRational, Prime, int_valuation
from .residues import bound_from_env
from .solve import DEFAULT_DIGITS, all_roots, residual_bound

DEFAULT_ENUMERATION_BOUND = 10**7


def enumeration_bound() -> int:
    """Largest modulus p^m that enumeration may scan (PADIC_SCAN_BOUND overrides it)."""
    return bound_from_env(DEFAULT_ENUMERATION_BOUND)


@dataclass(frozen=True)
class RootSpec:
    """A drawn root: prescribed valuation, leading digit, and exact value."""

    valuation: int
    seed: int
    value: PadicRational


@dataclass(frozen=True)
class ConstructedInstance:
    """An instance with fully known roots and therefore a known signature."""

    instance: CubicInstance
    expected: LocationSignature
    roots: tuple[PadicRational, PadicRational, PadicRational]


def generate_from_roots(r1: PadicRational, r2: PadicRational) -> ConstructedInstance:
    """Build x^3 + ax = b with roots r1, r2 and r3 = -(r1 + r2), by Vieta.

    The expected signature is read off the three root valuations, with
    multiplicity coming from coincident values.
    """
    if r1.prime != r2.prime:
        raise ValueError("roots must share a prime")
    prime = r1.prime
    r3 = -(r1 + r2)
    roots = (r1, r2, r3)
    if any(r.is_zero for r in roots):
        raise DegenerateConstruction("a constructed root is zero")
    a = r1 * r2 + r1 * r3 + r2 * r3
    b = r1 * r2 * r3
    if a.is_zero or b.is_zero:
        raise DegenerateConstruction("construction produced a zero coefficient")
    counts = {Domain.UNITS: 0, Domain.SMALL_BALL: 0, Domain.EXTERIOR: 0}
    for r in roots:
        counts[atom_for_valuation(int(r.valuation))] += 1
    expected = LocationSignature(
        units=counts[Domain.UNITS],
        small_ball=counts[Domain.SMALL_BALL],
        exterior=counts[Domain.EXTERIOR],
    )
    return ConstructedInstance(CubicInstance(prime, a, b), expected, roots)


def random_root(
    rng: random.Random, prime: Prime, valuations: tuple[int, ...] = tuple(range(-3, 4))
) -> RootSpec:
    """Draw a root with uniform unit residue and a valuation from the given set."""
    p = prime.p
    while True:
        num = rng.randint(1, 999)
        den = rng.randint(1, 999)
        if num % p and den % p:
            break
    v = rng.choice(valuations)
    sign = rng.choice((-1, 1))
    value = PadicRational(prime, Fraction(sign * num, den) * Fraction(p) ** v)
    return RootSpec(v, value.leading_digit(), value)


def random_instance(
    rng: random.Random,
    prime: Prime,
    valuations: tuple[int, ...] = tuple(range(-3, 4)),
    max_tries: int = 100,
) -> ConstructedInstance:
    """Draw a ConstructedInstance, retrying degenerate draws."""
    for _ in range(max_tries):
        r1 = random_root(rng, prime, valuations).value
        r2 = random_root(rng, prime, valuations).value
        try:
            return generate_from_roots(r1, r2)
        except DegenerateConstruction:
            continue
    raise DegenerateConstruction("no valid instance after repeated draws")


def _solutions_mod(a: int, b: int, m: int, p: int) -> list[int]:
    # Level-by-level brute force: every residue extension is tried directly.
    sols = [x for x in range(p) if (x * x * x + a * x - b) % p == 0]
    modulus = p
    for _ in range(m - 1):
        larger = modulus * p
        nxt = []
        for x in sols:
            for d in range(p):
                cand = x + d * modulus
                if (cand * cand * cand + a * cand - b) % larger == 0:
                    nxt.append(cand)
        sols = nxt
        modulus = larger
    return sorted(sols)


def enumerate_roots_mod(a: int, b: int, m: int, prime: Prime) -> list[int]:
    """All x in [0, p^m) with x^3 + ax = b (mod p^m), sorted."""
    p = prime.p
    if p**m > enumeration_bound():
        raise BoundExceeded(
            f"p^m = {p**m} exceeds the enumeration bound {enumeration_bound()}"
        )
    return _solutions_mod(a, b, m, p)


def stable_zp_root_count(a: int, b: int, prime: Prime) -> int:
    """Number of Z_p roots of x^3 + ax = b, by counting lift-stable classes.

    Enumerates solutions mod p^m with m = 2*ord_p(D) + 2 and keeps residues
    whose derivative valuation i = ord_p(3x^2 + a) is at most ord_p(D)/2 (the
    index-i lifting hypothesis then holds); residues over the same root are
    collapsed via their class mod p^(m-i).
    """
    p = prime.p
    dfull = -4 * a**3 - 27 * b**2
    if dfull == 0:
        raise ZeroDiscriminant("enumeration count needs a nonzero discriminant")
    vd = int_valuation(dfull, p)
    m = 2 * vd + 2
    pm = p**m
    stable = set()
    for x in _solutions_mod(a, b, m, p):
        der = (3 * x * x + a) % pm
        if der == 0:
            continue
        i = 0
        while der % p == 0:
            der //= p
            i += 1
        if 2 * i <= vd:
            stable.add((i, x % p ** (m - i)))
    return len(stable)


@dataclass
class VerificationReport:
    """Outcome of checking classifier and solver against a known construction."""

    instance: CubicInstance
    expected: LocationSignature
    actual: LocationSignature
    signature_ok: bool
    roots_ok: bool
    residual_ok: bool
    entries: list[str]

    @property
    def passed(self) -> bool:
        return self.signature_ok and self.roots_ok and self.residual_ok


def verify(ci: ConstructedInstance, digits: int = DEFAULT_DIGITS) -> VerificationReport:
    """Compare classifier signature and solver roots against the construction."""
    inst = ci.instance
    entries: list[str] = []
    actual = classify.signature(inst)
    signature_ok = actual == ci.expected
    entries.append(
        f"signature expected {ci.expected.as_dict(include_zero=True)} "
        f"got {actual.as_dict(include_zero=True)}: "
        f"{'ok' if signature_ok else 'MISMATCH'}"
    )

    records = all_roots(inst, digits)
    expected_multiset: dict[tuple[int, tuple[int, ...]], int] = {}
    for r in ci.roots:
        key = (int(r.valuation), r.digits(digits).digits)
        expected_multiset[key] = expected_multiset.get(key, 0) + 1
    actual_multiset: dict[tuple[int, tuple[int, ...]], int] = {}
    for rec in records:
        key = (rec.valuation, rec.expansion.digits)
        actual_multiset[key] = actual_multiset.get(key, 0) + rec.multiplicity
    roots_ok = expected_multiset == actual_multiset
    entries.append(
        f"roots matched {sum(actual_multiset.values())}/{sum(expected_multiset.values())}"
        f"{' ok' if roots_ok else ' MISMATCH'}"
    )

    a, b = inst.a.value, inst.b.value
    residual_ok = True
    for rec in records:
        xhat = rec.approximation()
        res = xhat**3 + a * xhat - b
        bound = residual_bound(inst, rec, digits)
        if res != 0 and PadicRational(inst.prime, res).valuation < bound:
            residual_ok = False
            entries.append(f"residual bound violated at valuation {rec.valuation}")
    if residual_ok:
        entries.append("residuals within bound")
    return VerificationReport(
        inst, ci.expected, actual, signature_ok, roots_ok, residual_ok, entries
    )


@dataclass
class SweepSummary:
    attempted: int
    passed: int
    failed: int
    skipped: int
    failures: list[str]


def run_sweep(
    primes: list[Prime], instances: int, seed: int = 0, digits: int = DEFAULT_DIGITS
) -> SweepSummary:
    """Randomized construction-vs-pipeline sweep with a seeded generator."""
    rng = random.Random(seed)
    passed = failed = skipped = 0
    failures: list[str] = []
    for i in range(instances):
        prime = primes[i % len(primes)]
        r1 = random_root(rng, prime).value
        r2 = random_root(rng, prime).value
        try:
            ci = generate_from_roots(r1, r2)
        except DegenerateConstruction:
            skipped += 1
            continue
        report = verify(ci, digits)
        if report.passed:
            passed += 1
        else:
            failed += 1
            failures.append(
                f"p={prime.p} a={ci.instance.a.value} b={ci.instance.b.value}: "
                + "; ".join(report.entries)
            )
    return SweepSummary(instances, passed, failed, skipped, failures)
