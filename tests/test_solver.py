import dataclasses
import random
from fractions import Fraction

import pytest

from padic_cubic.classify import CubicInstance, Domain, count_in
from padic_cubic.errors import (
    InternalInconsistency,
    NonconvergentSeed,
    NotDoubleRoot,
    SingularSeed,
    ZeroCoefficient,
)
from padic_cubic.oracle import generate_from_roots, stable_zp_root_count, verify
from padic_cubic.padic import PadicRational, Prime
from padic_cubic.solve import (
    CASE_CUBE,
    CASE_FULL,
    CASE_LINEAR,
    CASE_SQRT,
    HenselSeed,
    _singular_branch_roots,
    all_roots,
    candidate_scalings,
    congruence_initials,
    double_root_closed_form,
    formula_case,
    lift,
    residual_bound,
    series_agreement_exponent,
    series_root,
)

P5, P7, P11, P13 = Prime(5), Prime(7), Prime(11), Prime(13)


def inst(a, b, prime):
    return CubicInstance.from_fractions(Fraction(a), Fraction(b), prime)


def test_candidate_scalings_examples():
    eqs = candidate_scalings(inst(5, 25, P5))
    assert [e.k for e in eqs] == [-1]
    assert eqs[0].a.norm_exponent() == 1 and eqs[0].b.norm_exponent() == 1

    eqs = candidate_scalings(inst(4, 5, P11))
    assert [e.k for e in eqs] == [0]
    assert eqs[0].a.value == 4 and eqs[0].b.value == 5

    eqs = candidate_scalings(inst(-3 * 49, -2 * 343, P7))
    assert [e.k for e in eqs] == [-1]
    assert eqs[0].a.value == -3 and eqs[0].b.value == -2


def test_formula_case_selection():
    assert formula_case(candidate_scalings(inst(4, 5, P11))[0]) == CASE_FULL
    assert formula_case(candidate_scalings(inst(5, 25, P5))[0]) == CASE_LINEAR
    # |a| < |b| = 1 seeds the pure cube congruence
    assert formula_case(candidate_scalings(inst(5, 2, P5))[0]) == CASE_CUBE
    # |b| < |a| = 1 seeds the pure square congruence (at the k = 0 scaling)
    eqs = candidate_scalings(inst(-1, 5, P5))
    assert [e.k for e in eqs] == [-1, 0]
    assert formula_case(eqs[0]) == CASE_LINEAR
    assert formula_case(eqs[1]) == CASE_SQRT


def test_congruence_initials_examples():
    seeds = congruence_initials(candidate_scalings(inst(4, 5, P11))[0])
    assert [s.r0 for s in seeds] == [1, 2, 8]
    assert all(s.case == CASE_FULL for s in seeds)

    (seed,) = congruence_initials(candidate_scalings(inst(5, 25, P5))[0])
    assert seed.case == CASE_LINEAR and seed.gamma == 1 and seed.r0 == 1
    assert seed.poly == (Fraction(5), Fraction(0), Fraction(1), Fraction(-1))

    assert congruence_initials(candidate_scalings(inst(1, 1, P5))[0]) == []


def test_lift_examples():
    seeds = congruence_initials(candidate_scalings(inst(4, 5, P11))[0])
    lifted = {s.r0: lift(s, 2) for s in seeds}
    assert lifted[1].digits == (1, 0)
    assert lifted[2].digits == (2, 2)  # 24 mod 121
    assert lifted[8].digits == (8, 8)  # 96 mod 121
    assert all(e.valuation == 0 for e in lifted.values())


def test_lift_rejects_singular_seed():
    # roots 1 and 12 collide mod 11, so the derivative vanishes at the seed
    it = inst(-157, -156, P11)
    seeds = congruence_initials(candidate_scalings(it)[0])
    singular = [s for s in seeds if s.is_singular]
    assert [s.r0 for s in singular] == [1]
    with pytest.raises(SingularSeed):
        lift(singular[0], 4)


def test_series_examples():
    seeds = congruence_initials(candidate_scalings(inst(4, 5, P11))[0])
    by_r0 = {s.r0: s for s in seeds}
    # exact root: zero correction regardless of term count
    assert series_root(by_r0[1], 3, digits=4).digits == (1, 0, 0, 0)
    assert series_agreement_exponent(by_r0[1], 3) is None
    for r0 in (2, 8):
        seed = by_r0[r0]
        m1 = series_agreement_exponent(seed, 1)
        assert m1 == 2
        assert series_root(seed, 1).digits == lift(seed, m1).digits


def test_series_agreement_monotone_and_correct():
    seeds = congruence_initials(candidate_scalings(inst(4, 5, P11))[0])
    seed = [s for s in seeds if s.r0 == 2][0]
    last = 0
    for terms in (1, 2, 3, 4):
        m = series_agreement_exponent(seed, terms)
        assert m >= last
        assert series_root(seed, terms, digits=m).digits == lift(seed, m).digits
        last = m


def test_series_nonconvergent_seed():
    # handcrafted seed whose residual is a unit: outside the convergence region
    seed = HenselSeed(2, (Fraction(1), Fraction(0), Fraction(1), Fraction(-3)), CASE_FULL, P5)
    with pytest.raises(NonconvergentSeed):
        series_root(seed, 2)


def test_double_root_closed_form_examples():
    r, s = double_root_closed_form(inst(-3, -2, P7))
    assert r.value == 1 and s.value == -2
    r, s = double_root_closed_form(inst(-12, -16, P5))
    assert r.value == 2 and s.value == -4
    r, s = double_root_closed_form(inst(-3 * 121, -2 * 1331, P11))
    assert r.value == 11 and s.value == -22
    with pytest.raises(NotDoubleRoot):
        double_root_closed_form(inst(4, 5, P11))


def test_all_roots_worked_instance():
    records = all_roots(inst(4, 5, P11), 2)
    assert [r.expansion.unit_residue() for r in records] == [1, 24, 96]
    assert all(r.domain is Domain.UNITS and r.multiplicity == 1 for r in records)


def test_all_roots_double_root():
    records = all_roots(inst(-3, -2, P7), 3)
    assert [(r.expansion.unit_residue(), r.multiplicity) for r in records] == [
        (1, 2),
        (341, 1),  # -2 mod 343
    ]
    assert all(r.domain is Domain.UNITS for r in records)


def test_all_roots_small_ball_case():
    records = all_roots(inst(5, 25, P5), 2)
    assert len(records) == 1
    rec = records[0]
    assert rec.valuation == 1 and rec.domain is Domain.SMALL_BALL
    assert rec.expansion.digits == (1, 4)  # y = 1 + 4*5 solves 5y^3 + y = 1 mod 25


def test_all_roots_resolves_colliding_residues():
    # roots 1, 12, -13 of x^3 - 157x + 156; 1 and 12 share a residue mod 11
    it = inst(-157, -156, P11)
    records = all_roots(it, 20)
    want = sorted(
        PadicRational(P11, Fraction(v)).digits(20).digits for v in (1, 12, -13)
    )
    assert sorted(r.expansion.digits for r in records) == want


def test_all_roots_empty_when_unsolvable():
    assert all_roots(inst(5, -5, P5), 4) == []
    assert all_roots(inst(1, 1, P5), 4) == []


def test_root_records_satisfy_residual_bound():
    rng = random.Random(11)
    primes = (P5, P7, P11, P13)
    for i in range(60):
        prime = primes[i % 4]
        p = prime.p
        num = rng.randint(1, 200)
        den = rng.randint(1, 200)
        if num % p == 0 or den % p == 0:
            continue
        a = Fraction(rng.choice((-1, 1)) * num, den) * Fraction(p) ** rng.randint(-2, 2)
        b = Fraction(rng.choice((-1, 1)) * den, num) * Fraction(p) ** rng.randint(-2, 2)
        it = inst(a, b, prime)
        n = 12
        for rec in all_roots(it, n):
            xhat = rec.approximation()
            res = xhat**3 + a * xhat - b
            if res != 0:
                assert PadicRational(prime, res).valuation >= residual_bound(it, rec, n)


def test_vieta_and_root_sum_on_three_root_instances():
    cases = [inst(4, 5, P11), inst(-157, -156, P11), inst(-7, -6, P11)]
    n = 16
    for it in cases:
        records = all_roots(it, n)
        roots = []
        for rec in records:
            roots.extend([rec.approximation()] * rec.multiplicity)
        assert len(roots) == 3
        vals = [rec.valuation for rec in records for _ in range(rec.multiplicity)]
        e1 = sum(roots)
        e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        e3 = roots[0] * roots[1] * roots[2]
        p = it.prime
        if e1 != 0:
            assert PadicRational(p, e1).valuation >= n + min(vals)
        pair_min = min(
            vals[i] + vals[j] for i in range(3) for j in range(3) if i < j
        )
        if e2 != it.a.value:
            assert PadicRational(p, e2 - it.a.value).valuation >= n + pair_min
        if e3 != it.b.value:
            assert PadicRational(p, e3 - it.b.value).valuation >= n + sum(vals)


def test_counts_match_classifier_on_random_instances():
    rng = random.Random(77)
    primes = (P5, P7, P11, P13)
    for i in range(150):
        prime = primes[i % 4]
        p = prime.p
        while True:
            num, den = rng.randint(1, 999), rng.randint(1, 999)
            if num % p and den % p:
                break
        a = Fraction(rng.choice((-1, 1)) * num, den) * Fraction(p) ** rng.randint(-3, 3)
        while True:
            num, den = rng.randint(1, 999), rng.randint(1, 999)
            if num % p and den % p:
                break
        b = Fraction(rng.choice((-1, 1)) * num, den) * Fraction(p) ** rng.randint(-3, 3)
        it = inst(a, b, prime)
        records = all_roots(it, 8)
        assert sum(r.multiplicity for r in records) == count_in(it, Domain.WHOLE)
        for atom in (Domain.UNITS, Domain.SMALL_BALL, Domain.EXTERIOR):
            got = sum(r.multiplicity for r in records if r.domain is atom)
            assert got == count_in(it, atom)


def test_deterministic_output():
    it = inst(-157, -156, P11)
    first = all_roots(it, 20)
    second = all_roots(it, 20)
    assert first == second


def test_all_roots_rejects_zero_coefficients():
    with pytest.raises(ZeroCoefficient):
        inst(0, 5, P5)


def _close_pair(rng, prime, k):
    """Integer roots u and u + w*p^k (u, w units): a seed singular for k >= 1."""
    p = prime.p
    while True:
        u, w = rng.randint(1, 999), rng.randint(1, 999)
        if u % p and w % p:
            break
    u *= rng.choice((-1, 1))
    return generate_from_roots(
        PadicRational(prime, Fraction(u)), PadicRational(prime, Fraction(u + w * p**k))
    )


#: stable_zp_root_count enumerates about p^(k+1) classes; it checks the cells
#: up to this cost (under a second in all), verify checks every cell.
ENUMERATION_COST_CAP = 30_000


@pytest.mark.parametrize("prime", [P5, P7, P11, P13])
def test_singular_branch_on_close_roots(prime):
    rng = random.Random(prime.p)
    p = prime.p
    for k in range(1, 7):
        ci = _close_pair(rng, prime, k)
        report = verify(ci, 20)
        assert report.passed, report.entries
        seeds = congruence_initials(candidate_scalings(ci.instance)[0])
        assert any(s.is_singular for s in seeds)
        if p ** (k + 1) <= ENUMERATION_COST_CAP:
            a, b = int(ci.instance.a.value), int(ci.instance.b.value)
            assert stable_zp_root_count(a, b, prime) == 3


@pytest.mark.parametrize("p, k", [(101, 3), (5, 20)])
def test_singular_branch_deep_gaps(p, k):
    """Cases that took minutes (p = 101, k = 3) or never finished (p = 5, k = 20)."""
    ci = _close_pair(random.Random(k), Prime(p), k)
    for digits in (5, 20, 40):
        report = verify(ci, digits)
        assert report.passed, report.entries


def test_singular_branch_depth_cap():
    # roots 1 and 1 + 5^8 separate at level 8; a claimed v_disc of 0 caps at 6
    ci = generate_from_roots(PadicRational(P5, Fraction(1)), PadicRational(P5, Fraction(1 + 5**8)))
    eq = candidate_scalings(ci.instance)[0]
    (seed,) = [s for s in congruence_initials(eq) if s.is_singular]
    with pytest.raises(InternalInconsistency):
        _singular_branch_roots(seed.poly, seed.r0, 5, 20, 0)
    assert len(_singular_branch_roots(seed.poly, seed.r0, 5, 20, 16)) == 2


def test_no_scan_in_production(monkeypatch):
    """With the scan bound at 4 every residue scan would raise; verify must
    still answer, classifier and solver alike, from p = 5 to 2^61 - 1."""
    monkeypatch.setenv("PADIC_SCAN_BOUND", "4")
    rng = random.Random(61)
    for p in (5, 7, 101, 10007, 999983, 2**31 - 1, 2**61 - 1):
        prime = Prime(p)
        for _ in range(4):
            r1, r2 = (
                PadicRational(prime, Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * Fraction(p) ** rng.randint(-2, 2))
                for _ in range(2)
            )
            report = verify(generate_from_roots(r1, r2), 20)
            assert report.passed, report.entries
        assert len(all_roots(inst(4, 5, prime), 20)) >= 1


def _reference_roots(roots, prime, n):
    """(valuation, n digits) of exact rational roots by plain loops, sorted like all_roots."""
    p = prime.p
    m = p**n
    out = []
    for r in roots:
        r = Fraction(r)
        num, den, v = r.numerator, r.denominator, 0
        while num % p == 0:
            num, v = num // p, v + 1
        while den % p == 0:
            den, v = den // p, v - 1
        res = x = num * pow(den, -1, m) % m
        digs = []
        for _ in range(n):
            x, d = divmod(x, p)
            digs.append(d)
        out.append((v, res, tuple(digs)))
    return [(v, digs) for v, _, digs in sorted(out)]


@pytest.mark.parametrize(
    "prime, r1, r2, cases, singular",
    [
        (P11, Fraction(1, 2), Fraction(3, 4), {CASE_FULL}, False),
        # 2 + 19 = 3*7: two unit roots from x^2 = -A0 and one root of valuation 1
        (P7, Fraction(2), Fraction(19), {CASE_SQRT, CASE_LINEAR}, False),
        (P5, Fraction(7, 5), Fraction(-3, 25), {CASE_LINEAR}, False),
        # 3 and 3 + 2*13^4 share four digits
        (P13, Fraction(3), Fraction(3 + 2 * 13**4), {CASE_FULL}, True),
    ],
)
def test_all_roots_match_vieta_digits_at_high_precision(prime, r1, r2, cases, singular):
    n = 1000
    it = generate_from_roots(PadicRational(prime, r1), PadicRational(prime, r2)).instance
    eqs = [eq for eq in candidate_scalings(it) if formula_case(eq)]
    assert cases <= {formula_case(eq) for eq in eqs}
    seeds = [s for eq in eqs for s in congruence_initials(eq)]
    assert any(s.is_singular for s in seeds) == singular
    records = all_roots(it, n)
    assert all(rec.multiplicity == 1 for rec in records)
    got = [(rec.valuation, rec.expansion.digits) for rec in records]
    assert got == _reference_roots((r1, r2, -(r1 + r2)), prime, n)


def test_wrong_seed_raises_instead_of_looping():
    # roots 1 and 12 collide mod 11, so f'(1) = 0 mod 11
    it = inst(-157, -156, P11)
    (singular,) = [s for s in congruence_initials(candidate_scalings(it)[0]) if s.is_singular]
    with pytest.raises(InternalInconsistency):
        lift(dataclasses.replace(singular, slope=1), 20)
    # 3 is no root mod 11 (f(3) = 9), though f'(3) = 2 is a unit
    with pytest.raises(InternalInconsistency):
        lift(HenselSeed(3, singular.poly, CASE_FULL, P11), 20)
