import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_cubic.errors import ZeroResidue
from padic_cubic.fp_cubic import (
    FpCubic,
    count_roots_formula,
    discriminant_mod_p,
    linear_root,
    roots_exhaustive,
    roots_mod_p,
    u_term,
    u_term_iterated,
)
from padic_cubic.padic import Prime
from padic_cubic.residues import nth_roots_mod_p

P5, P7, P11, P13 = Prime(5), Prime(7), Prime(11), Prime(13)


def test_coefficients_must_be_units():
    with pytest.raises(ZeroResidue):
        FpCubic(P5, 5, 1)
    with pytest.raises(ZeroResidue):
        FpCubic(P5, 1, 10)


def test_discriminant_examples():
    assert discriminant_mod_p(FpCubic(P5, 1, 1)) == 4
    assert discriminant_mod_p(FpCubic(P11, 4, 5)) == 4
    assert discriminant_mod_p(FpCubic(P7, 4, 5)) == 0


def test_u_term_examples():
    c = FpCubic(P11, 4, 5)
    assert u_term(c, 2) == 7  # initial condition -a0 mod 11
    assert u_term(c, 9) == 0
    assert [u_term(c, n) for n in range(1, 10)] == [0, 7, 5, 5, 4, 5, 9, 0, 0]
    assert u_term(FpCubic(P5, 1, 2), 3) == 2


def test_count_formula_examples():
    assert count_roots_formula(FpCubic(P11, 4, 5)) == 3
    assert count_roots_formula(FpCubic(P5, 1, 1)) == 0
    assert count_roots_formula(FpCubic(P5, 1, 2)) == 1


def test_roots_exhaustive_examples():
    assert roots_exhaustive(FpCubic(P11, 4, 5)) == [1, 2, 8]
    assert roots_exhaustive(FpCubic(P5, 1, 1)) == []
    assert roots_exhaustive(FpCubic(P5, 1, 2)) == [1]


def test_exhaustive_roots_satisfy_the_congruence():
    for prime in (P5, P7, P11, P13):
        p = prime.p
        for a0 in range(1, p):
            for b0 in range(1, p):
                for x in roots_exhaustive(FpCubic(prime, a0, b0)):
                    assert (x**3 + a0 * x - b0) % p == 0


def test_linear_root_examples():
    assert linear_root(1, 1, P5) == 1
    assert linear_root(2, 1, P5) == 3
    assert linear_root(4, 5, P11) == 4
    with pytest.raises(ZeroResidue):
        linear_root(0, 1, P5)


@pytest.mark.parametrize("prime", [P5, P7, P11, P13])
def test_count_formula_matches_enumeration(prime):
    """Formula vs distinct-root scan over every unit pair.

    When the reduced discriminant vanishes the formula counts multiplicity
    (3) while distinct enumeration sees a double plus a simple root (2, or
    conceivably 1); both readings are recorded rather than hidden.
    """
    p = prime.p
    for a0 in range(1, p):
        for b0 in range(1, p):
            c = FpCubic(prime, a0, b0)
            formula = count_roots_formula(c)
            distinct = len(roots_exhaustive(c))
            if discriminant_mod_p(c) != 0:
                assert formula == distinct
            else:
                assert formula == 3 and distinct in (1, 2)


@given(
    prime=st.sampled_from((P5, P7, P11, P13, Prime(101), Prime(10007))),
    a0=st.integers(min_value=1, max_value=999),
    b0=st.integers(min_value=1, max_value=999),
    n=st.integers(min_value=1, max_value=10**4),
)
@settings(max_examples=150, deadline=None)
def test_matrix_power_agrees_with_iteration(prime, a0, b0, n):
    """u_term (powers of x modulo the characteristic polynomial) against iteration."""
    p = prime.p
    if a0 % p == 0 or b0 % p == 0:
        return
    c = FpCubic(prime, a0, b0)
    assert u_term(c, n) == u_term_iterated(c, n)


def _agrees_with_scans(prime, a0, b0):
    p = prime.p
    assert roots_mod_p((1, 0, a0, -b0), p) == roots_exhaustive(FpCubic(prime, a0, b0))
    assert roots_mod_p((1, 0, 0, -b0), p) == nth_roots_mod_p(b0, 3, prime)
    assert roots_mod_p((1, 0, a0), p) == nth_roots_mod_p(-a0 % p, 2, prime)


@pytest.mark.parametrize("prime", [P5, P7, P11, P13])
def test_roots_mod_p_matches_the_scans_everywhere(prime):
    """Every unit pair, the vanishing discriminants included: a double root
    comes out once, as the scan lists it."""
    p = prime.p
    doubles = 0
    for a0 in range(1, p):
        for b0 in range(1, p):
            _agrees_with_scans(prime, a0, b0)
            if discriminant_mod_p(FpCubic(prime, a0, b0)) == 0:
                doubles += 1
                assert len(roots_mod_p((1, 0, a0, -b0), p)) == 2
    assert doubles > 0


@pytest.mark.parametrize("prime", [Prime(101), Prime(10007)])
def test_roots_mod_p_matches_the_scans_on_seeded_draws(prime):
    rng = random.Random(prime.p)
    for _ in range(40):
        _agrees_with_scans(prime, rng.randrange(1, prime.p), rng.randrange(1, prime.p))
    # roots 1, 2, -3 and a double root at 1
    assert roots_mod_p((1, 0, -7, 6), prime.p) == sorted([1, 2, prime.p - 3])
    assert roots_mod_p((1, 0, -3, 2), prime.p) == [1, prime.p - 2]


def test_roots_mod_p_on_any_polynomial_of_degree_at_most_3():
    rng = random.Random(5)
    for p in (5, 7, 11, 13, 17, 41, 97):
        for _ in range(200):
            c = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
            if not any(c):
                continue
            want = [x for x in range(p) if sum(ci * x ** (len(c) - 1 - i) for i, ci in enumerate(c)) % p == 0]
            assert roots_mod_p(c, p) == want
    assert roots_mod_p((0, 0, 3, 4), 5) == [2]  # leading zeros drop the degree
    assert roots_mod_p((7,), 5) == []
    with pytest.raises(ZeroResidue):
        roots_mod_p((5, 10, 0, 15), 5)


@pytest.mark.parametrize("p", [999983, 2**31 - 1, 2**61 - 1])
def test_roots_mod_p_at_large_primes(p):
    """No scan is possible here: each root must satisfy the congruence, and
    the count must match the discriminant/recurrence formula."""
    rng = random.Random(p)
    prime = Prime(p)
    for _ in range(20):
        a0, b0 = rng.randrange(1, p), rng.randrange(1, p)
        roots = roots_mod_p((1, 0, a0, -b0), p)
        assert all((x**3 + a0 * x - b0) % p == 0 for x in roots)
        assert len(roots) == count_roots_formula(FpCubic(prime, a0, b0))
    assert roots_mod_p((1, 0, -7, 6), p) == [1, 2, p - 3]
