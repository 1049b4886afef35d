import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_cubic.errors import (
    DivisionByZero,
    PrimeError,
    ZeroArgument,
    ZeroDenominator,
)
from padic_cubic.padic import (
    MR_EXACT_BOUND,
    DigitExpansion,
    PadicRational,
    Prime,
    int_valuation,
    is_prime,
    is_prime_trial,
    make_padic,
    residue_digits,
)

P5, P7, P11, P13 = Prime(5), Prime(7), Prime(11), Prime(13)
PRIMES = (P5, P7, P11, P13)


@st.composite
def nonzero_fractions(draw):
    num = draw(st.integers(min_value=-(10**6), max_value=10**6).filter(bool))
    den = draw(st.integers(min_value=1, max_value=10**6))
    return Fraction(num, den)


primes_st = st.sampled_from(PRIMES)


@pytest.mark.parametrize("bad", [4, 3, 2, 1, 0, 9, -5])
def test_prime_rejects_non_primes_and_small_primes(bad):
    with pytest.raises(PrimeError):
        Prime(bad)


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(n) == is_prime_trial(n) for n in range(-5, 30000))
    rng = random.Random(12)
    for _ in range(2000):
        n = rng.randrange(10**8, 10**10)
        assert is_prime(n) == is_prime_trial(n)


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the first 9, 12 and 13 prime bases;
    # the last equals MR_EXACT_BOUND and so goes to BPSW
    for n in (3825123056546413051, 318665857834031151167461, 3317044064679887385961981):
        assert not is_prime(n)
    assert MR_EXACT_BOUND == 3317044064679887385961981
    # Carmichael numbers and a square of a prime above the bound
    for n in (561, 41041, 825265, 321197185, (2**89 - 1) ** 2):
        assert not is_prime(n)


def test_is_prime_above_the_exact_bound():
    """BPSW: Mersenne primes and products of two large primes."""
    for e in (89, 107, 127, 521):
        assert is_prime(2**e - 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1))
    assert not is_prime(2**89 + 1)
    assert not is_prime((10**18 + 3) * (10**18 + 9))


def test_large_primes_are_accepted():
    for p in (10**18 + 3, 2**61 - 1, 2**127 - 1):
        assert Prime(p).p == p
    with pytest.raises(PrimeError):
        Prime(10**18 + 1)


def test_make_padic_examples():
    x = make_padic(25, 1, P5)
    assert x.valuation == 2 and x.unit_part().value == 1
    y = make_padic(2, 7, P7)
    assert y.valuation == -1 and y.unit_part().value == 2
    z = make_padic(-6, 1, P11)
    assert z.valuation == 0 and z.unit_part().value == -6


def test_make_padic_zero_denominator():
    with pytest.raises(ZeroDenominator):
        make_padic(1, 0, P5)


def test_valuation_examples():
    assert make_padic(1, 1, P7).valuation == 0
    assert make_padic(25, 1, P5).valuation == 2
    assert make_padic(0, 1, P5).valuation == math.inf


def test_norm_exponent_examples():
    assert make_padic(25, 1, P5).norm_exponent() == -2
    assert make_padic(2, 7, P7).norm_exponent() == 1
    assert make_padic(3, 1, P5).norm_exponent() == 0
    with pytest.raises(ZeroArgument):
        make_padic(0, 1, P5).norm_exponent()


def test_unit_part_examples():
    assert make_padic(25, 1, P5).unit_part().value == 1
    assert make_padic(50, 1, P5).unit_part().value == 2
    assert make_padic(-6, 25, P5).unit_part().value == -6
    with pytest.raises(ZeroArgument):
        make_padic(0, 1, P5).unit_part()


def test_digits_examples():
    assert make_padic(-1, 1, P5).digits(3).digits == (4, 4, 4)
    # 2*x = 1 mod 125 forces x = 63 = 3 + 2*5 + 2*25
    half = make_padic(1, 2, P5).digits(3)
    assert half.valuation == 0 and half.digits == (3, 2, 2)
    tw = make_padic(25, 1, P5).digits(2)
    assert tw.valuation == 2 and tw.digits == (1, 0)
    with pytest.raises(ZeroArgument):
        make_padic(0, 1, P5).digits(3)


def test_digit_expansion_rendering():
    exp = make_padic(1, 2, P5).digits(3)
    assert exp.unit_string() == "3 + 2·5 + 2·5^2 + O(5^3)"
    assert exp.unit_residue() == 63
    assert exp.approximation() == 63


def test_arithmetic_examples():
    assert (make_padic(25, 1, P5) + make_padic(-25, 1, P5)).is_zero
    prod = make_padic(1, 5, P5) * make_padic(5, 1, P5)
    assert prod.value == 1 and prod.valuation == 0
    inv = make_padic(2, 1, P5).inverse()
    assert inv.value == Fraction(1, 2) and inv.valuation == 0


def test_division_by_zero_and_mixed_primes():
    with pytest.raises(DivisionByZero):
        make_padic(0, 1, P5).inverse()
    with pytest.raises(DivisionByZero):
        make_padic(1, 1, P5) / make_padic(0, 1, P5)
    with pytest.raises(ValueError):
        make_padic(1, 1, P5) + make_padic(1, 1, P7)


@given(x=nonzero_fractions(), y=nonzero_fractions(), prime=primes_st)
@settings(max_examples=200)
def test_valuation_is_additive_on_products(x, y, prime):
    a = PadicRational(prime, x)
    b = PadicRational(prime, y)
    assert (a * b).valuation == a.valuation + b.valuation


@given(x=nonzero_fractions(), y=nonzero_fractions(), prime=primes_st)
@settings(max_examples=200)
def test_ultrametric_inequality(x, y, prime):
    a = PadicRational(prime, x)
    b = PadicRational(prime, y)
    s = a + b
    lo = min(a.valuation, b.valuation)
    assert s.valuation >= lo
    if a.valuation != b.valuation:
        assert s.valuation == lo


@given(x=nonzero_fractions(), prime=primes_st)
@settings(max_examples=200)
def test_unit_decomposition_is_exact(x, prime):
    a = PadicRational(prime, x)
    u = a.unit_part()
    assert u.valuation == 0
    assert u.times_power(int(a.valuation)).value == a.value
    assert 1 <= a.leading_digit() <= prime.p - 1


@given(x=nonzero_fractions(), n=st.integers(min_value=1, max_value=12), prime=primes_st)
@settings(max_examples=200)
def test_digits_reconstruct_the_unit_part(x, n, prime):
    a = PadicRational(prime, x)
    exp = a.digits(n)
    assert exp.unit_residue() == a.unit_part().residue(n)
    assert exp.digits[0] != 0


@given(x=nonzero_fractions(), n=st.integers(min_value=1, max_value=11), prime=primes_st)
@settings(max_examples=200)
def test_digits_are_stable_under_precision_increase(x, n, prime):
    a = PadicRational(prime, x)
    assert a.digits(n + 1).digits[:n] == a.digits(n).digits


def _digits_by_loop(r, p, n):
    digs = []
    for _ in range(n):
        r, d = divmod(r, p)
        digs.append(d)
    return tuple(digs)


@pytest.mark.parametrize("p", [5, 101, 2**61 - 1])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 4001])
def test_residue_digits_match_the_digit_loop(p, n):
    m = p**n
    r = p * random.Random(n).randrange(m // p) + 1  # d0 = 1, for the expansion below
    want = _digits_by_loop(r, p, n)
    assert residue_digits(r, p, n) == want
    assert DigitExpansion(Prime(p), 0, want).unit_residue() == r
    assert residue_digits(r % (m // p), p, n) == want[:-1] + (0,)
    assert residue_digits(0, p, n) == (0,) * n


def _valuation_by_loop(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p", [5, 101, 2**61 - 1])
def test_int_valuation_matches_the_loop_around_powers_of_two(p):
    for j in range(10):
        for e in {2**j - 1, 2**j, 2**j + 1}:
            for unit in (1, -1, p + 1, -(2 * p - 1)):
                n = unit * p**e
                assert int_valuation(n, p) == _valuation_by_loop(n, p) == e


def test_digit_extraction_leaves_no_reference_cycles():
    """Each call's digit lists are freed by reference counting, not by the collector."""
    gc.collect()
    gc.disable()
    try:
        for n in (65, 1000, 4000):
            residue_digits(7**n - 1, 7, n)
            make_padic(1, 3, P7).digits(n)
        assert gc.collect() == 0
    finally:
        gc.enable()
