from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_cubic.errors import ScanBoundExceeded, ZeroCoefficient, ZeroResidue
from padic_cubic.padic import PadicRational, Prime, make_padic
from padic_cubic.residues import (
    cbrt_exists,
    is_qth_residue,
    monomial_root_count,
    monomial_solvable,
    nth_roots_mod_p,
    sqrt_mod_p,
    qth_root_count_mod_p,
    sqrt_exists,
)

P5, P7, P11, P13 = Prime(5), Prime(7), Prime(11), Prime(13)


def _scan_roots(a0, q, p):
    # independent oracle: exhaustive power map
    return [x for x in range(1, p) if pow(x, q, p) == a0 % p]


def test_is_qth_residue_examples():
    assert is_qth_residue(4, 2, P7)
    assert is_qth_residue(-1 % 5, 2, P5)
    # cubes mod 7 are {1, 6}
    assert sorted({pow(x, 3, 7) for x in range(1, 7)}) == [1, 6]
    assert not is_qth_residue(2, 3, P7)


def test_qth_root_count_examples():
    assert qth_root_count_mod_p(4, 2, P7) == 2 == len(_scan_roots(4, 2, 7))
    assert qth_root_count_mod_p(1, 3, P7) == 3
    assert _scan_roots(1, 3, 7) == [1, 2, 4]
    assert qth_root_count_mod_p(2, 3, P7) == 0 == len(_scan_roots(2, 3, 7))


def test_zero_residue_rejected():
    with pytest.raises(ZeroResidue):
        is_qth_residue(0, 2, P5)
    with pytest.raises(ZeroResidue):
        nth_roots_mod_p(10, 2, P5)


@pytest.mark.parametrize("prime", [P5, P7, P11, P13])
@pytest.mark.parametrize("q", [2, 3])
def test_residue_tests_agree_with_scan(prime, q):
    p = prime.p
    for a0 in range(1, p):
        roots = _scan_roots(a0, q, p)
        assert is_qth_residue(a0, q, prime) == bool(roots)
        assert qth_root_count_mod_p(a0, q, prime) == len(roots)
        assert nth_roots_mod_p(a0, q, prime) == roots


def test_monomial_solvable_examples():
    for prime in (P5, P7, P11, P13):
        assert not monomial_solvable(make_padic(-prime.p, 1, prime), 3)
    assert monomial_solvable(make_padic(8, 1, P5), 3)
    assert monomial_solvable(make_padic(49, 1, P7), 2)


def test_monomial_root_count_examples():
    assert monomial_root_count(make_padic(1, 1, P7), 3) == 3
    assert monomial_root_count(make_padic(1, 1, P5), 3) == 1
    assert monomial_root_count(make_padic(-7, 1, P7), 3) == 0
    with pytest.raises(ZeroCoefficient):
        monomial_root_count(make_padic(0, 1, P5), 3)


def test_monomial_prime_power_exponent_clause():
    # q = p: the extra congruence a0^p == a* (mod p^2) decides.
    # 2^5 = 32 is a fifth power, and 32 = 7 mod 25 matches its own leading
    # digit raised to p; 3 fails since 3^5 = 18 != 3 mod 25.
    assert [x for x in range(25) if pow(x, 5, 25) == 32 % 25] != []
    assert [x for x in range(25) if pow(x, 5, 25) == 3] == []
    assert monomial_solvable(make_padic(32, 1, P5), 5)
    assert not monomial_solvable(make_padic(3, 1, P5), 5)


def test_sqrt_exists_examples():
    assert sqrt_exists(make_padic(-1, 1, P13))
    assert not sqrt_exists(make_padic(-5, 1, P5))  # odd valuation
    assert sqrt_exists(make_padic(4, 1, P7))


def test_cbrt_exists_examples():
    assert cbrt_exists(make_padic(8, 1, P5))
    assert not cbrt_exists(make_padic(2, 1, P7))
    assert cbrt_exists(make_padic(11**3, 1, P11))


def test_nth_roots_examples():
    assert nth_roots_mod_p(1, 3, P7) == [1, 2, 4]
    assert nth_roots_mod_p(4, 2, P5) == [2, 3]
    assert nth_roots_mod_p(2, 3, P7) == []


def test_scan_bound_is_env_overridable(monkeypatch):
    monkeypatch.setenv("PADIC_SCAN_BOUND", "7")
    with pytest.raises(ScanBoundExceeded):
        nth_roots_mod_p(1, 2, P11)
    assert nth_roots_mod_p(1, 2, P7) == [1, 6]


@pytest.mark.parametrize("p", [5, 7, 13, 17, 41, 73, 97, 113, 257, 7681])
def test_sqrt_mod_p_agrees_with_scan(p):
    """Covers p = 3 mod 4, 5 mod 8 and 1 mod 8 (Tonelli-Shanks proper)."""
    squares = {x * x % p for x in range(p)}
    for a in range(p):
        r = sqrt_mod_p(a, p)
        if a in squares:
            assert r is not None and r * r % p == a
        else:
            assert r is None


@st.composite
def nonzero_padics(draw):
    prime = draw(st.sampled_from((P5, P7, P11, P13)))
    num = draw(st.integers(min_value=-999, max_value=999).filter(bool))
    den = draw(st.integers(min_value=1, max_value=999))
    v = draw(st.integers(min_value=-4, max_value=4))
    return PadicRational(prime, Fraction(num, den) * Fraction(prime.p) ** v)


@given(a=nonzero_padics(), t=st.integers(min_value=-50, max_value=50).filter(bool))
@settings(max_examples=200)
def test_square_and_cube_scaling_invariance(a, t):
    assert sqrt_exists(a * Fraction(t) ** 2) == sqrt_exists(a)
    assert cbrt_exists(a * Fraction(t) ** 3) == cbrt_exists(a)


@given(a=nonzero_padics(), q=st.sampled_from((2, 3)))
@settings(max_examples=200)
def test_root_count_positive_iff_solvable(a, q):
    assert (monomial_root_count(a, q) > 0) == monomial_solvable(a, q)
