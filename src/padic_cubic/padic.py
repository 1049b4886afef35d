"""Exact p-adic rationals: valuation, unit decomposition, canonical digits.

A number is stored as an exact :class:`fractions.Fraction` together with its
prime, so every predicate downstream (norm comparisons, discriminant
vanishing, residue tests) is decided exactly.  Digit expansions are produced
on demand for the unit part only; the valuation is carried separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .errors import (
    DivisionByZero,
    PrimeError,
    ZeroArgument,
    ZeroDenominator,
)

#: Valuation reported for the zero element.
INFINITE_VALUATION = math.inf


#: Miller-Rabin with these bases decides primality exactly below
#: MR_EXACT_BOUND (Sorenson and Webster, 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(n: int, base: int) -> bool:
    """Miller-Rabin round: whether odd n > base is a strong probable prime to base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n that is not a square."""
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -d - 2 if d > 0 else -d + 2
    p, q = 1, (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    half = (n + 1) // 2
    # U_j, V_j, Q^j mod n, from j = 1 up the bits of k
    u, v, qk = 1, p, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (p * u + v) * half % n, (d * u + p * v) * half % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality: exact Miller-Rabin below MR_EXACT_BOUND, BPSW above it.

    BPSW (a base-2 Miller-Rabin round and a strong Lucas test) has no known
    counterexample.
    """
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # no prime factor up to 41 and below 43^2
        return True
    if n < MR_EXACT_BOUND:
        return all(_strong_probable_prime(n, q) for q in MR_BASES)
    if math.isqrt(n) ** 2 == n:
        return False
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def is_prime_trial(n: int) -> bool:
    """Deterministic trial-division primality check (oracle for is_prime)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer n.

    Divides out p, p^2, p^4, ... while they divide n, then the same powers
    again from the largest down, one binary digit of the rest of the exponent
    each: O(log v) divisions instead of v.
    """
    if n == 0:
        raise ZeroArgument("valuation of integer zero is undefined")
    powers: list[int] = []  # p^(2^j) for j < len(powers)
    q = p
    quo, rem = divmod(n, q)
    while rem == 0:
        n = quo
        powers.append(q)
        q *= q
        quo, rem = divmod(n, q)
    v = (1 << len(powers)) - 1
    for j in reversed(range(len(powers))):
        quo, rem = divmod(n, powers[j])
        if rem == 0:
            n = quo
            v += 1 << j
    return v


#: Digit blocks up to this length are peeled one digit at a time.
_LEAF_DIGITS = 64


def residue_digits(r: int, p: int, n: int) -> tuple[int, ...]:
    """The n base-p digits of 0 <= r < p^n, least significant first.

    Divide and conquer (Brent and Zimmermann, Modern Computer Arithmetic,
    1.7): split at p^(n//2) and convert both halves, peeling digits one at a
    time only in blocks of at most _LEAF_DIGITS.
    """
    out: list[int] = []
    _split_digits(r, p, n, {}, out)
    return tuple(out)


def _split_digits(
    r: int, p: int, n: int, powers: dict[int, int], out: list[int]
) -> None:
    """Append the n digits of r to out; powers caches p^h by h across the calls."""
    if n <= _LEAF_DIGITS:
        for _ in range(n):
            r, d = divmod(r, p)
            out.append(d)
        return
    h = n // 2
    ph = powers.get(h) or powers.setdefault(h, p**h)
    hi, lo = divmod(r, ph)
    _split_digits(lo, p, h, powers, out)
    _split_digits(hi, p, n - h, powers, out)


def _digits_value(digits: tuple[int, ...], p: int, powers: dict[int, int]) -> int:
    """The inverse of residue_digits, by the same halves: lo + p^(n//2) * hi."""
    n = len(digits)
    if n <= _LEAF_DIGITS:
        total = 0
        for d in reversed(digits):
            total = total * p + d
        return total
    h = n // 2
    ph = powers.get(h) or powers.setdefault(h, p**h)
    lo = _digits_value(digits[:h], p, powers)
    return lo + ph * _digits_value(digits[h:], p, powers)


@dataclass(frozen=True)
class Prime:
    """A prime modulus p > 3 (smaller primes are outside the theory)."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or self.p <= 3 or not is_prime(self.p):
            raise PrimeError(f"modulus must be a prime greater than 3, got {self.p!r}")

    def __int__(self) -> int:
        return self.p

    def __str__(self) -> str:
        return str(self.p)


@dataclass(frozen=True)
class DigitExpansion:
    """Truncated canonical expansion p^valuation * (d0 + d1*p + ...).

    The digits describe the unit part, so d0 is never zero; the expansion
    determines the number modulo p^(valuation + precision).
    """

    prime: Prime
    valuation: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.prime.p
        if not self.digits:
            raise ValueError("digit expansion needs at least one digit")
        if any(d < 0 or d >= p for d in self.digits):
            raise ValueError(f"digits must lie in 0..{p - 1}")
        if self.digits[0] == 0:
            raise ValueError("leading digit of a unit part cannot be 0")

    @property
    def precision(self) -> int:
        return len(self.digits)

    def unit_residue(self) -> int:
        """The integer d0 + d1*p + ... + d_{n-1}*p^{n-1}."""
        return _digits_value(self.digits, self.prime.p, {})

    def approximation(self) -> Fraction:
        """Exact rational p^valuation * unit_residue()."""
        return Fraction(self.prime.p) ** self.valuation * self.unit_residue()

    def unit_string(self) -> str:
        """Render the unit part as 'd0 + d1*p + ... + O(p^n)' with a middle dot."""
        p = self.prime.p
        parts = [str(self.digits[0])]
        for i, d in enumerate(self.digits[1:], start=1):
            parts.append(f"{d}·{p}" if i == 1 else f"{d}·{p}^{i}")
        parts.append(f"O({p}^{self.precision})")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.unit_string()


@dataclass(frozen=True)
class PadicRational:
    """Exact p-adic number carried as a reduced rational with cached valuation."""

    prime: Prime
    value: Fraction

    @classmethod
    def from_ratio(cls, num: int, den: int, prime: Prime) -> "PadicRational":
        if den == 0:
            raise ZeroDenominator("denominator must be nonzero")
        return cls(prime, Fraction(num, den))

    @classmethod
    def from_value(cls, value: Union[int, Fraction], prime: Prime) -> "PadicRational":
        return cls(prime, Fraction(value))

    # Fraction keeps num/den reduced with den > 0, which the valuation relies on.
    @cached_property
    def valuation(self) -> Union[int, float]:
        if self.value == 0:
            return INFINITE_VALUATION
        p = self.prime.p
        return int_valuation(self.value.numerator, p) - int_valuation(
            self.value.denominator, p
        )

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def norm_exponent(self) -> int:
        """log_p of the p-adic norm, i.e. -valuation.  Requires a nonzero number."""
        if self.is_zero:
            raise ZeroArgument("zero has no norm exponent")
        return -self.valuation

    def unit_part(self) -> "PadicRational":
        """The unique unit u with self = u * p^valuation."""
        if self.is_zero:
            raise ZeroArgument("zero has no unit part")
        return PadicRational(
            self.prime, self.value / Fraction(self.prime.p) ** self.valuation
        )

    def leading_digit(self) -> int:
        """First canonical digit of the unit part (in 1..p-1)."""
        u = self.unit_part().value
        p = self.prime.p
        return u.numerator * pow(u.denominator, -1, p) % p

    def residue(self, power: int) -> int:
        """The value mod p^power as an integer in [0, p^power).

        Only defined for numbers of nonnegative valuation (p-adic integers).
        """
        if self.is_zero:
            return 0
        if self.valuation < 0:
            raise ValueError("no residue at negative valuation")
        m = self.prime.p**power
        return self.value.numerator * pow(self.value.denominator, -1, m) % m

    def digits(self, n: int) -> DigitExpansion:
        """First n canonical digits of the unit part."""
        if self.is_zero:
            raise ZeroArgument("zero has no canonical digits")
        if n < 1:
            raise ValueError("need at least one digit")
        digs = residue_digits(self.unit_part().residue(n), self.prime.p, n)
        return DigitExpansion(self.prime, int(self.valuation), digs)

    def times_power(self, k: int) -> "PadicRational":
        """self * p^k."""
        return PadicRational(self.prime, self.value * Fraction(self.prime.p) ** k)

    def inverse(self) -> "PadicRational":
        if self.is_zero:
            raise DivisionByZero("cannot invert zero")
        return PadicRational(self.prime, 1 / self.value)

    # -- field arithmetic (exact, valuation recomputed lazily) --

    def _coerce(self, other: object) -> Fraction:
        if isinstance(other, PadicRational):
            if other.prime != self.prime:
                raise ValueError("mixed primes in p-adic arithmetic")
            return other.value
        if isinstance(other, (int, Fraction)):
            return Fraction(other)
        return NotImplemented

    def __add__(self, other: object) -> "PadicRational":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return PadicRational(self.prime, self.value + v)

    __radd__ = __add__

    def __sub__(self, other: object) -> "PadicRational":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return PadicRational(self.prime, self.value - v)

    def __rsub__(self, other: object) -> "PadicRational":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return PadicRational(self.prime, v - self.value)

    def __mul__(self, other: object) -> "PadicRational":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return PadicRational(self.prime, self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "PadicRational":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if v == 0:
            raise DivisionByZero("division by zero")
        return PadicRational(self.prime, self.value / v)

    def __neg__(self) -> "PadicRational":
        return PadicRational(self.prime, -self.value)

    def __repr__(self) -> str:
        return f"PadicRational({self.value}, p={self.prime.p})"


def make_padic(num: int, den: int, prime: Prime) -> PadicRational:
    """Build an exact p-adic rational num/den (den nonzero)."""
    return PadicRational.from_ratio(num, den, prime)
