"""Power-residue tests over F_p and solvability of the monomial x^q = a in Q_p.

Square roots mod p come from Tonelli-Shanks (:func:`sqrt_mod_p`).  The
exhaustive scan :func:`nth_roots_mod_p`, limited to primes up to a
configurable bound, is kept as an oracle for tests; Hensel seeds come from
fp_cubic.roots_mod_p, which does not scan.
"""

from __future__ import annotations

import math
import os
from typing import Optional

from .errors import BadEnvironment, ScanBoundExceeded, ZeroCoefficient, ZeroResidue
from .padic import PadicRational, Prime, int_valuation

DEFAULT_SCAN_BOUND = 10**6
_SCAN_BOUND_ENV = "PADIC_SCAN_BOUND"


def bound_from_env(default: int) -> int:
    """The positive integer in PADIC_SCAN_BOUND, or default when it is unset or empty."""
    raw = os.environ.get(_SCAN_BOUND_ENV)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise BadEnvironment(f"{_SCAN_BOUND_ENV} must be a positive integer, got {raw!r}")
    return value


def scan_bound() -> int:
    """Largest prime for which residue scans are allowed (env-overridable)."""
    return bound_from_env(DEFAULT_SCAN_BOUND)


def is_qth_residue(a0: int, q: int, prime: Prime) -> bool:
    """Whether a0 is a q-th power mod p, by the Euler-style criterion.

    a0 is a q-th power residue iff a0^((p-1)/d) == 1 mod p with d = gcd(q, p-1).
    """
    p = prime.p
    a0 %= p
    if a0 == 0:
        raise ZeroResidue("residue argument must be a unit mod p")
    d = math.gcd(q, p - 1)
    return pow(a0, (p - 1) // d, p) == 1


def qth_root_count_mod_p(a0: int, q: int, prime: Prime) -> int:
    """Number of solutions of x^q = a0 in F_p: gcd(q, p-1) if solvable, else 0."""
    if is_qth_residue(a0, q, prime):
        return math.gcd(q, prime.p - 1)
    return 0


def sqrt_mod_p(a: int, p: int) -> Optional[int]:
    """A square root of a mod p by Tonelli-Shanks, or None when a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # least i with t^(2^i) = 1; then c^(2^(s-i-1)) fixes one more bit
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def nth_roots_mod_p(a0: int, q: int, prime: Prime) -> list[int]:
    """All x in F_p with x^q = a0, by exhaustive scan (sorted)."""
    p = prime.p
    if p > scan_bound():
        raise ScanBoundExceeded(f"prime {p} exceeds the scan bound {scan_bound()}")
    a0 %= p
    if a0 == 0:
        raise ZeroResidue("residue argument must be a unit mod p")
    return [x for x in range(1, p) if pow(x, q, p) == a0]


def monomial_solvable(a: PadicRational, q: int) -> bool:
    """Whether x^q = a has a root in Q_p.

    For q coprime to p this needs the leading digit to be a q-th power residue
    and the norm exponent to be divisible by q.  For q = m*p^s with s >= 1 the
    extra congruence a0^(p^s) == a* (mod p^(s+1)) applies; that branch is
    unreachable from the cubic pipeline (q in {2,3}, p > 3) but kept complete.
    """
    if a.is_zero:
        raise ZeroCoefficient("monomial coefficient must be nonzero")
    p = a.prime.p
    s = int_valuation(q, p) if q % p == 0 else 0
    m = q // p**s
    if a.norm_exponent() % q != 0:
        return False
    if not is_qth_residue(a.leading_digit(), m, a.prime):
        return False
    if s >= 1:
        a0 = a.leading_digit()
        if a.unit_part().residue(s + 1) != pow(a0, p**s, p ** (s + 1)):
            return False
    return True


def monomial_root_count(a: PadicRational, q: int) -> int:
    """Number of Q_p roots of x^q = a for q coprime to p."""
    if a.is_zero:
        raise ZeroCoefficient("monomial coefficient must be nonzero")
    p = a.prime.p
    if math.gcd(q, p) != 1:
        raise ValueError("root count requires q coprime to p")
    if monomial_solvable(a, q):
        return math.gcd(q, p - 1)
    return 0


def sqrt_exists(a: PadicRational) -> bool:
    """Whether a has a square root in Q_p (even valuation, QR leading digit)."""
    if a.is_zero:
        raise ZeroCoefficient("square-root test needs a nonzero number")
    if a.norm_exponent() % 2 != 0:
        return False
    p = a.prime.p
    return pow(a.leading_digit(), (p - 1) // 2, p) == 1


def cbrt_exists(a: PadicRational) -> bool:
    """Whether a has a cube root in Q_p."""
    if a.is_zero:
        raise ZeroCoefficient("cube-root test needs a nonzero number")
    if a.norm_exponent() % 3 != 0:
        return False
    p = a.prime.p
    d = math.gcd(3, p - 1)
    return pow(a.leading_digit(), (p - 1) // d, p) == 1
