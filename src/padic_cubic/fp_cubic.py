"""Roots of x^3 + a0*x = b0, and of any polynomial of degree <= 3, over F_p.

The count comes from the discriminant together with the order-3 recurrence
u_{n+3} = b0*u_n - a0*u_{n+1} evaluated at n = p-2.  The roots themselves,
which seed Hensel lifting, come from :func:`roots_mod_p`: gcd(x^p - x, f) by
square-and-multiply in F_p[x]/(f), split by Cantor-Zassenhaus, in O(log p)
multiplications of polynomials of degree < 3.  The exhaustive scan
:func:`roots_exhaustive` is kept as its oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import ScanBoundExceeded, ZeroResidue
from .padic import Prime
from .residues import scan_bound, sqrt_mod_p


@dataclass(frozen=True)
class FpCubic:
    """Reduced cubic x^3 + a0*x - b0 with a0, b0 units mod p."""

    prime: Prime
    a0: int
    b0: int

    def __post_init__(self) -> None:
        p = self.prime.p
        object.__setattr__(self, "a0", self.a0 % p)
        object.__setattr__(self, "b0", self.b0 % p)
        if self.a0 == 0 or self.b0 == 0:
            raise ZeroResidue("reduced cubic needs a0*b0 nonzero mod p")


def discriminant_mod_p(c: FpCubic) -> int:
    """(-4*a0^3 - 27*b0^2) mod p."""
    return (-4 * c.a0**3 - 27 * c.b0**2) % c.prime.p


def _initial_state(c: FpCubic) -> tuple[int, int, int]:
    p = c.prime.p
    return (0, -c.a0 % p, c.b0)


def u_term(c: FpCubic, n: int) -> int:
    """u_n mod p in O(log n) products of polynomials of degree < 3.

    The recurrence has characteristic polynomial x^3 + a0*x - b0, so with
    x^(n-1) = c0 + c1*x + c2*x^2 modulo it, u_n = c0*u1 + c1*u2 + c2*u3.
    """
    if n < 1:
        raise ValueError("recurrence index starts at 1")
    p = c.prime.p
    c0, c1, c2 = _pow_linear(0, n - 1, [-c.b0 % p, c.a0, 0, 1], p)
    u1, u2, u3 = _initial_state(c)
    return (c0 * u1 + c1 * u2 + c2 * u3) % p


def u_term_iterated(c: FpCubic, n: int) -> int:
    """u_n mod p by direct O(n) iteration (oracle for u_term)."""
    if n < 1:
        raise ValueError("recurrence index starts at 1")
    p = c.prime.p
    u1, u2, u3 = _initial_state(c)
    if n <= 3:
        return (u1, u2, u3)[n - 1]
    for _ in range(n - 3):
        u1, u2, u3 = u2, u3, (c.b0 * u1 - c.a0 * u2) % p
    return u3


def count_roots_formula(c: FpCubic) -> int:
    """Number of F_p roots of x^3 + a0*x - b0, per the discriminant/recurrence test.

    Returns 3 when D*u_{p-2}^2 == 0, 0 when it equals 9*a0^2, and 1 otherwise.
    The value 3 counts multiplicity when D == 0 (distinct enumeration then
    finds two roots: a double and a simple one).
    """
    p = c.prime.p
    t = discriminant_mod_p(c) * pow(u_term(c, p - 2), 2, p) % p
    if t == 0:
        return 3
    if t == 9 * c.a0**2 % p:
        return 0
    return 1


def roots_exhaustive(c: FpCubic) -> list[int]:
    """All distinct F_p roots of x^3 + a0*x - b0, by scan (sorted)."""
    p = c.prime.p
    if p > scan_bound():
        raise ScanBoundExceeded(f"prime {p} exceeds the scan bound {scan_bound()}")
    return [x for x in range(p) if (x * x * x + c.a0 * x - c.b0) % p == 0]


def linear_root(a_star0: int, b_star0: int, prime: Prime) -> int:
    """The unique root of a_star0 * x = b_star0 in F_p."""
    p = prime.p
    a_star0 %= p
    if a_star0 == 0:
        raise ZeroResidue("linear congruence needs an invertible coefficient")
    return b_star0 * pow(a_star0, -1, p) % p


# -- root finding in F_p[x] for degree <= 3 --
#
# Polynomials are lists of residues, lowest degree first, with no trailing
# zeros.

#: Draws the Cantor-Zassenhaus shifts.  Seeded, and the roots are returned
#: sorted, so results never depend on the draws.
_SPLIT_RNG = random.Random(1981)


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b."""
    r = a[:]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    while len(r) > db:
        c = r[-1] * inv % p
        shift = len(r) - 1 - db
        q[shift] = c
        for i in range(db):
            r[shift + i] = (r[shift + i] - c * b[i]) % p
        r.pop()
        _trim(r)
    return q, r


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a nonzero a and any b."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _pow_linear(shift: int, e: int, f: list[int], p: int) -> list[int]:
    """(x + shift)^e mod a monic cubic f, as [c0, c1, c2].

    Left-to-right square-and-multiply; multiplying by x + shift is a shift of
    the coefficients plus one reduction, so only the squarings are products.
    """
    f0, f1, f2, _ = f
    a0, a1, a2 = 1, 0, 0
    for bit in bin(e)[2:]:
        # square, reducing x^4 = -f2*x^3 - f1*x^2 - f0*x and x^3 = -f2*x^2 - f1*x - f0
        c4 = a2 * a2 % p
        c3 = (2 * a1 * a2 - c4 * f2) % p
        a0, a1, a2 = (
            (a0 * a0 - c3 * f0) % p,
            (2 * a0 * a1 - c4 * f0 - c3 * f1) % p,
            (a1 * a1 + 2 * a0 * a2 - c4 * f1 - c3 * f2) % p,
        )
        if bit == "1":
            a0, a1, a2 = (
                (shift * a0 - a2 * f0) % p,
                (a0 + shift * a1 - a2 * f1) % p,
                (a1 + shift * a2 - a2 * f2) % p,
            )
    return [a0, a1, a2]


def _roots_low_degree(f: list[int], p: int) -> list[int]:
    """Distinct roots of a monic f of degree at most 2."""
    if len(f) < 3:
        return [-f[0] % p] if len(f) == 2 else []
    f0, f1, _ = f
    s = sqrt_mod_p(f1 * f1 - 4 * f0, p)
    if s is None:
        return []
    half = (p + 1) // 2
    return sorted({(-f1 + s) * half % p, (-f1 - s) * half % p})


def roots_mod_p(coeffs: Sequence[int], p: int) -> list[int]:
    """Distinct roots in F_p of c_d*x^d + ... + c_0, given high to low, d <= 3.

    Sorted; a repeated root appears once, as the scan gives it.  The
    polynomial must not vanish mod p.  A cubic f is first cut down to
    g = gcd(x^p - x, f), the product of its distinct linear factors; a g of
    degree 3 is split by Cantor-Zassenhaus, through gcd(g, (x + s)^((p-1)/2) - 1)
    for random shifts s.  Degree 2 is the quadratic formula.
    """
    f = _trim([c % p for c in reversed(coeffs)])
    if not f:
        raise ZeroResidue("the zero polynomial has every residue as a root")
    if len(f) > 4:
        raise ValueError("root finder takes degree at most 3")
    f = _monic(f, p)
    if len(f) < 4:
        return _roots_low_degree(f, p)
    xp = _pow_linear(0, p, f, p)
    xp[1] = (xp[1] - 1) % p
    g = _gcd(f, _trim(xp), p)
    while len(g) == 4:
        h = _pow_linear(_SPLIT_RNG.randrange(p), (p - 1) // 2, g, p)
        h[0] = (h[0] - 1) % p
        d = _gcd(g, _trim(h), p)
        if 1 < len(d) < 4:
            e = _divmod(g, d, p)[0]
            lin, g = (d, e) if len(d) == 2 else (e, d)
            return sorted([-lin[0] % p] + _roots_low_degree(g, p))
    return _roots_low_degree(g, p)
