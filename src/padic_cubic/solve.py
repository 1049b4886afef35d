"""Root computation to arbitrary digit precision.

The pipeline scales the cubic so that candidate roots become units, seeds
Newton iteration at the F_p roots of the reduced congruence (found by
fp_cubic.roots_mod_p, in O(log p) operations), and lifts each simple seed
with Newton at doubling precision p, p^2, ..., p^n, updating the inverse of
the derivative by its own Newton step; digits come from a divide-and-conquer
radix conversion.  A seed where the derivative vanishes mod p is resolved by
re-centring on the multiple root, one digit per level.  The explicit series
expansion is kept as an independent cross-check, and the repeated-root case
is solved in closed form (lifting cannot apply there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .classify import CubicInstance, Domain, atom_for_valuation
from .errors import (
    InternalInconsistency,
    NonconvergentSeed,
    NotDoubleRoot,
    SingularSeed,
)
from .fp_cubic import linear_root, roots_mod_p
from .padic import DigitExpansion, PadicRational, Prime, residue_digits

DEFAULT_DIGITS = 20

CASE_CUBE = "cube_root"  # |A| < |B| = 1: seed from x^3 = B0
CASE_SQRT = "square_root"  # |B| < |A| = 1: seed from x^2 = -A0
CASE_FULL = "full_cubic"  # |A| = |B| = 1: seed from x^3 + A0*x = B0
CASE_LINEAR = "linear"  # |A| = |B| > 1: seed from A0*x = B0


@dataclass(frozen=True)
class ScaledEquation:
    """y^3 + A*y = B with A = a*p^(2k), B = b*p^(3k).

    Unit roots y correspond bijectively to roots x = y * p^(-k) of the
    original cubic, i.e. to roots of valuation -k.
    """

    k: int
    a: PadicRational
    b: PadicRational

    @property
    def prime(self) -> Prime:
        return self.a.prime


@dataclass(frozen=True)
class HenselSeed:
    """A congruence root r0 together with the exact lifting polynomial.

    poly holds the four coefficients (cubic, quadratic, linear, constant) of
    the polynomial whose unit root is being lifted; the quadratic entry is
    always zero here.  gamma is the norm exponent absorbed into the cubic
    coefficient in the linear case.  slope is f'(r0) mod p: congruence_initials
    passes it from the residues it already holds, and a seed built without it
    computes it from poly.
    """

    r0: int
    poly: tuple[Fraction, Fraction, Fraction, Fraction]
    case: str
    prime: Prime
    gamma: int = 0
    slope: Optional[int] = None

    def __post_init__(self) -> None:
        if self.slope is None:
            c = _integer_poly(self.poly)
            object.__setattr__(self, "slope", _eval_deriv(c, self.r0, self.prime.p))

    @property
    def is_singular(self) -> bool:
        return self.slope == 0


@dataclass(frozen=True)
class RootRecord:
    """One computed root: unit digits, valuation, location, multiplicity."""

    expansion: DigitExpansion
    valuation: int
    domain: Domain
    multiplicity: int

    def approximation(self) -> Fraction:
        """Exact rational representative of the truncated expansion."""
        return self.expansion.approximation()


# -- integer kernels for lifting --


def _eval_cubic(c: tuple[int, ...], y: int, m: int) -> int:
    c3, c2, c1, c0 = c
    return (((c3 * y + c2) * y + c1) * y + c0) % m


def _eval_deriv(c: tuple[int, ...], y: int, m: int) -> int:
    c3, c2, c1, _ = c
    return ((3 * c3 * y + 2 * c2) * y + c1) % m


def _newton_unit_root(c: tuple[int, ...], y: int, p: int, n: int) -> int:
    """The unique root mod p^n of the integer cubic c over a simple root y mod p.

    Newton with doubling precision (Brent and Zimmermann, Modern Computer
    Arithmetic, 4.2).  The ladder n, ceil(n/2), ..., 1 and the coefficients
    reduced mod p^k for each rung k are computed first, from the top down.
    Then, from rung 1 up, with y a root and z = 1/c'(y) both mod p^j at the
    rung j below: y <- y - c(y)*z mod p^k is a root mod p^k (k <= 2j), and
    z <- z*(2 - c'(y)*z) mod p^k is its inverse slope to the same precision,
    so only rung 1 inverts anything.

    Requires c(y) = 0 mod p and c'(y) a unit; a seed that breaks either, or a
    result with c(y) != 0 mod p^n, raises InternalInconsistency.
    """
    ladder = [n]
    while ladder[-1] > 1:
        ladder.append((ladder[-1] + 1) // 2)
    rungs = []
    for k in ladder:
        m = p**k
        c = tuple(x % m for x in c)
        rungs.append((m, c))
    m, c = rungs.pop()
    y %= m
    slope = _eval_deriv(c, y, m)
    if _eval_cubic(c, y, m) or not slope:
        raise InternalInconsistency(f"{y} is not a simple root mod {p} of {c}")
    z = pow(slope, -1, m)
    for i in reversed(range(len(rungs))):
        m, c = rungs[i]
        y = (y - _eval_cubic(c, y, m) * z) % m
        if i:  # the inverse from the top rung would go unused
            z = z * (2 - _eval_deriv(c, y, m) * z) % m
    if _eval_cubic(c, y, m):
        raise InternalInconsistency(f"Newton lift did not reach a root mod {p}^{n}")
    return y


def _integer_poly(poly: tuple[Fraction, ...]) -> tuple[int, ...]:
    """poly times the lcm of its denominators: integer coefficients, same roots.

    The denominators are prime to p, so the factor is a p-adic unit.
    """
    den = math.lcm(*(Fraction(c).denominator for c in poly))
    return tuple(int(Fraction(c) * den) for c in poly)


def _recentre(h: tuple[int, ...], t: int, p: int) -> tuple[int, ...]:
    """h(t + p*z) divided by its content: the largest power of p dividing it."""
    c3, c2, c1, c0 = h
    g = (
        c3 * p**3,
        (3 * c3 * t + c2) * p * p,
        ((3 * c3 * t + 2 * c2) * t + c1) * p,
        ((c3 * t + c2) * t + c1) * t + c0,
    )
    while all(x % p == 0 for x in g):
        g = tuple(x // p for x in g)
    return g


def _singular_branch_roots(
    poly: tuple[Fraction, ...], rho: int, p: int, n: int, v_disc: int
) -> list[int]:
    """All unit roots (residues mod p^n, sorted) over a class where f' vanishes mod p.

    Recursive re-centring on the multiple root.  Level l starts from
    h_(l-1) and its multiple root t mod p (h_0 = f, t = rho): substitute
    z = t + p*z', divide out the content, and reduce mod p.  The reduction has
    degree at most the multiplicity of t, so at most 3, and its F_p roots come
    from roots_mod_p.  A simple root is lifted by Newton at index 0; the
    multiple root, of which there is at most one, starts level l + 1.  A root z
    of h_l gives x = theta_l + p^l*z, theta_l being the digits chosen so far.

    Working precision: h_l = f(theta_l + p^l*z) / p^C, where C is the total
    content removed along the path.  Its coefficients are kept as exact
    integers (f times a p-adic unit), so shifting and dividing lose nothing,
    and a leaf is lifted mod p^n on h_l: that is f to precision n + C, and it
    gives x mod p^(n + l).

    Requires a nonzero discriminant of valuation v_disc: the roots over rho then
    separate by level 2*v_disc + 6, and a multiple root left there is an
    internal inconsistency.
    """
    depth_cap = 2 * v_disc + 6
    m = p**n
    h = _integer_poly(poly)
    theta, scale, t = 0, 1, rho % p
    roots: list[int] = []
    for _ in range(depth_cap):
        theta += scale * t
        scale *= p
        h = _recentre(h, t, p)
        hbar = tuple(x % p for x in h)
        multiple = None
        for u in roots_mod_p(hbar, p):
            if _eval_deriv(hbar, u, p):
                z = _newton_unit_root(h, u, p, n)
                roots.append((theta + scale * z) % m)
            else:
                multiple = u
        if multiple is None:
            return sorted(roots)
        t = multiple
    raise InternalInconsistency(
        f"singular branch did not resolve within depth {depth_cap}"
    )


# -- public operations --


def candidate_scalings(inst: CubicInstance) -> list[ScaledEquation]:
    """The (at most three, deduplicated) shifts k that can yield unit roots.

    k = e_b/3 when 3 | e_b, k = e_a/2 when 2 | e_a, and k = e_b - e_a, where
    e_a, e_b are the norm exponents of the coefficients.
    """
    ea = inst.a.norm_exponent()
    eb = inst.b.norm_exponent()
    ks = {eb - ea}
    if eb % 3 == 0:
        ks.add(eb // 3)
    if ea % 2 == 0:
        ks.add(ea // 2)
    return [
        ScaledEquation(k, inst.a.times_power(2 * k), inst.b.times_power(3 * k))
        for k in sorted(ks)
    ]


def formula_case(eq: ScaledEquation) -> Optional[str]:
    """Which congruence seeds the scaled equation, or None when no unit roots exist."""
    ea = eq.a.norm_exponent()
    eb = eq.b.norm_exponent()
    if ea < eb == 0:
        return CASE_CUBE
    if eb < ea == 0:
        return CASE_SQRT
    if ea == eb == 0:
        return CASE_FULL
    if ea == eb > 0:
        return CASE_LINEAR
    return None


def congruence_initials(eq: ScaledEquation) -> list[HenselSeed]:
    """One Hensel seed per residue root of the reduced congruence.

    An empty list means the congruence has no roots (the scaling contributes
    nothing); calling this on a shape that admits no unit roots is an error.
    """
    case = formula_case(eq)
    if case is None:
        raise ValueError("scaled equation admits no unit roots")
    prime = eq.prime
    p = prime.p
    one, zero = Fraction(1), Fraction(0)
    if case == CASE_LINEAR:
        gamma = eq.a.norm_exponent()
        astar = eq.a.unit_part().value
        bstar = eq.b.unit_part().value
        poly = (Fraction(p) ** gamma, zero, astar, -bstar)
        a0 = eq.a.leading_digit()
        r0 = linear_root(a0, eq.b.leading_digit(), prime)
        # f' = 3*p^gamma*y^2 + A* with gamma >= 1
        return [HenselSeed(r0, poly, case, prime, gamma, a0 % p)]

    poly = (one, zero, eq.a.value, -eq.b.value)
    # the reduction y^3 + A0*y - B0 mod p, with A0 = 0 when |A| < 1; when
    # |B| < 1 the unit roots are those of y^2 + A0
    a0 = 0 if case == CASE_CUBE else eq.a.leading_digit()
    if case == CASE_SQRT:
        reduced: tuple[int, ...] = (1, 0, a0)
    else:
        reduced = (1, 0, a0, -eq.b.leading_digit())
    return [
        HenselSeed(r0, poly, case, prime, slope=(3 * r0 * r0 + a0) % p)
        for r0 in roots_mod_p(reduced, p)
    ]


def lift(seed: HenselSeed, n: int) -> DigitExpansion:
    """Digits of the unique unit root over a simple seed, to n digits.

    Newton iteration with doubling precision: the step to rung k works mod
    p^k, on a root correct mod p^ceil(k/2), so the cost is a constant number
    of products and reductions at the final precision.  The result y
    satisfies f(y) = 0 mod p^n exactly.
    """
    if n < 1:
        raise ValueError("need at least one digit")
    if seed.is_singular:
        raise SingularSeed(
            f"derivative vanishes mod p at r0={seed.r0}; route to the repeated-root path"
        )
    p = seed.prime.p
    root = _newton_unit_root(_integer_poly(seed.poly), seed.r0, p, n)
    return DigitExpansion(seed.prime, 0, residue_digits(root, p, n))


def _taylor_at_seed(seed: HenselSeed) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    f3, f2, f1, f0 = (Fraction(c) for c in seed.poly)
    r0 = Fraction(seed.r0)
    c0 = ((f3 * r0 + f2) * r0 + f1) * r0 + f0
    c1 = (3 * f3 * r0 + 2 * f2) * r0 + f1
    c2 = 3 * f3 * r0 + f2
    return c0, c1, c2, f3


def _floor_log(p: int, x: int) -> int:
    e = 0
    while p ** (e + 1) <= x:
        e += 1
    return e


def series_agreement_exponent(seed: HenselSeed, terms: int) -> Optional[int]:
    """Certified power of p to which the truncated series matches the lift.

    Derived from the valuation of the first omitted term; weakly monotone in
    the number of terms.  None when the seed is already an exact root (every
    precision agrees).
    """
    if terms < 1:
        raise ValueError("need at least one series term")
    c0, c1, _, _ = _taylor_at_seed(seed)
    p = seed.prime.p
    if c1 == 0 or PadicRational(seed.prime, c1).valuation > 0:
        raise SingularSeed("series expansion needs an invertible linear coefficient")
    if c0 == 0:
        return None
    w = int(PadicRational(seed.prime, c0 / c1**2).valuation)
    if w < 1:
        raise NonconvergentSeed("series requires ord_p(c0/c1^2) >= 1")
    return max(1, (terms + 1) * w - _floor_log(p, 2 * terms + 1))


def series_root(
    seed: HenselSeed, terms: int, digits: Optional[int] = None
) -> DigitExpansion:
    """Truncated explicit-series evaluation of the lifted root (cross-check only).

    Sums `terms` outer terms of the double series exactly in rational
    arithmetic, then expands; agreement with the Newton lift is certified to
    series_agreement_exponent(seed, terms) digits.
    """
    if terms < 1:
        raise ValueError("need at least one series term")
    c0, c1, c2, c3 = _taylor_at_seed(seed)
    p = seed.prime.p
    prime = seed.prime
    if c1 == 0 or PadicRational(prime, c1).valuation > 0:
        raise SingularSeed("series expansion needs an invertible linear coefficient")
    if c0 == 0:
        result = Fraction(seed.r0)
    else:
        w = int(PadicRational(prime, c0 / c1**2).valuation)
        if w < 1:
            raise NonconvergentSeed("series requires ord_p(c0/c1^2) >= 1")
        z = c0 / c1**2
        y = c0 * c3 / c1
        total = Fraction(0)
        for k in range(terms):
            inner = Fraction(0)
            for j in range(k + 1):
                inner += (
                    Fraction((-1) ** (k - j), 2 * k - j + 1)
                    * c2**j
                    * math.comb(k, j)
                    * math.comb(3 * k - j, k)
                    * y ** (k - j)
                )
            total += inner * z**k
        result = Fraction(seed.r0) - (c0 / c1) * total
    if digits is None:
        digits = series_agreement_exponent(seed, terms) or terms + 1
    return PadicRational(prime, result).digits(digits)


def double_root_closed_form(
    inst: CubicInstance,
) -> tuple[PadicRational, PadicRational]:
    """The repeated root r = 3b/(2a) and the simple root s = -2r, exactly.

    Only valid when the full discriminant -4a^3 - 27b^2 vanishes; the factor
    identity x^3 + ax - b = (x - r)^2 (x - s) is verified before returning.
    """
    a = inst.a.value
    b = inst.b.value
    if -4 * a**3 - 27 * b**2 != 0:
        raise NotDoubleRoot("closed form applies only when the discriminant is zero")
    r = 3 * b / (2 * a)
    s = -2 * r
    if not (r * r + 2 * r * s == a and r * r * s == b):
        raise InternalInconsistency("repeated-root factorization failed to verify")
    return PadicRational(inst.prime, r), PadicRational(inst.prime, s)


def _record_from_exact(x: PadicRational, n: int, multiplicity: int) -> RootRecord:
    exp = x.digits(n)
    return RootRecord(exp, exp.valuation, atom_for_valuation(exp.valuation), multiplicity)


def residual_bound(inst: CubicInstance, record: RootRecord, n: int) -> int:
    """Guaranteed ord_p of x^3 + a*x - b at the record's truncated root.

    The unit-level lift satisfies its polynomial mod p^n (guard 0); unwinding
    the scaling multiplies the residual by p^(3v), and the linear-seeded case
    additionally divides by the p^gamma absorbed into the lifting polynomial.
    """
    ea = inst.a.norm_exponent()
    eb = inst.b.norm_exponent()
    gamma = 0
    if 3 * ea > 2 * eb and record.valuation == ea - eb:
        gamma = 3 * ea - 2 * eb
    return n + 3 * record.valuation - gamma


def all_roots(inst: CubicInstance, n: int = DEFAULT_DIGITS) -> list[RootRecord]:
    """Every root of x^3 + ax = b in Q_p, each to n unit digits.

    Records are sorted by (valuation, unit residue); the multiplicity-weighted
    length equals the whole-field root count.  Each record's unit-level lift y
    satisfies f(y) = 0 mod p^n (guard 0).
    """
    if n < 1:
        raise ValueError("need at least one digit")
    p = inst.prime.p
    a = inst.a.value
    b = inst.b.value
    if -4 * a**3 - 27 * b**2 == 0:
        r, s = double_root_closed_form(inst)
        records = [_record_from_exact(r, n, 2), _record_from_exact(s, n, 1)]
    else:
        records = []
        for eq in candidate_scalings(inst):
            if formula_case(eq) is None:
                continue
            unit_roots: list[int] = []
            for seed in congruence_initials(eq):
                if seed.is_singular:
                    disc = -4 * eq.a.value**3 - 27 * eq.b.value**2
                    v_disc = int(PadicRational(inst.prime, disc).valuation)
                    unit_roots.extend(
                        _singular_branch_roots(seed.poly, seed.r0, p, n, v_disc)
                    )
                else:
                    c = _integer_poly(seed.poly)
                    unit_roots.append(_newton_unit_root(c, seed.r0, p, n))
            v = -eq.k
            for y in sorted(unit_roots):
                exp = DigitExpansion(inst.prime, v, residue_digits(y, p, n))
                records.append(RootRecord(exp, v, atom_for_valuation(v), 1))
    # every record has n digits, so reversed digits order like the residues
    records.sort(key=lambda rec: (rec.valuation, rec.expansion.digits[::-1]))
    return records
