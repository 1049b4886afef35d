"""Region membership, per-domain solvability, root counts, and signatures.

Everything here is an exact case distinction on integer norm exponents,
leading digits, the recurrence term u_{p-2}, and the normalized discriminant
of the unit parts.  No approximation enters any predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import InternalInconsistency, ZeroCoefficient
from .fp_cubic import FpCubic, u_term
from .padic import PadicRational, Prime
from .residues import cbrt_exists, sqrt_exists


class Region(Enum):
    """Which part of the solvability domain the coefficient pair occupies."""

    DELTA1 = "Delta1"
    DELTA2 = "Delta2"
    DELTA3 = "Delta3"
    OUTSIDE = "Outside"


class Domain(Enum):
    """Root-location domains: three atoms and their derived unions."""

    UNITS = "units"  # |x| = 1
    SMALL_BALL = "small_ball"  # 0 < |x| < 1
    EXTERIOR = "exterior"  # |x| > 1
    INTEGERS = "integers"  # units + small ball
    NOT_UNITS = "not_units"  # small ball + exterior
    NOT_SMALL_BALL = "not_small_ball"  # units + exterior
    WHOLE = "whole"  # everything


ATOMS = (Domain.UNITS, Domain.SMALL_BALL, Domain.EXTERIOR)

_UNION_ATOMS = {
    Domain.INTEGERS: (Domain.UNITS, Domain.SMALL_BALL),
    Domain.NOT_UNITS: (Domain.SMALL_BALL, Domain.EXTERIOR),
    Domain.NOT_SMALL_BALL: (Domain.UNITS, Domain.EXTERIOR),
    Domain.WHOLE: ATOMS,
}


def atom_for_valuation(v: int) -> Domain:
    """Root-location atom of a root with the given valuation."""
    if v == 0:
        return Domain.UNITS
    return Domain.SMALL_BALL if v > 0 else Domain.EXTERIOR


@dataclass(frozen=True)
class CubicInstance:
    """A depressed cubic x^3 + a*x = b over Q_p with ab != 0."""

    prime: Prime
    a: PadicRational
    b: PadicRational

    def __post_init__(self) -> None:
        if self.a.prime != self.prime or self.b.prime != self.prime:
            raise ValueError("coefficients must share the instance prime")
        if self.a.is_zero or self.b.is_zero:
            raise ZeroCoefficient("the classification assumes a != 0 and b != 0")

    @classmethod
    def from_fractions(cls, a, b, prime: Prime) -> "CubicInstance":
        return cls(
            prime,
            PadicRational(prime, Fraction(a)),
            PadicRational(prime, Fraction(b)),
        )


@dataclass(frozen=True)
class NormalizedDiscriminant:
    """Discriminant data of the unit-normalized coefficients.

    dstar = -4*(a*)^3 - 27*(b*)^2 exactly; d0 is its leading residue
    -4*a0^3 - 27*b0^2 mod p.
    """

    dstar: Fraction
    d0: int


@dataclass(frozen=True)
class LocationSignature:
    """Multiplicity-weighted root counts per location atom."""

    units: int = 0
    small_ball: int = 0
    exterior: int = 0

    @property
    def total(self) -> int:
        return self.units + self.small_ball + self.exterior

    def count_for(self, atom: Domain) -> int:
        return {
            Domain.UNITS: self.units,
            Domain.SMALL_BALL: self.small_ball,
            Domain.EXTERIOR: self.exterior,
        }[atom]

    def nonzero_atoms(self) -> int:
        return sum(1 for c in (self.units, self.small_ball, self.exterior) if c)

    def as_dict(self, include_zero: bool = False) -> dict[str, int]:
        pairs = (
            ("units", self.units),
            ("small_ball", self.small_ball),
            ("exterior", self.exterior),
        )
        return {k: v for k, v in pairs if include_zero or v}


@dataclass(frozen=True)
class _Profile:
    """Exact facts about one instance, computed once and shared by every predicate."""

    p: int
    ea: int  # log_p |a|_p
    eb: int  # log_p |b|_p
    a0: int
    b0: int
    d0: int
    dstar: Fraction
    v_dstar: Optional[int]  # ord_p(dstar), None when dstar == 0
    sqrt_dstar: bool  # sqrt of dstar exists (sqrt of 0 declared existent)
    u: int  # u_{p-2} mod p
    t: int  # d0 * u^2 mod p
    nine_a0_sq: int  # 9 * a0^2 mod p
    cbrt_b: bool
    sqrt_neg_a: bool
    region: Region


# The hits come from the several predicates asked of one instance in a row; a
# small cache serves them and does not hold on to large coefficients.
@lru_cache(maxsize=32)
def _profile(inst: CubicInstance) -> _Profile:
    p = inst.prime.p
    ea = inst.a.norm_exponent()
    eb = inst.b.norm_exponent()
    a0 = inst.a.leading_digit()
    b0 = inst.b.leading_digit()
    astar = inst.a.unit_part().value
    bstar = inst.b.unit_part().value
    dstar = -4 * astar**3 - 27 * bstar**2
    if dstar == 0:
        v_dstar = None
        sqrt_dstar = True  # 0 <= |D| < 1 row with sqrt(0) existent
    else:
        d = PadicRational(inst.prime, dstar)
        v_dstar = int(d.valuation)
        sqrt_dstar = sqrt_exists(d)
    d0 = (-4 * a0**3 - 27 * b0**2) % p
    u = u_term(FpCubic(inst.prime, a0, b0), p - 2)
    t = d0 * u * u % p
    nine = 9 * a0 * a0 % p
    cbrt_b = cbrt_exists(inst.b)
    sqrt_neg_a = sqrt_exists(-inst.a)

    if 3 * ea < 2 * eb:
        region = Region.DELTA1 if cbrt_b else Region.OUTSIDE
    elif 3 * ea == 2 * eb:
        region = Region.DELTA2 if t != nine else Region.OUTSIDE
    else:
        region = Region.DELTA3

    return _Profile(
        p=p,
        ea=ea,
        eb=eb,
        a0=a0,
        b0=b0,
        d0=d0,
        dstar=dstar,
        v_dstar=v_dstar,
        sqrt_dstar=sqrt_dstar,
        u=u,
        t=t,
        nine_a0_sq=nine,
        cbrt_b=cbrt_b,
        sqrt_neg_a=sqrt_neg_a,
        region=region,
    )


def region(inst: CubicInstance) -> Region:
    """Locate (a, b) among Delta1, Delta2, Delta3, or Outside."""
    return _profile(inst).region


def normalized_discriminant(inst: CubicInstance) -> NormalizedDiscriminant:
    pr = _profile(inst)
    return NormalizedDiscriminant(dstar=pr.dstar, d0=pr.d0)


def unit_precheck(inst: CubicInstance) -> Optional[int]:
    """Which necessary condition for unit-root solvability holds (1, 2, 3, or None).

    1: |a| = |b| >= 1;  2: |b| < |a| = 1;  3: |a| < |b| = 1.
    """
    pr = _profile(inst)
    if pr.ea == pr.eb >= 0:
        return 1
    if pr.eb < pr.ea == 0:
        return 2
    if pr.ea < pr.eb == 0:
        return 3
    return None


# -- solvability criteria per atom --


def _solvable_units(pr: _Profile) -> bool:
    if pr.ea < pr.eb == 0:
        return pr.cbrt_b
    if pr.eb < pr.ea == 0:
        return pr.sqrt_neg_a
    if pr.ea == pr.eb == 0:
        return pr.t != pr.nine_a0_sq
    return pr.ea == pr.eb > 0


def _solvable_small_ball(pr: _Profile) -> bool:
    if 3 * pr.ea < 2 * pr.eb < 0:
        return pr.cbrt_b
    if 3 * pr.ea == 2 * pr.eb < 0:
        return pr.t != pr.nine_a0_sq
    return 3 * pr.ea > 2 * pr.eb and pr.ea > pr.eb


def _solvable_exterior(pr: _Profile) -> bool:
    if 3 * pr.ea < 2 * pr.eb and pr.eb > 0:
        return pr.cbrt_b
    if 3 * pr.ea == 2 * pr.eb > 0:
        return pr.t != pr.nine_a0_sq
    if 3 * pr.ea > 2 * pr.eb:
        return pr.ea < pr.eb or (pr.ea > 0 and pr.sqrt_neg_a)
    return False


_SOLVABLE_ATOM = {
    Domain.UNITS: _solvable_units,
    Domain.SMALL_BALL: _solvable_small_ball,
    Domain.EXTERIOR: _solvable_exterior,
}


def solvable_in(inst: CubicInstance, domain: Domain) -> bool:
    """Whether the cubic has at least one root in the given domain."""
    pr = _profile(inst)
    if domain is Domain.WHOLE:
        return pr.region is not Region.OUTSIDE
    if domain in _SOLVABLE_ATOM:
        return _SOLVABLE_ATOM[domain](pr)
    return any(_SOLVABLE_ATOM[atom](pr) for atom in _UNION_ATOMS[domain])


# -- root counts per atom (multiplicity-weighted) --


def _equal_norm_count(pr: _Profile) -> int:
    # (a,b) in Delta2; decide 3 vs 1 via |D|_p and the recurrence term.
    if pr.v_dstar == 0:  # |D|_p = 1
        return 3 if pr.t == 0 else 1
    return 3 if pr.sqrt_dstar else 1  # 0 <= |D|_p < 1


def _count_units(pr: _Profile) -> int:
    if pr.region is Region.OUTSIDE:
        return 0
    if pr.ea < pr.eb == 0:
        return 3 if pr.p % 3 == 1 else 1
    if pr.ea == pr.eb == 0:
        return _equal_norm_count(pr)
    if pr.eb < pr.ea == 0:
        return 2 if pr.sqrt_neg_a else 0
    if pr.ea == pr.eb > 0:
        return 1
    return 0


def _count_small_ball(pr: _Profile) -> int:
    if pr.region is Region.OUTSIDE:
        return 0
    if 3 * pr.ea < 2 * pr.eb < 0:
        return 3 if pr.p % 3 == 1 else 1
    if 3 * pr.ea == 2 * pr.eb < 0:
        return _equal_norm_count(pr)
    if 2 * pr.eb < 3 * pr.ea < 0:
        return 3 if pr.sqrt_neg_a else 1
    if 2 * pr.eb < 3 * pr.ea and pr.eb < pr.ea and pr.ea >= 0:
        return 1
    return 0


def _count_exterior(pr: _Profile) -> int:
    if pr.region is Region.OUTSIDE:
        return 0
    if 3 * pr.ea < 2 * pr.eb and pr.eb > 0:
        return 3 if pr.p % 3 == 1 else 1
    if 3 * pr.ea == 2 * pr.eb > 0:
        return _equal_norm_count(pr)
    if 3 * pr.ea > 2 * pr.eb:
        if pr.ea < pr.eb:
            return 3 if pr.sqrt_neg_a else 1
        if pr.ea > 0 and pr.sqrt_neg_a:
            return 2
    return 0


def _count_whole(pr: _Profile) -> int:
    if pr.region is Region.OUTSIDE:
        return 0
    if 3 * pr.ea < 2 * pr.eb:
        return 3 if pr.p % 3 == 1 else 1
    if 3 * pr.ea == 2 * pr.eb:
        return _equal_norm_count(pr)
    return 3 if pr.sqrt_neg_a else 1


_COUNT_ATOM = {
    Domain.UNITS: _count_units,
    Domain.SMALL_BALL: _count_small_ball,
    Domain.EXTERIOR: _count_exterior,
}


def count_in(inst: CubicInstance, domain: Domain) -> int:
    """Multiplicity-weighted number of roots in the given domain (0..3).

    Atoms follow the per-domain case tables; unions sum their atoms; the whole
    field uses its own table (so the partition law is a real cross-check).
    """
    pr = _profile(inst)
    if domain is Domain.WHOLE:
        return _count_whole(pr)
    if domain in _COUNT_ATOM:
        return _COUNT_ATOM[domain](pr)
    return sum(_COUNT_ATOM[atom](pr) for atom in _UNION_ATOMS[domain])


# -- signatures and their theorem-item cross-check --


def _matching_items(pr: _Profile) -> list[tuple[str, tuple[int, int, int]]]:
    """All root-description items whose condition holds for this instance."""
    if pr.region is Region.DELTA2:
        three = _equal_norm_count(pr) == 3
        n = 3 if three else 1
        if pr.eb == 0:
            return [(f"D2.{1 if three else 4}", (n, 0, 0))]
        if pr.eb < 0:
            return [(f"D2.{2 if three else 5}", (0, n, 0))]
        return [(f"D2.{3 if three else 6}", (0, 0, n))]

    d1 = pr.region is Region.DELTA1
    d3 = pr.region is Region.DELTA3
    one = pr.p % 3 == 1
    items = []
    if d1 and pr.eb == 0 and one:
        items.append(("D13.1", (3, 0, 0)))
    if (d1 and pr.eb < 0 and one) or (d3 and pr.ea < 0 and pr.sqrt_neg_a):
        items.append(("D13.2", (0, 3, 0)))
    if (d1 and pr.eb > 0 and one) or (d3 and pr.eb > pr.ea and pr.sqrt_neg_a):
        items.append(("D13.3", (0, 0, 3)))
    if d3 and pr.ea == 0 and pr.sqrt_neg_a:
        items.append(("D13.4", (2, 1, 0)))
    if d3 and pr.ea == pr.eb and pr.sqrt_neg_a:
        items.append(("D13.5", (1, 0, 2)))
    if d3 and pr.ea > pr.eb and pr.ea > 0 and pr.sqrt_neg_a:
        items.append(("D13.6", (0, 1, 2)))
    if (d1 and pr.eb == 0 and not one) or (d3 and pr.ea == pr.eb and not pr.sqrt_neg_a):
        items.append(("D13.7", (1, 0, 0)))
    if (d1 and pr.eb < 0 and not one) or (d3 and pr.ea > pr.eb and not pr.sqrt_neg_a):
        items.append(("D13.8", (0, 1, 0)))
    if (d1 and pr.eb > 0 and not one) or (d3 and pr.ea < pr.eb and not pr.sqrt_neg_a):
        items.append(("D13.9", (0, 0, 1)))
    return items


def signature(inst: CubicInstance) -> LocationSignature:
    """The triple of atom counts, cross-checked against the root-description items.

    For an instance inside the solvability domain exactly one description item
    must hold and its signature must equal the composed counts; any mismatch
    raises InternalInconsistency.  Outside instances get the empty signature.
    """
    pr = _profile(inst)
    sig = LocationSignature(
        units=_count_units(pr),
        small_ball=_count_small_ball(pr),
        exterior=_count_exterior(pr),
    )
    if pr.region is Region.OUTSIDE:
        if sig.total != 0:
            raise InternalInconsistency(
                f"outside instance produced nonzero counts {sig}"
            )
        return sig

    items = _matching_items(pr)
    if len(items) != 1:
        raise InternalInconsistency(
            f"expected exactly one description item, matched {items}"
        )
    label, (u, s, e) = items[0]
    if (sig.units, sig.small_ball, sig.exterior) != (u, s, e):
        raise InternalInconsistency(
            f"item {label} promises {(u, s, e)} but counts give {sig}"
        )
    if sig.nonzero_atoms() == 3:
        raise InternalInconsistency(f"three-domain signature is impossible: {sig}")
    if pr.region is Region.DELTA2 and sig.nonzero_atoms() > 1:
        raise InternalInconsistency(f"Delta2 signature must be single-domain: {sig}")
    return sig
