"""Exact classification and solution of x^3 + ax = b over the p-adic numbers (p > 3).

The package decides solvability, counts roots per location domain (units,
small ball, exterior, and their unions), reports the root-location signature,
and computes every root to arbitrary digit precision, with brute-force
oracles validating the theory at desk scale.
"""

from .classify import (
    ATOMS,
    CubicInstance,
    Domain,
    LocationSignature,
    NormalizedDiscriminant,
    Region,
    atom_for_valuation,
    count_in,
    normalized_discriminant,
    region,
    signature,
    solvable_in,
    unit_precheck,
)
from .errors import PadicCubicError
from .fp_cubic import (
    FpCubic,
    count_roots_formula,
    discriminant_mod_p,
    linear_root,
    roots_exhaustive,
    roots_mod_p,
    u_term,
    u_term_iterated,
)
from .oracle import (
    ConstructedInstance,
    enumerate_roots_mod,
    generate_from_roots,
    stable_zp_root_count,
    verify,
)
from .padic import DigitExpansion, PadicRational, Prime, make_padic
from .residues import (
    cbrt_exists,
    is_qth_residue,
    monomial_root_count,
    monomial_solvable,
    nth_roots_mod_p,
    qth_root_count_mod_p,
    sqrt_exists,
)
from .solve import (
    DEFAULT_DIGITS,
    HenselSeed,
    RootRecord,
    ScaledEquation,
    all_roots,
    candidate_scalings,
    congruence_initials,
    double_root_closed_form,
    lift,
    series_agreement_exponent,
    series_root,
)

__version__ = "0.1.0"

__all__ = [
    "ATOMS",
    "ConstructedInstance",
    "CubicInstance",
    "DEFAULT_DIGITS",
    "DigitExpansion",
    "Domain",
    "FpCubic",
    "HenselSeed",
    "LocationSignature",
    "NormalizedDiscriminant",
    "PadicCubicError",
    "PadicRational",
    "Prime",
    "Region",
    "RootRecord",
    "ScaledEquation",
    "all_roots",
    "atom_for_valuation",
    "candidate_scalings",
    "cbrt_exists",
    "congruence_initials",
    "count_in",
    "count_roots_formula",
    "discriminant_mod_p",
    "double_root_closed_form",
    "enumerate_roots_mod",
    "generate_from_roots",
    "is_qth_residue",
    "lift",
    "linear_root",
    "make_padic",
    "monomial_root_count",
    "monomial_solvable",
    "normalized_discriminant",
    "nth_roots_mod_p",
    "qth_root_count_mod_p",
    "region",
    "roots_exhaustive",
    "roots_mod_p",
    "series_agreement_exponent",
    "series_root",
    "signature",
    "solvable_in",
    "sqrt_exists",
    "stable_zp_root_count",
    "u_term",
    "u_term_iterated",
    "unit_precheck",
    "verify",
]
