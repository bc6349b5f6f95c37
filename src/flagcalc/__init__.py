"""Exact Schubert calculus on the flag manifolds of types B, D, G2 and F4.

The package computes, over the integers and with exact rational arithmetic:
divided difference operators, Schubert-basis expansions of polynomials in the
fundamental weights, Chevalley products, Giambelli representatives, structure
constants, the Borel-presentation generator dictionaries for these types, and
the Chow rings of the corresponding complex algebraic groups.
"""

from .chowring import (
    ChowPresentation,
    GradedAbelianGroup,
    chow_groups,
    chow_presentation,
    presentation_strata,
    verify_chow,
)
from .errors import (
    FlagcalcError,
    InvalidWordError,
    NonHomogeneousError,
    NonIntegralExpansionError,
    NotARootError,
    NotDivisibleByMultiplierError,
    OutOfRangeError,
    ParseError,
    UnsupportedRankError,
)
from .exprparse import parse_polynomial
from .polyring import Polynomial
from .presentations import (
    BorelPresentation,
    VerificationReport,
    borel_presentation,
    degree2_generator_images,
    gamma_expansion,
    verify_presentations,
)
from .rootdata import (
    CartanType,
    Root,
    RootDatum,
    build_root_datum,
    cartan_type,
    elem_sym_t,
)
from .schubert import SchubertCalc, SchubertExpansion, calculus_for
from .weylgroup import WeylElement, WeylGroup

__version__ = "0.1.0"

__all__ = [
    "BorelPresentation",
    "CartanType",
    "ChowPresentation",
    "FlagcalcError",
    "GradedAbelianGroup",
    "InvalidWordError",
    "NonHomogeneousError",
    "NonIntegralExpansionError",
    "NotARootError",
    "NotDivisibleByMultiplierError",
    "OutOfRangeError",
    "ParseError",
    "Polynomial",
    "Root",
    "RootDatum",
    "SchubertCalc",
    "SchubertExpansion",
    "UnsupportedRankError",
    "VerificationReport",
    "WeylElement",
    "WeylGroup",
    "borel_presentation",
    "build_root_datum",
    "calculus_for",
    "cartan_type",
    "chow_groups",
    "chow_presentation",
    "degree2_generator_images",
    "elem_sym_t",
    "gamma_expansion",
    "parse_polynomial",
    "presentation_strata",
    "verify_chow",
    "verify_presentations",
]
