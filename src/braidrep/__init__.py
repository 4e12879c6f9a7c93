"""Exact computation with a braid representation built from collinearity
events of point motions, strong enough to separate elements that the
Burau representation cannot."""

from .braids import (
    BraidWord,
    COMMUTATOR_ABA_B,
    COMMUTATOR_A_B_AB,
    DEFAULT_COMMUTATOR_CONVENTION,
    bigelow_beta,
    commutator,
)
from .gn3 import GnWord, NotPureError, SemidirectElement, phi_generator, phi_pure, phi_word
from .laurent import LaurentPoly, LaurentRing
from .matrixrep import (
    PolyMatrix,
    burau_reduced,
    burau_unreduced,
    check_braid_relations,
    check_relations,
    corner_entry,
    numeric_rep_of_word,
    rep_of_word,
    strand_assignment,
)
from .permutations import Permutation

__all__ = [
    "BraidWord",
    "COMMUTATOR_ABA_B",
    "COMMUTATOR_A_B_AB",
    "DEFAULT_COMMUTATOR_CONVENTION",
    "GnWord",
    "LaurentPoly",
    "LaurentRing",
    "NotPureError",
    "Permutation",
    "PolyMatrix",
    "SemidirectElement",
    "bigelow_beta",
    "burau_reduced",
    "burau_unreduced",
    "check_braid_relations",
    "check_relations",
    "commutator",
    "corner_entry",
    "numeric_rep_of_word",
    "phi_generator",
    "phi_pure",
    "phi_word",
    "rep_of_word",
    "strand_assignment",
]

__version__ = "0.1.0"
