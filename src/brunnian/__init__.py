"""Exact computations in mapping class groups of the punctured sphere and
the closed genus-2 surface: word problems, Brunnian subgroup membership
and machine-checkable pseudo-Anosov certificates."""

from .braid import (
    BraidWord,
    BrunnianReport,
    Permutation,
    brunnian_check,
    brunnian_example,
    certify_pa_sphere,
    is_trivial_sphere,
)
from .budget import DEFAULT_LETTER_CAP, LetterBudget
from .certificate import canonical_json, render_letters
from .errors import LetterBudgetExceeded, PreconditionError, WordSyntaxError
from .genus2 import (
    TwistWord,
    certify_pa_genus2,
    involution_word,
    is_trivial_genus2,
    membership_theorem12,
    project,
)
from .homology import (
    CharPolynomial,
    ModularMatrix,
    SymplecticMatrix,
    casson_bleiler,
    charpoly,
    rho,
    rho_mod,
)
from .parsing import parse_surface, parse_word

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "BrunnianReport",
    "CharPolynomial",
    "DEFAULT_LETTER_CAP",
    "LetterBudget",
    "LetterBudgetExceeded",
    "ModularMatrix",
    "Permutation",
    "PreconditionError",
    "SymplecticMatrix",
    "TwistWord",
    "WordSyntaxError",
    "brunnian_check",
    "brunnian_example",
    "canonical_json",
    "casson_bleiler",
    "certify_pa_genus2",
    "certify_pa_sphere",
    "charpoly",
    "involution_word",
    "is_trivial_genus2",
    "is_trivial_sphere",
    "membership_theorem12",
    "parse_surface",
    "parse_word",
    "project",
    "render_letters",
    "rho",
    "rho_mod",
]
