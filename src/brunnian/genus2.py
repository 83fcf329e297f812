"""Words in the five genus-2 twist generators and the two-sided word problem.

The closed genus-2 surface double covers the sphere, branched over six
points; the covering projection sends the i-th standard twist generator
to the i-th sphere half twist, letterwise on words.  The kernel of the
induced map on mapping class groups has order two, generated by the
hyperelliptic involution, whose homology action is minus the identity.
A twist word is therefore trivial exactly when its projection is
trivial on the sphere and its integral homology action is the identity;
the homology side separates the identity from the involution, modulo
any odd modulus too, so verdicts compare rho_mod(word, SCREEN_MODULUS)
with homology.IDENTITY and certificates print the exact rows.  Past
that test the projection meets the sphere rule (braid): purity, then
collapse, screen and engine.  On six strands the screen reads this same
homology, but of the projection's least pure power, which need not act
as the word does, so it still stops some projections before the engine.
The genus-2 Brunnian subgroup is the full preimage of the sphere one, so
membership is the projection's strand sweep behind the same test.

The involution is represented by the standard palindromic word
D1 D2 D3 D4 D5 D5 D4 D3 D2 D1.  The word itself is never trusted: both
defining properties (trivial projection, homology action -I) are
machine-checked the first time it is used.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

from . import homology
from .braid import (
    BraidWord,
    BrunnianReport,
    _strand_sweep,
    is_trivial_sphere,
)
from .budget import LetterBudget
from .certificate import _decimal, document
from .freegroup import Letters, Word, commutator  # noqa: F401 (public name)

GENERATOR_COUNT = len(homology.CHAIN_CLASSES)  # one chain class per twist d1..d5


@dataclass(frozen=True)
class TwistWord(Word):
    """Freely reduced word in the five standard genus-2 twist generators."""

    letters: Letters = ()
    bound = GENERATOR_COUNT
    prefix = "d"
    surface = ("genus2",)


def project(word: TwistWord) -> BraidWord:
    """Letterwise image on the six-strand sphere braid generators."""
    return BraidWord(6, word.letters)


@cache
def involution_word() -> TwistWord:
    """The hyperelliptic involution word, verified before first use.

    Checks that the projection is trivial on the sphere and that the
    integral homology action is minus the identity; either failure
    would mean the twist conventions are inconsistent, so it is treated
    as an internal error rather than a user-facing one, and a failed
    check caches nothing.
    """
    word = TwistWord((1, 2, 3, 4, 5, 5, 4, 3, 2, 1))
    if homology.rho(word) != homology.NEG_IDENTITY:
        raise AssertionError("involution word must act as -I on homology")
    if not is_trivial_sphere(project(word)):
        raise AssertionError("involution word must project to a trivial class")
    return word


def is_trivial_genus2(word: TwistWord,
                      budget: LetterBudget | None = None) -> bool:
    """Exact triviality in the genus-2 mapping class group.

    True exactly when the screened homology action is the identity and
    the projection is trivial on the six-punctured sphere.  The action
    is read first: it is cheap and already rules out the involution coset.
    """
    return (homology.rho_mod(word, homology.SCREEN_MODULUS) == homology.IDENTITY
            and is_trivial_sphere(project(word), budget))


def membership_theorem12(word: TwistWord,
                         budget: LetterBudget | None = None) -> BrunnianReport:
    """Membership checks for the intersection of the Brunnian subgroup
    with the kernel of the mod-3 homology representation.

    The report holds the projection's strand verdicts (the genus-2
    Brunnian subgroup is the full preimage of the sphere one), the
    word's own triviality and ``rho_mod3_identity``; certificate.conclude
    reads a member from ``brunnian`` and ``rho_mod3_identity`` both True.
    Budget aborts leave the affected verdicts None.  The homology action
    is screened once; the word's own verdict asks the projection only
    when that action is the identity.
    """
    return _membership(word, homology.rho_mod(word, homology.SCREEN_MODULUS),
                       LetterBudget() if budget is None else budget)


def _membership(word: TwistWord, action: homology.Rows,
                budget: LetterBudget) -> BrunnianReport:
    """membership_theorem12 with the word's screened action given: the
    projection's strand sweep, its own verdict gated on that action
    being the identity, and the action modulo 3."""
    report = _strand_sweep(project(word), budget, action == homology.IDENTITY)
    return replace(report,
                   rho_mod3_identity=homology.mod(action, 3) == homology.IDENTITY)


def certify_pa_genus2(word: TwistWord,
                      budget: LetterBudget | None = None,
                      input_text: str | None = None) -> dict:
    """Certificate document for a genus-2 twist word.

    Nontrivial members of the Brunnian-and-mod-3-kernel subgroup are
    pseudo-Anosov; failing that, an irreducible non-cyclotomic
    characteristic polynomial of the integral homology action still
    certifies (the homological criterion), and anything else is
    undetermined.
    """
    budget = LetterBudget() if budget is None else budget
    # Printed, so exact; an entry or coefficient too large to print is
    # refused here, before any engine work.
    action = homology.rho(word)
    poly = homology.charpoly(action)
    printed = {
        "rho_integral": [[_decimal(x) for x in row] for row in action],
        "charpoly": [_decimal(c) for c in poly],
        "casson_bleiler": homology.casson_bleiler(poly),
    }
    report = _membership(word, homology.mod(action, homology.SCREEN_MODULUS),
                         budget)
    return document(word, report, budget, input_text, **printed)
