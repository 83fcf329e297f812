"""Sphere braid words and the exact word problem for the punctured sphere.

A braid word on n strands is a freely reduced sequence of signed
generator indices: ``+i`` is the half twist swapping punctures i and
i+1, ``-i`` its inverse (indices 1..n-1).

Word problem
------------
The fundamental group of the n-punctured sphere is free of rank n-1 on
loops x_1..x_{n-1} around the first n-1 punctures; the loop around the
last puncture is eliminated through x_n = (x_1...x_{n-1})^-1.  Each
generator acts by the Artin rule (x_i -> x_i x_{i+1} x_i^-1,
x_{i+1} -> x_i), with the eliminated generator substituted when the
last half twist is applied.  The action composes along the word as
action(uv) = action(u) after action(v).  The engine keeps the images
as packed words (see freegroup), so each letter costs a few slices,
one ``str.translate`` and two seam comparisons rather than a Python
loop over the letters of its images.

A puncture-fixing mapping class of the sphere with n >= 4 punctures is
trivial exactly when its permutation is trivial and its action on the
fundamental group is inner.  After that purity test one rule,
``_is_trivial_pure``, decides every pure word by exact stages, the
first that decides giving the answer: collapse (the empty word and
every pure word on three strands are trivial); homology (on six strands
the letterwise genus-2 lift of a trivial word acts on integral homology
as +-identity, the lift kernel being the identity and the hyperelliptic
involution); engine (freegroup inner detection).

Brunnian membership
-------------------
Forgetting a strand is realised on words by a left-to-right sweep that
tracks the geometric position of the forgotten strand, drops every
crossing adjacent to it and shifts higher indices down.  A word is
Brunnian when every single-strand removal yields a trivial mapping
class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import homology
from .budget import LetterBudget, unless_aborted
from .certificate import document
from .errors import PreconditionError
from .freegroup import (
    Letters,
    Word,
    _conjugate,
    _inner_conjugator,
    _inverse_table,
    _pack,
    commutator,
)


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n} stored as its image table."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise PreconditionError("image table is not a bijection of 1..n")

    @property
    def n(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def fixes(self, i: int) -> bool:
        return self.images[i - 1] == i


# Braids have at most this many strands.  The per-strand sweeps and the
# identity tables are linear in the strand count and not charged to the
# letter budget, so the count itself needs a bound.
MAX_STRANDS = 1000


@dataclass(frozen=True)
class BraidWord(Word):
    """Freely reduced word in the sphere braid generators on n strands,
    for an int n in 2..MAX_STRANDS; the letters are reduced as for Word."""

    n: int
    letters: Letters = ()

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise PreconditionError(
                f"a braid's strand count must be an int, not {type(self.n).__name__}")
        if self.n < 2:
            raise PreconditionError("a braid needs at least two strands")
        if self.n > MAX_STRANDS:
            raise PreconditionError(f"a braid has at most {MAX_STRANDS} strands")
        super().__post_init__()

    @property
    def bound(self) -> int:
        return self.n - 1

    def permutation(self) -> Permutation:
        """Puncture permutation induced by the word (start strand -> end position)."""
        at = list(range(self.n + 1))  # at[pos] = strand currently at pos
        for a in self.letters:
            i = abs(a)
            at[i], at[i + 1] = at[i + 1], at[i]
        out = [0] * (self.n + 1)
        for pos in range(1, self.n + 1):
            out[at[pos]] = pos
        return Permutation(tuple(out[1:]))

    def remove_strand(self, i: int) -> "BraidWord":
        """Forget strand i, realising the strand-removal homomorphism on words.

        Requires permutation(self) to fix i.  The sweep keeps the
        current position of the forgotten strand, drops the crossings
        that involve it and renumbers crossings to its right; the
        strand's final position is its image under the permutation.
        """
        if not 1 <= i <= self.n:
            raise PreconditionError(f"strand {i} out of range")
        pos = i
        out: list[int] = []
        for a in self.letters:
            j = abs(a)
            if j == pos:
                pos += 1
            elif j == pos - 1:
                pos -= 1
            elif j > pos:
                out.append(j - 1 if a > 0 else -(j - 1))
            else:
                out.append(a)
        if pos != i:
            raise PreconditionError(
                f"strand {i} is not fixed by the word's permutation")
        return BraidWord(self.n - 1, out)


# ---------------------------------------------------------------------------
# the action on the fundamental group of the punctured sphere
# ---------------------------------------------------------------------------

def _action_table(n: int, letters: Iterable[int],
                  budget: LetterBudget) -> list[str]:
    """Packed generator images of the composed action, letters applied
    left to right.

    The table also holds the image of the eliminated loop x_n, so every
    letter is one Artin step in place: s_i substitutes x_i x_{i+1} x_i^-1
    for x_i and copies the old image of x_i into x_{i+1}, s_i^-1 the
    mirror, and s_{n-1} is the same step on x_{n-1} and x_n.  The
    substitution is one conjugation, reduced at its two seams.  Each
    step charges the lengths of the images its defining word over
    x_1..x_{n-1} substitutes, in that word's order, with one
    ``charge_each`` call; for s_{n-1} that word names all n - 1
    generators.  The uncharged upkeep of x_n costs no more than the
    letters charged, since x_n is a product of the other images.
    """
    r = n - 1
    flip = _inverse_table(r)
    images = [_pack(r, (i,)) for i in range(1, r + 1)]
    images.append(_pack(r, range(-r, 0)))  # x_n = x_{n-1}^-1 ... x_1^-1
    charge = budget.charge_each
    for a in letters:
        i = abs(a)
        x, y = images[i - 1], images[i]
        if i == r:  # the defining word runs through x_1..x_{n-1}
            charge([len(w) for w in reversed(images[:r - 1])] + [len(x)]
                   if a > 0 else [len(w) for w in reversed(images[:r])])
        elif a > 0:  # x_i x_{i+1} x_i^-1
            charge((len(x), len(y), len(x)))
        else:  # x_{i+1}^-1 x_i x_{i+1}
            charge((len(y), len(x), len(y)))
        if a > 0:
            images[i - 1], images[i] = _conjugate(x, x[::-1].translate(flip), y), x
        else:
            images[i - 1], images[i] = y, _conjugate(y[::-1].translate(flip), y, x)
    del images[r]
    return images


def is_trivial_sphere(word: BraidWord,
                      budget: LetterBudget | None = None) -> bool:
    """Exact triviality in the mapping class group of the n-punctured sphere.

    True exactly when the puncture permutation is trivial and the
    action on the fundamental group is inner.  Needs n >= 4 (with three
    punctures the group is finite and out of scope here).  May raise
    LetterBudgetExceeded if the action outgrows the budget.
    """
    if word.n < 4:
        raise PreconditionError("triviality testing needs at least four punctures")
    return word.permutation().is_identity() and _is_trivial_pure(
        word, LetterBudget() if budget is None else budget)


def _is_trivial_pure(word: BraidWord, budget: LetterBudget,
                     lift: homology.ModularMatrix | None = None) -> bool:
    """Triviality of a word whose permutation is known to be trivial.

    Runs collapse, homology and engine (see the module docstring);
    ``lift`` is the six-strand word's lift read modulo
    homology.SCREEN_MODULUS, when the caller already holds it.
    """
    if not word.letters or word.n == 3:
        return True
    if word.n == 6:
        lift = lift or homology.rho_mod(word.letters, homology.SCREEN_MODULUS)
        if not (lift.is_identity or lift.is_neg_identity):
            return False
    table = _action_table(word.n, word.letters, budget)
    return _inner_conjugator(word.n - 1, table) is not None


# ---------------------------------------------------------------------------
# Brunnian membership and certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrunnianReport:
    """Outcome of the strand-removal checks for one word.

    Verdict values: True/False are decided; None means the verdict was
    not reached (letter-budget abort, or a strand not fixed so never
    evaluated).  ``trivial`` is the triviality verdict of the word
    itself and ``permutation`` its puncture permutation.
    ``rho_mod3_identity`` says on genus 2 whether the mod-3 homology
    action is the identity (genus2.membership_theorem12); None on spheres.
    """

    permutation: Permutation
    per_strand: tuple[Optional[bool], ...]
    trivial: Optional[bool]
    rho_mod3_identity: Optional[bool] = None

    def __post_init__(self):
        if len(self.per_strand) != self.permutation.n:
            raise PreconditionError("need one verdict per strand")

    @property
    def brunnian(self) -> Optional[bool]:
        """The conjunction of the per-strand verdicts."""
        return _fold_verdicts(self.per_strand)


def _fold_verdicts(verdicts: Iterable[Optional[bool]]) -> Optional[bool]:
    result: Optional[bool] = True
    for v in verdicts:
        if v is False:
            return False
        if v is None:
            result = None
    return result


def _strand_verdicts(word: BraidWord, perm: Permutation,
                     budget: LetterBudget) -> tuple[Optional[bool], ...]:
    """Triviality of each single-strand removal; ``perm`` is the word's.

    A word with a nontrivial permutation is immediately not Brunnian:
    moved strands report False, fixed strands stay unevaluated.
    Forgetting a strand of a pure word leaves a pure word, so no removal
    recomputes a permutation.
    """
    n = word.n
    if not perm.is_identity():
        return tuple(None if perm.fixes(i) else False for i in range(1, n + 1))
    return tuple(unless_aborted(_is_trivial_pure, word.remove_strand(i), budget)
                 for i in range(1, n + 1))


def brunnian_check(word: BraidWord,
                   budget: LetterBudget | None = None) -> BrunnianReport:
    """Evaluate every forget-strand kernel condition plus own triviality.

    Accepts n >= 4; certification (see certify_pa_sphere) additionally
    requires n >= 5.  Budget aborts leave the affected verdicts None.
    """
    if word.n < 4:
        raise PreconditionError("Brunnian checks need at least four strands")
    if budget is None:
        budget = LetterBudget()
    perm = word.permutation()
    per_strand = _strand_verdicts(word, perm, budget)
    trivial = perm.is_identity() and unless_aborted(_is_trivial_pure, word, budget)
    return BrunnianReport(perm, per_strand, trivial)


def certify_pa_sphere(word: BraidWord,
                      budget: LetterBudget | None = None,
                      input_text: str | None = None) -> dict:
    """Certificate document for a sphere word: every nontrivial Brunnian
    mapping class of the sphere with n >= 5 punctures is pseudo-Anosov.

    Verdicts that the budget prevented stay null and the conclusion is
    undetermined; aborts are recorded in-band, never raised.
    """
    if word.n < 5:
        raise PreconditionError("certification needs at least five punctures")
    if budget is None:
        budget = LetterBudget()
    return document(("sphere", word.n), word, brunnian_check(word, budget),
                    budget, input_text)


def brunnian_example(n: int) -> BraidWord:
    """Nested commutator of sixth powers, Brunnian on n >= 5 strands.

    [s1^6, [s2^6, [... [s_{n-2}^6, s_{n-1}^6] ...]]], fully expanded and
    word-level reduced.  Forgetting any strand collapses it to the
    identity word; sixth powers are used so the homology action of the
    genus-2 lift (n = 6) dies mod 3.
    """
    if n < 5:
        raise PreconditionError("the example family starts at five strands")
    word = BraidWord(n, (n - 1,) * 6)
    for i in range(n - 2, 0, -1):
        word = commutator(BraidWord(n, (i,) * 6), word)
    return word


def example_length(n: int) -> int:
    """len(brunnian_example(n)) for n >= 5, without building the word.

    The innermost s_{n-1}^6 has six letters and each of the n - 2
    commutator levels doubles the word and adds twelve, with nothing
    cancelling: 18 * 2^(n-2) - 12.
    """
    return 9 * 2 ** (n - 1) - 12
