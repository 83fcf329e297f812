"""Per-strand verdicts against a reference that asks every question alone.

``brunnian_check`` and ``membership_theorem12`` share one strand sweep,
which asks the word's own verdict at the first removal that needs the
engine, and stops once the word is trivial.  The reference in
``oracles.strand_reference`` forgets each strand on its own, and decides
each removal and the word through ``_is_trivial_pure`` (on genus 2,
``is_trivial_genus2`` for the word), each under a budget of its own.
On pure words, conjugated full twists and genus-2 words, both give the
same ``per_strand`` and ``trivial``, and the sweep uses at most the
letters of the reference's questions together: its engine runs are
some of the reference's.
"""

import random

from hypothesis import given, settings, strategies as st

from brunnian import (BraidWord, LetterBudget, TwistWord, brunnian_check,
                      brunnian_example, is_trivial_genus2,
                      membership_theorem12, project)
from brunnian.braid import _is_trivial_pure
from brunnian.budget import unless_aborted
from golden import _pure_tail

import oracles

INVOLUTION = [1, 2, 3, 4, 5, 5, 4, 3, 2, 1]


def _alone(decide, word):
    """``decide(word, budget)`` under a budget of its own, and the letters
    it used."""
    budget = LetterBudget()
    return unless_aborted(decide, word, budget), budget.used


def _agrees_with_reference(word) -> bool:
    """Checks the sweep against the reference on a sphere or genus-2 word
    whose (projected) permutation is trivial; returns the word's verdict."""
    budget = LetterBudget()
    if isinstance(word, TwistWord):
        report = membership_theorem12(word, budget)
        braid = project(word)
        own = _alone(is_trivial_genus2, word)
    else:
        report = brunnian_check(word, budget)
        braid = word
        own = _alone(_is_trivial_pure, word)
    per_strand, trivial, letters = oracles.strand_reference(
        braid, lambda removal: _alone(_is_trivial_pure, removal), own)
    assert not budget.exhausted and None not in per_strand and trivial is not None
    assert list(report.per_strand) == per_strand
    assert report.trivial is trivial
    assert budget.used <= letters
    return trivial


def _full_twist(n):
    return list(range(1, n)) * n


def _conjugate(g, letters):
    return [*g, *letters, *oracles.inverse(g)]


def seeded_words(seed, count):
    """``count`` seeded words with a pure (projected) permutation on
    sphere:5..8 and genus 2: random pure words, conjugated full twists
    and their inverses, products of the two, conjugated flagships, and
    on genus 2 conjugated powers of the involution times a pure word."""
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        genus2 = rng.random() < 0.3
        n = 6 if genus2 else rng.randint(5, 8)
        g = oracles.random_letters(rng, n - 1, rng.randint(0, 6))
        pure = oracles.random_letters(rng, n - 1, rng.randint(0, 14))
        pure += _pure_tail(n, pure)
        kind = rng.randrange(4)
        if kind == 0:
            letters = pure
        elif kind == 1:  # a full twist, which is trivial, or its inverse
            letters = _conjugate(g, _full_twist(n) if rng.random() < 0.5
                                 else oracles.inverse(_full_twist(n)))
        elif kind == 2:
            letters = _conjugate(g, _full_twist(n)) + pure
        elif genus2:
            letters = _conjugate(g, INVOLUTION * rng.randint(1, 2)) + pure
        else:
            letters = _conjugate(g, brunnian_example(n).letters)
        words.append(TwistWord(letters) if genus2 else BraidWord(n, letters))
    return words


def test_seeded_words_agree_with_the_reference():
    verdicts = [_agrees_with_reference(word) for word in seeded_words(2026, 1500)]
    assert verdicts.count(True) >= 400
    assert verdicts.count(False) >= 800


@st.composite
def pure_words(draw):
    """A pure word on sphere:4..7, or a twist word with a pure projection:
    a random pure word, times a conjugated full twist or not, with the
    involution inserted on genus 2 or not."""
    genus2 = draw(st.booleans())
    n = 6 if genus2 else draw(st.integers(4, 7))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    letters = draw(st.lists(letter, max_size=12))
    letters += _pure_tail(n, letters)
    if draw(st.booleans()):
        g = draw(st.lists(letter, max_size=6))
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = _conjugate(g, _full_twist(n))
    if genus2 and draw(st.booleans()):
        letters += INVOLUTION
    return TwistWord(letters) if genus2 else BraidWord(n, letters)


@settings(deadline=None)
@given(pure_words())
def test_strand_sweep_agrees_with_the_reference(word):
    _agrees_with_reference(word)
