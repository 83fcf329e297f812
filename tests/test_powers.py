"""Power reduction: the screen and the engine read the least pure power.

The pure mapping class group of the n-punctured sphere is torsion-free,
so a word v u^m v^-1, with u not a proper power, is trivial exactly when
u^q is, q the order of u's permutation.  The Burau screen runs on
v u^q v^-1 and the engine on u^q alone (both on the whole word when
q = m), from one split cached on the word.

* Bases of each order: s1...s_{n-1} (order n), s1...s_{n-2} (order
  n - 1) and s1...s_{n-3} s_{n-2}^2 (order n - 2) have exactly that
  order for n = 5..9, by the engine on the whole word, and every power
  of them that is a multiple of the order is trivial.
* Against the reference (``_action_table`` and ``_inner_conjugator`` on
  the whole word): on seeded and generated words v u^m v^-1 on
  sphere:4..8 and on genus-2 projections, ``_is_inner`` gives the
  reference's verdict wherever it decides.  On the seeded words it uses
  under a quarter of the letters in all, and more on none.
* Against the screen of the whole word: on seeded and generated words
  g u^m g^-1 on sphere:4..9, every word the whole-word screen rejects is
  rejected on the least power too, some others are as well, and the
  verdicts are the reference's.  The letters the screen reads on powers
  of s1...s_{n-1} do not grow with the exponent.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from brunnian import (BraidWord, LetterBudget, TwistWord, brunnian_check,
                      is_trivial_genus2, is_trivial_sphere, project, rho)
from brunnian.braid import (_action_table, _burau_passes, _inner_conjugator,
                            _is_inner, _is_trivial_pure, _screened)
from brunnian.budget import unless_aborted
from brunnian.homology import IDENTITY

import oracles

REFERENCE_CAP = 100_000


def bases(n):
    """The periodic bases on n strands, each with its order."""
    return ((tuple(range(1, n)), n),
            (tuple(range(1, n - 1)), n - 1),
            ((*range(1, n - 2), n - 2, n - 2), n - 2))


def reference(word, cap=REFERENCE_CAP):
    """The engine on the whole word: its verdict (None after ``cap``
    letters) and the letters it used."""
    budget = LetterBudget(cap)
    verdict = unless_aborted(lambda: _inner_conjugator(
        word.n - 1, _action_table(word.n, word.letters, budget)) is not None)
    return verdict, budget.used


def reduced(word):
    """``_is_inner`` under a cap well above the reference's, and its letters."""
    budget = LetterBudget(100 * REFERENCE_CAP)
    return unless_aborted(_is_inner, word, budget), budget.used


def order(perm):
    """The least k >= 1 with perm^k the identity, by iterating perm."""
    power, k = perm, 1
    while list(power) != list(range(1, len(perm) + 1)):
        power, k = [perm[i - 1] for i in power], k + 1
    return k


def conjugated_power(n, v, u, k):
    """v u^m v^-1 with m = k times the order of u's permutation, so pure."""
    m = k * order(BraidWord(n, u).permutation().images)
    return [*v, *u * m, *oracles.inverse(v)]


# ---------------------------------------------------------------------------
# bases of order n, n - 1 and n - 2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 10))
def test_bases_have_their_order(n):
    for base, o in bases(n):
        word = BraidWord(n, base * o)
        assert word.permutation().is_identity() and reference(word)[0] is True
        for p in (p for p in range(2, o + 1) if o % p == 0):
            part = BraidWord(n, base * (o // p))
            assert not (part.permutation().is_identity() and reference(part)[0])


@pytest.mark.parametrize("n", range(5, 10))
def test_powers_of_each_base_are_trivial(n):
    # Every multiple of the order o is trivial, and one more copy of the
    # base is not.
    rng = random.Random(n)
    for base, o in bases(n):
        for k in (1, 2, 3, 7, 60, 1001):
            v = oracles.random_letters(rng, n - 1, rng.randint(0, 5))
            word = BraidWord(n, [*v, *base * (o * k), *oracles.inverse(v)])
            assert _is_inner(word, LetterBudget(50_000)) is True
            assert is_trivial_sphere(word, LetterBudget(50_000)) is True
            extra = BraidWord(n, base * (o * k + 1))
            assert is_trivial_sphere(extra) is False


def test_genus2_chain_powers_are_trivial():
    # (d1 ... d5)^6 is the identity on genus 2; its projection has order 6.
    for k in (1, 5, 1000):
        word = TwistWord((1, 2, 3, 4, 5) * (6 * k))
        assert is_trivial_genus2(word, LetterBudget(50_000)) is True


# ---------------------------------------------------------------------------
# against the engine on the whole word
# ---------------------------------------------------------------------------

def seeded_powers(seed, count):
    """``count`` seeded pure words v u^m v^-1 on sphere:4..8 and genus-2
    projections: u is a random word, or a periodic base conjugated by a
    random word, times a random word or not."""
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        genus2 = rng.random() < 0.25
        n = 6 if genus2 else rng.randint(4, 8)
        if rng.random() < 0.5:
            u = oracles.random_letters(rng, n - 1, rng.randint(1, 6))
        else:
            base, _ = rng.choice(bases(n))
            w = oracles.random_letters(rng, n - 1, rng.randint(0, 3))
            u = [*w, *base, *oracles.inverse(w)]
            if rng.random() < 0.3:
                u += oracles.random_letters(rng, n - 1, rng.randint(1, 3))
        v = oracles.random_letters(rng, n - 1, rng.randint(0, 4))
        letters = conjugated_power(n, v, u, rng.randint(1, 4))
        word = project(TwistWord(letters)) if genus2 else BraidWord(n, letters)
        if word.letters:
            words.append(word)
    return words


def test_seeded_powers_agree_with_the_engine():
    # The engine runs on u^q, or on the whole word when q = m, and on
    # these words it uses no more letters than on the whole word.
    decided, rises, totals = {True: 0, False: 0}, [], [0, 0]
    for word in seeded_powers(2027, 1080):
        verdict, letters = reference(word)
        if verdict is None:
            continue
        decided[verdict] += 1
        got, used = reduced(word)
        assert got is verdict
        totals[0] += letters
        totals[1] += used
        if used > letters:
            rises.append(word)
    assert min(decided.values()) >= 400
    assert not rises
    assert totals[1] * 4 < totals[0]


def test_the_whole_word_is_charged_when_q_is_m():
    # u has permutation order 7 = m, so the engine runs on the whole word
    # and decides it at exactly the reference's charge.
    v = (3, 1, 2)
    u = (3, -2, 1, 2, 3, 4, 5, 6, 7, 2, -3, 7)
    word = BraidWord(8, [*v, *u * 7, *oracles.inverse(v)])
    assert BraidWord(8, u).permutation().order() == 7
    verdict, letters = reference(word)
    assert verdict is True and letters == 3620
    assert is_trivial_sphere(word, LetterBudget(letters)) is True


@st.composite
def powers(draw):
    """A pure word v u^m v^-1 on sphere:4..8 or a genus-2 projection,
    with u random or a conjugated periodic base."""
    genus2 = draw(st.booleans())
    n = 6 if genus2 else draw(st.integers(4, 8))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    if draw(st.booleans()):
        u = draw(st.lists(letter, min_size=1, max_size=6))
    else:
        base, _ = draw(st.sampled_from(bases(n)))
        w = draw(st.lists(letter, max_size=3))
        u = [*w, *base, *oracles.inverse(w)]
    v = draw(st.lists(letter, max_size=4))
    letters = conjugated_power(n, v, u, draw(st.integers(1, 4)))
    return project(TwistWord(letters)) if genus2 else BraidWord(n, letters)


@settings(deadline=None)
@given(powers())
def test_power_reduction_agrees_with_the_engine(word):
    verdict, _ = reference(word)
    if verdict is not None:
        assert reduced(word)[0] is verdict


def test_genus2_verdicts_match_the_definition():
    for word in seeded_powers(2028, 200):
        if word.n != 6:
            continue
        twist = TwistWord(word.letters)
        verdict, _ = reference(word)
        if verdict is not None:
            assert is_trivial_genus2(twist, LetterBudget(10 ** 7)) is (
                verdict and rho(twist) == IDENTITY)


# ---------------------------------------------------------------------------
# the screen on the least power
# ---------------------------------------------------------------------------

def random_power(rng, n):
    """A pure word g u^m g^-1 on n strands: u a random word or a
    conjugated periodic base, m a multiple of the order of u's
    permutation."""
    if rng.random() < 0.5:
        u = oracles.random_letters(rng, n - 1, rng.randint(1, 6))
    else:
        base, _ = rng.choice(bases(n))
        w = oracles.random_letters(rng, n - 1, rng.randint(0, 3))
        u = [*w, *base, *oracles.inverse(w)]
    g = oracles.random_letters(rng, n - 1, rng.randint(0, 5))
    # Exponents with many divisors reach the powers of u^q whose Burau
    # image is scalar on the quotient, which only the least power stops.
    k = rng.choice((1, 2, 3, 4, 6, 12))
    return BraidWord(n, conjugated_power(n, g, u, k))


def check_least_power_screen(word):
    """Whether the screen on the least power stops a word that the
    whole-word screen passes; fails when it passes one that the
    whole-word screen stops, or when the verdict is not the reference's."""
    whole = _burau_passes(word)
    least = _screened(word)
    assert whole or least is False
    verdict, letters = reference(word)
    if verdict is not None:
        budget = LetterBudget(letters)
        assert _is_trivial_pure(word, budget) is verdict
        assert budget.used <= letters
    return whole and least is False


def test_seeded_least_power_screen_stops_what_the_whole_word_screen_stops():
    rng = random.Random(2029)
    words = [random_power(rng, n) for n in range(4, 10) for _ in range(650)]
    extra = sum(check_least_power_screen(w) for w in words if w.letters)
    assert extra >= 30


@settings(deadline=None)
@given(st.integers(4, 9), st.randoms(use_true_random=False))
def test_least_power_screen_stops_what_the_whole_word_screen_stops(n, rng):
    word = random_power(rng, n)
    if word.letters:
        check_least_power_screen(word)


@pytest.mark.parametrize("n", range(5, 10))
def test_screen_reads_no_more_letters_for_higher_powers(monkeypatch, n):
    # (s1 ... s_{n-1})^(k n) is split as u^m with u = s1 ... s_{n-1} and
    # q = n, so the screen reads u^n at every k, and each removal, a
    # power of one removal of u^n, reads the same letters at every k.
    read = []

    def recorded(word):
        read.append(len(word.letters))
        return _burau_passes(word)

    monkeypatch.setattr("brunnian.braid._burau_passes", recorded)
    per_k = []
    for k in (1, 2, 5, 40):
        read.clear()
        word = BraidWord(n, tuple(range(1, n)) * (k * n))
        assert is_trivial_sphere(word) is True
        assert brunnian_check(word).brunnian is True
        per_k.append(tuple(read))
    assert per_k[0][0] == n * (n - 1)
    assert per_k == [per_k[0]] * 4
