"""The free-group layer: the shared word core and the raw-tuple engine.

Word-core behaviour (reduction, products, inverses, powers) is checked
on ``BraidWord``; the engine's substitution, composition and
inner-conjugator recovery are checked on raw image tables against the
independent automorphisms of ``oracles``.
"""

import random

import pytest
from hypothesis import given, strategies as st

from brunnian import (BraidWord, LetterBudget, LetterBudgetExceeded,
                      TwistWord)
from brunnian.errors import PreconditionError
from brunnian.freegroup import _apply, _cyclic_split, _inner_conjugator

import oracles

RANK = 4
STRANDS = RANK + 1  # braid words on five strands use generators 1..4

letters_st = st.lists(
    st.integers(-RANK, RANK).filter(lambda a: a != 0), max_size=40)


def word(letters, n=STRANDS):
    return BraidWord.from_letters(n, letters)


def random_reduced(rng, rank, max_len):
    return oracles.naive_free_reduce(
        oracles.random_letters(rng, rank, rng.randint(0, max_len)))


def compose(phi, psi):
    """The engine's composition, phi after psi, as the action tables build it."""
    return tuple(_apply(phi, image) for image in psi)


class TestReduce:
    def test_cancellation(self):
        assert word([1, -1]).letters == ()

    def test_single_cancellation(self):
        assert word([1, 2, -2, 1]).letters == (1, 1)

    def test_word_times_inverse_is_empty(self):
        rng = random.Random(101)
        for _ in range(1000):
            letters = oracles.random_letters(rng, RANK, rng.randint(0, 64))
            w = word(letters)
            assert (w * w.invert()).letters == ()

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(102)
        for _ in range(1000):
            letters = oracles.random_letters(rng, RANK, rng.randint(0, 64))
            assert word(letters).letters == oracles.naive_free_reduce(letters)

    @given(letters_st)
    def test_idempotent(self, letters):
        once = word(letters)
        assert BraidWord.from_letters(STRANDS, once.letters) == once

    def test_index_out_of_range(self):
        with pytest.raises(PreconditionError):
            word([3], n=3)
        with pytest.raises(PreconditionError):
            BraidWord(3, (0,))

    def test_unreduced_direct_construction_rejected(self):
        with pytest.raises(ValueError):
            BraidWord(3, (1, -1))


class TestConcat:
    def test_full_cancellation(self):
        assert (word([1]) * word([-1])).letters == ()

    def test_seam_cancellation(self):
        assert (word([1, 2]) * word([-2, 3])).letters == (1, 3)

    def test_length_bound(self):
        rng = random.Random(103)
        for _ in range(200):
            u = word(oracles.random_letters(rng, RANK, rng.randint(0, 30)))
            v = word(oracles.random_letters(rng, RANK, rng.randint(0, 30)))
            assert len(u * v) <= len(u) + len(v)

    def test_associativity(self):
        rng = random.Random(104)
        for _ in range(1000):
            u, v, w = (word(oracles.random_letters(rng, RANK, rng.randint(0, 24)))
                       for _ in range(3))
            assert (u * v) * w == u * (v * w)

    def test_rank_mismatch(self):
        # The strand count is the group: words on 3 and 4 strands do not multiply.
        with pytest.raises(PreconditionError):
            word([1], n=3).concat(word([1], n=4))

    @given(letters_st)
    def test_word_times_inverse(self, letters):
        w = word(letters)
        assert (w * w.invert()).letters == ()


class TestPower:
    def test_agrees_with_repeated_product(self):
        rng = random.Random(106)
        for make in (lambda ls: word(ls),
                     lambda ls: TwistWord.from_letters([a % 5 + 1 for a in ls])):
            for _ in range(200):
                w = make(oracles.random_letters(rng, RANK, rng.randint(0, 12)))
                k = rng.randint(-6, 6)
                naive = w * w.invert()
                for _ in range(abs(k)):
                    naive = naive * (w if k > 0 else w.invert())
                assert w.power(k) == naive

    def test_conjugate_power_is_short(self):
        w = word([1, 2, 3, -2, -1])
        assert w.power(1000).letters == (1, 2) + (3,) * 1000 + (-2, -1)

    def test_words_of_different_groups_do_not_multiply(self):
        with pytest.raises(PreconditionError):
            BraidWord(5, (1,)) * BraidWord(6, (1,))
        with pytest.raises(PreconditionError):
            TwistWord((1,)) * BraidWord(6, (1,))


class TestInvert:
    def test_example(self):
        assert word([1, 2]).invert().letters == (-2, -1)

    def test_empty(self):
        assert word([]).invert().letters == ()

    def test_double_inverse(self):
        rng = random.Random(105)
        for _ in range(1000):
            w = word(oracles.random_letters(rng, RANK, rng.randint(0, 64)))
            assert w.invert().invert() == w


class TestCyclicReduce:
    def test_example(self):
        assert _cyclic_split((1, 2, -1)) == ((1,), (2,))

    def test_longer_example(self):
        assert _cyclic_split((-2, -1, 3, 1, 2)) == ((-2, -1), (3,))

    def test_roundtrip(self):
        rng = random.Random(106)
        for _ in range(1000):
            w = random_reduced(rng, RANK, 64)
            p, core = _cyclic_split(w)
            assert oracles.naive_free_reduce(p + core + oracles.inverse(p)) == w
            if core:
                assert core[0] != -core[-1]

    @given(letters_st)
    def test_core_cyclically_reduced(self, letters):
        _, core = _cyclic_split(oracles.naive_free_reduce(letters))
        if len(core) >= 2:
            assert core[0] != -core[-1]


class TestApply:
    def test_identity(self):
        rng = random.Random(107)
        ident = oracles.identity(RANK)
        for _ in range(50):
            w = random_reduced(rng, RANK, 30)
            assert _apply(ident, w) == w

    def test_substitution_example(self):
        assert _apply(((1, 2, -1), (1,)), (1, 2)) == (1, 2)

    def test_homomorphism(self):
        rng = random.Random(108)
        phi = oracles.artin_generator(RANK, 2)
        for _ in range(300):
            u = random_reduced(rng, RANK, 20)
            v = random_reduced(rng, RANK, 20)
            uv = oracles.naive_free_reduce(u + v)
            assert _apply(phi, uv) == oracles.substitute(phi, uv)
            assert _apply(phi, uv) == oracles.naive_free_reduce(
                _apply(phi, u) + _apply(phi, v))

    def test_budget_abort(self):
        # Iterating x -> xy, y -> x doubles lengths like Fibonacci.
        phi = oracles.artin_generator(2, 1)
        power = phi
        budget = LetterBudget(10_000)
        with pytest.raises(LetterBudgetExceeded):
            for _ in range(64):
                power = tuple(_apply(power, image, budget) for image in phi)


class TestCompose:
    def test_generator_inverses(self):
        for i in (1, 2, 3):
            phi = oracles.artin_generator(RANK, i)
            inv = oracles.artin_generator(RANK, -i)
            assert compose(phi, inv) == oracles.identity(RANK)
            assert compose(inv, phi) == oracles.identity(RANK)

    def test_identity_neutral(self):
        phi = oracles.artin_generator(RANK, 2)
        ident = oracles.identity(RANK)
        assert compose(phi, ident) == phi
        assert compose(ident, phi) == phi

    def test_associativity(self):
        rng = random.Random(109)
        tables = [oracles.artin_generator(RANK, s * i)
                  for i in (1, 2, 3) for s in (1, -1)]
        for _ in range(60):
            a, b, c = (rng.choice(tables) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))
            assert compose(compose(a, b), c) == oracles.compose(
                a, oracles.compose(b, c))


class TestInnerConjugator:
    def test_example_conjugation_by_x2(self):
        assert _inner_conjugator(2, ((2, 1, -2), (2,))) == (2,)

    def test_example_not_inner(self):
        assert _inner_conjugator(2, ((1, 2, -1), (1,))) is None

    def test_identity_has_empty_conjugator(self):
        assert _inner_conjugator(RANK, oracles.identity(RANK)) == ()

    def test_recovers_constructed_conjugators(self):
        rng = random.Random(110)
        for _ in range(500):
            rank = rng.randint(2, 5)
            w = random_reduced(rng, rank, 24)
            assert _inner_conjugator(rank, oracles.conjugation(rank, w)) == w

    def test_soundness_of_returned_conjugators(self):
        # Whenever a conjugator comes back it must reproduce every image,
        # on conjugations and on the disk-braid actions of random words.
        rng = random.Random(111)
        tables = []
        for _ in range(200):
            rank = rng.randint(2, 4)
            tables.append((rank, oracles.conjugation(
                rank, random_reduced(rng, rank, 16))))
        for _ in range(100):
            rank = rng.randint(2, 4)
            letters = oracles.random_letters(rng, rank - 1, rng.randint(0, 8))
            tables.append((rank, oracles.plain_artin_action(rank, letters)))
        found = [(rank, images, _inner_conjugator(rank, images))
                 for rank, images in tables]
        assert all(w is not None for _, _, w in found[:200])
        for rank, images, w in found:
            if w is not None:
                assert oracles.conjugation(rank, w) == images

    def test_swap_automorphism_not_inner(self):
        assert _inner_conjugator(2, ((2,), (1,))) is None

    def test_power_offsets_not_inner(self):
        # x1 -> x1, x2 -> x1 x2: fixes x1 but is not a conjugation.
        assert _inner_conjugator(2, ((1,), (1, 2))) is None

    def test_conjugator_with_generator_tail(self):
        # w ends in a power of x1, exercising the exponent solve.
        for rank, w in ((2, (2, 1, 1, 1)), (3, (-2, -1, -1))):
            assert _inner_conjugator(rank, oracles.conjugation(rank, w)) == w

    def test_rank_one_rejected(self):
        with pytest.raises(PreconditionError):
            _inner_conjugator(1, ((1,),))
