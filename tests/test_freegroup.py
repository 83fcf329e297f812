import random

import pytest
from hypothesis import given, strategies as st

from brunnian import (BraidWord, FreeAutomorphism, FreeWord, LetterBudget,
                      LetterBudgetExceeded, TwistWord)
from brunnian.errors import PreconditionError

import oracles

RANK = 4

letters_st = st.lists(
    st.integers(-RANK, RANK).filter(lambda a: a != 0), max_size=40)


def word(letters, rank=RANK):
    return FreeWord.reduce(rank, letters)


def artin_table(rank, i, positive=True):
    """Braid-style generator automorphism on a rank-r free group."""
    images = {j: [j] for j in range(1, rank + 1)}
    if positive:
        images[i] = [i, i + 1, -i]
        images[i + 1] = [i]
    else:
        images[i] = [i + 1]
        images[i + 1] = [-(i + 1), i, i + 1]
    return FreeAutomorphism(
        [FreeWord.reduce(rank, images[j]) for j in range(1, rank + 1)])


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
        assert FreeWord.reduce(RANK, once.letters) == once

    def test_index_out_of_range(self):
        with pytest.raises(PreconditionError):
            FreeWord.reduce(2, [3])
        with pytest.raises(PreconditionError):
            FreeWord(2, (0,))

    def test_unreduced_direct_construction_rejected(self):
        with pytest.raises(ValueError):
            FreeWord(2, (1, -1))


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
        with pytest.raises(PreconditionError):
            word([1], rank=2).concat(word([1], rank=3))

    @given(letters_st)
    def test_word_times_inverse(self, letters):
        w = word(letters)
        assert (w * w.invert()).letters == ()


class TestPower:
    def test_agrees_with_repeated_product(self):
        rng = random.Random(106)
        for make in (lambda ls: word(ls),
                     lambda ls: BraidWord.from_letters(RANK + 1, ls),
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
        p, core = word([1, 2, -1]).cyclic_reduce()
        assert p.letters == (1,) and core.letters == (2,)

    def test_longer_example(self):
        p, core = word([-2, -1, 3, 1, 2]).cyclic_reduce()
        assert p.letters == (-2, -1) and core.letters == (3,)

    def test_roundtrip(self):
        rng = random.Random(106)
        for _ in range(1000):
            w = word(oracles.random_letters(rng, RANK, rng.randint(0, 64)))
            p, core = w.cyclic_reduce()
            assert p * core * p.invert() == w
            if core:
                assert core.letters[0] != -core.letters[-1]

    @given(letters_st)
    def test_core_cyclically_reduced(self, letters):
        _, core = word(letters).cyclic_reduce()
        if len(core) >= 2:
            assert core.letters[0] != -core.letters[-1]


class TestApply:
    def test_identity(self):
        rng = random.Random(107)
        ident = FreeAutomorphism.identity(RANK)
        for _ in range(50):
            w = word(oracles.random_letters(rng, RANK, rng.randint(0, 30)))
            assert ident.apply(w) == w

    def test_substitution_example(self):
        phi = FreeAutomorphism([word([1, 2, -1], rank=2), word([1], rank=2)])
        assert phi.apply(word([1, 2], rank=2)) == word([1, 2], rank=2)

    def test_homomorphism(self):
        rng = random.Random(108)
        phi = artin_table(RANK, 2)
        for _ in range(300):
            u = word(oracles.random_letters(rng, RANK, rng.randint(0, 20)))
            v = word(oracles.random_letters(rng, RANK, rng.randint(0, 20)))
            assert phi.apply(u * v) == phi.apply(u) * phi.apply(v)

    def test_rank_mismatch(self):
        phi = FreeAutomorphism.identity(2)
        with pytest.raises(PreconditionError):
            phi.apply(word([1], rank=3))

    def test_budget_abort(self):
        # Iterating x -> xy, y -> x doubles lengths like Fibonacci.
        phi = artin_table(2, 1)
        power = phi
        with pytest.raises(LetterBudgetExceeded):
            budget = LetterBudget(10_000)
            for _ in range(64):
                power = power.compose(phi, budget)


class TestCompose:
    def test_generator_inverses(self):
        for i in (1, 2, 3):
            phi = artin_table(RANK, i, positive=True)
            inv = artin_table(RANK, i, positive=False)
            assert phi.compose(inv).is_identity()
            assert inv.compose(phi).is_identity()

    def test_identity_neutral(self):
        phi = artin_table(RANK, 2)
        ident = FreeAutomorphism.identity(RANK)
        assert phi.compose(ident) == phi
        assert ident.compose(phi) == phi

    def test_associativity(self):
        rng = random.Random(109)
        tables = [artin_table(RANK, i, positive=s)
                  for i in (1, 2, 3) for s in (True, False)]
        for _ in range(60):
            a, b, c = (rng.choice(tables) for _ in range(3))
            assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_verified_inverse_table(self):
        phi = FreeAutomorphism(
            [word([1, 2, -1], rank=2), word([1], rank=2)],
            inverse_images=[word([2], rank=2), word([-2, 1, 2], rank=2)])
        assert phi.verified_invertible
        assert phi.compose(phi.inverse).is_identity()

    def test_bad_inverse_table_rejected(self):
        with pytest.raises(PreconditionError):
            FreeAutomorphism(
                [word([1, 2, -1], rank=2), word([1], rank=2)],
                inverse_images=[word([1], rank=2), word([2], rank=2)])


class TestInnerConjugator:
    def test_example_conjugation_by_x2(self):
        phi = FreeAutomorphism([word([2, 1, -2], rank=2), word([2], rank=2)])
        assert phi.inner_conjugator() == word([2], rank=2)

    def test_example_not_inner(self):
        phi = FreeAutomorphism([word([1, 2, -1], rank=2), word([1], rank=2)])
        assert phi.inner_conjugator() is None

    def test_identity_has_empty_conjugator(self):
        ident = FreeAutomorphism.identity(RANK)
        assert ident.inner_conjugator() == FreeWord.identity(RANK)

    def test_recovers_constructed_conjugators(self):
        rng = random.Random(110)
        for _ in range(500):
            rank = rng.randint(2, 5)
            w = FreeWord.reduce(
                rank, oracles.random_letters(rng, rank, rng.randint(0, 24)))
            recovered = FreeAutomorphism.conjugation(w).inner_conjugator()
            assert recovered == w

    def test_soundness_of_returned_conjugators(self):
        # Whenever a conjugator comes back it must reproduce every image.
        rng = random.Random(111)
        for _ in range(200):
            rank = rng.randint(2, 4)
            w = FreeWord.reduce(
                rank, oracles.random_letters(rng, rank, rng.randint(0, 16)))
            phi = FreeAutomorphism.conjugation(w)
            found = phi.inner_conjugator()
            assert found is not None
            for i in range(1, rank + 1):
                x = FreeWord.generator(rank, i)
                assert found * x * found.invert() == phi.apply(x)

    def test_swap_automorphism_not_inner(self):
        swap = FreeAutomorphism([word([2], rank=2), word([1], rank=2)])
        assert swap.inner_conjugator() is None

    def test_power_offsets_not_inner(self):
        # x1 -> x1, x2 -> x1 x2: fixes x1 but is not a conjugation.
        phi = FreeAutomorphism([word([1], rank=2), word([1, 2], rank=2)])
        assert phi.inner_conjugator() is None

    def test_conjugator_with_generator_tail(self):
        # w ends in a power of x1, exercising the exponent solve.
        w = word([2, 1, 1, 1], rank=2)
        assert FreeAutomorphism.conjugation(w).inner_conjugator() == w
        w = word([-2, -1, -1], rank=3)
        assert FreeAutomorphism.conjugation(w).inner_conjugator() == w

    def test_rank_one_rejected(self):
        phi = FreeAutomorphism([FreeWord(1, (1,))])
        with pytest.raises(PreconditionError):
            phi.inner_conjugator()
