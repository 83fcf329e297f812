"""The free-group layer: the shared word core and the packed engine words.

Word-core behaviour (reduction, products, inverses, powers) is checked
on ``BraidWord``; the packed seam product, the cyclic split and
inner-conjugator recovery are checked against the independent
automorphisms of ``oracles``, converting with ``oracles.pack`` and
``oracles.unpack``.
"""

import random

import pytest
from hypothesis import given, strategies as st

from brunnian import (BraidWord, LetterBudget, LetterBudgetExceeded,
                      TwistWord)
from brunnian.errors import PreconditionError
from brunnian.freegroup import (_common_prefix, _conjugate, _cyclic_split,
                                _inner_conjugator, _inverse_table, _product)

import oracles

RANK = 4
STRANDS = RANK + 1  # braid words on five strands use generators 1..4

letters_st = st.lists(
    st.integers(-RANK, RANK).filter(lambda a: a != 0), max_size=40)


def word(letters, n=STRANDS):
    return BraidWord(n, letters)


def random_reduced(rng, rank, max_len):
    return oracles.naive_free_reduce(
        oracles.random_letters(rng, rank, rng.randint(0, max_len)))


def reduced_word(rng, rank, length, first_not=None, last_not=None):
    """A random reduced word built letter by letter, avoiding the given
    first and last letters."""
    while True:
        out = []
        while len(out) < length:
            a = rng.choice((1, -1)) * rng.randint(1, rank)
            if (out and a == -out[-1]) or (not out and a == first_not):
                continue
            out.append(a)
        if not out or out[-1] != last_not:
            return tuple(out)


# Ranks whose packed letters translate on the ASCII fast path (4), are
# one byte beyond it (64) and take two bytes (299).
PACKED_RANKS = (4, 64, 299)
# Shared lengths for the seams: the short scan, the gallop's doubling
# steps and the bisection that follows them.
SHARED = (1, 2, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100, 257, 1000)


def invert(rank, word):
    """The inverse of a packed word, as the engine forms it."""
    return word[::-1].translate(_inverse_table(rank))


def apply(images, letters, budget=None):
    """The image of a word under a table of tuples, multiplied out with
    the packed seam product; each image is charged to ``budget`` in turn."""
    rank = len(images)
    out = ""
    for a in letters:
        image = oracles.pack(rank, images[abs(a) - 1])
        if budget is not None:
            budget.charge(len(image))
        if a > 0:
            out = _product(out, image, invert(rank, image))
        else:
            out = _product(out, invert(rank, image), image)
    return oracles.unpack(rank, out)


def compose(phi, psi):
    """phi after psi, multiplied out with the packed seam product."""
    return tuple(apply(phi, image) for image in psi)


def cyclic_split(letters, rank=RANK):
    """The split w = p core p^-1 of _cyclic_split, unpacked."""
    w = oracles.pack(rank, letters)
    k = _cyclic_split(w, invert(rank, w))
    return oracles.unpack(rank, w[:k]), oracles.unpack(rank, w[k:len(w) - k])


def inner_conjugator(rank, images):
    """_inner_conjugator on a table of tuples, its conjugator unpacked."""
    w = _inner_conjugator(rank, [oracles.pack(rank, image) for image in images])
    return None if w is None else oracles.unpack(rank, w)


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
        for make, rank in ((word, RANK), (TwistWord, 5)):
            for _ in range(1000):
                letters = oracles.random_letters(rng, rank, rng.randint(0, 64))
                assert make(letters).letters == oracles.naive_free_reduce(letters)

    @given(letters_st)
    def test_idempotent(self, letters):
        once = word(letters)
        assert BraidWord(STRANDS, once.letters) == once

    def test_index_out_of_range(self):
        with pytest.raises(PreconditionError):
            word([3], n=3)
        with pytest.raises(PreconditionError):
            BraidWord(3, (0,))

    def test_direct_construction_reduces(self):
        assert BraidWord(3, (1, -1)).letters == ()


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
                     lambda ls: TwistWord([a % 5 + 1 for a in ls])):
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
        assert cyclic_split((1, 2, -1)) == ((1,), (2,))

    def test_longer_example(self):
        assert cyclic_split((-2, -1, 3, 1, 2)) == ((-2, -1), (3,))

    def test_roundtrip(self):
        rng = random.Random(106)
        for _ in range(1000):
            w = random_reduced(rng, RANK, 64)
            p, core = cyclic_split(w)
            assert oracles.naive_free_reduce(p + core + oracles.inverse(p)) == w
            if core:
                assert core[0] != -core[-1]

    @given(letters_st)
    def test_core_cyclically_reduced(self, letters):
        _, core = cyclic_split(oracles.naive_free_reduce(letters))
        if len(core) >= 2:
            assert core[0] != -core[-1]


class TestApply:
    def test_identity(self):
        rng = random.Random(107)
        ident = oracles.identity(RANK)
        for _ in range(50):
            w = random_reduced(rng, RANK, 30)
            assert apply(ident, w) == w

    def test_substitution_example(self):
        assert apply(((1, 2, -1), (1,)), (1, 2)) == (1, 2)

    def test_homomorphism(self):
        rng = random.Random(108)
        phi = oracles.artin_generator(RANK, 2)
        for _ in range(300):
            u = random_reduced(rng, RANK, 20)
            v = random_reduced(rng, RANK, 20)
            uv = oracles.naive_free_reduce(u + v)
            assert apply(phi, uv) == oracles.substitute(phi, uv)
            assert apply(phi, uv) == oracles.naive_free_reduce(
                apply(phi, u) + apply(phi, v))

    def test_budget_abort(self):
        # Iterating x -> xy, y -> x doubles lengths like Fibonacci.
        phi = oracles.artin_generator(2, 1)
        power = phi
        budget = LetterBudget(10_000)
        with pytest.raises(LetterBudgetExceeded):
            for _ in range(64):
                power = tuple(apply(power, image, budget) for image in phi)


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
        assert inner_conjugator(2, ((2, 1, -2), (2,))) == (2,)

    def test_example_not_inner(self):
        assert inner_conjugator(2, ((1, 2, -1), (1,))) is None

    def test_identity_has_empty_conjugator(self):
        assert inner_conjugator(RANK, oracles.identity(RANK)) == ()

    def test_recovers_constructed_conjugators(self):
        rng = random.Random(110)
        for _ in range(500):
            rank = rng.randint(2, 5)
            w = random_reduced(rng, rank, 24)
            assert inner_conjugator(rank, oracles.conjugation(rank, w)) == w

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
        found = [(rank, images, inner_conjugator(rank, images))
                 for rank, images in tables]
        assert all(w is not None for _, _, w in found[:200])
        for rank, images, w in found:
            if w is not None:
                assert oracles.conjugation(rank, w) == images

    def test_swap_automorphism_not_inner(self):
        assert inner_conjugator(2, ((2,), (1,))) is None

    @pytest.mark.parametrize("core", [(), (2,), (-1,), (1, 1), (1, 2)],
                             ids=["empty", "x2", "x1-inverse", "x1-squared",
                                  "even-length"])
    def test_image_of_x1_must_split_around_x1(self, core):
        # x1 -> p core p^-1, every other generator conjugated by p: a hit
        # only for the core x1, here missed for each other core.
        rng = random.Random(117)
        for _ in range(20):
            p = random_reduced(rng, RANK, 12)
            if p and (p[-1] in core or -p[-1] in core):
                continue
            images = list(oracles.conjugation(RANK, p))
            images[0] = oracles.naive_free_reduce(p + core + oracles.inverse(p))
            if core:
                assert cyclic_split(images[0]) == (p, core)
            assert inner_conjugator(RANK, images) is None

    def test_power_offsets_not_inner(self):
        # x1 -> x1, x2 -> x1 x2: fixes x1 but is not a conjugation.
        assert inner_conjugator(2, ((1,), (1, 2))) is None

    def test_conjugator_with_generator_tail(self):
        # w ends in a power of x1, exercising the exponent solve.
        for rank, w in ((2, (2, 1, 1, 1)), (3, (-2, -1, -1))):
            assert inner_conjugator(rank, oracles.conjugation(rank, w)) == w

    def test_rank_one_rejected(self):
        with pytest.raises(PreconditionError):
            inner_conjugator(1, ((1,),))

    def test_packed_hits_and_misses_at_every_letter_width(self):
        # Hits: conjugations by random words.  Misses: the same tables
        # with one image conjugated once more by another generator, which
        # at rank >= 3 no single conjugator reproduces.
        rng = random.Random(116)
        for rank in PACKED_RANKS:
            for _ in range(60):
                w = random_reduced(rng, rank, 24)
                images = oracles.conjugation(rank, w)
                assert inner_conjugator(rank, images) == w
                g, h = rng.sample(range(1, rank + 1), 2)
                moved = list(images)
                moved[g - 1] = oracles.naive_free_reduce(
                    w + (h, g, -h) + oracles.inverse(w))
                assert inner_conjugator(rank, moved) is None


class TestSeams:
    def test_common_prefix_and_suffix(self):
        rng = random.Random(112)
        for rank in PACKED_RANKS:
            for shared in SHARED:
                for tail in (0, 1, 40):
                    common = oracles.pack(rank, reduced_word(rng, rank, shared))
                    a, b = rng.sample([c for c in map(chr, range(2 * rank + 1))
                                       if c != chr(rank)], 2)
                    pad = chr(rank)  # no letter: it never matches one
                    s = common + (a + pad * tail if tail else "")
                    t = common + b * (tail + 1)
                    assert _common_prefix(s, t) == shared
                    assert _common_prefix(t, s) == shared
                    # _product reads the common suffix of u and v as the
                    # common prefix of the reversed words.
                    v = t[::-1]
                    for u in (s[::-1], pad * 3 + s[::-1]):
                        assert _common_prefix(u[::-1], v[::-1]) == shared

    def test_product_cancels_exactly_the_seam(self):
        # u = a c and v = c^-1 b with a b reduced: u v reduces to a b.
        rng = random.Random(113)
        for rank in PACKED_RANKS:
            for shared in (0,) + SHARED:
                c = reduced_word(rng, rank, shared)
                a = reduced_word(rng, rank, rng.randint(0, 20),
                                 last_not=-c[0] if c else None)
                while True:
                    b = reduced_word(rng, rank, rng.randint(0, 20),
                                     first_not=c[0] if c else None)
                    if not (a and b and a[-1] == -b[0]):
                        break
                u = oracles.pack(rank, a + c)
                v = oracles.pack(rank, oracles.inverse(c) + b)
                assert _product(u, v, invert(rank, v)) == oracles.pack(rank, a + b)

    def test_conjugate_agrees_with_free_reduction(self):
        rng = random.Random(114)
        for rank in PACKED_RANKS:
            for _ in range(300):
                a = random_reduced(rng, rank, 12)
                x = random_reduced(rng, rank, 12)
                if rng.random() < 0.5:  # make x absorb part or all of a
                    x = oracles.naive_free_reduce(
                        oracles.inverse(a)[:rng.randint(0, len(a))] + x)
                pa = oracles.pack(rank, a)
                got = _conjugate(pa, invert(rank, pa), oracles.pack(rank, x))
                assert oracles.unpack(rank, got) == oracles.naive_free_reduce(
                    a + x + oracles.inverse(a))

    def test_inverse_is_reversal_and_translate(self):
        rng = random.Random(115)
        for rank in PACKED_RANKS:
            w = random_reduced(rng, rank, 64)
            assert invert(rank, oracles.pack(rank, w)) == oracles.pack(
                rank, oracles.inverse(w))
