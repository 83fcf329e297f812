import functools
import itertools
import random

import pytest

from brunnian import (
    BraidWord,
    LetterBudget,
    LetterBudgetExceeded,
    brunnian_check,
    brunnian_example,
    certify_pa_sphere,
    is_trivial_sphere,
)
from brunnian.braid import (
    MAX_STRANDS,
    _action_table,
    _inner_conjugator,
    commutator,
    example_length,
)
from brunnian.errors import PreconditionError

import oracles


def braid(n, letters):
    return BraidWord(n, letters)


def relation_word(n):
    return braid(n, list(range(1, n)) + list(range(n - 1, 0, -1)))


def full_twist(n):
    return braid(n, list(range(1, n)) * n)


def screen_blind_commutator():
    """[s1^10, [s2^10, [s3^10, s4^10]]] on five strands.  At a fifth root
    of unity t each s_i^10 has Burau image the identity (s_i has
    eigenvalues 1 and -t), so the screen passes the word to the engine,
    which outgrows a small cap; its removals collapse like the example's."""
    word = braid(5, (4,) * 10)
    for i in (3, 2, 1):
        word = commutator(braid(5, (i,) * 10), word)
    return word


def action(n, letters):
    """The engine's action table of a letter sequence, unpacked to tuples."""
    return tuple(oracles.unpack(n - 1, image)
                 for image in _action_table(n, letters, LetterBudget()))


def action_of_raw_letters(n, letters):
    """Compose single-letter actions with the oracle; bypasses word-level
    reduction and the engine's own composition."""
    aut = oracles.identity(n - 1)
    for a in letters:
        aut = oracles.compose(aut, action(n, (a,)))
    return aut


def words_through_the_last_twist(seed):
    """Forty seeded reduced words per strand count n = 4..9, each with a
    letter +-(n-1), the half twist that substitutes the eliminated loop."""
    rng = random.Random(seed)
    words = []
    for n in range(4, 10):
        while len(words) < 40 * (n - 3):
            word = oracles.random_braid(rng, n, 16)
            if any(abs(a) == n - 1 for a in word.letters):
                words.append(word)
    return words


class TestBraidWord:
    def test_free_reduction(self):
        assert braid(3, [1, -1]).letters == ()
        assert braid(3, [1, 2, -2, -1]).letters == ()

    def test_reduction_preserves_the_action(self):
        rng = random.Random(301)
        for _ in range(500):
            n = rng.randint(4, 6)
            letters = oracles.random_letters(rng, n - 1, rng.randint(0, 10))
            assert (action(n, braid(n, letters).letters)
                    == action_of_raw_letters(n, letters))

    def test_generator_range_validated(self):
        with pytest.raises(PreconditionError):
            braid(3, [3])
        with pytest.raises(PreconditionError):
            BraidWord(1, ())

    def test_direct_construction_reduces(self):
        assert BraidWord(3, (1, -1)) == BraidWord(3)
        assert BraidWord(4, [1, 2, -2, -1, 3]).letters == (3,)

    def test_cancelling_out_of_range_letters_rejected(self):
        # The range check comes before reduction.
        with pytest.raises(PreconditionError):
            BraidWord(3, (5, -5))
        with pytest.raises(PreconditionError):
            BraidWord(3, ("a", "a"))

    def test_float_strand_count_rejected(self):
        with pytest.raises(PreconditionError):
            BraidWord(5.0, (1,))

    def test_str_strand_count_rejected(self):
        with pytest.raises(PreconditionError):
            BraidWord("5", ())

    def test_strand_count_above_max_rejected(self):
        assert BraidWord(MAX_STRANDS, (1, 1)).n == MAX_STRANDS
        with pytest.raises(PreconditionError):
            BraidWord(MAX_STRANDS + 1, (1, 1))


class TestPermutation:
    def test_single_generator(self):
        assert braid(2, [1]).permutation().images == (2, 1)

    def test_square_is_pure(self):
        assert braid(2, [1, 1]).permutation().is_identity()

    def test_braid_relation_words_agree(self):
        lhs = braid(3, [1, 2, 1]).permutation()
        rhs = braid(3, [2, 1, 2]).permutation()
        assert lhs == rhs

    def test_tracks_positions(self):
        # s1 s2 carries strand 1 to position 3.
        perm = braid(3, [1, 2]).permutation()
        assert perm.images == (3, 1, 2)


class TestRemoveStrand:
    def test_uninvolved_strand(self):
        assert braid(3, [1, 1]).remove_strand(3) == braid(2, [1, 1])

    def test_removing_a_crossing_strand_kills_the_crossings(self):
        assert braid(3, [1, 1]).remove_strand(1) == BraidWord(2)
        assert braid(3, [1, 1]).remove_strand(2) == BraidWord(2)

    def test_index_shift(self):
        assert braid(4, [3, 3]).remove_strand(1) == braid(3, [2, 2])

    def test_moved_strand_rejected(self):
        with pytest.raises(PreconditionError):
            braid(3, [1]).remove_strand(1)
        with pytest.raises(PreconditionError):
            braid(3, [1]).remove_strand(4)

    def test_homomorphism_in_the_quotient(self):
        # Removal of uv agrees with removal of u then v, up to triviality.
        rng = random.Random(302)
        n = 5
        checked = 0
        while checked < 15:
            u = oracles.random_braid(rng, n, 8)
            v = oracles.random_braid(rng, n, 8)
            for i in range(1, n + 1):
                if not (u.permutation().fixes(i) and v.permutation().fixes(i)):
                    continue
                lhs = (u * v).remove_strand(i)
                rhs = u.remove_strand(i) * v.remove_strand(i)
                assert is_trivial_sphere(lhs * rhs.invert())
                checked += 1


class TestSphereAction:
    def test_empty_word(self):
        assert action(4, ()) == oracles.identity(3)

    def test_first_generator_images(self):
        assert action(4, (1,)) == ((1, 2, -1), (1,), (3,))

    def test_last_generator_uses_eliminated_loop(self):
        assert action(4, (3,))[2] == (-2, -1, -3)

    def test_inverse_pairs_cancel(self):
        for n in range(3, 9):
            for i in range(1, n):
                for pair in ([i, -i], [-i, i]):
                    assert action(n, pair) == oracles.identity(n - 1)
                    assert action_of_raw_letters(n, pair) == oracles.identity(n - 1)

    def test_homomorphism(self):
        rng = random.Random(303)
        for n in range(4, 8):
            for _ in range(25):
                u = oracles.random_braid(rng, n, 8)
                v = oracles.random_braid(rng, n, 8)
                assert (action(n, (u * v).letters)
                        == oracles.compose(action(n, u.letters),
                                           action(n, v.letters)))

    def test_agrees_with_the_disk_action_on_the_sphere(self):
        # The disk action on the rank-n free group fixes x_1...x_n, so it
        # descends to the sphere through x_n = (x_1...x_{n-1})^-1.
        words = words_through_the_last_twist(304)
        assert {a for w in words for a in w.letters if abs(a) == w.n - 1} \
            >= {3, -3, 8, -8}
        for word in words:
            n = word.n
            sphere = oracles.identity(n - 1) + (
                oracles.inverse(tuple(range(1, n))),)
            disk = oracles.plain_artin_action(n, word.letters)
            assert action(n, word.letters) == tuple(
                oracles.substitute(sphere, image) for image in disk[:-1])

    # budget.used after _action_table, summed over the words of each
    # strand count; the letters charged are part of every certificate.
    LETTERS_CHARGED = {4: 2695, 5: 5032, 6: 5526, 7: 2891, 8: 3878, 9: 3810}

    def test_letters_charged(self):
        used = dict.fromkeys(range(4, 10), 0)
        for word in words_through_the_last_twist(304):
            budget = LetterBudget()
            _action_table(word.n, word.letters, budget)
            used[word.n] += budget.used
        assert used == self.LETTERS_CHARGED

    def test_braid_relations(self):
        for n in range(3, 9):
            for i in range(1, n - 1):
                assert action(n, (i, i + 1, i)) == action(n, (i + 1, i, i + 1))

    def test_far_commutation(self):
        for n in range(3, 9):
            for i in range(1, n):
                for j in range(i + 2, n):
                    assert action(n, (i, j)) == action(n, (j, i))

    def test_budget_abort(self):
        with pytest.raises(LetterBudgetExceeded):
            _action_table(5, brunnian_example(5).letters, LetterBudget(50_000))


class TestLetterCap:
    # Refused when the budget is built: an infinite cap would switch the
    # budget off, and a bool or float cap would reach the certificate.
    @pytest.mark.parametrize("cap", [0, -5, 2 ** 63, 10 ** 30, True, False,
                                     1.5, 1e7, float("inf"), "5", None])
    def test_anything_but_an_int_in_range_is_refused(self, cap):
        with pytest.raises(PreconditionError):
            LetterBudget(cap)

    @pytest.mark.parametrize("cap", [1, 2 ** 63 - 1])
    def test_the_ends_of_the_range_are_accepted(self, cap):
        budget = LetterBudget(cap)
        assert (budget.cap, budget.used, budget.exhausted) == (cap, 0, False)


    def test_an_exhausted_budget_charges_nothing_more(self):
        budget = LetterBudget(10)
        budget.charge(4)
        with pytest.raises(LetterBudgetExceeded):
            budget.charge(9)
        for amount in (0, 1, 5):
            with pytest.raises(LetterBudgetExceeded):
                budget.charge(amount)
        assert (budget.used, budget.exhausted) == (13, True)


class ChargeLog:
    """A budget without a cap that records every charge."""

    def __init__(self):
        self.amounts = []

    def charge(self, amount):
        self.amounts.append(amount)


class TestChargeDifferential:
    """_action_table against the oracle's substitution, which charges one
    image at a time: the same images, the same abort and the same
    ``used`` at every cap from 1 to the full charge."""

    @staticmethod
    @functools.cache
    def cases():
        """Four seeded words per strand count, each with a last twist and
        a full charge of at most 3000 letters."""
        rng = random.Random(306)
        cases = []
        # n = 65 puts packed letters outside ASCII (the general translate
        # path); n = 300 puts them above one byte.  Odd k keeps the
        # letters on the last three generators, so images grow there.
        for n in list(range(3, 13)) + [65, 300]:
            k = 0
            while k < 4:
                letters = oracles.random_letters(rng, n - 1, 6 + 3 * k)
                if k % 2 and n > 4:
                    letters = [a + (n - 4 if a > 0 else 4 - n)
                               for a in oracles.random_letters(rng, 3, 6 + 3 * k)]
                letters.append(rng.choice((1, -1)) * (n - 1))
                rng.shuffle(letters)
                try:
                    oracles.charged_sphere_action(n, letters, LetterBudget(3000))
                except LetterBudgetExceeded:
                    continue
                log = ChargeLog()
                table = oracles.charged_sphere_action(n, letters, log)
                cases.append((n, tuple(letters), table, tuple(log.amounts)))
                k += 1
        return cases

    def test_every_cap(self):
        for n, letters, expected, amounts in self.cases():
            full = sum(amounts)
            crossings = list(itertools.accumulate(amounts))
            for cap in range(1, full + 1):
                budget = LetterBudget(cap)
                if cap < full:
                    with pytest.raises(LetterBudgetExceeded):
                        _action_table(n, letters, budget)
                    assert budget.used == next(c for c in crossings if c > cap)
                    assert budget.exhausted
                else:
                    images = _action_table(n, letters, budget)
                    assert tuple(oracles.unpack(n - 1, w) for w in images) \
                        == expected
                    assert budget.used == full

    def test_the_oracle_aborts_at_the_same_point(self):
        rng = random.Random(307)
        for n, letters, _, amounts in self.cases():
            for cap in rng.sample(range(1, sum(amounts)), 3):
                used = []
                for run in (_action_table, oracles.charged_sphere_action):
                    budget = LetterBudget(cap)
                    with pytest.raises(LetterBudgetExceeded):
                        run(n, letters, budget)
                    used.append(budget.used)
                assert used[0] == used[1]

    def test_one_charge_per_substituted_image(self):
        # A budget with nothing but ``charge`` sees the oracle's amounts.
        for n, letters, _, amounts in self.cases():
            log = ChargeLog()
            _action_table(n, letters, log)
            assert tuple(log.amounts) == amounts


class TestIsTrivialSphere:
    def test_empty_word(self):
        assert is_trivial_sphere(BraidWord(6))

    def test_sphere_relation(self):
        for n in range(4, 8):
            assert is_trivial_sphere(relation_word(n))

    def test_full_twist(self):
        for n in range(4, 7):
            assert is_trivial_sphere(full_twist(n))

    def test_generator_square_nontrivial(self):
        assert not is_trivial_sphere(braid(4, [1, 1]))

    def test_nonpure_words_nontrivial(self):
        assert not is_trivial_sphere(braid(5, [1]))

    def test_relation_word_conjugator(self):
        # The composed action of the relation word is conjugation by x1.
        images = _action_table(6, relation_word(6).letters, LetterBudget())
        assert oracles.unpack(5, _inner_conjugator(5, images)) == (1,)
        assert action(6, relation_word(6).letters) == oracles.conjugation(5, (1,))

    def test_full_twist_acts_trivially(self):
        assert action(6, full_twist(6).letters) == oracles.identity(5)

    def test_three_punctures_unsupported(self):
        with pytest.raises(PreconditionError):
            is_trivial_sphere(BraidWord(3))

    def test_budget_abort_raises(self):
        with pytest.raises(LetterBudgetExceeded):
            is_trivial_sphere(screen_blind_commutator(), LetterBudget(50_000))

    # (s1 s2^-1)^10500 is pure (a 3-cycle to a power divisible by three)
    # and its lift has entries of about 14,579 bits, past the bound of
    # homology.rho; the screen, at t = -1 the homology of that lift on six
    # strands, reads it modulo a prime instead.
    LONG_POWER = (1, -2) * 10500

    def test_long_six_strand_words_are_decided_by_homology(self):
        budget = LetterBudget()
        assert not is_trivial_sphere(braid(6, self.LONG_POWER), budget)
        # u s4^2 u^-1 has large entries only in its middle.
        word = braid(6, self.LONG_POWER + (4, 4) + oracles.inverse(self.LONG_POWER))
        assert not is_trivial_sphere(word, budget)
        assert budget.used == 0

    def test_long_words_acting_as_minus_identity_reach_the_engine(self):
        # The conjugated relation word is trivial, so the screen passes it
        # on and the engine runs out of letters.
        word = braid(6, self.LONG_POWER + relation_word(6).letters
                     + oracles.inverse(self.LONG_POWER))
        with pytest.raises(LetterBudgetExceeded):
            is_trivial_sphere(word, LetterBudget(100_000))


class TestDiskModelOracle:
    @pytest.mark.parametrize("n", [4, 5])
    def test_agreement_on_random_pure_words(self, n):
        rng = random.Random(700 + n)
        k = n - 1
        words = [oracles.random_pure_braid(rng, n, 12, max_gen=n - 2)
                 for _ in range(50)]
        # Constructed trivial inputs so the positive branch is exercised too.
        twist = braid(n, list(range(1, k)) * k)
        words += [twist, twist * twist, BraidWord(n)]
        for _ in range(5):
            g = oracles.random_braid(rng, n, 6, max_gen=n - 2)
            words.append(g * twist * g.invert())
        trivial_seen = nontrivial_seen = 0
        for w in words:
            engine = is_trivial_sphere(w)
            assert engine == oracles.disk_model_trivial(k, w.letters)
            trivial_seen += engine
            nontrivial_seen += not engine
        assert trivial_seen >= 5 and nontrivial_seen >= 5


class TestBrunnian:
    def test_empty_word_is_brunnian(self):
        report = brunnian_check(BraidWord(6))
        assert report.brunnian is True
        assert report.trivial is True
        assert report.per_strand == (True,) * 6

    def test_nested_commutator_passes_every_strand(self):
        report = brunnian_check(brunnian_example(6))
        assert report.per_strand == (True,) * 6
        assert report.brunnian is True
        assert report.trivial is False

    def test_strand_removals_collapse_at_word_level(self):
        word = brunnian_example(6)
        for i in range(1, 7):
            assert word.remove_strand(i) == BraidWord(5)

    def test_generator_sixth_power_fails(self):
        report = brunnian_check(braid(6, [1] * 6))
        assert report.per_strand == (True, True, False, False, False, False)
        assert report.brunnian is False
        assert report.trivial is False

    def test_nonpure_word_immediately_fails(self):
        report = brunnian_check(braid(6, [1]))
        assert report.brunnian is False
        assert report.per_strand == (False, False, None, None, None, None)
        assert report.trivial is False

    def test_four_strand_pure_words_vacuously_brunnian(self):
        # Forgetting a strand lands in the trivial three-puncture group.
        rng = random.Random(304)
        for _ in range(10):
            w = oracles.random_pure_braid(rng, 4, 8)
            report = brunnian_check(w)
            assert report.per_strand == (True,) * 4
            assert report.brunnian is True

    def test_too_few_strands(self):
        with pytest.raises(PreconditionError):
            brunnian_check(BraidWord(3))

    def test_conjugation_invariance(self):
        rng = random.Random(305)
        word = brunnian_example(6)
        for _ in range(10):
            g = oracles.random_braid(rng, 6, 8)
            report = brunnian_check(g * word * g.invert())
            assert report.brunnian is True
            assert report.trivial is False

    def test_budget_abort_reports_none(self):
        word = screen_blind_commutator()
        report = brunnian_check(word, LetterBudget(100_000))
        assert report.per_strand == (True,) * 5  # removals collapse, no cost
        assert report.trivial is None
        assert report.brunnian is True


class TestBrunnianExample:
    def test_lengths_follow_the_commutator_recurrence(self):
        assert len(brunnian_example(5)) == 132
        assert len(brunnian_example(6)) == 276
        assert len(brunnian_example(7)) == 564

    def test_always_pure(self):
        for n in range(5, 9):
            assert brunnian_example(n).permutation().is_identity()

    def test_matches_explicit_nesting(self):
        expected = commutator(
            braid(6, [1] * 6),
            commutator(braid(6, [2] * 6),
                       commutator(braid(6, [3] * 6),
                                  commutator(braid(6, [4] * 6),
                                             braid(6, [5] * 6)))))
        assert brunnian_example(6) == expected

    def test_small_n_rejected(self):
        with pytest.raises(PreconditionError):
            brunnian_example(4)

    def test_closed_form_length(self):
        for n in range(5, 12):
            assert len(brunnian_example(n)) == example_length(n)


class TestCertifySphere:
    def test_nested_commutator_certificate(self):
        cert = certify_pa_sphere(brunnian_example(6))
        assert cert["conclusion"]["status"] == "pseudo_anosov"
        assert cert["conclusion"]["justification"] == "theorem-1.1"
        assert cert["resources"]["aborted"] is False
        assert cert["checks"]["brunnian"] is True
        assert cert["checks"]["trivial"] is False

    def test_empty_word_is_trivial(self):
        cert = certify_pa_sphere(BraidWord(6))
        assert cert["conclusion"]["status"] == "trivial"
        assert cert["conclusion"]["justification"] == "none"

    def test_non_brunnian_word_undetermined(self):
        cert = certify_pa_sphere(braid(6, [1] * 6))
        assert cert["conclusion"]["status"] == "undetermined"

    def test_budget_abort_stays_undetermined(self):
        # The screen passes the word and the engine cannot decide it
        # inside a small budget; the certificate must admit that instead
        # of guessing.
        cert = certify_pa_sphere(screen_blind_commutator(), LetterBudget(100_000))
        assert cert["conclusion"]["status"] == "undetermined"
        assert cert["resources"]["aborted"] is True
        assert cert["checks"]["trivial"] is None
        assert cert["checks"]["brunnian"] is True

    def test_five_strand_example_decided_at_default_budget(self):
        # The Burau screen proves the example nontrivial without the
        # engine, so no letter is charged.
        cert = certify_pa_sphere(brunnian_example(5))
        assert cert["conclusion"] == {"status": "pseudo_anosov",
                                      "justification": "theorem-1.1"}
        assert cert["resources"]["aborted"] is False
        assert cert["resources"]["letters_used"] == 0
        assert cert["checks"]["brunnian_per_strand"] == [True] * 5
        assert cert["checks"]["trivial"] is False

    def test_small_sphere_rejected(self):
        with pytest.raises(PreconditionError):
            certify_pa_sphere(BraidWord(4))

    def test_certificate_has_no_genus2_fields(self):
        cert = certify_pa_sphere(BraidWord(6))
        assert "rho_integral" not in cert["checks"]
        assert "rho_mod3_identity" not in cert["checks"]
        assert "charpoly" not in cert["checks"]
