import random

import pytest
import sympy

from brunnian import (
    BraidWord,
    ModularMatrix,
    SymplecticMatrix,
    TwistWord,
    casson_bleiler,
    charpoly,
    rho,
    rho_mod,
)
from brunnian.errors import PreconditionError
from brunnian.homology import (
    CHAIN_CLASSES,
    SCREEN_MODULUS,
    TWIST_SIGN,
)

import oracles

INVOLUTION = TwistWord((1, 2, 3, 4, 5, 5, 4, 3, 2, 1))
IDENTITY_ROWS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
NEG_IDENTITY_ROWS = tuple(tuple(-x for x in row) for row in IDENTITY_ROWS)


def nested_commutator():
    """[d1^6, [d2^6, [d3^6, [d4^6, d5^6]]]] expanded."""
    word = TwistWord((5,) * 6)
    for i in (4, 3, 2, 1):
        block = TwistWord((i,) * 6)
        word = block * word * block.invert() * word.invert()
    return word


# Frozen from an independent matrix-product run (sympy re-derives it below).
NESTED_COMMUTATOR_RHO = (
    (2742744063745, -457133808384, -76187335104, -444426121440),
    (-470184984576, 78365843713, 13060694016, 76187381760),
    (-76187381760, 12698169120, 2116316161, 12345177600),
    (13060694016, -2176828992, -362797056, -2116316159),
)
NESTED_COMMUTATOR_CHARPOLY = (1, -2821109907460, 5642219814918, -2821109907460, 1)


def random_twist(rng, max_len):
    return TwistWord(
        oracles.random_letters(rng, 5, rng.randint(0, max_len)))


def twist(letter):
    """The oracle's matrix of one letter: the transvection along its class."""
    sign = TWIST_SIGN if letter > 0 else -TWIST_SIGN
    return oracles.transvection(CHAIN_CLASSES[abs(letter) - 1], sign)


def image(matrix, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in matrix.rows)


class TestChainClasses:
    def test_adjacent_intersections(self):
        for i in range(4):
            assert oracles.pairing(CHAIN_CLASSES[i], CHAIN_CLASSES[i + 1]) in (1, -1)

    def test_distant_intersections_vanish(self):
        for i in range(5):
            for j in range(5):
                if abs(i - j) >= 2:
                    assert oracles.pairing(CHAIN_CLASSES[i], CHAIN_CLASSES[j]) == 0

    def test_form_is_antisymmetric(self):
        rng = random.Random(201)
        for _ in range(50):
            x = [rng.randint(-3, 3) for _ in range(4)]
            y = [rng.randint(-3, 3) for _ in range(4)]
            assert oracles.pairing(x, y) == -oracles.pairing(y, x)


class TestTransvection:
    """rho of a one-letter word is the twist along that letter's class."""

    def test_fixes_its_own_class(self):
        for i, c in enumerate(CHAIN_CLASSES, 1):
            for letter in (i, -i):
                assert image(rho(TwistWord((letter,))), c) == c

    def test_b1_image_under_a1_twist(self):
        # <b1, a1> = -1 with this form, so b1 maps to b1 - a1.
        assert image(rho(TwistWord((1,))), (0, 1, 0, 0)) == (-1, 1, 0, 0)

    def test_symplectic(self):
        for letter in (1, 2, 3, 4, 5, -1, -2, -3, -4, -5):
            m = rho(TwistWord((letter,)))
            assert m.is_symplectic()
            transpose = tuple(zip(*m.rows))
            assert oracles.mat_mul(oracles.mat_mul(transpose, oracles.J),
                                   m.rows) == oracles.J

    def test_nilpotency_and_sixth_power(self):
        for i in range(1, 6):
            t = rho(TwistWord((i,))).rows
            n = tuple(tuple(t[r][c] - IDENTITY_ROWS[r][c] for c in range(4))
                      for r in range(4))
            assert oracles.mat_mul(n, n) == ((0,) * 4,) * 4
            assert rho(TwistWord((i,) * 6)).rows == tuple(
                tuple(IDENTITY_ROWS[r][c] + 6 * n[r][c] for c in range(4))
                for r in range(4))

    @pytest.mark.parametrize("letter", [1, -1, 2, -2, 3, -3, 4, -4, 5, -5])
    def test_each_letter_is_the_oracle_transvection(self, letter):
        assert rho(TwistWord((letter,))).rows == twist(letter)


class TestIntegerEntries:
    def test_symplectic_matrix_refuses_non_integers(self):
        # Truncated, a 1.5 on the diagonal would read as the identity.
        rows = ((1.5, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(PreconditionError):
            SymplecticMatrix(rows)

    def test_char_polynomial_refuses_non_integers(self):
        # Truncated, (1, 0.7, 0, 0, 1) would be x^4 + 1, and the
        # palindromic (1, 0.5, 0, 0.5, 1) would be x^4 + 1 too.
        for coeffs in ((1, 0.7, 0, 0, 1), (1, 0.5, 0, 0.5, 1)):
            with pytest.raises(PreconditionError):
                casson_bleiler(coeffs)

    def test_modular_matrix_refuses_non_integers(self):
        # Unchecked, a 1.0 on the diagonal compared equal to the identity.
        rows = ((1.0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(PreconditionError):
            ModularMatrix(3, rows)
        with pytest.raises(PreconditionError):
            ModularMatrix(3.0, IDENTITY_ROWS)


class TestModularMatrix:
    def test_rows_are_reduced(self):
        m = ModularMatrix(3, ((4, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -5)))
        assert m.rows == IDENTITY_ROWS
        assert m.is_identity
        assert ModularMatrix(3, NEG_IDENTITY_ROWS).rows == tuple(
            tuple(2 * x for x in row) for row in IDENTITY_ROWS)
        assert ModularMatrix(7, NEG_IDENTITY_ROWS).rows[0] == (6, 0, 0, 0)

    @pytest.mark.parametrize("p, rows", [
        (0, ((1, 0),)),
        (0, IDENTITY_ROWS),
        (1, IDENTITY_ROWS),
        (-3, IDENTITY_ROWS),
        (3, ((1, 0),)),
        (3, IDENTITY_ROWS[:3]),
        (3, IDENTITY_ROWS[:3] + ((0, 0, 1),)),
        (2 ** 63, IDENTITY_ROWS),
    ])
    def test_refuses_small_moduli_and_other_shapes(self, p, rows):
        with pytest.raises(PreconditionError):
            ModularMatrix(p, rows)


def max_entry_bits(matrix):
    return max(abs(x) for row in matrix.rows for x in row).bit_length()


class TestRho:
    def test_empty_word(self):
        assert rho(TwistWord()).is_identity

    # (d1 d2^-1)^k has entries of about 1.39 k bits: 13,885 at k = 10000,
    # 14,579 at k = 10500.
    def test_entries_up_to_the_bound_are_computed(self):
        assert max_entry_bits(rho(TwistWord((1, -2) * 10000))) == 13_885

    def test_an_entry_above_the_bound_refuses_the_word(self):
        # (d4 d5^-1)^k grows only the rows of a2 and b2.
        for pair in ((1, -2), (4, -5)):
            with pytest.raises(PreconditionError):
                rho(TwistWord(pair * 10500))
        # 13,996 bits after 20,160 letters, the last 64-letter check;
        # 14,017 at the end of the 20,190 letters.
        with pytest.raises(PreconditionError):
            rho(TwistWord((1, -2) * 10095))

    def test_an_intermediate_entry_above_the_bound_refuses_the_word(self):
        # d4 commutes with d1 and d2, so the word is d4 itself, but its
        # first half has entries of about 14,579 bits.
        power = (1, -2) * 10500
        word = TwistWord(power + (4,) + oracles.inverse(power))
        with pytest.raises(PreconditionError):
            rho(word)
        short = (1, -2) * 50
        assert rho(TwistWord(short + (4,) + oracles.inverse(short))) \
            == rho(TwistWord((4,)))

    def test_involution_acts_as_minus_identity(self):
        assert rho(INVOLUTION).is_neg_identity
        assert rho(INVOLUTION.power(2)).is_identity

    def test_sixth_power_of_generator_product(self):
        assert rho(TwistWord((1, 2, 3, 4, 5)).power(6)).is_identity

    def test_homomorphism(self):
        rng = random.Random(202)
        for _ in range(200):
            u = random_twist(rng, 12)
            v = random_twist(rng, 12)
            assert rho(u * v).rows == oracles.mat_mul(rho(u).rows, rho(v).rows)

    def test_matches_the_product_of_transvection_matrices(self):
        rng = random.Random(205)
        for _ in range(250):
            word = random_twist(rng, 200)
            product = IDENTITY_ROWS
            for a in word.letters:
                product = oracles.mat_mul(product, twist(a))
            assert rho(word).rows == product

    def test_braid_relations(self):
        for i in range(1, 5):
            assert rho(TwistWord((i, i + 1, i))) == rho(TwistWord((i + 1, i, i + 1)))
        for i in range(1, 6):
            for j in range(1, 6):
                if abs(i - j) >= 2:
                    assert rho(TwistWord((i, j))) == rho(TwistWord((j, i)))

    def test_outputs_symplectic_with_unit_determinant(self):
        rng = random.Random(203)
        for _ in range(200):
            m = rho(random_twist(rng, 20))
            assert m.is_symplectic()
            assert oracles.leibniz_det4(m.rows) == 1

    def test_mod_reduction_compatibility(self):
        rng = random.Random(204)
        for _ in range(200):
            w = random_twist(rng, 16)
            screen = rho_mod(w, SCREEN_MODULUS)
            assert screen == rho(w).mod(SCREEN_MODULUS)
            assert rho_mod(w, 3) == rho(w).mod(3) == screen.mod(3)

    def test_any_modulus_in_range_reduces_the_exact_action(self):
        # Primality plays no part: composites, a power of two and the
        # largest modulus all agree with the exact action reduced.
        rng = random.Random(208)
        for _ in range(100):
            w = random_twist(rng, 40)
            exact = rho(w)
            for m in (4, 6, 2 ** 32, SCREEN_MODULUS, 2 ** 63 - 1):
                assert rho_mod(w, m) == exact.mod(m)

    @pytest.mark.parametrize("q", [0, -3, 2, 5, 2 ** 61, 3 * SCREEN_MODULUS])
    def test_reduction_needs_a_divisor_of_the_modulus(self, q):
        with pytest.raises(PreconditionError):
            rho_mod(INVOLUTION, SCREEN_MODULUS).mod(q)

    # mod(q) checks q as a modulus before it tests that q divides p:
    # 1 divides 6 but is no modulus.
    @pytest.mark.parametrize("q", ["3", None, 1, 2 ** 63],
                             ids=["str", "none", "one", "two-to-63"])
    def test_reduction_takes_a_modulus(self, q):
        with pytest.raises(PreconditionError, match="modulus"):
            ModularMatrix(6, IDENTITY_ROWS).mod(q)

    def test_generator_sixth_powers_die_mod_3(self):
        for i in range(1, 6):
            assert rho_mod(TwistWord((i,) * 6), 3).is_identity

    def test_involution_nontrivial_mod_3(self):
        assert not rho_mod(INVOLUTION, 3).is_identity

    def test_involution_is_minus_identity_mod_3(self):
        assert rho_mod(INVOLUTION, 3) == ModularMatrix(3, NEG_IDENTITY_ROWS)
        assert rho_mod(TwistWord(), 3) != ModularMatrix(3, NEG_IDENTITY_ROWS)

    def test_mod_reduction_is_never_refused(self):
        # Exact at 13,885 bits; beyond the bound only the reduced action
        # exists, and it is still a homomorphism.
        p = 2 ** 61 - 1
        word = TwistWord((1, -2) * 10000)
        assert rho_mod(word, p).rows == rho(word).mod(p).rows
        power = (1, -2) * 10500
        conjugated = TwistWord(power + (4,) + oracles.inverse(power))
        assert rho_mod(conjugated, p) == rho_mod(TwistWord((4,)), p)
        assert not rho_mod(TwistWord(power), p).is_identity

    def test_nested_commutator_matrix(self):
        w = nested_commutator()
        m = rho(w)
        assert m.rows == NESTED_COMMUTATOR_RHO
        assert not m.is_identity and not m.is_neg_identity
        assert rho_mod(w, 3).is_identity

    def test_nested_commutator_matrix_against_sympy(self):
        twists = {i: sympy.Matrix(twist(i)) for i in range(1, 6)}
        product = sympy.eye(4)
        for a in nested_commutator().letters:
            product = product * (twists[a] if a > 0 else twists[-a].inv())
        assert tuple(map(tuple, product.tolist())) == NESTED_COMMUTATOR_RHO

    def test_letters_validated(self):
        with pytest.raises(PreconditionError):
            rho([7])

    # A word's constructor checks its letters; rho and rho_mod check only
    # that they hold a Word on at most five generators.
    @pytest.mark.parametrize("word", [(1, 2), [1], (), BraidWord(7, (6,)),
                                      BraidWord(7)],
                             ids=["tuple", "list", "empty-tuple",
                                  "seven-strands", "seven-strands-empty"])
    def test_only_words_on_five_generators_are_read(self, word):
        with pytest.raises(PreconditionError):
            rho(word)
        with pytest.raises(PreconditionError):
            rho_mod(word, 3)

    def test_six_strand_braid_words_read_as_their_lift(self):
        rng = random.Random(209)
        for _ in range(100):
            letters = oracles.random_letters(rng, 5, rng.randint(0, 30))
            for p in (3, SCREEN_MODULUS):
                assert rho_mod(BraidWord(6, letters), p) \
                    == rho_mod(TwistWord(letters), p)
            assert rho(BraidWord(6, letters)) == rho(TwistWord(letters))
        assert rho(BraidWord(4, (1, -3))) == rho(TwistWord((1, -3)))

    def test_modulus_outside_the_range_rejected(self):
        for p in (1, 0, -3, 2 ** 63, 2 ** 89 - 1, 3.0, True, None, "3"):
            with pytest.raises(PreconditionError, match="modulus"):
                rho_mod(TwistWord((1,)), p)

    def test_modulus_checked_before_any_letter(self):
        # Both arguments are refused; the refusal names the modulus.
        for word in ((7,), BraidWord(7, (6,))):
            with pytest.raises(PreconditionError, match="modulus"):
                rho_mod(word, 2 ** 63)


class TestCharPolynomial:
    def test_identity(self):
        assert charpoly(SymplecticMatrix(IDENTITY_ROWS)) == (1, -4, 6, -4, 1)

    def test_minus_identity(self):
        m = rho(INVOLUTION)
        assert charpoly(m) == (1, 4, 6, 4, 1)

    def test_nested_commutator_coefficients(self):
        assert charpoly(rho(nested_commutator())) == NESTED_COMMUTATOR_CHARPOLY

    def test_coefficients_are_a_tuple_of_ints(self):
        q = charpoly(rho(TwistWord((1, -2, 3, -4))))
        assert type(q) is tuple and len(q) == 5
        assert all(type(c) is int for c in q)

    def test_point_values_match_leibniz_determinant(self):
        rng = random.Random(205)
        for _ in range(100):
            m = rho(random_twist(rng, 14))
            q = charpoly(m)
            for t in (-2, -1, 0, 1, 2):
                assert oracles.poly_value(q, t) \
                    == oracles.charpoly_value(m, t)

    def test_rho_charpolys_palindromic(self):
        rng = random.Random(206)
        for _ in range(200):
            q = charpoly(rho(random_twist(rng, 16)))
            assert q == q[::-1]


class TestCassonBleiler:
    def test_fully_reducible_inconclusive(self):
        assert casson_bleiler((1, -4, 6, -4, 1)) == "inconclusive"

    def test_cyclotomic_inconclusive(self):
        assert casson_bleiler((1, 0, -1, 0, 1)) == "inconclusive"
        assert casson_bleiler((1, 1, 1, 1, 1)) == "inconclusive"
        assert casson_bleiler((1, 0, 0, 0, 1)) == "inconclusive"
        assert casson_bleiler((1, -1, 1, -1, 1)) == "inconclusive"

    def test_polynomial_in_x_squared_inconclusive(self):
        # Irreducible but a polynomial in x^2.
        q = (1, 0, -3, 0, 1)
        assert casson_bleiler(q) == "inconclusive"

    def test_certified_example(self):
        assert casson_bleiler((1, -1, -1, -1, 1)) == "pa_certified"

    def test_twist_pair_word_certified(self):
        # d1 d2^-1 d3 d4^-1 has irreducible non-cyclotomic polynomial.
        q = charpoly(rho(TwistWord((1, -2, 3, -4))))
        assert q == (1, -7, 13, -7, 1)
        assert casson_bleiler(q) == "pa_certified"

    def test_nested_commutator_is_inconclusive(self):
        # (x-1)^2 divides it, so the homology criterion cannot certify it.
        q = NESTED_COMMUTATOR_CHARPOLY
        assert casson_bleiler(q) == "inconclusive"
        assert oracles.poly_value(q, 1) == 0

    def test_agrees_with_sympy_irreducibility(self):
        rng = random.Random(207)
        x = sympy.symbols("x")
        for _ in range(150):
            q = charpoly(rho(random_twist(rng, 12)))
            poly = sum(c * x ** (4 - i) for i, c in enumerate(q))
            irreducible = sympy.Poly(poly, x).is_irreducible
            verdict = casson_bleiler(q)
            if verdict == "pa_certified":
                assert irreducible
            if not irreducible:
                assert verdict == "inconclusive"

    def test_certified_excludes_roots_of_unity(self):
        rng = random.Random(208)
        seen = 0
        candidates = [(1, -1, -1, -1, 1),
                      charpoly(rho(TwistWord((1, -2, 3, -4))))]
        for _ in range(200):
            candidates.append(charpoly(rho(random_twist(rng, 10))))
        for q in candidates:
            if casson_bleiler(q) == "pa_certified":
                seen += 1
                for m in range(1, 25):
                    assert not oracles.divides_x_power_minus_one(q, m)
        assert seen >= 2

    def test_closed_form_agrees_with_sympy_on_a_grid(self):
        # Certified exactly when irreducible, not cyclotomic and not a
        # polynomial in x^k (for a reciprocal quartic: a != 0).  The extra
        # b = -(p^2 + 2) give x^4 - (p^2 + 2) x^2 + 1, which splits into
        # the non-reciprocal (x^2 + p x - 1)(x^2 - p x - 1).
        x = sympy.symbols("x")
        cyclotomic = {tuple(sympy.Poly(sympy.cyclotomic_poly(k, x)).all_coeffs())
                      for k in (5, 8, 10, 12)}
        bs = list(range(-40, 41)) + [-(p * p + 2) for p in range(7, 13)]
        for a in range(-8, 9):
            for b in bs:
                coeffs = (1, a, b, a, 1)
                irreducible = sympy.Poly(
                    x**4 + a * x**3 + b * x**2 + a * x + 1, x).is_irreducible
                expected = irreducible and a != 0 and coeffs not in cyclotomic
                verdict = casson_bleiler(coeffs)
                assert (verdict == "pa_certified") == expected, coeffs

    def test_non_monic_rejected(self):
        for coeffs in ((2, 0, 0, 0, 1), (2, 0, 0, 0, 2), (-1, 0, 0, 0, -1)):
            with pytest.raises(PreconditionError):
                casson_bleiler(coeffs)

    @pytest.mark.parametrize("coeffs", [(1, 2, 3, 4, 1), (1, 0, 0, 0, -1),
                                        (1, -1, -1, -1, 2), (1, 1, 0, 0, 1)])
    def test_non_reciprocal_rejected(self, coeffs):
        with pytest.raises(PreconditionError):
            casson_bleiler(coeffs)

    # The criterion checks its one input itself: five integers, as
    # charpoly returns them (non-integers: TestIntegerEntries).
    @pytest.mark.parametrize("coeffs", [(1, 0, 0, 1), (1, 0, 0, 0, 0, 1),
                                        (), (1,), None, "11111"],
                             ids=["four", "six", "none-given", "one", "None",
                                  "str"])
    def test_only_five_integers_accepted(self, coeffs):
        with pytest.raises(PreconditionError):
            casson_bleiler(coeffs)

    def test_list_of_coefficients_accepted(self):
        assert casson_bleiler([1, -7, 13, -7, 1]) == "pa_certified"

