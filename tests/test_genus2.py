import contextlib
import io
import json
import random

import pytest

from brunnian import (
    BraidWord,
    LetterBudget,
    TwistWord,
    brunnian_example,
    certify_pa_genus2,
    involution_word,
    is_trivial_genus2,
    is_trivial_sphere,
    membership_theorem12,
    parse_surface,
    parse_word,
    project,
    rho,
    rho_mod,
)
from brunnian.braid import _is_inner
from brunnian.certificate import render_word
from brunnian.cli import main
from brunnian.genus2 import commutator
from brunnian.errors import PreconditionError
from brunnian.homology import IDENTITY, NEG_IDENTITY, SCREEN_MODULUS

import oracles


def random_twist(rng, max_len):
    return TwistWord(
        oracles.random_letters(rng, 5, rng.randint(0, max_len)))


def nested_commutator():
    return TwistWord(brunnian_example(6).letters)


GENERATOR_PRODUCT_SIXTH = TwistWord((1, 2, 3, 4, 5)).power(6)


class TestProject:
    def test_letterwise(self):
        assert project(TwistWord((1,))) == BraidWord(6, (1,))
        assert project(TwistWord((-3, 5))) == BraidWord(6, (-3, 5))

    def test_empty(self):
        assert project(TwistWord()) == BraidWord(6)

    def test_homomorphism_exactly(self):
        rng = random.Random(401)
        for _ in range(100):
            u = random_twist(rng, 10)
            v = random_twist(rng, 10)
            assert project(u * v) == project(u) * project(v)

    def test_nested_commutator_projects_to_sphere_example(self):
        assert project(nested_commutator()) == brunnian_example(6)


class TestInvolution:
    def test_word_is_the_standard_palindrome(self):
        assert involution_word().letters == (1, 2, 3, 4, 5, 5, 4, 3, 2, 1)

    def test_projection_is_trivial_on_the_sphere(self):
        assert is_trivial_sphere(project(involution_word()))

    def test_homology_action_is_minus_identity(self):
        inv = involution_word()
        assert rho(inv) == NEG_IDENTITY
        assert rho(inv.power(2)) == IDENTITY

    def test_square_is_trivial_but_involution_is_not(self):
        inv = involution_word()
        assert is_trivial_genus2(inv) is False
        assert is_trivial_genus2(inv.power(2)) is True


class TestTriviality:
    def test_empty_word(self):
        assert is_trivial_genus2(TwistWord())

    def test_generator_product_sixth_power(self):
        assert is_trivial_genus2(GENERATOR_PRODUCT_SIXTH)

    def test_single_twist_nontrivial(self):
        assert not is_trivial_genus2(TwistWord((1,)))

    def test_centrality_of_the_involution(self):
        rng = random.Random(402)
        inv = involution_word()
        for _ in range(20):
            w = random_twist(rng, 10)
            assert is_trivial_genus2(commutator(inv, w))

    def test_kernel_elements_have_sign_homology(self):
        # Products of conjugates of the involution and of the sixth power
        # project trivially and act as +-identity on homology.
        rng = random.Random(403)
        inv = involution_word()
        for _ in range(10):
            g = random_twist(rng, 6)
            h = random_twist(rng, 6)
            word = (g * inv * g.invert()) * (h * GENERATOR_PRODUCT_SIXTH
                                             * h.invert())
            assert is_trivial_sphere(project(word))
            assert rho(word) in (IDENTITY, NEG_IDENTITY)


def identity_acting_powers(seed, count):
    """Seeded genus-2 powers u^(q r), each acting as the identity on
    homology: u a random word of 2..7 letters, q the order of its
    projection's permutation, 1 < r <= 12 the order of rho(u^q)."""
    rng = random.Random(seed)
    texts = []
    while len(texts) < count:
        u = TwistWord(oracles.random_letters(rng, 5, rng.randint(2, 7)))
        q = project(u).permutation().order()
        r = next((r for r in range(1, 13) if rho(u.power(q * r)) == IDENTITY), 1)
        if r > 1:
            texts.append(f"({render_word(u)})^{q * r}")
    return texts


def test_check_decides_projections_as_the_unscreened_rule_with_no_more_letters():
    # Past the homology test, genus 2 runs the sphere rule on the
    # projection, whose screen reads the least pure power; the rule
    # before it went from purity to the engine.  Verdicts agree, no word
    # costs more, and the screen spares the engine on some words.
    fewer = 0
    verdicts = set()
    for text in identity_acting_powers(2029, 40):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", "--surface", "genus2", "--word", text, "--json"])
        assert code == 0
        doc = json.loads(out.getvalue())
        budget = LetterBudget()
        word = parse_word(text, parse_surface("genus2"), budget)
        assert rho(word) == IDENTITY
        verdict = oracles.genus2_unscreened(
            rho_mod(word, SCREEN_MODULUS) == IDENTITY, project(word),
            lambda projection: _is_inner(projection, budget))
        assert doc["trivial"] is verdict, text
        assert doc["letters_used"] <= budget.used, text
        fewer += doc["letters_used"] < budget.used
        verdicts.add(verdict)
    assert verdicts == {True, False}
    assert fewer >= 1


class TestBrunnianGenus2:
    def test_nested_commutator_is_brunnian(self):
        report = membership_theorem12(nested_commutator())
        assert report.per_strand == (True,) * 6
        assert report.brunnian is True

    def test_involution_is_brunnian(self):
        # Its projection is trivial, so every forget map kills it; the
        # genus-2 word itself acts as -I on homology, so it is nontrivial.
        report = membership_theorem12(involution_word())
        assert report.brunnian is True
        assert report.trivial is False

    def test_single_twist_is_not_brunnian(self):
        report = membership_theorem12(TwistWord((1,)))
        assert report.brunnian is False


class TestMembership:
    def test_nested_commutator_is_a_nontrivial_member(self):
        report = membership_theorem12(nested_commutator())
        assert report.brunnian is True
        assert report.rho_mod3_identity is True
        assert report.trivial is False

    def test_involution_is_not_a_member(self):
        report = membership_theorem12(involution_word())
        assert report.brunnian is True
        assert report.rho_mod3_identity is False
        assert rho_mod(involution_word(), 3) != IDENTITY

    def test_empty_word_is_a_trivial_member(self):
        report = membership_theorem12(TwistWord())
        assert report.brunnian is True
        assert report.rho_mod3_identity is True
        assert report.trivial is True

    def test_membership_invariant_under_conjugation(self):
        rng = random.Random(404)
        word = nested_commutator()
        for _ in range(10):
            g = random_twist(rng, 8)
            report = membership_theorem12(g * word * g.invert())
            assert report.brunnian is True
            assert report.rho_mod3_identity is True
            assert report.trivial is False


class TestCertifyGenus2:
    def test_nested_commutator_certificate(self):
        cert = certify_pa_genus2(nested_commutator())
        assert cert["conclusion"]["status"] == "pseudo_anosov"
        assert cert["conclusion"]["justification"] == "theorem-1.2"
        assert cert["resources"]["aborted"] is False
        assert cert["checks"]["rho_mod3_identity"] is True
        assert cert["checks"]["brunnian"] is True
        assert cert["checks"]["trivial"] is False
        assert cert["checks"]["casson_bleiler"] == "inconclusive"

    def test_involution_certificate_undetermined(self):
        cert = certify_pa_genus2(involution_word())
        assert cert["conclusion"]["status"] == "undetermined"
        assert cert["conclusion"]["justification"] == "none"
        assert cert["checks"]["rho_mod3_identity"] is False
        assert cert["checks"]["charpoly"] == ["1", "4", "6", "4", "1"]

    def test_single_twist_undetermined(self):
        cert = certify_pa_genus2(TwistWord((1,)))
        assert cert["conclusion"]["status"] == "undetermined"
        assert cert["checks"]["brunnian"] is False
        assert cert["checks"]["casson_bleiler"] == "inconclusive"

    def test_empty_word_trivial(self):
        cert = certify_pa_genus2(TwistWord())
        assert cert["conclusion"]["status"] == "trivial"

    def test_charpoly_fallback_certifies_non_brunnian_word(self):
        cert = certify_pa_genus2(TwistWord((1, -2, 3, -4)))
        assert cert["conclusion"]["status"] == "pseudo_anosov"
        assert cert["conclusion"]["justification"] == "casson-bleiler"
        assert cert["checks"]["brunnian"] is False
        assert cert["checks"]["charpoly"] == ["1", "-7", "13", "-7", "1"]

    def test_budget_abort_recorded_in_band(self):
        word = commutator(involution_word(), TwistWord((1, 2, 3)))
        cert = certify_pa_genus2(word, LetterBudget(50))
        assert cert["resources"]["aborted"] is True
        assert cert["conclusion"]["status"] == "undetermined"
        assert cert["checks"]["trivial"] is None

    def test_theorem_12_precedence_over_charpoly(self):
        # Membership decides first; the fallback only fires when it fails.
        cert = certify_pa_genus2(nested_commutator())
        assert cert["conclusion"]["justification"] == "theorem-1.2"


class TestValidation:
    def test_twist_letters_validated(self):
        with pytest.raises(PreconditionError):
            TwistWord((6,))
        with pytest.raises(PreconditionError):
            TwistWord([0])

    def test_unreduced_letters_reduced(self):
        assert TwistWord((1, -1)) == TwistWord()
        assert TwistWord((2, 1, -1, 3)).letters == (2, 3)

    def test_cancelling_out_of_range_letters_rejected(self):
        with pytest.raises(PreconditionError):
            TwistWord((6, -6))
