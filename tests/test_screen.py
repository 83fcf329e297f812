"""The root-of-unity Burau screen in front of the sphere engine.

* Its field: p is the largest prime below 2^61 with p = 1 mod d, and t
  has order exactly d, checked against sympy for every strand count.
* Why it is sound: the full matrices of the relation word
  s1...s_{n-1}s_{n-1}...s1 and of the full twist act as scalars on
  H/<u>, so no product of their conjugates leaves span(v, u).
* That it is sound in practice and strong enough: no word the engine
  proves trivial is stopped, the nontrivial ones of a seeded sample
  are, and the flagship is decided at n = 5..9 with no engine letters.
* That on a genus-2 projection it passes every whole word whose
  homology action is I or -I, as in a seeded sample of such words; and
  that genus-2 commands still run it on the projection, whose least
  pure power can act otherwise.
"""

import contextlib
import io
import json
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from brunnian import (BraidWord, LetterBudget, TwistWord,
                      brunnian_example, genus2, homology, involution_word,
                      parse_surface, parse_word)
from brunnian.braid import (_action_table, _burau_field, _burau_passes,
                            _inner_conjugator, _is_prime, _is_trivial_pure)
from brunnian.budget import unless_aborted
from brunnian.certificate import render_word
from brunnian.cli import main

import oracles


def relation(n):
    return tuple(range(1, n)) + tuple(range(n - 1, 0, -1))


def full_twist(n):
    return tuple(range(1, n)) * n


def order(n):
    return 2 if n % 2 == 0 else n


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------

# 318665857834031151167461, about 3.18 * 10^23, is the least composite that
# passes Miller-Rabin on all twelve bases; 3825123056546413051 passes every
# base up to 23.
def test_prime_test_agrees_with_sympy():
    rng = random.Random(1601)
    numbers = list(range(-2, 5000)) + [2 ** 61 - 1, 2 ** 61 + 1,
                                       3215031751, 3825123056546413051]
    numbers += [rng.getrandbits(61) | 1 for _ in range(2000)]
    assert [_is_prime(m) for m in numbers] == [sympy.isprime(m) for m in numbers]
    assert _is_prime(318665857834031151167461)  # the documented bound is tight
    assert not sympy.isprime(318665857834031151167461)


def test_field_for_every_strand_count():
    for n in range(4, 1001):
        p, t = _burau_field(n)[:2]
        d = order(n)
        assert p < 2 ** 61 and p % d == 1 and sympy.isprime(p)
        # Every larger candidate is composite: a Fermat witness proves it.
        for q in range(p + d, 2 ** 61, d):
            assert pow(2, q - 1, q) != 1 or not sympy.isprime(q)
        assert sympy.n_order(t, p) == d
        # t comes from the least g >= 2 whose power has order d.
        g = 2
        while sympy.n_order(pow(g, (p - 1) // d, p), p) != d:
            g += 1
        assert pow(g, (p - 1) // d, p) == t
    assert _burau_field(6)[:2] == (2 ** 61 - 1, 2 ** 61 - 2)  # t = -1


def test_start_vector():
    for n in range(4, 1001):
        p, t, v, u = _burau_field(n)
        assert len(v) == len(u) == n
        assert sum(v) % p == 0 and sum(u) % p == 0  # both lie in H
        assert u == tuple(pow(t, k, p) for k in range(n))
        assert v[:2] == (1, 0)  # the (v, u) minor on coordinates 1, 2 is t


# ---------------------------------------------------------------------------
# why it is sound
# ---------------------------------------------------------------------------

def full_twist_rows(n, t, p):
    """Rows of the full twist's Burau matrix from those of C = s1...s_{n-1}:
    e_j C = e_{j-1} for j >= 2, so row j of C^n is e_1 C^(n-j+1)."""
    cycle = oracles.burau_rows(n, range(1, n), t, p)
    assert all(cycle[j] == [int(i == j - 1) for i in range(n)] for j in range(1, n))
    powers = [cycle[0]]
    for _ in range(n - 1):
        z = powers[-1]
        powers.append([(z[0] * c + s) % p for c, s in zip(cycle[0], z[1:] + [0])])
    return powers[::-1]


@pytest.mark.parametrize("n", list(range(4, 41)) + [97, 121, 289, 997, 1000])
def test_kernel_generators_act_as_scalars(n):
    p, t, _, u = _burau_field(n)
    twist = full_twist_rows(n, t, p)
    if n <= 12:
        assert twist == oracles.burau_rows(n, full_twist(n), t, p)
    for rows in (oracles.burau_rows(n, relation(n), t, p), twist):
        assert oracles.scalar_on_quotient(rows, u, p) is not None


def test_no_scalar_without_the_root_of_unity():
    # With t of order 3 on seven strands, d does not divide n, u is not in
    # H and the relation word acts on H by no scalar: the choice of d is
    # what makes the screen sound.
    p, t = _burau_field(9)[:2]
    t3 = pow(t, 3, p)
    u = [pow(t3, k, p) for k in range(7)]
    assert oracles.scalar_on_quotient(
        oracles.burau_rows(7, relation(7), t3, p), u, p) is None


@st.composite
def relator_products(draw):
    """A strand count and a product of conjugates of the relation word
    and the full twist, each to the power +-1."""
    n = draw(st.integers(4, 9))
    letters = []
    for _ in range(draw(st.integers(1, 4))):
        g = draw(st.lists(st.integers(1, n - 1).flatmap(
            lambda i: st.sampled_from([i, -i])), max_size=12))
        r = draw(st.sampled_from([relation(n), full_twist(n)]))
        r = r if draw(st.booleans()) else oracles.inverse(r)
        letters += g + list(r) + list(oracles.inverse(g))
    return BraidWord(n, letters)


@settings(deadline=None)
@given(relator_products())
def test_screen_passes_products_of_relator_conjugates(word):
    assert _burau_passes(word.n, word.letters)
    assert unless_aborted(_is_trivial_pure, word, LetterBudget(20_000)) is not False


# ---------------------------------------------------------------------------
# against the engine
# ---------------------------------------------------------------------------

def _engine(word):
    """The engine alone: its verdict, or None after 10^6 letters."""
    return unless_aborted(lambda: _inner_conjugator(
        word.n - 1, _action_table(word.n, word.letters, LetterBudget(10 ** 6)))
        is not None)


def test_agreement_with_the_engine():
    rng = random.Random(2024)
    seen = {True: 0, False: 0}
    for n in range(4, 10):
        for k in range(150):
            if k % 3 == 0:
                word = oracles.random_pure_braid(rng, n, 40)
            else:
                g = oracles.random_braid(rng, n, 8)
                r = BraidWord(n, rng.choice([relation(n), full_twist(n)]))
                word = g * r * g.invert()
                if k % 3 == 2:
                    word = word * oracles.random_pure_braid(rng, n, 10)
            engine = _engine(word)
            assert engine is not None
            seen[engine] += 1
            # Sound: every trivial word passes.  Strong on this sample:
            # every nontrivial word is stopped.
            assert _burau_passes(word.n, word.letters) is engine
    assert min(seen.values()) >= 100


# ---------------------------------------------------------------------------
# the flagship
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 10))
def test_flagship_decided_with_no_engine_letters(n):
    text = render_word(brunnian_example(n))
    charge = LetterBudget()
    parse_word(text, parse_surface(f"sphere:{n}"), charge)
    docs = {}
    for command in ("check", "brunnian", "certify"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, "--surface", f"sphere:{n}", "--word", text, "--json"])
        assert code == 0
        docs[command] = json.loads(out.getvalue())
    assert docs["check"]["trivial"] is False
    assert docs["brunnian"]["brunnian"] is True
    assert docs["certify"]["conclusion"] == {"status": "pseudo_anosov",
                                             "justification": "theorem-1.1"}
    used = [docs["check"]["letters_used"], docs["brunnian"]["letters_used"],
            docs["certify"]["resources"]["letters_used"]]
    assert used == [charge.used] * 3


def test_genus2_projection_passes_when_homology_is_plus_or_minus_identity():
    # At t = -1 on six strands the screen reads the homology of the
    # genus-2 lift, so a whole projection whose lift acts as I or -I
    # passes.  Products of conjugates of the separating twist (d1 d2)^6
    # act as I, and with the involution appended as -I.
    rng = random.Random(2024)
    p = 2 ** 61 - 1
    identity = homology.mod(homology.IDENTITY, p)
    minus_identity = homology.mod(homology.NEG_IDENTITY, p)
    separating = TwistWord((1, 2) * 6)
    actions = []
    for _ in range(60):
        w = TwistWord()
        for _ in range(rng.randint(1, 3)):
            c = TwistWord(oracles.random_letters(rng, 5, rng.randint(0, 12)))
            w = w * c * separating.power(rng.choice((1, -1))) * c.invert()
        if rng.random() < 0.5:
            w = w * involution_word()
        actions.append(homology.rho_mod(w, p))
        assert actions[-1] in (identity, minus_identity)
        assert _burau_passes(6, genus2.project(w).letters)
    assert identity in actions and minus_identity in actions


@pytest.mark.parametrize("command", ["check", "brunnian", "certify"])
@pytest.mark.parametrize("text, trivial", [
    ("(d1 d2 d3 d4 d5)^6", True),
    ("(d1 d2 d3 d4 d5 d5 d4 d3 d2 d1)^2", True),
    ("(d1 d2)^6", False),
    ("d3 (d1 d2)^-6 d3^-1 (d1 d2)^6", False),
])
def test_genus2_identity_action_screens_the_projection(
        monkeypatch, command, text, trivial):
    # Each word acts as the identity on homology with a pure projection,
    # so the sphere rule decides the projection, the six-strand screen
    # first; brunnian and certify screen the five-strand removals too.
    word = parse_word(text, parse_surface("genus2"))
    assert homology.rho(word) == homology.IDENTITY
    screened = []

    def recorded(n, letters):
        screened.append(n)
        return _burau_passes(n, letters)

    monkeypatch.setattr("brunnian.braid._burau_passes", recorded)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--surface", "genus2", "--word", text, "--json"])
    assert code == 0
    doc = json.loads(out.getvalue())
    assert doc.get("checks", doc)["trivial"] is trivial
    assert 6 in screened
