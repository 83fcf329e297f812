import random

import pytest

from brunnian import (
    BraidWord,
    LetterBudget,
    LetterBudgetExceeded,
    TwistWord,
    brunnian_example,
    parse_surface,
    parse_word,
    render_letters,
)
from brunnian.errors import PreconditionError, WordSyntaxError
from brunnian.parsing import integer

import oracles

SPHERE6 = ("sphere", 6)
GENUS2 = ("genus2",)


class TestSurface:
    def test_sphere(self):
        assert parse_surface("sphere:6") == ("sphere", 6)

    def test_genus2(self):
        assert parse_surface("genus2") == ("genus2",)

    def test_bad_names(self):
        with pytest.raises(WordSyntaxError):
            parse_surface("torus")
        with pytest.raises(WordSyntaxError):
            parse_surface("sphere:x")
        with pytest.raises(PreconditionError):
            parse_surface("sphere:1")


class TestParse:
    def test_power(self):
        assert parse_word("s1^2", ("sphere", 3)) == BraidWord(3, (1, 1))

    def test_nested_commutator_matches_construction(self):
        word = parse_word("[d1^6,[d2^6,[d3^6,[d4^6,d5^6]]]]", GENUS2)
        assert len(word.letters) == 276
        assert word.letters == brunnian_example(6).letters

    def test_group_inverse(self):
        assert parse_word("(s1 s2)^-1", ("sphere", 4)) == BraidWord(4, (-2, -1))

    def test_adjacent_tokens(self):
        assert parse_word("s1s2", ("sphere", 4)) == parse_word("s1 s2", ("sphere", 4))

    def test_zero_power(self):
        assert parse_word("s1^0", ("sphere", 4)) == BraidWord.identity(4)

    def test_empty_text(self):
        assert parse_word("", SPHERE6) == BraidWord.identity(6)
        assert parse_word("   ", GENUS2) == TwistWord.identity()

    def test_word_level_reduction_applied(self):
        assert parse_word("s1 s1^-1 s2", ("sphere", 4)) == BraidWord(4, (2,))

    def test_commutator_of_commuting_powers(self):
        assert parse_word("[s1^2,s1^3]", ("sphere", 4)) == BraidWord.identity(4)

    def test_genus2_alphabet(self):
        assert parse_word("d5^-1 d1", GENUS2) == TwistWord((-5, 1))


class TestParseErrors:
    def test_wrong_alphabet_for_sphere(self):
        with pytest.raises(WordSyntaxError):
            parse_word("d1", SPHERE6)

    def test_wrong_alphabet_for_genus2(self):
        with pytest.raises(WordSyntaxError):
            parse_word("s1", GENUS2)

    def test_index_out_of_range(self):
        with pytest.raises(WordSyntaxError):
            parse_word("s6", SPHERE6)
        with pytest.raises(WordSyntaxError):
            parse_word("s0", SPHERE6)
        with pytest.raises(WordSyntaxError):
            parse_word("d6", GENUS2)

    def test_position_reported(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_word("s1 ?", SPHERE6)
        assert err.value.position == 3

    def test_missing_index(self):
        with pytest.raises(WordSyntaxError):
            parse_word("s", SPHERE6)

    def test_unbalanced_brackets(self):
        with pytest.raises(WordSyntaxError):
            parse_word("[s1,s2", SPHERE6)
        with pytest.raises(WordSyntaxError):
            parse_word("(s1", SPHERE6)
        with pytest.raises(WordSyntaxError):
            parse_word("s1)", SPHERE6)

    def test_stray_comma(self):
        with pytest.raises(WordSyntaxError):
            parse_word("s1,s2", SPHERE6)

    def test_missing_exponent(self):
        with pytest.raises(WordSyntaxError):
            parse_word("s1^", SPHERE6)
        with pytest.raises(WordSyntaxError):
            parse_word("s1^x", SPHERE6)

    def test_bare_integer(self):
        with pytest.raises(WordSyntaxError):
            parse_word("3", SPHERE6)

    @pytest.mark.parametrize("text, surface, message, position", [
        ("s", SPHERE6, "generator letter needs an index", 0),
        ("s1^-", SPHERE6, "expected digits after '-'", 3),
        ("s1\u200bs2", SPHERE6, "unexpected character '\\u200b'", 2),
        ("[s1,s2", SPHERE6, "expected ']', found end of input", 6),
        ("s1^s2", SPHERE6, "expected 'int', found 'gen'", 3),
        ("3", SPHERE6, "unexpected token 'int'", 0),
        ("s1)", SPHERE6, "unexpected token ')'", 2),
        ("s1,s2", SPHERE6, "unexpected token ','", 2),
        ("]", SPHERE6, "unexpected token ']'", 0),
        ("d1", ("sphere", 5), "sphere words use 's' generators", 0),
        ("s9", ("sphere", 5), "generator index 9 out of range 1..4", 0),
        ("s1 " + "s" + "1" * 5000, SPHERE6, "number of 5000 digits is too long", 3),
        ("(" * 101, SPHERE6, "nesting deeper than 100 levels", 100),
    ], ids=lambda v: v[:12] if isinstance(v, str) else None)
    def test_message_and_position(self, text, surface, message, position):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(text, surface)
        assert err.value.position == position
        assert str(err.value) == f"{message} (at position {position})"

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u001c"])
    def test_unicode_whitespace_separates_tokens(self, space):
        for text in ("s1{}s2^{}-2", "{}[s1{},{}s2]{}"):
            assert (parse_word(text.format(space, space, space, space), SPHERE6)
                    == parse_word(text.format(" ", " ", " ", " "), SPHERE6))

    @pytest.mark.parametrize("text, message", [
        ("-", "not an integer: '-'"),
        (" 1", "not an integer: ' 1'"),
        ("\u0661", "not an integer: '\u0661'"),
        ("-" + "1" * 5000, "number of 5000 digits is too long"),
    ], ids=lambda v: v[:12])
    def test_integer_message(self, text, message):
        with pytest.raises(WordSyntaxError) as err:
            integer(text)
        assert err.value.position is None
        assert str(err.value) == message

    def test_huge_power_hits_the_budget(self):
        with pytest.raises(LetterBudgetExceeded):
            parse_word("s1^100000000", SPHERE6, LetterBudget(1000))
        with pytest.raises(LetterBudgetExceeded):
            parse_word("(s1 s2 s3)^-99999999", SPHERE6, LetterBudget(1000))


class TestRender:
    def test_runs_collapse_to_powers(self):
        assert render_letters("s", (1, 1, 1, -2, -2, 3)) == "s1^3 s2^-2 s3"

    def test_single_negative(self):
        assert render_letters("d", (-1,)) == "d1^-1"

    def test_empty(self):
        assert render_letters("s", ()) == ""

    def test_parse_render_parse_roundtrip_sphere(self):
        rng = random.Random(501)
        for _ in range(200):
            n = rng.randint(3, 7)
            word = oracles.random_braid(rng, n, 30)
            again = parse_word(render_letters("s", word.letters), ("sphere", n))
            assert again == word

    def test_parse_render_parse_roundtrip_genus2(self):
        rng = random.Random(502)
        for _ in range(200):
            word = TwistWord.from_letters(
                oracles.random_letters(rng, 5, rng.randint(0, 30)))
            again = parse_word(render_letters("d", word.letters), GENUS2)
            assert again == word
