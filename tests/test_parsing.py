import random
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

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
from brunnian.budget import DEFAULT_LETTER_CAP
from brunnian.certificate import render_word
from brunnian.errors import PreconditionError, WordSyntaxError
from brunnian.freegroup import commutator
from brunnian.parsing import integer, surface_label

import oracles

SPHERE6 = BraidWord(6)
GENUS2 = TwistWord()


class TestSurface:
    def test_sphere(self):
        assert parse_surface("sphere:6") == BraidWord(6)

    def test_genus2(self):
        assert parse_surface("genus2") == TwistWord()

    def test_word_names_its_surface(self):
        assert BraidWord(7).surface == ("sphere", 7)
        assert BraidWord(7, (6, -1)).surface == ("sphere", 7)
        assert TwistWord().surface == ("genus2",)
        assert (BraidWord(7).prefix, TwistWord((5,)).prefix) == ("s", "d")

    def test_label_reads_back(self):
        rng = random.Random(22)
        labels = ["genus2", "sphere:2", "sphere:1000"] + [
            f"sphere:{rng.randint(2, 1000)}" for _ in range(50)]
        for label in labels:
            group = parse_surface(label)
            assert surface_label(group) == label
            assert surface_label(parse_word("", group)) == label

    @pytest.mark.parametrize("label, message", [
        ("sphere:1", "a braid needs at least two strands"),
        ("sphere:-3", "a braid needs at least two strands"),
        ("sphere:1001", "a braid has at most 1000 strands"),
    ])
    def test_strand_count_refused_by_the_braid(self, label, message):
        with pytest.raises(PreconditionError) as err:
            parse_surface(label)
        assert str(err.value) == message

    def test_bad_names(self):
        with pytest.raises(WordSyntaxError):
            parse_surface("torus")
        with pytest.raises(WordSyntaxError):
            parse_surface("sphere:x")
        with pytest.raises(PreconditionError):
            parse_surface("sphere:1")


class TestParse:
    def test_power(self):
        assert parse_word("s1^2", BraidWord(3)) == BraidWord(3, (1, 1))

    def test_nested_commutator_matches_construction(self):
        word = parse_word("[d1^6,[d2^6,[d3^6,[d4^6,d5^6]]]]", GENUS2)
        assert len(word.letters) == 276
        assert word.letters == brunnian_example(6).letters

    def test_group_inverse(self):
        assert parse_word("(s1 s2)^-1", BraidWord(4)) == BraidWord(4, (-2, -1))

    def test_adjacent_tokens(self):
        assert parse_word("s1s2", BraidWord(4)) == parse_word("s1 s2", BraidWord(4))

    def test_zero_power(self):
        assert parse_word("s1^0", BraidWord(4)) == BraidWord(4)

    def test_empty_text(self):
        assert parse_word("", SPHERE6) == BraidWord(6)
        assert parse_word("   ", GENUS2) == TwistWord()

    def test_word_level_reduction_applied(self):
        assert parse_word("s1 s1^-1 s2", BraidWord(4)) == BraidWord(4, (2,))

    def test_commutator_of_commuting_powers(self):
        assert parse_word("[s1^2,s1^3]", BraidWord(4)) == BraidWord(4)

    def test_genus2_alphabet(self):
        assert parse_word("d5^-1 d1", GENUS2) == TwistWord((-5, 1))

    def test_word_of_the_groups_type(self):
        # Only the group of the given word is read, never its letters.
        assert parse_word("s1", BraidWord(5, (4, 4))) == BraidWord(5, (1,))
        assert parse_word("d1", TwistWord((2,))) == TwistWord((1,))
        assert type(parse_word("", parse_surface("sphere:6"))) is BraidWord

    @pytest.mark.parametrize("group", [
        ("sphere", 3), ("genus2",), "sphere:3", None, 6, [1, 2]],
        ids=["sphere-tuple", "genus2-tuple", "label", "none", "int", "list"])
    def test_only_a_word_names_the_group(self, group):
        with pytest.raises(PreconditionError, match="BraidWord or TwistWord"):
            parse_word("s1", group)


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
        ("d1", BraidWord(5), "sphere words use 's' generators", 0),
        ("s9", BraidWord(5), "generator index 9 out of range 1..4", 0),
        ("s1 " + "s" + "1" * 5000, SPHERE6, "number of 5000 digits is too long", 3),
        ("(" * 101, SPHERE6, "nesting deeper than 100 levels", 100),
        ("s1", GENUS2, "genus-2 words use 'd' generators", 0),
        ("[s1,^2]", SPHERE6, "unexpected token '^'", 4),
        ("(s1]", SPHERE6, "unexpected token ']'", 3),
        ("[s1)", SPHERE6, "unexpected token ')'", 3),
        ("s1^2^3", SPHERE6, "unexpected token '^'", 4),
        ("[s1", SPHERE6, "expected ',', found end of input", 3),
        ("(s1", SPHERE6, "expected ')', found end of input", 3),
        ("[s1,s2,s3]", SPHERE6, "unexpected token ','", 6),
        ("()^", SPHERE6, "expected 'int', found end of input", 3),
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

    def test_deepest_group_parses(self):
        assert parse_word("(" * 100 + "s1" + ")" * 100, SPHERE6).letters == (1,)
        assert parse_word("(" * 100 + ")" * 100, SPHERE6) == SPHERE6

    def test_deepest_mixed_nesting_parses(self):
        # 100 levels: a commutator at every tenth, groups between them,
        # every third group inverted.
        text, word = "s3", BraidWord(6, (3,))
        for level in range(100):
            if level % 10 == 0:
                a = level // 10 % 5 + 1
                text = f"[s{a}^2,{text}]"
                word = commutator(BraidWord(6, (a, a)), word)
            elif level % 3 == 0:
                text, word = f"({text})^-1", word.invert()
            else:
                text = f"({text})"
        assert parse_word(text, SPHERE6) == word

    def test_huge_power_hits_the_budget(self):
        with pytest.raises(LetterBudgetExceeded):
            parse_word("s1^100000000", SPHERE6, LetterBudget(1000))
        with pytest.raises(LetterBudgetExceeded):
            parse_word("(s1 s2 s3)^-99999999", SPHERE6, LetterBudget(1000))


class LoggingBudget(LetterBudget):
    """A budget that records every amount charged to it, in order."""

    def __init__(self, cap):
        super().__init__(cap)
        self.charges = []

    def charge(self, amount):
        self.charges.append(amount)
        super().charge(amount)


def outcome(parse, text, group, cap):
    """The letters or the error, every charge and ``used`` of one parse;
    the reference's syntax error counts as a WordSyntaxError."""
    budget = LoggingBudget(cap)
    try:
        result = parse(text, group, budget)
    except (WordSyntaxError, oracles.ReferenceSyntaxError) as err:
        result = (WordSyntaxError if isinstance(err, oracles.ReferenceSyntaxError)
                  else type(err), str(err), err.position)
    except LetterBudgetExceeded as err:
        result = (type(err), str(err))
    return result, budget.charges, budget.used


def package_parse(text, group, budget):
    return parse_word(text, group, budget).letters


# Tokens as text, weighted towards brackets, commas and '^', with '^'
# right after ',' and '(' often; ints from zero to past the index size
# and past the interpreter's integer string limit; characters the lexer
# refuses or skips, and both alphabets in and out of range.
TOKENS = (("(",) * 3 + ("(^",) * 2 + ("[",) * 3 + (",",) * 3 + (",^",) * 2
          + ("]",) * 3 + (")",) * 3 + ("^",) * 3
          + ("0", "2", "-1", "3", "-2", "99999999999999999999",
             "-99999999999999999999", "7" * 4301)
          + ("?", "-", "s", "x", "\u0661", "\u00a0")
          + ("s1", "s2", "s5", "s0", "s6", "d1", "d3", "d5", "d6"))
EXPONENTS = ("0", "1", "2", "-1", "-3", "99999999999999999999",
             "-99999999999999999999")
SURFACES = (BraidWord(2), SPHERE6, GENUS2)
CAPS = (5, DEFAULT_LETTER_CAP)


def random_text(rng, group):
    """A text of the group's grammar, then 0 to 3 edits from TOKENS."""
    def word(depth):
        items = []
        for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
            roll = rng.random()
            if depth and roll < 0.25:
                atom = ["(", *word(depth - 1), ")"]
            elif depth and roll < 0.5:
                atom = ["[", *word(depth - 1), ",", *word(depth - 1), "]"]
            else:
                atom = [f"{group.prefix}{rng.randint(1, group.bound)}"]
            if rng.random() < 0.4:
                atom += ["^", rng.choice(EXPONENTS)]
            items += atom
        return items

    tokens = word(3)
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        at = rng.randint(0, len(tokens))
        roll = rng.random()
        if roll < 0.4:
            tokens.insert(at, rng.choice(TOKENS))
        elif roll < 0.6 and at < len(tokens):
            del tokens[at]
        elif at < len(tokens):
            tokens[at] = rng.choice(TOKENS)
    return rng.choice(("", " ")).join(tokens)


def texts(group):
    """Token lists of the group's grammar, where a group or a commutator
    half may open with a '^' out of place, then up to three edits."""
    caret = st.sampled_from(([], [], [], ["^"], ["^", "2"]))

    def extend(inner):
        return st.one_of(
            st.tuples(caret, inner).map(lambda p: ["(", *p[0], *p[1], ")"]),
            st.tuples(inner, caret, inner).map(
                lambda p: ["[", *p[0], ",", *p[1], *p[2], "]"]),
            st.lists(inner, max_size=3).map(lambda ws: [t for w in ws for t in w]),
            st.tuples(inner, st.sampled_from(EXPONENTS)).map(
                lambda p: [*p[0], "^", p[1]]))

    generator = st.integers(1, group.bound).map(lambda i: [f"{group.prefix}{i}"])
    edit = st.tuples(st.integers(0, 60), st.sampled_from("ird"),
                     st.sampled_from(TOKENS))

    @st.composite
    def edited(draw):
        tokens = draw(st.recursive(generator | st.just([]), extend, max_leaves=8))
        for at, kind, token in draw(st.lists(edit, max_size=3)):
            at %= len(tokens) + 1
            if kind == "i":
                tokens.insert(at, token)
            elif at < len(tokens):
                tokens[at:at + 1] = [token] if kind == "r" else []
        return draw(st.sampled_from(("", " "))).join(tokens)

    return edited()


class TestReferenceParser:
    """parse_word against the recursive-descent oracles.reference_parse:
    the same letters, the same charges in the same order, the same
    ``used``, or the same error type, message and position."""

    def test_seeded_texts(self):
        rng = random.Random(3030)
        for _ in range(50_000):
            group = rng.choice(SURFACES)
            text = random_text(rng, group)
            for cap in CAPS:
                assert (outcome(package_parse, text, group, cap)
                        == outcome(oracles.reference_parse, text, group, cap)), text

    @settings(max_examples=300)
    @given(st.data(), st.sampled_from(SURFACES), st.sampled_from(CAPS))
    def test_drawn_texts(self, data, group, cap):
        text = data.draw(texts(group))
        assert (outcome(package_parse, text, group, cap)
                == outcome(oracles.reference_parse, text, group, cap))


class TestRender:
    def test_runs_collapse_to_powers(self):
        assert render_letters("s", (1, 1, 1, -2, -2, 3)) == "s1^3 s2^-2 s3"

    def test_single_negative(self):
        assert render_letters("d", (-1,)) == "d1^-1"

    def test_empty(self):
        assert render_letters("s", ()) == ""

    def test_word_renders_with_its_own_prefix(self):
        assert render_word(BraidWord(5, (1, 1, -2))) == "s1^2 s2^-1"
        assert render_word(TwistWord((1, 1, -2))) == "d1^2 d2^-1"
        assert render_word(TwistWord()) == ""

    @given(st.sampled_from("sd"), st.lists(
        st.sampled_from((1, -1, 2, -2, 12, -12)), max_size=40))
    def test_matches_a_run_by_run_renderer(self, prefix, letters):
        # Letters drawn from a few values, so runs of every length and
        # runs at both ends occur; byte for byte the same text.
        parts = []
        for a, run in groupby(letters):
            exp = len(list(run)) * (1 if a > 0 else -1)
            parts.append(f"{prefix}{abs(a)}" + ("" if exp == 1 else f"^{exp}"))
        assert render_letters(prefix, letters) == " ".join(parts)
        assert render_letters(prefix, tuple(letters)) == " ".join(parts)

    def test_parse_render_parse_roundtrip_sphere(self):
        rng = random.Random(501)
        for _ in range(200):
            n = rng.randint(3, 7)
            word = oracles.random_braid(rng, n, 30)
            again = parse_word(render_letters("s", word.letters), BraidWord(n))
            assert again == word

    def test_parse_render_parse_roundtrip_genus2(self):
        rng = random.Random(502)
        for _ in range(200):
            word = TwistWord(
                oracles.random_letters(rng, 5, rng.randint(0, 30)))
            again = parse_word(render_letters("d", word.letters), GENUS2)
            assert again == word
