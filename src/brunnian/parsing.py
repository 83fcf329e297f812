"""Word grammar: generator tokens, powers, grouping and commutators.

    word := item*
    item := atom ('^' int)?
    atom := GEN | '[' word ',' word ']' | '(' word ')'
    GEN  := ('s' | 'd') uint
    int  := '-'? uint
    uint := [0-9]+

Tokens may be separated by whitespace (the characters of str.isspace)
or adjacent; digits are ASCII only.  ``s`` generators belong to sphere
surfaces (index below the strand count), ``d`` generators to the
genus-2 surface (index 1..5).  Powers take a signed decimal exponent, a
commutator [A, B] expands to A B A^-1 B^-1, and parsing returns the
fully expanded, word-level reduced word.  Power and commutator
expansion is charged against the letter budget so that a pathological
exponent aborts instead of exhausting memory.

The whole text is tokenized before it is parsed, so a lexical error
comes first.  A WordSyntaxError is at the unexpected character, at the
start of the token at fault (a head with no digits, a number too long
to convert, a wrong or out-of-range generator, a token out of place),
at the bracket that nests too deep, or at the end of a text that ends
early.
"""

from __future__ import annotations

import re
from typing import Union

from .braid import BraidWord
from .budget import LetterBudget
from .errors import PreconditionError, WordSyntaxError
from .freegroup import _invert, _reduce
from .genus2 import GENERATOR_COUNT, TwistWord

Surface = tuple  # ("sphere", n) or ("genus2",)
Word = Union[BraidWord, TwistWord]

# Groups and commutators nest at most this deep; the parser recurses
# once per level, so the limit keeps it far from the interpreter's.
MAX_NESTING = 100

# Spheres have at most this many punctures.  The per-strand sweeps and
# the identity tables are linear in the strand count and not charged to
# the letter budget, so the count itself needs a bound.
MAX_STRANDS = 1000


def sphere_surface(n: int) -> Surface:
    """The n-punctured sphere; n outside 2..MAX_STRANDS is a PreconditionError."""
    if n < 2:
        raise PreconditionError("a sphere surface needs at least two punctures")
    if n > MAX_STRANDS:
        raise PreconditionError(
            f"a sphere surface has at most {MAX_STRANDS} punctures")
    return ("sphere", n)


def parse_surface(text: str) -> Surface:
    if text == "genus2":
        return ("genus2",)
    if text.startswith("sphere:"):
        try:
            n = integer(text[len("sphere:"):])
        except WordSyntaxError:
            raise WordSyntaxError(f"bad strand count in surface {text!r}") from None
        return sphere_surface(n)
    raise WordSyntaxError(f"unknown surface {text!r}; use sphere:N or genus2")


def surface_label(surface: Surface) -> str:
    return "genus2" if surface[0] == "genus2" else f"sphere:{surface[1]}"


# After whitespace (the characters of str.isspace), a token is one
# punctuation mark, or a head (s, d, '-' or nothing) and its ASCII digits.
# The patterns are compiled on first use (re caches them), not on import.
_TOKEN = r"\s*(?:([\[\](),^])|([sd-]?)([0-9]*))"
_INTEGER = r"-?[0-9]+"


def _number(text: str, position: int | None) -> int:
    """The value of '-'? and an ASCII digit run; a run too long to convert
    is a WordSyntaxError at ``position``."""
    try:
        return int(text)
    except ValueError:  # beyond the interpreter's integer string limit
        raise WordSyntaxError(f"number of {len(text.lstrip('-'))} digits "
                              "is too long", position) from None


def integer(text: str) -> int:
    """'-'? then ASCII digits: the grammar's integers, for strand counts and options."""
    match = re.match(_INTEGER, text)
    value = match and _number(match[0], None)  # a long run fails first
    if match is None or match.end() != len(text):
        raise WordSyntaxError(f"not an integer: {text!r}")
    return value


def _tokenize(text: str) -> list[tuple]:
    """(kind, position, value) tokens, ending with (None, len(text), None).

    A punctuation mark is its own kind; 'gen' tokens hold (head, index)
    and 'int' tokens their signed value.
    """
    match_token = re.compile(_TOKEN).match
    tokens = []
    end = 0
    while True:
        match = match_token(text, end)
        mark, head, digits = match.groups()
        start, end = match.start(2), match.end()
        if mark:
            tokens.append((mark, end - 1, None))
        elif start == end:  # no token here
            if end == len(text):
                tokens.append((None, end, None))
                return tokens
            raise WordSyntaxError(f"unexpected character {text[end]!r}", end)
        elif not digits:
            raise WordSyntaxError("expected digits after '-'" if head == "-"
                                  else "generator letter needs an index", start)
        elif head in ("s", "d"):
            tokens.append(("gen", start, (head, _number(digits, start))))
        else:
            tokens.append(("int", start, _number(head + digits, start)))


class _Parser:
    def __init__(self, tokens: list[tuple], surface: Surface,
                 budget: LetterBudget):
        self.tokens = tokens
        self.pos = 0
        self.budget = budget
        self.depth = 0
        if surface[0] == "sphere":
            self.prefix, self.limit, self.alphabet = "s", surface[1] - 1, "sphere"
        else:
            self.prefix, self.limit, self.alphabet = "d", GENERATOR_COUNT, "genus-2"

    def take(self, kind: str):
        """The value of the next token, which must be of ``kind``."""
        found, position, value = self.tokens[self.pos]
        if found != kind:
            raise WordSyntaxError(f"expected {kind!r}, found " + (
                "end of input" if found is None else repr(found)), position)
        self.pos += 1
        return value

    def parse_word(self, stop: str | None) -> list[int]:
        """Items up to the ``stop`` token or the end of input."""
        letters: list[int] = []
        while self.tokens[self.pos][0] not in (None, stop):
            letters.extend(self.parse_item())
        return letters

    def parse_item(self) -> list[int]:
        atom = self.parse_atom()
        if self.tokens[self.pos][0] != "^":
            return atom
        self.pos += 1
        exponent = self.take("int")
        self.budget.charge(len(atom) * abs(exponent))
        if exponent < 0:
            atom = list(_invert(atom))
        return atom * abs(exponent) if atom else atom

    def parse_atom(self) -> list[int]:
        kind, position, value = self.tokens[self.pos]
        if kind == "gen":
            self.pos += 1
            return [self._letter(position, *value)]
        if kind not in ("(", "["):
            raise WordSyntaxError(f"unexpected token {kind!r}", position)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise WordSyntaxError(
                f"nesting deeper than {MAX_NESTING} levels", position)
        self.pos += 1
        if kind == "(":
            letters = self.parse_word(")")
            self.take(")")
        else:
            left = self.parse_word(",")
            self.take(",")
            right = self.parse_word("]")
            self.take("]")
            self.budget.charge(2 * (len(left) + len(right)))
            letters = left + right + list(_invert(left)) + list(_invert(right))
        self.depth -= 1
        return letters

    def _letter(self, position: int, head: str, index: int) -> int:
        if head != self.prefix:
            raise WordSyntaxError(
                f"{self.alphabet} words use {self.prefix!r} generators", position)
        if not 1 <= index <= self.limit:
            raise WordSyntaxError(
                f"generator index {index} out of range 1..{self.limit}", position)
        return index


def parse_word(text: str, surface: Surface,
               budget: LetterBudget | None = None) -> Word:
    """Parse word text for a surface into a fully expanded reduced word."""
    if budget is None:
        budget = LetterBudget()
    letters = _Parser(_tokenize(text), surface, budget).parse_word(None)
    reduced = _reduce(letters)
    if surface[0] == "sphere":
        return BraidWord(surface[1], reduced)
    return TwistWord(reduced)
