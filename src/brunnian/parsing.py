"""Word grammar: generator tokens, powers, grouping and commutators.

    word := item*
    item := atom ('^' int)?
    atom := GEN | '[' word ',' word ']' | '(' word ')'
    GEN  := ('s' | 'd') uint
    uint := [0-9]+

Tokens may be whitespace-separated or adjacent.  ``s`` generators
belong to sphere surfaces (index below the strand count), ``d``
generators to the genus-2 surface (index 1..5).  Powers take a signed
decimal exponent, a commutator [A, B] expands to A B A^-1 B^-1, and
parsing returns the fully expanded, word-level reduced word.  Power and
commutator expansion is charged against the letter budget so that a
pathological exponent aborts instead of exhausting memory.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class _Token:
    kind: str  # 'gen' | 'int' | punctuation kind
    position: int
    prefix: str = ""
    value: int = 0


_DIGITS = "0123456789"


def _uint(text: str, token: int | None, start: int, missing: str) -> tuple[int, int]:
    """The ASCII digit run at ``start`` as (value, end).

    An empty run or one too long to convert is a WordSyntaxError at the
    token's position.
    """
    end = start
    while end < len(text) and text[end] in _DIGITS:
        end += 1
    if end == start:
        raise WordSyntaxError(missing, token)
    try:
        return int(text[start:end]), end
    except ValueError:  # beyond the interpreter's integer string limit
        raise WordSyntaxError(f"number of {end - start} digits is too long",
                              token) from None


def integer(text: str) -> int:
    """'-'? then ASCII digits: the grammar's integers, for strand counts and options."""
    negative = text.startswith("-")
    value, end = _uint(text, None, int(negative), f"not an integer: {text!r}")
    if end != len(text):
        raise WordSyntaxError(f"not an integer: {text!r}")
    return -value if negative else value


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "[](),^":
            tokens.append(_Token(ch, i))
            i += 1
            continue
        if ch in "sd":
            value, end = _uint(text, i, i + 1, "generator letter needs an index")
            tokens.append(_Token("gen", i, prefix=ch, value=value))
            i = end
            continue
        if ch == "-" or ch in _DIGITS:
            sign = -1 if ch == "-" else 1
            value, end = _uint(text, i, i + (ch == "-"),
                               "expected digits after '-'")
            tokens.append(_Token("int", i, value=sign * value))
            i = end
            continue
        raise WordSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], surface: Surface,
                 budget: LetterBudget, text_length: int):
        self.tokens = tokens
        self.pos = 0
        self.surface = surface
        self.budget = budget
        self.end = text_length
        self.depth = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise WordSyntaxError(f"expected {kind!r}, found end of input", self.end)
        if tok.kind != kind:
            raise WordSyntaxError(
                f"expected {kind!r}, found {tok.kind!r}", tok.position)
        self.pos += 1
        return tok

    def parse_word(self, stop: set[str]) -> list[int]:
        letters: list[int] = []
        while True:
            tok = self.peek()
            if tok is None or tok.kind in stop:
                return letters
            letters.extend(self.parse_item())

    def parse_item(self) -> list[int]:
        atom = self.parse_atom()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.take("^")
            exponent = self.take("int").value
            self.budget.charge(len(atom) * abs(exponent))
            if exponent < 0:
                atom = list(_invert(atom))
                exponent = -exponent
            return atom * exponent if atom else atom
        return atom

    def parse_atom(self) -> list[int]:
        tok = self.peek()
        if tok is None:
            raise WordSyntaxError("unexpected end of input", self.end)
        if tok.kind == "gen":
            self.pos += 1
            return [self._letter(tok)]
        if tok.kind in ("(", "["):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise WordSyntaxError(
                    f"nesting deeper than {MAX_NESTING} levels", tok.position)
        if tok.kind == "(":
            self.take("(")
            inner = self.parse_word(stop={")"})
            self.take(")")
            self.depth -= 1
            return inner
        if tok.kind == "[":
            self.take("[")
            left = self.parse_word(stop={","})
            self.take(",")
            right = self.parse_word(stop={"]"})
            self.take("]")
            self.depth -= 1
            self.budget.charge(2 * (len(left) + len(right)))
            return (left + right
                    + list(_invert(left)) + list(_invert(right)))
        raise WordSyntaxError(f"unexpected token {tok.kind!r}", tok.position)

    def _letter(self, tok: _Token) -> int:
        if self.surface[0] == "sphere":
            if tok.prefix != "s":
                raise WordSyntaxError(
                    "sphere words use 's' generators", tok.position)
            limit = self.surface[1] - 1
        else:
            if tok.prefix != "d":
                raise WordSyntaxError(
                    "genus-2 words use 'd' generators", tok.position)
            limit = GENERATOR_COUNT
        if not 1 <= tok.value <= limit:
            raise WordSyntaxError(
                f"generator index {tok.value} out of range 1..{limit}",
                tok.position)
        return tok.value


def parse_word(text: str, surface: Surface,
               budget: LetterBudget | None = None) -> Word:
    """Parse word text for a surface into a fully expanded reduced word."""
    if budget is None:
        budget = LetterBudget()
    parser = _Parser(_tokenize(text), surface, budget, len(text))
    letters = parser.parse_word(stop=set())
    leftover = parser.peek()
    if leftover is not None:
        raise WordSyntaxError(
            f"unexpected {leftover.kind!r}", leftover.position)
    reduced = _reduce(letters)
    if surface[0] == "sphere":
        return BraidWord(surface[1], reduced)
    return TwistWord(reduced)
