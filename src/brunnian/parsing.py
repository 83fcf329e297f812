"""Word grammar: generator tokens, powers, grouping and commutators.

    word := item*
    item := atom ('^' int)?
    atom := GEN | '[' word ',' word ']' | '(' word ')'
    GEN  := ('s' | 'd') uint
    int  := '-'? uint
    uint := [0-9]+

Tokens may be separated by whitespace (the characters of str.isspace)
or adjacent; digits are ASCII only.  A surface is named by its empty
word (:func:`parse_surface`), and text is parsed into a word of its
type: the word's ``prefix`` is the generator letter (``s`` on a
sphere, ``d`` on genus 2) and its ``bound`` the largest index.  Powers
take a signed decimal exponent, a commutator [A, B] expands to
A B A^-1 B^-1, and parsing returns the fully expanded, word-level
reduced word.  Power and commutator expansion is charged against the
letter budget so that a pathological exponent aborts instead of
exhausting memory: a power len(atom)·|k| before it expands, a
commutator 2(|A| + |B|) at its ']'.

The whole text is tokenized before it is parsed, so a lexical error
comes first.  Parsing is then one loop over the tokens with a stack of
the open groups: a generator is appended to the innermost group, a
power expands the atom it follows in place, and a closing ')' or ']'
appends its group's expansion to the enclosing one.  A WordSyntaxError
is at the unexpected character, at the start of the token at fault (a
head with no digits, a number too long to convert, a wrong or
out-of-range generator, a token out of place), at the bracket that
nests too deep, or at the end of a text that ends early.
"""

from __future__ import annotations

import re

from .braid import BraidWord
from .budget import LetterBudget
from .errors import PreconditionError, WordSyntaxError
from .freegroup import Word, _invert
from .genus2 import TwistWord

# Groups and commutators nest at most this deep, a documented input
# limit: the parser's stack holds at most this many open groups.
MAX_NESTING = 100


def parse_surface(text: str) -> Word:
    """The empty word of ``sphere:N`` (``BraidWord(N)``) or ``genus2``."""
    if text == "genus2":
        return TwistWord()
    if text.startswith("sphere:"):
        try:
            n = integer(text[len("sphere:"):])
        except WordSyntaxError:
            raise WordSyntaxError(f"bad strand count in surface {text!r}") from None
        return BraidWord(n)
    raise WordSyntaxError(f"unknown surface {text!r}; use sphere:N or genus2")


def surface_label(word: Word) -> str:
    """The name parse_surface reads back: ``sphere:N`` or ``genus2``."""
    return ":".join(map(str, word.surface))


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


def parse_word(text: str, group: Word,
               budget: LetterBudget | None = None) -> Word:
    """Parse text into a fully expanded reduced word of ``group``'s type
    and group (its ``prefix`` and ``bound``; its letters are unread), for
    a ``group`` that is a word, usually parse_surface's empty one."""
    if not isinstance(group, Word):
        raise PreconditionError("the group must be a word (a BraidWord or "
                                f"TwistWord), not {type(group).__name__}")
    if budget is None:
        budget = LetterBudget()
    prefix, bound = group.prefix, group.bound
    tokens = iter(_tokenize(text))
    # The innermost open group: its expanded letters, the token that
    # closes it (None for the whole text; ',' then ']' for a commutator)
    # and, after the ',', the commutator's left half.  The enclosing
    # groups wait in ``groups``, innermost last; letters[start:] is the
    # atom that a '^' may follow, and start is None where none may.
    letters, closer, left = [], None, None
    groups: list[tuple] = []
    start = None
    for kind, position, value in tokens:
        if kind == "gen":
            head, index = value
            if head != prefix:
                alphabet = "sphere" if prefix == "s" else "genus-2"
                raise WordSyntaxError(
                    f"{alphabet} words use {prefix!r} generators", position)
            if not 1 <= index <= bound:
                raise WordSyntaxError(
                    f"generator index {index} out of range 1..{bound}", position)
            start = len(letters)
            letters.append(index)
        elif kind == "^" and start is not None:
            kind, position, exponent = next(tokens)
            if kind != "int":
                raise WordSyntaxError("expected 'int', found " + (
                    "end of input" if kind is None else repr(kind)), position)
            atom = letters[start:]
            budget.charge(len(atom) * abs(exponent))
            if atom:  # the empty atom: [] * k overflows for a huge k
                base = atom if exponent > 0 else _invert(atom)
                letters[start:] = base * abs(exponent)
            start = None
        elif kind in ("(", "["):
            if len(groups) == MAX_NESTING:
                raise WordSyntaxError(
                    f"nesting deeper than {MAX_NESTING} levels", position)
            groups.append((letters, closer, left))
            letters, closer, left = [], ")" if kind == "(" else ",", None
            start = None
        elif kind != closer:
            raise WordSyntaxError(f"expected {closer!r}, found end of input"
                                  if kind is None else
                                  f"unexpected token {kind!r}", position)
        elif kind == ",":
            left, letters, closer, start = letters, [], "]", None
        elif kind is not None:  # ')' or ']' closes the innermost group
            atom = letters
            if kind == "]":
                budget.charge(2 * (len(left) + len(atom)))
                atom = [*left, *atom, *_invert(left), *_invert(atom)]
            letters, closer, left = groups.pop()
            start = len(letters)
            letters += atom
    return group._with(letters)
