"""Exact arithmetic in finite-rank free groups.

Words are tuples of nonzero signed integers: ``+i`` denotes the i-th
generator (1-based), ``-i`` its inverse.  Every stored word is freely
reduced, i.e. contains no adjacent pair ``a, -a``.  Free reduction of a
raw letter sequence is done with a single stack pass, so all word
operations here are linear in their input size.

An automorphism exists only as its raw generator-image table, a sequence
of reduced words with ``images[i-1]`` the image of ``x_i``; ``_apply``
substitutes a table into a word.

The inner-automorphism detector is the triviality test behind the
mapping-class word problem: for rank at least two a free group has
trivial center, so an inner automorphism is conjugation by exactly one
element, and that element is recovered exactly or ruled out.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional, Sequence

from .budget import LetterBudget
from .errors import PreconditionError

Letters = tuple[int, ...]


# ---------------------------------------------------------------------------
# raw-tuple primitives
#
# These operate on plain tuples so the braid engine can run its hot loops
# without re-validating intermediate words; Word wraps the ones it needs.
# ---------------------------------------------------------------------------

def _reduce(letters: Iterable[int]) -> Letters:
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def _invert(letters: Sequence[int]) -> Letters:
    return tuple(-a for a in reversed(letters))


def _concat(u: Sequence[int], v: Sequence[int]) -> Letters:
    # Both inputs reduced: cancellation can only happen at the seam.
    out = list(u)
    i = 0
    n = len(v)
    while out and i < n and out[-1] == -v[i]:
        out.pop()
        i += 1
    out.extend(v[i:])
    return tuple(out)


def _cyclic_split(letters: Sequence[int]) -> tuple[Letters, Letters]:
    """Split a reduced word as p * core * p^-1 with core cyclically reduced."""
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return tuple(letters[:i]), tuple(letters[i:j + 1])


def _apply(images: Sequence[Letters], letters: Sequence[int],
           budget: LetterBudget | None = None) -> Letters:
    """Substitute ``images[i-1]`` for letter ``i`` (its inverse for ``-i``)
    and freely reduce.

    Charges the budget with the length of every substituted image, i.e.
    the pre-cancellation output size; this is the quantity that blows up
    on adversarial inputs.
    """
    out: list[int] = []
    for a in letters:
        img = images[a - 1] if a > 0 else _invert(images[-a - 1])
        if budget is not None:
            budget.charge(len(img))
        i = 0
        n = len(img)
        while out and i < n and out[-1] == -img[i]:
            out.pop()
            i += 1
        out.extend(img[i:])
    return tuple(out)


def _inner_conjugator(rank: int, images: Sequence[Letters]) -> Optional[Letters]:
    """Conjugator w with images[i-1] == w x_i w^-1 for all i, or None.

    Strategy: cyclically reduce the image of x_1; its core must be x_1
    itself, which pins the conjugator to p * x_1^k.  The exponent k is
    read off the image of x_2 by prefix matching, then the candidate is
    verified against every generator.  No unbounded search happens.
    """
    if rank < 2:
        raise PreconditionError("inner detection requires rank >= 2")
    p, core = _cyclic_split(images[0])
    if core != (1,):
        return None
    u = _concat(_concat(_invert(p), images[1]), p)
    # u must have the shape x_1^k x_2 x_1^-k, which is already reduced.
    if u == (2,):
        k = 0
    else:
        if not u or abs(u[0]) != 1:
            return None
        step = 1 if u[0] > 0 else -1
        run = 0
        while run < len(u) and u[run] == step:
            run += 1
        if u != tuple([step] * run + [2] + [-step] * run):
            return None
        k = step * run
    w = _concat(p, (1,) * k if k >= 0 else (-1,) * (-k))
    w_inv = _invert(w)
    for g in range(1, rank + 1):
        if images[g - 1] != _concat(_concat(w, (g,)), w_inv):
            return None
    return w


# ---------------------------------------------------------------------------
# the shared word core
# ---------------------------------------------------------------------------

class Word:
    """Shared core of the freely reduced word types.

    A subclass is a frozen dataclass whose last field is ``letters``; its
    other fields name the group (a strand count, or nothing) and
    ``bound`` is the largest generator index they allow.  Construction
    validates the letters and requires them freely reduced; the
    subclass's raw-letter constructor reduces them first.  Operations
    return a word of the same type and group.
    """

    letters: Letters

    def __post_init__(self):
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        self._check_range(letters)
        for prev, a in zip(letters, letters[1:]):
            if a == -prev:
                raise ValueError(f"{type(self).__name__} letters are not freely "
                                 "reduced; build the word from raw letters")

    def _check_range(self, letters: Sequence[int]) -> None:
        bound = self.bound
        for a in letters:
            if not isinstance(a, int) or not 1 <= abs(a) <= bound:
                raise PreconditionError(
                    f"letter {a} out of range 1..{bound} for {type(self).__name__}")

    @classmethod
    def _from_raw(cls, letters: Iterable[int], *group):
        empty = cls(*group)
        letters = tuple(letters)
        empty._check_range(letters)
        return empty._with(_reduce(letters))

    @classmethod
    def identity(cls, *group):
        return cls(*group)

    def _with(self, letters: Letters):
        return replace(self, letters=letters)

    def concat(self, other):
        # Same group: the two words agree once their letters are dropped.
        if type(other) is not type(self) or self._with(()) != other._with(()):
            raise PreconditionError("words of different groups cannot be multiplied")
        return self._with(_concat(self.letters, other.letters))

    __mul__ = concat

    def invert(self):
        return self._with(_invert(self.letters))

    def power(self, k: int):
        base = self.letters if k >= 0 else _invert(self.letters)
        return self._with(_reduce(base * abs(k)))

    def __len__(self) -> int:
        return len(self.letters)


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.invert() * v.invert()
