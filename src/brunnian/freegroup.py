"""Exact arithmetic in finite-rank free groups.

Words are tuples of nonzero signed integers: ``+i`` denotes the i-th
generator (1-based), ``-i`` its inverse.  Every stored word is freely
reduced, i.e. contains no adjacent pair ``a, -a``: the ``Word``
constructor reduces the letters it is given with a single stack pass,
so all word operations here are linear in their input size.

The engine behind the mapping-class word problem keeps its words
packed: a word of rank r is a ``str`` with letter a stored as
``chr(r + a)``.  Inverses are a reversal and a ``str.translate``, and a
product is reduced at its seam by galloping slice comparisons, so
copying, inverting and cancelling never loop per letter in Python.
One scanner finds common prefixes; a common suffix is scanned as the
common prefix of the reversed words.  An automorphism exists only as
its table of packed generator images, ``images[i-1]`` being the image
of ``x_i``.

The inner-automorphism detector is the triviality test behind the
mapping-class word problem: for rank at least two a free group has
trivial center, so an inner automorphism is conjugation by exactly one
element, and that element is recovered exactly or ruled out.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional, Sequence

from .errors import PreconditionError

Letters = tuple[int, ...]


# ---------------------------------------------------------------------------
# raw-tuple primitives
#
# These operate on plain tuples without re-validating intermediate words;
# Word and the parser use them.
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


# ---------------------------------------------------------------------------
# packed words: the engine's representation
#
# The letters of rank r are the code points 0..2r without r.  CPython
# stores a packed word at one byte per letter while r <= 127, and the
# inverse ``w[::-1].translate(_inverse_table(r))`` stays on the ASCII
# fast path of ``str.translate`` while r <= 63.
# ---------------------------------------------------------------------------

_SCAN = 8  # letters compared one at a time before a seam gallops


def _pack(rank: int, letters: Iterable[int]) -> str:
    """The packed word of rank ``rank`` with the given letters."""
    return "".join(chr(rank + a) for a in letters)


def _inverse_table(rank: int) -> dict[int, int]:
    """The ``str.translate`` table taking each packed letter to its inverse."""
    return {c: 2 * rank - c for c in range(2 * rank + 1)}


def _common_prefix(s: str, t: str) -> int:
    """Length of the longest common prefix of s and t, whose first letters
    are known to agree: a short scan, then galloping slice comparisons."""
    n = min(len(s), len(t))
    scan, k = min(n, _SCAN), 1
    while k < scan:
        if s[k] != t[k]:
            return k
        k += 1
    step = k
    while k < n:
        hi = min(k + step, n)
        if s[k:hi] != t[k:hi]:
            while hi - k > 1:  # the prefix of length k agrees, of length hi not
                mid = (k + hi) // 2
                if s[k:mid] == t[k:mid]:
                    k = mid
                else:
                    hi = mid
            return k
        k, step = hi, 2 * step
    return k


def _product(u: str, v: str, v_inv: str) -> str:
    """The reduced word of u v, for reduced packed u, v and v_inv = v^-1.

    The letters cancelled at the seam are the longest common suffix of
    u and v^-1; the seam helper runs only when the last letters cancel.
    """
    k = (_common_prefix(u[::-1], v_inv[::-1])
         if u and v_inv and u[-1] == v_inv[-1] else 0)
    return u[:len(u) - k] + v[k:]


def _cyclic_split(s: str, s_inv: str) -> int:
    """Length k of the conjugator in s = v c v^-1, for reduced packed s and
    s_inv = s^-1: the longest common prefix of s and s^-1, so the core
    c = s[k:len(s) - k] is cyclically reduced (and nonempty unless s is)."""
    return _common_prefix(s, s_inv) if s and s[0] == s_inv[0] else 0


def _conjugate(a: str, a_inv: str, x: str) -> str:
    """The reduced word of a x a^-1, for reduced packed a, x and a_inv = a^-1.

    Two seams: the first cancels the common prefix of a^-1 and x (the
    common suffix of a and x^-1, read without inverting x), the second
    is the product with a^-1.
    """
    k = _common_prefix(a_inv, x) if a_inv and x and a_inv[0] == x[0] else 0
    return _product(a[:len(a) - k] + x[k:], a_inv, a)


def _inner_conjugator(rank: int, images: Sequence[str]) -> Optional[str]:
    """Packed conjugator w with images[i-1] == w x_i w^-1 for all i, or None.

    Strategy: cyclically reduce the image of x_1; its core must be x_1
    itself, which pins the conjugator to p * x_1^k.  The exponent k is
    read off the image of x_2, then the candidate is verified against
    every generator.  No unbounded search happens.
    """
    if rank < 2:
        raise PreconditionError("inner detection requires rank >= 2")
    flip = _inverse_table(rank)
    x1, x1_inv, x2 = chr(rank + 1), chr(rank - 1), chr(rank + 2)
    s = images[0]
    k = _cyclic_split(s, s[::-1].translate(flip))
    if len(s) != 2 * k + 1 or s[k] != x1:  # the core must be x_1
        return None
    p, p_inv = s[:k], s[k + 1:]
    u = _conjugate(p_inv, p, images[1])
    # u must have the shape x_1^j x_2 x_1^-j, which is already reduced.
    j = len(u) // 2
    step = u[0] if j else x1
    step_inv = x1_inv if step == x1 else x1
    if step not in (x1, x1_inv) or u != step * j + x2 + step_inv * j:
        return None
    # s is reduced, so p ends in neither x_1 nor x_1^-1 and nothing cancels.
    w = p + step * j
    w_inv = w[::-1].translate(flip)
    for g in range(1, rank + 1):
        if images[g - 1] != _conjugate(w, w_inv, chr(rank + g)):
            return None
    return w


# ---------------------------------------------------------------------------
# the shared word core
# ---------------------------------------------------------------------------

class Word:
    """Shared core of the freely reduced word types.

    A subclass is a frozen dataclass whose last field is ``letters``; its
    other fields name the group (a strand count, or nothing), ``bound``
    is the largest generator index they allow, and ``prefix`` and
    ``surface`` name the generator letter and the surface.  Only the
    constructor builds a word: it takes any iterable of letters, checks
    each against ``bound`` before reducing, so an out-of-range pair that
    would cancel is still refused, and stores the freely reduced
    letters.  Operations return a word of the same type and group.
    """

    letters: Letters

    def __post_init__(self):
        letters = tuple(self.letters)
        bound = self.bound
        for a in letters:
            if not isinstance(a, int) or not 1 <= abs(a) <= bound:
                raise PreconditionError(
                    f"letter {a} out of range 1..{bound} for {type(self).__name__}")
        object.__setattr__(self, "letters", _reduce(letters))

    def _with(self, letters: Letters):
        return replace(self, letters=letters)

    def concat(self, other):
        # Same group: the two words agree once their letters are dropped.
        if type(other) is not type(self) or self._with(()) != other._with(()):
            raise PreconditionError("words of different groups cannot be multiplied")
        return self._with(self.letters + other.letters)

    __mul__ = concat

    def invert(self):
        return self._with(_invert(self.letters))

    def power(self, k: int):
        base = self.letters if k >= 0 else _invert(self.letters)
        return self._with(base * abs(k))

    def __len__(self) -> int:
        return len(self.letters)


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.invert() * v.invert()
