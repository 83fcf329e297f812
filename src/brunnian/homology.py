"""Integral symplectic action of the genus-2 twist generators on first homology.

Basis and intersection form
---------------------------
H_1 of the closed genus-2 surface is Z^4 with symplectic basis
(a1, b1, a2, b2) and intersection form J pairing <a_i, b_i> = +1.
The five standard twist curves form a chain; their homology classes are
fixed here as

    c1 = a1,  c2 = b1,  c3 = a1 + a2,  c4 = b2,  c5 = a2,

which realises the chain pattern <c_i, c_{i+1}> = +-1 and
<c_i, c_j> = 0 for |i - j| >= 2.  A twist along c acts as the
transvection x -> x + TWIST_SIGN * <x, c> c, the matrix I + s c (Jc)^T
with s = TWIST_SIGN (s = -TWIST_SIGN for the inverse twist); the global
sign convention is fixed once and recorded in emitted certificates.

Everything here is exact integer arithmetic on 4x4 matrices; no floats.
A matrix is its rows, a tuple of four 4-tuples of ints, and verdicts
compare it with IDENTITY or NEG_IDENTITY.  A word's action is built
letter by letter as column operations: each transvection adds plus or
minus one column, or the sum of two, to one or two others (see _act).
Each input is checked once: a word's letters by the word's
constructor, a modulus by _modulus, rows by _matrix, a polynomial by
casson_bleiler.
"""

from __future__ import annotations

import operator
from math import isqrt
from typing import Literal

from .errors import PreconditionError
from .freegroup import Word

Row = tuple[int, int, int, int]
Rows = tuple[Row, Row, Row, Row]

J: Rows = (
    (0, 1, 0, 0),
    (-1, 0, 0, 0),
    (0, 0, 0, 1),
    (0, 0, -1, 0),
)

CHAIN_CLASSES: tuple[Row, ...] = (
    (1, 0, 0, 0),   # c1 = a1
    (0, 1, 0, 0),   # c2 = b1
    (1, 0, 1, 0),   # c3 = a1 + a2
    (0, 0, 0, 1),   # c4 = b2
    (0, 0, 1, 0),   # c5 = a2
)

TWIST_SIGN = 1

# Entries may have at most this many bits: 2^14000 has 4215 digits, under
# the interpreter's default int-to-str limit of 4300.  rho refuses a word
# whose entries outgrow it, and certificate prints no larger value.
_MAX_DECIMAL_BITS = 14_000
_CHECK_EVERY = 64  # letters applied between two entry checks or reductions


def _integers(values) -> tuple[int, ...]:
    try:  # operator.index refuses floats and every other non-integer
        return tuple(map(operator.index, values))
    except TypeError:
        raise PreconditionError("homology entries must be integers") from None


def _matrix(rows) -> Rows:
    """Integer 4x4 rows; anything else is a PreconditionError."""
    try:
        rows = tuple(_integers(row) for row in rows)
    except TypeError:  # not iterable
        raise PreconditionError("expected a 4x4 matrix") from None
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise PreconditionError("expected a 4x4 matrix")
    return rows  # type: ignore[return-value]


def _mat_mul(a: Rows, b: Rows) -> Rows:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols)
                 for row in a)  # type: ignore[return-value]


IDENTITY: Rows = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
NEG_IDENTITY: Rows = (
    (-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))


def _modulus(p) -> int:
    """p as a modulus, an int in 2..2^63 - 1: reduced entries stay signed
    64-bit integers, and a pass costs what the screen's does."""
    if not (isinstance(p, int) and 2 <= p < 2 ** 63):
        raise PreconditionError("a modulus must be an int in 2..2^63 - 1")
    return p


def mod(rows, q: int) -> Rows:
    """Integer 4x4 rows reduced into [0, q), for a modulus q (see _modulus)."""
    q = _modulus(q)
    return tuple(tuple(x % q for x in row)
                 for row in _matrix(rows))  # type: ignore[return-value]


def _act(word, p: int | None) -> Rows:
    """Rows of the homology action of ``word``, exact when p is None,
    else modulo p.  ``word`` must be a Word whose bound is at most five;
    its constructor checked its letters.

    Each letter right-multiplies M by its transvection I + s c (Jc)^T,
    which adds s (Mc)(Jc)^T: Jc has one or two entries, both -1 or both
    +1, so the letter adds plus or minus Mc to one or two columns, and Mc
    is one column or, for c3 = a1 + a2, the sum of two.  For s = +1 (a
    positive letter while TWIST_SIGN = 1; s = -1 flips every sign):

        d1: col1 -= col0              d4: col2 += col3
        d2: col0 += col1              d5: col3 -= col2
        d3: col1 -= col0 + col2, col3 -= col0 + col2

    The sixteen entries are locals, mij in row i and column j.  Every
    _CHECK_EVERY letters, and at the end, the exact entries are checked
    against _MAX_DECIMAL_BITS (an entry above it refuses the word with
    PreconditionError) and the modular ones are reduced into (-p, p)
    keeping their sign, so small entries stay small; either way the
    work stays linear in the length of the word.
    """
    if not isinstance(word, Word) or word.bound > len(CHAIN_CLASSES):
        raise PreconditionError(
            "homology takes a TwistWord or a BraidWord on at most six strands")
    letters = word.letters if TWIST_SIGN > 0 else tuple(-a for a in word.letters)
    m = sum(IDENTITY, ())  # row-major
    for start in range(0, len(letters), _CHECK_EVERY):
        (m00, m01, m02, m03, m10, m11, m12, m13,
         m20, m21, m22, m23, m30, m31, m32, m33) = m
        for a in letters[start:start + _CHECK_EVERY]:
            if a > 0:
                if a == 1:
                    m01, m11, m21, m31 = m01 - m00, m11 - m10, m21 - m20, m31 - m30
                elif a == 2:
                    m00, m10, m20, m30 = m00 + m01, m10 + m11, m20 + m21, m30 + m31
                elif a == 3:
                    t0, t1, t2, t3 = m00 + m02, m10 + m12, m20 + m22, m30 + m32
                    m01, m11, m21, m31 = m01 - t0, m11 - t1, m21 - t2, m31 - t3
                    m03, m13, m23, m33 = m03 - t0, m13 - t1, m23 - t2, m33 - t3
                elif a == 4:
                    m02, m12, m22, m32 = m02 + m03, m12 + m13, m22 + m23, m32 + m33
                else:
                    m03, m13, m23, m33 = m03 - m02, m13 - m12, m23 - m22, m33 - m32
            elif a == -1:
                m01, m11, m21, m31 = m01 + m00, m11 + m10, m21 + m20, m31 + m30
            elif a == -2:
                m00, m10, m20, m30 = m00 - m01, m10 - m11, m20 - m21, m30 - m31
            elif a == -3:
                t0, t1, t2, t3 = m00 + m02, m10 + m12, m20 + m22, m30 + m32
                m01, m11, m21, m31 = m01 + t0, m11 + t1, m21 + t2, m31 + t3
                m03, m13, m23, m33 = m03 + t0, m13 + t1, m23 + t2, m33 + t3
            elif a == -4:
                m02, m12, m22, m32 = m02 - m03, m12 - m13, m22 - m23, m32 - m33
            else:
                m03, m13, m23, m33 = m03 + m02, m13 + m12, m23 + m22, m33 + m32
        m = (m00, m01, m02, m03, m10, m11, m12, m13,
             m20, m21, m22, m23, m30, m31, m32, m33)
        if p is not None:
            m = [x % p if x >= 0 else -(-x % p) for x in m]
            continue
        bits = max(map(abs, m)).bit_length()
        if bits > _MAX_DECIMAL_BITS:
            raise PreconditionError(
                f"a homology entry of {bits} bits exceeds the limit of "
                f"{_MAX_DECIMAL_BITS} bits")
    return (tuple(m[0:4]), tuple(m[4:8]),  # type: ignore[return-value]
            tuple(m[8:12]), tuple(m[12:16]))


def rho(word) -> Rows:
    """Rows of the homology action of a twist word, multiplied in word order.

    Takes a TwistWord or a BraidWord on at most six strands (its letterwise
    lift) and is a homomorphism: rho(uv) is rho(u) times rho(v).  A word
    whose entries pass _MAX_DECIMAL_BITS bits on the way is refused with
    PreconditionError (see _act); rho_mod never refuses a word for size.
    """
    rows = _act(word, None)
    if _mat_mul(_mat_mul(tuple(zip(*rows)), J), rows) != J:  # M^T J M
        raise AssertionError("the homology action must be symplectic")
    return rows


def rho_mod(word, p: int) -> Rows:
    """rho modulo p in 2..2^63 - 1, checked before the word, as rows in [0, p).

    Takes the words rho takes; the rows are reduced as they are computed,
    so no word is refused for size.
    """
    p = _modulus(p)
    return tuple(tuple(x % p for x in row)
                 for row in _act(word, p))  # type: ignore[return-value]


# Modulo 3 this is Theorem 1.2's kernel test; modulo the prime 2^61 - 1 it
# misses rho != +-I only when 2^61 - 1 divides every entry of rho -+ I.
# rho_mod(word, SCREEN_MODULUS) is the input to every verdict.
SCREEN_MODULUS = 3 * (2 ** 61 - 1)


# ---------------------------------------------------------------------------
# characteristic polynomials and the homological pseudo-Anosov criterion
# ---------------------------------------------------------------------------

def charpoly(rows) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - M) of integer 4x4 rows by the
    Faddeev-LeVerrier scheme, as its five integer coefficients, leading
    first; other rows are a PreconditionError.

    All divisions in the recursion are exact over the integers; this is
    checked rather than assumed.
    """
    a = mk = _matrix(rows)
    coeffs = [1]
    for k in range(1, 5):
        trace = sum(mk[i][i] for i in range(4))
        ck, rem = divmod(-trace, k)
        if rem:
            raise AssertionError("Faddeev-LeVerrier division must be exact")
        coeffs.append(ck)
        if k < 4:  # A (M + c_k I) = A M + c_k A
            mk = tuple(tuple(x + ck * y for x, y in zip(r, s))
                       for r, s in zip(_mat_mul(a, mk), a))
    return tuple(coeffs)


# The irreducible degree-4 cyclotomic polynomials with a nonzero cubic
# coefficient (orders 5 and 10; those of orders 8 and 12 are in x^2).
_CYCLOTOMICS_5_10 = frozenset({(1, 1, 1, 1, 1), (1, -1, 1, -1, 1)})

CassonBleilerVerdict = Literal["pa_certified", "inconclusive"]


def casson_bleiler(coefficients) -> CassonBleilerVerdict:
    """Sufficient homological test for a mapping class to be pseudo-Anosov.

    Takes a characteristic polynomial as charpoly returns it; anything
    but five integers, monic and palindromic, is a PreconditionError.
    Certifies when the characteristic polynomial of the homology action
    is irreducible over Q, is not cyclotomic, and is not a polynomial in
    x^k for k >= 2.  The polynomial of a symplectic matrix is reciprocal,
    q = x^4 + a x^3 + b x^2 + a x + 1 = x^2 (y^2 + a y + b - 2) with
    y = x + 1/x, so q factors over Q exactly when a^2 - 4(b - 2) is a
    square (a rational root y) or when a = 0 and it splits as
    (x^2 + p x - 1)(x^2 - p x - 1).  With a = 0 it is a polynomial in
    x^2 and inconclusive either way, which leaves a closed form.
    """
    q = _integers(coefficients)
    if len(q) != 5 or q[0] != 1 or q != q[::-1]:
        raise PreconditionError("criterion applies to monic reciprocal quartics")
    a, b = q[1], q[2]
    disc = a * a - 4 * (b - 2)
    if (a == 0 or (disc >= 0 and isqrt(disc) ** 2 == disc)
            or q in _CYCLOTOMICS_5_10):
        return "inconclusive"
    return "pa_certified"
