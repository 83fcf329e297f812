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
Each input is checked once: a word's letters by the word's constructor,
a modulus by _modulus, a polynomial by casson_bleiler.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isqrt
from typing import Literal, Sequence

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
    rows = tuple(_integers(row) for row in rows)
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise PreconditionError("expected a 4x4 matrix")
    return rows  # type: ignore[return-value]


def _dual(c: Sequence[int]) -> tuple[int, ...]:
    """J c, the coefficients of the functional x -> <x, c>."""
    return tuple(sum(J[j][k] * c[k] for k in range(4)) for j in range(4))


def _mat_mul(a: Rows, b: Rows) -> Rows:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )  # type: ignore[return-value]


_IDENTITY_ROWS: Rows = tuple(
    tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
)  # type: ignore[assignment]
_NEG_IDENTITY_ROWS = tuple(tuple(-x for x in row) for row in _IDENTITY_ROWS)


@dataclass(frozen=True)
class SymplecticMatrix:
    """4x4 integer matrix acting on column vectors in the (a1,b1,a2,b2) basis."""

    rows: Rows

    def __post_init__(self):
        object.__setattr__(self, "rows", _matrix(self.rows))

    def is_symplectic(self) -> bool:
        """Exact check of M^T J M == J."""
        mt = tuple(tuple(self.rows[j][i] for j in range(4)) for i in range(4))
        return _mat_mul(_mat_mul(mt, J), self.rows) == J

    @property
    def is_identity(self) -> bool:
        return self.rows == _IDENTITY_ROWS

    @property
    def is_neg_identity(self) -> bool:
        return self.rows == _NEG_IDENTITY_ROWS

    def mod(self, p: int) -> "ModularMatrix":
        return ModularMatrix(p, self.rows)


def _modulus(p) -> int:
    """p as a modulus, an int in 2..2^63 - 1: reduced entries stay signed
    64-bit integers, and a pass costs what the screen's does."""
    if not (isinstance(p, int) and 2 <= p < 2 ** 63):
        raise PreconditionError("a modulus must be an int in 2..2^63 - 1")
    return p


@dataclass(frozen=True)
class ModularMatrix:
    """4x4 integer matrix modulo p in 2..2^63 - 1; the constructor
    reduces the entries into [0, p)."""

    p: int
    rows: Rows

    def __post_init__(self):
        p = _modulus(self.p)
        object.__setattr__(self, "rows", tuple(
            tuple(x % p for x in row) for row in _matrix(self.rows)))

    @property
    def is_identity(self) -> bool:
        return self.rows == _IDENTITY_ROWS

    @property
    def is_neg_identity(self) -> bool:
        return self.rows == ModularMatrix(self.p, _NEG_IDENTITY_ROWS).rows

    def mod(self, q: int) -> "ModularMatrix":
        """The same matrix modulo q, a modulus (see _modulus) dividing p."""
        if self.p % _modulus(q):
            raise PreconditionError(f"{q} does not divide the modulus {self.p}")
        return ModularMatrix(q, self.rows)


_CHAIN_DUALS = tuple(_dual(c) for c in CHAIN_CLASSES)


def _act(word, p: int | None) -> Rows:
    """Rows of the homology action of ``word``, exact when p is None,
    else modulo p.  ``word`` must be a Word whose bound is at most five;
    its constructor checked its letters.

    Each letter applies its transvection in place as
    M <- M + s (M c)(Jc)^T.  Every _CHECK_EVERY letters, and at the end,
    the exact rows are checked against _MAX_DECIMAL_BITS (an entry above
    it refuses the word with PreconditionError) and the modular rows are
    reduced into (-p, p) keeping their sign, so small entries stay small;
    either way the work stays linear in the length of the word.
    """
    if not isinstance(word, Word) or word.bound > len(CHAIN_CLASSES):
        raise PreconditionError(
            "homology takes a TwistWord or a BraidWord on at most six strands")
    letters = word.letters
    m = [list(row) for row in _IDENTITY_ROWS]
    for start in range(0, len(letters), _CHECK_EVERY):
        for a in letters[start:start + _CHECK_EVERY]:
            c, jc = CHAIN_CLASSES[abs(a) - 1], _CHAIN_DUALS[abs(a) - 1]
            s = TWIST_SIGN if a > 0 else -TWIST_SIGN
            for row in m:
                t = s * (row[0] * c[0] + row[1] * c[1]
                         + row[2] * c[2] + row[3] * c[3])
                if t:
                    row[0] += t * jc[0]
                    row[1] += t * jc[1]
                    row[2] += t * jc[2]
                    row[3] += t * jc[3]
        if p is not None:
            m = [[x % p if x >= 0 else -(-x % p) for x in row] for row in m]
            continue
        bits = max(abs(x) for row in m for x in row).bit_length()
        if bits > _MAX_DECIMAL_BITS:
            raise PreconditionError(
                f"a homology entry of {bits} bits exceeds the limit of "
                f"{_MAX_DECIMAL_BITS} bits")
    return tuple(map(tuple, m))  # type: ignore[return-value]


def rho(word) -> SymplecticMatrix:
    """Homology action of a twist word, multiplied in word order.

    Takes a TwistWord or a BraidWord on at most six strands (its letterwise
    lift) and is a homomorphism: rho(uv) is rho(u) times rho(v).  A word
    whose entries pass _MAX_DECIMAL_BITS bits on the way is refused with
    PreconditionError (see _act); rho_mod never refuses a word for size.
    """
    result = SymplecticMatrix(_act(word, None))
    if not result.is_symplectic():
        raise AssertionError("the homology action must be symplectic")
    return result


def rho_mod(word, p: int) -> ModularMatrix:
    """rho modulo p in 2..2^63 - 1, checked before the word.

    Takes the words rho takes; the rows are reduced as they are computed,
    so no word is refused for size.
    """
    p = _modulus(p)
    return ModularMatrix(p, _act(word, p))


# Modulo 3 this is Theorem 1.2's kernel test; modulo the prime 2^61 - 1 it
# misses rho != +-I only when 2^61 - 1 divides every entry of rho -+ I.
# rho_mod(word, SCREEN_MODULUS) is the input to every verdict.
SCREEN_MODULUS = 3 * (2 ** 61 - 1)


# ---------------------------------------------------------------------------
# characteristic polynomials and the homological pseudo-Anosov criterion
# ---------------------------------------------------------------------------

def charpoly(m: SymplecticMatrix) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - M) by the Faddeev-LeVerrier
    scheme, as its five integer coefficients, leading first.

    All divisions in the recursion are exact over the integers; this is
    checked rather than assumed.
    """
    a = m.rows
    coeffs = [1]
    mk = a
    for k in range(1, 5):
        trace = sum(mk[i][i] for i in range(4))
        ck, rem = divmod(-trace, k)
        if rem:
            raise AssertionError("Faddeev-LeVerrier division must be exact")
        coeffs.append(ck)
        if k < 4:
            shifted = tuple(
                tuple(mk[i][j] + (ck if i == j else 0) for j in range(4))
                for i in range(4))
            mk = _mat_mul(a, shifted)
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
