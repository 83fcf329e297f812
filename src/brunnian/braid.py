"""Sphere braid words and the exact word problem for the punctured sphere.

A braid word on n strands is a freely reduced sequence of signed
generator indices: ``+i`` is the half twist swapping punctures i and
i+1, ``-i`` its inverse (indices 1..n-1).

Word problem
------------
The fundamental group of the n-punctured sphere is free of rank n-1 on
loops x_1..x_{n-1} around the first n-1 punctures; the loop around the
last puncture is eliminated through x_n = (x_1...x_{n-1})^-1.  Each
generator acts by the Artin rule (x_i -> x_i x_{i+1} x_i^-1,
x_{i+1} -> x_i), with the eliminated generator substituted when the
last half twist is applied.  The action composes along the word as
action(uv) = action(u) after action(v).  The engine keeps the images
as packed words (see freegroup), so each letter costs a few slices,
one ``str.translate`` and two seam comparisons rather than a Python
loop over the letters of its images.

A puncture-fixing mapping class of the sphere with n >= 4 punctures is
trivial exactly when its permutation is trivial and its action on the
fundamental group is inner.  After that purity test one rule,
``_is_trivial_pure``, decides every pure word by exact stages, the
first that decides giving the answer: collapse (the empty word and
every pure word on three strands are trivial); screen (below); engine
(``_is_inner``: freegroup inner detection).  Screen and engine read
the word's least pure power (Powers, below).

The screen is the Burau representation at a primitive d-th root of
unity t, with d = 2 for even n and d = n for odd n, over a prime field
(see _burau_field).  As d divides n, it is the homology of the d-fold
cyclic cover branched over the punctures (McMullen, Math. Ann. 2013):
u = (1, t, ..., t^(n-1)) is fixed and lies in the sum-zero hyperplane
H, and the kernel of B_n -> Mod(S_0,n), normally generated by
s1...s_{n-1}s_{n-1}...s1 and the full twist, acts by scalars on H/<u>.
So a trivial word maps a fixed v in H into span(v, u); a word that
does not is nontrivial.  Burau is unfaithful from five strands up
(Bigelow 1999), so the screen only proves nontriviality and passes the
other words to the engine.  On six strands, t = -1, it reads the
homology of the genus-2 lift.  Genus 2 decides by this same rule on its
projection, behind a test that its own homology action is the identity
(genus2).

Powers
------
A pure word is split once as v u^m v^-1, with u^m cyclically reduced
and u not a proper power: v is the longest common prefix of the word
and its inverse (freegroup._cyclic_split), and u the least period of
the packed core, one C-level string search.  Let q be the order of u's
puncture permutation; q divides m, as the word is pure.  The pure
mapping class group of the sphere with n >= 3 punctures is
torsion-free: a periodic class is conjugate to a rotation (Nielsen
realisation with Kerekjarto's theorem), and a rotation that fixes three
punctures is the identity.  So u^m, a power of the pure class u^q, is
trivial exactly when u^q is.  The split is computed once per word
object (``BraidWord._least_power``) and read by both stages that follow
collapse:

* the screen reads v u^q v^-1, as it stands: made of the word's own
  letters, joined where they were adjacent in the word, it is reduced.
  It stops every word that the screen of the whole word stops, and
  sometimes more.  Every braid fixes the screen's vector
  (1, t, ..., t^(n-1)); call it f, and let w be the screen's other
  vector carried through v.  If u^q keeps w in span(w, f), so does
  every power of u^q, u^m among them.  A rejection of v u^q v^-1
  proves u^q, and so u^m, nontrivial;
* the engine runs once, on u^q.

When q = m both read the whole word, as without the split.  The split
and the permutation are linear in the word and uncharged.

Brunnian membership
-------------------
Forgetting a strand is realised on words by a left-to-right sweep that
tracks the geometric position of the forgotten strand, drops every
crossing adjacent to it and shifts higher indices down.  A word is
Brunnian when every single-strand removal yields a trivial mapping
class.  Each removal runs collapse and screen; the first that needs
the engine asks the word itself first, once.  Forgetting a strand is a
homomorphism of pure mapping class groups (the Birman exact sequence),
so a trivial word makes that removal and every later one trivial with
no engine run of their own; otherwise the engine decides each such
removal.  A budget abort leaves the strands after it undecided.  Genus 2
runs the same sweep on its projection, the genus-2 Brunnian subgroup
being the full preimage of the sphere one; there the word is trivial
only if its homology action is the identity as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from math import lcm
from typing import Iterable, Optional

from .budget import LetterBudget, unless_aborted
from .certificate import document
from .errors import PreconditionError
from .freegroup import (
    Letters,
    Word,
    _conjugate,
    _cyclic_split,
    _inner_conjugator,
    _inverse_table,
    _pack,
    commutator,
)


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n} stored as its image table."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise PreconditionError("image table is not a bijection of 1..n")

    @property
    def n(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def fixes(self, i: int) -> bool:
        return self.images[i - 1] == i

    def order(self) -> int:
        """The least k >= 1 with self^k the identity: the lcm of the cycle lengths."""
        images, seen, order = self.images, set(), 1
        for start in images:
            length, i = 0, start
            while i not in seen:
                seen.add(i)
                i, length = images[i - 1], length + 1
            if length:
                order = lcm(order, length)
        return order


# Braids have at most this many strands.  The per-strand sweeps and the
# identity tables are linear in the strand count and not charged to the
# letter budget, so the count itself needs a bound.
MAX_STRANDS = 1000


@dataclass(frozen=True)
class BraidWord(Word):
    """Freely reduced word in the sphere braid generators on n strands,
    for an int n in 2..MAX_STRANDS; the letters are reduced as for Word."""

    n: int
    letters: Letters = ()
    prefix = "s"

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise PreconditionError(
                f"a braid's strand count must be an int, not {type(self.n).__name__}")
        if self.n < 2:
            raise PreconditionError("a braid needs at least two strands")
        if self.n > MAX_STRANDS:
            raise PreconditionError(f"a braid has at most {MAX_STRANDS} strands")
        super().__post_init__()

    @property
    def bound(self) -> int:
        return self.n - 1

    @property
    def surface(self) -> tuple:
        return ("sphere", self.n)

    def permutation(self) -> Permutation:
        """Puncture permutation induced by the word (start strand -> end position)."""
        at = list(range(self.n + 1))  # at[pos] = strand currently at pos
        for a in self.letters:
            i = abs(a)
            at[i], at[i + 1] = at[i + 1], at[i]
        out = [0] * (self.n + 1)
        for pos in range(1, self.n + 1):
            out[at[pos]] = pos
        return Permutation(tuple(out[1:]))

    @cached_property
    def _least_power(self) -> tuple[Letters, Letters]:
        """v u^q v^-1 and u^q for a pure word v u^m v^-1 (see Powers in the
        module docstring); both are the word's own letters when q = m."""
        n, letters = self.n, self.letters
        s = _pack(n - 1, letters)
        k = _cyclic_split(s, s[::-1].translate(_inverse_table(n - 1)))
        core = s[k:len(s) - k]
        period = (core + core).find(core, 1)  # the least period of the core
        if 0 < period < len(core):  # u^m with m >= 2
            q = BraidWord(n, letters[k:k + period]).permutation().order()
            if q * period < len(core):
                end = k + q * period
                return letters[:end] + letters[len(letters) - k:], letters[k:end]
        return letters, letters

    def remove_strand(self, i: int) -> "BraidWord":
        """Forget strand i, realising the strand-removal homomorphism on words.

        Requires permutation(self) to fix i.  The sweep keeps the
        current position of the forgotten strand, drops the crossings
        that involve it and renumbers crossings to its right; the
        strand's final position is its image under the permutation.
        """
        if not 1 <= i <= self.n:
            raise PreconditionError(f"strand {i} out of range")
        pos = i
        out: list[int] = []
        for a in self.letters:
            j = abs(a)
            if j == pos:
                pos += 1
            elif j == pos - 1:
                pos -= 1
            elif j > pos:
                out.append(j - 1 if a > 0 else -(j - 1))
            else:
                out.append(a)
        if pos != i:
            raise PreconditionError(
                f"strand {i} is not fixed by the word's permutation")
        return BraidWord(self.n - 1, out)


# ---------------------------------------------------------------------------
# the action on the fundamental group of the punctured sphere
# ---------------------------------------------------------------------------

def _action_table(n: int, letters: Iterable[int],
                  budget: LetterBudget) -> list[str]:
    """Packed generator images of the composed action, letters applied
    left to right.

    The table also holds the image of the eliminated loop x_n, so every
    letter is one Artin step in place: s_i substitutes x_i x_{i+1} x_i^-1
    for x_i and copies the old image of x_i into x_{i+1}, s_i^-1 the
    mirror, and s_{n-1} is the same step on x_{n-1} and x_n.  The
    substitution is one conjugation, reduced at its two seams.  Each
    step charges, one by one and in order, the lengths of the images
    its defining word over x_1..x_{n-1} substitutes (for s_{n-1}, all
    n - 1 of them).  The uncharged upkeep of x_n costs no more than the
    letters charged, since x_n is a product of the other images.
    """
    r = n - 1
    flip = _inverse_table(r)
    images = [_pack(r, (i,)) for i in range(1, r + 1)]
    images.append(_pack(r, range(-r, 0)))  # x_n = x_{n-1}^-1 ... x_1^-1
    charge = budget.charge
    for a in letters:
        i = abs(a)
        x, y = images[i - 1], images[i]
        if i == r:  # the defining word runs through x_1..x_{n-1}
            for w in ([*reversed(images[:r - 1]), x] if a > 0
                      else reversed(images[:r])):
                charge(len(w))
        else:  # x_i x_{i+1} x_i^-1, or x_{i+1}^-1 x_i x_{i+1}
            outer, inner = (len(x), len(y)) if a > 0 else (len(y), len(x))
            charge(outer)
            charge(inner)
            charge(outer)
        if a > 0:
            images[i - 1], images[i] = _conjugate(x, x[::-1].translate(flip), y), x
        else:
            images[i - 1], images[i] = y, _conjugate(y[::-1].translate(flip), y, x)
    del images[r]
    return images


def is_trivial_sphere(word: BraidWord,
                      budget: LetterBudget | None = None) -> bool:
    """Exact triviality in the mapping class group of the n-punctured sphere.

    True exactly when the puncture permutation is trivial and the
    action on the fundamental group is inner.  Needs n >= 4 (with three
    punctures the group is finite and out of scope here).  May raise
    LetterBudgetExceeded if the action outgrows the budget.
    """
    if word.n < 4:
        raise PreconditionError("triviality testing needs at least four punctures")
    return word.permutation().is_identity() and _is_trivial_pure(
        word, LetterBudget() if budget is None else budget)


def _is_trivial_pure(word: BraidWord, budget: LetterBudget) -> bool:
    """Triviality of a word whose permutation is known to be trivial.

    Runs collapse, screen and engine (see the module docstring); only
    the engine charges letters.
    """
    verdict = _screened(word)
    return _is_inner(word, budget) if verdict is None else verdict


def _screened(word: BraidWord) -> Optional[bool]:
    """The stages before the engine on a pure word: True when it
    collapses, False when the screen proves it nontrivial, None when
    only the engine can decide.  The screen reads v u^q v^-1 (see
    Powers in the module docstring)."""
    if not word.letters or word.n == 3:
        return True
    return None if _burau_passes(word.n, word._least_power[0]) else False


def _is_inner(word: BraidWord, budget: LetterBudget) -> bool:
    """The engine stage: triviality of a pure word on n >= 4 strands.

    The word is v u^m v^-1 with u^m cyclically reduced and u not a
    proper power, and u^m is trivial exactly when the pure power u^q is,
    q the order of u's permutation (see Powers in the module docstring).
    The engine runs on u^q, or on the whole word when q = m.
    """
    table = _action_table(word.n, word._least_power[1], budget)
    return _inner_conjugator(word.n - 1, table) is not None


# ---------------------------------------------------------------------------
# the root-of-unity Burau screen
# ---------------------------------------------------------------------------

# Miller-Rabin on the first twelve prime bases is exact below 3.18 * 10^23.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(m: int) -> bool:
    if m < 2 or any(m % q == 0 for q in _PRIME_BASES):
        return m in _PRIME_BASES
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = e * 2^s with e odd
    return all(pow(a, (m - 1) >> s, m) == 1 or any(
        pow(a, (m - 1) >> s << k, m) == m - 1 for k in range(s))
        for a in _PRIME_BASES)


@cache
def _burau_field(n: int) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """(p, t, v, u) for n strands.  p is the largest prime below 2^61
    with p = 1 mod d, and t = g^((p-1)/d) for the least g >= 2 that gives
    t order exactly d, so t = -1 when d = 2.  v lies in H and starts 1, 0,
    so its minor with u on the first two coordinates is t; its other
    entries iterate x -> x^2 + 1 from p // 3.  u = (1, t, ..., t^(n-1))."""
    d = 2 if n % 2 == 0 else n
    p = (2 ** 61 - 2) // d * d + 1
    while not _is_prime(p):
        p -= d
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in range(2, d + 1) if d % q == 0):
        g += 1
    t = pow(g, (p - 1) // d, p)
    v = [1, 0, *accumulate(range(4, n), lambda x, _: (x * x + 1) % p, initial=p // 3)]
    u = accumulate(range(1, n), lambda x, _: x * t % p, initial=1)
    return p, t, (*v, -sum(v) % p), tuple(u)


def _burau_passes(n: int, letters: Iterable[int]) -> bool:
    """False when the Burau image at t of a pure word on n strands takes
    v out of span(v, u), which proves it nontrivial; one residue update
    per letter."""
    p, t, v, u = _burau_field(n)
    # Signed residues keep the products small when t = -1.
    t, ti = (r - p if 2 * r > p else r for r in (t, pow(t, -1, p)))
    s, si = 1 - t, 1 - ti
    w = list(v)
    for a in letters:
        if a > 0:  # (w_i, w_i+1) -> ((1 - t) w_i + w_i+1, t w_i), i = a
            x = w[a - 1]
            w[a - 1], w[a] = (s * x + w[a]) % p, t * x % p
        else:  # (w_i, w_i+1) -> (w_i+1 / t, w_i + (1 - 1/t) w_i+1), i = -a
            y = w[-a]
            w[-a - 1], w[-a] = ti * y % p, (w[-a - 1] + si * y) % p
    b = w[1] * ti  # w = c v + b u, read off the first two coordinates
    c = w[0] - b
    return all((c * x + b * y - z) % p == 0 for x, y, z in zip(v, u, w))


# ---------------------------------------------------------------------------
# Brunnian membership and certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrunnianReport:
    """Outcome of the strand-removal checks for one word.

    Verdict values: True/False are decided; None means the verdict was
    not reached (letter-budget abort, or a strand not fixed so never
    evaluated).  ``trivial`` is the triviality verdict of the word
    itself and ``permutation`` its puncture permutation.
    ``rho_mod3_identity`` says on genus 2 whether the mod-3 homology
    action is the identity (genus2.membership_theorem12); None on spheres.
    """

    permutation: Permutation
    per_strand: tuple[Optional[bool], ...]
    trivial: Optional[bool]
    rho_mod3_identity: Optional[bool] = None

    def __post_init__(self):
        if len(self.per_strand) != self.permutation.n:
            raise PreconditionError("need one verdict per strand")

    @property
    def brunnian(self) -> Optional[bool]:
        """The three-valued conjunction of the per-strand verdicts: False
        when one is False, else None when one is None."""
        verdicts = self.per_strand
        return False if False in verdicts else None if None in verdicts else True


def _strand_sweep(word: BraidWord, budget: LetterBudget,
                  gate: bool) -> BrunnianReport:
    """The report of a word's single-strand removals and of the word itself.

    The word is trivial when ``gate`` holds, the word is pure and
    _is_trivial_pure finds it trivial: brunnian_check passes True,
    genus 2 whether the homology action of the lift is the identity.
    That verdict is computed at most once, by the first strand that
    needs the engine or else at the end.

    A word with a nontrivial permutation is immediately not Brunnian:
    moved strands report False, fixed strands stay unevaluated.
    Forgetting a strand of a pure word leaves a pure word, so no removal
    recomputes a permutation.  A removal that collapses or that the
    screen proves nontrivial is decided by that stage.  The first one
    that needs the engine asks the word's verdict first (True only if
    the word, and so every removal, is trivial, since forgetting a
    strand is a homomorphism): True makes this strand and every later
    one True, with no removal built; otherwise the engine decides the
    removal.  Once the budget is exhausted the sweep stops: the
    remaining strands stay None, with no removal built.
    """
    n, perm = word.n, word.permutation()
    if not perm.is_identity():
        return BrunnianReport(perm, tuple(None if perm.fixes(i) else False
                                          for i in range(1, n + 1)), False)

    @cache
    def trivial() -> Optional[bool]:
        return gate and unless_aborted(_is_trivial_pure, word, budget)

    verdicts = []
    for i in range(1, n + 1):
        if budget.exhausted:
            break
        removal = word.remove_strand(i)
        verdict = _screened(removal)
        if verdict is None and trivial():
            verdicts += [True] * (n + 1 - i)
            break
        if verdict is None and not budget.exhausted:
            verdict = unless_aborted(_is_inner, removal, budget)
        verdicts.append(verdict)
    return BrunnianReport(perm, (*verdicts, *[None] * (n - len(verdicts))),
                          trivial())


def brunnian_check(word: BraidWord,
                   budget: LetterBudget | None = None) -> BrunnianReport:
    """Evaluate every forget-strand kernel condition plus own triviality.

    Accepts n >= 4; certification (see certify_pa_sphere) additionally
    requires n >= 5.  Budget aborts leave the affected verdicts None.
    """
    if word.n < 4:
        raise PreconditionError("Brunnian checks need at least four strands")
    return _strand_sweep(word, LetterBudget() if budget is None else budget, True)


def certify_pa_sphere(word: BraidWord,
                      budget: LetterBudget | None = None,
                      input_text: str | None = None) -> dict:
    """Certificate document for a sphere word: every nontrivial Brunnian
    mapping class of the sphere with n >= 5 punctures is pseudo-Anosov.

    Verdicts that the budget prevented stay null and the conclusion is
    undetermined; aborts are recorded in-band, never raised.
    """
    if word.n < 5:
        raise PreconditionError("certification needs at least five punctures")
    budget = LetterBudget() if budget is None else budget
    return document(word, brunnian_check(word, budget), budget, input_text)


def brunnian_example(n: int) -> BraidWord:
    """Nested commutator of sixth powers, Brunnian on n >= 5 strands.

    [s1^6, [s2^6, [... [s_{n-2}^6, s_{n-1}^6] ...]]], fully expanded and
    word-level reduced.  Forgetting any strand collapses it to the
    identity word; sixth powers are used so the homology action of the
    genus-2 lift (n = 6) dies mod 3.
    """
    if n < 5:
        raise PreconditionError("the example family starts at five strands")
    word = BraidWord(n, (n - 1,) * 6)
    for i in range(n - 2, 0, -1):
        word = commutator(BraidWord(n, (i,) * 6), word)
    return word


def example_length(n: int) -> int:
    """len(brunnian_example(n)) for n >= 5, without building the word.

    The innermost s_{n-1}^6 has six letters and each of the n - 2
    commutator levels doubles the word and adds twelve, with nothing
    cancelling: 18 * 2^(n-2) - 12.
    """
    return 9 * 2 ** (n - 1) - 12
