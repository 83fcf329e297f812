"""Seeded workloads for the brunnian benchmark.

Every workload is a *pass*: a fixed list of CLI invocations.  Each
invocation carries the word text handed to the program and, separately,
what the generator knows about that word (its reduced letters and any
verdict it knows), which the judge uses after the timed loop.

* ``flagship``: the nested commutator of sixth powers on ``sphere:5..9``
  and ``genus2``, each through ``check``, ``brunnian`` and ``certify``.
  Deterministic; the seed is ignored.
* ``periodic``: finite-order words with known answers (full-twist
  powers, powers of the genus-2 chain, odd powers of the hyperelliptic
  involution) through ``check`` and ``certify``.  Deterministic.
* ``random_words``: random pure sphere words, conjugated full twists
  and random genus-2 words, drawn from the seed.  Lengths are
  stratified over their ranges, so only the letters depend on the seed,
  which keeps the pass's total cost steady from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

Letters = tuple[int, ...]

WORKLOADS = ("flagship", "periodic", "random_words")


@dataclass(frozen=True)
class Expect:
    """What the generator knows about a word.  ``None`` means unknown.

    ``pa_justification`` is the only legal basis a ``pseudo_anosov``
    conclusion may carry; ``pa_possible`` is False for words of finite
    order, which are never pseudo-Anosov.
    """

    trivial: Optional[bool] = None
    brunnian: Optional[bool] = None
    pa_justification: Optional[str] = None
    pa_possible: bool = True


UNKNOWN = Expect()


@dataclass(frozen=True)
class Invocation:
    word_id: str
    command: str
    surface: str
    text: str
    letters: Letters
    expect: Expect = UNKNOWN

    def argv(self) -> list[str]:
        return [self.command, "--surface", self.surface,
                "--word", self.text, "--json"]

    @property
    def prefix(self) -> str:
        return "d" if self.surface == "genus2" else "s"

    @property
    def strands(self) -> int:
        return 6 if self.surface == "genus2" else int(self.surface.split(":")[1])


# ---------------------------------------------------------------------------
# word helpers, written independently of the library so the judge does not
# trust the code it checks
# ---------------------------------------------------------------------------

def reduce_letters(letters: Sequence[int]) -> Letters:
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def invert(letters: Sequence[int]) -> Letters:
    return tuple(-a for a in reversed(letters))


def render(prefix: str, letters: Sequence[int]) -> str:
    """Runs of one signed letter collapse to ``prefix{i}^{k}``."""
    parts = []
    i = 0
    while i < len(letters):
        a = letters[i]
        j = i
        while j < len(letters) and letters[j] == a:
            j += 1
        exp = (j - i) if a > 0 else -(j - i)
        parts.append(f"{prefix}{abs(a)}" + ("" if exp == 1 else f"^{exp}"))
        i = j
    return " ".join(parts)


def permutation(n: int, letters: Sequence[int]) -> list[int]:
    """Image table (start strand -> end position) of a braid word."""
    at = list(range(n + 1))
    for a in letters:
        i = abs(a)
        at[i], at[i + 1] = at[i + 1], at[i]
    out = [0] * (n + 1)
    for pos in range(1, n + 1):
        out[at[pos]] = pos
    return out[1:]


# ---------------------------------------------------------------------------
# flagship
# ---------------------------------------------------------------------------

FLAGSHIP_SURFACES = ("sphere:5", "sphere:6", "sphere:7", "sphere:8", "sphere:9",
                     "genus2")


def nested_commutator(n: int) -> Letters:
    """[s1^6, [s2^6, [... [s_{n-2}^6, s_{n-1}^6] ...]]], expanded and reduced."""
    word: Letters = (n - 1,) * 6
    for i in range(n - 2, 0, -1):
        a = (i,) * 6
        word = reduce_letters(a + word + invert(a) + invert(word))
    return word


def flagship() -> list[Invocation]:
    items = []
    for surface in FLAGSHIP_SURFACES:
        genus2 = surface == "genus2"
        n = 6 if genus2 else int(surface.split(":")[1])
        letters = nested_commutator(n)
        text = render("d" if genus2 else "s", letters)
        expect = Expect(trivial=False, brunnian=True,
                        pa_justification="theorem-1.2" if genus2 else "theorem-1.1")
        for command in ("check", "brunnian", "certify"):
            items.append(Invocation(f"flagship-{surface}", command, surface,
                                    text, letters, expect))
    return items


# ---------------------------------------------------------------------------
# periodic
# ---------------------------------------------------------------------------

# Exponents on doubling grids, so call times spread evenly over three
# decades and the percentiles do not sit in a gap between two words.
# The full-twist grids are offset by a quarter step per strand count.
TWIST_STEPS = 7            # (s1..s{n-1})^(k n), k = 4 * 2^(j - (n-5)/4)
CHAIN_POWERS = tuple(2 ** j for j in range(1, 10))      # (d1..d5)^(6 k)
INVOLUTION_POWERS = (1, 2, 4, 8, 16, 32)                # (d1..d5 d5..d1)^(2k+1)

_INVOLUTION = (1, 2, 3, 4, 5, 5, 4, 3, 2, 1)


def _power_text(prefix: str, base: Sequence[int], exponent: int) -> str:
    return "(" + " ".join(f"{prefix}{a}" for a in base) + f")^{exponent}"


def periodic() -> list[Invocation]:
    trivial = Expect(trivial=True, brunnian=True, pa_possible=False)
    # The involution projects to the sphere relation, so every strand
    # check of its projection is trivial, but it acts as -I on homology.
    involution = Expect(trivial=False, brunnian=True, pa_possible=False)
    words = []
    for n in range(5, 9):
        base = tuple(range(1, n))
        for j in range(TWIST_STEPS):
            k = round(4 * 2 ** (j - (n - 5) / 4))
            words.append((f"twist-{n}-{k}", f"sphere:{n}", base, k * n, trivial))
    for k in CHAIN_POWERS:
        words.append((f"chain-{k}", "genus2", (1, 2, 3, 4, 5), 6 * k, trivial))
    for k in INVOLUTION_POWERS:
        words.append((f"involution-{k}", "genus2", _INVOLUTION, 2 * k + 1,
                      involution))
    items = []
    for word_id, surface, base, exponent, expect in words:
        prefix = "d" if surface == "genus2" else "s"
        text = _power_text(prefix, base, exponent)
        letters = reduce_letters(base * exponent)
        for command in ("check", "certify"):
            items.append(Invocation(word_id, command, surface, text, letters,
                                    expect))
    return items


# ---------------------------------------------------------------------------
# random words
# ---------------------------------------------------------------------------

# About an eighth of the calls abort at the letter cap, which puts the
# 90th percentile inside the aborts; the genus-2 calls, whose cost grows
# only linearly with length, are a third of the pass, so the median call
# does not sit where cost grows exponentially with length and moves
# with the seed.
PURE_PER_N = 28         # pure sphere words per strand count, length 20..120
CONJUGATED_PER_N = 6    # u (s1..s{n-1})^n u^-1 per strand count, |u| = 10..60
GENUS2_WORDS = 144      # random genus-2 words, length 20..400


def _stratum(rng: random.Random, j: int, count: int, lo: int, hi: int) -> int:
    """A length drawn from the j-th of ``count`` equal slices of [lo, hi]."""
    return lo + int((j + rng.random()) * (hi - lo + 1) / count)


def _random_letter(rng: random.Random, generators: int, prev: int) -> int:
    while True:
        a = rng.randint(1, generators) * rng.choice((1, -1))
        if a != -prev:
            return a


def _random_reduced(rng: random.Random, generators: int, length: int) -> Letters:
    out: list[int] = []
    for _ in range(length):
        out.append(_random_letter(rng, generators, out[-1] if out else 0))
    return tuple(out)


def _inversions(at: Sequence[int]) -> int:
    return sum(1 for i in range(len(at)) for j in range(i + 1, len(at))
               if at[i] > at[j])


def pure_word(rng: random.Random, n: int, length: int) -> Letters:
    """Random letters followed by a bubble-sort tail that makes the word pure.

    The random prefix grows until prefix plus tail reaches ``length``
    letters; the tail has one crossing per inversion of the prefix's
    permutation, each with a random sign.
    """
    prefix: list[int] = []
    at = list(range(1, n + 1))  # at[p-1] = strand at position p
    while len(prefix) + _inversions(at) < length:
        a = _random_letter(rng, n - 1, prefix[-1] if prefix else 0)
        prefix.append(a)
        i = abs(a)
        at[i - 1], at[i] = at[i], at[i - 1]
    tail = []
    for _ in range(n):
        for j in range(n - 1):
            if at[j] > at[j + 1]:
                at[j], at[j + 1] = at[j + 1], at[j]
                tail.append((j + 1) * rng.choice((1, -1)))
    return reduce_letters(prefix + tail)


def random_words(seed: int) -> list[Invocation]:
    rng = random.Random(seed)
    items = []
    for n in range(5, 9):
        surface = f"sphere:{n}"
        for j in range(PURE_PER_N):
            letters = pure_word(rng, n, _stratum(rng, j, PURE_PER_N, 20, 120))
            text = render("s", letters)
            for command in ("brunnian", "check"):
                items.append(Invocation(f"pure-{n}-{j}", command, surface,
                                        text, letters))
        twist = tuple(range(1, n)) * n
        relation = Expect(trivial=True, brunnian=True, pa_possible=False)
        for j in range(CONJUGATED_PER_N):
            u = _random_reduced(rng, n - 1,
                                _stratum(rng, j, CONJUGATED_PER_N, 10, 60))
            text = (render("s", u) + " " + _power_text("s", range(1, n), n)
                    + " (" + render("s", u) + ")^-1")
            letters = reduce_letters(u + twist + invert(u))
            for command in ("brunnian", "check"):
                items.append(Invocation(f"conjugated-{n}-{j}", command, surface,
                                        text, letters, relation))
    for j in range(GENUS2_WORDS):
        letters = _random_reduced(rng, 5, _stratum(rng, j, GENUS2_WORDS, 20, 400))
        items.append(Invocation(f"genus2-{j}", "certify", "genus2",
                                render("d", letters), letters))
    rng.shuffle(items)
    return items


def build(workload: str, seed: int) -> list[Invocation]:
    if workload == "flagship":
        return flagship()
    if workload == "periodic":
        return periodic()
    if workload == "random_words":
        return random_words(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
