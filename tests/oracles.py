"""Independent reference implementations used only by the tests.

Nothing here shares an algorithm with the package: free reduction is a
rescan-until-fixpoint loop instead of a stack, automorphisms are
composed by plain substitution followed by that reduction, triviality
on the disk side is decided by direct comparison against a conjugation
rather than by conjugator recovery, and determinants come from the
24-term Leibniz sum.  The package is imported only for ``BraidWord``,
to generate words.  Disagreement between these and the package is a
test failure, not a tie to be broken.

An automorphism of the free group of rank r is a tuple of r reduced
words, entry i - 1 being the image of x_i; the engine's tables have the
same shape, so the two compare directly.
"""

from itertools import permutations

from brunnian import BraidWord


def naive_free_reduce(letters):
    """Quadratic scan-and-delete free reduction."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i:i + 2]
                changed = True
                break
    return tuple(out)


def inverse(letters):
    return tuple(-a for a in reversed(letters))


# ---------------------------------------------------------------------------
# free-group automorphisms as tuples of generator images
# ---------------------------------------------------------------------------

def identity(rank):
    return tuple((i,) for i in range(1, rank + 1))


def substitute(images, letters):
    """The image of a word: every letter replaced by its image, then reduced."""
    out = []
    for a in letters:
        out.extend(images[a - 1] if a > 0 else inverse(images[-a - 1]))
    return naive_free_reduce(out)


def compose(phi, psi):
    """phi after psi: the automorphism w -> phi(psi(w))."""
    return tuple(substitute(phi, image) for image in psi)


def conjugation(rank, w):
    """The inner automorphism x -> w x w^-1."""
    return tuple(naive_free_reduce(tuple(w) + (i,) + inverse(w))
                 for i in range(1, rank + 1))


# ---------------------------------------------------------------------------
# disk-model word problem: pure braids on k strands modulo the full twist
# ---------------------------------------------------------------------------

def artin_generator(k, letter):
    """Plain Artin action of one disk-braid letter on the rank-k free group."""
    i = abs(letter)
    images = {j: (j,) for j in range(1, k + 1)}
    if letter > 0:
        images[i] = (i, i + 1, -i)
        images[i + 1] = (i,)
    else:
        images[i] = (i + 1,)
        images[i + 1] = (-(i + 1), i, i + 1)
    return tuple(images[j] for j in range(1, k + 1))


def plain_artin_action(k, letters):
    aut = identity(k)
    for a in letters:
        aut = compose(aut, artin_generator(k, a))
    return aut


def disk_model_trivial(k, letters):
    """Triviality of a pure disk braid word (generators 1..k-1) modulo the
    full-twist center.

    The center of the k-strand disk braid group acts by conjugation by
    the boundary word x_1...x_k, and the power is pinned by the exponent
    sum: the full twist has exponent sum k(k-1).
    """
    exponent = sum(1 if a > 0 else -1 for a in letters)
    m, rem = divmod(exponent, k * (k - 1))
    if rem:
        return False
    boundary = tuple(range(1, k + 1))
    power = (boundary if m >= 0 else inverse(boundary)) * abs(m)
    return plain_artin_action(k, letters) == conjugation(k, power)


# ---------------------------------------------------------------------------
# exact linear algebra references
# ---------------------------------------------------------------------------

def _perm_sign(perm):
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def leibniz_det4(rows):
    total = 0
    for perm in permutations(range(4)):
        product = _perm_sign(perm)
        for i, j in enumerate(perm):
            product *= rows[i][j]
        total += product
    return total


def charpoly_value(matrix, t):
    """det(tI - M) evaluated by the Leibniz sum."""
    rows = [[(t if i == j else 0) - matrix.rows[i][j] for j in range(4)]
            for i in range(4)]
    return leibniz_det4(rows)


def divides_x_power_minus_one(coefficients, m):
    """Whether the monic quartic with the given descending coefficients
    divides x^m - 1 over the integers."""
    if m < 4:
        return False
    dividend = [0] * (m + 1)
    dividend[0] = 1
    dividend[-1] = -1
    for i in range(m + 1 - 4):
        lead = dividend[i]
        if lead == 0:
            continue
        dividend[i] = 0
        for j in range(1, 5):
            dividend[i + j] -= lead * coefficients[j]
    return all(c == 0 for c in dividend[m + 1 - 4:])


# ---------------------------------------------------------------------------
# seeded word generators
# ---------------------------------------------------------------------------

def random_letters(rng, rank, length):
    return [rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(length)]


def random_braid(rng, n, max_len, max_gen=None):
    gens = max_gen if max_gen is not None else n - 1
    return BraidWord.from_letters(
        n, random_letters(rng, gens, rng.randint(0, max_len)))


def random_pure_braid(rng, n, max_len, max_gen=None):
    """Rejection-sample a word with identity puncture permutation."""
    while True:
        length = 2 * rng.randint(0, max_len // 2)
        word = BraidWord.from_letters(
            n, random_letters(rng, max_gen if max_gen is not None else n - 1,
                              length))
        if word.permutation().is_identity():
            return word
