"""Independent reference implementations used only by the tests.

Nothing here shares an algorithm with the package: free reduction is a
rescan-until-fixpoint loop instead of a stack, automorphisms are
composed by plain substitution followed by that reduction, triviality
on the disk side is decided by direct comparison against a conjugation
rather than by conjugator recovery, determinants come from the 24-term
Leibniz sum, transvections from the intersection form, and Burau
matrices are whole matrices multiplied by 2x2 blocks, inverted by the
adjugate.  Strand removal tracks every strand rather than the
forgotten one, and the per-strand Brunnian reference asks each removal
on its own, through a decision function its caller passes in with the
word's own answer; the unscreened genus-2 rule likewise takes the
homology verdict and the engine from its caller.  The package is
imported only for ``BraidWord``, to generate words.  Disagreement
between these and the package is a test failure, not a tie to be
broken.

An automorphism of the free group of rank r is a tuple of r reduced
words, entry i - 1 being the image of x_i.  The engine's tables have
the same shape with packed words (letter a of rank r is the character
``chr(r + a)``); ``pack`` and ``unpack`` convert between the two.
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


def pack(rank, letters):
    """The packed form of a word of the given rank."""
    return "".join(chr(rank + a) for a in letters)


def unpack(rank, word):
    """The letters of a packed word of the given rank, as a tuple."""
    return tuple(ord(c) - rank for c in word)


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
# the sphere action with its letter charges
# ---------------------------------------------------------------------------

def sphere_letter(n, letter):
    """One sphere letter's action on x_1..x_{n-1}: the substituted
    generator with its defining word, and the (target, source) copy of
    an old image, or None.  x_n = (x_1...x_{n-1})^-1 is written out."""
    r, i = n - 1, abs(letter)
    if i == r:
        x_n = tuple(-j for j in range(r, 0, -1))
        return (r, x_n[1:] + (-r,) if letter > 0 else x_n), None
    if letter > 0:
        return (i, (i, i + 1, -i)), (i + 1, i)
    return (i + 1, (-(i + 1), i, i + 1)), (i, i + 1)


def charged_sphere_action(n, letters, budget):
    """The sphere action table of a letter sequence by plain substitution,
    composed as action(uv) = action(u) after action(v).  Every image
    substituted is charged to ``budget`` on its own, in the order of the
    defining word; copied images are not charged."""
    table = list(identity(n - 1))
    for a in letters:
        (target, word), copy = sphere_letter(n, a)
        for b in word:
            budget.charge(len(table[abs(b) - 1]))
        image = substitute(table, word)
        if copy is not None:
            table[copy[0] - 1] = table[copy[1] - 1]
        table[target - 1] = image
    return tuple(table)


# ---------------------------------------------------------------------------
# Brunnian verdicts with every question asked on its own
# ---------------------------------------------------------------------------

def forget_strand(word, i):
    """A pure braid word with strand i forgotten: every crossing of two
    other strands, renumbered by whether strand i lies to its left."""
    at = list(range(word.n + 1))  # at[pos] = strand at pos
    out = []
    for a in word.letters:
        j = abs(a)
        if i not in (at[j], at[j + 1]):
            k = j - 1 if at.index(i) < j else j
            out.append(k if a > 0 else -k)
        at[j], at[j + 1] = at[j + 1], at[j]
    return BraidWord(word.n - 1, out)


def strand_reference(word, decide, own):
    """The per-strand verdicts of a pure braid word, the verdict of the
    word itself and the letters all of them used together.

    Every question runs alone, under a budget of its own:
    ``decide(removal)`` answers for each strand removal, and ``own`` is
    the answer for the word (for a genus-2 word, for its lift), each a
    verdict and the letters it used.
    """
    asked = [decide(forget_strand(word, i)) for i in range(1, word.n + 1)]
    verdict, used = own
    return [v for v, _ in asked], verdict, used + sum(u for _, u in asked)


# ---------------------------------------------------------------------------
# genus-2 triviality with no screen on the projection
# ---------------------------------------------------------------------------

def is_pure(word):
    """Whether every strand of a braid word ends where it started."""
    at = list(range(word.n + 1))  # at[pos] = strand at pos
    for a in word.letters:
        j = abs(a)
        at[j], at[j + 1] = at[j + 1], at[j]
    return at == list(range(word.n + 1))


def genus2_unscreened(action_is_identity, projection, engine):
    """Genus-2 triviality by its stages before the projection met the
    screen: the screened homology action is the identity, then the
    projection is pure, then it is empty or ``engine(projection)``, the
    caller's engine, finds it trivial."""
    return (action_is_identity and is_pure(projection)
            and (not projection.letters or engine(projection)))


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

J = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
UNIT = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def pairing(x, y):
    """The intersection number <x, y> = x^T J y in the basis (a1, b1, a2, b2)."""
    return sum(x[i] * J[i][j] * y[j] for i in range(4) for j in range(4))


def mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
                 for i in range(4))


def transvection(c, sign):
    """Rows of x -> x + sign * <x, c> c, column j the image of UNIT[j]."""
    return tuple(tuple(UNIT[i][j] + sign * pairing(UNIT[j], c) * c[i]
                       for j in range(4)) for i in range(4))


def poly_value(coefficients, t):
    """The polynomial with leading-first coefficients, summed at t."""
    return sum(c * t ** (len(coefficients) - 1 - i) for i, c in enumerate(coefficients))


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
    """det(tI - M) of rows M evaluated by the Leibniz sum."""
    rows = [[(t if i == j else 0) - matrix[i][j] for j in range(4)]
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
# the unreduced Burau representation over a prime field
# ---------------------------------------------------------------------------

def burau_block(letter, t, p):
    """The 2x2 block B of s_i at columns i, i+1, row vectors (x, y) -> (x, y) B;
    the inverse letter's block is B^-1 by the adjugate."""
    (a, b), (c, d) = ((1 - t) % p, t), (1, 0)
    if letter > 0:
        return (a, b), (c, d)
    det_inv = pow((a * d - b * c) % p, -1, p)
    return ((d * det_inv % p, -b * det_inv % p),
            (-c * det_inv % p, a * det_inv % p))


def burau_rows(n, letters, t, p):
    """Rows of the full n x n Burau matrix of a letter sequence, the
    letters' matrices multiplied left to right; each letter combines two
    columns of the product so far."""
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for a in letters:
        (b11, b12), (b21, b22) = burau_block(a, t, p)
        x, y = cols[abs(a) - 1], cols[abs(a)]
        cols[abs(a) - 1] = [(u * b11 + v * b21) % p for u, v in zip(x, y)]
        cols[abs(a)] = [(u * b12 + v * b22) % p for u, v in zip(x, y)]
    return [list(row) for row in zip(*cols)]


def scalar_on_quotient(rows, u, p):
    """The scalar c by which a matrix acts on H/<u>, H the sum-zero
    hyperplane and u[0] = 1, or None when it acts by none: f_j M - c f_j
    must be a multiple of u for every f_j = e_j - e_{j+1}."""
    n = len(rows)
    images = [[(x - y) % p for x, y in zip(rows[j], rows[j + 1])]
              for j in range(n - 1)]
    last = images[-1]  # f_{n-1} is 0 at coordinate 0 and 1 at n - 2
    c = (last[n - 2] - last[0] * u[n - 2]) % p
    for j, g in enumerate(images):
        g[j], g[j + 1] = g[j] - c, g[j + 1] + c
        if any((g[k] - g[0] * u[k]) % p for k in range(n)):
            return None
    return c


# ---------------------------------------------------------------------------

def random_letters(rng, rank, length):
    return [rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(length)]


def random_braid(rng, n, max_len, max_gen=None):
    gens = max_gen if max_gen is not None else n - 1
    return BraidWord(
        n, random_letters(rng, gens, rng.randint(0, max_len)))


def random_pure_braid(rng, n, max_len, max_gen=None):
    """Rejection-sample a word with identity puncture permutation."""
    while True:
        length = 2 * rng.randint(0, max_len // 2)
        word = BraidWord(
            n, random_letters(rng, max_gen if max_gen is not None else n - 1,
                              length))
        if word.permutation().is_identity():
            return word
