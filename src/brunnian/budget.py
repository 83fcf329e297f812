"""The letter budget: one cap on the letters a computation may produce.

Substituting a braid word into the fundamental-group action can grow
exponentially in the word length, so every substitution charges the
number of letters it produces against a per-computation budget, one
amount at a time and before the work it pays for.  Crossing the cap
aborts the computation with LetterBudgetExceeded and latches the budget
as exhausted: later charges raise again and add nothing.  Callers that
report verdicts in-band translate the abort into an "undetermined"
outcome instead of guessing.

Linear-cost work is not charged: word operations (reduction,
concatenation, inversion, strand removal), the split of a word into
its least pure power (the cyclic split, the least period and the
permutation of the period), the Burau screen on that power, the
homology action's column operations, and the per-strand tables.  It is
bounded by the word and by the strand count, which BraidWord caps at
braid.MAX_STRANDS.  So the letters charged are still exactly the
substitution output of the action tables, on the power the engine runs
on.  Substitution output counts, as do the parser's expansion of powers
and commutators and the word the ``example`` command builds.
"""

from .errors import LetterBudgetExceeded, PreconditionError

DEFAULT_LETTER_CAP = 10_000_000
MAX_LETTER_CAP = 2 ** 63 - 1  # so the cap prints as a signed 64-bit integer


class LetterBudget:
    """Mutable letter counter with a hard cap.

    One budget covers one logical computation (for instance a whole
    Brunnian check, including each per-strand subcheck).
    """

    __slots__ = ("cap", "used", "exhausted")

    def __init__(self, cap: int = DEFAULT_LETTER_CAP):
        # type() rather than isinstance(): a bool is not a letter count.
        if type(cap) is not int or not 1 <= cap <= MAX_LETTER_CAP:
            raise PreconditionError("letter cap must be an int in 1..2^63 - 1")
        self.cap = cap
        self.used = 0
        self.exhausted = False

    def charge(self, amount: int) -> None:
        if not self.exhausted:
            self.used += amount
        if self.used > self.cap:
            self.exhausted = True
            raise LetterBudgetExceeded(
                f"letter budget exceeded: {self.used} > cap {self.cap}"
            )

    def __repr__(self) -> str:
        return f"LetterBudget(used={self.used}, cap={self.cap})"


def unless_aborted(compute, *args):
    """``compute(*args)``, or None (an undecided verdict) after an abort."""
    try:
        return compute(*args)
    except LetterBudgetExceeded:
        return None
