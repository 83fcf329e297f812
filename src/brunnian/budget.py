"""Letter budget shared by the free-group and braid engines.

Substituting a braid word into the fundamental-group action can grow
exponentially in the word length, so every substitution charges the
number of letters it produces against a per-computation budget.  When
the cap is crossed the computation aborts with LetterBudgetExceeded and
the budget stays latched as exhausted; callers that report verdicts
in-band translate the abort into an "undetermined" outcome instead of
guessing.

Linear-cost word operations (reduction, concatenation, inversion,
strand removal) and the per-strand tables are not charged: they are
bounded by the word and by the strand count, which BraidWord caps at
braid.MAX_STRANDS.  Substitution output counts, as do the parser's expansion
of powers and commutators and the word the ``example`` command builds.
"""

from typing import Sequence

from .errors import LetterBudgetExceeded

DEFAULT_LETTER_CAP = 10_000_000


class LetterBudget:
    """Mutable letter counter with a hard cap.

    One budget covers one logical computation (for instance a whole
    Brunnian check, including each per-strand subcheck).
    """

    __slots__ = ("cap", "used", "exhausted")

    def __init__(self, cap: int = DEFAULT_LETTER_CAP):
        if cap < 1:
            raise ValueError("letter cap must be positive")
        self.cap = cap
        self.used = 0
        self.exhausted = False

    def charge(self, amount: int) -> None:
        self.used += amount
        if self.used > self.cap:
            self.exhausted = True
            raise LetterBudgetExceeded(
                f"letter budget exceeded: {self.used} > cap {self.cap}"
            )

    def charge_each(self, amounts: Sequence[int]) -> None:
        """Charge the amounts in order, as one call.

        Within the cap this is one addition; a total that would cross
        it is charged amount by amount, so the abort comes at the same
        point, with the same ``used``, as separate charges would give.
        """
        used = self.used + sum(amounts)
        if used <= self.cap:
            self.used = used
        else:
            for amount in amounts:
                self.charge(amount)

    def __repr__(self) -> str:
        return f"LetterBudget(used={self.used}, cap={self.cap})"


def unless_aborted(compute, *args):
    """``compute(*args)``, or None (an undecided verdict) after an abort."""
    try:
        return compute(*args)
    except LetterBudgetExceeded:
        return None
