"""Certificate records and canonical JSON emission.

A certificate is the machine-checkable outcome of a certification run:
the normalized word, every check that was evaluated (null where a
letter-budget abort prevented a verdict), the conclusion with its legal
basis, and the resource accounting.  The conclusion is a function of the
surface and the checks alone (:func:`conclude`), so a certificate is
checked by recomputing it.  Serialisation is canonical: fixed
key order, ASCII only, no floats, and integers that may exceed 64 bits
(matrix entries, polynomial coefficients) rendered as decimal strings.
Identical inputs therefore produce byte-identical documents on any
platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .errors import PreconditionError
from .homology import _MAX_DECIMAL_BITS, TWIST_SIGN

CERT_SCHEMA = "brunnian-cert/1"

STATUS_TRIVIAL = "trivial"
STATUS_PSEUDO_ANOSOV = "pseudo_anosov"
STATUS_UNDETERMINED = "undetermined"

JUSTIFY_NONE = "none"
JUSTIFY_SPHERE_BRUNNIAN = "theorem-1.1"
JUSTIFY_GENUS2_BRUNNIAN = "theorem-1.2"
JUSTIFY_CHARPOLY = "casson-bleiler"

CONVENTIONS = {
    "artin_action": "sigma_i: x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i",
    "transvection_sign": TWIST_SIGN,
}


def conclude(surface: tuple, checks: Mapping[str, Any]) -> tuple[str, str]:
    """Status and legal basis that the checks support, and nothing more.

    A trivial word is trivial.  A nontrivial Brunnian word is
    pseudo-Anosov by Theorem 1.1 on the sphere, and by Theorem 1.2 on
    genus 2 when its mod-3 homology action is also the identity.
    Otherwise a certified characteristic polynomial still concludes
    (Casson-Bleiler); anything else, including every verdict a budget
    abort left null, is undetermined.
    """
    genus2 = surface[0] == "genus2"
    if checks.get("trivial") is True:
        return STATUS_TRIVIAL, JUSTIFY_NONE
    if (checks.get("brunnian") is True and checks.get("trivial") is False
            and (not genus2 or checks.get("rho_mod3_identity") is True)):
        return STATUS_PSEUDO_ANOSOV, (JUSTIFY_GENUS2_BRUNNIAN if genus2
                                      else JUSTIFY_SPHERE_BRUNNIAN)
    if checks.get("casson_bleiler") == "pa_certified":
        return STATUS_PSEUDO_ANOSOV, JUSTIFY_CHARPOLY
    return STATUS_UNDETERMINED, JUSTIFY_NONE


_PIECE = 10 ** 500


def _decimal(value: int) -> str:
    """Decimal text of a matrix entry or polynomial coefficient; values
    above _MAX_DECIMAL_BITS bits are a PreconditionError.  Joined from
    500-digit pieces, below the least int-to-str limit the interpreter
    admits (640), so PYTHONINTMAXSTRDIGITS cannot change the text."""
    if value.bit_length() > _MAX_DECIMAL_BITS:
        raise PreconditionError(f"an integer of {value.bit_length()} bits is "
                                f"too large to print (limit {_MAX_DECIMAL_BITS})")
    rest, pieces = abs(value), []
    while rest >= _PIECE:
        rest, low = divmod(rest, _PIECE)
        pieces.append(f"{low:0500d}")
    return "-" * (value < 0) + str(rest) + "".join(reversed(pieces))


def render_word(surface: tuple, letters: Sequence[int]) -> str:
    """render_letters with the surface's generator prefix (``s`` or ``d``)."""
    return render_letters("d" if surface[0] == "genus2" else "s", letters)


def render_letters(prefix: str, letters: Sequence[int]) -> str:
    """Render a reduced word as generator tokens with power notation.

    Maximal runs of one signed letter collapse to ``prefix{i}^{k}``;
    single positive letters render bare.  The output reparses to the
    same letter sequence.
    """
    parts = []
    i = 0
    n = len(letters)
    while i < n:
        a = letters[i]
        j = i
        while j < n and letters[j] == a:
            j += 1
        exp = (j - i) if a > 0 else -(j - i)
        token = f"{prefix}{abs(a)}"
        if exp != 1:
            token += f"^{exp}"
        parts.append(token)
        i = j
    return " ".join(parts)


@dataclass(frozen=True)
class Certificate:
    """Structured verdict for one word on one surface."""

    surface: tuple  # ("sphere", n) or ("genus2",)
    input_text: str
    word_text: str
    length: int
    permutation: tuple[int, ...]
    checks: Mapping[str, Any]
    status: str
    justification: str
    letters_used: int
    letter_cap: int
    aborted: bool

    def __post_init__(self):
        self.validate()

    @classmethod
    def build(cls, surface: tuple, word, report, budget,
              input_text: str | None = None, **extra_checks) -> "Certificate":
        """Certificate of ``word`` from its Brunnian report and extra checks.

        ``report`` carries the puncture permutation, the strand verdicts
        and the word's own triviality; resources are read off ``budget``
        and the conclusion is :func:`conclude`'s.
        """
        checks = {
            "pure": report.permutation.is_identity(),
            "trivial": report.trivial,
            "brunnian_per_strand": list(report.per_strand),
            "brunnian": report.brunnian,
            **extra_checks,
        }
        status, justification = conclude(surface, checks)
        word_text = render_word(surface, word.letters)
        return cls(surface, word_text if input_text is None else input_text,
                   word_text, len(word.letters), report.permutation.images, checks,
                   status, justification, budget.used, budget.cap,
                   budget.exhausted)

    def validate(self) -> None:
        if self.surface[0] == "sphere" and self.surface[1] < 5:
            raise ValueError("sphere certificates need sphere:n, n >= 5")
        if (self.status, self.justification) != conclude(self.surface, self.checks):
            raise ValueError(f"conclusion {self.status}/{self.justification} "
                             "does not follow from the checks")

    def to_document(self) -> dict:
        surface = {"kind": self.surface[0]}
        if self.surface[0] == "sphere":
            surface["n"] = self.surface[1]
        return {
            "schema": CERT_SCHEMA,
            "surface": surface,
            "input": self.input_text,
            "word": self.word_text,
            "length": self.length,
            "permutation": list(self.permutation),
            "checks": dict(self.checks),
            "conclusion": {"status": self.status, "justification": self.justification},
            "resources": {
                "letters_used": self.letters_used,
                "letter_cap": self.letter_cap,
                "aborted": self.aborted,
            },
            "conventions": dict(CONVENTIONS),
        }

    def summary(self) -> str:
        return f"status={self.status} justification={self.justification}"


def _check_no_floats(obj) -> None:
    if isinstance(obj, float):
        raise ValueError("canonical JSON forbids floating-point values")
    if isinstance(obj, dict):
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ValueError("canonical JSON requires string keys")
            _check_no_floats(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _check_no_floats(v)


def canonical_json(doc) -> str:
    """Deterministic JSON emission: insertion key order, ASCII, no floats."""
    _check_no_floats(doc)
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True,
                      allow_nan=False, sort_keys=False)
