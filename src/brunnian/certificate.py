"""Certificate records and canonical JSON emission.

A certificate is the machine-checkable outcome of a certification run:
the normalized word, every check that was evaluated (null where a
letter-budget abort prevented a verdict), the conclusion with its legal
basis, and the resource accounting.  Serialisation is canonical: fixed
key order, ASCII only, no floats, and integers that may exceed 64 bits
(matrix entries, polynomial coefficients) rendered as decimal strings.
Identical inputs therefore produce byte-identical documents on any
platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .homology import TWIST_SIGN

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

    def validate(self) -> None:
        checks = self.checks
        if self.status == STATUS_PSEUDO_ANOSOV and self.justification == JUSTIFY_NONE:
            raise ValueError("pseudo_anosov status requires a justification")
        if self.justification == JUSTIFY_SPHERE_BRUNNIAN:
            if self.surface[0] != "sphere" or self.surface[1] < 5:
                raise ValueError("sphere Brunnian justification needs sphere:n, n >= 5")
            if checks.get("brunnian") is not True or checks.get("trivial") is not False:
                raise ValueError("sphere Brunnian justification needs brunnian pass "
                                 "and a nontrivial word")
        if self.justification == JUSTIFY_GENUS2_BRUNNIAN:
            if self.surface[0] != "genus2":
                raise ValueError("genus-2 Brunnian justification needs the genus2 surface")
            if (checks.get("brunnian") is not True
                    or checks.get("rho_mod3_identity") is not True
                    or checks.get("trivial") is not False):
                raise ValueError("genus-2 Brunnian justification needs membership "
                                 "and a nontrivial word")

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

    def to_json(self) -> str:
        return canonical_json(self.to_document())

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
