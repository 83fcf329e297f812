"""Certificate documents and canonical JSON emission.

A certificate is the ``brunnian-cert/1`` document that :func:`document`
assembles, the only code that does: the normalized word, every check
that was evaluated (null where a letter-budget abort prevented a
verdict), the conclusion with its legal basis, and the resource
accounting.  The conclusion is a function of the word's own surface
and the checks alone (:func:`conclude`), picked once per document, so a
certificate is checked by recomputing it from its checks.
Serialisation is canonical: fixed key order, ASCII only, no floats, and
integers that may exceed 64 bits (matrix entries, polynomial
coefficients) rendered as decimal strings.  Identical inputs therefore
produce byte-identical documents on any platform.
"""

from __future__ import annotations

import json
from itertools import compress, count
from operator import ne
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


def render_word(word) -> str:
    """render_letters of a word's letters with its own prefix (``s`` or ``d``)."""
    return render_letters(word.prefix, word.letters)


def render_letters(prefix: str, letters: Sequence[int]) -> str:
    """Render a reduced word as generator tokens with power notation.

    Maximal runs of one signed letter collapse to ``prefix{i}^{k}``;
    single positive letters render bare.  The output reparses to the
    same letter sequence.  The run starts, where a letter differs from
    the one before, are found in C; the letters between runs longer
    than one are joined from a table of their names.
    """
    letters = tuple(letters)
    names = {a: f"{prefix}{a}" if a > 0 else f"{prefix}{-a}^-1"
             for a in set(letters)}
    starts = [*compress(count(), map(ne, letters, (0, *letters))), len(letters)]
    parts, done = [], 0
    for start, end in zip(starts, starts[1:]):
        if end - start > 1:
            if done < start:
                parts.append(" ".join(map(names.__getitem__, letters[done:start])))
            a = letters[start]
            parts.append(f"{prefix}{abs(a)}^{end - start if a > 0 else start - end}")
            done = end
    if done < len(letters):
        parts.append(" ".join(map(names.__getitem__, letters[done:])))
    return " ".join(parts)


def document(word, report, budget, input_text: str | None = None,
             **extra_checks) -> dict:
    """The ``brunnian-cert/1`` document of ``word`` on its own surface.

    ``report`` carries the puncture permutation, the strand verdicts,
    the word's own triviality and, on genus 2, the mod-3 identity
    check; ``extra_checks`` follow them in the order given.  Resources
    are read off ``budget``, and the conclusion is :func:`conclude`'s.
    """
    checks = {
        "pure": report.permutation.is_identity(),
        "trivial": report.trivial,
        "brunnian_per_strand": list(report.per_strand),
        "brunnian": report.brunnian,
    }
    if report.rho_mod3_identity is not None:
        checks["rho_mod3_identity"] = report.rho_mod3_identity
    checks.update(extra_checks)
    status, justification = conclude(word.surface, checks)
    word_text = render_word(word)
    return {
        "schema": CERT_SCHEMA,
        "surface": dict(zip(("kind", "n"), word.surface)),  # no "n" on genus 2
        "input": word_text if input_text is None else input_text,
        "word": word_text,
        "length": len(word.letters),
        "permutation": list(report.permutation.images),
        "checks": checks,
        "conclusion": {"status": status, "justification": justification},
        "resources": {
            "letters_used": budget.used,
            "letter_cap": budget.cap,
            "aborted": budget.exhausted,
        },
        "conventions": dict(CONVENTIONS),
    }


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
