"""Verdict judge: checks every CLI output against what the generator knows.

An output fails when the call raised, exited outside 0..3 (or with 1 or
2 on a word that is valid by construction), printed JSON that does not
re-emit byte-identically through ``canonical_json``, echoed another word
or permutation than the one generated, or reached a verdict that
contradicts the known answer or the consistency rules below.  An
undetermined verdict (budget abort) is never a failure; it only lowers
the decided ratio.

Consistency rules for words whose answer is unknown:

* a trivial word is pure and Brunnian, and a ``trivial`` conclusion
  goes with a trivial word;
* ``brunnian`` is the conjunction of the per-strand verdicts;
* a ``pseudo_anosov`` conclusion carries a legal basis whose conditions
  hold, and never appears on a word of finite order;
* a genus-2 certificate's characteristic polynomial and its
  ``casson-bleiler`` verdict agree with sympy (checked outside the
  timed region; sympy is imported on first use).

``check`` and ``brunnian`` agreeing on one word is a rule across
invocations, applied by the runner through :func:`conflicting_words`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from workloads import Invocation, permutation, render

_CYCLOTOMIC_ORDERS = (5, 8, 10, 12)  # the orders k with phi(k) = 4


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    decided: bool = False
    trivial: Optional[bool] = None
    letters_used: int = 0


def _fold(per_strand: list) -> Optional[bool]:
    result: Optional[bool] = True
    for v in per_strand:
        if v is False:
            return False
        if v is None:
            result = None
    return result


class Judge:
    """Judges outputs; ``canonical_json`` is the library's emitter."""

    def __init__(self, canonical_json: Callable[[object], str]):
        self._canonical_json = canonical_json
        self._sympy_verdicts: dict[tuple, tuple[tuple[int, ...], str]] = {}

    def judge(self, inv: Invocation, rc: Optional[int], out: str,
              raised: Optional[str]) -> Outcome:
        outcome = Outcome()
        if raised is not None:
            outcome.problems.append(f"raised {raised}")
            return outcome
        if rc not in (0, 3):
            outcome.problems.append(f"exit code {rc} on a valid word")
        try:
            doc = json.loads(out)
        except ValueError:
            outcome.problems.append("stdout is not JSON")
            return outcome
        if self._canonical_json(doc) + "\n" != out:
            outcome.problems.append("stdout is not canonical JSON")
        try:
            self._judge_document(inv, rc, doc, outcome)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            outcome.problems.append(f"malformed document: {exc!r}")
        return outcome

    def _judge_document(self, inv: Invocation, rc, doc: dict,
                        outcome: Outcome) -> None:
        problems = outcome.problems
        expect = inv.expect
        if doc["word"] != render(inv.prefix, inv.letters):
            problems.append("echoed word differs from the generated word")
        perm = permutation(inv.strands, inv.letters)
        pure = perm == list(range(1, inv.strands + 1))
        if inv.command == "certify":
            kind = "genus2" if inv.surface == "genus2" else "sphere"
            surface = {"kind": kind}
            if kind == "sphere":
                surface["n"] = inv.strands
            if doc["surface"] != surface:
                problems.append("certificate names another surface")
            resources = doc["resources"]
            letters_used, aborted = resources["letters_used"], resources["aborted"]
            checks = doc["checks"]
            trivial, brunnian = checks["trivial"], checks["brunnian"]
            per_strand = checks["brunnian_per_strand"]
            if doc["permutation"] != perm or checks["pure"] is not pure:
                problems.append("certificate permutation is wrong")
        else:
            if doc["surface"] != inv.surface:
                problems.append("document names another surface")
            letters_used, aborted = doc["letters_used"], doc["aborted"]
            trivial = doc["trivial"]
            brunnian = doc.get("brunnian")
            per_strand = doc.get("per_strand", [])
        outcome.letters_used = letters_used
        outcome.trivial = trivial
        outcome.decided = rc == 0 and aborted is False
        if (rc == 3) != (aborted is True):
            problems.append("exit code and aborted flag disagree")

        if expect.trivial is not None and trivial is not None \
                and trivial != expect.trivial:
            problems.append(f"trivial={trivial}, known {expect.trivial}")
        if expect.brunnian is not None and brunnian is not None \
                and brunnian != expect.brunnian:
            problems.append(f"brunnian={brunnian}, known {expect.brunnian}")
        if expect.brunnian is True and False in per_strand:
            problems.append("a strand check failed on a known Brunnian word")
        if trivial is True and (not pure or brunnian is False
                                or False in per_strand):
            problems.append("trivial word that is not pure and Brunnian")
        if not pure and (trivial is True or brunnian is True):
            problems.append("impure word reported trivial or Brunnian")
        if inv.command != "check" and brunnian != _fold(per_strand):
            problems.append("brunnian is not the conjunction of the strands")
        if inv.command == "certify":
            self._judge_conclusion(inv, doc, trivial, brunnian, problems)

    def _judge_conclusion(self, inv: Invocation, doc: dict, trivial, brunnian,
                          problems: list[str]) -> None:
        expect = inv.expect
        checks = doc["checks"]
        status = doc["conclusion"]["status"]
        justification = doc["conclusion"]["justification"]
        if (status == "trivial") != (trivial is True):
            problems.append(f"status {status} with trivial={trivial}")
        if status == "pseudo_anosov":
            if not expect.pa_possible:
                problems.append("pseudo_anosov on a word of finite order")
            if expect.pa_justification is not None \
                    and justification != expect.pa_justification:
                problems.append(f"pseudo_anosov by {justification}, "
                                f"expected {expect.pa_justification}")
            if justification in ("theorem-1.1", "theorem-1.2") \
                    and not (brunnian is True and trivial is False):
                problems.append(f"{justification} without a nontrivial "
                                "Brunnian word")
            if justification == "theorem-1.2" \
                    and checks["rho_mod3_identity"] is not True:
                problems.append("theorem-1.2 without a trivial mod-3 action")
            if justification == "casson-bleiler" \
                    and checks["casson_bleiler"] != "pa_certified":
                problems.append("casson-bleiler basis without the criterion")
        if inv.surface == "genus2":
            rows = tuple(tuple(int(x) for x in row)
                         for row in checks["rho_integral"])
            coefficients, verdict = self._sympy_verdict(rows)
            if tuple(int(c) for c in checks["charpoly"]) != coefficients:
                problems.append("charpoly differs from sympy's")
            if checks["casson_bleiler"] != verdict:
                problems.append(f"casson_bleiler={checks['casson_bleiler']}, "
                                f"sympy says {verdict}")
            identity = rows == tuple(tuple(int(i == j) for j in range(4))
                                     for i in range(4))
            if trivial is True and not identity:
                problems.append("trivial word with a nontrivial homology action")

    def _sympy_verdict(self, rows: tuple) -> tuple[tuple[int, ...], str]:
        cached = self._sympy_verdicts.get(rows)
        if cached is None:
            cached = _sympy_casson_bleiler(rows)
            self._sympy_verdicts[rows] = cached
        return cached


def _sympy_casson_bleiler(rows: tuple) -> tuple[tuple[int, ...], str]:
    """Characteristic polynomial and the Casson-Bleiler verdict, by sympy."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Matrix(rows).charpoly(x)
    coefficients = tuple(int(c) for c in poly.all_coeffs())
    cyclotomic = {tuple(int(c) for c in
                        sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs())
                  for k in _CYCLOTOMIC_ORDERS}
    factors = sympy.factor_list(poly.as_expr(), x)[1]
    irreducible = len(factors) == 1 and factors[0][1] == 1
    if (not irreducible or coefficients in cyclotomic
            or (coefficients[1] == 0 and coefficients[3] == 0)):
        return coefficients, "inconclusive"
    return coefficients, "pa_certified"


def conflicting_words(verdicts: Iterable[tuple[str, Optional[bool]]]) -> set[str]:
    """Word ids whose decided triviality verdicts disagree across commands."""
    seen: dict[str, set] = {}
    for word_id, trivial in verdicts:
        if trivial is not None:
            seen.setdefault(word_id, set()).add(trivial)
    return {w for w, values in seen.items() if len(values) > 1}
