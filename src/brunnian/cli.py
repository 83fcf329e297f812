"""Command-line interface.

Input is read in one order, the first refusal winning: the surface
(``project`` and ``homology`` default to and require ``genus2``), the
letter cap, the word from ``--word`` or stripped stdin, the parse.
The surface is read as its empty word and the parsed word carries it
on.  ``example`` builds its word as the surface's type and takes none.

Exit codes: 0 the command ran to a conclusion (any status, including an
undetermined certificate), 1 parse, usage or output error, 2 precondition
violation, 3 letter budget or memory exhausted.  Budget aborts inside
``certify`` are recorded in-band in the certificate and still exit with 3.

``main(argv)`` returns the exit code, 0 after ``--help``, and may be
called repeatedly in one process; it builds the argument parser on first
use and reuses it, and importing the module builds nothing.  ``entry``
is the console script: it also turns a failed write to stdout into an
``output error``.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from . import braid, genus2, homology
from .budget import DEFAULT_LETTER_CAP, MAX_LETTER_CAP, LetterBudget, unless_aborted
from .certificate import _decimal, canonical_json, render_word
from .errors import LetterBudgetExceeded, PreconditionError, WordSyntaxError
from .parsing import integer, parse_surface, parse_word, surface_label


class _UsageError(Exception):
    pass


class _Exit(Exception):  # argparse's exit, as main's return code
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; usage errors are 1
        raise _UsageError(message)

    def exit(self, status=0, message=None):  # only --help calls it, with no message
        raise _Exit(status)


# One parser serves every call: parse_args leaves it unchanged and returns
# a fresh Namespace, so no option's value carries over to the next call.
@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="brunnian",
                     description="Exact Brunnian membership and pseudo-Anosov "
                                 "certification for sphere and genus-2 "
                                 "mapping class groups.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--surface", help="sphere:N or genus2")
    common.add_argument("--word", help="word text; read from stdin when omitted")
    common.add_argument("--json", action="store_true",
                        help="emit canonical JSON instead of text")
    common.add_argument("--max-letters", type=integer, default=DEFAULT_LETTER_CAP,
                        help="letter budget for the computation "
                             f"(default {DEFAULT_LETTER_CAP})")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[common],
                   help="decide triviality in the mapping class group")
    sub.add_parser("brunnian", parents=[common],
                   help="run every forget-strand check")
    sub.add_parser("project", parents=[common],
                   help="project a genus-2 word to the six-strand sphere")
    hom = sub.add_parser("homology", parents=[common],
                         help="homology action of a genus-2 word")
    hom.add_argument("--mod", type=integer, default=None,
                     help="reduce the matrix modulo M, 2 <= M < 2^63")
    sub.add_parser("certify", parents=[common],
                   help="emit a certificate for the word")
    ex = sub.add_parser("example", parents=[common],
                        help="emit the nested-commutator Brunnian example")
    ex.add_argument("--n", type=integer, required=True, help="strand count (>= 5)")
    return parser


def _read(args, default: str | None = None):
    """The command's budget, word text and parsed word, read after the
    surface; a ``default`` surface is the only one the command takes."""
    name = default if args.surface is None else args.surface
    if name is None:
        raise _UsageError(f"{args.command} requires --surface")
    group = parse_surface(name)
    if default is not None and surface_label(group) != default:
        raise PreconditionError(f"{args.command} takes a genus-2 word")
    budget = _budget(args)
    text = args.word
    if text is None:
        try:
            text = sys.stdin.read().strip()
        except UnicodeDecodeError as exc:
            raise WordSyntaxError(
                f"stdin is not valid {exc.encoding}: {exc.reason}") from None
    return budget, text, parse_word(text, group, budget)


def _budget(args) -> LetterBudget:
    if args.max_letters < 1:
        raise _UsageError("--max-letters must be positive")
    if args.max_letters > MAX_LETTER_CAP:
        raise _UsageError("--max-letters must be at most 2^63 - 1")
    return LetterBudget(args.max_letters)


def _emit(args, doc: dict, human: str) -> None:
    print(canonical_json(doc) if args.json else human)


def _verdict_text(value, yes: str = "trivial", no: str = "nontrivial") -> str:
    if value is None:
        return "undetermined (letter budget exhausted)"
    return yes if value else no


def _report(args, word, budget: LetterBudget, human: str, **verdicts) -> int:
    """Emit the verdict document of ``check`` or ``brunnian``; exit 3 on an abort."""
    doc = {
        "surface": surface_label(word),
        "word": render_word(word),
        **verdicts,
        "letters_used": budget.used,
        "letter_cap": budget.cap,
        "aborted": budget.exhausted,
    }
    _emit(args, doc, human)
    return 3 if budget.exhausted else 0


def _cmd_check(args) -> int:
    budget, _, word = _read(args)
    if isinstance(word, braid.BraidWord):
        verdict = unless_aborted(braid.is_trivial_sphere, word, budget)
    else:
        verdict = unless_aborted(genus2.is_trivial_genus2, word, budget)
    return _report(args, word, budget, _verdict_text(verdict), trivial=verdict)


def _cmd_brunnian(args) -> int:
    budget, _, word = _read(args)
    if isinstance(word, braid.BraidWord):
        report = braid.brunnian_check(word, budget)
    else:
        # The strand checks are the projection's; triviality is the word's.
        report = genus2.membership_theorem12(word, budget)
    human = _verdict_text(report.brunnian, "brunnian", "not brunnian")
    return _report(args, word, budget,
                   f"{human}; word {_verdict_text(report.trivial)}",
                   per_strand=list(report.per_strand),
                   brunnian=report.brunnian, trivial=report.trivial)


def _cmd_project(args) -> int:
    _, _, word = _read(args, default="genus2")
    projection = genus2.project(word)
    rendered = render_word(projection)
    doc = {
        "surface": surface_label(word),
        "word": render_word(word),
        "projection": rendered,
        "n": projection.n,
    }
    _emit(args, doc, rendered)
    return 0


def _cmd_homology(args) -> int:
    _, _, word = _read(args, default="genus2")
    if args.mod is None:
        matrix = homology.rho(word)
        rows = [[_decimal(x) for x in row] for row in matrix]
        entries = {"matrix": rows, "charpoly": [
            _decimal(c) for c in homology.charpoly(matrix)]}
    else:
        # Entries are below the modulus, so they print as 64-bit integers.
        matrix = homology.rho_mod(word, args.mod)
        rows = [[str(x) for x in row] for row in matrix]
        entries = {"matrix": [list(row) for row in matrix]}
    doc = {"surface": surface_label(word), "word": render_word(word),
           "mod": args.mod, **entries, "identity": matrix == homology.IDENTITY}
    human = "\n".join(" ".join(row) for row in rows)
    _emit(args, doc, human)
    return 0


def _cmd_certify(args) -> int:
    budget, text, word = _read(args)
    if isinstance(word, braid.BraidWord):
        doc = braid.certify_pa_sphere(word, budget, input_text=text)
    else:
        doc = genus2.certify_pa_genus2(word, budget, input_text=text)
    conclusion = doc["conclusion"]
    _emit(args, doc, f"status={conclusion['status']} "
                     f"justification={conclusion['justification']}")
    return 3 if budget.exhausted else 0


def _cmd_example(args) -> int:
    if args.word is not None:
        raise _UsageError("example takes no --word; it builds its own")
    n = args.n
    group = None if args.surface is None else parse_surface(args.surface)
    if n < 5:
        raise PreconditionError("the example family starts at five strands")
    if group is None:  # not `group or`: an empty word is falsy
        group = braid.BraidWord(n)
    if isinstance(group, genus2.TwistWord) and n != 6:
        raise PreconditionError("the genus-2 example needs --n 6")
    if isinstance(group, braid.BraidWord) and group.n != n:
        raise PreconditionError("--surface strand count must match --n")
    # The word is charged in full before it is built.
    _budget(args).charge(braid.example_length(n))
    word = braid.brunnian_example(n)
    if isinstance(group, genus2.TwistWord):  # its letterwise lift
        word = genus2.TwistWord(word.letters)
    rendered = render_word(word)
    doc = {
        "surface": surface_label(word),
        "n": n,
        "word": rendered,
        "length": len(word.letters),
    }
    _emit(args, doc, rendered)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "brunnian": _cmd_brunnian,
    "project": _cmd_project,
    "homology": _cmd_homology,
    "certify": _cmd_certify,
    "example": _cmd_example,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _Exit as exc:
        return exc.args[0]
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except WordSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except LetterBudgetExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # a cap too large for the memory the process has
        print("resource cap: out of memory", file=sys.stderr)
        return 3


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:  # a full disk or a closed pipe on stdout
        print(f"output error: {exc}", file=sys.stderr)
        # The flush at interpreter exit would fail again on the same fd.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
