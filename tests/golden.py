"""The golden corpus of CLI invocations and its writer.

``python tests/golden.py`` (with ``src`` on ``PYTHONPATH``) runs every
invocation of :func:`corpus` and writes its argv, exit code and stdout to
``data/golden.json``, which ``test_golden.py`` replays byte for byte.
The corpus runs all six commands: ``check``, ``brunnian`` and
``certify`` on every word, ``project``, ``homology`` and ``example`` in
text and JSON, and refusals that exit 2 with empty stdout.  Rewrite the
file only for an intended change of output, and say which fields
changed and why; new invocations are appended, so the test ids of the
older ones stay as they were.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from brunnian.cli import main

DATA = Path(__file__).parent / "data" / "golden.json"

FLAGSHIP_CAP = "30000"
RANDOM_CAP = "100000"
COMMANDS = ("check", "brunnian", "certify")


def _nested(prefix: str, n: int) -> str:
    text = f"{prefix}{n - 1}^6"
    for i in range(n - 2, 0, -1):
        text = f"[{prefix}{i}^6,{text}]"
    return text


def _chain(prefix: str, n: int) -> str:
    return " ".join(f"{prefix}{i}" for i in range(1, n))


def _render(prefix: str, letters) -> str:
    return " ".join(f"{prefix}{a}" if a > 0 else f"{prefix}{-a}^-1"
                    for a in letters)


def _random_letters(rng: random.Random, generators: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, generators)
            for _ in range(length)]


def _pure_tail(n: int, letters) -> list[int]:
    """Letters that return every strand to its start (a bubble sort)."""
    at = list(range(n + 1))
    for a in letters:
        i = abs(a)
        at[i], at[i + 1] = at[i + 1], at[i]
    tail = []
    done = False
    while not done:
        done = True
        for i in range(1, n):
            if at[i] > at[i + 1]:
                at[i], at[i + 1] = at[i + 1], at[i]
                tail.append(i)
                done = False
    return tail


def corpus() -> list[list[str]]:
    """Every invocation of the corpus, as argv lists."""
    runs: list[list[str]] = []

    def add(surface: str, text: str, cap: str | None = None,
            commands=COMMANDS, json_out: bool = True) -> None:
        for command in commands:
            argv = [command, "--surface", surface, "--word", text]
            if cap is not None:
                argv += ["--max-letters", cap]
            runs.append(argv + (["--json"] if json_out else []))

    for n in range(5, 10):
        add(f"sphere:{n}", _nested("s", n), FLAGSHIP_CAP)
    add("genus2", _nested("d", 6), FLAGSHIP_CAP)
    add("genus2", _nested("d", 6), FLAGSHIP_CAP, json_out=False)
    add("sphere:6", _nested("s", 6), json_out=False)

    for n in range(4, 8):
        for k in (1, 2):
            add(f"sphere:{n}", f"({_chain('s', n)})^{n * k}")
    for k in (1, 2, 3):
        add("genus2", f"({_chain('d', 6)})^{6 * k}")
    add("genus2", f"({_chain('d', 6)})^5")

    involution = "d1 d2 d3 d4 d5 d5 d4 d3 d2 d1"
    for k in (-1, 1, 2, 3, 4, 5):
        add("genus2", f"({involution})^{k}")
    add("genus2", involution, json_out=False)
    add("sphere:6", involution.replace("d", "s"))
    add("genus2", f"[({involution}), d1 d2 d3]")
    for mod in (None, "3", "7"):
        argv = ["homology", "--surface", "genus2", "--word", involution, "--json"]
        runs.append(argv + (["--mod", mod] if mod else []))
    runs.append(["project", "--surface", "genus2", "--word", involution, "--json"])
    for n in (5, 6, 7):
        runs.append(["example", "--n", str(n), "--json"])

    rng = random.Random(20261018)
    for j in range(20):
        n = 5 + j % 4
        letters = _random_letters(rng, n - 1, rng.randint(20, 60))
        add(f"sphere:{n}", _render("s", letters + _pure_tail(n, letters)),
            RANDOM_CAP)
    for j in range(20):
        letters = _random_letters(rng, 5, rng.randint(4, 40))
        add("genus2", _render("d", letters), RANDOM_CAP)
        if j % 5 == 0:
            runs.append(["homology", "--surface", "genus2", "--word",
                         _render("d", letters), "--json"])

    # project, homology and example in both output forms, and refusals that
    # exit 2 without reading stdin.  Entries are only ever appended, and an
    # argv whose first three items would repeat a single older entry's
    # leads with another option, so every older test id stays as it was.
    twist = _render("d", _random_letters(random.Random(20261020), 5, 30))
    for text in (_nested("d", 6), twist):
        for json_out in (False, True):
            runs.append(["project", "--word", text, "--surface", "genus2"]
                        + (["--json"] if json_out else []))
    for text in (involution, _nested("d", 6)):
        for mod in (None, "3", "2305843009213693951"):
            for json_out in (False, True):
                if text == involution and json_out and mod in (None, "3"):
                    continue  # already above
                runs.append(["homology", "--surface", "genus2", "--word", text]
                            + (["--mod", mod] if mod else [])
                            + (["--json"] if json_out else []))
    for n in (8, 9):
        runs.append(["example", "--n", str(n), "--json"])
    runs.append(["example", "--surface", "genus2", "--n", "6"])
    runs.append(["example", "--surface", "genus2", "--n", "6", "--json"])
    runs.append(["example", "--surface", "sphere:7", "--n", "7"])
    runs.append(["project", "--surface", "sphere:6", "--word", "s1"])
    runs.append(["example", "--surface", "sphere:6", "--n", "5"])
    runs.append(["example", "--n", "1001", "--json"])
    for surface in ("sphere:1001", "sphere:1"):
        runs.append(["check", "--surface", surface, "--word", "s1", "--json"])
    # The Burau screen passes this word (each s_i^10 acts trivially on five
    # strands), so the engine runs out of letters: the accounting after a
    # budget abort stays pinned now that the flagship is decided.
    for command in COMMANDS:
        runs.append([command, "--max-letters", FLAGSHIP_CAP, "--surface", "sphere:5",
                     "--word", "[s1^10,[s2^10,[s3^10,s4^10]]]", "--json"])
    # Caps small enough that the first engine run, the word's own, asked
    # by strand 2's removal, aborts: letters_used counts only the amount
    # that crossed the cap.
    relation = "(s1 s2 s3 s4 s5 s5 s4 s3 s2 s1)^3"
    for command in ("brunnian", "certify"):
        runs.append([command, "--max-letters", "40", "--surface", "sphere:6",
                     "--word", relation, "--json"])
    runs.append(["brunnian", "--max-letters", "30", "--surface", "genus2",
                 "--word", f"({involution})^2", "--json"])
    return runs


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


if __name__ == "__main__":
    entries = []
    for argv in corpus():
        code, out = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": out})
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(entries, indent=1) + "\n", encoding="ascii")
    print(f"wrote {len(entries)} entries to {DATA}")
