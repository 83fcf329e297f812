"""The golden corpus of CLI invocations and its writer.

``python tests/golden.py`` (with ``src`` on ``PYTHONPATH``) runs every
invocation of :func:`corpus` and writes its argv, exit code and stdout to
``data/golden.json``, which ``test_golden.py`` replays byte for byte.
Rewrite the file only for an intended change of output, and say which
fields changed and why.
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
