"""Re-measure the ROADMAP's baseline table at the default letter cap.

Usage (from the repository root)::

    python3 bench/roadmap_table.py [--seed 1]

Prints one markdown row per ROADMAP entry: verdict, letters used and the
median wall time of five in-process ``cli.main`` calls.  The random-word
row draws 40 pure words on 7 strands of length 80 from the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import statistics
from time import perf_counter

import run
import workloads


def _call(cli, argv: list[str]) -> tuple[dict, float]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        cli.main(argv)
        elapsed = perf_counter() - start
    return json.loads(out.getvalue()), elapsed


def _timed(cli, argv: list[str], repeats: int = 5) -> tuple[dict, float]:
    results = [_call(cli, argv) for _ in range(repeats)]
    return results[0][0], statistics.median(t for _, t in results)


def _letters(doc: dict) -> int:
    return doc.get("letters_used", doc.get("resources", {}).get("letters_used"))


def _verdict(doc: dict) -> str:
    if "conclusion" in doc:
        return "{status} ({justification})".format(**doc["conclusion"])
    return {True: "trivial", False: "nontrivial", None: "undetermined"}[doc["trivial"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    cli = run.import_library()

    rows = []
    flagship = {(inv.surface, inv.command): inv for inv in workloads.flagship()}
    for surface, command in [("genus2", "certify"), ("sphere:6", "check"),
                             ("sphere:5", "check"), ("sphere:7", "check"),
                             ("sphere:8", "check"), ("sphere:9", "check")]:
        doc, t = _timed(cli, flagship[surface, command].argv())
        rows.append((f"flagship `{command}` on `{surface}`", _verdict(doc),
                     f"{_letters(doc):.3g}", f"{t * 1e3:.1f} ms"))
    doc, t = _timed(cli, ["check", "--surface", "sphere:6", "--word",
                          "(s1 s2 s3 s4 s5)^48", "--json"])
    rows.append(("`(s1..s5)^48` check", _verdict(doc), f"{_letters(doc):.3g}",
                 f"{t * 1e3:.1f} ms"))

    rng = random.Random(args.seed)
    letters, aborted = [], 0
    for _ in range(40):
        word = workloads.pure_word(rng, 7, 80)
        doc, _ = _call(cli, ["check", "--surface", "sphere:7", "--word",
                             workloads.render("s", word), "--json"])
        letters.append(_letters(doc))
        aborted += doc["aborted"]
    rows.append((f"40 random pure words, n = 7, L = 80, seed {args.seed}",
                 f"{aborted} undetermined",
                 f"median {statistics.median(letters):.3g}, max {max(letters):.3g}",
                 "-"))

    print("| workload | verdict | letters used | median time |")
    print("|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
