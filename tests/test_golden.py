"""Golden corpus: the CLI's stdout and exit code, byte for byte.

``data/golden.json`` (written by ``golden.py``) lists CLI invocations
with the exit code and the exact stdout each one produced.  The corpus
covers ``check``, ``brunnian`` and ``certify`` on the nested-commutator
flagship at a 30000-letter cap, and at the same cap on a five-strand
commutator of tenth powers that the Burau screen passes (so the
accounting after a budget abort is pinned), at caps of 40 and 30 on
trivial words whose own engine run, asked by the first removal that
needs the engine, crosses the cap, full twists, powers of the genus-2
chain and of the hyperelliptic involution (trivial words, whose
``letters_used`` pins one engine run in place of one per removal),
long powers u^m at a 5000-letter cap that only the engine run on
the least pure power of u fits in, and seeded random pure sphere words and genus-2
words.  It also pins ``project`` (the genus-2 flagship and a
seeded random twist word), ``homology`` exact and modulo 3, 7 and
2^61 - 1, ``example`` on ``sphere:5..9`` and ``genus2``, each in text
and JSON, and the exit code of refused surfaces (``sphere:1``,
``sphere:1001``, a sphere given to ``project``, an ``example`` whose
surface and ``--n`` disagree).  Any change to a certificate, a verdict,
a rendered word or ``letters_used`` shows up here as a byte
difference.  Every JSON
integer in the corpus fits in a signed 64-bit integer; larger values
print as decimal strings.
"""

import json

import pytest

from golden import DATA, corpus, run

ENTRIES = json.loads(DATA.read_text(encoding="ascii"))


def test_stored_invocations_are_the_generated_corpus():
    # An edit to corpus() must come with a regenerated data file.
    assert [entry["argv"] for entry in ENTRIES] == corpus()


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=lambda e: "-".join(e["argv"][:3]))
def test_output_is_byte_identical(entry):
    assert run(entry["argv"]) == (entry["exit"], entry["stdout"])


def _integers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _integers(item)]
    return [value] if type(value) is int else []


def test_every_json_integer_fits_in_64_bits():
    documents = [json.loads(entry["stdout"]) for entry in ENTRIES
                 if "--json" in entry["argv"] and entry["stdout"]]
    numbers = [x for doc in documents for x in _integers(doc)]
    assert numbers and all(-2 ** 63 <= x < 2 ** 63 for x in numbers)
