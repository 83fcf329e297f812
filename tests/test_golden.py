"""Golden corpus: the CLI's stdout and exit code, byte for byte.

``data/golden.json`` (written by ``golden.py``) lists CLI invocations
with the exit code and the exact stdout each one produced.  The corpus
covers ``check``, ``brunnian`` and ``certify`` on the nested-commutator
flagship at a 30000-letter cap (so the accounting after a budget abort
is pinned), full twists, powers of the genus-2 chain and of the
hyperelliptic involution, and seeded random pure sphere words and
genus-2 words.  Any change to a certificate, a verdict or
``letters_used`` shows up here as a byte difference.
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
