"""Properties of the command line over generated input.

* Any text over the word alphabet (plus a non-ASCII digit), on any
  surface, makes ``check``, ``brunnian`` and ``certify`` return an exit
  code 0-3 within a time bound, never an exception.
* Raising the letter cap only decides verdicts that a smaller cap left
  null; it never changes a decided one.
"""

import contextlib
import io
import json
from time import perf_counter

from hypothesis import given, settings, strategies as st

from brunnian.cli import main
from golden import _pure_tail, _render

COMMANDS = st.sampled_from(["check", "brunnian", "certify"])
SURFACES = st.sampled_from(["sphere:4", "sphere:5", "sphere:6", "sphere:7",
                            "genus2"])
TEXT = st.text(alphabet="sd0123456789^-[](), ²", max_size=60)


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(deadline=None)
@given(COMMANDS, SURFACES, TEXT)
def test_any_text_ends_with_a_documented_exit_code(command, surface, text):
    start = perf_counter()
    code, _ = _run([command, "--surface", surface, "--word", text,
                    "--max-letters", "2000"])
    assert code in (0, 1, 2, 3)
    assert perf_counter() - start < 10


@st.composite
def pure_words(draw):
    """A surface and the text of a pure word on it (a random prefix plus
    the crossings that sort the strands back)."""
    surface = draw(st.sampled_from(["sphere:5", "sphere:6", "genus2"]))
    n = 6 if surface == "genus2" else int(surface.split(":")[1])
    letters = draw(st.lists(st.integers(1, n - 1).flatmap(
        lambda i: st.sampled_from([i, -i])), max_size=16))
    letters += _pure_tail(n, letters)
    return surface, _render("d" if surface == "genus2" else "s", letters)


def _verdicts(surface: str, text: str, cap: int) -> dict:
    _, out = _run(["brunnian", "--surface", surface, "--word", text,
                   "--max-letters", str(cap), "--json"])
    doc = json.loads(out)
    _, out = _run(["check", "--surface", surface, "--word", text,
                   "--max-letters", str(cap), "--json"])
    doc["check"] = json.loads(out)["trivial"]
    return doc


@settings(deadline=None)
@given(pure_words())
def test_raising_the_cap_never_flips_a_decided_verdict(word):
    low = _verdicts(*word, 500)
    high = _verdicts(*word, 50_000)
    pairs = [(low[k], high[k]) for k in ("trivial", "brunnian", "check")]
    pairs += zip(low["per_strand"], high["per_strand"])
    for before, after in pairs:
        assert before is None or after == before
