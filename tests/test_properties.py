"""Properties of the command line over generated input.

* Any text over the word alphabet (plus a non-ASCII digit), given as
  ``--word`` or on stdin, on any surface, an omitted one or a malformed
  one, makes every command return an exit code 0-3 within a time bound,
  never an exception.
* Raising the letter cap only decides verdicts that a smaller cap left
  null; it never changes a decided one.
* On genus 2, ``check`` (which reads the homology action modulo
  ``homology.SCREEN_MODULUS``), ``certify`` (which reads it exactly) and
  the definition (integral action the identity, projection trivial on
  the sphere) agree on every word.
"""

import contextlib
import io
import json
from time import perf_counter
from unittest import mock

from hypothesis import given, settings, strategies as st

from brunnian import TwistWord, is_trivial_sphere, project, rho
from brunnian.cli import main
from brunnian.homology import IDENTITY
from golden import _pure_tail, _render

import oracles

COMMANDS = st.sampled_from(["check", "brunnian", "project", "homology",
                            "certify", "example"])
SURFACES = st.sampled_from([None, "sphere:4", "sphere:5", "sphere:6",
                            "sphere:7", "genus2", "sphere:x", "torus",
                            "sphere:1001", ""])
TEXT = st.text(alphabet="sd0123456789^-[](), ²", max_size=60)


def _run(argv: list[str], stdin: str = "") -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
        code = main(argv)
    return code, out.getvalue()


@st.composite
def invocations(draw):
    """Any command's argv and stdin: an optional surface, the command's
    own option (``--n`` for example, an optional ``--mod`` for homology)
    and the text as ``--word`` or on stdin."""
    command, surface = draw(COMMANDS), draw(SURFACES)
    argv = [command, "--max-letters", "2000"]
    if surface is not None:
        argv += ["--surface", surface]
    if command == "example":
        argv += ["--n", str(draw(st.sampled_from([4, 5, 6, 7])))]
    if command == "homology":
        argv += draw(st.sampled_from([[], ["--mod", "3"], ["--mod", "4"]]))
    text = draw(TEXT)
    if draw(st.booleans()):
        return argv, text
    return argv + ["--word", text], ""


@settings(deadline=None)
@given(invocations())
def test_any_text_ends_with_a_documented_exit_code(invocation):
    start = perf_counter()
    code, _ = _run(*invocation)
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


_INVOLUTION = [1, 2, 3, 4, 5, 5, 4, 3, 2, 1]


@st.composite
def genus2_words(draw):
    """Letters of a short genus-2 word: a random prefix, made pure or not,
    with the involution inserted up to twice, and then either left as it
    is or followed by the inverse of the prefix, which leaves a power of
    the (central) involution."""
    letters = draw(st.lists(st.integers(1, 5).flatmap(
        lambda i: st.sampled_from([i, -i])), max_size=10))
    if draw(st.booleans()):
        letters += _pure_tail(6, letters)
    base = list(letters)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = _INVOLUTION
    if draw(st.booleans()):
        letters += oracles.inverse(base)
    return letters


@settings(deadline=None)
@given(genus2_words())
def test_screened_and_exact_genus2_triviality_agree(letters):
    text = _render("d", letters)
    _, out = _run(["check", "--surface", "genus2", "--word", text, "--json"])
    check = json.loads(out)["trivial"]
    _, out = _run(["certify", "--surface", "genus2", "--word", text, "--json"])
    certified = json.loads(out)["checks"]["trivial"]
    word = TwistWord(letters)
    assert check == certified == (rho(word) == IDENTITY
                                  and is_trivial_sphere(project(word)))
