import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from brunnian import BraidWord, TwistWord, cli, rho
from brunnian.certificate import _decimal
from brunnian.cli import main
from brunnian.errors import PreconditionError
from brunnian.homology import mod

NESTED = "[d1^6,[d2^6,[d3^6,[d4^6,d5^6]]]]"
NESTED_SPHERE = "[s1^6,[s2^6,[s3^6,[s4^6,s5^6]]]]"
# Each s_i^10 acts trivially in the Burau screen on five strands, so the
# screen passes this word to the engine, which outgrows a small cap.
SCREEN_BLIND = "[s1^10,[s2^10,[s3^10,s4^10]]]"
RELATION = "s1 s2 s3 s4 s5 s5 s4 s3 s2 s1"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestCheck:
    def test_relation_word_trivial(self, capsys):
        code, out, _ = run(capsys, "check", "--surface", "sphere:6",
                           "--word", RELATION)
        assert code == 0
        assert out.strip() == "trivial"

    def test_json_document(self, capsys):
        code, doc, _ = run_json(capsys, "check", "--surface", "sphere:6",
                                "--word", RELATION)
        assert code == 0
        assert doc["trivial"] is True
        assert doc["aborted"] is False
        assert doc["surface"] == "sphere:6"

    def test_genus2_involution_nontrivial(self, capsys):
        code, out, _ = run(capsys, "check", "--surface", "genus2",
                           "--word", "d1 d2 d3 d4 d5^2 d4 d3 d2 d1")
        assert code == 0
        assert out.strip() == "nontrivial"

    def test_budget_abort_exit_code(self, capsys):
        code, doc, _ = run_json(capsys, "check", "--surface", "sphere:5",
                                "--word", SCREEN_BLIND, "--max-letters", "10000")
        assert code == 3
        assert doc["trivial"] is None
        assert doc["aborted"] is True

    def test_small_sphere_rejected(self, capsys):
        code, _, err = run(capsys, "check", "--surface", "sphere:3",
                           "--word", "s1^2")
        assert code == 2
        assert "precondition" in err


class TestBrunnianCommand:
    def test_nested_commutator(self, capsys):
        code, doc, _ = run_json(capsys, "brunnian", "--surface", "genus2",
                                "--word", NESTED)
        assert code == 0
        assert doc["per_strand"] == [True] * 6
        assert doc["brunnian"] is True
        assert doc["trivial"] is False

    def test_non_brunnian_word(self, capsys):
        code, doc, _ = run_json(capsys, "brunnian", "--surface", "sphere:6",
                                "--word", "s1^6")
        assert code == 0
        assert doc["brunnian"] is False
        assert doc["per_strand"] == [True, True, False, False, False, False]


    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_genus2_verdict_agrees_with_check(self, capsys, k):
        # Odd powers of the involution project to trivial sphere classes
        # but are nontrivial on the genus-2 surface.
        word = f"(d1 d2 d3 d4 d5 d5 d4 d3 d2 d1)^{k}"
        _, checked, _ = run_json(capsys, "check", "--surface", "genus2",
                                 "--word", word)
        _, brunnian, _ = run_json(capsys, "brunnian", "--surface", "genus2",
                                  "--word", word)
        assert checked["trivial"] is False
        assert brunnian["trivial"] is False
        assert brunnian["brunnian"] is True


class TestProjectAndHomology:
    def test_project(self, capsys):
        code, doc, _ = run_json(capsys, "project", "--word", "d1 d5^-1")
        assert code == 0
        assert doc["projection"] == "s1 s5^-1"
        assert doc["n"] == 6

    def test_project_rejects_sphere(self, capsys):
        code, _, err = run(capsys, "project", "--surface", "sphere:6",
                           "--word", "s1")
        assert code == 2

    def test_homology_integral(self, capsys):
        code, doc, _ = run_json(capsys, "homology", "--word",
                                "d1 d2 d3 d4 d5^2 d4 d3 d2 d1")
        assert code == 0
        assert doc["mod"] is None
        assert doc["matrix"] == [["-1", "0", "0", "0"],
                                 ["0", "-1", "0", "0"],
                                 ["0", "0", "-1", "0"],
                                 ["0", "0", "0", "-1"]]
        assert doc["charpoly"] == ["1", "4", "6", "4", "1"]
        assert doc["identity"] is False

    def test_homology_mod_3(self, capsys):
        code, doc, _ = run_json(capsys, "homology", "--mod", "3",
                                "--word", NESTED)
        assert code == 0
        assert doc["mod"] == 3
        assert doc["identity"] is True
        assert doc["matrix"] == [[1 if i == j else 0 for j in range(4)]
                                 for i in range(4)]

    def test_homology_composite_modulus(self, capsys):
        code, doc, _ = run_json(capsys, "homology", "--mod", "6",
                                "--word", "d1")
        assert code == 0
        assert doc["mod"] == 6
        assert doc["matrix"] == [list(row) for row in mod(rho(TwistWord((1,))), 6)]

    @pytest.mark.parametrize("modulus, code", [
        ("1000000000000000003", 0),           # prime
        ("1000000016000000063", 0),           # 1000000007 * 1000000009
        (str(2 ** 63 - 1), 0),                # the largest modulus
        (str(2 ** 63), 2),
        ("3317044064679887385961981", 2),     # a prime above 2^63
        ("9" * 4300, 2),                      # the most digits that parse
    ], ids=lambda v: f"{len(v)}-digits" if len(str(v)) > 30 else None)
    def test_huge_modulus_decided_quickly(self, modulus, code):
        done = subprocess.run(
            [sys.executable, "-m", "brunnian.cli", "homology", "--word", "d1",
             "--mod", modulus], capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": SRC})
        assert done.returncode == code
        assert "Traceback" not in done.stderr


class TestCertify:
    def test_genus2_nested_commutator(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "--surface", "genus2",
                                "--word", NESTED)
        assert code == 0
        assert doc["schema"] == "brunnian-cert/1"
        assert doc["conclusion"] == {"status": "pseudo_anosov",
                                     "justification": "theorem-1.2"}
        assert doc["checks"]["rho_mod3_identity"] is True
        assert doc["checks"]["brunnian_per_strand"] == [True] * 6
        assert doc["resources"]["aborted"] is False
        assert doc["input"] == NESTED
        assert doc["length"] == 276

    def test_sphere_nested_commutator(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "--surface", "sphere:6",
                                "--word", NESTED_SPHERE)
        assert code == 0
        assert doc["conclusion"] == {"status": "pseudo_anosov",
                                     "justification": "theorem-1.1"}
        assert "rho_integral" not in doc["checks"]
        assert doc["surface"] == {"kind": "sphere", "n": 6}

    def test_involution_undetermined(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "--surface", "genus2",
                                "--word", "d1 d2 d3 d4 d5^2 d4 d3 d2 d1")
        assert code == 0
        assert doc["conclusion"]["status"] == "undetermined"
        assert doc["checks"]["rho_mod3_identity"] is False

    def test_empty_word_trivial(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "--surface", "sphere:6",
                                "--word", "")
        assert code == 0
        assert doc["conclusion"]["status"] == "trivial"

    def test_abort_reported_in_band(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "--surface", "sphere:5",
                                "--word", SCREEN_BLIND, "--max-letters", "100000")
        assert code == 3
        assert doc["resources"]["aborted"] is True
        assert doc["conclusion"]["status"] == "undetermined"
        assert doc["checks"]["trivial"] is None

    def test_human_summary(self, capsys):
        code, out, _ = run(capsys, "certify", "--surface", "genus2",
                           "--word", NESTED)
        assert code == 0
        assert out.strip() == "status=pseudo_anosov justification=theorem-1.2"


class TestAbortAccounting:
    # Removing strand 1 leaves the empty word; strand 2's engine run crosses
    # the cap.  Later strands are not tried, and the word itself still tries
    # the engine, but an exhausted budget charges nothing more, so
    # letters_used stops at the amount that crossed.
    @pytest.mark.parametrize("command, surface, word, cap, used", [
        ("brunnian", "sphere:6", f"({RELATION})^3", "40", 42),
        ("certify", "sphere:6", f"({RELATION})^3", "40", 42),
        ("brunnian", "genus2", f"({RELATION.replace('s', 'd')})^2", "30", 32),
    ])
    def test_nothing_is_charged_after_the_first_abort(
            self, capsys, command, surface, word, cap, used):
        code, doc, _ = run_json(capsys, command, "--surface", surface,
                                "--word", word, "--max-letters", cap)
        assert code == 3
        assert doc.get("resources", doc)["letters_used"] == used

    @pytest.mark.parametrize("surface, word, cap", [
        ("sphere:6", f"({RELATION})^3", "40"),
        ("genus2", f"({RELATION.replace('s', 'd')})^2", "30"),
    ], ids=["sphere", "genus2"])
    def test_no_strand_is_removed_after_the_abort(
            self, capsys, monkeypatch, surface, word, cap):
        removed = []
        remove_strand = BraidWord.remove_strand

        def counted(self, i):
            removed.append(i)
            return remove_strand(self, i)

        monkeypatch.setattr(BraidWord, "remove_strand", counted)
        code, doc, _ = run_json(capsys, "brunnian", "--surface", surface,
                                "--word", word, "--max-letters", cap)
        assert code == 3
        assert removed == [1, 2]
        assert doc["per_strand"] == [True] + [None] * 5

    def test_full_twist_on_a_thousand_strands_aborts_quickly(self):
        # Every removal of the full twist is a full twist, which the Burau
        # screen passes and the engine cannot finish under the default cap;
        # after the first abort no removal is built or screened.
        word = "(" + " ".join(f"s{i}" for i in range(1, 1000)) + ")^1000"
        done = subprocess.run(
            [sys.executable, "-m", "brunnian.cli", "brunnian",
             "--surface", "sphere:1000", "--word", word],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": SRC})
        assert done.returncode == 3
        assert "Traceback" not in done.stderr


class TestExample:
    def test_sphere_example(self, capsys):
        code, doc, _ = run_json(capsys, "example", "--n", "5")
        assert code == 0
        assert doc["length"] == 132
        assert doc["surface"] == "sphere:5"

    def test_genus2_example(self, capsys):
        code, doc, _ = run_json(capsys, "example", "--n", "6",
                                "--surface", "genus2")
        assert code == 0
        assert doc["word"].startswith("d1^6 d2^6")

    def test_genus2_needs_six(self, capsys):
        code, _, err = run(capsys, "example", "--n", "5",
                           "--surface", "genus2")
        assert code == 2

    def test_too_few_strands(self, capsys):
        code, _, err = run(capsys, "example", "--n", "4")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("example", "--n", "1001"), "a braid has at most 1000 strands"),
        (("check", "--surface", "sphere:1001", "--word", "s1"),
         "a braid has at most 1000 strands"),
        (("check", "--surface", "sphere:1", "--word", "s1"),
         "a braid needs at least two strands"),
    ], ids=["example-1001", "sphere-1001", "sphere-1"])
    def test_strand_count_refused_by_the_braid(self, capsys, argv, message):
        # BraidWord's constructor holds the one strand-count rule.
        assert run(capsys, *argv) == (2, "", f"precondition violated: {message}\n")


def run_subprocess(*argv, env=(), **options):
    """The CLI in a fresh interpreter, so a hang or a memory blow-up is
    a test failure rather than a stuck run; ``env`` adds variables and
    ``options`` go to subprocess.run."""
    return subprocess.run(
        [sys.executable, "-m", "brunnian.cli", *argv], capture_output=True,
        text=True, timeout=20, env={**os.environ, "PYTHONPATH": SRC, **dict(env)},
        **options)


FORTY_DIGITS = "1234567890" * 4


class TestResourceBounds:
    @pytest.mark.parametrize("argv", [
        ("check", "--surface", "sphere:1000000000", "--word", "s1"),
        ("check", "--surface", "sphere:" + FORTY_DIGITS, "--word", "s1"),
        ("brunnian", "--surface", "sphere:1001", "--word", "s1 s1^-1"),
        ("example", "--n", FORTY_DIGITS),
        ("example", "--n", FORTY_DIGITS, "--surface", "genus2"),
    ], ids=["check-1e9", "check-40-digits", "brunnian-1001",
            "example-40-digits", "example-genus2-40-digits"])
    def test_strand_count_is_bounded(self, argv):
        done = run_subprocess(*argv)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("precondition violated")

    def test_largest_strand_count_runs(self, capsys):
        code, out, _ = run(capsys, "check", "--surface", "sphere:1000",
                           "--word", "s999 s999^-1")
        assert (code, out) == (0, "trivial\n")

    @pytest.mark.parametrize("argv", [
        ("example", "--n", "22"),
        ("example", "--n", "9", "--max-letters", "2291"),
    ], ids=["n22-default-cap", "n9-one-letter-short"])
    def test_example_over_the_letter_cap_aborts(self, argv):
        done = run_subprocess(*argv)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr.startswith("resource cap:")

    # Parsing holds an expanded power as a list once its charge fits the
    # cap, so this cap lets one token ask for 8 * 10^11 bytes.  The child
    # runs under an 800 MB address-space limit, where the allocation fails
    # at once; without it an overcommitting kernel could grant the list
    # lazily and page it in until the machine runs out of memory.
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs Linux's RLIMIT_AS")
    def test_out_of_memory_is_a_resource_cap(self):
        import resource
        limit = 800 * 2 ** 20

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        done = run_subprocess("check", "--surface", "sphere:5",
                              "--word", "s1^100000000000",
                              "--max-letters", "1000000000000",
                              preexec_fn=cap_memory)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "resource cap: out of memory\n"

    def test_example_at_the_letter_cap_runs(self):
        done = run_subprocess("example", "--n", "9", "--max-letters", "2292",
                              "--json")
        assert done.returncode == 0
        assert json.loads(done.stdout)["length"] == 2292

    # (d1 d2^-1)^k has homology entries of about 1.39 k bits: 14,579 bits
    # at k = 10500 (4389 digits) and 13,885 at k = 10000.
    @pytest.mark.parametrize("argv", [
        ("homology",),
        ("homology", "--json"),
        ("certify", "--surface", "genus2"),
        ("certify", "--surface", "genus2", "--json"),
    ], ids=["homology", "homology-json", "certify", "certify-json"])
    def test_oversized_homology_entries_are_refused(self, argv):
        done = run_subprocess(*argv, "--word", "(d1 d2^-1)^10500")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("precondition violated")
        assert "Traceback" not in done.stderr

    # rho refuses the word once an entry passes 14,000 bits, so its
    # quadratic cost on a long pseudo-Anosov power stops there.  Only the
    # commands that print the integral action compute it.
    @pytest.mark.parametrize("argv", [
        ("homology",),
        ("certify", "--surface", "genus2"),
    ], ids=["homology", "certify"])
    def test_long_pseudo_anosov_powers_are_refused(self, argv):
        for power in (12000, 200000):
            done = run_subprocess(*argv, "--word", f"(d1 d2^-1)^{power}")
            assert (done.returncode, done.stdout) == (2, "")
            assert done.stderr.startswith("precondition violated")
            assert "Traceback" not in done.stderr

    # Verdicts read the action modulo homology.SCREEN_MODULUS, which is
    # never refused: (d1 d2^-1)^12000 has entries of 14,040 bits.
    @pytest.mark.parametrize("power", [12000, 200000])
    def test_long_pseudo_anosov_powers_are_decided(self, power):
        done = run_subprocess("check", "--surface", "genus2",
                              "--word", f"(d1 d2^-1)^{power}")
        assert (done.returncode, done.stdout) == (0, "nontrivial\n")

    def test_long_pure_power_strand_checks_are_decided(self):
        # The word is nontrivial by its screened action alone.  Forgetting
        # strand 4, 5 or 6 of its projection leaves a pseudo-Anosov
        # five-strand word, which the Burau screen proves nontrivial.
        done = run_subprocess("brunnian", "--surface", "genus2",
                              "--word", "(d1 d2^-1)^12000", "--json")
        assert done.returncode == 0
        doc = json.loads(done.stdout)
        assert doc["per_strand"] == [True] * 3 + [False] * 3
        assert (doc["brunnian"], doc["trivial"], doc["aborted"]) == (False, False, False)
        assert doc["letters_used"] == 24001  # the parse charge alone

    # Sphere words are never refused for their homology entries: the Burau
    # screen reduces modulo a prime as it goes.  (s1 s2^-1)^10500 is pure,
    # with genus-2 lift entries of 14,579 bits.
    def test_long_sphere_words_are_decided(self, capsys):
        word = ("--word", "(s1 s2^-1)^10500")
        code, out, _ = run(capsys, "check", "--surface", "sphere:6", *word)
        assert (code, out) == (0, "nontrivial\n")
        # Forgetting any of strands 4..7 leaves the same six-strand word;
        # the screen also proves the seven-strand word itself nontrivial.
        code, doc, _ = run_json(capsys, "brunnian", "--surface", "sphere:7", *word)
        assert (code, doc["aborted"]) == (0, False)
        assert doc["per_strand"] == [True] * 3 + [False] * 4
        assert (doc["brunnian"], doc["trivial"]) == (False, False)

    def test_check_answers_below_the_entry_bound(self):
        done = run_subprocess("check", "--surface", "genus2",
                              "--word", "(d1 d2^-1)^10000")
        assert (done.returncode, done.stdout) == (0, "nontrivial\n")

    @pytest.mark.parametrize("argv", [
        ("homology", "--json"),
        ("certify", "--surface", "genus2", "--json"),
    ], ids=["homology", "certify"])
    def test_largest_homology_entries_print_under_any_digit_limit(self, argv):
        word = ("--word", "(d1 d2^-1)^10000")
        default = run_subprocess(*argv, *word)
        lowest = run_subprocess(*argv, *word,
                                env={"PYTHONINTMAXSTRDIGITS": "640"})
        assert (default.returncode, lowest.returncode) == (0, 0)
        assert lowest.stdout == default.stdout
        doc = json.loads(default.stdout)
        matrix = doc["matrix"] if "matrix" in doc else doc["checks"]["rho_integral"]
        assert max(len(x) for row in matrix for x in row) > 4000


class TestDecimal:
    def test_agrees_with_str(self):
        rng = random.Random(811)
        values = [0, 1, -1, 10 ** 500, -(10 ** 500), 10 ** 1000 - 1,
                  2 ** 14000 - 1, -(2 ** 14000 - 1)]
        values += [rng.getrandbits(rng.randint(1, 14000)) * rng.choice((1, -1))
                   for _ in range(200)]
        for value in values:
            assert _decimal(value) == str(value)

    @pytest.mark.parametrize("value", [2 ** 14000, -(2 ** 14000)])
    def test_refuses_above_the_bound(self, value):
        with pytest.raises(PreconditionError):
            _decimal(value)


class TestErrorsAndInput:
    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "check", "--surface", "sphere:6",
                           "--word", "s9")
        assert code == 1
        assert "parse error" in err

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run(capsys, "check", "--word", "s1")
        assert code == 1
        assert "usage error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "check", "--nope")
        assert code == 1

    def test_stdin_word(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(RELATION + "\n"))
        code, out, _ = run(capsys, "check", "--surface", "sphere:6")
        assert code == 0
        assert out.strip() == "trivial"

    def test_bad_max_letters(self, capsys):
        code, _, err = run(capsys, "check", "--surface", "sphere:6",
                           "--word", "s1", "--max-letters", "0")
        assert code == 1

    @pytest.mark.parametrize("cap", [str(2 ** 63), "1" + "0" * 30])
    def test_max_letters_above_the_range(self, capsys, cap):
        # letter_cap prints as a JSON integer, so it stays below 2^63.
        code, out, err = run(capsys, "check", "--surface", "sphere:6",
                             "--word", "s1", "--max-letters", cap, "--json")
        assert (code, out) == (1, "")
        assert err == "usage error: --max-letters must be at most 2^63 - 1\n"

    def test_max_letters_at_the_top_of_the_range(self, capsys):
        code, doc, _ = run_json(capsys, "check", "--surface", "sphere:6",
                                "--word", RELATION,
                                "--max-letters", str(2 ** 63 - 1))
        assert (code, doc["trivial"], doc["letter_cap"]) == (0, True, 2 ** 63 - 1)

    @pytest.mark.parametrize("argv, expected, message", [
        (("check", "--max-letters", "0"), 1,
         "usage error: check requires --surface"),
        (("check", "--surface", "torus", "--max-letters", "0"), 1,
         "parse error: unknown surface 'torus'; use sphere:N or genus2"),
        (("project", "--surface", "sphere:6", "--max-letters", "0"), 2,
         "precondition violated: project takes a genus-2 word"),
        (("homology", "--surface", "sphere:6", "--word", "d1^"), 2,
         "precondition violated: homology takes a genus-2 word"),
        (("homology", "--max-letters", "0", "--word", "d1^"), 1,
         "usage error: --max-letters must be positive"),
        (("brunnian", "--surface", "sphere:5", "--max-letters", "0"), 1,
         "usage error: --max-letters must be positive"),
        # The parse comes before the five-puncture precondition.
        (("certify", "--surface", "sphere:4", "--word", "s1^"), 1,
         "parse error: expected 'int', found end of input (at position 3)"),
        (("example", "--n", "6", "--word", "s1"), 1,
         "usage error: example takes no --word; it builds its own"),
        # An empty surface is refused, not read as the default.
        *(((command, "--surface", "", *extra), 1,
           "parse error: unknown surface ''; use sphere:N or genus2")
          for command, extra in [
              ("check", ("--max-letters", "0")), ("brunnian", ()),
              ("certify", ()), ("project", ("--word", "d1")),
              ("homology", ("--word", "d1")), ("example", ("--n", "6"))]),
    ])
    def test_first_refusal_wins(self, capsys, monkeypatch, argv, expected,
                                message):
        """Surface, then letter cap, then the word; stdin is never read
        before the surface and the cap are accepted."""
        class Unread:
            def read(self):
                pytest.fail("stdin read before an earlier refusal")

        monkeypatch.setattr("sys.stdin", Unread())
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (expected, "", message + "\n")

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("[", ",s1]")])
    @pytest.mark.parametrize("depth", [400, 10000])
    def test_deep_nesting_is_a_parse_error(self, capsys, depth, opener, closer):
        word = opener * depth + "s1" + closer * depth
        code, out, err = run(capsys, "check", "--surface", "sphere:5",
                             "--word", word)
        assert code == 1
        assert err.startswith("parse error") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        *(("check", "--surface", "sphere:5", "--word", word) for word in (
            "s\u00b2", "s1^\u00b2",           # superscript two
            "s\u0661",                         # Arabic-Indic digit one
            "s1^" + "9" * 5000, "s1^-" + "9" * 5000, "s" + "1" * 5000)),
        *(("check", "--surface", surface, "--word", "s1 s1^-1") for surface in (
            "sphere:\u0665", "sphere:5_0", "sphere: 5", "sphere:+5",
            "sphere:" + "9" * 5000)),
        *(("check", "--surface", "sphere:5", "--word", "s1",
           "--max-letters", cap) for cap in ("\u0665\u0660\u0660", " 500 ")),
        ("homology", "--mod", "\u0663", "--word", "d1"),
        ("example", "--n", "\u0665"),
    ], ids=["gen-sup2", "exp-sup2", "arabic-indic", "long-exp",
            "long-neg-exp", "long-index", "surface-arabic-indic",
            "surface-underscore", "surface-space", "surface-plus",
            "surface-long", "max-letters-arabic-indic", "max-letters-spaces",
            "mod-arabic-indic", "n-arabic-indic"])
    def test_only_ascii_digits_of_convertible_length_parse(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(("parse error", "usage error"))
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, expected", [
        (("check", "--surface", "sphere:50", "--word", "s1 s1^-1"), 0),
        (("check", "--surface", "sphere:-3", "--word", "s1"), 2),
        (("check", "--surface", "sphere:5", "--word", "s1",
          "--max-letters", "-500"), 1),
        (("homology", "--mod", "-3", "--word", "d1"), 2),
        (("example", "--n", "-5"), 2),
    ])
    def test_ascii_integers_keep_their_exit_codes(self, capsys, argv, expected):
        code, _, err = run(capsys, *argv)
        assert code == expected
        assert "Traceback" not in err

    def test_huge_power_of_the_empty_word(self, capsys):
        code, out, _ = run(capsys, "check", "--surface", "sphere:5",
                           "--word", "()^" + "9" * 30)
        assert (code, out) == (0, "trivial\n")

    def test_moderate_nesting_parses(self, capsys):
        word = "(" * 50 + "s1" + ")" * 50
        code, out, _ = run(capsys, "check", "--surface", "sphere:5",
                           "--word", word)
        assert (code, out) == (0, "nontrivial\n")


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "certify", "--surface", "genus2",
                               "--word", NESTED, "--json")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_no_floats_in_emitted_json(self, capsys):
        _, doc, _ = run_json(capsys, "certify", "--surface", "genus2",
                             "--word", NESTED)

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)

        walk(doc)


BRAID_RELATION = "s1 s2 s1 s2^-1 s1^-1 s2^-1"

# Commands whose options differ, interleaved so that a default left behind
# by one call (``--mod``, ``--max-letters``) would show in the next.
INTERLEAVED = [
    ("homology", "--mod", "5", "--word", "d1 d2"),
    ("homology", "--word", "d1 d2"),
    ("check", "--surface", "sphere:5", "--word", BRAID_RELATION,
     "--max-letters", "3"),
    ("check", "--surface", "sphere:5", "--word", BRAID_RELATION, "--json"),
    ("check", "--surface", "sphere:5", "--mod", "5", "--word", "s1"),
    ("check", "--word", "s1"),
    ("example", "--n", "6"),
    ("homology", "--mod", "5", "--word", "d1 d2", "--json"),
    ("brunnian", "--surface", "sphere:6", "--word", "s1^6", "--json"),
    ("example", "--n", "5", "--json"),
]


class TestCachedParser:
    def test_interleaved_commands_match_a_fresh_parser(self, capsys,
                                                       monkeypatch):
        cached = [run(capsys, *argv) for argv in INTERLEAVED]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run(capsys, *argv) for argv in INTERLEAVED]
        assert cached == fresh
        assert [code for code, _, _ in cached] == [0, 0, 3, 0, 1, 1, 0, 0, 0, 0]

    def test_parser_is_built_once(self, capsys):
        cli._build_parser.cache_clear()
        for argv in INTERLEAVED * 3:
            run(capsys, *argv)
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3 * len(INTERLEAVED) - 1)

    def test_import_builds_no_parser(self):
        probe = ("import brunnian.cli as cli; "
                 "print(cli._build_parser.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, timeout=20,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert (done.returncode, done.stdout) == (0, "0\n")

    @pytest.mark.parametrize("argv, usage", [
        (("--help",), "usage: brunnian [-h]"),
        (("check", "--help"), "usage: brunnian check [-h]"),
    ], ids=["main", "check"])
    def test_help_returns_zero_and_main_still_runs(self, capsys, argv, usage):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith(usage)
        assert run(capsys, "check", "--surface", "sphere:6",
                   "--word", RELATION) == (0, "trivial\n", "")


def run_bytes(*argv, env=(), **streams):
    """The console entry point in a fresh interpreter, with byte streams;
    ``env`` adds variables and ``streams`` sets stdin and stdout."""
    return subprocess.Popen(
        [sys.executable, "-m", "brunnian.cli", *argv],
        env={**os.environ, "PYTHONPATH": SRC, **dict(env)},
        stderr=subprocess.PIPE, **streams)


class TestStreamFailures:
    """A stream the CLI cannot use ends with an exit code, not a traceback."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs the /dev/full device")
    @pytest.mark.parametrize("argv", [
        ("example", "--n", "18", "--json"),         # fails inside main
        ("check", "--surface", "sphere:5", "--word", "s1"),  # fails at flush
    ], ids=["large", "small"])
    def test_full_disk(self, argv):
        with open("/dev/full", "wb") as full:
            proc = run_bytes(*argv, stdout=full)
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err.decode() == "output error: [Errno 28] No space left on device\n"

    def test_broken_pipe(self):
        # About 1.3 MB of output, far more than a pipe buffer holds, so the
        # writer meets the closed read end.
        proc = run_bytes("example", "--n", "18", stdout=subprocess.PIPE)
        assert proc.stdout.read(20) == b"s1^6 s2^6 s3^6 s4^6 "
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err.decode() == "output error: [Errno 32] Broken pipe\n"

    def test_undecodable_stdin(self):
        proc = run_bytes("check", "--surface", "sphere:5",
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         env={"PYTHONIOENCODING": "utf-8:strict"})
        out, err = proc.communicate(b"\xff s1", timeout=60)
        assert (proc.returncode, out) == (1, b"")
        assert err.decode() == ("parse error: stdin is not valid utf-8: "
                                "invalid start byte\n")
