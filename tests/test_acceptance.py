"""Acceptance criteria, one test per criterion.

Each test prints one PASS line once its assertions hold; a failed
assertion fails the test (and the suite), so a FAIL is never printed as
PASS.  Runtime bounds are part of the criteria and are asserted.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from brunnian import (
    LetterBudget,
    TwistWord,
    brunnian_check,
    brunnian_example,
    certify_pa_genus2,
    charpoly,
    involution_word,
    is_trivial_genus2,
    is_trivial_sphere,
    membership_theorem12,
    project,
    rho,
    rho_mod,
)
from brunnian.braid import _action_table
from brunnian.homology import IDENTITY, NEG_IDENTITY, mod
from brunnian.cli import main
from brunnian.genus2 import commutator

import oracles

SRC = str(Path(__file__).resolve().parent.parent / "src")


def preserves_form(rows):
    """M^T J M == J, re-derived with the oracles' arithmetic."""
    transpose = tuple(zip(*rows))
    return oracles.mat_mul(oracles.mat_mul(transpose, oracles.J), rows) == oracles.J

RELATION = "s1 s2 s3 s4 s5 s5 s4 s3 s2 s1"
FULL_TWIST = "(s1 s2 s3 s4 s5)^6"
NESTED = "[d1^6,[d2^6,[d3^6,[d4^6,d5^6]]]]"
NESTED_SPHERE = "[s1^6,[s2^6,[s3^6,[s4^6,s5^6]]]]"


def nested_commutator():
    return TwistWord(brunnian_example(6).letters)


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_sphere_relation_and_full_twist(capsys):
    start = time.monotonic()
    code = main(["check", "--surface", "sphere:6", "--word", RELATION])
    out = capsys.readouterr().out.strip()
    assert code == 0 and out == "trivial"
    relation_elapsed = time.monotonic() - start

    start = time.monotonic()
    code = main(["check", "--surface", "sphere:6", "--word", FULL_TWIST])
    out = capsys.readouterr().out.strip()
    assert code == 0 and out == "trivial"
    twist_elapsed = time.monotonic() - start

    assert relation_elapsed < 10.0 and twist_elapsed < 10.0
    with capsys.disabled():
        _report(1, f"sphere relation and full twist trivial "
                   f"({relation_elapsed:.2f}s, {twist_elapsed:.2f}s)")


def test_criterion_2_involution(capsys):
    start = time.monotonic()
    inv = involution_word()
    assert rho(inv) == NEG_IDENTITY
    assert rho(inv.power(2)) == IDENTITY
    assert is_trivial_sphere(project(inv))
    assert is_trivial_genus2(inv) is False
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _report(2, f"involution checks exact ({elapsed:.3f}s)")


def test_criterion_3_genus2_flagship(capsys):
    start = time.monotonic()
    word = nested_commutator()

    membership = membership_theorem12(word)
    assert membership.per_strand == (True,) * 6                 # (a)
    assert rho_mod(word, 3) == IDENTITY                         # (b)
    assert rho(word) != IDENTITY                                # (c)

    code = main(["certify", "--surface", "genus2", "--word", NESTED, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["conclusion"] == {"status": "pseudo_anosov",
                                 "justification": "theorem-1.2"}          # (d)
    assert doc["resources"]["aborted"] is False
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    with capsys.disabled():
        _report(3, f"genus-2 nested commutator fully certified ({elapsed:.2f}s)")


def test_criterion_4_sphere_flagship(capsys):
    start = time.monotonic()
    code = main(["certify", "--surface", "sphere:6",
                 "--word", NESTED_SPHERE, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["conclusion"] == {"status": "pseudo_anosov",
                                 "justification": "theorem-1.1"}
    assert doc["checks"]["brunnian_per_strand"] == [True] * 6
    assert doc["checks"]["trivial"] is False
    assert doc["resources"]["aborted"] is False
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    with capsys.disabled():
        _report(4, f"sphere projection certified ({elapsed:.2f}s)")


def test_criterion_5_representation_sanity(capsys):
    def action(n, letters):
        return [oracles.unpack(n - 1, image)
                for image in _action_table(n, letters, LetterBudget())]

    checked = 0
    # Braid relations and far commutation in the fundamental-group action.
    for n in range(3, 9):
        for i in range(1, n - 1):
            assert action(n, (i, i + 1, i)) == action(n, (i + 1, i, i + 1))
        for i in range(1, n):
            for j in range(i + 2, n):
                assert action(n, (i, j)) == action(n, (j, i))
    # The same relations in the homology representation.
    for i in range(1, 5):
        assert rho(TwistWord((i, i + 1, i))) == rho(TwistWord((i + 1, i, i + 1)))
    for i in range(1, 6):
        for j in range(1, 6):
            if abs(i - j) >= 2:
                assert rho(TwistWord((i, j))) == rho(TwistWord((j, i)))

    rng = random.Random(20260808)
    for _ in range(220):
        word = TwistWord(
            oracles.random_letters(rng, 5, rng.randint(0, 18)))
        matrix = rho(word)
        assert preserves_form(matrix)
        assert oracles.leibniz_det4(matrix) == 1
        assert rho_mod(word, 3) == mod(matrix, 3)
        q = charpoly(matrix)
        assert q == q[::-1]
        checked += 1
    assert checked >= 200
    with capsys.disabled():
        _report(5, f"representation sanity on {checked} randomized words")


def test_criterion_6_disk_model_oracle(capsys):
    total = 0
    for n in (4, 5):
        rng = random.Random(900 + n)
        k = n - 1
        from brunnian import BraidWord

        words = [oracles.random_pure_braid(rng, n, 12, max_gen=n - 2)
                 for _ in range(50)]
        twist = BraidWord(n, list(range(1, k)) * k)
        words += [twist, BraidWord(n)]
        for word in words:
            assert is_trivial_sphere(word) == oracles.disk_model_trivial(
                k, word.letters)
            total += 1
    with capsys.disabled():
        _report(6, f"disk-model oracle agreement on {total} words")


def test_criterion_7_normality_and_centrality(capsys):
    rng = random.Random(777)
    word = nested_commutator()
    for _ in range(10):
        g = TwistWord(
            oracles.random_letters(rng, 5, rng.randint(1, 8)))
        conjugated = g * word * g.invert()
        membership = membership_theorem12(conjugated)
        assert membership.brunnian is True
        assert membership.rho_mod3_identity is True
        assert membership.trivial is False
        sphere_report = brunnian_check(project(conjugated))
        assert sphere_report.brunnian is True

    inv = involution_word()
    for _ in range(20):
        w = TwistWord(
            oracles.random_letters(rng, 5, rng.randint(0, 10)))
        assert is_trivial_genus2(commutator(inv, w))
    with capsys.disabled():
        _report(7, "normality and centrality invariants hold")


def test_criterion_8_deterministic_json(capsys):
    commands = [
        ["check", "--surface", "sphere:6", "--word", RELATION, "--json"],
        ["check", "--surface", "sphere:6", "--word", FULL_TWIST, "--json"],
        ["certify", "--surface", "genus2", "--word", NESTED, "--json"],
        ["certify", "--surface", "sphere:6", "--word", NESTED_SPHERE, "--json"],
        ["brunnian", "--surface", "genus2", "--word", NESTED, "--json"],
        ["homology", "--word", NESTED, "--json"],
        ["homology", "--mod", "3", "--word", NESTED, "--json"],
        ["project", "--word", NESTED, "--json"],
        ["example", "--n", "5", "--json"],
        ["example", "--n", "6", "--surface", "genus2", "--json"],
    ]
    # Two runs with different hash seeds stand in for two platforms: hash
    # randomisation is the interpreter-level source of cross-platform
    # ordering differences for pure-Python code.
    for argv in commands:
        outputs = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            result = subprocess.run(
                [sys.executable, "-m", "brunnian.cli", *argv],
                capture_output=True, env=env, check=False)
            assert result.returncode == 0, (argv, result.stderr)
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1], argv
        assert outputs[0].endswith(b"\n")
    with capsys.disabled():
        _report(8, f"byte-identical JSON for {len(commands)} commands "
                   "across hash-seed variations")
