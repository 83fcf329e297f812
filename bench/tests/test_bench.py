"""Tests of the benchmark itself: inputs, judge, tracing and accounting.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import tracing
import workloads
from judge import Judge, conflicting_words
from brunnian import braid, cli
from brunnian.certificate import canonical_json


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _snapshot():
    """Every binding in the brunnian modules, plus the traced classes' dicts."""
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if name == "brunnian" or name.startswith("brunnian.")}
    return modules, dict(vars(braid.BraidWord))


def _fast_items():
    """Invocations that finish in milliseconds (no budget aborts)."""
    flagship = [inv for inv in workloads.flagship()
                if inv.surface in ("sphere:6", "genus2")]
    periodic = [inv for inv in workloads.periodic()
                if inv.word_id in ("twist-5-4", "chain-2", "involution-2")]
    genus2 = [inv for inv in workloads.random_words(3)
              if inv.word_id.startswith("genus2-")][:4]
    return flagship + periodic + genus2


def _inputs(items):
    return [(inv.word_id, inv.argv(), inv.letters, inv.expect) for inv in items]


def test_same_seed_gives_identical_inputs():
    for name in workloads.WORKLOADS:
        assert _inputs(workloads.build(name, 11)) == _inputs(workloads.build(name, 11))
    assert _inputs(workloads.build("random_words", 11)) \
        != _inputs(workloads.build("random_words", 12))
    assert _inputs(workloads.build("flagship", 11)) \
        == _inputs(workloads.build("flagship", 12))


def test_text_denotes_the_generated_letters():
    from brunnian.parsing import parse_surface, parse_word
    for name in workloads.WORKLOADS:
        for inv in workloads.build(name, 5):
            word = parse_word(inv.text, parse_surface(inv.surface))
            assert word.letters == inv.letters, inv.word_id


def test_pure_word_generator_yields_identity_permutation():
    rng = random.Random(0)
    for _ in range(400):
        n = rng.randint(5, 8)
        length = rng.randint(20, 120)
        letters = workloads.pure_word(rng, n, length)
        assert workloads.permutation(n, letters) == list(range(1, n + 1))
        assert braid.BraidWord(n, letters).permutation().is_identity()
        assert length - n <= len(letters) <= length + n * (n - 1) // 2


def test_flagship_text_is_the_example_text():
    for surface in workloads.FLAGSHIP_SURFACES:
        n = "6" if surface == "genus2" else surface.split(":")[1]
        rc, out = _call(["example", "--n", n, "--surface", surface, "--json"])
        assert rc == 0
        texts = {inv.text for inv in workloads.flagship() if inv.surface == surface}
        assert texts == {json.loads(out)["word"]}


def test_judge_passes_real_outputs_and_catches_a_wrong_verdict():
    judge = Judge(canonical_json)
    for inv in _fast_items():
        rc, out = _call(inv.argv())
        outcome = judge.judge(inv, rc, out, None)
        assert outcome.problems == [], (inv.word_id, inv.command)
        assert outcome.decided
    inv = next(inv for inv in workloads.flagship()
               if inv.surface == "sphere:6" and inv.command == "check")
    rc, out = _call(inv.argv())
    doctored = out.replace('"trivial":false', '"trivial":true')
    assert judge.judge(inv, rc, doctored, None).problems
    assert judge.judge(inv, rc, out.replace(",", ", "), None).problems
    assert judge.judge(inv, None, "", "RecursionError()").problems
    wrong_basis = replace(inv, command="certify",
                          expect=replace(inv.expect, pa_justification="theorem-1.2"))
    rc, out = _call(wrong_basis.argv())
    assert judge.judge(wrong_basis, rc, out, None).problems


def test_judge_cross_checks_casson_bleiler_with_sympy():
    judge = Judge(canonical_json)
    genus2 = [inv for inv in workloads.random_words(3)
              if inv.word_id.startswith("genus2-")]
    verdicts = set()
    for inv in genus2[:12]:
        rc, out = _call(inv.argv())
        doc = json.loads(out)
        verdicts.add(doc["checks"]["casson_bleiler"])
        assert judge.judge(inv, rc, out, None).problems == []
        flipped = "inconclusive" if doc["checks"]["casson_bleiler"] == "pa_certified" \
            else "pa_certified"
        doc["checks"]["casson_bleiler"] = flipped
        assert judge.judge(inv, rc, canonical_json(doc) + "\n", None).problems
    assert "pa_certified" in verdicts


def test_conflicting_words():
    assert conflicting_words([("a", True), ("a", False), ("b", True),
                              ("b", True), ("c", None), ("c", False)]) == {"a"}


def test_certify_output_identical_with_tracing_on_and_off():
    items = [inv for inv in _fast_items() if inv.command == "certify"]
    plain = [_call(inv.argv()) for inv in items]
    with tracing.Tracer() as tracer:
        traced = [_call(inv.argv()) for inv in items]
    assert traced == plain
    assert any(s.name == "homology.casson_bleiler" for s in tracer.spans)


def test_every_wrapped_name_is_restored():
    before = _snapshot()
    import brunnian.genus2
    original = brunnian.genus2.is_trivial_sphere
    with tracing.Tracer():
        assert brunnian.genus2.is_trivial_sphere is not original
        for inv in _fast_items():
            _call(inv.argv())
    after = _snapshot()
    assert before[1].keys() == after[1].keys()
    assert all(after[1][k] is v for k, v in before[1].items())
    for name, bindings in before[0].items():
        now = after[0][name]
        assert all(now.get(k) is v for k, v in bindings.items()), name


def test_every_binding_of_a_wrapped_name_is_patched():
    import brunnian.freegroup
    import brunnian.genus2
    with tracing.Tracer():
        for module, attr in ((brunnian.genus2, "is_trivial_sphere"),
                             (braid, "is_trivial_sphere"),
                             (braid, "_inner_conjugator"),
                             (brunnian.freegroup, "_inner_conjugator"),
                             (sys.modules["brunnian.cli"], "canonical_json"),
                             (sys.modules["brunnian"], "rho")):
            assert hasattr(getattr(module, attr), "__wrapped__"), (module, attr)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_brunnian_records_one_remove_strand_span_per_strand(n):
    letters = workloads.pure_word(random.Random(n), n, 30)
    inv = workloads.Invocation("w", "brunnian", f"sphere:{n}",
                               workloads.render("s", letters), letters)
    with tracing.Tracer() as tracer:
        tracer.word = 0
        _call(inv.argv())
    assert sum(1 for s in tracer.spans if s.name == "braid.remove_strand") == n


def test_letter_accounting_balances():
    items = _fast_items() + [inv for inv in workloads.random_words(4)
                             if inv.word_id.startswith("conjugated-5")]
    printed = []
    with tracing.Tracer() as tracer:
        for serial, inv in enumerate(items):
            tracer.word = serial
            _, out = _call(inv.argv())
            doc = json.loads(out)
            printed.append(doc.get("letters_used",
                                   doc.get("resources", {}).get("letters_used")))
    accounted = tracing.accounted_letters(tracer.spans)
    assert [accounted[i] for i in range(len(items))] == printed


def test_self_time_subtracts_children():
    spans = [tracing.Span(0, "a", None, 0, 0, 100),
             tracing.Span(1, "b", 0, 0, 10, 40),
             tracing.Span(2, "c", 1, 0, 20, 30),
             tracing.Span(3, "d", 0, 0, 50, 60)]
    assert tracing.self_times(spans) == {0: 60, 1: 20, 2: 10, 3: 10}


def test_nearest_rank_leaves_ten_above_p90():
    values = sorted(float(i) for i in range(100))
    assert run.nearest_rank(values, 90) == (89.0, 10)
    assert run.nearest_rank(values, 50) == (49.0, 50)


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "flagship", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
