"""Properties of the package as a whole, rather than of one module.

* Internal invariants are checked by code that ``python -O`` keeps:
  the package source holds no ``assert`` statement.
* Letters are spent on one path: only ``LetterBudget.__init__`` and
  ``LetterBudget.charge`` assign an attribute named ``used``.
* Only ``braid`` knows the order of its stages: ``genus2.py`` names
  none of the screen, the engine or the rule that runs them.
* A genus-2 ``check``, ``brunnian`` or ``certify`` makes exactly one
  homology pass, and runs the free-group engine on the projection only
  when that action is the identity.  Verdicts read the action modulo
  ``homology.SCREEN_MODULUS``; the exact integral action is computed
  only by ``certify``, which prints it, and before any engine work, so
  a number too large to print is refused without running the engine.
* ``certificate.conclude`` runs once per ``certify`` call.
* No sphere triviality function takes a precomputed homology action:
  the Burau screen reads the word itself.
* A word or strand removal that collapses to the empty word is decided
  without the free-group engine or a homology pass.
* A trivial word whose removals pass the screen costs one engine run,
  on the word itself, and none on its removals.
* The library example in README.md runs.
* The test oracles share no code with the package: ``tests/oracles.py``
  imports nothing from it but ``BraidWord``, which only generates words.
"""

import ast
import contextlib
import inspect
import io
import json
import re
import sys
from pathlib import Path

import pytest

import brunnian
from brunnian import (LetterBudget, TwistWord, braid, certificate,
                      certify_pa_genus2, homology, involution_word,
                      membership_theorem12)
from brunnian.cli import main
from brunnian.errors import PreconditionError

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(brunnian.__file__).resolve().parent
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_no_assert_statements_in_the_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _attribute_writes(node, attr, scope=()):
    """The enclosing class and function names of each assignment or
    augmented assignment to an attribute named ``attr`` under ``node``."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope += (node.name,)
    targets = (node.targets if isinstance(node, ast.Assign) else
               [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
               else [])
    found = [".".join(scope) for target in targets for sub in ast.walk(target)
             if isinstance(sub, ast.Attribute) and sub.attr == attr]
    for child in ast.iter_child_nodes(node):
        found += _attribute_writes(child, attr, scope)
    return found


def test_only_the_budget_writes_used():
    writers = {f"{path.name}:{scope}"
               for path in sorted(PACKAGE.glob("*.py"))
               for scope in _attribute_writes(
                   ast.parse(path.read_text(), str(path)), "used")}
    assert writers == {"budget.py:LetterBudget.__init__",
                       "budget.py:LetterBudget.charge"}


BRAID_STAGES = {"_screened", "_is_inner", "_is_trivial_pure", "_burau_passes",
                "_action_table", "_inner_conjugator"}


def _names(tree):
    """Every identifier, attribute and imported name under ``tree``."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
            | {alias.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names})


def test_genus2_names_no_braid_stage():
    path = PACKAGE / "genus2.py"
    assert _names(ast.parse(path.read_text(), str(path))) & BRAID_STAGES == set()


def _replace_everywhere(monkeypatch, original, wrapper):
    """Bind ``wrapper`` wherever the package binds ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "brunnian" or name.startswith("brunnian."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


@pytest.fixture
def rho_calls(monkeypatch):
    """Names the homology pass (``rho`` or ``rho_mod``) of each call
    through every binding of either function in the package."""
    involution_word()  # verified and cached before counting starts
    calls = []

    def counted(original):
        def count(word, *modulus):
            calls.append(original.__name__)
            return original(word, *modulus)
        return count

    for original in (homology.rho, homology.rho_mod):
        _replace_everywhere(monkeypatch, original, counted(original))
    return calls


@pytest.fixture
def action_table_sizes(monkeypatch):
    """Strand counts of the calls through every binding of ``_action_table``."""
    involution_word()  # its first-use check runs the engine
    original = braid._action_table
    sizes = []

    def recorded(n, letters, budget):
        sizes.append(n)
        return original(n, letters, budget)

    _replace_everywhere(monkeypatch, original, recorded)
    return sizes


def test_no_engine_run_on_a_projection_acting_as_minus_identity(
        action_table_sizes):
    # The involution projects to a trivial class.  Its strand-1 removal
    # is the empty word, so only the other five five-strand removals need
    # the engine; its own action is -I, which already decides that the
    # genus-2 word is nontrivial, so the strands do not ask the projection.
    report = membership_theorem12(involution_word())
    assert report.trivial is False
    assert action_table_sizes == [5] * 5


def _run_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("command", ["brunnian", "certify"])
def test_no_engine_run_on_words_that_collapse(action_table_sizes, command):
    # The word reduces to the empty word, and so does each of its 1000
    # removals: no 999-strand generator table is built.
    code, _ = _run_json([command, "--surface", "sphere:1000",
                         "--word", "s1 s1^-1", "--max-letters", "1000"])
    assert code == 0
    assert action_table_sizes == []


@pytest.mark.parametrize("command, strands", [("brunnian", "per_strand"),
                                              ("certify", "brunnian_per_strand")])
@pytest.mark.parametrize("surface, word, n", [
    ("sphere:5", "(s1 s2 s3 s4)^5", 5),    # the full twist
    ("genus2", "(d1 d2 d3 d4 d5)^6", 6),   # acts as I on homology
], ids=["full-twist", "genus2-chain"])
def test_one_engine_run_on_a_trivial_word(action_table_sizes, command, strands,
                                          surface, word, n):
    # Every removal passes the screen.  The first one asks the word
    # itself, whose one n-strand engine run proves it trivial, and with it
    # every removal: forgetting a strand is a homomorphism.
    code, doc = _run_json([command, "--surface", surface, "--word", word])
    checks = doc.get("checks", doc)
    assert code == 0
    assert checks[strands] == [True] * n
    assert checks["trivial"] is True
    assert action_table_sizes == [n]


def test_no_homology_run_on_empty_six_strand_removals(rho_calls):
    # Every removal of the seven-strand flagship is the empty six-strand
    # word; the Burau screen proves the word itself nontrivial.
    code, doc = _run_json(["brunnian", "--surface", "sphere:7", "--word",
                           "[s1^6,[s2^6,[s3^6,[s4^6,[s5^6,s6^6]]]]]",
                           "--max-letters", "100000"])
    assert code == 0
    assert doc["per_strand"] == [True] * 7
    assert (doc["brunnian"], doc["trivial"]) == (True, False)
    assert rho_calls == []


@pytest.mark.parametrize("function", [brunnian.is_trivial_sphere,
                                      brunnian.brunnian_check,
                                      braid._is_trivial_pure])
def test_no_homology_lift_parameter(function):
    assert "lift" not in inspect.signature(function).parameters


@pytest.mark.parametrize("command", ["check", "brunnian", "certify"])
@pytest.mark.parametrize("word", [
    "[d1^6,[d2^6,[d3^6,[d4^6,d5^6]]]]",   # member of the theorem-1.2 subgroup
    "d1 d2 d3 d4 d5 d5 d4 d3 d2 d1",      # the involution: rho = -I
    "(d1 d2 d3 d4 d5)^6",                 # rho = I
    "d1 d2^-1 d4",                        # impure projection
])
def test_one_homology_evaluation_per_genus2_command(rho_calls, command, word):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--surface", "genus2", "--word", word, "--json"])
    assert code == 0
    # Only certify prints the action, so only certify computes it exactly.
    assert rho_calls == ["rho" if command == "certify" else "rho_mod"]


def test_unprintable_coefficient_refused_before_any_engine_work(
        action_table_sizes):
    # Every entry of the action prints, but a coefficient of its
    # characteristic polynomial has 16662 bits, above the 14000-bit limit.
    budget = LetterBudget()
    with pytest.raises(PreconditionError, match="16662 bits"):
        certify_pa_genus2(TwistWord((1, -2, 4, -5) * 6000), budget)
    assert action_table_sizes == []
    assert budget.used == 0


@pytest.mark.parametrize("surface, word", [
    ("genus2", "[d1^6,[d2^6,[d3^6,[d4^6,d5^6]]]]"),
    ("genus2", "d1 d2^-1 d3 d4^-1"),
    ("sphere:6", "[s1^6,[s2^6,[s3^6,[s4^6,s5^6]]]]"),
    ("sphere:5", "s1^6"),
])
def test_one_conclusion_per_certify(monkeypatch, surface, word):
    calls = []
    original = certificate.conclude

    def counted(*args):
        calls.append(args)
        return original(*args)

    _replace_everywhere(monkeypatch, original, counted)
    code, doc = _run_json(["certify", "--surface", surface, "--word", word])
    assert code == 0
    assert len(calls) == 1
    assert list(calls[0][1].items()) == list(doc["checks"].items())


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})


def test_oracles_import_only_braid_word_from_the_package():
    tree = ast.parse(ORACLES.read_text(), str(ORACLES))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module or "", alias.name) for alias in node.names]
    from_package = [(module, name) for module, name in imported
                    if module == "brunnian" or module.startswith("brunnian.")]
    assert from_package == [("brunnian", "BraidWord")]
