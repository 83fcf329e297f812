"""Span tracing of the brunnian layers, from outside the library.

:class:`Tracer` wraps the functions in :data:`TARGETS` for the duration
of a ``with`` block.  Every binding of a wrapped function in every
loaded ``brunnian`` module is replaced, because modules import names
directly (``genus2`` binds ``is_trivial_sphere``, ``braid`` binds
``_inner_conjugator``); methods are replaced on their class.  All bindings are restored on exit, even when the block raises.

A span records its name, start and end (``perf_counter_ns``), the span
it was called from, the invocation it belongs to, and the letters
charged to the budget it received.  Spans stay in memory;
:func:`write_jsonl` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Optional


def _letters_out(result) -> dict:
    return {"letters_out": len(result.letters)}


def _empty(result) -> dict:
    return {"empty": not result.letters}


def _hit(result) -> dict:
    return {"hit": result is not None}


def _certified(result) -> dict:
    return {"certified": result == "pa_certified"}


def _bytes(result) -> dict:
    return {"bytes": len(result)}


@dataclass(frozen=True)
class Target:
    span: str                       # span name, "<layer>.<call>"
    module: str
    attribute: str                  # "name" or "Class.method"
    note: Optional[Callable[[Any], dict]] = None   # facts read off the result
    letters_in: bool = False        # record the length of the first argument


TARGETS = (
    Target("cli.main", "brunnian.cli", "main"),
    Target("parsing.parse_word", "brunnian.parsing", "parse_word", _letters_out),
    Target("braid.permutation", "brunnian.braid", "BraidWord.permutation"),
    Target("braid.remove_strand", "brunnian.braid", "BraidWord.remove_strand",
           _empty),
    Target("braid.is_trivial_sphere", "brunnian.braid", "is_trivial_sphere"),
    Target("braid.action_table", "brunnian.braid", "_action_table"),
    Target("freegroup.inner_conjugator", "brunnian.braid", "_inner_conjugator",
           _hit),
    Target("homology.rho", "brunnian.homology", "rho", letters_in=True),
    Target("homology.rho_mod", "brunnian.homology", "rho_mod"),
    Target("homology.charpoly", "brunnian.homology", "charpoly"),
    Target("homology.casson_bleiler", "brunnian.homology", "casson_bleiler",
           _certified),
    Target("genus2.is_trivial_genus2", "brunnian.genus2", "is_trivial_genus2"),
    Target("genus2.membership_theorem12", "brunnian.genus2",
           "membership_theorem12"),
    Target("genus2.certify_pa_genus2", "brunnian.genus2", "certify_pa_genus2"),
    Target("certificate.canonical_json", "brunnian.certificate", "canonical_json",
           _bytes),
)


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    word: Optional[int]
    start: int = 0
    end: int = 0
    budget: Optional[int] = None    # id() of the LetterBudget received
    letters: Optional[int] = None   # budget.used after minus before
    error: Optional[str] = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_json(self) -> str:
        doc = {"id": self.id, "name": self.name, "parent": self.parent,
               "word": self.word, "start_ns": self.start, "end_ns": self.end}
        if self.budget is not None:
            doc["letters"] = self.letters
        if self.error is not None:
            doc["error"] = self.error
        doc.update(self.info)
        return json.dumps(doc, separators=(",", ":"))


def _resolve(target: Target):
    """The original callable and the object that owns it."""
    owner = sys.modules[target.module]
    if "." in target.attribute:
        cls_name, name = target.attribute.split(".")
        owner = getattr(owner, cls_name)
        return owner, name, owner.__dict__[name]
    return owner, target.attribute, getattr(owner, target.attribute)


def _bindings(owner, name: str, original) -> list[tuple[object, str]]:
    """Every place the original is bound: its class, or every brunnian module."""
    if isinstance(owner, type):
        return [(owner, name)]
    return [(module, attr)
            for mod_name, module in list(sys.modules.items())
            if mod_name == "brunnian" or mod_name.startswith("brunnian.")
            for attr, value in list(vars(module).items())
            if value is original]


class Tracer:
    """Records spans while installed; ``word`` tags the current invocation.

    The bindings are found once, when the tracer is built, so entering
    and leaving the ``with`` block is cheap enough to do around each call.
    """

    def __init__(self, targets=TARGETS):
        self.spans: list[Span] = []
        self.word: Optional[int] = None
        self._stack: list[Span] = []
        from brunnian.budget import LetterBudget
        self._budget_type = LetterBudget
        self._plan: list[tuple[object, str, object, Callable]] = []
        for target in targets:
            owner, name, original = _resolve(target)
            wrapper = self._wrap(target, original)
            for obj, attr in _bindings(owner, name, original):
                self._plan.append((obj, attr, original, wrapper))

    def __enter__(self) -> "Tracer":
        for obj, attr, _, wrapper in self._plan:
            setattr(obj, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for obj, attr, original, _ in self._plan:
            setattr(obj, attr, original)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        budget_type = self._budget_type
        name, note, letters_in = target.span, target.note, target.letters_in

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            budget = next((a for a in (*args, *kwargs.values())
                           if isinstance(a, budget_type)), None)
            span = Span(len(spans), name, stack[-1].id if stack else None,
                        self.word)
            if letters_in:
                span.info["letters_in"] = len(getattr(args[0], "letters", args[0]))
            if budget is not None:
                span.budget = id(budget)
                before = budget.used
            spans.append(span)
            stack.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            else:
                if note is not None:
                    span.info.update(note(result))
                return result
            finally:
                span.end = perf_counter_ns()
                stack.pop()
                if budget is not None:
                    span.letters = budget.used - before

        return traced


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover (ns)."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0) + s.duration
    return {s.id: s.duration - child.get(s.id, 0) for s in spans}


def accounted_letters(spans: list[Span]) -> dict[int, int]:
    """Invocation -> letters charged by parsing plus the action tables.

    Only spans that received the invocation's own budget (the one the
    CLI handed to ``parse_word``) count.
    """
    cli_budget: dict[int, int] = {}
    total: dict[int, int] = {}
    for s in spans:
        if s.name == "parsing.parse_word" and s.word not in cli_budget \
                and s.budget is not None:
            cli_budget[s.word] = s.budget
            total[s.word] = s.letters
    for s in spans:
        if s.name == "braid.action_table" and s.budget is not None \
                and cli_budget.get(s.word) == s.budget:
            total[s.word] += s.letters
    return total


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass of the workload."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    has_table_child = {s.parent for s in by_name.get("braid.action_table", [])}

    def group(name):
        return by_name.get(name, [])

    def calls(name):
        return len(group(name)) / passes

    def self_s(*names):
        return sum(own[s.id] for n in names for s in group(n)) / 1e9 / passes

    def share(name, predicate):
        spans_ = group(name)
        return _ratio(sum(1 for s in spans_ if predicate(s)), len(spans_))

    def total(name, key):
        return sum(s.info.get(key, 0) for s in group(name)) / passes

    def letters(name):
        return sum(s.letters or 0 for s in group(name)) / passes

    table_letters = letters("braid.action_table")
    table_self = self_s("braid.action_table")
    return {
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "parsing.parse_word.self_s": (self_s("parsing.parse_word"), "s"),
        "parsing.parse_word.letters_out":
            (total("parsing.parse_word", "letters_out"), "letters"),
        "parsing.parse_word.letters_charged":
            (letters("parsing.parse_word"), "letters"),
        "braid.permutation.calls": (calls("braid.permutation"), "count"),
        "braid.permutation.self_s": (self_s("braid.permutation"), "s"),
        "braid.remove_strand.calls": (calls("braid.remove_strand"), "count"),
        "braid.remove_strand.self_s": (self_s("braid.remove_strand"), "s"),
        "braid.remove_strand.empty_ratio":
            (share("braid.remove_strand", lambda s: s.info.get("empty")), "ratio"),
        "braid.is_trivial_sphere.calls": (calls("braid.is_trivial_sphere"), "count"),
        "braid.is_trivial_sphere.self_s": (self_s("braid.is_trivial_sphere"), "s"),
        "braid.is_trivial_sphere.screened_ratio":
            (share("braid.is_trivial_sphere",
                   lambda s: s.error is None and s.id not in has_table_child),
             "ratio"),
        "braid.is_trivial_sphere.abort_ratio":
            (share("braid.is_trivial_sphere",
                   lambda s: s.error == "LetterBudgetExceeded"), "ratio"),
        "braid.action_table.calls": (calls("braid.action_table"), "count"),
        "braid.action_table.self_s": (table_self, "s"),
        "braid.action_table.letters": (table_letters, "letters"),
        "braid.action_table.letters_per_s":
            (_ratio(table_letters, table_self), "letters/s"),
        "freegroup.inner_conjugator.calls":
            (calls("freegroup.inner_conjugator"), "count"),
        "freegroup.inner_conjugator.self_s":
            (self_s("freegroup.inner_conjugator"), "s"),
        "freegroup.inner_conjugator.hit_ratio":
            (share("freegroup.inner_conjugator", lambda s: s.info.get("hit")),
             "ratio"),
        "homology.rho.calls": (calls("homology.rho"), "count"),
        "homology.rho.self_s": (self_s("homology.rho"), "s"),
        "homology.rho.letters_in": (total("homology.rho", "letters_in"), "letters"),
        "homology.rho_mod.calls": (calls("homology.rho_mod"), "count"),
        "homology.charpoly.self_s": (self_s("homology.charpoly"), "s"),
        "homology.casson_bleiler.self_s": (self_s("homology.casson_bleiler"), "s"),
        "homology.casson_bleiler.certified_ratio":
            (share("homology.casson_bleiler", lambda s: s.info.get("certified")),
             "ratio"),
        "genus2.self_s": (self_s("genus2.is_trivial_genus2",
                                 "genus2.membership_theorem12",
                                 "genus2.certify_pa_genus2"), "s"),
        "certificate.canonical_json.calls":
            (calls("certificate.canonical_json"), "count"),
        "certificate.canonical_json.self_s":
            (self_s("certificate.canonical_json"), "s"),
        "certificate.canonical_json.bytes":
            (total("certificate.canonical_json", "bytes"), "bytes"),
    }


def write_jsonl(spans: list[Span], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for s in spans:
            fh.write(s.to_json())
            fh.write("\n")
