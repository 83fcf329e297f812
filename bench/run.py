"""Benchmark of the brunnian CLI, end to end and per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload flagship --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory.  Each
workload (see ``workloads.py``) runs as one client in a closed loop:
each invocation is ``brunnian.cli.main(argv)`` called in-process with
``--json`` at the default letter cap, after the previous one returned.
The run repeats whole passes of the workload until ``--seconds`` are
spent (a new pass starts only while at least half a pass fits) and at
least 100 calls are timed, so the 90th percentile has ten samples above
it.  Outputs are judged after the timed loop (``judge.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
call twice back to back, untraced and traced (``tracing.py``), and
reports the per-layer metrics per pass, the tracing overhead (traced
over untraced call time) and the letter accounting; it writes the spans
as JSON lines under ``.bench_out/``.

Metric lines go to stdout as ``name value unit``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed_ratio`` is printed but left out of that object, because it is
zero on a correct program; ``failed`` over ``attempted`` carries it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from judge import Judge, conflicting_words

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_SAMPLES = 100        # ten samples above the 90th percentile
HARD_STOP_S = 150.0      # stop starting calls after this, whatever the pass
SETUP_REPEATS = 6        # before the timed loop, and again after it


def _pythonpath_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_samples(count: int, warm_up: bool = False) -> list[float]:
    """Wall times from a fresh interpreter to ``brunnian.cli`` imported.

    The unmeasured warm-up start writes the bytecode caches, so every
    measured start finds them, as an installed copy would.
    """
    cmd = [sys.executable, "-c", "import brunnian.cli"]
    env = _pythonpath_env()
    if warm_up:
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    times = []
    for _ in range(count):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def import_library():
    sys.path.insert(0, str(SRC))
    import brunnian
    from brunnian import cli
    if Path(brunnian.__file__).resolve().parent != SRC / "brunnian":
        raise ImportError(f"brunnian imported from {brunnian.__file__}, "
                          f"not from {SRC}")
    return cli


class Recorder:
    """Outputs of every call, each distinct (item, exit, stdout) kept once."""

    def __init__(self, items):
        self.items = items
        self.durations: list[float] = []
        self.keys: list[tuple] = []          # per call, in call order
        self._distinct: dict[tuple, tuple] = {}

    def call(self, cli, index: int) -> None:
        out, err = io.StringIO(), io.StringIO()
        raised = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = cli.main(self.items[index].argv())
            except Exception as exc:  # a traceback is a failed call, not a crash
                rc, raised = None, repr(exc)
            self.durations.append(perf_counter() - start)
        key = (index, rc, out.getvalue(), raised)
        self.keys.append(self._distinct.setdefault(key, key))

    def run_pass(self, cli, deadline: float) -> bool:
        """One pass in item order; False if cut short by the hard stop."""
        for index in range(len(self.items)):
            if perf_counter() > deadline:
                return False
            self.call(cli, index)
        return True

    @property
    def distinct(self):
        return self._distinct.values()


def judge_calls(recorder: Recorder, judge) -> tuple[int, dict]:
    """Failed call count, and the judged outcome of each distinct output."""
    outcomes = {key: judge.judge(recorder.items[key[0]], key[1], key[2], key[3])
                for key in recorder.distinct}
    by_index: dict[int, set] = {}
    for key in recorder.distinct:
        by_index.setdefault(key[0], set()).add(key)
    unstable = {i for i, keys in by_index.items() if len(keys) > 1}
    conflicts = conflicting_words(
        (recorder.items[key[0]].word_id, outcomes[key].trivial)
        for key in recorder.distinct if outcomes[key].decided)
    failed = 0
    problems: dict[str, int] = {}
    for key in recorder.keys:
        item = recorder.items[key[0]]
        reasons = list(outcomes[key].problems)
        if key[0] in unstable:
            reasons.append("output differs between passes")
        if item.word_id in conflicts:
            reasons.append("check and brunnian disagree on triviality")
        if reasons:
            failed += 1
            for r in reasons:
                label = f"{item.word_id} {item.command}: {r}"
                problems[label] = problems.get(label, 0) + 1
    for label, count in sorted(problems.items()):
        print(f"FAILED x{count} {label}", file=sys.stderr)
    return failed, outcomes


def _continue(elapsed: float, last_pass: float, seconds: float,
              samples_short: bool) -> bool:
    """Whether to start another pass."""
    if elapsed >= HARD_STOP_S:
        return False
    return samples_short or elapsed + last_pass / 2 < seconds


def nearest_rank(sorted_values: list[float], percent: int) -> tuple[float, int]:
    """Value at rank ceil(percent N / 100) and the number of samples above it."""
    rank = max(1, -(-percent * len(sorted_values) // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(cli, items, seconds: float, judge: Judge) -> tuple[dict, int, int]:
    recorder = Recorder(items)
    start = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        complete = recorder.run_pass(cli, start + HARD_STOP_S)
        passes += complete
        now = perf_counter()
        if not complete or not _continue(now - start, now - pass_start, seconds,
                                         len(recorder.keys) < MIN_SAMPLES):
            break
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, outcomes = judge_calls(recorder, judge)
    attempted = len(recorder.keys)
    decided = sum(1 for key in recorder.keys if outcomes[key].decided)
    first_pass = recorder.keys[:len(items)]
    letters_total = sum(outcomes[key].letters_used for key in first_pass)
    durations = sorted(recorder.durations)
    p90, above = nearest_rank(durations, 90)
    print(f"calls {attempted} in {passes} whole passes of {len(items)}, "
          f"{wall:.3f} s; {above} calls above p90")
    if above < 10:
        print("warning: fewer than 10 calls above p90", file=sys.stderr)
    metrics = {
        "verdict_s.p50": (statistics.median(durations), "s"),
        "verdict_s.p90": (p90, "s"),
        "words_per_s": (attempted / wall, "1/s"),
        "decided_ratio": (decided / attempted, "ratio"),
        "letters_total": (letters_total, "letters"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_ratio": (failed / attempted, "ratio"),
    }
    return metrics, attempted, failed


def paired_pass(cli, plain: Recorder, traced: Recorder, tracer,
                deadline: float) -> bool:
    """One pass running each call untraced and traced, back to back.

    The order alternates from call to call, so both sides of the
    overhead ratio see the same machine load.  False if cut short.
    """
    for index in range(len(plain.items)):
        if perf_counter() > deadline:
            return False
        for with_trace in ((False, True) if index % 2 else (True, False)):
            if with_trace:
                tracer.word = len(traced.keys)
                with tracer:
                    traced.call(cli, index)
            else:
                plain.call(cli, index)
    return True


def per_layer(cli, items, seconds: float, judge: Judge, out_path: Path):
    plain, traced = Recorder(items), Recorder(items)
    tracer = tracing.Tracer()
    start = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        if not paired_pass(cli, plain, traced, tracer, start + HARD_STOP_S):
            break
        passes += 1
        now = perf_counter()
        if not _continue(now - start, now - pass_start, seconds, False):
            break
    if passes == 0:
        raise RuntimeError("no traced pass completed before the hard stop")
    # Only whole traced passes count towards the per-pass figures.
    whole = passes * len(items)
    spans = [s for s in tracer.spans if s.word is not None and s.word < whole]
    OUT_DIR.mkdir(exist_ok=True)
    tracing.write_jsonl(spans, out_path)

    plain_failed, _ = judge_calls(plain, judge)
    traced_failed, outcomes = judge_calls(traced, judge)
    failed = plain_failed + traced_failed
    attempted = len(plain.keys) + len(traced.keys)
    accounted = tracing.accounted_letters(spans)
    balanced = 0
    for serial, key in enumerate(traced.keys[:whole]):
        printed = outcomes[key].letters_used
        if accounted.get(serial) == printed:
            balanced += 1
        else:
            item = items[key[0]]
            print(f"letter gap: {item.word_id} {item.command} printed {printed}, "
                  f"spans account for {accounted.get(serial)}", file=sys.stderr)
    metrics = tracing.layer_metrics(spans, passes)
    metrics["trace.overhead_ratio"] = (sum(traced.durations[:whole])
                                       / sum(plain.durations[:whole]), "ratio")
    metrics["trace.letters_balanced_ratio"] = (balanced / whole, "ratio")
    print(f"traced {passes} passes of {len(items)} calls: {len(spans)} spans "
          f"written to {out_path.relative_to(ROOT)}; letters balance on "
          f"{balanced} of {whole} calls")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "brunnian" / "__init__.py").is_file():
        print(f"error: no brunnian sources under {SRC}", file=sys.stderr)
        return 2
    cli = import_library()
    from brunnian.certificate import canonical_json
    judge = Judge(canonical_json)

    items = workloads.build(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {len(items)} calls per pass")
    if args.trace:
        out_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, attempted, failed = per_layer(cli, items, args.seconds, judge,
                                               out_path)
    else:
        # Set-up is sampled on both sides of the timed loop, so its median
        # does not rest on one moment of a shared machine.
        setup = setup_samples(SETUP_REPEATS, warm_up=True)
        metrics, attempted, failed = end_to_end(cli, items, args.seconds, judge)
        setup += setup_samples(SETUP_REPEATS)
        metrics = {"setup_s": (statistics.median(setup), "s"), **metrics}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    reported = {name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
                if name != "failed_ratio"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
