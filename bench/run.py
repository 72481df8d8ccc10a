"""Seeded end-to-end benchmark of the superstring command line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload reads|repeats|verify --seed N \\
        --seconds S --trace 0|1

The benchmark writes its workload's instance files (see ``workloads.py``)
into a temporary directory under the checkout, then repeats the workload's
round of ``solve``/``compare``/``verify`` operations in this one process,
calling ``superstring.cli.main`` directly, until ``--seconds`` have passed.
Every output is checked against independent references (``oracle.py``);
a wrong output aborts the run, a refusal (exit 2) or an exception counts as
a failed operation.  Every round must reproduce the first round's outputs.
Timings are each operation's best over the run's rounds (see ``Checker``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds (``tracer.py``), checks that both produce the
same outputs, and prints per-layer self times and counts per round together
with the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from tracer import CAMPAIGNS, Tracer  # noqa: E402
from workloads import VERIFY_SEED, WORKLOADS, WorkloadSpec, write_instances  # noqa: E402

SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); "
                "t = time.perf_counter(); import superstring; "
                "print(time.perf_counter() - t)")
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "compare_s.p50": "s",
    "solve_strings_per_s": "1/s",
    "verify_checks_per_s": "1/s",
    "length_ratio": "ratio",
    "greedy_length_ratio": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

# (metric, traced layer, what: calls | ms | a counter name, unit)
PER_LAYER = [
    ("cli.main.self_ms", "cli.main", "ms", "ms"),
    ("cli.read_instance_file.ms", "cli.read_instance_file", "ms", "ms"),
    ("graph.normalize.ms", "graph.normalize", "ms", "ms"),
    ("graph.normalize.dropped", "graph.normalize", "dropped", "count"),
    ("graph.overlap_matrix.ms", "graph.overlap_matrix", "ms", "ms"),
    ("graph.overlap_matrix.calls", "graph.overlap_matrix", "calls", "count"),
    ("graph.overlap_matrix.cells", "graph.overlap_matrix", "cells", "count"),
    ("graph.min_cycle_cover.ms", "graph.min_cycle_cover", "ms", "ms"),
    ("graph.min_cycle_cover.cycles", "graph.min_cycle_cover", "cycles", "count"),
    ("graph.max_cycle_cover.ms", "graph.max_cycle_cover", "ms", "ms"),
    ("words.overlap_len.calls", "words.overlap_len", "calls", "count"),
    ("words.overlap_len.ms", "words.overlap_len", "ms", "ms"),
    ("words.longest_border.calls", "words.longest_border", "calls", "count"),
    ("words.prefix_part.calls", "words.prefix_part", "calls", "count"),
    ("words.prefix_part.ms", "words.prefix_part", "ms", "ms"),
    ("words.nice_rotation.calls", "words.nice_rotation", "calls", "count"),
    ("words.nice_rotation.ms", "words.nice_rotation", "ms", "ms"),
    ("pipeline.representatives.ms", "pipeline.representatives", "ms", "ms"),
    ("pipeline.representatives.calls", "pipeline.representatives", "calls", "count"),
    ("pipeline.representative.count", "pipeline.representative", "calls", "count"),
    ("pipeline.representative.chars", "pipeline.representative", "chars", "count"),
    ("pipeline._merge_texts.ms", "pipeline._merge_texts", "ms", "ms"),
    ("pipeline.greedy_superstring.ms", "pipeline.greedy_superstring", "ms", "ms"),
    ("pipeline.exact_superstring.calls", "pipeline.exact_superstring", "calls", "count"),
    ("atsp.exact_max_path.ms", "atsp.exact_max_path", "ms", "ms"),
    ("atsp.exact_max_path.calls", "atsp.exact_max_path", "calls", "count"),
    ("atsp.exact_max_path.states", "atsp.exact_max_path", "states", "count"),
    ("atsp.exact_max_path.refused", "atsp.exact_max_path", "refused", "count"),
    ("atsp.cycle_cover_path.ms", "atsp.cycle_cover_path", "ms", "ms"),
    ("bounds.pair_fuzz.ms", "bounds.pair_fuzz", "ms", "ms"),
    ("bounds.cycle_fuzz.ms", "bounds.cycle_fuzz", "ms", "ms"),
    ("bounds.pipeline_cycle_fuzz.ms", "bounds.pipeline_cycle_fuzz", "ms", "ms"),
    ("bounds.tight_sweep.ms", "bounds.tight_sweep", "ms", "ms"),
    ("bounds.check_pair_bounds.ms", "bounds.check_pair_bounds", "ms", "ms"),
    ("bounds.check_cycle_bounds.ms", "bounds.check_cycle_bounds", "ms", "ms"),
    ("bounds.verify_rotation_positions.ms", "bounds.verify_rotation_positions", "ms", "ms"),
]
PER_LAYER_UNITS = {name: unit for name, _, _, unit in PER_LAYER}
PER_LAYER_UNITS.update({"bounds.checks_run": "count", "trace.overhead": "ratio"})


# ---------------------------------------------------------------- statistics

def _rank(n: int, p: float) -> int:
    return max(1, math.ceil(n * p / 100))


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% at or below it."""
    return sorted(samples)[_rank(len(samples), p) - 1]


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least MIN_BEYOND samples above it.

    Returns (value, percentile, samples beyond).  Below 2 * MIN_BEYOND
    samples no percentile qualifies and the median (p50) is returned, with
    its smaller beyond-count.
    """
    n = len(samples)
    qualifying = [p for p in TAIL_LADDER if n - _rank(n, p) >= MIN_BEYOND]
    p = qualifying[-1] if qualifying else TAIL_LADDER[0]
    return percentile(samples, p), p, n - _rank(n, p)


def repeat_for(seconds: float, step) -> int:
    """Calls ``step`` at least once, and again while that is expected to end
    nearer to ``seconds`` than stopping now; returns the number of calls.
    Whole steps keep every measured round identical."""
    calls, start, last = 0, time.perf_counter(), 0.0
    while calls == 0 or time.perf_counter() - start + last / 2 < seconds:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        calls += 1
    return calls


# ---------------------------------------------------------------- operations

@dataclass
class Op:
    kind: str                              # solve | compare | verify
    argv: list[str]
    json_path: str
    ref: oracle.Reference | None = None


@dataclass
class Outcome:
    status: str                            # ok | refused | raised
    seconds: float
    signature: str                         # the output every repeat must reproduce
    report: dict | None = None
    stdout: str = ""


def build_round(spec: WorkloadSpec, seed: int, workdir: str) -> list[Op]:
    """The workload's round; a repeated verify is the same Op each time."""
    def op(kind, argv, name, ref=None):
        path = os.path.join(workdir, f"{name}.json")
        return Op(kind, argv + ["--json", path], path, ref)

    verify = op("verify", ["verify", "--suite", "all", "--trials",
                           str(spec.verify_trials), "--seed", str(VERIFY_SEED),
                           "--workers", "1"], "verify")
    ops = []
    for k, (path, raw) in enumerate(write_instances(spec, seed, workdir), start=1):
        ref = oracle.reference(raw)
        ops.append(op("solve", ["solve", path], f"solve-{k}", ref))
        ops.append(op("compare", ["compare", path], f"compare-{k}", ref))
        if k % spec.verify_every == 0:
            ops.append(verify)
    return ops


def _stable_report(report: dict) -> dict:
    """The report without the fields allowed to differ between runs."""
    out = dict(report, timestamp=None)
    out["results"] = [dict(r, ms=None) for r in report["results"]]
    return out


def run_op(cli, op: Op) -> Outcome:
    """Runs one CLI call; exit 2 and exceptions are failures, not aborts.

    A full collection first gives every call the same garbage-collector
    state: the exact solver allocates 2^n lists, and how many collections
    that sets off otherwise depends on what ran before.  ``main`` freezes
    the objects made during set-up, so these collections are cheap.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except Exception as exc:  # a raising operation is counted, not fatal
        return Outcome("raised", time.perf_counter() - t0, f"raised {exc!r}")
    seconds = time.perf_counter() - t0
    if rc == 2:
        return Outcome("refused", seconds, f"exit 2: {err.getvalue()}")
    if rc != 0:
        raise oracle.WrongOutput(f"{' '.join(op.argv)}: exit {rc}: {err.getvalue()}")
    with open(op.json_path, encoding="utf-8") as fh:
        report = json.load(fh)
    signature = json.dumps([out.getvalue(), err.getvalue(), _stable_report(report)],
                           sort_keys=True)
    return Outcome("ok", seconds, signature, report, out.getvalue())


class Checker:
    """Checks every output and keeps what the metrics are computed from.

    Rounds repeat identical operations, so each operation must also
    reproduce its first output exactly.  Of each operation's repeats the
    fastest time is kept: on a shared host the same call can take twice as
    long from one second to the next, and the best of a run's repeats is
    the figure that holds from run to run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        # keyed by the round index of an operation's first occurrence
        self.first: dict[int, str] = {}        # -> first output signature
        self.best: dict[int, float] = {}       # -> fastest seconds
        self.work: dict[int, int] = {}         # -> strings solved or checks run
        self.length_ratios: dict[int, float] = {}
        self.greedy_ratios: dict[int, float] = {}
        self._solve_row = None

    def check(self, i: int, op: Op, res: Outcome) -> None:
        self.attempted += 1
        if self.first.setdefault(i, res.signature) != res.signature:
            raise oracle.WrongOutput(f"{' '.join(op.argv)}: output differs from "
                                     "its first run")
        if res.status != "ok":
            self.failed += 1
            self._solve_row = None
            return
        self.best[i] = min(res.seconds, self.best.get(i, math.inf))
        if op.kind == "solve":
            row = oracle.check_solve(op.ref, res.report, res.stdout)
            self.work[i] = len(op.ref.strings)
            self.length_ratios[i] = row["length"] / op.ref.lower_bound
            self._solve_row = row
        elif op.kind == "compare":
            rows = oracle.check_compare(op.ref, res.report)
            solve_row, self._solve_row = self._solve_row, None
            if solve_row is not None:
                combined = rows["combined"]
                if (combined["length"], combined["order"]) != \
                        (solve_row["length"], solve_row["order"]):
                    raise oracle.WrongOutput("solve and compare's combined row differ")
                if "exact" in rows and solve_row["length"] < rows["exact"]["length"]:
                    raise oracle.WrongOutput("solve is shorter than the exact optimum")
            self.greedy_ratios[i] = rows["greedy"]["length"] / op.ref.lower_bound
        else:
            checks = res.report["verification"]
            if checks["failed"] != 0:
                raise oracle.WrongOutput(f"verify: {checks['failed']} checks failed")
            self.work[i] = checks["run"]

    def best_of(self, ops: list[Op], kind: str) -> dict[int, float]:
        """Fastest seconds of each distinct operation of one kind."""
        best = {i: t for i, t in self.best.items() if ops[i].kind == kind}
        if not best:
            raise SystemExit(f"error: no {kind} operation succeeded")
        return best


def run_round(cli, ops: list[Op], checker: Checker, tracer: Tracer | None = None) -> float:
    """One pass over the round; returns the seconds spent in the operations."""
    busy = 0.0
    for op in ops:
        if tracer is not None:
            tracer.kind = op.kind
        res = run_op(cli, op)
        checker.check(ops.index(op), op, res)
        busy += res.seconds
    return busy


# ---------------------------------------------------------------- metrics

def measure_setup() -> float:
    """Median wall time of ``import superstring`` in a fresh interpreter."""
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first run may compile bytecode
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=120)
        if i:
            times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def end_to_end(cli, ops: list[Op], seconds: float, checker: Checker) -> dict:
    setup_s = measure_setup()
    rounds = repeat_for(seconds, lambda: run_round(cli, ops, checker))
    solve = checker.best_of(ops, "solve")
    compare = checker.best_of(ops, "compare")
    verify = checker.best_of(ops, "verify")
    tail, p, beyond = tail_percentile(list(solve.values()))
    print(f"{rounds} rounds; solve_s.tail is p{p} of {len(solve)} solve "
          f"operations, {beyond} beyond it")
    metrics = {
        "setup_s": setup_s,
        "solve_s.p50": percentile(list(solve.values()), 50),
        "solve_s.tail": tail,
        "compare_s.p50": percentile(list(compare.values()), 50),
        "solve_strings_per_s": sum(checker.work[i] for i in solve) / sum(solve.values()),
        "verify_checks_per_s": sum(checker.work[i] for i in verify) / sum(verify.values()),
        "length_ratio": statistics.fmean(checker.length_ratios.values()),
        "greedy_length_ratio": statistics.fmean(checker.greedy_ratios.values()),
        "ok_frac": (checker.attempted - checker.failed) / checker.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def per_layer(cli, ops: list[Op], seconds: float, checker: Checker,
              workload: str) -> dict:
    tracer = Tracer()
    busy = {"plain": 0.0, "traced": 0.0}

    def step():
        busy["plain"] += run_round(cli, ops, checker)
        with tracer.installed():
            busy["traced"] += run_round(cli, ops, checker, tracer)

    rounds = repeat_for(seconds, step)
    metrics = {name: tracer.total(layer, what) / rounds
               for name, layer, what, _ in PER_LAYER}
    metrics["bounds.checks_run"] = sum(tracer.total(layer, "checks_run")
                                       for layer in CAMPAIGNS) / rounds
    metrics["trace.overhead"] = busy["traced"] / busy["plain"]
    print_shares(tracer, ops, rounds, workload)
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in metrics.items()}


def print_shares(tracer: Tracer, ops: list[Op], rounds: int, workload: str) -> None:
    """Self-time share of each layer, overall and within each operation kind,
    and the layer's calls per operation of each kind."""
    kinds = ("solve", "compare", "verify")
    layers = sorted({layer for _, layer in tracer.calls})
    ms = {(layer, k): tracer.total(layer, "ms", k) for layer in layers for k in kinds}
    overall = {layer: sum(ms[layer, k] for k in kinds) for layer in layers}
    kind_ms = {k: sum(ms[layer, k] for layer in layers) or 1 for k in kinds}
    n_ops = {k: rounds * sum(op.kind == k for op in ops) or 1 for k in kinds}
    print(f"self time per layer on '{workload}' ({rounds} traced rounds)")
    print(f"{'layer':<34} {'ms/round':>9} {'share':>7} "
          + " ".join(f"{k + '%':>8}" for k in kinds) + " "
          + " ".join(f"{'calls/' + k:>14}" for k in kinds))
    for layer in sorted(layers, key=overall.get, reverse=True):
        print(f"{layer:<34} {overall[layer] / rounds:>9.2f} "
              f"{overall[layer] / sum(overall.values()):>7.2%} "
              + " ".join(f"{ms[layer, k] / kind_ms[k]:>8.2%}" for k in kinds) + " "
              + " ".join(f"{tracer.total(layer, 'calls', k) / n_ops[k]:>14.2f}"
                         for k in kinds))


# ---------------------------------------------------------------- entry point

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cli():
    """The CLI module of this checkout's ``src``, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "superstring", "__init__.py")):
        raise SystemExit(f"error: no superstring sources under {SRC}")
    sys.path.insert(0, SRC)
    from superstring import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported superstring from {cli.__file__}")
    return cli


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    spec = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as workdir:
        ops = build_round(spec, args.seed, workdir)
        gc.freeze()
        checker = Checker()
        try:
            if args.trace:
                metrics = per_layer(cli, ops, args.seconds, checker, args.workload)
            else:
                metrics = end_to_end(cli, ops, args.seconds, checker)
        except oracle.WrongOutput as exc:
            print(f"wrong output: {exc}")
            print(json.dumps({"correct": False, "attempted": checker.attempted,
                              "failed": checker.failed + 1, "metrics": {}}))
            return 1
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
