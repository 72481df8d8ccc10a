r"""Command-line front end: solve, compare, verify, gen.

Instance files are UTF-8 text, a leading byte-order mark skipped, with one
string per line; lines end at ``\n`` (``\r\n`` and ``\r`` count as ``\n``)
and nowhere else, ``#`` starts a comment line, blank lines are ignored, and
strings must consist of printable non-whitespace ASCII.  JSON reports have
the flat shape

    {command, seed, timestamp, instance: {n, total_length},
     results: [{algo, length, overlap, order, ms}],
     verification: {run, held, failed, violations}}

with exact rationals rendered as "p/q" strings.  Reports are byte-identical
across repeated runs with the same seed, except for the timestamp and the
per-result ms timings.  An input that normalizes to one string is solved
by that string, with a warning.  Exit codes: 0 success, 1 unreadable or
empty input, an output file that cannot be written (a ``--json`` file is
tried before any work starts), ``gen`` numbers that the family's generator
refuses, a negative ``verify --trials`` or a ``verify --workers`` below 1,
2 exact-solver node limit or table ceiling exceeded, 3 an internal
assertion failure, such as a pipeline output that lost an input string.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import stat
import sys
from datetime import datetime, timezone

from . import bounds
from .atsp import DEFAULT_EXACT_LIMIT, SolverLimitError, SolverTag, TableSizeError
from .graph import DegenerateInstanceError, normalize
from .pipeline import ALGORITHMS, Solution, solve_each

_NOT_PRINTABLE = re.compile(r"[^!-~]")  # anything but printable non-space ASCII


class InputError(Exception):
    """An input file that cannot be read or parsed, an output file that
    cannot be written, or command-line numbers out of range."""


def read_instance_file(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    strings = []
    for lineno, line in enumerate(raw.split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        if _NOT_PRINTABLE.search(line):
            raise InputError(
                f"{path}:{lineno}: strings must be printable non-whitespace ASCII")
        strings.append(line)
    if not strings:
        raise InputError(f"{path}: no strings found")
    return strings


def _report_skeleton(args, seed=None) -> dict:
    return {
        "command": " ".join(args),
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "instance": None,
        "results": [],
        "verification": {"run": 0, "held": 0, "failed": 0, "violations": []},
    }


# _write and _check_writable open an output with these flags and mode 0o666:
# a missing file is created as ``open(path, "w")`` creates it, an existing
# one is not truncated
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8.  An existing regular file is
    rewritten in place and then cut to the new length, not truncated to
    zero first as ``open(path, "w")`` does: on ext4 mounted with
    ``discard`` that truncation makes the next write and close pay about
    120 us for a 900-byte report, against 7.5 us in place, more than the
    whole reduction of a small instance.  Anything else (``/dev/null``, a
    FIFO) is only written to."""
    try:
        fd = os.open(path, _WRITE_FLAGS, 0o666)
        with open(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _check_writable(path: str) -> None:
    """Fail as ``_write`` would, before any work is done, if ``path`` cannot
    be opened for writing.  An existing file is left as it is; a file this
    check creates is removed again."""
    existed = os.path.lexists(path)
    try:
        os.close(os.open(path, _WRITE_FLAGS, 0o666))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def _write_json(path: str | None, obj: dict) -> None:
    if path:
        _write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _result_entry(algo: str, sol, ms: float) -> dict:
    return {"algo": algo, "length": sol.length, "overlap": sol.total_overlap,
            "order": list(sol.order), "ms": round(ms, 3)}


def _print_table(results: list[dict]) -> None:
    best = min(r["length"] for r in results)
    print(f"{'algorithm':<10} {'length':>7} {'overlap':>8} {'ratio':>7}")
    for r in results:
        print(f"{r['algo']:<10} {r['length']:>7} {r['overlap']:>8} "
              f"{r['length'] / best:>7.3f}")


def cmd_run(args, argv) -> int:
    """``solve`` runs ``--algo`` and prints its text; ``compare`` runs every
    algorithm, ``exact`` only up to ``--exact-limit`` nodes, and prints a
    table.  ``pipeline.solve_each`` runs them, holds the run rules and
    checks each text (a lost string is an AssertionError: exit 3, no
    report), so ``run == held == len(results)`` in every report.  A
    one-string input is solved by that string, untimed."""
    report, single = _report_skeleton(argv), None
    try:
        inst, removed = normalize(read_instance_file(args.input))
        n, total_length = len(inst), inst.total_length
    except DegenerateInstanceError as exc:
        # normalize keeps the longest of read_instance_file's strings
        [single], removed = exc.survivors, exc.log
        n, total_length = 1, len(single)
        print("warning: instance degenerates to a single string", file=sys.stderr)
    for reason, s in removed:
        print(f"warning: dropped {reason} string {s!r}", file=sys.stderr)
    report["instance"] = {"n": n, "total_length": total_length}
    if args.command == "solve":
        algos = [args.algo]
    else:
        algos = [a for a in ALGORITHMS if a != "exact" or n <= args.exact_limit]
    if single is None:
        rows = solve_each(inst, algos, SolverTag(args.path_solver), args.exact_limit)
    else:
        rows = ((algo, Solution((0,), single, 0, algo), 0.0) for algo in algos)
    for algo, sol, ms in rows:
        report["results"].append(_result_entry(algo, sol, ms))
    checks = report["verification"]
    checks["run"] = checks["held"] = len(report["results"])
    _write_json(args.json, report)
    if args.command == "compare":
        _print_table(report["results"])
        return 0
    print(sol.text)
    if single is None:
        print(f"algorithm: {sol.algorithm}")
        print(f"length: {sol.length}  total_overlap: {sol.total_overlap}")
        print(f"order: {' '.join(map(str, sol.order))}")
    return 0


_SUITES = ("pairs", "cycles", "tight", "all")


def _campaign_chunk(task):
    name, seed, start, count = task
    return getattr(bounds, name)(count, seed, start=start)


def _run_fuzz(name: str, trials: int, seed: int, workers: int):
    """The campaign ``bounds.<name>`` over ``trials`` trials, split into at
    most ``workers`` chunks and no more than this machine has CPUs, one
    process per chunk; a single chunk runs in this process.  The campaign
    is looked up at call time, so a rebound one is the one that runs."""
    chunks = min(workers, trials, os.cpu_count() or 1)
    if chunks <= 1:
        return _campaign_chunk((name, seed, 0, trials))
    from concurrent.futures import ProcessPoolExecutor  # 18 ms: import on use

    step = -(-trials // chunks)
    tasks = [(name, seed, lo, min(step, trials - lo))
             for lo in range(0, trials, step)]
    with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
        merged, *rest = pool.map(_campaign_chunk, tasks)
    for part in rest:
        merged.merge(part)
    return merged


def cmd_verify(args, argv) -> int:
    if args.trials < 0:
        raise InputError("--trials must be at least 0")
    if args.workers < 1:
        raise InputError("--workers must be at least 1")
    report = _report_skeleton(argv, seed=args.seed)
    fuzz = []
    if args.suite in ("pairs", "all"):
        fuzz.append("pair_fuzz")
    if args.suite in ("cycles", "all"):
        fuzz += ["cycle_fuzz", "pipeline_cycle_fuzz"]
    campaigns = [_run_fuzz(name, args.trials, args.seed, args.workers)
                 for name in fuzz]
    if args.suite in ("tight", "all"):
        campaigns += [bounds.tight_sweep(), bounds.greedy_chain_sweep()]
    verification = report["verification"]
    for c in campaigns:
        verification["run"] += c.checks_run
        verification["held"] += c.checks_held
        verification["failed"] += c.checks_failed
        verification["violations"].extend(c.violations)
        for note in c.anomalies:
            print(f"note[{c.name}]: {note}", file=sys.stderr)
        if c.skipped:
            print(f"note[{c.name}]: skipped {c.skipped} degenerate cycles",
                  file=sys.stderr)
        print(f"{c.name:<16} cases={c.cases:<7} checks={c.checks_run:<8} "
              f"failed={c.checks_failed}")
    _write_json(args.json, report)
    if verification["failed"]:
        print(f"FAILED: {verification['failed']} violating checks")
        return 1
    print("all checks held")
    return 0


def cmd_gen(args, argv) -> int:
    """Write the family's instance file and, for the tight and chain
    families, its ``.expected.json`` sidecar.  The family's generator checks
    the arguments; its ValueError becomes one error line, with nothing
    written."""
    sidecar = None
    try:
        if args.family == "tight2":
            strings = [x for _, x in bounds.gen_tight_2cycle(args.k).nodes]
            sidecar, params = bounds.expected_tight_2cycle(args.k), f"k={args.k}"
        elif args.family == "tight3":
            strings = [x for _, x in bounds.gen_tight_3cycle(args.n).nodes]
            sidecar, params = bounds.expected_tight_3cycle(args.n), f"n={args.n}"
        elif args.family == "greedy":
            strings = list(bounds.gen_greedy_path(args.n)[0].strings)
            sidecar, params = bounds.expected_greedy_path(args.n), f"n={args.n}"
        else:
            strings = list(bounds.gen_random_instance(
                random.Random(args.seed), n_range=(args.n, args.n),
                length_range=(args.min_len, args.max_len),
                alphabet_size=args.alphabet).strings)
            params = f"n={args.n} seed={args.seed}"
    except ValueError as exc:
        raise InputError(f"gen --family {args.family}: {exc}") from exc
    header = f"# family={args.family} {params}"
    _write(args.output, "\n".join([header, *strings]) + "\n")
    if sidecar is not None:
        _write_json(args.output + ".expected.json", sidecar)
    print(f"wrote {len(strings)} strings to {args.output}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="superstring",
        description="Superstring construction and overlap-bound verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", metavar="OUT", default=None,
                       help="write a JSON run report to OUT")
        p.add_argument("--exact-limit", type=int, default=DEFAULT_EXACT_LIMIT,
                       help="node limit for the exact solvers (numpy subset "
                            "DP: time grows as 2^n*n^2, table plus index as "
                            "n*2^n*(itemsize+4) bytes, 6 MB at 16 with int16, "
                            "738 MB at 22 with int32; refused from n=23, or "
                            "from n=22 when n*max|w| >= 2^29)")
        p.add_argument("--path-solver", choices=[t.value for t in SolverTag],
                       default=SolverTag.EXACT.value)

    p = sub.add_parser("solve", help="compute one superstring")
    p.add_argument("input", help="instance file, one string per line")
    p.add_argument("--algo", choices=ALGORITHMS, default="combined")
    add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run all algorithms and tabulate")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run bound-verification campaigns")
    p.add_argument("--suite", choices=_SUITES, default="all")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", metavar="OUT", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate instance files")
    p.add_argument("--family", choices=("tight2", "tight3", "greedy", "random"),
                   required=True)
    p.add_argument("-k", type=int, default=1, help="tight2 parameter")
    p.add_argument("-n", type=int, default=6,
                   help="tight3 parameter / chain length / random count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--min-len", type=int, default=4)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("output")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "json", None):
            _check_writable(args.json)
        return args.func(args, argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TableSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverLimitError as exc:
        print(f"error: {exc} (raise --exact-limit to override)", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
