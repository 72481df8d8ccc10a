"""Acceptance gate: one test per exit criterion, each printing a PASS/FAIL
line with its runtime (run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they appear).

All expected numbers are exact integers or exact rationals; the fuzz
campaigns are seeded and must report zero violations.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import brute
from brute import validate_superstring
from superstring import cli
from superstring.atsp import cycle_cover_path, exact_max_path, greedy_max_path
from superstring.graph import WeightMatrix
from superstring.bounds import (
    cycle_quantities,
    gen_greedy_path,
    gen_random_instance,
    gen_tight_2cycle,
    gen_tight_3cycle,
    pair_fuzz,
    pipeline_cycle_fuzz,
)
from superstring.graph import overlap_matrix
from superstring.pipeline import (
    exact_superstring,
    greedy_superstring,
    representatives,
    solve_combined,
    solve_s1,
    solve_s2,
)
from superstring.words import (
    longest_border,
    maximal_rotation_index,
    min_period,
    minimal_rotation_index,
    overlap,
    overlap_len,
)

SEED = 20250809


def _finish(num, name, elapsed, budget, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num} ({name}): {status} [{elapsed:.2f}s / budget {budget}s]")
    assert not failures, f"criterion {num}: {failures[:5]}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_tight_2cycle_exactness():
    t0 = time.perf_counter()
    failures = []
    for k in range(1, 65):
        fixture = gen_tight_2cycle(k)
        (_, x1), (_, x2) = fixture.nodes
        _, os, m, o, length, _ = cycle_quantities(fixture)
        if os != [4 * k + 5, 3 * k + 4]:
            failures.append(f"k={k}: overlaps {os}")
        if length != 5 * k + 8:
            failures.append(f"k={k}: L={length}")
        if 11 * length - (2 * m + 7 * o) != 17:
            failures.append(f"k={k}: gap {11 * length - (2 * m + 7 * o)}")
    _finish(1, "tight 2-cycle exactness", time.perf_counter() - t0, 1, failures)


def test_criterion_2_tight_3cycle_exactness():
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 65):
        fixture = gen_tight_3cycle(n)
        _, os, m, o, length, _ = cycle_quantities(fixture)
        if os != [8 * n + 12, 6 * n + 8, 5 * n + 7]:
            failures.append(f"n={n}: overlaps {os}")
        if 11 * length - (2 * m + 7 * o) != 28:
            failures.append(f"n={n}: gap {11 * length - (2 * m + 7 * o)}")
    _finish(2, "tight 3-cycle exactness", time.perf_counter() - t0, 1, failures)


def test_criterion_3_greedy_chain_overlaps():
    t0 = time.perf_counter()
    failures = []
    inst, expected = gen_greedy_path(40)
    xs = inst.strings
    for idx, i in enumerate(range(3, 40)):
        got = overlap_len(xs[idx + 1], xs[idx])
        if got != 3 * i // 2 or got != expected[idx]:
            failures.append(f"i={i}: overlap {got}")
    ratio = Fraction(sum(expected), sum(range(3, 41)))
    if not ratio > Fraction(14, 10):
        failures.append(f"ratio {ratio} not above 1.40")
    _finish(3, "chain family overlaps and ratio", time.perf_counter() - t0, 1, failures)


def test_criterion_4_cycle_bound_fuzz():
    t0 = time.perf_counter()
    result = pipeline_cycle_fuzz(10_000, seed=SEED)
    failures = list(result.violations)
    failures += [a for a in result.anomalies if not a.startswith("skipped")]
    for needed in ("cycle_weight_bound", "cycle_weight_bound_weak"):
        if not result.applicable_counts.get(needed):
            failures.append(f"{needed} never exercised")
    _finish(4, "cycle weight bounds on 10^4 pipeline instances",
            time.perf_counter() - t0, 60, failures)


def test_criterion_5_pair_bound_fuzz():
    t0 = time.perf_counter()
    result = pair_fuzz(10_000, seed=SEED)
    failures = list(result.violations)
    required = (
        "overlap_cap", "overlap_multiple_cap", "extreme_rotation_positions",
        "overlap_alpha_flat", "overlap_alpha_mid", "overlap_alpha_general",
        "slack_sum_flat", "slack_sum_steep", "slack_sum_general",
        "short_source_alpha_cap", "mutual_slack_floor",
    )
    for needed in required:
        if not result.applicable_counts.get(needed):
            failures.append(f"{needed} never exercised")
    _finish(5, "pair bounds on 10^4 nice-word pairs",
            time.perf_counter() - t0, 60, failures)


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []

    for w in brute.binary_strings(12):
        if minimal_rotation_index(w) != brute.min_rotation_index(w):
            failures.append(f"min rotation {w!r}")
        if maximal_rotation_index(w) != brute.max_rotation_index(w):
            failures.append(f"max rotation {w!r}")
        if min_period(w) != brute.min_period(w):
            failures.append(f"period {w!r}")
        if longest_border(w) != brute.longest_border(w):
            failures.append(f"border {w!r}")
        if overlap(w, w) != brute.overlap(w, w):
            failures.append(f"self overlap {w!r}")

    # every ordered pair of binary strings jointly within 12 characters
    for total in range(2, 13):
        for alen in range(1, total):
            for u in map("".join, itertools.product("ab", repeat=alen)):
                for v in map("".join, itertools.product("ab", repeat=total - alen)):
                    if overlap(u, v) != brute.overlap(u, v):
                        failures.append(f"overlap {u!r} {v!r}")

    rng = random.Random(SEED)
    prev = None
    for _ in range(10_000):
        w = "".join(rng.choice("abc"[: rng.choice((2, 3))])
                    for _ in range(rng.randint(13, 30)))
        if minimal_rotation_index(w) != brute.min_rotation_index(w) \
                or maximal_rotation_index(w) != brute.max_rotation_index(w) \
                or min_period(w) != brute.min_period(w) \
                or longest_border(w) != brute.longest_border(w):
            failures.append(f"unary ops {w!r}")
        if prev is not None and overlap(prev, w) != brute.overlap(prev, w):
            failures.append(f"overlap {prev!r} {w!r}")
        prev = w

    for trial in range(450):
        rng2 = random.Random(SEED * 7 + trial)
        n = 8 if trial % 9 == 0 else rng2.randint(2, 7)
        rows = [[rng2.randint(0, 12) for _ in range(n)] for _ in range(n)]
        m = WeightMatrix(np.array(rows, dtype=np.int64))
        if exact_max_path(m).weight != brute.max_path_weight(rows):
            failures.append(f"held-karp trial {trial}")
    _finish(6, "brute-force oracle equivalence", time.perf_counter() - t0,
            120, failures)


@pytest.fixture(scope="module")
def ratio_fuzz():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    end_to_end, solver_floor = [], []
    for trial in range(1_000):
        inst = gen_random_instance(rng, n_range=(2, 10), length_range=(1, 12),
                                   alphabet_size=rng.choice((2, 3)))
        opt = exact_superstring(inst)
        s1 = solve_s1(inst)
        s2 = solve_s2(inst)
        s0 = solve_combined(inst)
        greedy = greedy_superstring(inst)
        for sol in (opt, s1, s2, s0, greedy):
            if not validate_superstring(inst, sol.text):
                end_to_end.append(f"trial {trial}: {sol.algorithm} invalid")
        if s1.length > 2 * opt.length:
            end_to_end.append(f"trial {trial}: |S1|={s1.length} > 2*{opt.length}")
        if s0.length > s1.length or s0.length > s2.length:
            end_to_end.append(f"trial {trial}: S0 not the better solution")
        if 2 * greedy.length > 7 * opt.length:
            end_to_end.append(f"trial {trial}: greedy {greedy.length} "
                              f"vs opt {opt.length}")
        reps = representatives(inst)
        if len(reps) >= 2:
            m = overlap_matrix([r.text for r in reps])
            best = exact_max_path(m).weight
            if 2 * cycle_cover_path(m).weight < best:
                solver_floor.append(f"trial {trial}: cover path below half")
            if 2 * greedy_max_path(m).weight < best:
                solver_floor.append(f"trial {trial}: greedy path below half")
    return end_to_end, solver_floor, time.perf_counter() - t0


def test_criterion_7_end_to_end_ratios(ratio_fuzz):
    end_to_end, _, fuzz_elapsed = ratio_fuzz
    _finish(7, "end-to-end ratio bounds on 10^3 instances", fuzz_elapsed,
            120, end_to_end)


def test_criterion_8_path_solver_floor(ratio_fuzz):
    _, solver_floor, fuzz_elapsed = ratio_fuzz
    _finish(8, "half-weight floor for approximate path solvers", fuzz_elapsed,
            120, solver_floor)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    failures = []
    inst_path = tmp_path / "inst.txt"
    inst_path.write_text("abab\nbabb\nbba\naab\n", encoding="utf-8")

    def scrub(report):
        report = dict(report)
        report.pop("timestamp", None)
        report["results"] = [{k: v for k, v in r.items() if k != "ms"}
                             for r in report["results"]]
        return report

    commands = [
        ["solve", str(inst_path), "--algo", "combined"],
        ["solve", str(inst_path), "--algo", "s2"],
        ["solve", str(inst_path), "--algo", "greedy"],
        ["solve", str(inst_path), "--algo", "exact"],
        ["compare", str(inst_path)],
        ["verify", "--suite", "pairs", "--trials", "60", "--seed", "5"],
        ["verify", "--suite", "cycles", "--trials", "40", "--seed", "5"],
        ["verify", "--suite", "tight"],
    ]
    for i, argv in enumerate(commands):
        out = tmp_path / f"{i}.json"
        runs = []
        for _ in range(2):
            code = cli.main(argv + ["--json", str(out)])
            if code != 0:
                failures.append(f"{argv}: exit {code}")
                break
            runs.append(scrub(json.loads(out.read_text())))
        if len(runs) == 2 and runs[0] != runs[1]:
            failures.append(f"{argv}: reports differ")

    for _ in range(2):
        code = cli.main(["gen", "--family", "random", "-n", "7", "--seed", "11",
                         str(tmp_path / "gen.txt")])
        if code != 0:
            failures.append("gen failed")
    capsys.readouterr()
    _finish(9, "CLI determinism under fixed seeds", time.perf_counter() - t0,
            120, failures)
