"""Tests of the benchmark's own code: generators, statistics, metric names,
output checks and tracing.  Run with ``python3 -m pytest bench/tests``."""

import json
import os
import random
import re
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
ROADMAP_REPRO = [("a" * i + "b") * 3 for i in range(1, 21)]


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture
def workdir():
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=run.ROOT) as d:
        yield d


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    spec = workloads.WORKLOADS[name]
    first = workloads.instance_strings(spec, 7)
    assert workloads.instance_strings(spec, 7) == first
    assert workloads.instance_strings(spec, 8) != first
    assert [len(oracle.normalize(raw)) for raw in first] == list(spec.sizes)


def test_reads_have_the_requested_shape():
    raw = workloads.reads_instance(random.Random(1), 120)
    assert len(oracle.normalize(raw)) == 120 < len(raw)  # some are contained
    assert set("".join(raw)) <= set("ACGT")
    assert all(80 <= len(r) <= 120 for r in raw)


def test_repeats_use_distinct_primitive_roots():
    for seed in range(5):
        strings = workloads.repeats_instance(random.Random(seed), 16)
        assert oracle.normalize(strings) == strings
        roots = []
        for s in strings:
            p = (s + s).find(s, 1)  # length of the primitive root
            root = s[:p]
            assert workloads.is_primitive(root) and 2 <= len(root) <= 8
            assert not any(workloads.rotation_equivalent(root, r) for r in roots)
            roots.append(root)


def test_rotation_equivalence():
    assert workloads.rotation_equivalent("abc", "cab")
    assert not workloads.rotation_equivalent("abc", "acb")
    assert not workloads.rotation_equivalent("ab", "aba")


@pytest.mark.parametrize("n, percentile, beyond", [(19, 50, 9), (20, 50, 10),
                                                   (200, 95, 10)])
def test_tail_percentile_rule(n, percentile, beyond):
    samples = [float(i) for i in range(n, 0, -1)]
    value, p, got_beyond = run.tail_percentile(samples)
    assert (p, got_beyond) == (percentile, beyond)
    assert sum(s > value for s in samples) == beyond


def test_metric_names_and_units():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == run.PER_LAYER_UNITS
    for name in list(e2e) + list(layers):
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)


def test_oracle_matches_brute_force_overlaps():
    rng = random.Random(3)
    for _ in range(50):
        strings = oracle.normalize(workloads.tiny_instance(rng, rng.randint(2, 8)))
        ov = oracle.overlap_table(strings)
        for i, u in enumerate(strings):
            for j, v in enumerate(strings):
                want = max(k for k in range(len(u)) if k < len(v) and
                           (k == 0 or u.endswith(v[:k])))
                assert ov[i][j] == want


def test_roadmap_repro_is_counted_as_refused(cli, workdir):
    path = os.path.join(workdir, "periodic.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(ROADMAP_REPRO) + "\n")
    ref = oracle.reference(ROADMAP_REPRO)
    report = os.path.join(workdir, "r.json")
    checker = run.Checker()
    for i, kind in enumerate(("solve", "compare")):
        op = run.Op(kind, [kind, path, "--json", report], report, ref)
        res = run.run_op(cli, op)
        assert res.status == "refused"
        checker.check(i, op, res)
    assert (checker.attempted, checker.failed) == (2, 2)


def test_wrong_output_is_caught():
    ref = oracle.reference(["abc", "bcd", "cde"])
    good = {"algo": "s2", "length": 5, "overlap": 4, "order": [0, 1, 2]}
    oracle.check_row(ref, good)
    for bad in (dict(good, order=[0, 0, 2]),
                dict(good, length=4, overlap=5),
                dict(good, order=[2, 1, 0])):
        with pytest.raises(oracle.WrongOutput):
            oracle.check_row(ref, bad)


def test_traced_round_reproduces_untraced_outputs(cli, workdir):
    spec = workloads.WorkloadSpec("verify", (2, 3, 5, 8), verify_trials=5,
                                  verify_every=4)
    ops = run.build_round(spec, 1, workdir)
    checker, tracer = run.Checker(), Tracer()
    run.run_round(cli, ops, checker)
    with tracer.installed():
        run.run_round(cli, ops, checker, tracer)  # raises if an output differs
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    assert tracer.total("cli.main") == len(ops)
    assert tracer.total("pipeline.representatives", kind="solve") == 2 * 4
    assert tracer.total("bounds.tight_sweep") == 1
