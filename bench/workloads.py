"""Seeded instance generators and the per-workload round of operations.

Every generator takes a ``random.Random`` built from the workload seed, so
the same seed always yields the same instance files.  The program under
test only ever sees the files these functions write.

A *round* is the fixed list of CLI operations a workload repeats while it is
measured: ``solve`` and ``compare`` on each of its instances, and the same
``verify`` campaign at the fixed seed ``VERIFY_SEED`` after every few
instances.  Every workload runs
all three commands, so every end-to-end metric is defined on each; the
workload sets which layer dominates.  Instance sizes after normalization are
fixed per workload and only their contents depend on the seed, so that
medians over rounds compare across seeds.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from oracle import normalize, self_loops_unique_min_cover

READ_LEN = (80, 120)
COVERAGE = 4
CHROMOSOMES = 3
ROOT_LEN = (2, 8)
ROOT_ALPHABET = "abc"
REPEAT_EXP = (2, 4)
TINY_LEN = (1, 12)
VERIFY_SEED = 0


@dataclass(frozen=True)
class WorkloadSpec:
    family: str
    sizes: tuple[int, ...]   # normalized size of each instance
    verify_trials: int       # trials per campaign of the verify operation
    verify_every: int        # instances between two verify operations


# Rounds are kept short, a few seconds, because on a shared host the best of
# many repeats of an operation is what holds steady from run to run.  The
# median instance of a round is a middle size, not a boundary between two.
WORKLOADS = {
    # read-like ACGT sets: 2-3 cycles, so overlap_matrix dominates
    # (50, 65, 80 normalized reads are about 70, 90, 110 drawn ones)
    "reads": WorkloadSpec("reads", (50, 65, 80), verify_trials=30, verify_every=1),
    # distinct tandem repeats: one cycle each, so the exact path solver
    # dominates; the default exact limit is 16, so nothing is refused
    "repeats": WorkloadSpec("repeats", (10, 11, 12, 13, 14), verify_trials=30,
                            verify_every=1),
    # the verification campaigns, plus many tiny solve/compare calls of the
    # sizes the pipeline-cycles campaign draws
    "verify": WorkloadSpec("verify", tuple(range(2, 9)) * 8, verify_trials=125,
                           verify_every=14),
}


def reads_instance(rng: random.Random, n: int) -> list[str]:
    """Reads of 80-120 bp cut at ~4x coverage from three random chromosomes,
    drawn until exactly ``n`` of them survive normalization.

    Separate chromosomes give the cycle cover a few cycles, so the path
    solver runs on a handful of representatives.  Fixing the normalized
    count keeps the work per instance, which grows as n^2, the same across
    seeds; the contained reads stay in the file.
    """
    mean_len = sum(READ_LEN) / 2
    chrom_len = int(n * mean_len / COVERAGE / CHROMOSOMES)
    chroms = ["".join(rng.choice("ACGT") for _ in range(chrom_len))
              for _ in range(CHROMOSOMES)]
    reads: list[str] = []
    survivors: list[str] = []
    while len(survivors) < n:
        chrom = rng.choice(chroms)
        length = rng.randint(*READ_LEN)
        start = rng.randint(0, chrom_len - length)
        read = chrom[start:start + length]
        reads.append(read)
        if not any(read in s for s in survivors):
            survivors = [s for s in survivors if s not in read] + [read]
    return reads


def is_primitive(w: str) -> bool:
    return (w + w).find(w, 1) == len(w)


def rotation_equivalent(u: str, v: str) -> bool:
    return len(u) == len(v) and u in v + v


def repeats_instance(rng: random.Random, n: int) -> list[str]:
    """``n`` tandem repeats of distinct primitive roots over {a,b,c}, each of
    which is its own cycle of the minimum cycle cover.

    A root is redrawn when it is not primitive, is a rotation of an earlier
    root, or its repeat would contain or be contained in an earlier string,
    so normalization keeps all ``n`` strings; the whole set is redrawn when
    the all-self-loop cover is not the unique minimum, so the reduction
    always yields ``n`` representatives.
    """
    while True:
        roots: list[str] = []
        strings: list[str] = []
        while len(strings) < n:
            root = "".join(rng.choice(ROOT_ALPHABET)
                           for _ in range(rng.randint(*ROOT_LEN)))
            s = root * rng.randint(*REPEAT_EXP)
            if (not is_primitive(root)
                    or any(rotation_equivalent(root, r) for r in roots)
                    or any(s in t or t in s for t in strings)):
                continue
            roots.append(root)
            strings.append(s)
        if self_loops_unique_min_cover(strings):
            return strings


def tiny_instance(rng: random.Random, n: int) -> list[str]:
    """Strings of length 1-12 over 2 or 3 letters, drawn until exactly ``n``
    of them survive normalization."""
    letters = "abc"[:rng.choice((2, 3))]
    raw: list[str] = []
    while len(normalize(raw)) != n:
        raw.append("".join(rng.choice(letters)
                           for _ in range(rng.randint(*TINY_LEN))))
        if len(raw) > 4 * n:  # stuck at a size the alphabet allows no more of
            raw = []
    return raw


def instance_strings(spec: WorkloadSpec, seed: int) -> list[list[str]]:
    rng = random.Random(f"{spec.family}:{seed}")
    if spec.family == "reads":
        return [reads_instance(rng, n) for n in spec.sizes]
    if spec.family == "repeats":
        return [repeats_instance(rng, n) for n in spec.sizes]
    return [tiny_instance(rng, n) for n in spec.sizes]


def write_instances(spec: WorkloadSpec, seed: int, directory: str) -> list[tuple[str, list[str]]]:
    """Write one plain CLI instance file per instance; returns (path, strings)."""
    out = []
    for k, strings in enumerate(instance_strings(spec, seed)):
        path = os.path.join(directory, f"{spec.family}-{k:02d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# family={spec.family} seed={seed} index={k}\n")
            fh.write("\n".join(strings) + "\n")
        out.append((path, strings))
    return out
