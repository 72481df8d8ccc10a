"""Relations that hold at any size, checked where the brute-force oracles
cannot reach: on Hypothesis draws and on one set of over a thousand reads.

- Order-preserving relabelling maps every text letter for letter, once into
  other ASCII letters and once into non-ASCII ones.  Only order-preserving
  maps qualify, because nice rotations depend on letter order.  Large ASCII
  input goes through ``graph``'s head index and non-ASCII input through its
  direct scans, so at scale the two must agree.
- Reversing every string transposes the overlap matrix, so the minimum
  cycle cover's weight and the optimal superstring's length stay the same.
- Blum et al.'s Mgreedy theorem (JACM 1994): on the overlap matrix of a
  substring-free instance, greedy assignment (take the largest cell, strike
  its row and column) reaches the maximum assignment, the one the minimum
  cover of the prefix matrix makes.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superstring.atsp import DEFAULT_EXACT_LIMIT
from superstring.graph import DegenerateInstanceError, normalize
from superstring.pipeline import solve_each

ALPHABETS = ("ab", "abc", "ACGT")
# the lowest code points, NUL first, and the highest, U+10FFFF last
LOW = "".join(map(chr, range(4)))
HIGH = "".join(map(chr, range(0x10FFFF - 3, 0x110000)))


def relabelling(alphabet: str, image: str) -> dict[int, str]:
    """The order-preserving map of ``alphabet``'s sorted letters onto the
    first letters of ``image``, as a ``str.translate`` table."""
    return {ord(a): b for a, b in zip(sorted(alphabet), image)}


@st.composite
def raw_draws(draw):
    """Two to nine strings, some cut from one random text so that they
    overlap, the others drawn on their own; most draws stay below a few
    hundred letters, some reach a thousand."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    text = draw(st.text(alphabet, min_size=1, max_size=300))
    cut = st.tuples(st.integers(0, len(text) - 1), st.integers(1, 120)).map(
        lambda t: text[t[0]:t[0] + t[1]])
    raw = draw(st.lists(cut | st.text(alphabet, min_size=1, max_size=12),
                        min_size=2, max_size=9))
    return alphabet, raw


def read_set(seed: int, count: int) -> list[str]:
    """``count`` reads of 80-120 letters cut at random from three random
    ACGT chromosomes at about 4x coverage."""
    rng = random.Random(seed)
    chrom_len = count * 100 // 4 // 3
    chroms = ["".join(rng.choice("ACGT") for _ in range(chrom_len)) for _ in range(3)]
    reads = []
    for _ in range(count):
        chrom = rng.choice(chroms)
        length = rng.randint(80, 120)
        at = rng.randint(0, chrom_len - length)
        reads.append(chrom[at:at + length])
    return reads


@pytest.fixture(scope="module")
def reads():
    """1300 reads, 1008 of them substring-free, their instance and its log."""
    raw = read_set(11, 1300)
    inst, log = normalize(raw)
    assert len(inst) >= 1000 and len(inst.cover.cycles) >= 2
    return raw, inst, log


def solutions(inst, algos):
    return {algo: sol for algo, sol, _ in solve_each(inst, algos)}


def check_relabelling(alphabet, raw, algos, images=(LOW, HIGH)):
    try:
        inst, log = normalize(raw)
    except DegenerateInstanceError:
        return
    base = solutions(inst, algos)
    for image in images:
        table = relabelling(alphabet, image)
        mapped, mapped_log = normalize([s.translate(table) for s in raw])
        assert mapped.strings == tuple(s.translate(table) for s in inst.strings)
        assert mapped_log == [(why, s.translate(table)) for why, s in log]
        assert np.array_equal(mapped.overlap.w, inst.overlap.w)
        assert mapped.cover == inst.cover
        for algo, sol in solutions(mapped, algos).items():
            assert (sol.order, sol.text, sol.total_overlap, sol.algorithm) == (
                base[algo].order, base[algo].text.translate(table),
                base[algo].total_overlap, base[algo].algorithm), algo


def check_reversal(raw, exact):
    try:
        inst, log = normalize(raw)
    except DegenerateInstanceError:
        return
    rev, rev_log = normalize([s[::-1] for s in raw])
    assert rev.strings == tuple(s[::-1] for s in inst.strings)
    assert rev_log == [(why, s[::-1]) for why, s in log]
    assert np.array_equal(rev.overlap.w, inst.overlap.w.T)
    assert rev.cover.total_weight == inst.cover.total_weight
    if exact:
        (_, a, _), = solve_each(inst, ("exact",))
        (_, b, _), = solve_each(rev, ("exact",))
        assert a.length == b.length


def mgreedy_weight(w: np.ndarray) -> int:
    """Weight of the greedy assignment on ``w``: take the largest cell, row
    by row on ties, strike its row and column, repeat."""
    n = len(w)
    w = w.astype(np.int32)
    total = 0
    for _ in range(n):
        i, j = divmod(int(w.argmax()), n)
        total += int(w[i, j])
        w[i] = w[:, j] = -1
    return total


def check_mgreedy(inst):
    assert mgreedy_weight(inst.overlap.w) == inst.total_length - inst.cover.total_weight


# ------------------------------------------------------------------- draws

@given(raw_draws())
@settings(max_examples=150, deadline=None)
def test_relabelling_maps_every_text(case):
    alphabet, raw = case
    check_relabelling(alphabet, raw, ("combined", "greedy"))


@given(raw_draws())
@settings(max_examples=150, deadline=None)
def test_reversal_transposes_the_overlap_matrix(case):
    _, raw = case
    check_reversal(raw, exact=len(set(raw)) <= DEFAULT_EXACT_LIMIT)


@given(raw_draws())
@settings(max_examples=200, deadline=None)
def test_mgreedy_reaches_the_minimum_cover(case):
    _, raw = case
    try:
        inst, _ = normalize(raw)
    except DegenerateInstanceError:
        assume(False)
    check_mgreedy(inst)


# ------------------------------------------------------------ a read set

def test_relabelling_at_scale(reads):
    raw, _, _ = reads
    check_relabelling("ACGT", raw, ("combined",), images=("acgt", HIGH))


def test_reversal_at_scale(reads):
    raw, _, _ = reads
    check_reversal(raw, exact=False)


def test_mgreedy_at_scale(reads):
    _, inst, _ = reads
    check_mgreedy(inst)
