"""Executable checks for the overlap-structure inequalities, plus generators.

Setting: non-equivalent nice words w_1, ..., w_k (see words.nice_rotation)
and for each one a repetition prefix x_i (a w_i-string).  With
l_i = |w_i|, a_i = alpha(w_i) and o_ij = |ov(x_i, x_j)| the checks cover,
in exact rational arithmetic:

* pairwise caps such as o_12 < l_1 + a_2 and o_12 < k*l_2 for the smallest
  k with l_1 <= k*l_2,
* slack lower bounds built from do_ij = (l_i + l_j/2) - o_ij and
  da_i = l_i/2 - a_i,
* constraints on where the extreme rotations of the first word can start
  once o_12 is large,
* per-cycle weight bounds with M = lightest edge, O = total edge weight,
  L = sum of periods and dO = (3/2)L - O, chiefly 2M + 7O <= 11L and the
  weaker M + 24O <= (145/4)L.

The generators produce the families on which the main cycle bound is tight
(gap 17 for the two-word family, 28 for the three-word family), the chain
family whose path overlap approaches (3/2) * sum(l_i), and seeded random
nice words and instances for fuzz campaigns.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import words
from .graph import (
    DegenerateInstanceError,
    Instance,
    max_cycle_cover,
    normalize,
)
from .pipeline import representative_overlap, representatives
from .words import NiceWord, RotationKind


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check.

    ``holds`` is derived, lhs < rhs when ``strict`` else lhs <= rhs; checks
    whose preconditions fail report ``applicable=False`` and hold vacuously.
    For disjunction-style checks lhs is a 0/1 indicator tested against 0.
    """

    check_id: str
    inputs: str
    lhs: int | Fraction
    rhs: int | Fraction
    strict: bool = False
    applicable: bool = True

    @property
    def holds(self) -> bool:
        return not self.applicable or (
            self.lhs < self.rhs if self.strict else self.lhs <= self.rhs)

    def to_jsonable(self) -> dict:
        return {
            "check_id": self.check_id,
            "inputs": self.inputs,
            "lhs": f"{self.lhs.numerator}/{self.lhs.denominator}",
            "rhs": f"{self.rhs.numerator}/{self.rhs.denominator}",
            "strict": self.strict,
            "holds": self.holds,
            "applicable": self.applicable,
        }


def _require_usable_pair(w1: NiceWord, w2: NiceWord) -> None:
    if w1.degenerate or w2.degenerate:
        raise ValueError("degenerate word")
    if words.rotations_equivalent(w1.word, w2.word):
        raise ValueError("equivalent words")


Node = tuple[NiceWord, str]


def _unpack(node: Node):
    w, x = node
    if not words.is_w_string(x, w):
        raise ValueError("x is not a repetition prefix of its word")
    return w, x, len(w.word), w.alpha


def check_pair_bounds(a: Node, b: Node) -> list[BoundReport]:
    """Directed checks for the ordered pair (a, b), plus the two-sided
    slack floor that constrains both directions at once."""
    w1, x1, l1, a1 = _unpack(a)
    w2, x2, l2, a2 = _unpack(b)
    _require_usable_pair(w1, w2)
    o12 = words.overlap_len(x1, x2)
    o21 = words.overlap_len(x2, x1)
    do12 = Fraction(2 * l1 + l2, 2) - o12
    do21 = Fraction(2 * l2 + l1, 2) - o21
    da1 = Fraction(l1, 2) - a1
    ctx = f"l1={l1} a1={a1} l2={l2} a2={a2} o12={o12} o21={o21}"

    k_mult = -(-l1 // l2)  # smallest k with l1 <= k*l2
    short = l1 <= l2 and o12 >= l1 + a2 - a1
    cap = min(abs(a2 - k * l1) for k in range(1, a2 // l1 + 3)) if short else 0
    return [
        BoundReport("overlap_cap", ctx, o12, l1 + a2, strict=True),
        BoundReport("overlap_multiple_cap", f"{ctx} k={k_mult}",
                    o12, k_mult * l2, strict=True),
        BoundReport("overlap_alpha_flat", ctx, o12 + a1, l1 + l2,
                    applicable=l2 <= l1 < 2 * l2),
        BoundReport("overlap_alpha_mid", ctx, o12 + a1, 2 * l1 - l2,
                    applicable=2 * l2 <= l1 and 2 * l1 < 5 * l2),
        BoundReport("overlap_alpha_general", ctx, o12 + a1, l1 + l2 + a2,
                    applicable=l1 >= l2),
        BoundReport("slack_sum_flat", ctx, Fraction(l1 - l2, 2), do12 + da1,
                    applicable=l2 <= l1 < 2 * l2),
        BoundReport("slack_sum_steep", ctx, Fraction(l1 - l2, 4), do12 + da1,
                    applicable=l1 >= 3 * l2),
        BoundReport("slack_sum_general", ctx, Fraction(l1 - l2, 6), do12 + da1,
                    applicable=l1 >= l2),
        BoundReport("mutual_slack_floor", ctx, Fraction(l2, 2), do12 + do21,
                    applicable=l1 >= 2 * l2),
        BoundReport("short_source_alpha_cap", ctx, a1, cap, applicable=short),
    ]


def verify_rotation_positions(a: Node, b: Node) -> BoundReport:
    """Where can the extreme rotations of the first word start, given a long
    overlap onto the second?

    With l1 >= l2, o12 >= l2 and the second word in max-rotation form (the
    min-rotation case reads the alphabet reversed, which swaps i_max and
    i_min), let w12 be a rotation of the first word that matches ov(x1, x2)
    from the left (the earliest start when several match).  Then, 1-based and
    with r_max = l2*floor((o12-1)/l2) + 1 and
    r_min = l2*floor((o12-a2-1)/l2) + a2 + 1:

    * i_max(w12) is 1 or r_max, or exceeds max(r_max, o12 - a2 + 1);
    * i_min(w12) is a2+1 or r_min, or exceeds max(r_min, o12 - (l2-a2) + 1);
    * if additionally o12 >= l1: i_max(w12) != 1 and i_min(w12) = a2 + 1;
    * and always a1 <= l2 + (l1 + a2 - o12).
    """
    w1, x1, l1, a1 = _unpack(a)
    w2, x2, l2, a2 = _unpack(b)
    _require_usable_pair(w1, w2)
    o12 = words.overlap_len(x1, x2)
    ctx = f"l1={l1} a1={a1} l2={l2} a2={a2} o12={o12} kind2={w2.kind.value}"
    if not (l1 >= l2 and o12 >= l2):
        return BoundReport("extreme_rotation_positions", ctx, 0, 0, applicable=False)

    base1, ov = w1.word, x2[:o12]  # ov(x1, x2) is x2's prefix of length o12
    # the earliest r with ov a prefix of rotation r repeated forever; a
    # match at r < l1 fits in the repetitions searched
    r = (base1 * (o12 // l1 + 2)).find(ov)
    if not 0 <= r < l1:
        raise AssertionError("overlap is not a factor of the word's repetitions")
    w12 = base1[r:] + base1[:r]
    imax = words.maximal_rotation_index(w12)
    imin = words.minimal_rotation_index(w12)
    if w2.kind is RotationKind.MIN:
        # the reversed alphabet: every find offset stays, and the greatest
        # and least rotations trade places
        imax, imin = imin, imax

    r_max = l2 * ((o12 - 1) // l2) + 1
    r_min = l2 * ((o12 - a2 - 1) // l2) + a2 + 1
    ok = (imax == 1 or imax == r_max or imax > max(r_max, o12 - a2 + 1))
    ok &= (imin == a2 + 1 or imin == r_min
           or imin > max(r_min, o12 - (l2 - a2) + 1))
    if o12 >= l1:
        ok &= imax != 1 and imin == a2 + 1
    ok &= a1 <= l2 + (l1 + a2 - o12)
    return BoundReport("extreme_rotation_positions",
                       f"{ctx} imax={imax} imin={imin}", 0 if ok else 1, 0)


@dataclass(frozen=True)
class CycleFixture:
    """An ordered cycle of (nice word, repetition prefix) nodes."""

    nodes: tuple[Node, ...]

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("a cycle fixture needs at least two nodes")
        for node in self.nodes:
            _unpack(node)
        for (w1, _), (w2, _) in itertools.combinations(self.nodes, 2):
            _require_usable_pair(w1, w2)

    def __len__(self):
        return len(self.nodes)


def cycle_quantities(f: CycleFixture):
    """(lengths, overlaps-around-the-cycle, M, O, L, dO)."""
    k = len(f)
    ls = [len(w.word) for w, _ in f.nodes]
    os = [words.overlap_len(f.nodes[t][1], f.nodes[(t + 1) % k][1])
          for t in range(k)]
    m, o, length = min(os), sum(os), sum(ls)
    return ls, os, m, o, length, Fraction(3 * length, 2) - o


def check_cycle_bounds(f: CycleFixture) -> list[BoundReport]:
    """Cycle-level weight bounds and their supporting slack inequalities."""
    k = len(f)
    ls, os, m, o, length, d_o = cycle_quantities(f)
    ctx = f"ls={ls} os={os} M={m} O={o} L={length}"
    reports = [
        BoundReport("cycle_weight_bound", ctx, 2 * m + 7 * o, 11 * length),
        BoundReport("cycle_weight_bound_weak", ctx, m + 24 * o,
                    Fraction(145, 4) * length),
    ]

    # edge classification: edge t runs from node t to node t+1
    down = [(t, ls[t], ls[(t + 1) % k]) for t in range(k)
            if ls[t] >= ls[(t + 1) % k]]
    up = [(t, ls[t], ls[(t + 1) % k]) for t in range(k)
          if ls[t] < ls[(t + 1) % k]]
    steep_down = {t for t, li, lj in down if li >= 2 * lj}
    for t, li, lj in up:
        do_t = Fraction(2 * li + lj, 2) - os[t]
        reports.append(BoundReport("up_edge_slack", f"{ctx} edge={t}",
                                   Fraction(2 * li - lj, 2), do_t))

    descent = sum(li - lj for _, li, lj in down)
    if not steep_down:
        const = Fraction(1, 4)
    elif not any((t + 1) % k in steep_down for t in steep_down):
        const = Fraction(1, 8)
    else:
        const = Fraction(1, 12)
    reports.append(BoundReport("descent_slack", f"{ctx} const={const}",
                               const * descent, d_o))

    l_min, l_max = min(ls), max(ls)
    reports.append(BoundReport("flat_cycle_slack", ctx, Fraction(l_min, 4), d_o,
                               applicable=2 * l_min > l_max and l_min != l_max))

    all_equal = l_min == l_max
    reports.append(BoundReport("equal_length_overlap_cap", ctx, o, k * l_max,
                               strict=True, applicable=all_equal))

    # sufficient-condition routes to the main bound
    reports.append(BoundReport("slack_sufficiency", ctx, 2 * m + 7 * o, 11 * length,
                               applicable=2 * m - 7 * d_o <= Fraction(length, 2)))
    threshold = Fraction(6 - k, 2 * (7 * k + 2)) * length
    reports.append(BoundReport("delta_sufficiency", ctx, 2 * m + 7 * o, 11 * length,
                               applicable=d_o >= threshold))
    return reports


# --------------------------------------------------------------------------
# generators


def _nice_of(w: str) -> NiceWord:
    nice = words.nice_rotation(w)
    if nice.word != w:
        raise AssertionError(f"constructed word {w!r} is not its own nice rotation")
    return nice


def gen_tight_2cycle(k: int) -> CycleFixture:
    """Two-word family on which the main cycle bound is tight up to 17."""
    if k < 1:
        raise ValueError("k must be >= 1")
    a, b = "a", "b"
    w1 = b + a * k + b + a * (k + 1) + b + a * (k + 1)
    w2 = a * (k + 1) + b + a * k + b
    x1 = (w1 * 2)[: 2 * len(w1) - 1]
    x2 = (w2 * 2)[: 2 * len(w2) - 1]
    return CycleFixture(nodes=((_nice_of(w1), x1), (_nice_of(w2), x2)))


def expected_tight_2cycle(k: int) -> dict:
    return {"family": "tight2", "k": k,
            "lengths": [3 * k + 5, 2 * k + 3],
            "overlaps": [4 * k + 5, 3 * k + 4],
            "L": 5 * k + 8, "M": 3 * k + 4, "O": 7 * k + 9,
            "gap": 17}


def gen_tight_3cycle(n: int) -> CycleFixture:
    """Three-word family on which the main cycle bound is tight up to 28."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = "a", "b"
    pmax_long = b + a * n + b + a * (n + 1) + b + a * n + b
    w1 = pmax_long + a * (n + 1) + b + a * (n + 1) + b + a * (n + 1)
    w2 = a * (n + 1) + b + a * (n + 1) + pmax_long
    w3 = a * (n + 1) + b + a * n + b
    alpha2 = 2 * n + 3
    x1 = (w1 * 2)[: 2 * len(w1) - 1]
    x2 = (w2 * 3)[: 2 * len(w2) + alpha2 - 1]
    x3 = (w3 * 4)[: 4 * len(w3) - 1]
    return CycleFixture(nodes=((_nice_of(w1), x1), (_nice_of(w2), x2),
                               (_nice_of(w3), x3)))


def expected_tight_3cycle(n: int) -> dict:
    return {"family": "tight3", "n": n,
            "lengths": [6 * n + 10, 5 * n + 8, 2 * n + 3],
            "overlaps": [8 * n + 12, 6 * n + 8, 5 * n + 7],
            "L": 13 * n + 21, "M": 5 * n + 7, "O": 19 * n + 27,
            "gap": 28}


def _chain_string(i: int) -> str:
    a, b = "a", "b"
    if i % 2 == 0:
        k = i // 2
        return b * k + a * k + b * k + a * (k - 1)
    k = (i + 1) // 2
    return a * (k - 1) + b * k + a * (k - 1) + b * (k - 1)


def gen_greedy_path(n: int) -> tuple[Instance, list[int]]:
    """Chain family x_3 .. x_n whose descending path has overlap ~ (3/2) sum l_i.

    Returns the instance (strings in index order x_3, ..., x_n) and the
    expected consecutive overlaps, ``expected_greedy_path(n)["overlaps"]``.
    """
    if n < 4:
        raise ValueError("n must be >= 4 to give at least two strings")
    strings = tuple(_chain_string(i) for i in range(3, n + 1))
    return Instance(strings=strings), expected_greedy_path(n)["overlaps"]


def expected_greedy_path(n: int) -> dict:
    """The chain family's consecutive overlaps |ov(x_{i+1}, x_i)| for
    i = 3..n-1, each equal to floor(3i/2), and its periods l_i = i."""
    return {"family": "greedy", "n": n,
            "overlaps": [3 * i // 2 for i in range(3, n)],
            "periods": list(range(3, n + 1))}


_MAX_DRAWS = 10000


def _letters(alphabet_size: int) -> str:
    if not 2 <= alphabet_size <= 8:
        raise ValueError("alphabet_size must be 2 to 8")
    return "abcdefgh"[:alphabet_size]


def gen_random_nice(rng: random.Random, length_range: tuple[int, int] = (2, 24),
                    alphabet_size: int = 2) -> NiceWord:
    """Nice rotation of a random primitive string; deterministic under rng."""
    letters = _letters(alphabet_size)
    lo, hi = length_range
    if lo < 2:
        raise ValueError("lengths must be >= 2")
    for _ in range(1000):
        w = "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))
        if words.is_primitive(w):
            return words.nice_rotation(w)
    raise RuntimeError("could not sample a primitive string in 1000 draws")


def gen_random_instance(rng: random.Random, n_range=(2, 8), length_range=(1, 12),
                        alphabet_size: int = 2) -> Instance:
    """Random normalized instance of at least ``max(2, n_range[0])`` strings;
    deterministic under rng.

    Each draw takes ``rng.randint(*n_range)`` strings with lengths in
    ``length_range`` and normalizes them.  A draw that keeps fewer strings
    is redrawn; after _MAX_DRAWS draws, ValueError.  Arguments with which
    no draw can keep enough strings raise ValueError before the rng is
    touched.  Substring-free strings are prefix-free, so by Kraft's
    inequality at most ``alphabet_size ** length_range[1]`` of them exist;
    all strings of that length reach the cap.
    """
    letters = _letters(alphabet_size)
    fewest, longest = n_range[0], length_range[1]
    if n_range[1] < 2:
        raise ValueError("n_range must allow at least 2 strings")
    if not 1 <= length_range[0] <= longest:
        raise ValueError("need 1 <= length_range[0] <= length_range[1]")
    # alphabet_size ** longest > fewest once longest >= fewest.bit_length()
    if longest < fewest.bit_length() and fewest > alphabet_size ** longest:
        raise ValueError(
            f"n_range[0] = {fewest} exceeds alphabet_size ** length_range[1] = "
            f"{alphabet_size ** longest}, the most strings that can be substring-free")
    for _ in range(_MAX_DRAWS):
        raw = ["".join(rng.choice(letters)
                       for _ in range(rng.randint(*length_range)))
               for _ in range(rng.randint(*n_range))]
        try:
            inst, _ = normalize(raw)
        except DegenerateInstanceError:
            continue
        if len(inst) >= fewest:
            return inst
    raise ValueError(f"no draw of {_MAX_DRAWS} kept {fewest} substring-free strings")


# --------------------------------------------------------------------------
# fuzz campaigns (shared by the test suite and the command line)


@dataclass
class CampaignResult:
    """Counts, violations and notes of one campaign; ``checks_failed`` and
    ``checks_held`` are derived from them, not stored."""

    name: str
    cases: int = 0
    checks_run: int = 0
    applicable_counts: Counter = field(default_factory=Counter)
    violations: list[dict] = field(default_factory=list)
    anomalies: list[str] = field(default_factory=list)
    skipped: int = 0  # cycles left out of the checks as outside the theory

    @property
    def checks_failed(self) -> int:
        return len(self.violations)

    @property
    def checks_held(self) -> int:
        return self.checks_run - self.checks_failed

    def absorb(self, reports: Sequence[BoundReport], context: str) -> None:
        for rep in reports:
            self.checks_run += 1
            if rep.applicable:
                self.applicable_counts[rep.check_id] += 1
            if not rep.holds:
                entry = rep.to_jsonable()
                entry["context"] = context
                self.violations.append(entry)

    def merge(self, other: CampaignResult) -> None:
        """Add the counts, violations and notes of another chunk of the same
        campaign; merging the chunks of a split trial range in order gives
        the result of the unsplit range."""
        self.cases += other.cases
        self.checks_run += other.checks_run
        self.applicable_counts.update(other.applicable_counts)
        self.violations.extend(other.violations)
        self.anomalies.extend(other.anomalies)
        self.skipped += other.skipped


def _trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _random_pair(rng: random.Random, alphabet_size):
    w1 = gen_random_nice(rng, alphabet_size=alphabet_size)
    while True:
        w2 = gen_random_nice(rng, alphabet_size=alphabet_size)
        if not words.rotations_equivalent(w1.word, w2.word):
            break
    x1 = words.w_string_prefix(w1, rng.randint(len(w1.word), 4 * len(w1.word)))
    x2 = words.w_string_prefix(w2, rng.randint(len(w2.word), 4 * len(w2.word)))
    return (w1, x1), (w2, x2)


def _structured_pair(rng: random.Random):
    """An ordered pair from one of the tight families, with fresh extension
    lengths.  Independent random words rarely overlap by a full period, so
    this keeps the large-overlap regime of the checks exercised."""
    if rng.random() < 0.5:
        fixture = gen_tight_2cycle(rng.randint(1, 24))
    else:
        fixture = gen_tight_3cycle(rng.randint(1, 16))
    i, j = rng.sample(range(len(fixture)), 2)
    out = []
    for idx in (i, j):
        w, x = fixture.nodes[idx]
        n = rng.randint(len(w.word), max(4 * len(w.word), len(x)))
        out.append((w, words.w_string_prefix(w, n)))
    return tuple(out)


def pair_fuzz(trials: int, seed: int, *, start: int = 0) -> CampaignResult:
    """Random non-equivalent nice pairs, both directions, all pair checks.

    Two thirds of the trials draw independent random nice words; the rest
    draw from the tight families with randomized extensions.  Trial t draws
    from its own rng seeded by (seed, t), so splitting the trial range
    across workers changes nothing about the outcome.
    """
    result = CampaignResult(name="pairs")
    for t in range(start, start + trials):
        rng = _trial_rng(seed, t)
        if t % 3 == 2:
            a, b = _structured_pair(rng)
        else:
            a, b = _random_pair(rng, rng.choice((2, 3)))
        ctx = f"trial={t}"
        result.absorb(check_pair_bounds(a, b), ctx)
        result.absorb(check_pair_bounds(b, a), ctx)
        result.absorb([verify_rotation_positions(a, b)], ctx)
        result.absorb([verify_rotation_positions(b, a)], ctx)
        result.cases += 1
    return result


def cycle_fuzz(trials: int, seed: int, *, start: int = 0) -> CampaignResult:
    """Random cycle fixtures of 2..6 nodes, all cycle checks."""
    result = CampaignResult(name="cycles")
    for t in range(start, start + trials):
        rng = _trial_rng(seed, t)
        k = rng.randint(2, 6)
        alphabet = rng.choice((2, 3))
        nodes = []
        while len(nodes) < k:
            w = gen_random_nice(rng, (2, 16), alphabet)
            if any(words.rotations_equivalent(w.word, u.word) for u, _ in nodes):
                continue
            x = words.w_string_prefix(w, rng.randint(len(w.word), 4 * len(w.word)))
            nodes.append((w, x))
        fixture = CycleFixture(nodes=tuple(nodes))
        result.absorb(check_cycle_bounds(fixture), f"trial={t}")
        result.cases += 1
    return result


def pipeline_cycle_fuzz(trials: int, seed: int, *, start: int = 0) -> CampaignResult:
    """Random instances run through the reduction; every cycle of the
    maximum-weight cover over the representatives gets the cycle checks.

    Cycles touching a degenerate (single-letter-period) representative are
    outside the theory and recorded as skipped cases, not violations.
    """
    result = CampaignResult(name="pipeline-cycles")
    for t in range(start, start + trials):
        rng = _trial_rng(seed, t)
        inst = gen_random_instance(rng, alphabet_size=rng.choice((2, 3)))
        reps = representatives(inst)
        result.cases += 1
        if len(reps) < 2:
            continue
        cover = max_cycle_cover(representative_overlap(inst))
        for cyc in cover.cycles:
            chosen = [reps[i] for i in cyc]
            if any(r.nice.degenerate for r in chosen):
                result.skipped += 1
                continue
            try:
                fixture = CycleFixture(nodes=tuple((r.nice, r.text)
                                                   for r in chosen))
            except ValueError as exc:
                result.anomalies.append(f"trial={t} cycle={cyc}: {exc}")
                continue
            result.absorb(check_cycle_bounds(fixture),
                          f"trial={t} strings={inst.strings}")
    return result


def tight_sweep() -> CampaignResult:
    """Exactness sweep over both tight families for parameters 1..64: computed
    overlaps must match the closed forms and the main-bound gap must be
    exactly 17 resp. 28."""
    result = CampaignResult(name="tight")

    def check_family(fixture, expect):
        ls, os, m, o, length, _ = cycle_quantities(fixture)
        ctx = str({k: v for k, v in expect.items() if k in ("family", "k", "n")})
        result.absorb([
            BoundReport("tight_lengths", ctx, 0 if ls == expect["lengths"] else 1, 0),
            BoundReport("tight_overlaps", ctx, 0 if os == expect["overlaps"] else 1, 0),
            BoundReport("tight_stats", ctx,
                        0 if (m, o, length) == (expect["M"], expect["O"], expect["L"])
                        else 1, 0),
            BoundReport("tight_gap", ctx,
                        0 if 11 * length - (2 * m + 7 * o) == expect["gap"] else 1, 0),
        ], ctx)
        result.cases += 1

    for k in range(1, 65):
        check_family(gen_tight_2cycle(k), expected_tight_2cycle(k))
    for n in range(1, 65):
        check_family(gen_tight_3cycle(n), expected_tight_3cycle(n))
    return result


def greedy_chain_sweep() -> CampaignResult:
    """Exactness of the chain family's consecutive overlaps up to x_40 and
    its overlap-to-period ratio."""
    n = 40
    result = CampaignResult(name="greedy-chain")
    xs = gen_greedy_path(n)[0].strings  # xs[t] is x_{t+3}
    expect = expected_greedy_path(n)
    for idx, i in enumerate(range(3, n)):
        got = words.overlap_len(xs[idx + 1], xs[idx])
        result.absorb([BoundReport("chain_overlap", f"i={i} got={got}",
                                   0 if got == expect["overlaps"][idx] else 1, 0)],
                      f"i={i}")
    total, periods = sum(expect["overlaps"]), sum(expect["periods"])
    ratio = Fraction(total, periods)
    result.absorb([BoundReport("chain_ratio", f"total={total} periods={periods}",
                               Fraction(140, 100), ratio)], "ratio")
    result.cases = 1
    return result
