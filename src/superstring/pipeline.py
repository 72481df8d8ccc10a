"""The superstring construction pipeline and its baselines.

The main route reduces the instance to a small set of *representatives*:

1. exact minimum cycle cover of the prefix graph,
2. per cycle, read off the cycle string s(C) (concatenated prefix parts,
   whose length is the cycle's weight), take the nice rotation w(C) of it,
   and emit the shortest prefix of w(C) repeated forever that contains every
   member of the cycle,
3. solve a maximum-path problem on the overlap graph of the representatives
   and merge them along the resulting order.

``solve_s1`` runs this with the path solver named by a ``SolverTag`` and
``solve_s2`` with the cycle-cover/drop-lightest-edge solver;
``greedy_superstring`` and ``exact_superstring`` are the classic baselines.
All of them read the instance's overlap matrix and cover (``Instance.overlap``,
``Instance.cover``), which each instance computes once, and return through
``_solution``, which checks the text against every instance string.

The rest of the reduction is also computed once per instance object and
kept on that object only, the way ``Instance`` keeps its matrix and cover:
``representatives`` builds the representatives on its first call, and
``representative_overlap`` builds their overlap matrix on first use only
(a single representative needs none), so s1, s2 and the
``bounds.pipeline_cycle_fuzz`` campaign share one reduction.  ``_solution``
checks each distinct text once per instance, so s1 and s2 returning the
same text check it once.  Nothing is shared between two equal instances.
The pipeline's string searches, that check and each representative's search
for its members, are first occurrences from ``graph.first_occurrences``,
which goes through the head index on long ASCII texts (see ``graph``).
``solve_each`` runs the ``ALGORITHMS`` by name and holds the run rules (s1
under ``half`` is s2's run; ``combined`` is ``better_of`` s1 and s2);
``solve_combined`` and the ``solve``/``compare`` commands go through it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from . import words
from .atsp import DEFAULT_EXACT_LIMIT, SolverTag, int_table_type, max_path
from .graph import (Instance, WeightMatrix, first_occurrences, overlap_matrix,
                    path_overlaps)


@dataclass(frozen=True)
class Representative:
    """Compressed stand-in for one cycle of the minimum cycle cover.

    ``text`` contains every member string of the cycle; it is a prefix of
    ``nice.word`` repeated forever.  ``l``, the cycle's prefix-graph weight
    (the period the cycle winds around) that the weight accounting runs on,
    is ``|nice|``: the nice rotation keeps the cycle string's length.
    """

    text: str
    nice: words.NiceWord
    members: tuple[int, ...]

    @property
    def l(self) -> int:
        return len(self.nice)


@dataclass(frozen=True)
class Solution:
    """A superstring plus bookkeeping.

    ``length`` is derived from ``text``; ``total_overlap`` is the saving
    over concatenation, ``sum(|s_i|) - length``, for merged solutions the
    sum of consecutive overlaps along ``order``.
    """

    order: tuple[int, ...]
    text: str
    total_overlap: int
    algorithm: str

    @property
    def length(self) -> int:
        return len(self.text)


def _merge_texts(texts: Sequence[str], overlaps: Sequence[int]) -> str:
    """pref(t1,t2) pref(t2,t3) ... t_last: the texts joined in order, each
    overlapping the next by the given amount, ``overlaps[t] = ov(t_t, t_t+1)``."""
    out = [t[:len(t) - o] for t, o in zip(texts, overlaps)]
    out.append(texts[-1])
    return "".join(out)


def _kept(inst: Instance, name: str, build):
    """``build()``, made on the first call for this instance object and kept
    in its ``__dict__`` under ``name``, as ``cached_property`` keeps
    ``Instance.overlap``: freed with the object, never shared with an equal
    instance."""
    kept = vars(inst)
    if name not in kept:
        kept[name] = build()
    return kept[name]


def _solution(inst: Instance, text: str, algorithm: str, order=None) -> Solution:
    """``text`` as a Solution: each instance string is found in it, a miss
    raises AssertionError, and ``order`` defaults to the strings' order of
    first appearance.  The search is ``graph.first_occurrences``, through
    the head index on a long ASCII text; it runs once per distinct text per
    instance, and only a text that passed is kept."""
    checked = _kept(inst, "_checked_texts", dict)
    pos = checked.get(text)
    if pos is None:
        pos = first_occurrences(text, inst.strings)
        if min(pos) < 0:
            raise AssertionError("pipeline output lost an input string")
        checked[text] = pos
    if order is None:
        order = sorted(range(len(pos)), key=pos.__getitem__)
    return Solution(order=tuple(order), text=text,
                    total_overlap=inst.total_length - len(text),
                    algorithm=algorithm)


def cycle_string(inst: Instance, cycle: Sequence[int]) -> str:
    """Concatenated prefix parts read along the cycle; |s(C)| = cycle weight.

    Each part is ``s_i`` less its overlap with the next member, read from the
    instance's overlap matrix.
    """
    ss = inst.strings
    ov = path_overlaps(inst.overlap, (*cycle, cycle[0]))
    return "".join(ss[i][:len(ss[i]) - o] for i, o in zip(cycle, ov))


def representative(inst: Instance, cycle: Sequence[int]) -> Representative:
    """Shortest prefix of w(C) repeated forever that contains all cycle members.

    Every member is a substring of s(C) repeated forever, so it occurs in the
    w(C)-power at an offset below |s(C)|; the result is therefore shorter
    than |s(C)| + max member length.  Unary cycle strings get the degenerate
    single-letter NiceWord.  The cycle string of an exact minimum cover is
    primitive (Blum et al., JACM 1994), so it is its own repeating base and
    ``l`` is its length; ``nice_rotation`` raises ValueError on any other.
    The members' first occurrences come from ``graph.first_occurrences``.
    """
    s_c = cycle_string(inst, cycle)
    nice = words.nice_rotation(s_c)
    members = [inst.strings[i] for i in cycle]
    window = words.w_string_prefix(nice, len(s_c) + max(len(m) for m in members))
    need = 0
    for m, at in zip(members, first_occurrences(window, members)):
        if at < 0:
            raise AssertionError(f"cycle member {m!r} missing from {window!r}")
        need = max(need, at + len(m))
    return Representative(text=window[:need], nice=nice, members=tuple(cycle))


def _representatives(inst: Instance) -> list[Representative]:
    # representatives' body, which representative_overlap reads too, so a
    # wrapper of representatives sees only the calls made by solvers
    return _kept(inst, "_representatives",
                 lambda: [representative(inst, cyc) for cyc in inst.cover.cycles])


def representatives(inst: Instance) -> list[Representative]:
    """Representatives of all cycles of an exact minimum prefix-graph cover,
    built on the first call for ``inst``; later calls return the same list,
    which no caller changes."""
    return _representatives(inst)


def representative_overlap(inst: Instance) -> WeightMatrix:
    """The overlap matrix of the representative texts of ``inst``, in
    ``representatives`` order, built on first use and then kept (read-only)."""
    return _kept(inst, "_representative_overlap",
                 lambda: overlap_matrix([r.text for r in _representatives(inst)]))


def solve_s1(inst: Instance, path_solver: SolverTag = SolverTag.EXACT,
             limit: int = DEFAULT_EXACT_LIMIT) -> Solution:
    """Cycle-cover reduction followed by a max-path solve over representatives;
    ``limit`` is the exact path solver's node limit."""
    reps = representatives(inst)
    if len(reps) == 1:
        text = reps[0].text
    else:
        m = representative_overlap(inst)
        order = max_path(m, path_solver, limit).order
        text = _merge_texts([reps[i].text for i in order], path_overlaps(m, order))
    return _solution(inst, text, f"s1[{path_solver.value}]")


def solve_s2(inst: Instance) -> Solution:
    """Same reduction, with the drop-lightest-cycle-edge path construction."""
    return replace(solve_s1(inst, SolverTag.CYCLE_COVER_HALF), algorithm="s2")


def better_of(s1: Solution, s2: Solution) -> Solution:
    """The shorter of s1 and s2 (ties favour s1), as ``combined(<winner>)``."""
    winner = s1 if s1.length <= s2.length else s2
    return replace(winner, algorithm=f"combined({winner.algorithm})")


def greedy_superstring(inst: Instance) -> Solution:
    """Repeatedly merge the pair of current chains with the largest overlap.

    Ties pick the smallest (i, j) pair of chain ids; the merged chain
    replaces both and keeps the smaller id.  A chain is the list of its
    instance indices, and greedy works on the overlap matrix alone: on a
    substring-free instance the overlap of chain ``a...b`` with chain
    ``c...d`` is ``ov(b, c)``, since a longer one would put ``b`` or ``c``
    across a junction that greedy would have merged along a larger overlap
    first (Tarhio & Ukkonen 1988; Blum et al. 1994).  Appending chain
    ``j`` to chain ``i`` gives a chain that starts where ``i`` starts and
    ends where ``j`` ends, so its row is ``j``'s row and its column ``i``'s
    column: one ``argmax`` and a few whole-row and whole-column writes per
    merge, no string work, and the text is built once at the end.
    """
    n = len(inst)
    # ov[i, j] is the overlap of live chains i != j and -1 everywhere else,
    # so the row-major first maximum is the tie-broken best pair.  It is a
    # copy in the narrowest type that holds the longest string, and so every
    # overlap, which makes each argmax cheaper.
    longest = max(map(len, inst.strings))
    ov = inst.overlap.w.astype(int_table_type(longest)[0])
    np.fill_diagonal(ov, -1)
    chains = {i: [i] for i in range(n)}
    while len(chains) > 1:
        i, j = divmod(int(ov.argmax()), n)
        keep, drop = min(i, j), max(i, j)
        chains[keep] = chains[i] + chains[j]
        del chains[drop]
        ov[keep] = ov[j]
        ov[:, keep] = ov[:, i]
        ov[drop] = ov[:, drop] = ov[keep, keep] = -1
    (order,) = chains.values()
    text = _merge_texts([inst.strings[i] for i in order],
                        path_overlaps(inst.overlap, order))
    return _solution(inst, text, "greedy")


def exact_superstring(inst: Instance, limit: int = DEFAULT_EXACT_LIMIT) -> Solution:
    """Optimal superstring via the exact max-path solver on the overlap graph."""
    m = inst.overlap
    order = max_path(m, limit=limit).order
    text = _merge_texts([inst.strings[i] for i in order], path_overlaps(m, order))
    return _solution(inst, text, "exact", order)


ALGORITHMS = ("combined", "s1", "s2", "greedy", "exact")


def solve_each(inst: Instance, algos: Sequence[str],
               path_solver: SolverTag = SolverTag.EXACT, limit: int = DEFAULT_EXACT_LIMIT
               ) -> Iterator[tuple[str, Solution, float]]:
    """``(algo, Solution, ms)`` for each ``ALGORITHMS`` name in ``algos``, in
    that order, each run only when its row is asked for.  Each of s1, s2,
    greedy and exact runs at most once; under ``half`` s1 runs exactly what
    s2 runs, so its row is s2's run relabelled ``s1[half]``; ``combined`` is
    ``better_of`` the s1 and s2 runs, the ms of each counted once.  Solvers
    are looked up at call time, so a rebound one is the one that runs."""
    half = path_solver is SolverTag.CYCLE_COVER_HALF

    @functools.cache
    def run(algo):
        if algo == "combined":
            (s1, ms1), (s2, ms2) = run("s1"), run("s2")
            return better_of(s1, s2), ms2 if half else ms1 + ms2
        if algo == "s1" and half:
            sol, ms = run("s2")
            return replace(sol, algorithm="s1[half]"), ms
        t0 = time.perf_counter()
        if algo == "s1":
            sol = solve_s1(inst, path_solver, limit)
        elif algo == "s2":
            sol = solve_s2(inst)
        elif algo == "greedy":
            sol = greedy_superstring(inst)
        elif algo == "exact":
            sol = exact_superstring(inst, limit=limit)
        else:
            raise ValueError(f"unknown algorithm {algo!r}")
        return sol, (time.perf_counter() - t0) * 1000.0

    for algo in algos:
        yield (algo, *run(algo))


def solve_combined(inst: Instance, path_solver: SolverTag = SolverTag.EXACT,
                   limit: int = DEFAULT_EXACT_LIMIT) -> Solution:
    """The better of solve_s1 and solve_s2: ``solve_each``'s combined run."""
    return next(solve_each(inst, ("combined",), path_solver, limit))[1]
