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
All of them read the stages of the reduction from ``graph.Instance``,
which builds the representatives too (``Representative``, ``cycle_string``
and ``representative`` live in ``graph`` and are re-exported here), and
return through ``_solution``, which checks the text against every instance
string once per distinct text, with ``graph.first_occurrences``.
``solve_each`` runs the ``ALGORITHMS`` by name, each at most once, and
``combined`` is ``better_of`` s1 and s2; ``solve_combined`` and the
``solve``/``compare`` commands go through it.  Under ``half`` s1 runs what
s2 runs, over the same cached representatives, and returns the same text.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .atsp import DEFAULT_EXACT_LIMIT, SolverTag, max_path
from .graph import (Instance, Representative, cycle_string, first_occurrences,
                    path_overlaps, representative)


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


def _solution(inst: Instance, text: str, algorithm: str, order=None) -> Solution:
    """``text`` as a Solution: each instance string is found in it, a miss
    raises AssertionError, and ``order`` defaults to the strings' order of
    first appearance.  The search is ``graph.first_occurrences``, through
    the head index on a long ASCII text; it runs once per distinct text per
    instance, and only a text that passed is kept, in
    ``inst.checked_texts``."""
    checked = inst.checked_texts
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


def representatives(inst: Instance) -> list[Representative]:
    """``inst.representatives``: one per cycle of the instance's cover."""
    return inst.representatives


def solve_s1(inst: Instance, path_solver: SolverTag = SolverTag.EXACT,
             limit: int = DEFAULT_EXACT_LIMIT) -> Solution:
    """Cycle-cover reduction followed by a max-path solve over representatives;
    ``limit`` is the exact path solver's node limit."""
    reps = representatives(inst)
    if len(reps) == 1:
        text = reps[0].text
    else:
        m = inst.representative_overlap
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
    # copy of the overlap matrix in its own type, the narrowest that holds
    # the longest string, which makes each argmax cheaper.
    ov = inst.overlap.w.copy()
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
    greedy and exact runs at most once, and ``combined`` is ``better_of``
    the s1 and s2 runs, their ms summed.  s1 and s2 share the instance's
    reduction, and a text they share is checked once.  Solvers are looked
    up at call time, so a rebound one is the one that runs."""

    @functools.cache
    def run(algo):
        if algo == "combined":
            (s1, ms1), (s2, ms2) = run("s1"), run("s2")
            return better_of(s1, s2), ms1 + ms2
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
