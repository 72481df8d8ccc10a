"""Maximum-weight directed Hamiltonian path solvers, looked up by name.

``max_path`` runs the solver a ``SolverTag`` names.  A new solver is one
``SolverTag`` member plus one branch of ``max_path``.  Three strategies:

* exact_max_path: Held-Karp dynamic programming over node subsets, filled
  with numpy array operations; exact but exponential, O(2^n n^2) time and a
  2^n * n int64 table (8 MB at n=16).  A configurable node limit and a
  fixed 1 GiB ceiling on the table (n <= 22) are checked before anything
  is allocated.
* cycle_cover_path: exact maximum cycle cover with the diagonal masked out,
  then drop the lightest edge of every cycle and chain the resulting paths.
  Guarantees at least half the optimal path weight.
* greedy_max_path: repeatedly commit the heaviest edge that still extends to
  a Hamiltonian path, one masked ``argmax`` per edge.  Guarantees a third of
  the optimal path weight on any non-negative weights, and half on overlap
  matrices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb

import numpy as np

from .graph import WeightMatrix, max_cycle_cover, path_overlaps


class SolverTag(enum.Enum):
    EXACT = "exact"
    CYCLE_COVER_HALF = "half"
    GREEDY = "greedy"


_GUARANTEES = {SolverTag.EXACT: Fraction(1),
               SolverTag.CYCLE_COVER_HALF: Fraction(1, 2),
               SolverTag.GREEDY: Fraction(1, 3)}


class SolverLimitError(ValueError):
    """The exact solver was asked for more nodes than its configured limit."""


class TableSizeError(SolverLimitError):
    """The exact solver's table would exceed its fixed memory ceiling, which
    no node limit overrides."""


@dataclass(frozen=True)
class PathSolution:
    """A Hamiltonian path; ``ratio_guarantee`` is derived from ``solver_tag``."""

    order: tuple[int, ...]
    weight: int
    solver_tag: SolverTag

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("order must visit every node exactly once")

    @property
    def ratio_guarantee(self) -> Fraction:
        """A lower bound on ``weight`` over the optimal path weight, for any
        non-negative weights.  Greedy's is 1/3: the paths are the common
        independent sets of three matroids (Fisher, Nemhauser & Wolsey
        1978), and a 4-node matrix with heavy edges 0 -> 1, 0 -> 2, 1 -> 0
        and 3 -> 1 approaches it.  On the overlap matrix of a
        substring-free instance greedy keeps half (Tarhio & Ukkonen 1988)."""
        return _GUARANTEES[self.solver_tag]


DEFAULT_EXACT_LIMIT = 16
# Largest Held-Karp table, 2^n * n * 8 bytes, the exact solver allocates:
# 738 MB at n=22, 1.5 GB at n=23.
_MAX_TABLE_BYTES = 1 << 30
# Held-Karp table cells that hold no path, and greedy's infeasible edges;
# adding a few weights to it can neither overflow int64 nor reach the weight
# of a real path.
_UNSET = np.iinfo(np.int64).min // 2
# Candidate cells per numpy call in the Held-Karp fill: 128 KB of int64
# stays in cache and keeps peak memory close to the table's own size.
_BLOCK_CELLS = 1 << 14


_Layout = tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]
# Subset layouts kept for reuse, n -> layout, only for n <= DEFAULT_EXACT_LIMIT:
# about 1 MB in all.  A larger layout is rebuilt per call, a small cost next
# to its DP, instead of staying in memory for the life of the process (32 MB
# at n = 22).
_LAYOUTS: dict[int, _Layout] = {}


def _subset_layout(n: int) -> _Layout:
    """What the Held-Karp fill needs that depends on n alone.

    Every n-bit mask by ascending popcount (ascending value within one
    popcount), ``bit[f] = 1 << f``, the flat table cell of the path
    ``f -> j`` (of ``f`` alone where ``j == f``), and where each popcount's
    run of masks ends.  Building these takes more numpy calls than a small
    DP itself, so they are kept in ``_LAYOUTS`` for each n up to
    ``DEFAULT_EXACT_LIMIT``: read-only, 8 * 2^n bytes plus O(n^2), 1/n of
    that n's table.
    """
    layout = _LAYOUTS.get(n)
    if layout is not None:
        return layout
    popcount = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        popcount = np.concatenate((popcount, popcount + 1))
    nodes = np.arange(n)
    bit = 1 << nodes
    arrays = (popcount.argsort(kind="stable"), bit,
              (nodes << n)[:, None] + (bit[:, None] | bit))
    for a in arrays:
        a.flags.writeable = False
    layout = (*arrays, tuple(accumulate(comb(n, k) for k in range(n + 1))))
    if n <= DEFAULT_EXACT_LIMIT:
        _LAYOUTS[n] = layout
    return layout


def exact_max_path(m: WeightMatrix, limit: int = DEFAULT_EXACT_LIMIT) -> PathSolution:
    """Maximum-weight Hamiltonian path by Held-Karp subset DP in numpy.

    ``best[first, mask]`` is the largest weight of a path that visits exactly
    the nodes of ``mask`` and starts at ``first``.  It is filled one popcount
    layer at a time, ``max_j w[first, j] + best[j, mask ^ bit(first)]``, for
    a block of masks and every ``first`` per numpy call.  Time is
    O(2^n n^2); the int64 table takes 2^n * n * 8 bytes (8 MB at n=16), and
    no temporary holds more cells than the table or than 2^14 (128 KB).
    ``limit`` and the 1 GiB table ceiling are checked before anything is
    allocated.  Weights must stay below 2^58 / n in absolute value, far
    above any overlap length.

    Ties resolve to the lexicographically smallest node order: the path is
    rebuilt from the front, always taking the smallest node that keeps the
    best weight.
    """
    n = m.n
    if n > limit:
        raise SolverLimitError(f"exact solver limit: n={n} exceeds {limit}")
    if (n << n) * 8 > _MAX_TABLE_BYTES:
        raise TableSizeError(f"exact solver table for n={n} would exceed "
                             f"{_MAX_TABLE_BYTES >> 30} GiB")
    w = m.w
    size = 1 << n
    masks, bit, edge_cells, layer_ends = _subset_layout(n)
    # Paths of two nodes are single edges and paths of one node weigh 0.
    # Above that, cells whose first node lies outside the mask are filled
    # too, from still-unset supersets, so they stay within a few weights of
    # _UNSET and never win a max against a real path.
    best = np.full((n, size), _UNSET, dtype=np.int64)
    best.put(edge_cells, w)
    best.put(edge_cells.diagonal(), 0)
    w_by_next = w.T[:, None, :]
    step = min(_BLOCK_CELLS, n * size) // (n * n)
    for lo_layer, hi_layer in zip(layer_ends[2:-1], layer_ends[3:]):
        for lo in range(lo_layer, hi_layer, step):
            block = masks[lo:min(lo + step, hi_layer)]
            # cand[j, b, first] = best[j, block[b] ^ bit(first)] + w[first, j]
            cand = best.take(block[:, None] ^ bit, axis=1)
            cand += w_by_next
            best.T[block] = cand.max(axis=0)
    mask = size - 1
    cur = int(best[:, mask].argmax())  # argmax returns the first maximum
    total = int(best[cur, mask])
    order = [cur]
    for _ in range(n - 1):
        mask ^= 1 << cur
        cur = int((w[cur] + best[:, mask]).argmax())
        order.append(cur)
    return PathSolution(order=tuple(order), weight=total,
                        solver_tag=SolverTag.EXACT)


def cycle_cover_path(m: WeightMatrix) -> PathSolution:
    """Max cycle cover (no loop edges), lightest edge of each cycle dropped.

    The surviving arcs of each cycle form a path; paths are then chained in
    ascending order of their smallest node.  When several edges of a cycle
    tie for lightest, the first one met while walking the cycle from its
    smallest node is dropped.
    """
    n = m.n
    if n == 1:
        return PathSolution(order=(0,), weight=0,
                            solver_tag=SolverTag.CYCLE_COVER_HALF)
    order = []
    for cyc in max_cycle_cover(m).cycles:
        weights = path_overlaps(m, cyc + cyc[:1])
        # dropping the edge into cyc[cut] leaves the walk that starts there
        cut = weights.index(min(weights)) + 1
        order += cyc[cut:] + cyc[:cut]
    return PathSolution(order=tuple(order), weight=sum(path_overlaps(m, order)),
                        solver_tag=SolverTag.CYCLE_COVER_HALF)


def greedy_max_path(m: WeightMatrix) -> PathSolution:
    """Heaviest-feasible-edge greedy; ties broken by smallest (i, j) pair.

    ``w[i, j]`` keeps the weight of every edge that still extends the chosen
    edges to a Hamiltonian path and ``_UNSET`` elsewhere, so its row-major
    first maximum is the first feasible edge in ``(-weight, i, j)`` order.
    Taking ``i -> j`` masks row ``i``, column ``j`` and the one edge from
    the new path's tail back to its head.  Feasibility only ever shrinks,
    so this is the classic scan over the sorted edge list in one ``argmax``
    and three writes per edge.  The path keeps a third of the optimal
    weight in general and half on overlap matrices (``ratio_guarantee``).
    """
    n = m.n
    w = m.w.astype(np.int64)
    np.fill_diagonal(w, _UNSET)
    succ = [-1] * n
    end = list(range(n))  # the other end of the path each path end is on
    head = 0
    for _ in range(n - 1):
        i, j = divmod(int(w.argmax()), n)
        succ[i] = j
        head, tail = end[i], end[j]
        end[head], end[tail] = tail, head
        w[i] = w[:, j] = w[tail, head] = _UNSET
    order = [head]
    for _ in range(n - 1):
        order.append(succ[order[-1]])
    return PathSolution(order=tuple(order), weight=sum(path_overlaps(m, order)),
                        solver_tag=SolverTag.GREEDY)


def max_path(m: WeightMatrix, solver: SolverTag = SolverTag.EXACT,
             limit: int = DEFAULT_EXACT_LIMIT) -> PathSolution:
    """The path that ``solver`` finds on ``m``; the only code that maps a
    ``SolverTag`` to its function and hands ``limit`` to the exact solver.
    Solvers are read from this module's namespace at call time, so a
    rebound ``exact_max_path`` is the one that runs."""
    if solver is SolverTag.EXACT:
        return exact_max_path(m, limit=limit)
    if solver is SolverTag.CYCLE_COVER_HALF:
        return cycle_cover_path(m)
    if solver is SolverTag.GREEDY:
        return greedy_max_path(m)
    raise ValueError(f"unknown path solver: {solver!r}")
