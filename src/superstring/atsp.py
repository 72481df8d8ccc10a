"""Maximum-weight directed Hamiltonian path solvers, looked up by name.

``max_path`` runs the solver a ``SolverTag`` names.  A new solver is one
``SolverTag`` member, one branch of ``max_path`` and one ``_GUARANTEES``
entry, without which ``ratio_guarantee`` raises KeyError.  Three strategies:

* exact_max_path: Held-Karp dynamic programming over node subsets, filled
  one popcount layer at a time with numpy array operations; exact but
  exponential, O(2^n n^2) time, a 2^n * n table of the narrowest integer
  type that holds the path weights and an int32 index of its cells (6 MB
  together at n=16 with int16).  A configurable node limit and a fixed
  1 GiB ceiling on table plus index (n <= 22) are checked before anything
  is allocated.
* cycle_cover_path: exact maximum cycle cover with loops forbidden (a
  ``-inf`` diagonal, see graph.max_cycle_cover), then drop the lightest
  edge of every cycle and chain the resulting paths.  Guarantees at least
  half the optimal path weight.
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
# Largest allocation the exact solver makes, its table plus its int32 cell
# index, n * 2^n * (itemsize + 4) bytes: 738 MB at n=22 with an int32 table,
# 1.2 GB at n=23 even with int16.
_MAX_TABLE_BYTES = 1 << 30
# (room, type, unset) for int16, int32 and int64, narrowest first.  A table
# of the type holds values below room in absolute value; unset, the type's
# minimum // 2, is -2 * room, so adding a value of the table or a weight to
# it can neither overflow nor reach a held value.  Computed once here, since
# np.iinfo costs about a microsecond per call.
_INT_TYPES = tuple((-(np.iinfo(t).min // 4), np.dtype(t), np.iinfo(t).min // 2)
                   for t in (np.int16, np.int32, np.int64))
# Candidate cells per numpy call in the Held-Karp fill: 128 KB at int16
# stays in cache and keeps peak memory close to the table's own size.
_BLOCK_CELLS = 1 << 16


def int_table_type(peak: int) -> tuple[np.dtype, int]:
    """The narrowest of int16, int32 and int64 for a table whose values are
    at most ``peak`` in absolute value, and that type's unset value."""
    for room, dtype, unset in _INT_TYPES:
        if peak < room:
            return dtype, unset
    raise ValueError(f"values up to {peak} do not fit an int64 table")


_Layout = tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]
# Subset layouts kept for reuse, n -> layout, only for n <= DEFAULT_EXACT_LIMIT:
# 4 * (n + 1) * 2^n bytes each, 1.0 MB at n=14 and 4.5 MB at n=16.  A larger
# layout is built per call, a small cost next to its DP, instead of staying
# in memory for the life of the process (385 MB at n = 22).
_LAYOUTS: dict[int, _Layout] = {}


def _subset_layout(n: int) -> _Layout:
    """What the Held-Karp fill needs that depends on n alone.

    Positions number the n-bit masks by ascending popcount, ascending value
    within one popcount, so each popcount's masks are one run of positions
    and the empty mask is position 0.  ``pos[mask]`` is the position of
    ``mask``.  ``push[f, p]`` is the flat table cell of the path that puts
    node ``f`` before the mask at position ``p``, cell ``(f, pos[mask |
    bit(f)])``, or the trash cell 0 where ``f`` is in the mask already:
    cell ``(0, 0)`` is the empty mask's, which no path has.  ``layer_ends``
    are where each popcount's run of positions ends.  Both arrays are int32
    and ``push`` is built one row at a time without a gather through
    ``pos``, so no temporary holds more than 2^n cells.  Building them
    takes more numpy calls than a small DP itself, so they are kept in
    ``_LAYOUTS`` for each n up to ``DEFAULT_EXACT_LIMIT``: read-only,
    4 * (n + 1) * 2^n bytes.
    """
    layout = _LAYOUTS.get(n)
    if layout is not None:
        return layout
    size = 1 << n
    popcount = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        popcount = np.concatenate((popcount, popcount + 1))
    masks = popcount.argsort(kind="stable").astype(np.int32)
    pos = np.empty(size, dtype=np.int32)
    pos[masks] = np.arange(size, dtype=np.int32)
    push = np.zeros((n, size), dtype=np.int32)
    for f, cells in enumerate(push):
        # adding bit f maps the masks without it, in layout order, one to
        # one and in the same order onto the masks with it
        has = masks & (1 << f) != 0
        with_f = np.flatnonzero(has).astype(np.int32)
        with_f += f * size
        cells[~has] = with_f
    edge_cells = push[:, 1:n + 1].astype(np.intp)
    np.fill_diagonal(edge_cells, push[:, 0])
    arrays = (pos, push, edge_cells)
    for a in arrays:
        a.flags.writeable = False
    layout = (*arrays, tuple(accumulate(comb(n, k) for k in range(n + 1))))
    if n <= DEFAULT_EXACT_LIMIT:
        _LAYOUTS[n] = layout
    return layout


def exact_max_path(m: WeightMatrix, limit: int = DEFAULT_EXACT_LIMIT) -> PathSolution:
    """Maximum-weight Hamiltonian path by Held-Karp subset DP in numpy.

    ``best[first, p]`` is the largest weight of a path that visits exactly
    the nodes of the mask at position ``p`` (see ``_subset_layout``) and
    starts at ``first``.  It is filled one popcount layer at a time by
    pushing: for a block of masks of the layer below and every ``first``,
    ``max_j w[first, j] + best[j, mask]`` in one broadcast add and one
    reduction, written to ``(first, mask | bit(first))`` through the
    layout's cell index.  Every written cell but the trash cell holds a
    real path; cells that hold no path are never written and stay unset.
    Time is O(2^n n^2).  The table is the narrowest of int16, int32 and
    int64 that holds n times the largest absolute weight (int16 below 2^13,
    int32 below 2^29, int64 below 2^61, ValueError from there on); with the
    index it takes n * 2^n * (itemsize + 4) bytes (6 MB at n=16 with
    int16), and the fill's temporaries hold at most 2^16 cells.  ``limit``
    and the 1 GiB ceiling on table plus index are checked before either is
    allocated: a matrix whose n * max|w| is below 2^29 is refused from
    n=23 on, one that needs int64 from n=22 on.

    Ties resolve to the lexicographically smallest node order: the path is
    rebuilt from the front, always taking the smallest node that keeps the
    best weight.
    """
    n = m.n
    if n > limit:
        raise SolverLimitError(f"exact solver limit: n={n} exceeds {limit}")
    # a Python max reads a small matrix faster than a numpy reduction
    dtype, unset = int_table_type(n * max(map(abs, m.w.ravel().tolist())))
    if (n << n) * (dtype.itemsize + 4) > _MAX_TABLE_BYTES:
        raise TableSizeError(f"exact solver table for n={n} would exceed "
                             f"{_MAX_TABLE_BYTES >> 30} GiB")
    size = 1 << n
    pos, push, edge_cells, layer_ends = _subset_layout(n)
    w = m.w.astype(dtype)
    best = np.full((n, size), unset, dtype=dtype)
    cells = best.reshape(-1)  # a flat view, written through the layout's cells
    # Paths of two nodes are single edges and paths of one node weigh 0.
    cells[edge_cells] = w
    cells[edge_cells.diagonal()] = 0
    w_by_first = w.T[:, :, None]
    step = _BLOCK_CELLS // (n * n)
    # every block's candidates, at most _BLOCK_CELLS and no more than the
    # widest layer needs
    buffer = np.empty(n * n * min(step, comb(n, n // 2)), dtype=dtype)
    # push each layer of 2 to n - 1 nodes to the next
    for lo_layer, hi_layer in zip(layer_ends[1:-2], layer_ends[2:-1]):
        for lo in range(lo_layer, hi_layer, step):
            hi = min(lo + step, hi_layer)
            # cand[j, first, b] = best[j, lo + b] + w[first, j]
            cand = buffer[:n * n * (hi - lo)].reshape(n, n, hi - lo)
            np.add(best[:, None, lo:hi], w_by_first, out=cand)
            # cells repeat only at the trash cell, which is never read
            cells[push[:, lo:hi]] = cand.max(axis=0)
    mask = size - 1  # the full mask, at the last position
    cur = int(best[:, mask].argmax())  # argmax returns the first maximum
    total = int(best[cur, mask])
    order = [cur]
    for _ in range(n - 1):
        mask ^= 1 << cur
        cur = int((w[cur] + best[:, pos.item(mask)]).argmax())
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

    ``w[i, j]``, in the narrowest type that holds the weights, keeps the
    weight of every edge that still extends the chosen edges to a
    Hamiltonian path and that type's unset value elsewhere, so its row-major
    first maximum is the first feasible edge in ``(-weight, i, j)`` order.
    Taking ``i -> j`` masks row ``i``, column ``j`` and the one edge from
    the new path's tail back to its head.  Feasibility only ever shrinks,
    so this is the classic scan over the sorted edge list in one ``argmax``
    and three writes per edge.  The path keeps a third of the optimal
    weight in general and half on overlap matrices (``ratio_guarantee``).
    """
    n = m.n
    dtype, unset = int_table_type(max(int(m.w.max()), -int(m.w.min())))
    w = m.w.astype(dtype)
    np.fill_diagonal(w, unset)
    succ = [-1] * n
    end = list(range(n))  # the other end of the path each path end is on
    head = 0
    for _ in range(n - 1):
        i, j = divmod(int(w.argmax()), n)
        succ[i] = j
        head, tail = end[i], end[j]
        end[head], end[tail] = tail, head
        w[i] = w[:, j] = w[tail, head] = unset
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
