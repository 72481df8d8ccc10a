"""Overlap and prefix graphs over an instance, and exact cycle covers.

The *overlap* matrix holds ov-lengths, with the diagonal carrying each
string's longest proper border (the weight of overlapping a string with a
fresh copy of itself).  The *prefix* matrix is its complement:
``prefix[i][j] = |s_i| - overlap[i][j]``, so minimum cycle covers of the
prefix matrix and maximum cycle covers of the overlap matrix are the same
permutations.

Every solver starts from the same reduction of an instance: its overlap
matrix and the exact minimum cycle cover of its prefix matrix (Blum et al.,
JACM 1994).  ``Instance.overlap`` and ``Instance.cover`` compute each once
per instance object, on first use, and every consumer reads them there.
Each input is checked substring-free once, by ``normalize`` or ``Instance``.

The overlap matrix comes from one sorted prefix index instead of per-pair
scans, in the spirit of Gusfield, Landau & Schieber's all-pairs
suffix-prefix algorithm (IPL 1992).  In the sorted list, the strings that
start with a given ``p`` form one contiguous run, bounded by bisecting for
``p`` and for the least string above every extension of ``p``.  A suffix
is looked up at most once and its length written onto its whole run with
one slice fill.  A lookup costs a slice and two bisections, O(k log N)
character comparisons in C for a suffix of length k; the fills cost the
cells of the runs, written by numpy (at most N per suffix; on random text
the runs shrink geometrically with k).

Most suffixes start no string, so a suffix of ``_HEAD`` (8) letters or
more is looked up only if its first 8 letters are the first 8 of some
string, its *head*; the heads are kept in one set per call.  Each row
finds those suffixes in the cheaper of two ways, chosen from the number H
of distinct heads and the row's length m:

- many heads or a short row (the instance matrices of many reads, and
  every row of 32 letters or fewer): one set test per 8-letter window,
  m - 7 tests at Python level;
- few heads and a long row, H (m + 128) < 64 (m - 32) (the two or three
  representatives of a read set, hundreds of letters each): ``u.find``
  jumps from one occurrence of each head to the next, H scans of the row
  in C, each costing about as much as 2 + m / 64 window tests, plus a
  fixed 32 for building and sorting the row's candidates.

The suffixes shorter than 8 letters are always looked up.  So a call
costs one sort, at most sum |s_i| window tests at Python level (H finds
per long row instead), one lookup per suffix shorter than 8 or starting
with a head, and the cells of the runs, instead of N^2 per-pair scans.

Cycle covers are computed exactly with scipy's assignment solver,
``linear_sum_assignment`` (Crouse, IEEE TAES 2016).  It is the only scipy
routine used, and it lives alone in the compiled extension
``scipy/optimize/_lsap``, so that file is loaded directly: the public
``from scipy.optimize import linear_sum_assignment`` would run all of
``scipy.optimize`` (about 0.6 s and 50 MB at startup) for this one
function.  The public import is the fallback when the file cannot be
found or loaded; either way the same C function runs, and ``scipy>=1.10``
stays a dependency.

The minimum cover of the prefix matrix may use self-loop edges (fixed
points of the permutation); the maximum cover masks the diagonal, because
it feeds path constructions and a path can never use a loop edge (see
atsp.cycle_cover_path).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

_LOOP_BAN = 1 << 40  # dwarfs any realistic total weight
_TOP_CHAR = chr(0x10FFFF)
_HEAD = 8  # letters of overlap_matrix's prefix filter
# overlap_matrix's cost model, in window tests: testing every window of a row
# of m letters costs m; jumping with u.find costs _FIND_ROW per row plus
# 2 + m / _FIND_LETTERS per head
_FIND_ROW = 32
_FIND_LETTERS = 64


@dataclass(frozen=True)
class Instance:
    """Two or more strings, none inside another: checked, unless from ``normalize``.

    ``overlap`` and ``cover`` are the instance's reduction, each computed on
    first use and kept on this object only: two equal instances compute
    their own, and equality and hashing see ``strings`` alone.
    """

    strings: tuple[str, ...]

    def __post_init__(self):
        ss = self.strings
        if len(ss) < 2:
            raise ValueError("degenerate instance")
        for i, j in enumerate(_first_containers(ss)):
            if j is not None:
                raise ValueError(f"string {i!r} is a substring of string {j!r}")

    def __len__(self) -> int:
        return len(self.strings)

    @property
    def total_length(self) -> int:
        return sum(len(s) for s in self.strings)

    @cached_property
    def overlap(self) -> WeightMatrix:
        """The overlap matrix, shared by every solver (read-only)."""
        m = overlap_matrix(self.strings)
        m.w.flags.writeable = False
        return m

    @cached_property
    def cover(self) -> CycleCover:
        """Exact minimum cycle cover of the prefix matrix ``|s_i| - overlap``."""
        lengths = np.array([len(s) for s in self.strings], dtype=np.int64)
        return min_cycle_cover(WeightMatrix(lengths[:, None] - self.overlap.w))


class DegenerateInstanceError(ValueError):
    """Fewer than two strings survive normalization; carries the survivors
    and normalize's removal log."""

    def __init__(self, survivors, log):
        super().__init__("degenerate instance")
        self.survivors = list(survivors)
        self.log = list(log)


def _first_containers(strings: Sequence[str]) -> list[int | None]:
    """For each string, the index of the first other string that contains
    it, or None: the substring-free rule of ``normalize`` and ``Instance``."""
    found = []
    for i, s in enumerate(strings):
        for j, t in enumerate(strings):
            if s in t and i != j:
                found.append(j)
                break
        else:
            found.append(None)
    return found


def normalize(raw: Sequence[str]) -> tuple[Instance, list[tuple[str, str]]]:
    """Drop duplicates and substrings of other inputs, keeping first occurrences.

    One ``_first_containers`` pass decides the survivors, which skip
    ``Instance``'s re-scan.  Returns the instance with a removal log of
    (reason, string) pairs.  Raises DegenerateInstanceError (carrying the
    survivors and the log) when fewer than two strings remain.
    """
    log: list[tuple[str, str]] = []
    deduped: dict[str, None] = {}  # the first copies, in input order
    for s in raw:
        if s in deduped:
            log.append(("duplicate", s))
        deduped[s] = None
    survivors = []
    for s, j in zip(deduped, _first_containers([*deduped])):
        if j is None:
            survivors.append(s)
        else:
            log.append(("substring", s))
    if len(survivors) < 2:
        raise DegenerateInstanceError(survivors, log)
    # no re-scan: a survivor has no container among deduped, so none among survivors
    inst = object.__new__(Instance)
    object.__setattr__(inst, "strings", tuple(survivors))
    return inst, log


@dataclass(frozen=True)
class WeightMatrix:
    """Square edge weights ``w`` on n >= 1 nodes; ``n`` is derived from it."""

    w: np.ndarray

    def __post_init__(self):
        if self.w.ndim != 2 or self.w.shape[0] != self.w.shape[1] or not self.w.size:
            raise ValueError("weight matrix must be n x n with n >= 1")

    @property
    def n(self) -> int:
        return self.w.shape[0]


def _successor(p: str) -> str | None:
    """Smallest string above every string that starts with ``p``, or None
    when ``p`` is all top code points and no such string exists."""
    p = p.rstrip(_TOP_CHAR)
    return p[:-1] + chr(ord(p[-1]) + 1) if p else None


def overlap_matrix(strings: Sequence[str]) -> WeightMatrix:
    """All-pairs ``w[i, j] = words.overlap_len(strings[i], strings[j])``.

    Equal strings, the diagonal included, get the longest proper border.
    Works from one sorted copy of the strings (see the module docstring):
    each suffix ``u[-k:]`` of row ``u`` writes ``k`` onto the run of sorted
    strings that start with it, in ascending ``k`` so the longest overlap
    is written last.  At ``k = |u|`` the run skips the copies of ``u``.

    A suffix of ``_HEAD`` letters or more is looked up only if its first
    ``_HEAD`` letters are in ``heads``, the first ``_HEAD`` letters of every
    string (a shorter string is its own head and never equals a window);
    no other suffix can start a string.  A row finds those suffixes by
    testing each of its windows against ``heads``, or, when the row is
    long and ``heads`` small enough that ``_FIND_ROW`` and
    ``_FIND_LETTERS`` rate it cheaper, by jumping between the occurrences
    of each ``_HEAD``-letter head with ``u.find``.  Both give the same
    suffixes, looked up in the same ascending order, so every cell is the
    same either way.
    """
    n = len(strings)
    order = sorted(range(n), key=strings.__getitem__)
    keys = sorted(strings)  # == [strings[j] for j in order]
    head = _HEAD
    heads = {s[:head] for s in strings}
    w = np.zeros((n, n), dtype=np.int64)
    for i, u in enumerate(strings):
        if not u:
            raise ValueError("empty text")
        row = w[i]
        m = len(u)
        ks = range(1, m + 1)
        # the model never picks u.find for m <= _FIND_ROW; test m first
        if m > _FIND_ROW and (len(heads) * (m + 2 * _FIND_LETTERS)
                              < _FIND_LETTERS * (m - _FIND_ROW)):
            ks = [*range(1, head), *sorted(
                m - at for h in heads if len(h) == head for at in _occurrences(u, h))]
        for k in ks:
            at = m - k
            if k >= head and u[at:at + head] not in heads:
                continue
            p = u[at:]
            lo = (bisect_right if k == m else bisect_left)(keys, p)
            if lo < n and keys[lo].startswith(p):
                nxt = _successor(p)
                row[lo:n if nxt is None else bisect_left(keys, nxt, lo)] = k
    # columns back from sorted to input order (argsort of order is its inverse)
    return WeightMatrix(w.take(sorted(range(n), key=order.__getitem__), axis=1))


def _occurrences(u: str, h: str):
    """Every start of ``h`` in ``u``, overlapping ones included."""
    at = u.find(h)
    while at >= 0:
        yield at
        at = u.find(h, at + 1)


@dataclass(frozen=True)
class CycleCover:
    """A permutation (perm[i] = successor of node i) and its total weight.

    ``cycles`` is derived from ``perm`` on first use: each cycle starts at
    its smallest node, and the cycles are sorted by those nodes.
    """

    perm: tuple[int, ...]
    total_weight: int

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * len(self.perm)
        cycles = []
        for start in range(len(self.perm)):
            if seen[start]:
                continue
            cyc = []
            node = start
            while not seen[node]:
                seen[node] = True
                cyc.append(node)
                node = self.perm[node]
            cycles.append(tuple(cyc))
        return tuple(cycles)


def _lsap_from_file():
    """``linear_sum_assignment`` from scipy's ``optimize/_lsap`` extension,
    found without importing scipy and loaded under no name in
    ``sys.modules``; None if there is no such extension or it does not
    load (a scipy release that moves the routine)."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    spec = importlib.machinery.PathFinder.find_spec(
        "_lsap", [os.path.join(scipy.submodule_search_locations[0], "optimize")])
    if spec is None or not isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return None
    return getattr(module, "linear_sum_assignment", None)


def _assignment_solver():
    """scipy's ``linear_sum_assignment``: the one loaded from file, else the
    public import."""
    solver = _lsap_from_file()
    if solver is not None:
        return solver
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment


linear_sum_assignment = _assignment_solver()


def _assignment_cover(m: WeightMatrix, w: np.ndarray, maximize: bool) -> CycleCover:
    """The cover that the assignment solver picks on ``w``, weighed by ``m``."""
    rows, cols = linear_sum_assignment(w, maximize=maximize)
    perm = tuple(int(cols[i]) for i in np.argsort(rows))
    total = int(m.w[np.arange(m.n), list(perm)].sum())
    return CycleCover(perm=perm, total_weight=total)


def min_cycle_cover(m: WeightMatrix) -> CycleCover:
    """Exact minimum-weight cycle cover (self-loops allowed)."""
    return _assignment_cover(m, m.w, maximize=False)


def max_cycle_cover(m: WeightMatrix) -> CycleCover:
    """Exact maximum-weight cycle cover without fixed points, the right
    model when the cover feeds a path construction (loop edges cannot
    appear on a path)."""
    if m.n == 1:
        raise ValueError("a single node admits no loop-free cycle cover")
    w = m.w.copy()
    np.fill_diagonal(w, -_LOOP_BAN)
    cover = _assignment_cover(m, w, maximize=True)
    if any(cover.perm[i] == i for i in range(m.n)):
        raise AssertionError("assignment picked a banned loop edge")
    return cover


def path_overlaps(m: WeightMatrix, order: Sequence[int]) -> list[int]:
    """The weights ``m.w[order[t], order[t+1]]`` of consecutive nodes."""
    return list(map(m.w.item, order, order[1:]))

