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

The substring questions go through one *head index* (a q-gram filter,
Ukkonen, TCS 1992).  A string's head is its first ``_HEAD`` (8) letters.
``_head_hits`` lists every window of 8 letters in a list of texts that
equals some string's head, in ascending (text, start) order; each window
is keyed exactly, by its 8 bytes read as one integer.  String ``i`` of 8
letters or more occurs in a text only where the text holds ``i``'s head,
so:

- ``_first_containers``, the substring-free rule, tests string ``i``
  against string ``j`` only at the starts of ``i``'s head in ``j``;
- ``first_occurrences`` finds a string in a text at the first start of
  its head where the string follows (the pipeline's final check and its
  representatives' windows);
- ``overlap_matrix`` looks up a suffix of 8 letters or more only where it
  starts with a head.

Each consumer still confirms every hit, with ``startswith`` or a lookup of
its own, so no answer depends on the keys.  Strings shorter than 8 letters
are always scanned directly.  Each consumer tests the size first: an input
of fewer than ``_INDEX_LETTERS`` letters skips the index, whose building
costs more than the direct scans it replaces there.  Input that is not all
ASCII skips it too; the CLI reads only ASCII.  The first two consumers also
give the index up, for the direct scan, when its hits name more than N^2
(hit, string) pairs for N strings, each confirmed in Python, as on long
runs of one repeated head (a homopolymer), where every window is a hit of
every string that starts with it.

The overlap matrix comes from one sorted prefix index instead of per-pair
scans, in the spirit of Gusfield, Landau & Schieber's all-pairs
suffix-prefix algorithm (IPL 1992).  In the sorted list, the strings that
start with a given ``p`` form one contiguous run, bounded by bisecting for
``p`` and for the least string above every extension of ``p``.  A suffix
is looked up at most once and its length written onto its whole run with
one slice fill.  A lookup costs a slice and two bisections, O(k log N)
character comparisons in C for a suffix of length k; the fills cost the
cells of the runs, written by numpy (at most N per suffix; on random text
the runs shrink geometrically with k).  The suffixes a row looks up are
its 7 shortest and those that start with a head: the head index's hits in
the row, or, on a small or non-ASCII input, the windows found in a set
of the heads.

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
_HEAD = 8  # letters of a string's head, the head index's window
# Inputs of fewer letters skip the head index: building it costs more than
# the direct scans it replaces there
_INDEX_LETTERS = 768
_MIX = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, odd: Fibonacci hashing


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


def _window_keys(text: str) -> np.ndarray:
    """A uint64 key for each window of ``_HEAD`` letters of the ASCII
    ``text`` (at least ``_HEAD`` letters), by start: the window's 8 bytes
    read as one integer, through a stride-1 view of the encoded text, so
    two windows share a key iff they are equal."""
    return np.ndarray((len(text) - _HEAD + 1,), dtype=np.uint64,
                      buffer=text.encode("ascii"), strides=(1,))


def _slot(keys: np.ndarray, bits: int) -> np.ndarray:
    """The top ``bits`` bits of ``keys * _MIX`` (Fibonacci hashing), as
    indices."""
    mixed = keys * _MIX
    mixed >>= np.uint64(64 - bits)
    return mixed.view(np.intp)


def _head_hits(texts: Sequence[str], strings: Sequence[str],
               budget: int | None = None) -> tuple[list[int], ...] | None:
    """The head index of ``strings`` over ``texts``: the lists ``(text,
    start, first, last, heads)``, or None when a text or a head is not
    ASCII, or when the hits name more than ``budget`` (hit, string) pairs.

    ``heads`` holds the indices of the strings of ``_HEAD`` letters or more,
    ordered by the keys of their heads, then by index.  Hit ``h`` is the
    window of ``_HEAD`` letters at ``start[h]`` in ``texts[text[h]]``, whose
    key is that of the heads of the strings ``heads[first[h]:last[h]]``;
    the hits are every such window, ascending by text, then start.
    """
    heads = [i for i, s in enumerate(strings) if len(s) >= _HEAD]
    joined = "".join(texts)
    size = len(joined)
    if not heads or size < _HEAD:
        return [], [], [], [], []
    letters = joined + "".join([strings[i][:_HEAD] for i in heads])
    if not letters.isascii():
        return None
    keys = _window_keys(letters)
    order = keys[size::_HEAD].argsort(kind="stable")
    head_keys = keys[size::_HEAD][order]
    windows = keys[:size - _HEAD + 1]
    # a table of 16 to 32 slots per head, addressed by the top bits of a
    # multiplicative hash, leaves few windows to search for among the heads
    bits = 4 + len(heads).bit_length()
    slots = np.zeros(1 << bits, dtype=bool)
    slots[_slot(head_keys, bits)] = True
    hit = np.flatnonzero(slots[_slot(windows, bits)])
    key = windows[hit]
    first = head_keys.searchsorted(key)
    found = head_keys.take(first, mode="clip") == key
    hit, first = hit[found], first[found]
    last = head_keys.searchsorted(key[found], side="right")
    if len(texts) == 1:
        text = np.zeros_like(hit)
        start = hit
    else:
        lengths = np.array([len(t) for t in texts])
        ends = lengths.cumsum()
        text = ends.searchsorted(hit, side="right")
        inside = hit + _HEAD <= ends[text]  # drop windows across two texts
        text, hit, first, last = text[inside], hit[inside], first[inside], last[inside]
        start = hit - ends[text] + lengths[text]
    if budget is not None and int((last - first).sum()) > budget:
        return None
    return (text.tolist(), start.tolist(), first.tolist(), last.tolist(),
            np.array(heads)[order].tolist())


def _first_containers(strings: Sequence[str]) -> list[int | None]:
    """For each string, the index of the first other string that contains
    it, or None: the substring-free rule of ``normalize`` and ``Instance``.

    From ``_INDEX_LETTERS`` letters on, through the head index, given up
    past N^2 (hit, string) pairs for N strings; otherwise a direct ``s in
    t`` scan.
    """
    if sum(map(len, strings)) >= _INDEX_LETTERS:
        hits = _head_hits(strings, strings, len(strings) ** 2)
        if hits is not None:
            return _indexed_first_containers(strings, hits)
    found = []
    for i, s in enumerate(strings):
        for j, t in enumerate(strings):
            if s in t and i != j:
                found.append(j)
                break
        else:
            found.append(None)
    return found


def _indexed_first_containers(strings: Sequence[str],
                              hits: tuple[list[int], ...]) -> list[int | None]:
    """``_first_containers`` from the head index ``hits`` of ``strings``
    over themselves: string ``i`` is in string ``j`` iff ``j`` holds
    ``i``'s head at some ``at`` with ``strings[j].startswith(strings[i],
    at)``.  The index lists those starts by ascending ``j``, so the first
    one confirmed is the answer.  Strings shorter than ``_HEAD`` are
    scanned directly."""
    found = [None if len(s) >= _HEAD else
             next((j for j, t in enumerate(strings) if s in t and i != j), None)
             for i, s in enumerate(strings)]
    lengths = [*map(len, strings)]
    texts, starts, firsts, lasts, heads = hits
    for j, at, first, last in zip(texts, starts, firsts, lasts):
        t = strings[j]
        room = lengths[j] - at
        for i in heads[first:last]:
            if (found[i] is None and i != j and lengths[i] <= room
                    and t.startswith(strings[i], at)):
                found[i] = j
    return found


def first_occurrences(text: str, strings: Sequence[str]) -> list[int]:
    """``[text.find(s) for s in strings]``: the first start of each string
    in ``text``, or -1.

    A text of ``_INDEX_LETTERS`` letters or more is searched through the
    head index, given up past N^2 (hit, string) pairs for N strings: a
    string of ``_HEAD`` letters or more first occurs at the first start of
    its head where ``text.startswith`` confirms it, and the search stops
    once every such string is found.
    """
    hits = None
    if len(text) >= _INDEX_LETTERS:
        hits = _head_hits((text,), strings, len(strings) ** 2)
    if hits is None:
        return list(map(text.find, strings))
    pos = [-1 if len(s) >= _HEAD else text.find(s) for s in strings]
    _, starts, firsts, lasts, heads = hits
    pending = len(heads)
    for at, first, last in zip(starts, firsts, lasts):
        for i in heads[first:last]:
            if pos[i] < 0 and text.startswith(strings[i], at):
                pos[i] = at
                pending -= 1
        if not pending:
            break
    return pos


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
    no other suffix can start a string.  Through the head index (ASCII
    input of ``_INDEX_LETTERS`` letters or more), a row's candidates are its
    7 shortest suffixes and the starts of the index's hits in it; otherwise
    every suffix is a candidate.  Each candidate is tested against
    ``heads``, and the same suffixes are looked up in the same ascending
    order either way, so every cell is the same.
    """
    n = len(strings)
    order = sorted(range(n), key=strings.__getitem__)
    keys = sorted(strings)  # == [strings[j] for j in order]
    head = _HEAD
    heads = {s[:head] for s in strings}
    indexed = None
    if sum(map(len, strings)) >= _INDEX_LETTERS:
        indexed = _head_hits(strings, strings)
    if indexed is not None:
        rows, starts = indexed[:2]
        done = 0  # hits of the rows before this one
    w = np.zeros((n, n), dtype=np.int64)
    for i, u in enumerate(strings):
        if not u:
            raise ValueError("empty text")
        row = w[i]
        m = len(u)
        ks = range(1, m + 1)
        if indexed is not None:
            first, done = done, bisect_right(rows, i, done)
            ks = [*range(1, min(m, head - 1) + 1),
                  *[m - at for at in reversed(starts[first:done])]]
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

