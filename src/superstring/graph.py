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
- ``overlap_matrix`` finds an overlap of 8 letters or more only at a hit
  in its row: the suffix from there on starts with a head.

``_first_hits`` answers the first two: it confirms each hit with
``startswith`` and scans for the strings shorter than 8 letters with ``in``
(and ``find``, where the caller wants starts).  Without an index, the same
``in`` scan runs over every string for ``_first_containers``, and
``first_occurrences`` calls ``find`` for each.  ``overlap_matrix``
confirms each of its hits with ``startswith`` too, so no answer depends on
the keys.  It refuses an empty string once, before either route runs, and
returns its matrix read-only, so a matrix kept for reuse
(``Instance.overlap``, the pipeline's representative matrix) needs no step
of its own.

``_head_hits`` alone decides where the index runs.  It returns None, and
each consumer takes its direct route instead, when

- the texts hold fewer than ``_INDEX_LETTERS`` letters in all, where
  building the index costs more than the scans it replaces;
- no string has 8 letters, so no string has a head;
- a text or a head is not ASCII (the CLI reads only ASCII);
- the hits may name more than a ``budget`` of (hit, string) pairs, each to
  be confirmed in Python, as on long runs of one repeated head (a
  homopolymer), where every window is a hit of every string that starts
  with it.  The bound counts, for each window, the heads in its slot of
  the hash table, before any hit is looked up.  The first two consumers
  pass N^2 for N strings, the cost of their direct scans; ``overlap_matrix``
  passes its count of letters, one window test each in its direct scan.

The overlap matrix takes two routes, both in the spirit of Gusfield,
Landau & Schieber's all-pairs suffix-prefix algorithm (IPL 1992): one pass
over shared keys instead of per-pair scans.  Through the head index, an
overlap of fewer than 8 letters depends only on the row's last 7 letters
and the column's first 7, so numpy decides all of them at once by
comparing those keys, one plane per overlap length; a longer overlap
starts at a hit, and ``startswith`` confirms each of the hit's strings.

The direct route (small or non-ASCII input) works from one sorted prefix
index.  In the sorted list, the strings that start with a given ``p`` form
one contiguous run, bounded by bisecting for ``p`` and for the least
string above every extension of ``p``.  A suffix is looked up at most once
and its length written straight into its whole run's input-order columns
with one fill, so no second matrix is built.  A lookup costs a slice and
two bisections, O(k log N) character comparisons in C for a suffix of
length k; the fills cost the cells of the runs, written by numpy (at most
N per suffix; on random text the runs shrink geometrically with k).  The
suffixes a row looks up are its 7 shortest and those whose first 8
letters are in the set of the heads.

Cycle covers are computed exactly with scipy's assignment solver,
``linear_sum_assignment`` (Crouse, IEEE TAES 2016).  It is the only scipy
routine used, and it lives alone in the compiled extension
``scipy/optimize/_lsap``, so that file is loaded directly: the public
``from scipy.optimize import linear_sum_assignment`` would run all of
``scipy.optimize`` (about 0.6 s and 50 MB at startup) for this one
function.  The public import is the fallback when the file cannot be
found or loaded; either way the same C function runs, and ``scipy>=1.10``
stays a dependency.

Each cover hands the solver one float64 matrix, the type it solves in, so
the solver converts nothing (a maximizing solve still negates a copy of
its own inside the solver).  The minimum cover of the prefix matrix may
use self-loop edges (fixed points of the permutation); the maximum cover
forbids them with ``-inf`` on its diagonal, an entry the solver never
assigns, because it feeds path constructions and a path can never use a
loop edge (see atsp.cycle_cover_path).
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
    their own, and equality and hashing see ``strings`` alone.  The
    pipeline keeps the rest of the reduction (the representatives, their
    overlap matrix and each checked text's first occurrences) on the object
    by the same rule.
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
        return overlap_matrix(self.strings)

    @cached_property
    def cover(self) -> CycleCover:
        """Exact minimum cycle cover of the prefix matrix ``|s_i| - overlap``,
        built as float64, the type the assignment solver reads."""
        lengths = np.array([len(s) for s in self.strings], dtype=float)
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
    start, first, last, heads)``, or None where a direct scan answers
    instead (see the module docstring).

    ``heads`` holds the indices of the strings of ``_HEAD`` letters or more,
    ordered by the keys of their heads, then by index.  Hit ``h`` is the
    window of ``_HEAD`` letters at ``start[h]`` in ``texts[text[h]]``, whose
    key is that of the heads of the strings ``heads[first[h]:last[h]]``;
    the hits are every such window, ascending by text, then start.
    """
    size = sum(map(len, texts))
    if size < _INDEX_LETTERS or size < _HEAD:  # below _HEAD, not one window
        return None
    heads = [i for i, s in enumerate(strings) if len(s) >= _HEAD]
    if not heads:
        return None
    letters = "".join([*texts, *[strings[i][:_HEAD] for i in heads]])
    if not letters.isascii():
        return None
    keys = _window_keys(letters)
    head_keys = keys[size::_HEAD]
    order = head_keys.argsort(kind="stable")
    head_keys = head_keys[order]
    windows = keys[:size - _HEAD + 1]
    # a table of 16 to 32 slots per head, addressed by the top bits of a
    # multiplicative hash, leaves few windows to search for among the heads
    bits = 4 + len(heads).bit_length()
    per_slot = np.bincount(_slot(head_keys, bits), minlength=1 << bits).astype(
        np.min_scalar_type(len(heads)))
    hit = np.flatnonzero(per_slot.astype(bool)[_slot(windows, bits)])
    # the heads in a window's slot bound its (hit, string) pairs: the
    # fullest slot bounds them all at once, and failing that, their sum over
    # the windows; windows across two texts count too: they can only give
    # the index up
    if (budget is not None and len(hit) * int(per_slot.max()) > budget
            and int(per_slot[_slot(windows, bits)].sum()) > budget):
        return None
    key = windows[hit]
    first = head_keys.searchsorted(key)
    found = head_keys.take(first, mode="clip") == key
    hit, first = hit[found], first[found]
    last = head_keys.searchsorted(key[found], side="right")
    if len(texts) == 1:
        text = [0] * len(hit)
    else:
        lengths = np.array([len(t) for t in texts])
        ends = lengths.cumsum()
        text = ends.searchsorted(hit, side="right")
        inside = hit + _HEAD <= ends[text]  # drop windows across two texts
        text, hit, first, last = text[inside], hit[inside], first[inside], last[inside]
        hit -= ends[text] - lengths[text]  # a start in its own text
        text = text.tolist()
    return (text, hit.tolist(), first.tolist(), last.tolist(),
            np.array(heads)[order].tolist())


def _first_hits(texts: Sequence[str], strings: Sequence[str],
                hits: tuple[list[int], ...] | None, own: bool
                ) -> tuple[list[int | None], list[int]]:
    """For each string, the first text that holds it and its first start
    there: the lists ``(text, start)``, None and -1 where no text does.

    ``hits`` is the head index of ``strings`` over ``texts``, or None, and
    then every string is scanned for with ``in``, text by text; with an
    index, only the strings shorter than ``_HEAD`` are.  A string of
    ``_HEAD`` letters or more occurs only at a hit of its head, where
    ``startswith`` confirms it; the hits ascend by text, then start, so the
    first one confirmed is the answer, and the search stops once every such
    string is found; the scan takes a string's start by ``find``.  ``own``
    says that ``texts`` are ``strings`` and that only the texts are wanted:
    string ``i`` is then not looked for in ``texts[i]``, the scan leaves
    the starts at -1, and a hit where the string would run past its text's
    end is skipped without a call, as most hits of one string in another
    are, where the two only overlap.
    """
    where = [None] * len(strings)
    pos = [-1] * len(strings)
    for i, s in enumerate(strings):
        if hits is None or len(s) < _HEAD:
            for j, t in enumerate(texts):
                if s in t and (i != j or not own):
                    where[i] = j
                    if not own:
                        pos[i] = t.find(s)
                    break
    if hits is None:
        return where, pos
    text, start, first, last, heads = hits
    lengths = [*map(len, strings)]
    pending = len(heads)
    for j, at, a, b in zip(text, start, first, last):
        t = texts[j]
        for i in heads[a:b]:
            if (pos[i] < 0 and (not own or lengths[i] + at <= lengths[j] and i != j)
                    and t.startswith(strings[i], at)):
                where[i], pos[i] = j, at
                pending -= 1
                if not pending:
                    return where, pos
    return where, pos


def _first_containers(strings: Sequence[str]) -> list[int | None]:
    """For each string, the index of the first other string that contains
    it, or None: the substring-free rule of ``normalize`` and ``Instance``.

    ``_first_hits``, through the head index where ``_head_hits`` gives one
    on a budget of N^2 (hit, string) pairs for N strings, and otherwise by
    its direct scan.
    """
    return _first_hits(strings, strings, _head_hits(strings, strings, len(strings) ** 2),
                       True)[0]


def first_occurrences(text: str, strings: Sequence[str]) -> list[int]:
    """``[text.find(s) for s in strings]``: the first start of each string
    in ``text``, or -1.

    Through the head index where ``_head_hits`` gives one, on a budget of
    N^2 (hit, string) pairs for N strings; otherwise ``text.find`` for
    each string.
    """
    hits = _head_hits((text,), strings, len(strings) ** 2)
    if hits is None:
        return list(map(text.find, strings))
    return _first_hits((text,), strings, hits, False)[1]


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


def _short_overlaps(strings: Sequence[str]) -> np.ndarray:
    """For each ordered pair of the nonempty ASCII ``strings``, its longest
    overlap of fewer than ``_HEAD`` letters, or 0, as a uint8 matrix.

    An overlap of ``k`` letters depends only on the row's last ``k``
    letters and the column's first ``k``, so one broadcast compare of those
    keys decides every cell at every ``k``, and each cell takes its largest
    ``k``.
    """
    n = len(strings)
    # each string's last 7 letters after \x80 pads and its first 7 before
    # \xff pads, 8 bytes read as one little-endian integer: its last k
    # letters are its top k bytes, and its first k letters its low k bytes.
    # A pad equals no ASCII letter and no other pad, so a string of fewer
    # than k letters matches nothing at k
    ends = np.frombuffer("".join([s[1 - _HEAD:].rjust(_HEAD, "\x80") for s in strings])
                         .encode("latin-1"), dtype="<u8")
    fronts = np.frombuffer("".join([s[:_HEAD - 1].ljust(_HEAD, "\xff") for s in strings])
                           .encode("latin-1"), dtype="<u8")
    shift = np.array([8 * (_HEAD - k) for k in range(1, _HEAD)], dtype=np.uint64)[:, None]
    # keys[k - 1] holds each row's last k letters, then each column's first k
    keys = np.concatenate([ends >> shift, (fronts << shift) >> shift], axis=1)
    # the same keys as their first places in the sorted keys, in the
    # narrowest integers that hold them, which numpy compares fastest; the
    # sort is the stable argsort of _head_hits, as np.sort would page in a
    # second sort routine (about 128 KB resident per process)
    flat = keys.ravel()
    keys = flat[flat.argsort(kind="stable")].searchsorted(keys).astype(
        np.min_scalar_type(keys.size))
    # match[k - 1, i, j]: the last k letters of row i start column j
    match = np.equal(keys[:, :n, None], keys[:, None, n:])
    # two strings of k letters match at k only when equal, and there the
    # overlap is the border instead
    copies: dict[int, list[int]] = {}
    for i, s in enumerate(strings):
        if len(s) < _HEAD:
            copies.setdefault(len(s), []).append(i)
    for k, group in copies.items():
        match[k - 1][np.ix_(group, group)] = False
    lengths = match.view(np.uint8)
    lengths *= np.arange(1, _HEAD, dtype=np.uint8)[:, None, None]
    return lengths.max(axis=0)


def overlap_matrix(strings: Sequence[str]) -> WeightMatrix:
    """All-pairs ``w[i, j] = words.overlap_len(strings[i], strings[j])``,
    returned read-only.

    Equal strings, the diagonal included, get the longest proper border.
    An empty string is refused before either route runs.  Through the head
    index where ``_head_hits`` gives one, on a budget of one (hit, string)
    pair per letter: ``_short_overlaps`` gives the overlaps of fewer than
    ``_HEAD`` letters, and a longer one starts at a hit ``(i, at)``, where
    string ``j`` of the hit overlaps row ``u = strings[i]`` by ``|u| - at``
    letters when it starts with ``u[at:]`` and is not a copy of ``u``.
    Otherwise from one sorted copy of the strings (see the module
    docstring): each suffix ``u[-k:]`` of row ``u`` writes ``k`` into the
    input-order columns of the run of sorted strings that start with it, in
    ascending ``k`` so the longest overlap is written last.  At ``k = |u|``
    the run skips the copies of ``u``.  A suffix of ``_HEAD`` letters or
    more can start a string only where it starts with a head, so it is
    looked up only where its first ``_HEAD`` letters are in the set of the
    heads (a shorter string is its own head and never equals a window).
    """
    if not all(strings):
        raise ValueError("empty text")
    n = len(strings)
    hits = _head_hits(strings, strings, sum(map(len, strings)))
    if hits is not None:
        # a function of its own, so its compare planes are freed before the
        # int64 matrix is allocated
        w = _short_overlaps(strings).astype(np.int64)
        # a row's hits ascend by start, so the first one to confirm a cell
        # is its longest overlap
        longest: dict[int, int] = {}
        text, start, first, last, heads = hits
        for i, at, a, b in zip(text, start, first, last):
            u = strings[i]
            p = u[at:]
            for j in heads[a:b]:
                v = strings[j]
                if v.startswith(p) and (at or len(v) > len(u)):  # at 0, not a copy of u
                    longest.setdefault(i * n + j, len(p))
        w.put([*longest], [*longest.values()])
    else:
        cols = np.array(sorted(range(n), key=strings.__getitem__), dtype=np.intp)
        keys = sorted(strings)  # == [strings[j] for j in cols]
        head = _HEAD
        heads = {s[:head] for s in strings}
        w = np.zeros((n, n), dtype=np.int64)
        for i, u in enumerate(strings):
            row = w[i]
            m = len(u)
            for at in range(m - 1, -1, -1):  # every suffix, shortest first
                if at <= m - head and u[at:at + head] not in heads:
                    continue
                p = u[at:]
                lo = (bisect_left if at else bisect_right)(keys, p)
                if lo < n and keys[lo].startswith(p):
                    nxt = _successor(p)
                    hi = n if nxt is None else bisect_left(keys, nxt, lo)
                    # one column by a scalar index, a third of a fancy one's cost
                    row[cols[lo] if hi - lo == 1 else cols[lo:hi]] = m - at
    w.flags.writeable = False
    return WeightMatrix(w)


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
    # on a square matrix, rows is arange(n): cols is the permutation
    rows, cols = linear_sum_assignment(w, maximize=maximize)
    return CycleCover(perm=tuple(cols.tolist()), total_weight=int(m.w[rows, cols].sum()))


def min_cycle_cover(m: WeightMatrix) -> CycleCover:
    """Exact minimum-weight cycle cover (self-loops allowed)."""
    return _assignment_cover(m, m.w, maximize=False)


def max_cycle_cover(m: WeightMatrix) -> CycleCover:
    """Exact maximum-weight cycle cover without fixed points, the right
    model when the cover feeds a path construction (loop edges cannot
    appear on a path), solved on a float64 copy of the weights with
    ``-inf`` on the diagonal.  A single node has no such cover and raises
    ValueError."""
    if m.n == 1:
        raise ValueError("a single node admits no loop-free cycle cover")
    w = m.w.astype(float)
    np.fill_diagonal(w, -np.inf)
    return _assignment_cover(m, w, maximize=True)


def path_overlaps(m: WeightMatrix, order: Sequence[int]) -> list[int]:
    """The weights ``m.w[order[t], order[t+1]]`` of consecutive nodes."""
    return list(map(m.w.item, order, order[1:]))

