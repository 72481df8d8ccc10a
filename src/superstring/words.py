"""Primitive-string toolbox: rotations, borders, periods, overlaps.

Strings are plain ``str`` values compared by code-point order (for ASCII
input that is byte order).  Rotation *indices* reported by this module are
1-based starting positions, matching the usual convention for writing a
rotation of ``w`` as "the rotation starting at position i"; everything else
(slices, node ids, ...) is ordinary 0-based Python.

The central concept is the *nice rotation* of a primitive string ``w``:
among the lexicographically minimal rotation ``w_min = pmin + pmax`` and the
maximal rotation ``w_max = pmax + pmin``, the nice rotation is ``w_max`` if
``|pmax| <= |pmin|`` and ``w_min`` otherwise.  The short piece's length,
``alpha = min(|pmax|, |pmin|)``, never exceeds ``|w| / 2`` and controls how
much two repetitions of different nice words can overlap.

The kernels run their inner loops in CPython's string search (``in``,
``str.find``, ``str.split``, slice comparison), not in per-character Python
loops:

* Extreme rotations.  The least rotation starts at a longest cyclic run of
  the smallest letter (the greatest rotation at one of the largest).
  Doubling ``k`` while ``c * 2k in ww`` gives a power of two within a
  factor of two of that length, and one ``split`` at ``c * k`` lists the
  starts of all runs at least ``k`` long.  These candidates share a known
  prefix; each round keeps those whose next characters are extreme while
  the shared prefix at least doubles (candidate elimination, as in
  Shiloach's canonization of circular strings, J. Algorithms 1981).  A
  candidate at most the shared prefix's length after another one sits in a
  periodic stretch and never wins, so only the first of each such cluster
  is kept; that keeps the character work near O(n log n) even on inputs
  such as ``("ab" * k) + "b"``.  ``nice_rotation`` finds both extremes in
  one ``w + w`` and reads both extreme letters from one ``set(w)``, which
  costs less than a ``min(w)`` and a ``max(w)`` over a long word.
* Overlaps.  The seed, a prefix of ``v`` that reaches past its leading
  run of ``c = v[0]`` and is at least four letters long, finds the overlaps
  at least as long as itself: they start at its occurrences in the tail of
  ``u`` (``u.find``), at most one per run of ``c``, and each is confirmed by
  one ``startswith``.  Shorter overlaps that go past the run are tried one
  length at a time with ``endswith``; those within it are read off ``u``'s
  trailing run of ``c``.  The cost is one C-level search of the tail plus a
  few comparisons per seed occurrence.  Borders and periods use the same
  kernel: the longest proper border of ``w`` is ``overlap(w[1:], w)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate


class RotationKind(enum.Enum):
    MAX = "MaxRotation"
    MIN = "MinRotation"


@dataclass(frozen=True)
class NiceWord:
    """A primitive string equal to its own nice rotation.

    ``word == pmax + pmin`` when ``kind`` is MAX, ``pmin + pmax`` when MIN.
    ``pmax_len``, ``alpha`` (the shorter piece's length) and ``degenerate``
    are derived.  ``degenerate`` marks the single-letter case (pmin empty,
    alpha 0), outside the min/max-rotation theory; bound checkers skip it.
    """

    word: str
    kind: RotationKind
    pmin_len: int

    @property
    def pmax_len(self) -> int:
        return len(self.word) - self.pmin_len

    @property
    def alpha(self) -> int:
        return min(self.pmin_len, self.pmax_len)

    @property
    def degenerate(self) -> bool:
        return len(self.word) == 1

    @property
    def p_min(self) -> str:
        if self.kind is RotationKind.MIN:
            return self.word[: self.pmin_len]
        return self.word[self.pmax_len :]

    @property
    def p_max(self) -> str:
        if self.kind is RotationKind.MAX:
            return self.word[: self.pmax_len]
        return self.word[self.pmin_len :]

    def __len__(self) -> int:
        return len(self.word)


def _require_nonempty(w: str) -> None:
    if not w:
        raise ValueError("empty text")


def longest_border(w: str) -> str:
    """Longest proper prefix of ``w`` that is also a suffix (possibly empty):
    the longest suffix of ``w[1:]`` that is a prefix of ``w``."""
    _require_nonempty(w)
    return overlap(w[1:], w) if len(w) > 1 else ""


def min_period(w: str) -> int:
    """Smallest p with w[i] == w[i+p] for all valid i; equals |w| - |longest border|."""
    return len(w) - len(longest_border(w))


def is_primitive(w: str) -> bool:
    """True iff ``w`` is not a proper power v**k, k >= 2."""
    _require_nonempty(w)
    return (w + w).find(w, 1) == len(w)


# Each candidate-elimination round compares at least _MIN_STEP further
# characters per candidate, and about _ROUND_CHARS in all while candidates
# are few: a pass over the candidates costs far more than the characters it
# compares, so few long rounds beat many short ones.
_MIN_STEP = 16
_ROUND_CHARS = 4096


def _extreme_start(w: str, ww: str, c: str, least: bool) -> int:
    """0-based start of the least (``least``) or greatest rotation of ``w``,
    the earliest on ties; ``ww == w + w`` and ``c`` is ``w``'s least letter
    (``least``) or its greatest.

    The extreme rotation starts with a longest run of the extreme letter
    ``c``, so the starts of the runs at least ``k`` long, ``k`` the largest
    power of two with ``c * k`` in ``ww``, are the first candidates.  Each
    round compares the next characters after the shared prefix of
    ``size`` letters and keeps the candidates whose characters are extreme,
    ties included.  Then a candidate ``q`` that follows the one before it,
    ``p``, by ``d = q - p <= size`` is dropped: the shared prefix makes the
    cyclic text from ``p`` d-periodic up to at least ``q + size``.  Where
    the period first breaks, the rotations at ``p``, ``q`` and ``q + d``
    differ by the same two letters, so either ``p``'s rotation is as extreme
    as ``q``'s and earlier, or ``q + d``'s is more extreme; ``q`` never
    wins.  Of each cluster of close candidates only the first is left.
    """
    n = len(w)
    k = 1
    while 2 * k < n and c * (2 * k) in ww:
        k *= 2
    # Unless w == c * n (all rotations tie and 0 comes first), every run of
    # c is shorter than 2k, so splitting at c * k finds each run at least k
    # long exactly once, at its start below n; the longest runs are among
    # them, and the shorter ones lose in the first round.
    gaps = ww[:n + k - 1].split(c * k)
    if len(gaps) == 2:
        return len(gaps[0])
    # run i starts after the pieces gaps[:i + 1] and the i runs between them
    cands = list(accumulate([len(g) + k for g in gaps[:-1]], initial=-k))[1:]
    size = k
    while True:
        nxt = min(size + max(size, _MIN_STEP, _ROUND_CHARS // len(cands)), n)
        keys = [ww[p + size:p + nxt] for p in cands]
        best = min(keys) if least else max(keys)
        if nxt == n or keys.count(best) == 1:
            return cands[keys.index(best)]
        cands = [p for p, key in zip(cands, keys) if key == best]
        size = nxt
        cands = [cands[0], *[q for p, q in zip(cands, cands[1:]) if q - p > size]]


def minimal_rotation_index(w: str) -> int:
    """1-based start of the lexicographically smallest rotation (smallest index on ties)."""
    _require_nonempty(w)
    return _extreme_start(w, w + w, min(w), True) + 1


def maximal_rotation_index(w: str) -> int:
    """1-based start of the lexicographically largest rotation (smallest index on ties)."""
    _require_nonempty(w)
    return _extreme_start(w, w + w, max(w), False) + 1


# Shortest prefix of v whose occurrences in u's tail give the overlaps at
# least this long; any length from 1 to min(|u|, |v|) gives the same answers.
_SEED = 4


def overlap(u: str, v: str) -> str:
    """Longest suffix of ``u`` that is a prefix of ``v``.

    For identical inputs this returns the longest *proper* border, which is
    the value needed for self-loop weights (a string overlapped with a fresh
    copy of itself).
    """
    _require_nonempty(u)
    _require_nonempty(v)
    if u == v:
        return longest_border(u)
    m = min(len(u), len(v))
    c = v[0]
    run = m - len(v[:m].lstrip(c))  # v starts with c * run, run <= m
    # The seed reaches past v's leading run, so it occurs at most once per
    # run of c in u.  An overlap at least as long as the seed starts at an
    # occurrence of it; the earliest confirmed one is the longest.
    s = min(m, max(run + 1, _SEED))
    seed = v[:s]
    p = u.find(seed, len(u) - m)
    while p >= 0:
        if v.startswith(u[p:]):
            return u[p:]
        p = u.find(seed, p + 1)
    for k in range(s - 1, run, -1):
        if u.endswith(v[:k]):
            return v[:k]
    # what is left are overlaps c * k with k <= run: u's trailing run of c
    return v[:run - len(u[len(u) - run:].rstrip(c))]


def overlap_len(u: str, v: str) -> int:
    return len(overlap(u, v))


def prefix_part(u: str, v: str) -> str:
    """``u`` with its overlap-with-``v`` suffix removed: u == prefix_part(u,v) + overlap(u,v)."""
    return u[: len(u) - overlap_len(u, v)]


def nice_rotation(w: str) -> NiceWord:
    """Nice rotation of a primitive string, with its pmin/pmax split.

    Single-letter inputs yield the degenerate NiceWord (alpha 0).  The tie
    ``|pmax| == |pmin|`` resolves to the maximal rotation.
    """
    _require_nonempty(w)
    n = len(w)
    ww = w + w
    if ww.find(w, 1) != n:  # is_primitive, sharing ww
        raise ValueError("not primitive")
    if n == 1:
        return NiceWord(word=w, kind=RotationKind.MAX, pmin_len=0)
    letters = set(w)
    imin = _extreme_start(w, ww, min(letters), True)
    imax = _extreme_start(w, ww, max(letters), False)
    pmin_len = (imax - imin) % n
    if n - pmin_len <= pmin_len:
        return NiceWord(word=ww[imax:imax + n], kind=RotationKind.MAX,
                        pmin_len=pmin_len)
    return NiceWord(word=ww[imin:imin + n], kind=RotationKind.MIN,
                    pmin_len=pmin_len)


def _base_word(w: NiceWord | str) -> str:
    return w.word if isinstance(w, NiceWord) else w


def w_string_prefix(w: NiceWord | str, n: int) -> str:
    """First ``n`` symbols of ``w`` repeated indefinitely."""
    base = _base_word(w)
    if not base:
        raise ValueError("empty text")
    if n < 0:
        raise ValueError("negative length")
    return (base * (n // len(base) + 1))[:n]


def is_w_string(x: str, w: NiceWord | str) -> bool:
    """True iff ``x`` is a prefix of ``w`` repeated indefinitely."""
    base = _base_word(w)
    if not base:
        return False
    return x == w_string_prefix(base, len(x))


def rotations_equivalent(u: str, v: str) -> bool:
    """True iff one string is a rotation of the other."""
    return len(u) == len(v) and u in v + v
