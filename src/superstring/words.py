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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


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


def prefix_function(w: str) -> list[int]:
    """KMP failure function: pi[i] = length of the longest proper border of w[:i+1]."""
    pi = [0] * len(w)
    k = 0
    for i in range(1, len(w)):
        c = w[i]
        while k > 0 and w[k] != c:
            k = pi[k - 1]
        if w[k] == c:
            k += 1
        pi[i] = k
    return pi


def longest_border(w: str) -> str:
    """Longest proper prefix of ``w`` that is also a suffix (possibly empty)."""
    _require_nonempty(w)
    return w[: prefix_function(w)[-1]]


def min_period(w: str) -> int:
    """Smallest p with w[i] == w[i+p] for all valid i; equals |w| - |longest border|."""
    _require_nonempty(w)
    return len(w) - prefix_function(w)[-1]


def is_primitive(w: str) -> bool:
    """True iff ``w`` is not a proper power v**k, k >= 2."""
    _require_nonempty(w)
    return (w + w).find(w, 1) == len(w)


def _least_shift(keys: list[int]) -> int:
    """0-based start of the least rotation of ``keys``, the earliest on ties.

    Duval's Lyndon factorization (J. Algorithms 1983) over ``keys`` twice.
    Each outer step scans one run of equal Lyndon factors starting at ``i``
    and moves ``i`` past the run; the least rotation starts at the last run
    start below ``n``.  Starting at a run's first factor rather than a later
    equal one gives the earliest index when ``keys`` is periodic.
    """
    n = len(keys)
    s = keys + keys
    i = start = 0
    while i < n:
        start = i
        k, j = i, i + 1
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start


def minimal_rotation_index(w: str) -> int:
    """1-based start of the lexicographically smallest rotation (smallest index on ties)."""
    _require_nonempty(w)
    return _least_shift([ord(c) for c in w]) + 1


def maximal_rotation_index(w: str) -> int:
    """1-based start of the lexicographically largest rotation (smallest index on ties)."""
    _require_nonempty(w)
    return _least_shift([-ord(c) for c in w]) + 1


def rotate(w: str, shift: int) -> str:
    """Rotation of ``w`` starting at 0-based offset ``shift``."""
    shift %= len(w)
    return w[shift:] + w[:shift]


def minimal_rotation(w: str) -> str:
    return rotate(w, minimal_rotation_index(w) - 1)


def maximal_rotation(w: str) -> str:
    return rotate(w, maximal_rotation_index(w) - 1)


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
    for k in range(min(len(u), len(v)), 0, -1):
        if u.endswith(v[:k]):
            return v[:k]
    return ""


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
    if not is_primitive(w):
        raise ValueError("not primitive")
    if len(w) == 1:
        return NiceWord(word=w, kind=RotationKind.MAX, pmin_len=0)
    n = len(w)
    imin = minimal_rotation_index(w) - 1
    imax = maximal_rotation_index(w) - 1
    pmin_len = (imax - imin) % n
    if n - pmin_len <= pmin_len:
        return NiceWord(word=rotate(w, imax), kind=RotationKind.MAX,
                        pmin_len=pmin_len)
    return NiceWord(word=rotate(w, imin), kind=RotationKind.MIN,
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
