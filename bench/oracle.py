"""Reference computations the benchmark checks program outputs against.

They are written independently of the library: normalization by direct
containment tests, the overlap table from a prefix index, and the
minimum-cycle-cover lower bound on the optimal superstring length
(Blum et al., JACM 1994) from scipy's assignment solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


def normalize(raw: list[str]) -> list[str]:
    """Drop duplicates, then strings contained in another; keep input order."""
    deduped = list(dict.fromkeys(raw))
    return [s for s in deduped if not any(s != t and s in t for t in deduped)]


def overlap_table(strings: list[str]) -> list[list[int]]:
    """ov[i][j]: longest proper suffix of s_i that is a proper prefix of s_j.

    On a substring-free set no overlap can be a whole string, so proper
    affixes suffice; on the diagonal this is the longest proper border.
    """
    by_prefix: dict[str, list[int]] = {}
    for j, v in enumerate(strings):
        for k in range(1, len(v)):
            by_prefix.setdefault(v[:k], []).append(j)
    ov = [[0] * len(strings) for _ in strings]
    for i, u in enumerate(strings):
        row = ov[i]
        for k in range(1, len(u)):
            for j in by_prefix.get(u[-k:], ()):
                row[j] = k  # k grows, so the last write is the longest
    return ov


def _prefix_matrix(strings: list[str], ov: list[list[int]]) -> np.ndarray:
    lengths = np.array([len(s) for s in strings], dtype=np.int64)
    return lengths[:, None] - np.array(ov, dtype=np.int64)


def cycle_cover_lower_bound(strings: list[str], ov: list[list[int]]) -> int:
    """Weight of a minimum cycle cover of the prefix graph; <= OPT."""
    prefix = _prefix_matrix(strings, ov)
    rows, cols = linear_sum_assignment(prefix)
    return int(prefix[rows, cols].sum())


def self_loops_unique_min_cover(strings: list[str]) -> bool:
    """True iff the cover of self-loops alone is the only minimum cycle cover
    of the prefix graph: banning any one loop makes every cover heavier."""
    prefix = _prefix_matrix(strings, overlap_table(strings))
    loops = int(np.trace(prefix))
    for i in range(len(strings)):
        banned = prefix.copy()
        banned[i, i] = loops + 1
        rows, cols = linear_sum_assignment(banned)
        if banned[rows, cols].sum() <= loops:
            return False
    return True


@dataclass(frozen=True)
class Reference:
    strings: list[str]          # normalized, in the program's index order
    ov: list[list[int]]
    lower_bound: int

    @property
    def total_length(self) -> int:
        return sum(len(s) for s in self.strings)


def reference(raw: list[str]) -> Reference:
    strings = normalize(raw)
    ov = overlap_table(strings)
    return Reference(strings, ov, cycle_cover_lower_bound(strings, ov))


class WrongOutput(Exception):
    """A program output failed a check; the run is aborted."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def merged_length(ref: Reference, order: list[int]) -> int:
    """Length of the strings merged in ``order`` with maximal overlaps: the
    shortest superstring in which they start in that order."""
    return ref.total_length - sum(ref.ov[a][b] for a, b in zip(order, order[1:]))


def check_row(ref: Reference, row: dict) -> None:
    n = len(ref.strings)
    algo = row["algo"]
    _require(sorted(row["order"]) == list(range(n)),
             f"{algo}: order is not a permutation of 0..{n - 1}")
    _require(row["length"] + row["overlap"] == ref.total_length,
             f"{algo}: length + overlap != total input length")
    _require(ref.lower_bound <= row["length"],
             f"{algo}: length {row['length']} below the lower bound "
             f"{ref.lower_bound}")
    _require(merged_length(ref, row["order"]) <= row["length"],
             f"{algo}: no superstring of length {row['length']} has its "
             f"strings in the reported order")


def check_solve(ref: Reference, report: dict, stdout: str) -> dict:
    """Checks a ``solve`` report and its printed superstring; returns the row."""
    _require(report["instance"]["n"] == len(ref.strings), "solve: wrong n")
    (row,) = report["results"]
    check_row(ref, row)
    text = stdout.splitlines()[0]
    _require(row["length"] == len(text), "solve: length != text length")
    missing = [i for i, s in enumerate(ref.strings) if s not in text]
    _require(not missing, f"solve: strings {missing} missing from the text")
    appearance = sorted(range(len(ref.strings)),
                        key=lambda i: (text.find(ref.strings[i]), i))
    _require(row["order"] == appearance, "solve: order is not the appearance "
             "order of the strings in the text")
    return row


def check_compare(ref: Reference, report: dict) -> dict[str, dict]:
    """Checks every ``compare`` row; returns the rows by algorithm."""
    _require(report["instance"]["n"] == len(ref.strings), "compare: wrong n")
    rows = {row["algo"]: row for row in report["results"]}
    for row in rows.values():
        check_row(ref, row)
    checks = report["verification"]
    _require(checks["failed"] == 0 and checks["run"] == len(rows),
             "compare: a row failed the program's own validation")
    if "exact" in rows:
        shortest = rows["exact"]["length"]
        _require(all(r["length"] >= shortest for r in rows.values()),
                 "compare: a row is shorter than the exact optimum")
    return rows
