"""Brute-force oracles, kept deliberately naive and independent of the library.

Everything here is written from the definitions (enumerate, compare, take the
extreme) so that it can referee the optimized implementations.
"""

from __future__ import annotations

import itertools


def rotations(w):
    return [w[i:] + w[:i] for i in range(len(w))]


def min_rotation_index(w):
    """1-based index of the lexicographically smallest rotation, earliest on ties."""
    best, best_i = None, None
    for i, r in enumerate(rotations(w)):
        if best is None or r < best:
            best, best_i = r, i
    return best_i + 1


def max_rotation_index(w):
    best, best_i = None, None
    for i, r in enumerate(rotations(w)):
        if best is None or r > best:
            best, best_i = r, i
    return best_i + 1


def nice_rotation(w):
    """(word, kind, pmin_len) of a primitive w, |w| >= 2: the least rotation
    is pmin + pmax and the greatest pmax + pmin, each piece running from one
    extreme rotation's start to the other's; the nice rotation is the
    greatest when |pmax| <= |pmin| and the least otherwise."""
    n = len(w)
    imin, imax = min_rotation_index(w) - 1, max_rotation_index(w) - 1
    pmin_len = (imax - imin) % n
    if n - pmin_len <= pmin_len:
        return rotations(w)[imax], "MaxRotation", pmin_len
    return rotations(w)[imin], "MinRotation", pmin_len


def borders(w):
    """All proper borders of w, by explicit char-by-char comparison."""
    out = []
    for k in range(1, len(w)):
        if all(w[i] == w[len(w) - k + i] for i in range(k)):
            out.append(w[:k])
    return out


def longest_border(w):
    bs = borders(w)
    return bs[-1] if bs else ""


def min_period(w):
    for p in range(1, len(w) + 1):
        if all(w[i] == w[i + p] for i in range(len(w) - p)):
            return p
    raise AssertionError("unreachable: |w| is always a period")


def is_primitive(w):
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w[:d] * (n // d) == w:
            return False
    return True


def overlap(u, v):
    """Longest suffix of u that is a prefix of v; proper border when u == v."""
    limit = len(u) - 1 if u == v else min(len(u), len(v))
    best = ""
    for k in range(1, limit + 1):
        if all(u[len(u) - k + i] == v[i] for i in range(k)):
            best = v[:k]
    return best


def is_substring(s, t):
    """True iff s occurs in t, by comparing s with every window of t."""
    return any(t[k:k + len(s)] == s for k in range(len(t) - len(s) + 1))


def validate_superstring(inst, text):
    """True iff every instance string occurs in ``text``."""
    return all(s in text for s in inst.strings)


def normalize(raw):
    """(survivors, log) of the substring-free rule: the first copy of each
    string is kept unless another input contains it.  The log lists every
    later copy as a duplicate, in input order, then every contained first
    copy as a substring, in input order."""
    firsts, log = [], []
    for s in raw:
        if s in firsts:
            log.append(("duplicate", s))
        else:
            firsts.append(s)
    survivors = []
    for s in firsts:
        if any(t != s and is_substring(s, t) for t in firsts):
            log.append(("substring", s))
        else:
            survivors.append(s)
    return survivors, log


def first_substring_pair(strings):
    """The first (i, j), i != j, in row-major order with strings[i] in
    strings[j], or None."""
    n = len(strings)
    return next(((i, j) for i in range(n) for j in range(n)
                 if i != j and is_substring(strings[i], strings[j])), None)


def merge_in_order(strings, order):
    text = strings[order[0]]
    for idx in order[1:]:
        s = strings[idx]
        ov = overlap(text, s) if text != s else ""
        # overlap() treats equal inputs as self-overlap; distinct instance
        # strings never collide here, guard is for safety only.
        text = text[: len(text) - len(ov)] + s
    return text


def greedy_text(strings):
    """Classic greedy merging, recomputing every overlap each round: merge
    the pair with the largest overlap, ties to the smallest (i, j); the
    merged text keeps the smaller index."""
    chains = dict(enumerate(strings))
    while len(chains) > 1:
        best = max((len(overlap(chains[i], chains[j])), -i, -j)
                   for i in chains for j in chains if i != j)
        k, i, j = best[0], -best[1], -best[2]
        merged = chains[i][: len(chains[i]) - k] + chains[j]
        del chains[max(i, j)]
        chains[min(i, j)] = merged
    (text,) = chains.values()
    return text


def exact_superstring_length(strings):
    """Minimum superstring length by trying every order."""
    return min(len(merge_in_order(strings, p))
               for p in itertools.permutations(range(len(strings))))


def cycle_string(strings, cycle):
    """Prefix parts read along the cycle, each member with its overlap with
    the next member cut off; the overlaps are scanned pair by pair."""
    parts = []
    for t, i in enumerate(cycle):
        u, v = strings[i], strings[cycle[(t + 1) % len(cycle)]]
        parts.append(u[: len(u) - len(overlap(u, v))])
    return "".join(parts)


def best_assignment(weights, maximize=False, loops=True):
    """(total, perm) over all permutations; ties broken by smallest perm tuple.

    ``loops=False`` enumerates only the derangements (no ``p[i] == i``).
    """
    n = len(weights)
    best_total, best_perm = None, None
    for p in itertools.permutations(range(n)):
        if not loops and any(p[i] == i for i in range(n)):
            continue
        total = sum(weights[i][p[i]] for i in range(n))
        key = (-total if maximize else total, p)
        if best_total is None or key < (best_total, best_perm):
            best_total, best_perm = key[0], p
    return (-best_total if maximize else best_total), best_perm


def max_path_weight(weights):
    """Maximum Hamiltonian-path weight by trying every order."""
    n = len(weights)
    if n == 1:
        return 0
    return max(sum(weights[p[i]][p[i + 1]] for i in range(n - 1))
               for p in itertools.permutations(range(n)))


def max_path_order(weights):
    """Lexicographically smallest order of maximum Hamiltonian-path weight."""
    n = len(weights)
    best, best_order = None, None
    for p in itertools.permutations(range(n)):  # in lexicographic order
        total = sum(weights[p[i]][p[i + 1]] for i in range(n - 1))
        if best is None or total > best:
            best, best_order = total, p
    return best_order


def greedy_path_order(weights):
    """Greedy Hamiltonian path: scan the edges i != j sorted by
    (-weight, i, j), taking each one that leaves every node with at most one
    successor and one predecessor and closes no cycle, checked by walking
    the successors taken so far."""
    n = len(weights)
    succ = {}
    for _, i, j in sorted((-weights[i][j], i, j)
                          for i in range(n) for j in range(n) if i != j):
        if i in succ or j in succ.values():
            continue
        node = j
        while node in succ and node != i:
            node = succ[node]
        if node == i:
            continue
        succ[i] = j
    (start,) = set(range(n)) - set(succ.values())
    order = [start]
    while order[-1] in succ:
        order.append(succ[order[-1]])
    return tuple(order)


def binary_strings(max_len):
    for n in range(1, max_len + 1):
        for bits in itertools.product("ab", repeat=n):
            yield "".join(bits)
