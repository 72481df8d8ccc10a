import contextlib
import importlib.machinery
import importlib.util
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment as public_lsap

import brute
from superstring import graph
from superstring.graph import (
    DegenerateInstanceError,
    Instance,
    WeightMatrix,
    max_cycle_cover,
    min_cycle_cover,
    normalize,
    overlap_matrix,
)
from superstring.words import is_primitive, overlap_len, rotations_equivalent
from superstring.pipeline import cycle_string, representatives


def matrix(rows):
    arr = np.array(rows, dtype=np.int64)
    return WeightMatrix(arr)


def matrices(strings):
    """The overlap matrix and the prefix matrix ``|s_i| - overlap[i][j]``."""
    ov = overlap_matrix(strings)
    lengths = np.array([len(s) for s in strings], dtype=np.int64)
    return ov, WeightMatrix(lengths[:, None] - ov.w)


# ----------------------------------------------------------------- normalize

def test_normalize_dedupes():
    inst, log = normalize(["ab", "ab", "ba"])
    assert inst.strings == ("ab", "ba")
    assert ("duplicate", "ab") in log


def test_normalize_drops_substrings_then_degenerates():
    with pytest.raises(DegenerateInstanceError) as exc:
        normalize(["abc", "b", "abc"])
    assert exc.value.survivors == ["abc"]
    assert exc.value.log == [("duplicate", "abc"), ("substring", "b")]


def test_normalize_keeps_clean_instance():
    inst, log = normalize(["abc", "bcd", "cde"])
    assert inst.strings == ("abc", "bcd", "cde")
    assert log == []


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(strings=("ab",))
    # equal strings contain each other: one rule refuses duplicates too
    with pytest.raises(ValueError, match=r"^string 0 is a substring of string 1$"):
        Instance(strings=("ab", "ab"))
    with pytest.raises(ValueError):
        Instance(strings=("ab", "xaby"))
    # (1, 3), (1, 4), (2, 0) and (4, 3) all hold; row-major, (1, 3) is first
    with pytest.raises(ValueError, match=r"^string 1 is a substring of string 3$"):
        Instance(strings=("abcd", "xy", "bc", "wxyz", "xyz"))


def test_normalize_runs_the_substring_free_rule_once(monkeypatch):
    scans = []
    first_containers = graph._first_containers

    def counted(strings):
        scans.append(list(strings))
        return first_containers(strings)

    monkeypatch.setattr(graph, "_first_containers", counted)
    inst, log = normalize(["abc", "b", "bcd", "abc", "cde"])
    assert (inst.strings, log) == (("abc", "bcd", "cde"),
                                   [("duplicate", "abc"), ("substring", "b")])
    assert scans == [["abc", "b", "bcd", "cde"]]
    scans.clear()
    assert Instance(inst.strings) == inst  # a direct Instance checks its own
    assert scans == [["abc", "bcd", "cde"]]


# ------------------------------------------------------------------ matrices

def test_matrices_ab_ba():
    inst, _ = normalize(["ab", "ba"])
    ov, pref = matrices(inst.strings)
    assert ov.w.tolist() == [[0, 1], [1, 0]]
    assert pref.w.tolist() == [[2, 1], [1, 2]]


def test_matrices_diagonal_uses_border():
    ov, pref = matrices(["aa", "bb"])
    assert ov.w.tolist() == [[1, 0], [0, 1]]
    assert pref.w.tolist() == [[1, 2], [2, 1]]


def test_matrices_three_shifted_strings():
    ov = overlap_matrix(["abc", "bcd", "cde"])
    assert ov.w.tolist() == [[0, 2, 1], [0, 0, 2], [0, 0, 0]]


def test_prefix_overlap_duality_entrywise():
    strings = ["abab", "babb", "bba"]
    ov, pref = matrices(strings)
    for i, s in enumerate(strings):
        assert all(int(ov.w[i, j] + pref.w[i, j]) == len(s) for j in range(3))


TOP = chr(0x10FFFF)  # the last code point: no character sorts above it


@st.composite
def affix_families(draw):
    """Unnormalized string lists: duplicates at different indices, single
    letters, strings that are prefixes, suffixes or rotations of others, and
    periodic strings, over ASCII letters, NUL, a non-ASCII letter and the
    top code point.  Rows run from 1 to about 200 letters, with few or many
    distinct heads, so that overlaps above ``graph._HEAD`` letters occur.
    The lists stay below ``graph._INDEX_LETTERS``; the head-index tests
    lower it to send them through the index."""
    alphabet = draw(st.sampled_from(
        ["ab", "abc", "a" + TOP, TOP + "ab", "\0ab", "\0\xe9" + TOP]))

    def periodic(lengths):
        return st.builds(lambda root, n: (root * n)[:n],
                         st.text(alphabet, min_size=1, max_size=6), lengths)

    shape = draw(st.sampled_from(["short", "mixed", "few-long"]))
    if shape == "few-long":
        strings = st.text(alphabet, min_size=50, max_size=200) | periodic(
            st.integers(50, 200))
        base = draw(st.lists(strings, min_size=2, max_size=3))
    else:
        strings = st.text(alphabet, min_size=1, max_size=8)
        if shape == "mixed":
            strings |= st.text(alphabet, min_size=1, max_size=40) | periodic(
                st.integers(2, 40))
        base = draw(st.lists(strings, min_size=1, max_size=6))
    out = list(base)
    for idx, how, k in draw(st.lists(
            st.tuples(st.integers(0, len(base) - 1),
                      st.sampled_from(["copy", "prefix", "suffix", "rotation"]),
                      st.integers(1, 40) | st.integers(graph._HEAD - 2,
                                                       graph._HEAD + 2)),
            max_size=4)):
        s = base[idx]
        out.append({"copy": s, "prefix": s[:k], "suffix": s[-k:],
                    "rotation": s[k:] + s[:k]}[how])
    return draw(st.permutations(out))


@given(affix_families())
@settings(max_examples=300, deadline=None)
def test_overlap_matrix_matches_brute_force(strings):
    assert overlap_matrix(strings).w.tolist() == [
        [len(brute.overlap(u, v)) for v in strings] for u in strings]


@given(affix_families())
@settings(max_examples=300, deadline=None)
def test_normalize_matches_brute_force(raw):
    survivors, log = brute.normalize(raw)
    try:
        inst, got_log = normalize(raw)
    except DegenerateInstanceError as exc:
        assert len(survivors) < 2
        assert (exc.survivors, exc.log) == (survivors, log)
    else:
        assert (list(inst.strings), got_log) == (survivors, log)
        assert Instance(inst.strings) == inst


@given(affix_families())
@settings(max_examples=300, deadline=None)
def test_instance_refuses_the_first_row_major_substring_pair(raw):
    strings = tuple(raw)
    if len(strings) < 2:
        return
    pair = brute.first_substring_pair(strings)
    if pair is None:
        assert Instance(strings).strings == strings
    else:
        with pytest.raises(ValueError) as exc:
            Instance(strings)
        assert str(exc.value) == "string %d is a substring of string %d" % pair


def test_overlap_matrix_on_read_like_instance():
    rng = random.Random(2024)
    genome = "".join(rng.choice("ACGT") for _ in range(5000))
    reads = []
    for _ in range(200):
        at = rng.randrange(len(genome) - 120)
        reads.append(genome[at:at + rng.randint(80, 120)])
    assert overlap_matrix(reads).w.tolist() == [
        [overlap_len(u, v) for v in reads] for u in reads]


def test_overlap_matrix_on_read_like_representatives():
    # three chromosomes at ~4x coverage: a few long representatives, whose
    # matrix goes through the head index
    rng = random.Random(7)
    genomes = ["".join(rng.choice("ACGT") for _ in range(800)) for _ in range(3)]
    reads = []
    for _ in range(100):
        genome = rng.choice(genomes)
        at = rng.randrange(len(genome) - 120)
        reads.append(genome[at:at + rng.randint(80, 120)])
    inst, _ = normalize(reads)
    texts = [r.text for r in representatives(inst)]
    assert len(texts) >= 2 and min(map(len, texts)) > 200
    assert overlap_matrix(texts).w.tolist() == [
        [overlap_len(u, v) for v in texts] for u in texts]


ROUTE_STRINGS = ["abcdefghij", "cdefghijkl", "ghijklmnab"]


@contextlib.contextmanager
def overlap_route(route):
    """``overlap_matrix`` of ``ROUTE_STRINGS`` through the head index
    (``index``, with ``graph._INDEX_LETTERS`` at 0) or the direct scan
    (``direct``, at its default)."""
    with pytest.MonkeyPatch.context() as mp:
        if route == "index":
            mp.setattr(graph, "_INDEX_LETTERS", 0)
        hits = graph._head_hits(ROUTE_STRINGS, ROUTE_STRINGS, sum(map(len, ROUTE_STRINGS)))
        assert (hits is not None) == (route == "index")
        yield


def test_overlap_matrix_rejects_empty_string():
    for route in ("index", "direct"):
        with overlap_route(route), pytest.raises(ValueError, match="^empty text$"):
            overlap_matrix([*ROUTE_STRINGS, ""])


@pytest.mark.parametrize("route", ["index", "direct"])
def test_overlap_matrix_is_read_only(route):
    with overlap_route(route):
        w = overlap_matrix(ROUTE_STRINGS).w
    assert w.tolist() == [[len(brute.overlap(u, v)) for v in ROUTE_STRINGS]
                          for u in ROUTE_STRINGS]
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 1


def table_type_strings(size):
    """Three ACGT strings of ``size`` letters cut from one random text at
    starts 200 letters apart, so each overlaps the next by ``size - 200``
    letters where ``size`` exceeds 200, and one short string."""
    rng = random.Random(size)
    text = "".join(rng.choice("ACGT") for _ in range(size + 400))
    return [text[:size], text[200:size + 200], text[400:size + 400], "GATTACA"]


@pytest.mark.parametrize("size", [10, 9000])  # an int16 and an int32 matrix
@pytest.mark.parametrize("route", ["index", "direct", "non-ascii"])
def test_overlap_matrix_is_built_in_the_table_type(monkeypatch, size, route):
    strings = table_type_strings(size)
    if route == "non-ascii":
        strings[-1] += "\u00e9"
    letters = sum(map(len, strings))
    # non-ASCII input takes the direct route however many letters it has
    monkeypatch.setattr(graph, "_INDEX_LETTERS", letters + 1 if route == "direct" else 0)
    assert (graph._head_hits(strings, strings, letters) is not None) == (route == "index")
    w = overlap_matrix(strings).w
    assert w.dtype == graph.int_table_type(max(map(len, strings)))[0]
    assert w.dtype == (np.int16 if size < 8192 else np.int32)
    reference = np.array([[overlap_len(u, v) for v in strings] for u in strings],
                         dtype=np.int64)
    assert (w == reference).all()
    if size > 8192:
        assert w[0, 1] == size - 200  # above the 8192 an int16 table holds


def test_overlap_matrix_of_no_strings_is_refused():
    with pytest.raises(ValueError, match="^weight matrix must be n x n with n >= 1$"):
        overlap_matrix([])


# ---------------------------------------------------------------- head index

def scanned_first_containers(strings):
    """The substring-free rule as a direct ``s in t`` scan."""
    return [next((j for j, t in enumerate(strings) if s in t and i != j), None)
            for i, s in enumerate(strings)]


def constant_keys(mp):
    """Give every window of 8 letters one key, so that it is a hit of every
    head, and lift the budget on (hit, string) pairs that would send such
    an index back to the direct scan."""
    hits = graph._head_hits
    mp.setattr(graph, "_window_keys", lambda text: np.zeros(
        len(text) - graph._HEAD + 1, dtype=np.uint64))
    mp.setattr(graph, "_head_hits",
               lambda texts, strings, budget=None: hits(texts, strings))


@contextlib.contextmanager
def head_index(keys):
    """Every ASCII input through the head index, its windows keyed by
    ``graph._window_keys`` (``real``) or all given one key (``constant``)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_INDEX_LETTERS", 0)
        if keys == "constant":
            constant_keys(mp)
        yield


@st.composite
def texts_with_strings(draw):
    """A text and strings to find in it: pieces of the text, of its
    rotations and of nothing, among them duplicates and strings shorter
    than ``graph._HEAD``."""
    strings = draw(affix_families())
    text = draw(st.sampled_from(["".join(strings), "".join(reversed(strings)),
                                 "\0".join(strings), "x"]))
    pieces = st.tuples(st.integers(0, len(text)), st.integers(1, 30)).map(
        lambda t: (text + text)[t[0]:t[0] + t[1]])
    return text, strings + draw(st.lists(pieces, max_size=6))


@pytest.mark.parametrize("keys", ["real", "constant"])
@given(raw=affix_families())
@settings(max_examples=100, deadline=None)
def test_index_finds_the_first_containers_of_a_scan(keys, raw):
    expected = scanned_first_containers(raw)
    with head_index(keys):
        assert graph._first_containers(raw) == expected


@st.composite
def short_strings_inside_long(draw):
    """ASCII lists of at least ``graph._INDEX_LETTERS`` letters: strings of
    ``graph._HEAD`` letters or more, copies of some, and strings of fewer
    letters, most of them cut from inside the long ones, the rest drawn
    freely, so that only ``_first_hits``' scan of the short strings finds
    their containers."""
    alphabet = draw(st.sampled_from(["ab", "\0ab", "ACGT", "abcdefghijklmnop"]))
    longs = draw(st.lists(st.text(alphabet, min_size=graph._HEAD, max_size=120),
                          min_size=1, max_size=10))
    short = graph._HEAD - 1
    need = graph._INDEX_LETTERS - sum(map(len, longs))
    if need > 0:  # up to the index's threshold with random long strings
        rng = random.Random(draw(st.integers(0, 2**32)))
        while need > 0:
            size = rng.randint(graph._HEAD, 120)
            longs.append("".join(rng.choice(alphabet) for _ in range(size)))
            need -= size
    pieces = st.tuples(st.integers(0, len(longs) - 1), st.integers(0, 119),
                       st.integers(1, short)).map(
        lambda t: longs[t[0]][t[1] % len(longs[t[0]]):][:t[2]])
    out = longs + draw(st.lists(pieces, min_size=1, max_size=12))
    out += draw(st.lists(st.text(alphabet, min_size=1, max_size=short), max_size=4))
    out += draw(st.lists(st.sampled_from(longs), max_size=2))
    return draw(st.permutations(out))


@pytest.mark.parametrize("index", [True, False])
@given(raw=short_strings_inside_long())
@settings(max_examples=100, deadline=None)
def test_first_containers_of_short_strings_at_the_index_threshold(index, raw):
    assert sum(map(len, raw)) >= graph._INDEX_LETTERS
    with pytest.MonkeyPatch.context() as mp:
        if not index:
            mp.setattr(graph, "_INDEX_LETTERS", sum(map(len, raw)) + 1)
        assert graph._first_containers(raw) == scanned_first_containers(raw)


@pytest.mark.parametrize("keys", ["real", "constant"])
@given(strings=affix_families())
@settings(max_examples=100, deadline=None)
def test_index_gives_the_overlap_matrix_of_a_scan(keys, strings):
    expected = [[len(brute.overlap(u, v)) for v in strings] for u in strings]
    with head_index(keys):
        assert overlap_matrix(strings).w.tolist() == expected


@st.composite
def ascii_families(draw):
    """ASCII string lists for the head index's overlap matrix: strings of 1
    to 12 letters, across the head's 8, over alphabets with NUL, and
    copies, prefixes and suffixes of one another."""
    alphabet = draw(st.sampled_from(["ab", "\0a", "\0ab", "ACGT"]))
    base = draw(st.lists(st.text(alphabet, min_size=1, max_size=12),
                         min_size=1, max_size=8))
    out = list(base)
    for idx, how, k in draw(st.lists(
            st.tuples(st.integers(0, len(base) - 1),
                      st.sampled_from(["copy", "prefix", "suffix"]),
                      st.integers(1, 12)),
            max_size=6)):
        s = base[idx]
        out.append({"copy": s, "prefix": s[:k], "suffix": s[-k:]}[how])
    return draw(st.permutations(out))


@given(ascii_families())
@settings(max_examples=300, deadline=None)
def test_index_overlap_matrix_matches_brute_force_on_short_strings(strings):
    expected = [[len(brute.overlap(u, v)) for v in strings] for u in strings]
    with head_index("real"):
        assert overlap_matrix(strings).w.tolist() == expected


def reads_instance(rng, n):
    """Reads of 80-120 letters cut at about 4x coverage from three random
    ACGT chromosomes, drawn until exactly ``n`` survive normalization: the
    benchmark's ``reads`` instances."""
    chrom_len = n * 100 // 4 // 3
    chroms = ["".join(rng.choice("ACGT") for _ in range(chrom_len)) for _ in range(3)]
    reads, survivors = [], []
    while len(survivors) < n:
        chrom = rng.choice(chroms)
        length = rng.randint(80, 120)
        start = rng.randint(0, chrom_len - length)
        read = chrom[start:start + length]
        reads.append(read)
        if not any(read in s for s in survivors):
            survivors = [s for s in survivors if s not in read] + [read]
    return reads


def test_overlap_matrix_on_300_reads():
    reads = normalize(reads_instance(random.Random("reads:1"), 300))[0].strings
    assert len(reads) == 300 and sum(map(len, reads)) >= graph._INDEX_LETTERS
    assert overlap_matrix(reads).w.tolist() == [
        [overlap_len(u, v) for v in reads] for u in reads]


@pytest.mark.parametrize("keys", ["real", "constant"])
@given(case=texts_with_strings())
@settings(max_examples=100, deadline=None)
def test_index_finds_first_occurrences_like_find(keys, case):
    text, strings = case
    expected = [text.find(s) for s in strings]
    with head_index(keys):
        assert graph.first_occurrences(text, strings) == expected


@pytest.mark.parametrize("letter", ["a", "\0", "\x7f"])
def test_index_hits_are_every_window_equal_to_a_head(monkeypatch, letter):
    monkeypatch.setattr(graph, "_INDEX_LETTERS", 0)
    texts = ["xxabcdefghabcdefgh", "abcdefg", "\0abcdefgh\0", "ghabcdef" * 2]
    strings = ["abcdefghij", "abcdefgh", "short", "\0abcdefg", "habcdefg"]
    texts, strings = ([s.replace("a", letter) for s in ss] for ss in (texts, strings))
    text, start, first, last, heads = graph._head_hits(texts, strings)
    hits = sorted((j, at, i) for j, t in enumerate(texts)
                  for at in range(len(t) - graph._HEAD + 1)
                  for i, s in enumerate(strings)
                  if len(s) >= graph._HEAD and t[at:at + graph._HEAD] == s[:graph._HEAD])
    assert [(j, at, i) for j, at, a, b in zip(text, start, first, last)
            for i in heads[a:b]] == hits
    assert [*zip(text, start)] == sorted({(j, at) for j, at, _ in hits})
    assert sorted(heads) == [0, 1, 3, 4]


@pytest.mark.parametrize("where", ["text", "head"])
def test_non_ascii_input_skips_the_index(monkeypatch, where):
    monkeypatch.setattr(graph, "_INDEX_LETTERS", 0)
    strings = ["abcdefghij", "cdefghijkl", "\xe9"]  # a short string is no head
    text = "xxabcdefghijkl"
    assert graph._head_hits([text], strings) is not None
    if where == "text":
        text += "\xe9"
    else:
        strings[1] = "\xe9" + strings[1]
    assert graph._head_hits([text], strings) is None
    strings.append(text)
    assert graph._first_containers(strings) == scanned_first_containers(strings)
    assert overlap_matrix(strings).w.tolist() == [
        [len(brute.overlap(u, v)) for v in strings] for u in strings]
    assert graph.first_occurrences(text, strings) == [text.find(s) for s in strings]


def test_a_long_run_of_one_head_gives_the_index_up():
    # every window of every string is a hit of every string: 13 million
    # (hit, string) pairs, where a direct scan tests 300^2
    strings = ["a" * k for k in range(8, 308)]
    n = len(strings)
    assert graph._head_hits(strings, strings, n * n) is None
    assert graph._first_containers(strings) == [*range(1, n), None]
    text = "b" * 1000 + strings[-1]
    assert graph.first_occurrences(text, strings) == [1000] * n
    assert overlap_matrix(strings).w.tolist() == [
        [min(len(u), len(v)) - (u == v) for v in strings] for u in strings]


def test_small_inputs_skip_the_index(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the head index was built on a small input")

    monkeypatch.setattr(graph, "_window_keys", forbidden)
    strings = ["ab" * 60, "ba" * 60 + "c", "abc" * 40]  # 481 letters
    assert sum(map(len, strings)) < graph._INDEX_LETTERS
    assert graph._first_containers(strings) == scanned_first_containers(strings)
    overlap_matrix(strings)
    text = "".join(strings)
    assert graph.first_occurrences(text, strings) == [text.find(s) for s in strings]


def test_strings_without_a_head_skip_the_index():
    # every string of 4-7 letters over ``ab`` is shorter than a head
    words = ["".join(w) for k in range(4, graph._HEAD)
             for w in itertools.product("ab", repeat=k)]
    strings = random.Random(7).sample(words, 200)
    text = "".join(strings)
    assert sum(map(len, strings)) >= graph._INDEX_LETTERS
    assert graph._head_hits(strings, strings) is None
    assert graph._head_hits([text], strings) is None
    assert graph._first_containers(strings) == [
        next((j for j, t in enumerate(strings) if i != j and brute.is_substring(s, t)), None)
        for i, s in enumerate(strings)]
    assert graph.first_occurrences(text, strings) == [
        next((at for at in range(len(text)) if text[at:at + len(s)] == s), -1)
        for s in strings]
    assert overlap_matrix(strings).w.tolist() == [
        [len(brute.overlap(u, v)) for v in strings] for u in strings]


def test_equal_instances_each_compute_their_own_reduction(monkeypatch):
    calls = []
    original = graph.overlap_matrix

    def recorded(strings):
        calls.append(strings)
        return original(strings)

    monkeypatch.setattr(graph, "overlap_matrix", recorded)
    a, b = Instance(("ab", "ba", "bb")), Instance(("ab", "ba", "bb"))
    assert a == b and hash(a) == hash(b)
    assert a.overlap is a.overlap
    assert len(calls) == 1
    assert b.overlap is not a.overlap
    assert len(calls) == 2
    assert (a.overlap.w.tolist() == b.overlap.w.tolist()
            == overlap_matrix(a.strings).w.tolist())
    assert a.cover == b.cover == min_cycle_cover(matrices(a.strings)[1])
    assert a == b and hash(a) == hash(b)
    with pytest.raises(ValueError):
        a.overlap.w[0, 0] = 1


@pytest.mark.parametrize("shape", [(2, 3), (3,), (), (0, 0)])
def test_weight_matrix_must_be_square(shape):
    with pytest.raises(ValueError):
        WeightMatrix(np.zeros(shape, dtype=np.int64))
    assert WeightMatrix(np.zeros((3, 3), dtype=np.int64)).n == 3


# -------------------------------------------------------------- cycle covers

def test_min_cover_prefers_two_cycle():
    _, pref = matrices(["ab", "ba"])
    cover = min_cycle_cover(pref)
    assert cover.perm == (1, 0)
    assert cover.total_weight == 2


def test_min_cover_prefers_self_loops():
    cover = min_cycle_cover(matrix([[0, 9], [9, 0]]))
    assert cover.perm == (0, 1)
    assert cover.total_weight == 0
    assert cover.cycles == ((0,), (1,))


def test_min_cover_three_shifted_strings_matches_enumeration():
    _, pref = matrices(["abc", "bcd", "cde"])
    cover = min_cycle_cover(pref)
    total, _ = brute.best_assignment(pref.w.tolist())
    assert cover.total_weight == total == 5
    assert cover.cycles == ((0, 1, 2),)


def test_max_cover_all_zero_is_a_derangement():
    rows = [[0] * 3] * 3
    cover = max_cycle_cover(matrix(rows))
    assert all(cover.perm[i] != i for i in range(3))
    assert cover.total_weight == brute.best_assignment(rows, True, loops=False)[0] == 0


def test_max_cover_duality_with_min_cover():
    rng = random.Random(7)
    done = 0
    while done < 50:
        raw = ["".join(rng.choice("ab") for _ in range(rng.randint(1, 8)))
               for _ in range(rng.randint(2, 6))]
        try:
            inst, _ = normalize(raw)
        except DegenerateInstanceError:
            continue
        done += 1
        strings = inst.strings
        ov, pref = matrices(strings)
        total_len = sum(len(s) for s in strings)
        ov_rows, pref_rows = ov.w.tolist(), pref.w.tolist()
        assert (min_cycle_cover(pref).total_weight
                == total_len - brute.best_assignment(ov_rows, True)[0])
        assert (max_cycle_cover(ov).total_weight
                == brute.best_assignment(ov_rows, True, loops=False)[0]
                == total_len - brute.best_assignment(pref_rows, loops=False)[0])


def test_covers_match_enumeration_up_to_n7():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 7)
        rows = [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
        m = matrix(rows)
        assert min_cycle_cover(m).total_weight == brute.best_assignment(rows)[0]
        assert (max_cycle_cover(m).total_weight
                == brute.best_assignment(rows, maximize=True, loops=False)[0])


def test_max_cover_loopless_never_uses_diagonal():
    m = matrix([[50, 1, 0], [0, 50, 1], [1, 0, 50]])
    cover = max_cycle_cover(m)
    assert all(cover.perm[i] != i for i in range(3))
    assert cover.total_weight == 3


def test_max_cover_forbids_loops_at_any_weight():
    # the one loop-free cover weighs -2^42: under a finite penalty of 2^40
    # per loop, the two loops (-2^41) would weigh more
    cover = max_cycle_cover(matrix([[0, -2**41], [-2**41, 0]]))
    assert cover.perm == (1, 0)
    assert cover.total_weight == -2**42


def test_max_cover_of_one_node_raises():
    with pytest.raises(ValueError,
                       match="^a single node admits no loop-free cycle cover$"):
        max_cycle_cover(matrix([[5]]))


def traced_peak(step):
    """``step()`` and the peak of the memory traced while it ran, above what
    was traced when it started; numpy reports its buffers to tracemalloc."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = step()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def wide_strings(n=600):
    """``n`` distinct non-ASCII strings of 16 letters, so none is inside
    another and ``overlap_matrix`` takes its direct route."""
    rng = random.Random(600)
    strings = {}
    while len(strings) < n:
        strings["".join(rng.choices("αβγδ", k=16))] = None
    return [*strings]


# one n^2 array of 8-byte cells, with room for the rest of a step's memory
# but not for a second such array
ONE_MATRIX = 1.5 * 600 * 600 * 8


def test_min_cover_builds_one_matrix():
    inst = Instance(tuple(wide_strings()))
    inst.overlap  # built before the trace
    cover, peak = traced_peak(lambda: inst.cover)
    assert peak < ONE_MATRIX
    assert cover == min_cycle_cover(matrices(inst.strings)[1])


def test_max_cover_builds_one_matrix():
    ov = overlap_matrix(wide_strings())
    cover, peak = traced_peak(lambda: max_cycle_cover(ov))
    assert peak < ONE_MATRIX
    assert all(cover.perm[i] != i for i in range(ov.n))


def test_direct_overlap_route_builds_one_matrix():
    strings = wide_strings()
    assert graph._head_hits(strings, strings) is None
    ov, peak = traced_peak(lambda: overlap_matrix(strings))
    assert peak < ONE_MATRIX
    # the same strings in ASCII letters take the head index
    ascii_strings = [s.translate(str.maketrans("αβγδ", "acgt")) for s in strings]
    assert graph._head_hits(ascii_strings, ascii_strings) is not None
    assert np.array_equal(ov.w, overlap_matrix(ascii_strings).w)


square_matrices = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.lists(st.lists(st.integers(min_value=0, max_value=9),
                                min_size=n, max_size=n),
                       min_size=n, max_size=n))


@given(square_matrices)
@settings(max_examples=200, deadline=None)
def test_cover_cycles_are_the_canonical_cycles_of_perm(rows):
    for cover in (min_cycle_cover(matrix(rows)), max_cycle_cover(matrix(rows))):
        cycles = cover.cycles
        assert sorted(v for cyc in cycles for v in cyc) == list(range(len(rows)))
        assert all(cyc[0] == min(cyc) for cyc in cycles)
        starts = [cyc[0] for cyc in cycles]
        assert starts == sorted(starts)
        for cyc in cycles:
            assert [cover.perm[v] for v in cyc] == [*cyc[1:], cyc[0]]


def test_cover_determinism():
    rng = random.Random(3)
    rows = [[rng.randint(0, 4) for _ in range(6)] for _ in range(6)]
    covers = {min_cycle_cover(matrix(rows)) for _ in range(5)}
    assert len(covers) == 1


# ------------------------------------------------ the file-loaded solver

# the routine graph loads from scipy's extension file, loaded here again
file_lsap = graph._lsap_from_file()


def drawn_prefix_and_overlap(seed, count):
    """``count`` (prefix, overlap) matrix pairs of random normalized instances."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        raw = ["".join(rng.choice("ab") for _ in range(rng.randint(1, 9)))
               for _ in range(rng.randint(2, 9))]
        try:
            inst, _ = normalize(raw)
        except DegenerateInstanceError:
            continue
        ov, pref = matrices(inst.strings)
        pairs.append((pref.w, ov.w))
    return pairs


def assert_same_assignment(w, maximize):
    got, want = file_lsap(w, maximize=maximize), public_lsap(w, maximize=maximize)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def run_fresh(code):
    """stdout of ``code`` run in a fresh interpreter that imports this
    superstring: graph picks its routine once, when it is first imported."""
    src = str(Path(graph.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_file_loaded_solver_is_found_here():
    assert file_lsap is not None


def test_file_loaded_solver_matches_public_on_both_covers():
    # the minimum cover with loops and the maximum cover as the minimum of
    # the negated weights with loops forbidden, exactly as min_cycle_cover
    # and max_cycle_cover call the solver
    for pref, ov in drawn_prefix_and_overlap(5, 200):
        assert_same_assignment(pref, maximize=False)
        loop_free = np.negative(ov, dtype=float)
        np.fill_diagonal(loop_free, np.inf)
        assert_same_assignment(loop_free, maximize=False)


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
def test_max_cover_solver_copies_no_matrix():
    """A fresh process's peak RSS rises by the one float64 copy that
    ``max_cycle_cover`` hands the solver, and not by a copy the solver
    makes of its own, which tracemalloc does not see.  The peak is the
    process's own VmHWM: ``ru_maxrss`` keeps the peak of the process that
    started it."""
    code = """
import numpy as np
from superstring import graph

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

m = graph.WeightMatrix(np.random.default_rng(0).integers(0, 100, (1000, 1000)))
before = peak_kib()
graph.max_cycle_cover(m)
print((peak_kib() - before) * 1024 / m.w.nbytes)
"""
    assert float(run_fresh(code)) < 1.5


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("fill", [0, 7, -3])
def test_file_loaded_solver_matches_public_on_ties(n, fill, dtype):
    for maximize in (False, True):
        assert_same_assignment(np.full((n, n), fill, dtype=dtype), maximize)


@given(st.integers(1, 9).flatmap(lambda n: st.lists(
           st.integers(-300, 300), min_size=n * n, max_size=n * n)),
       st.sampled_from([np.int16, np.int64]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_file_loaded_solver_matches_public_on_draws(cells, dtype, maximize):
    n = int(len(cells) ** 0.5)
    assert_same_assignment(np.array(cells, dtype=dtype).reshape(n, n), maximize)


@pytest.mark.parametrize("layout", ["no scipy", "no _lsap", "source _lsap",
                                    "broken extension"])
def test_file_lookup_gives_none_when_the_extension_is_not_there(
        layout, tmp_path, monkeypatch):
    optimize = tmp_path / "optimize"
    optimize.mkdir()
    if layout == "source _lsap":
        # a release that turns _lsap into Python must not have it run here
        (optimize / "_lsap.py").write_text("raise AssertionError\n")
    elif layout == "broken extension":
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        (optimize / f"_lsap{suffix}").write_bytes(b"not a shared object")
    scipy = None
    if layout != "no scipy":
        scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy.submodule_search_locations = [str(tmp_path)]
    real = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *a: scipy if name == "scipy" else real(name, *a))
    assert graph._lsap_from_file() is None


def test_failed_file_lookup_falls_back_to_the_public_routine(monkeypatch):
    """With the extension file not found, a fresh process imports
    ``scipy.optimize`` and gives the covers the file-loaded routine gives."""
    pairs = drawn_prefix_and_overlap(9, 40)
    monkeypatch.setattr(graph, "linear_sum_assignment", file_lsap)
    want = [[min_cycle_cover(WeightMatrix(pref)).perm,
             max_cycle_cover(WeightMatrix(ov)).perm] for pref, ov in pairs]
    code = f"""
import importlib.machinery
import sys

real = importlib.machinery.PathFinder.find_spec
importlib.machinery.PathFinder.find_spec = (
    lambda name, *a: None if name == "_lsap" else real(name, *a))
import numpy as np
from superstring import graph

assert "scipy.optimize" in sys.modules
assert graph.linear_sum_assignment is sys.modules["scipy.optimize"].linear_sum_assignment
pairs = [(np.array(p), np.array(o)) for p, o in {[(p.tolist(), o.tolist()) for p, o in pairs]!r}]
print([[list(graph.min_cycle_cover(graph.WeightMatrix(p)).perm),
        list(graph.max_cycle_cover(graph.WeightMatrix(o)).perm)] for p, o in pairs])
"""
    assert run_fresh(code) == f"{[[list(a), list(b)] for a, b in want]}\n"


# ------------------------------------------------- covers of the tight families

def test_cycle_stats_on_tight_families():
    from superstring.bounds import gen_tight_2cycle, gen_tight_3cycle

    f = gen_tight_2cycle(1)
    ov = overlap_matrix([x for _, x in f.nodes])
    cover = max_cycle_cover(ov)
    assert cover.cycles == ((0, 1),)
    assert cover.total_weight == 16
    assert brute.best_assignment(ov.w.tolist(), True, loops=False) == (16, (1, 0))

    f3 = gen_tight_3cycle(1)
    ov3 = overlap_matrix([x for _, x in f3.nodes])
    cover3 = max_cycle_cover(ov3)
    assert cover3.cycles == ((0, 1, 2),)
    assert (cover3.total_weight
            == brute.best_assignment(ov3.w.tolist(), True, loops=False)[0])


def test_max_cover_two_strings():
    ov = overlap_matrix(["ab", "ba"])
    cover = max_cycle_cover(ov)
    assert cover.perm == (1, 0)
    assert cover.total_weight == 2
    assert brute.best_assignment(ov.w.tolist(), True, loops=False) == (2, (1, 0))


# ------------------------------------------- structure of minimum-cover cycles

def test_min_cover_cycle_strings_primitive_and_nonequivalent():
    """Distinct cycles of an exact minimum cover read off primitive,
    pairwise non-equivalent strings (checked on random normalized instances)."""
    rng = random.Random(2024)
    checked = 0
    for _ in range(300):
        raw = ["".join(rng.choice("ab") for _ in range(rng.randint(1, 10)))
               for _ in range(rng.randint(2, 7))]
        try:
            inst, _ = normalize(raw)
        except DegenerateInstanceError:
            continue
        cover = inst.cover
        reads = [cycle_string(inst, cyc) for cyc in cover.cycles]
        for s in reads:
            if len(s) >= 2:
                assert is_primitive(s), (inst.strings, cover.cycles, s)
        for i in range(len(reads)):
            for j in range(i + 1, len(reads)):
                assert not rotations_equivalent(reads[i], reads[j]), \
                    (inst.strings, reads[i], reads[j])
        checked += 1
    assert checked > 200
