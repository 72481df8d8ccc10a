import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from superstring import words
from superstring.bounds import gen_tight_2cycle, gen_tight_3cycle
from superstring.words import (
    NiceWord,
    RotationKind,
    is_primitive,
    is_w_string,
    longest_border,
    maximal_rotation_index,
    min_period,
    minimal_rotation_index,
    nice_rotation,
    overlap,
    prefix_part,
    rotations_equivalent,
    w_string_prefix,
)

texts = st.text(alphabet="ab", min_size=1, max_size=14)
texts3 = st.text(alphabet="abc", min_size=1, max_size=14)
# Alphabets that reach both ends of the code-point range, so that only the
# order of the letters matters, never a sentinel value
edge_alphabets = st.sampled_from(["ab", "abc", "\x00a", "a\U0010ffff",
                                  "\x00\U0010ffff", "\x00a\U0010ffff"])


def edge_texts(max_size):
    """Plain random strings, and strings glued from repeated blocks (long
    runs, near-periodic stretches), up to ``max_size`` letters."""
    def over(letters):
        block = st.text(alphabet=letters, min_size=1, max_size=6)
        glued = st.lists(st.tuples(block, st.integers(min_value=1, max_value=30)),
                         min_size=1, max_size=8).map(
            lambda parts: "".join(b * e for b, e in parts)[:max_size])
        return st.text(alphabet=letters, min_size=1, max_size=max_size) | glued
    return edge_alphabets.flatmap(over)


def nice_triple(w):
    nice = nice_rotation(w)
    return nice.word, nice.kind.value, nice.pmin_len


# ---------------------------------------------------------------- rotations

def test_minimal_rotation_examples():
    assert minimal_rotation_index("aabab") == 1  # brute: min over all 5 rotations
    assert minimal_rotation_index("ba") == 2
    assert minimal_rotation_index("aaa") == 1


def test_maximal_rotation_examples():
    assert maximal_rotation_index("aabab") == 3
    assert brute.rotations("aabab")[maximal_rotation_index("aabab") - 1] == "babaa"
    assert maximal_rotation_index("ab") == 2
    assert maximal_rotation_index("bbb") == 1


def test_rotation_index_empty():
    with pytest.raises(ValueError):
        minimal_rotation_index("")
    with pytest.raises(ValueError):
        maximal_rotation_index("")


@given(texts3)
def test_rotation_indices_match_brute(w):
    assert minimal_rotation_index(w) == brute.min_rotation_index(w)
    assert maximal_rotation_index(w) == brute.max_rotation_index(w)


def test_rotation_indices_match_brute_on_all_binary_strings():
    # exhaustive, so periodic ties such as "abab" are always checked
    for w in brute.binary_strings(12):
        assert minimal_rotation_index(w) == brute.min_rotation_index(w), w
        assert maximal_rotation_index(w) == brute.max_rotation_index(w), w


@settings(max_examples=150)
@given(edge_texts(200))
def test_rotation_indices_match_brute_on_long_strings(w):
    assert minimal_rotation_index(w) == brute.min_rotation_index(w)
    assert maximal_rotation_index(w) == brute.max_rotation_index(w)


@settings(max_examples=150)
@given(edge_texts(200))
def test_rotation_indices_match_brute_in_one_letter_rounds(w):
    # one more letter per candidate and round, so that the elimination
    # rounds and the dropping of close candidates run on short strings too
    with mock.patch.multiple(words, _MIN_STEP=1, _ROUND_CHARS=0):
        assert minimal_rotation_index(w) == brute.min_rotation_index(w)
        assert maximal_rotation_index(w) == brute.max_rotation_index(w)


@given(edge_texts(12), st.integers(min_value=2, max_value=9))
def test_rotation_indices_of_proper_powers_are_the_earliest(root, e):
    w = root * e
    assert minimal_rotation_index(w) == brute.min_rotation_index(w)
    assert maximal_rotation_index(w) == brute.max_rotation_index(w)
    assert minimal_rotation_index(w) <= len(w) // e


@given(st.characters(), st.integers(min_value=1, max_value=40))
def test_single_letter_words(c, n):
    w = c * n
    assert minimal_rotation_index(w) == maximal_rotation_index(w) == 1
    if n == 1:
        assert nice_rotation(w).degenerate
    else:
        with pytest.raises(ValueError, match="not primitive"):
            nice_rotation(w)


def test_extreme_rotations_of_tight_family_words():
    # every word of both tight families up to parameter 64, each also fed
    # in from a third of the way round
    for param in range(1, 65):
        for fixture in (gen_tight_2cycle(param), gen_tight_3cycle(param)):
            for nice, _ in fixture.nodes:
                third = len(nice.word) // 3
                for w in (nice.word, nice.word[third:] + nice.word[:third]):
                    assert minimal_rotation_index(w) == brute.min_rotation_index(w)
                    assert maximal_rotation_index(w) == brute.max_rotation_index(w)
                    assert nice_triple(w) == brute.nice_rotation(w)


def equally_spaced_runs(family, k):
    """A word with k equally spaced runs of "a", the smallest letter, on
    which candidate elimination without dropping close candidates goes
    quadratic: (w, its nice rotation as a triple, 1-based maximal rotation
    index), in closed form for k >= 2; the minimal rotation index is 1."""
    if family == "ab":
        return ("ab" * k + "b", ("bb" + "ab" * (k - 1) + "a", "MaxRotation", 2 * k - 1),
                2 * k)
    return ("aab" * k + "ab", ("bab" + "aab" * (k - 1) + "aa", "MaxRotation", 3 * k - 1),
            3 * k)


@pytest.mark.parametrize("family, big", [("ab", 2 ** 15), ("aab", 5000)])
def test_equally_spaced_runs(family, big):
    for k in [*range(2, 60), big]:
        w, nice, imax = equally_spaced_runs(family, k)
        if k < 60:
            assert nice == brute.nice_rotation(w)
            assert imax == brute.max_rotation_index(w)
        assert nice_triple(w) == nice
        assert (minimal_rotation_index(w), maximal_rotation_index(w)) == (1, imax)


# ------------------------------------------------------- borders and periods

def test_border_and_period_examples():
    assert longest_border("abab") == "ab"
    assert longest_border("babaabaa") == ""
    assert longest_border("aaa") == "aa"
    assert min_period("abab") == 2
    assert min_period("abc") == 3
    assert min_period("aba") == 2


@given(texts3)
def test_border_period_match_brute(w):
    assert longest_border(w) == brute.longest_border(w)
    assert min_period(w) == brute.min_period(w)


def test_is_primitive_examples():
    assert not is_primitive("abab")
    assert is_primitive("aabab")
    assert is_primitive("a")


@given(texts)
def test_is_primitive_matches_brute(w):
    assert is_primitive(w) == brute.is_primitive(w)


# ------------------------------------------------------------------ overlaps

def test_overlap_examples():
    assert overlap("aab", "aba") == "ab"
    assert overlap("abc", "xyz") == ""
    # tight 2-cycle strings at k=1 overlap in their full shorter member
    assert len(overlap("babaabaababaaba", "aababaaba")) == 9


def test_overlap_of_equal_inputs_is_proper_border():
    assert overlap("abab", "abab") == "ab"
    assert overlap("aaa", "aaa") == "aa"
    assert overlap("ab", "ab") == ""


def test_prefix_part_examples():
    assert prefix_part("aab", "aba") == "a"
    assert prefix_part("abc", "xyz") == "abc"
    assert prefix_part("ab", "ba") == "a"


@given(texts, texts)
def test_overlap_matches_brute(u, v):
    assert overlap(u, v) == brute.overlap(u, v)


@settings(max_examples=150)
@given(edge_texts(120), edge_texts(120))
def test_overlap_matches_brute_on_long_strings(u, v):
    assert overlap(u, v) == brute.overlap(u, v)
    assert overlap(v, u) == brute.overlap(v, u)


@given(edge_texts(60), edge_texts(60))
def test_overlap_when_one_string_starts_or_ends_the_other(u, x):
    for v in (u + x, x + u, u + x + u):
        assert overlap(u, v) == brute.overlap(u, v)
        assert overlap(v, u) == brute.overlap(v, u)


@given(texts, texts)
def test_overlap_strict_for_substring_free_pairs(u, v):
    if u != v and u not in v and v not in u:
        assert len(overlap(u, v)) < min(len(u), len(v))


@given(texts, texts)
def test_prefix_part_reassembles(u, v):
    assert prefix_part(u, v) + overlap(u, v) == u


# ------------------------------------------------------------- nice rotation

def test_nice_rotation_min_kind():
    nice = nice_rotation("aabab")
    assert nice.word == "aabab"
    assert nice.kind is RotationKind.MIN
    assert nice.p_min == "aa" and nice.p_max == "bab"
    assert nice.alpha == 2


def test_nice_rotation_max_kind():
    nice = nice_rotation("babaabaa")
    assert nice.word == "babaabaa"
    assert nice.kind is RotationKind.MAX
    assert nice.p_max == "bab" and nice.p_min == "aabaa"
    assert nice.alpha == 3


def test_nice_rotation_tie_goes_to_max():
    nice = nice_rotation("ab")
    assert nice.word == "ba"
    assert nice.kind is RotationKind.MAX
    assert nice.p_max == "b" and nice.p_min == "a"
    assert nice.alpha == 1


def test_nice_rotation_rejects_nonprimitive():
    with pytest.raises(ValueError, match="not primitive"):
        nice_rotation("abab")


def test_nice_rotation_degenerate_single_letter():
    nice = nice_rotation("a")
    assert nice.degenerate
    assert nice.alpha == 0
    assert (nice.pmax_len, nice.pmin_len) == (1, 0)


@settings(max_examples=150)
@given(edge_texts(200))
def test_nice_rotation_matches_brute(w):
    if len(w) < 2 or not brute.is_primitive(w):
        return
    assert nice_triple(w) == brute.nice_rotation(w)


@given(texts3)
def test_nice_rotation_invariants(w):
    if not brute.is_primitive(w) or len(w) < 2:
        return
    nice = nice_rotation(w)
    assert rotations_equivalent(nice.word, w)
    assert nice.pmin_len + nice.pmax_len == len(w)
    assert nice.alpha == min(nice.pmin_len, nice.pmax_len)
    assert 2 * nice.alpha <= len(w)
    if nice.kind is RotationKind.MIN:
        assert 2 * nice.alpha < len(w)
        assert nice.word == min(brute.rotations(w))
        assert nice.p_min + nice.p_max == nice.word
    else:
        assert nice.word == max(brute.rotations(w))
        assert nice.p_max + nice.p_min == nice.word
    # applying nice_rotation to its own output is a fixed point
    again = nice_rotation(nice.word)
    assert again == nice


@given(texts3)
def test_extreme_rotations_are_unbordered(w):
    if not brute.is_primitive(w) or len(w) < 2:
        return
    least = brute.rotations(w)[minimal_rotation_index(w) - 1]
    greatest = brute.rotations(w)[maximal_rotation_index(w) - 1]
    assert longest_border(least) == ""
    assert longest_border(greatest) == ""
    assert least != greatest


@given(texts3)
def test_unique_rotation_starting_with_each_piece(w):
    if not brute.is_primitive(w) or len(w) < 2:
        return
    nice = nice_rotation(w)
    rots = brute.rotations(w)
    assert sum(r.startswith(nice.p_max) for r in rots) == 1
    assert sum(r.startswith(nice.p_min) for r in rots) == 1


# ----------------------------------------------------------------- w-strings

def test_w_string_prefix_examples():
    assert w_string_prefix("ab", 5) == "ababa"
    assert w_string_prefix("aabab", 9) == "aababaaba"
    assert w_string_prefix("babaabaa", 15) == "babaabaababaaba"


def test_is_w_string_examples():
    assert is_w_string("ababa", "ab")
    assert not is_w_string("abb", "ab")
    assert is_w_string("aababaaba", "aabab")


def test_w_string_accepts_nice_word_objects():
    nice = nice_rotation("aabab")
    assert w_string_prefix(nice, 9) == "aababaaba"
    assert is_w_string("aababaaba", nice)


def test_w_string_prefix_rejects_empty_base():
    bad = NiceWord(word="", kind=RotationKind.MAX, pmin_len=0)
    with pytest.raises(ValueError):
        w_string_prefix(bad, 3)


@given(texts3, st.integers(min_value=0, max_value=60))
def test_w_string_period_bounded(w, n):
    if not brute.is_primitive(w):
        return
    x = w_string_prefix(w, n)
    if n >= len(w):
        assert min_period(x) <= len(w)


# ---------------------------------------------------------------- equivalence

def test_rotations_equivalent_examples():
    assert rotations_equivalent("abaab", "aabab")
    assert rotations_equivalent("ab", "ba")
    assert not rotations_equivalent("ab", "abab")


@given(texts, texts)
def test_rotations_equivalent_matches_brute(u, v):
    assert rotations_equivalent(u, v) == (u in brute.rotations(v)
                                          if len(u) == len(v) else False)


# ------------------------------------------------- randomized long-string sweep

@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_long_random_strings_match_brute(seed):
    rng = random.Random(seed)
    w = "".join(rng.choice("abc") for _ in range(rng.randint(15, 40)))
    assert minimal_rotation_index(w) == brute.min_rotation_index(w)
    assert maximal_rotation_index(w) == brute.max_rotation_index(w)
    assert longest_border(w) == brute.longest_border(w)
    assert min_period(w) == brute.min_period(w)
