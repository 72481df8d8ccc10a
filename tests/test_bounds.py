import itertools
import random
from fractions import Fraction

import pytest

import brute
from superstring import bounds
from superstring.bounds import (
    BoundReport,
    CampaignResult,
    CycleFixture,
    check_cycle_bounds,
    check_pair_bounds,
    cycle_fuzz,
    cycle_quantities,
    expected_greedy_path,
    expected_tight_2cycle,
    expected_tight_3cycle,
    gen_greedy_path,
    gen_random_instance,
    gen_random_nice,
    gen_tight_2cycle,
    gen_tight_3cycle,
    greedy_chain_sweep,
    pair_fuzz,
    pipeline_cycle_fuzz,
    tight_sweep,
    verify_rotation_positions,
)
from superstring.words import (
    RotationKind,
    is_primitive,
    is_w_string,
    nice_rotation,
    overlap_len,
    w_string_prefix,
)


def by_id(reports, check_id):
    return [r for r in reports if r.check_id == check_id]


def one(reports, check_id):
    (r,) = by_id(reports, check_id)
    return r


# ----------------------------------------------------------------- reporting

def test_report_holds_semantics():
    reports = check_pair_bounds(*gen_tight_2cycle(1).nodes)
    for r in reports:
        if not r.applicable:
            assert r.holds
        else:
            assert r.holds == (r.lhs < r.rhs if r.strict else r.lhs <= r.rhs)


def test_report_serialization_uses_exact_rationals():
    r = one(check_cycle_bounds(gen_tight_2cycle(1)), "cycle_weight_bound_weak")
    d = r.to_jsonable()
    assert d["rhs"] == "1885/4"  # (145/4) * 13


# ------------------------------------------------------------- pair checks

def test_overlap_cap_on_tight_pair():
    f = gen_tight_2cycle(1)
    r = one(check_pair_bounds(f.nodes[0], f.nodes[1]), "overlap_cap")
    assert (r.lhs, r.rhs, r.strict, r.holds) == (9, 10, True, True)
    r = one(check_pair_bounds(f.nodes[1], f.nodes[0]), "overlap_cap")
    assert (r.lhs, r.rhs, r.holds) == (7, 8, True)


def test_pair_checks_on_disjoint_alphabets():
    w1, w2 = nice_rotation("ab"), nice_rotation("cd")
    reports = check_pair_bounds((w1, "ba"), (w2, "dc"))
    assert all(r.holds for r in reports)
    assert one(reports, "overlap_cap").lhs == 0


def test_pair_checks_reject_equivalent_or_degenerate():
    w = nice_rotation("ab")
    with pytest.raises(ValueError, match="equivalent"):
        check_pair_bounds((w, "ba"), (nice_rotation("ba"), "ba"))
    with pytest.raises(ValueError, match="degenerate"):
        check_pair_bounds((nice_rotation("a"), "aaa"), (w, "ba"))


def test_pair_checks_reject_non_repetition_prefix():
    w1, w2 = nice_rotation("ab"), nice_rotation("cd")
    with pytest.raises(ValueError, match="repetition"):
        check_pair_bounds((w1, "ab"), (w2, "dc"))


def test_applicability_flags_follow_length_ratio():
    w1 = gen_tight_2cycle(4).nodes[0][0]   # length 17
    w2 = gen_tight_2cycle(1).nodes[1][0]   # length 5, non-equivalent
    x1 = w_string_prefix(w1, 20)
    x2 = w_string_prefix(w2, 12)
    reports = check_pair_bounds((w1, x1), (w2, x2))
    assert not one(reports, "overlap_alpha_flat").applicable   # 17 >= 2*5
    assert not one(reports, "overlap_alpha_mid").applicable    # 17 >= 2.5*5
    assert one(reports, "slack_sum_steep").applicable          # 17 >= 3*5
    assert one(reports, "mutual_slack_floor").applicable       # 17 >= 2*5
    rev = check_pair_bounds((w2, x2), (w1, x1))
    assert not one(rev, "overlap_alpha_general").applicable    # 5 < 17
    assert not one(rev, "slack_sum_general").applicable


# ------------------------------------------------------ rotation positions

def test_rotation_positions_on_tight_pair():
    f = gen_tight_2cycle(1)
    rep = verify_rotation_positions(f.nodes[0], f.nodes[1])
    assert rep.applicable and rep.holds


def test_rotation_positions_inapplicable_when_overlap_short():
    w1, w2 = nice_rotation("ab"), nice_rotation("cd")
    rep = verify_rotation_positions((w1, "ba"), (w2, "dc"))
    assert not rep.applicable and rep.holds


def test_rotation_positions_fuzz():
    result = pair_fuzz(400, seed=11)
    assert result.checks_failed == 0
    assert result.checks_run == 400 * 22


def brute_rotation_indices(a, b):
    """i_max and i_min of w12, the earliest rotation of the first word that
    ov(x1, x2) starts, each by enumerating the rotations; for a MIN-kind
    second word every letter is first mapped to its mirror image in the
    code-point order, so the alphabet reads reversed."""
    (w1, x1), (w2, x2) = a, b
    ov = x2[:len(brute.overlap(x1, x2))]
    w12 = next(r for r in brute.rotations(w1.word)
               if (r * (len(ov) // len(r) + 1)).startswith(ov))
    if w2.kind is RotationKind.MIN:
        w12 = "".join(chr(0x10FFFF - ord(c)) for c in w12)
    return brute.max_rotation_index(w12), brute.min_rotation_index(w12)


def test_rotation_positions_report_brute_extreme_indices():
    # the pairs of pair_fuzz(600, seed=0), both directions
    kinds = []
    for t in range(600):
        rng = bounds._trial_rng(0, t)
        a, b = (bounds._structured_pair(rng) if t % 3 == 2
                else bounds._random_pair(rng, rng.choice((2, 3))))
        for first, second in ((a, b), (b, a)):
            rep = verify_rotation_positions(first, second)
            if rep.applicable:
                imax, imin = brute_rotation_indices(first, second)
                assert rep.inputs.endswith(f" imax={imax} imin={imin}"), rep.inputs
                kinds.append(second[0].kind)
    # the tight families' words are MIN-kind, so most applicable pairs are
    assert kinds.count(RotationKind.MIN) >= 100
    assert RotationKind.MAX in kinds


# -------------------------------------------------------------- cycle checks

def test_tight_2cycle_stats():
    f = gen_tight_2cycle(1)
    ls, os, m, o, length, d_o = cycle_quantities(f)
    assert ls == [8, 5] and os == [9, 7]
    assert (m, o, length) == (7, 16, 13)
    assert 2 * m + 7 * o == 126 and 11 * length == 143
    assert d_o == Fraction(3, 2) * 13 - 16


def test_tight_3cycle_stats():
    ls, os, m, o, length, _ = cycle_quantities(gen_tight_3cycle(1))
    assert ls == [16, 13, 5] and os == [20, 14, 12]
    assert 2 * m + 7 * o == 346 and 11 * length == 374


def test_cycle_bounds_on_tight_families():
    for fixture in (gen_tight_2cycle(3), gen_tight_3cycle(2)):
        reports = check_cycle_bounds(fixture)
        assert all(r.holds for r in reports)
        assert one(reports, "cycle_weight_bound").applicable


def test_equal_length_cycle_cap():
    w1, w2 = nice_rotation("aabb"), nice_rotation("abbb")
    f = CycleFixture(nodes=((w1, w_string_prefix(w1, 6)),
                            (w2, w_string_prefix(w2, 6))))
    r = one(check_cycle_bounds(f), "equal_length_overlap_cap")
    assert r.applicable and r.strict and r.holds
    assert r.rhs == 8


def test_cycle_fixture_validation():
    w = nice_rotation("ab")
    with pytest.raises(ValueError):
        CycleFixture(nodes=((w, "ba"),))
    with pytest.raises(ValueError, match="equivalent"):
        CycleFixture(nodes=((w, "ba"), (nice_rotation("ba"), "bab")))


@pytest.mark.parametrize("nodes, stem", [
    ((("ab", "ba"), ("a", "aa")), "degenerate"),
    ((("ab", "ba"), ("abb", "bab")), "repetition"),
    ((("ab", "ba"), ("abb", "abba"), ("ba", "bab")), "equivalent"),
])
def test_cycle_fixture_applies_the_node_and_pair_rules(nodes, stem):
    with pytest.raises(ValueError, match=stem):
        CycleFixture(nodes=tuple((nice_rotation(w), x) for w, x in nodes))


# ---------------------------------------------------------------- generators

def test_tight_2cycle_matches_closed_forms_small_k():
    for k in range(1, 9):
        f = gen_tight_2cycle(k)
        exp = expected_tight_2cycle(k)
        (w1, x1), (w2, x2) = f.nodes
        assert [len(w1.word), len(w2.word)] == exp["lengths"]
        assert len(x1) == 2 * exp["lengths"][0] - 1
        assert [overlap_len(x1, x2), overlap_len(x2, x1)] == exp["overlaps"]
        assert nice_rotation(w1.word).word == w1.word
        assert nice_rotation(w2.word).word == w2.word


def test_tight_3cycle_matches_closed_forms_small_n():
    for n in range(1, 9):
        ls, os, m, o, length, _ = cycle_quantities(gen_tight_3cycle(n))
        exp = expected_tight_3cycle(n)
        assert ls == exp["lengths"] and os == exp["overlaps"]
        assert (m, o, length) == (exp["M"], exp["O"], exp["L"])


def test_tight_sweep_full_range():
    result = tight_sweep()
    assert result.cases == 128
    assert result.checks_failed == 0


def test_tight_gap_ratio_approaches_one():
    exp = expected_tight_2cycle(64)
    ratio = Fraction(2 * exp["M"] + 7 * exp["O"], 11 * exp["L"])
    assert ratio > Fraction(995, 1000)


def test_greedy_path_family():
    inst, expected = gen_greedy_path(6)
    assert inst.strings == ("abbab", "bbaabba", "aabbbaabb", "bbbaaabbbaa")
    assert expected == [4, 6, 7]
    xs = inst.strings
    assert overlap_len(xs[1], xs[0]) == 4
    assert overlap_len(xs[2], xs[1]) == 6
    assert overlap_len(xs[3], xs[2]) == 7


def test_expected_greedy_path_is_the_chain_sidecar():
    for n in range(4, 13):
        assert expected_greedy_path(n) == {
            "family": "greedy", "n": n,
            "overlaps": [3 * i // 2 for i in range(3, n)],
            "periods": list(range(3, n + 1))}


def test_greedy_path_strings_are_repetition_prefixes():
    inst, _ = gen_greedy_path(10)
    for idx, i in enumerate(range(3, 11)):
        if i % 2 == 0:
            k = i // 2
            w = "b" * k + "a" * k
        else:
            k = (i + 1) // 2
            w = "a" * (k - 1) + "b" * k
        nice = nice_rotation(w)
        assert nice.word == w
        assert is_w_string(inst.strings[idx], nice)
        assert len(w) == i


def test_greedy_chain_ratio_at_40():
    result = greedy_chain_sweep()
    assert result.checks_failed == 0


def test_gen_random_nice_properties():
    rng = random.Random(5)
    seen = set()
    for _ in range(60):
        nice = gen_random_nice(rng, (2, 12), 2)
        assert is_primitive(nice.word)
        assert nice_rotation(nice.word) == nice
        seen.add(nice.word)
    assert len(seen) > 10


def test_gen_random_nice_binary_length2():
    rng = random.Random(0)
    for _ in range(10):
        nice = gen_random_nice(rng, (2, 2), 2)
        assert nice.word == "ba"
        assert nice.alpha == 1


def test_gen_random_nice_deterministic():
    a = [gen_random_nice(random.Random(3), (2, 16), 3).word for _ in range(5)]
    b = [gen_random_nice(random.Random(3), (2, 16), 3).word for _ in range(5)]
    assert a == b


def test_gen_random_instance_is_normalized():
    rng = random.Random(1)
    for _ in range(30):
        inst = gen_random_instance(rng)
        assert 2 <= len(inst) <= 8


@pytest.mark.parametrize("kwargs", [
    {"n_range": (1, 1)},
    {"n_range": (0, 1)},
    {"length_range": (0, 0)},
    {"length_range": (0, 4)},
    {"length_range": (5, 3)},
    {"alphabet_size": 1},
    {"alphabet_size": 9},
    {"n_range": (17, 17), "length_range": (4, 4)},
    {"n_range": (3, 3), "length_range": (1, 1)},
    {"n_range": (10, 12), "length_range": (1, 2), "alphabet_size": 3},
    {"n_range": (2**40, 2**40)},
])
def test_gen_random_instance_refuses_arguments_no_draw_can_keep(kwargs):
    """Arguments with which no draw keeps two strings, or more strings than
    ``alphabet_size ** length_range[1]`` (Kraft's inequality), and alphabets
    that ``a``..``h`` cannot give, are refused before the rng is touched."""
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        gen_random_instance(rng, **kwargs)
    assert rng.getstate() == state


@pytest.mark.parametrize("alphabet_size, length", [(2, 1), (2, 2), (3, 1)])
def test_gen_random_instance_reaches_the_kraft_cap(alphabet_size, length):
    n = alphabet_size ** length
    inst = gen_random_instance(random.Random(0), n_range=(n, n),
                               length_range=(length, length),
                               alphabet_size=alphabet_size)
    letters = "abc"[:alphabet_size]
    assert sorted(inst.strings) == sorted(
        "".join(p) for p in itertools.product(letters, repeat=length))


def test_gen_random_instance_gives_up_after_10000_draws():
    # 16 binary strings of length 4 are all of them: 16!/16**16 ~ 1e-6 a draw
    with pytest.raises(ValueError, match="no draw of 10000"):
        gen_random_instance(random.Random(0), n_range=(16, 16),
                            length_range=(4, 4))


@pytest.mark.parametrize("alphabet_size", [1, 9])
def test_gen_random_nice_refuses_alphabets_outside_2_to_8(alphabet_size):
    with pytest.raises(ValueError, match="alphabet_size"):
        gen_random_nice(random.Random(0), alphabet_size=alphabet_size)


# ------------------------------------------------------------------ campaigns

@pytest.mark.parametrize("campaign", [pair_fuzz, cycle_fuzz, pipeline_cycle_fuzz])
def test_merged_chunks_equal_the_unsplit_campaign(campaign):
    whole = campaign(90, seed=4)
    cuts = [0, 1, 29, 60, 90]
    merged, *rest = [campaign(hi - lo, seed=4, start=lo)
                     for lo, hi in zip(cuts, cuts[1:])]
    for part in rest:
        merged.merge(part)

    def counts(r):
        return (r.cases, r.checks_run, r.checks_held, r.applicable_counts,
                r.violations, r.anomalies, r.skipped)

    assert counts(merged) == counts(whole)
    for r in (whole, merged):
        assert r.checks_held == r.checks_run - r.checks_failed


def test_merge_keeps_violations_and_anomalies_in_chunk_order():
    chunks = []
    for t in range(3):
        chunk = CampaignResult(name="x")
        chunk.absorb([BoundReport("c", "", 0, 1), BoundReport("c", "", 1, 0)],
                     f"trial={t}")
        chunk.anomalies.append(f"note {t}")
        chunks.append(chunk)
    merged, *rest = chunks
    for part in rest:
        merged.merge(part)
    assert merged.checks_run == 6 and merged.checks_failed == 3
    assert merged.checks_held == 3
    contexts = [v["context"] for v in merged.violations]
    assert contexts == ["trial=0", "trial=1", "trial=2"]
    assert merged.anomalies == ["note 0", "note 1", "note 2"]


def test_pipeline_cycle_fuzz_small():
    result = pipeline_cycle_fuzz(300, seed=3)
    assert result.checks_failed == 0
    assert result.cases == 300
    assert not [a for a in result.anomalies if not a.startswith("skipped")]
