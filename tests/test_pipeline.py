import inspect
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import brute
from brute import validate_superstring
from superstring import atsp, bounds, cli, graph, pipeline, words
from superstring.atsp import DEFAULT_EXACT_LIMIT, SolverLimitError, SolverTag, exact_max_path
from superstring.graph import DegenerateInstanceError, Instance, normalize, path_overlaps
from superstring.pipeline import (
    _merge_texts,
    cycle_string,
    exact_superstring,
    greedy_superstring,
    representative,
    representatives,
    solve_combined,
    solve_s1,
    solve_s2,
)
from superstring.words import is_w_string


def inst_of(*strings):
    return Instance(strings=tuple(strings))


def random_instance(rng, max_n=8, max_len=12, alphabet="ab"):
    while True:
        raw = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
               for _ in range(rng.randint(2, max_n))]
        try:
            inst, _ = normalize(raw)
            return inst
        except DegenerateInstanceError:
            continue


# --------------------------------------------------------------- _merge_texts

def merge_along(inst, order):
    """The instance strings merged along ``order`` and the sum of the
    overlaps between consecutive ones."""
    overlaps = path_overlaps(inst.overlap, order)
    return _merge_texts([inst.strings[i] for i in order], overlaps), sum(overlaps)


def test_merge_texts_examples():
    assert merge_along(inst_of("ab", "ba"), (0, 1)) == ("aba", 1)
    assert merge_along(inst_of("abc", "bcd", "cde"), (0, 1, 2)) == ("abcde", 4)


def test_merge_texts_length_identity():
    rng = random.Random(1)
    for _ in range(40):
        inst = random_instance(rng, max_n=6)
        order = list(range(len(inst)))
        rng.shuffle(order)
        text, total_overlap = merge_along(inst, order)
        assert len(text) == inst.total_length - total_overlap
        assert validate_superstring(inst, text)
        assert text == brute.merge_in_order(inst.strings, order)


# -------------------------------------------------------------- cycle strings

def test_cycle_string_two_cycle():
    assert cycle_string(inst_of("ab", "ba"), (0, 1)) == "ab"


def test_cycle_string_self_loop_strips_border():
    assert cycle_string(inst_of("abab", "zz"), (0,)) == "ab"


def test_cycle_string_three_cycle():
    # pref(abc,bcd)="a", pref(bcd,cde)="b", pref(cde,abc)="cde"
    assert cycle_string(inst_of("abc", "bcd", "cde"), (0, 1, 2)) == "abcde"


@st.composite
def instances_with_cycle(draw):
    """A normalized instance of up to 7 strings over ``ab`` or ``abc`` and a
    cycle of 1 to n of its nodes (length 1 is a self-loop)."""
    alphabet = draw(st.sampled_from(["ab", "abc"]))
    raw = draw(st.lists(st.text(alphabet, min_size=1, max_size=10),
                        min_size=2, max_size=7))
    try:
        inst, _ = normalize(raw)
    except DegenerateInstanceError:
        assume(False)
    nodes = draw(st.permutations(range(len(inst))))
    return inst, tuple(nodes[:draw(st.integers(1, len(inst)))])


@given(instances_with_cycle())
@settings(max_examples=200, deadline=None)
def test_reduction_matches_pairwise_scans(case):
    inst, cycle = case
    ss = inst.strings
    assert cycle_string(inst, cycle) == brute.cycle_string(ss, cycle)
    prefix = [[len(u) - len(brute.overlap(u, v)) for v in ss] for u in ss]
    assert inst.cover.total_weight == brute.best_assignment(prefix)[0]
    for cyc in inst.cover.cycles:
        assert cycle_string(inst, cyc) == brute.cycle_string(ss, cyc)


# ------------------------------------------------------------ representatives

def test_representative_two_cycle():
    rep = representative(inst_of("ab", "ba"), (0, 1))
    assert rep.text == "bab"
    assert rep.nice.word == "ba"
    assert rep.l == 2


def test_representative_self_loop_periodic():
    rep = representative(inst_of("abab", "zz"), (0,))
    assert rep.text == "babab"
    assert rep.nice.word == "ba"
    assert rep.l == 2


def test_representative_unary_degenerate():
    rep = representative(inst_of("aaaa", "bc"), (0,))
    assert rep.text == "aaaa"
    assert rep.nice.degenerate
    assert rep.l == 1


def test_representative_invariants_on_random_instances():
    rng = random.Random(42)
    for _ in range(150):
        inst = random_instance(rng)
        for rep in representatives(inst):
            max_member = max(len(inst.strings[i]) for i in rep.members)
            assert all(inst.strings[i] in rep.text for i in rep.members)
            assert is_w_string(rep.text, rep.nice)
            assert len(rep.text) < rep.l + max_member


# ------------------------------------------------------------------ pipelines

def test_solve_s1_single_cycle_instance():
    sol = solve_s1(inst_of("ab", "ba"))
    assert sol.text == "bab"
    assert sol.length == 3


def test_solve_s1_three_shifted_strings():
    # the single minimum-cover cycle reads "abcde", whose nice rotation is
    # "eabcd"; the representative must stay inside its repetitions, giving 6
    # rather than the optimal 5
    inst = inst_of("abc", "bcd", "cde")
    sol = solve_s1(inst)
    assert sol.text == "eabcde"
    assert sol.length == 6
    assert validate_superstring(inst, sol.text)
    assert exact_superstring(inst).length == 5


def test_solve_s2_matches_pipeline_postconditions():
    inst = inst_of("abc", "bcd", "cde")
    sol = solve_s2(inst)
    assert sol.length <= 7
    assert validate_superstring(inst, sol.text)


def test_solve_combined_takes_the_better():
    rng = random.Random(9)
    for _ in range(40):
        inst = random_instance(rng, max_n=6)
        s0 = solve_combined(inst)
        s1 = solve_s1(inst)
        s2 = solve_s2(inst)
        assert s0.length == min(s1.length, s2.length)
        assert validate_superstring(inst, s0.text)


# -------------------------------------------------------------------- greedy

def test_greedy_examples():
    assert greedy_superstring(inst_of("abc", "bcd", "cde")).text == "abcde"
    assert greedy_superstring(inst_of("ab", "ba")).text == "aba"


def test_greedy_prefers_largest_overlap():
    # ov(xabcd, abcdy) = 4 dominates everything else
    sol = greedy_superstring(inst_of("xabcd", "abcdy", "zz"))
    assert "xabcdy" in sol.text


def test_greedy_follows_the_chain_family():
    # on the chain family the heaviest overlaps line up along the descending
    # path, so greedy merges straight down it and its total overlap matches
    # the sum of consecutive path overlaps (~3/4 n^2)
    from superstring.bounds import gen_greedy_path

    inst, expected = gen_greedy_path(12)
    sol = greedy_superstring(inst)
    assert sol.total_overlap == sum(expected) == 92
    assert sol.order == tuple(range(len(inst) - 1, -1, -1))


def test_greedy_matches_reference_merging():
    rng = random.Random(31)
    for alphabet in ("ab", "abc", "ACGT"):
        for _ in range(40):
            inst = random_instance(rng, max_n=8, max_len=12, alphabet=alphabet)
            assert greedy_superstring(inst).text == brute.greedy_text(inst.strings)


@st.composite
def greedy_instances(draw):
    """Normalized instances of 2-10 strings over ``ab``/``abc``, mixing free
    strings with substrings of one periodic source (many equal overlaps)."""
    alphabet = draw(st.sampled_from(["ab", "abc"]))
    root = draw(st.text(alphabet, min_size=1, max_size=5))
    source = root * 12 + draw(st.text(alphabet, max_size=4))
    piece = st.tuples(st.integers(0, len(source) - 1), st.integers(1, 16)).map(
        lambda at: source[at[0]:at[0] + at[1]])
    raw = draw(st.lists(st.text(alphabet, min_size=1, max_size=12) | piece,
                        min_size=2, max_size=10))
    try:
        inst, _ = normalize(raw)
    except DegenerateInstanceError:
        assume(False)
    return inst


@given(greedy_instances())
@settings(max_examples=400, deadline=None)
def test_greedy_matches_reference_merging_property(inst):
    sol = greedy_superstring(inst)
    assert sol.text == brute.greedy_text(inst.strings)
    assert sol.order == tuple(sorted(range(len(inst)),
                                     key=lambda i: sol.text.find(inst.strings[i])))


def test_greedy_does_no_string_overlap_work(monkeypatch):
    rng = random.Random(5)
    cases = [random_instance(rng, max_n=10, alphabet=alphabet)
             for alphabet in ("ab", "abc", "ACGT") for _ in range(10)]
    expected = [greedy_superstring(inst).text for inst in cases]

    def forbidden(*args):
        raise AssertionError("greedy rescanned strings")

    monkeypatch.setattr(words, "overlap_len", forbidden)
    monkeypatch.setattr(words, "prefix_part", forbidden)
    assert [greedy_superstring(inst).text for inst in cases] == expected


# ---------------------------------------------------------- shared reduction

TWO_CYCLES = ("aab", "aba", "baa", "ccd", "cdc", "dcc")


def record_calls(monkeypatch, module, name):
    """The first argument of every call to ``module.name``, rebound in every
    superstring module that binds it."""
    original = getattr(module, name)
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if (modname.partition(".")[0] == "superstring"
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, recorded)
    return calls


def test_solve_combined_reduces_the_instance_once(monkeypatch):
    inst = inst_of(*TWO_CYCLES)
    matrices = record_calls(monkeypatch, graph, "overlap_matrix")
    covers = record_calls(monkeypatch, graph, "min_cycle_cover")
    sol = solve_combined(inst)
    assert validate_superstring(inst, sol.text)
    assert matrices.count(TWO_CYCLES) == 1
    assert len(matrices) == 2  # and one over the two representatives
    assert len(covers) == 1


def record_checks(monkeypatch):
    """The text of every search ``pipeline._solution`` makes, one per
    distinct text per instance."""
    checks, search = [], pipeline.first_occurrences

    def recorded(text, strings):
        checks.append(text)
        return search(text, strings)

    monkeypatch.setattr(pipeline, "first_occurrences", recorded)
    return checks


def test_solve_combined_under_half_reduces_once(monkeypatch):
    # under half, s1 and s2 run the same path solver over the same cached
    # representatives: one reduction, one text, one check
    inst = inst_of(*TWO_CYCLES)
    built = record_calls(monkeypatch, graph, "representative")
    checks = record_checks(monkeypatch)
    sol = solve_combined(inst, SolverTag.CYCLE_COVER_HALF)
    assert len(built) == len(inst.cover.cycles) == 2
    assert checks == [sol.text]
    s1 = solve_s1(inst, SolverTag.CYCLE_COVER_HALF)
    assert sol == replace(s1, algorithm="combined(s1[half])")
    assert replace(solve_s2(inst), algorithm="s1[half]") == s1


ORDERS = [pipeline.ALGORITHMS, pipeline.ALGORITHMS[::-1],
          ("exact", "s2", "combined", "greedy", "s1"),
          ("s1", "greedy", "s2", "exact", "combined")]


@pytest.mark.parametrize("tag", list(SolverTag), ids=lambda tag: tag.value)
@pytest.mark.parametrize("algos", ORDERS, ids=lambda algos: "-".join(algos))
def test_solve_each_runs_each_solver_once(monkeypatch, tag, algos):
    inst = inst_of(*TWO_CYCLES)
    expected = {"s1": solve_s1(inst, tag),
                "s2": solve_s2(inst),
                "greedy": greedy_superstring(inst),
                "exact": exact_superstring(inst)}
    expected["combined"] = pipeline.better_of(expected["s1"], expected["s2"])
    fresh = inst_of(*TWO_CYCLES)
    built = record_calls(monkeypatch, graph, "representative")
    checks = record_checks(monkeypatch)
    greedy = record_calls(monkeypatch, pipeline, "greedy_superstring")
    exact = record_calls(monkeypatch, pipeline, "exact_superstring")
    rows = list(pipeline.solve_each(fresh, algos, tag))
    assert [algo for algo, _, _ in rows] == list(algos)
    assert (len(built), len(greedy), len(exact)) == (len(fresh.cover.cycles), 1, 1)
    sols = {algo: sol for algo, sol, _ in rows}
    ms = {algo: t for algo, _, t in rows}
    assert sols == expected
    assert sorted(checks) == sorted({sol.text for sol in sols.values()})
    assert ms["combined"] == ms["s1"] + ms["s2"]
    built.clear()
    checks.clear()
    assert solve_combined(fresh, tag) == sols["combined"]
    assert built == checks == []  # the instance keeps its reduction and checks


@pytest.mark.parametrize("tag", list(SolverTag), ids=lambda tag: tag.value)
def test_solve_each_runs_only_what_is_asked(monkeypatch, tag):
    inst = inst_of(*TWO_CYCLES)
    built = record_calls(monkeypatch, graph, "representative")
    exact = record_calls(monkeypatch, pipeline, "exact_superstring")
    rows = pipeline.solve_each(inst, ("s2", "greedy", "s1"), tag)
    assert built == []  # nothing runs before its row is asked for
    assert next(rows)[0] == "s2" and len(built) == len(inst.cover.cycles)
    assert [algo for algo, _, _ in rows] == ["greedy", "s1"]
    assert len(built) == len(inst.cover.cycles)  # s1 reads s2's representatives
    assert exact == []
    with pytest.raises(ValueError, match="unknown algorithm 'best'"):
        list(pipeline.solve_each(inst, ("best",), tag))


@given(greedy_instances())
@settings(max_examples=200, deadline=None)
def test_s1_under_half_is_s2_property(inst):
    rows = {algo: sol for algo, sol, _ in pipeline.solve_each(
        inst, ("s1", "s2"), SolverTag.CYCLE_COVER_HALF)}
    s1, s2 = rows["s1"], rows["s2"]
    assert (s1.algorithm, s2.algorithm) == ("s1[half]", "s2")
    assert (s1.text, s1.order, s1.total_overlap) == (s2.text, s2.order, s2.total_overlap)


def test_compare_reduces_the_instance_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("\n".join(TWO_CYCLES) + "\n", encoding="utf-8")
    matrices = record_calls(monkeypatch, graph, "overlap_matrix")
    covers = record_calls(monkeypatch, graph, "min_cycle_cover")
    reductions = record_calls(monkeypatch, pipeline, "representatives")
    held_karp = record_calls(monkeypatch, atsp, "exact_max_path")
    assert cli.main(["compare", str(path)]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == ["combined", "s1", "s2", "greedy", "exact"]
    assert matrices.count(TWO_CYCLES) == 1
    assert len(matrices) == 2  # and one over the representatives, shared
    assert len(covers) == 1
    # s1 and s2 run once each, and the combined row is built from those runs
    assert len(reductions) == 2
    assert [m.n for m in held_karp] == [2, len(TWO_CYCLES)]  # s1's, exact's
    reductions.clear()
    assert cli.main(["solve", str(path)]) == 0
    assert len(reductions) == 2
    capsys.readouterr()


@pytest.mark.parametrize("tag", list(SolverTag), ids=lambda tag: tag.value)
def test_each_cover_cycle_gets_one_representative_per_command(
        tmp_path, monkeypatch, capsys, tag):
    path = tmp_path / "inst.txt"
    path.write_text("\n".join(TWO_CYCLES) + "\n", encoding="utf-8")
    cycles = len(inst_of(*TWO_CYCLES).cover.cycles)
    assert cycles == 2
    built = record_calls(monkeypatch, pipeline, "representative")
    for command in ("solve", "compare"):
        built.clear()
        assert cli.main([command, str(path), "--path-solver", tag.value]) == 0
        assert len(built) == cycles, command
    built.clear()
    solve_combined(inst_of(*TWO_CYCLES), tag)
    assert len(built) == cycles
    capsys.readouterr()


def test_solve_checks_each_distinct_text_once(monkeypatch):
    inst = inst_of(*TWO_CYCLES)
    checks = []
    search = pipeline.first_occurrences

    def recorded(text, strings):
        if tuple(strings) == inst.strings:
            checks.append(text)
        return search(text, strings)

    monkeypatch.setattr(pipeline, "first_occurrences", recorded)
    texts = [sol.text for _, sol, _ in pipeline.solve_each(inst, pipeline.ALGORITHMS)]
    assert sorted(checks) == sorted(set(texts))
    # combined is s1's run, and greedy and exact return one text here
    assert len(checks) == 3


def test_equal_instances_do_not_share_a_reduction(monkeypatch):
    first, second = inst_of(*TWO_CYCLES), inst_of(*TWO_CYCLES)
    assert first == second and hash(first) == hash(second)
    built = record_calls(monkeypatch, pipeline, "representative")
    matrices = record_calls(monkeypatch, graph, "overlap_matrix")
    sols = [solve_combined(first), solve_combined(second), solve_combined(first)]
    assert sols[0] == sols[1] == sols[2]
    # each object builds its own matrix, cover cycles' representatives and
    # representative matrix, and keeps them for its next solve
    assert len(built) == 2 * len(first.cover.cycles)
    assert [len(m) for m in matrices] == [len(TWO_CYCLES), 2] * 2
    assert representatives(first) is representatives(first)
    assert representatives(first) == representatives(second)
    assert representatives(first) is not representatives(second)
    assert first.representative_overlap is not second.representative_overlap


@pytest.mark.parametrize("tag", list(SolverTag), ids=lambda tag: tag.value)
def test_a_one_cycle_instance_builds_no_representative_matrix(
        tmp_path, monkeypatch, capsys, tag):
    strings = TWO_CYCLES[:3]
    path = tmp_path / "inst.txt"
    path.write_text("\n".join(strings) + "\n", encoding="utf-8")
    insts = record_calls(monkeypatch, pipeline, "representatives")
    matrices = record_calls(monkeypatch, graph, "overlap_matrix")
    for command in ("solve", "compare"):
        insts.clear()
        matrices.clear()
        assert cli.main([command, str(path), "--path-solver", tag.value]) == 0
        [inst] = {id(inst): inst for inst in insts}.values()
        assert len(inst.cover.cycles) == 1
        assert matrices == [inst.strings]  # the instance's, and no other
        # the built stages change neither equality nor hashing
        assert inst == Instance(strings) and hash(inst) == hash(Instance(strings))
    capsys.readouterr()


def test_pipeline_cycle_fuzz_reads_the_matrix_solve_s1_reads(monkeypatch):
    insts = record_calls(monkeypatch, pipeline, "representatives")
    covered = record_calls(monkeypatch, graph, "max_cycle_cover")
    bounds.pipeline_cycle_fuzz(40, seed=3)
    multi = [inst for inst in insts if len(inst.cover.cycles) > 1]
    assert len(multi) == len(covered) > 5
    paths = record_calls(monkeypatch, atsp, "max_path")
    matrices = record_calls(monkeypatch, graph, "overlap_matrix")
    for inst in multi:
        solve_s1(inst)
    assert all(m is c for m, c in zip(paths, covered, strict=True))
    assert matrices == []  # the campaign built every one of them


def test_half_path_solver_reduces_the_instance_once(tmp_path, monkeypatch, capsys):
    # under half, s1 runs what s2 runs, over the same representatives
    path, out = tmp_path / "inst.txt", tmp_path / "c.json"
    path.write_text("\n".join(TWO_CYCLES) + "\n", encoding="utf-8")
    texts = {sol.text for _, sol, _ in pipeline.solve_each(
        inst_of(*TWO_CYCLES), pipeline.ALGORITHMS, SolverTag.CYCLE_COVER_HALF)}
    built = record_calls(monkeypatch, graph, "representative")
    checks = record_checks(monkeypatch)
    assert cli.main(["compare", str(path), "--path-solver", "half",
                     "--json", str(out)]) == 0
    [inst] = {id(inst): inst for inst in built}.values()
    assert len(built) == len(inst.cover.cycles)
    rows = {r.pop("algo"): r for r in json.loads(out.read_text())["results"]}
    for row in rows.values():
        del row["ms"]
    assert rows["s1"] == rows["s2"] == rows["combined"]
    assert sorted(checks) == sorted(texts)  # each distinct text, once
    capsys.readouterr()
    built.clear()
    checks.clear()
    assert cli.main(["solve", str(path), "--path-solver", "half"]) == 0
    assert len(built) == len(inst.cover.cycles) and len(checks) == 1
    assert "algorithm: combined(s1[half])" in capsys.readouterr().out.splitlines()


# s2 is strictly shorter than s1 here when s1's path solver is greedy
S2_BEATS_GREEDY_S1 = ("babaab", "aaabbaa", "ababbba", "aaaa")


@pytest.mark.parametrize("tag", list(SolverTag), ids=lambda tag: tag.value)
def test_compare_combined_row_is_the_better_of_its_s1_and_s2_rows(
        tmp_path, capsys, tag):
    s2_won = []
    for k, strings in enumerate([TWO_CYCLES, S2_BEATS_GREEDY_S1,
                                 ("abab", "babb", "bba", "aab")]):
        path, out = tmp_path / f"{k}.txt", tmp_path / f"{k}.json"
        path.write_text("\n".join(strings) + "\n", encoding="utf-8")
        assert cli.main(["compare", str(path), "--path-solver", tag.value,
                         "--json", str(out)]) == 0
        rows = {r["algo"]: r for r in json.loads(out.read_text())["results"]}
        s1, s2, combined = rows["s1"], rows["s2"], rows["combined"]
        winner = s2 if s2["length"] < s1["length"] else s1
        s2_won.append(winner is s2)
        for key in ("length", "overlap", "order"):
            assert combined[key] == winner[key]
        assert combined["ms"] >= max(s1["ms"], s2["ms"])
    assert any(s2_won) == (tag is SolverTag.GREEDY)
    capsys.readouterr()


# --------------------------------------------------------------------- exact

def test_exact_superstring_examples():
    sol = exact_superstring(inst_of("ab", "ba"))
    assert (sol.text, sol.length) == ("aba", 3)
    assert exact_superstring(inst_of("abc", "bcd", "cde")).length == 5


def test_exact_superstring_no_overlaps():
    inst = inst_of("aa", "bb", "cc")
    assert exact_superstring(inst).length == inst.total_length


def test_exact_superstring_default_limit_is_the_solvers():
    limit = inspect.signature(exact_superstring).parameters["limit"].default
    assert limit == DEFAULT_EXACT_LIMIT
    inst = inst_of(*(format(i, "05b") for i in range(DEFAULT_EXACT_LIMIT + 1)))
    with pytest.raises(SolverLimitError):
        exact_superstring(inst)


def test_exact_superstring_matches_enumeration():
    rng = random.Random(77)
    for _ in range(40):
        inst = random_instance(rng, max_n=5, max_len=8)
        assert (exact_superstring(inst).length
                == brute.exact_superstring_length(inst.strings))


# ------------------------------------------------------------- head index

@st.composite
def overlapping_raw(draw):
    """Up to nine strings cut from one random text, so that many overlap
    by 8 letters or more, over ASCII letters and NUL, or with the top code
    point, which keeps an input off the head index."""
    alphabet = draw(st.sampled_from(["ab", "abc", "\0ab", "a" + chr(0x10FFFF)]))
    text = draw(st.text(alphabet, min_size=8, max_size=120))
    cut = st.tuples(st.integers(0, len(text) - 1), st.integers(1, 40)).map(
        lambda t: text[t[0]:t[0] + t[1]])
    return draw(st.lists(cut, min_size=2, max_size=9))


@pytest.mark.parametrize("keys", ["real", "constant"])
@given(raw=overlapping_raw())
@settings(max_examples=150, deadline=None)
def test_every_solver_gives_the_same_text_through_the_head_index(keys, raw):
    """Below ``graph._INDEX_LETTERS`` every search is a direct scan; with the
    constant at 0 every search of ASCII input goes through the head index,
    its windows keyed for real or all given one key, and every result is
    the same."""
    def results():
        try:
            inst, log = normalize(raw)
        except DegenerateInstanceError as exc:
            return exc.survivors, exc.log
        runs = [(algo, sol) for tag in (SolverTag.EXACT, SolverTag.CYCLE_COVER_HALF)
                for algo, sol, _ in pipeline.solve_each(
                    inst, ("combined", "s1", "s2", "greedy", "exact"), tag)]
        return inst.strings, log, representatives(inst), runs

    expected = results()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_INDEX_LETTERS", 0)
        if keys == "constant":
            hits = graph._head_hits
            mp.setattr(graph, "_window_keys", lambda text: np.zeros(
                len(text) - graph._HEAD + 1, dtype=np.uint64))
            # every window is a hit of every head: lift the budget that
            # would send such an index back to the direct scans
            mp.setattr(graph, "_head_hits",
                       lambda texts, strings, budget=None: hits(texts, strings))
        assert results() == expected


# ---------------------------------------------------------------- validation

def test_validate_superstring():
    inst = inst_of("ab", "ba")
    assert validate_superstring(inst, "aba")
    assert not validate_superstring(inst, "ab")


@pytest.mark.parametrize("solver", [solve_s1, solve_s2, solve_combined,
                                    greedy_superstring, exact_superstring])
def test_solvers_raise_on_a_lost_string(monkeypatch, solver):
    merge = pipeline._merge_texts
    monkeypatch.setattr(pipeline, "_merge_texts",
                        lambda texts, overlaps: merge(texts, overlaps)[1:])
    # two cover cycles, so s1 and s2 merge two representatives
    inst = inst_of("aab", "aba", "baa", "ccd", "cdc", "dcc")
    with pytest.raises(AssertionError, match="^pipeline output lost an input string$"):
        solver(inst)


def test_all_solvers_validate_and_relate():
    rng = random.Random(123)
    for _ in range(60):
        inst = random_instance(rng, max_n=7, max_len=10)
        opt = exact_superstring(inst)
        sols = {
            "s1": solve_s1(inst),
            "s2": solve_s2(inst),
            "combined": solve_combined(inst),
            "greedy": greedy_superstring(inst),
        }
        for sol in sols.values():
            assert validate_superstring(inst, sol.text)
            assert sol.length == len(sol.text)
            assert sol.length >= opt.length
        assert sols["s1"].length <= 2 * opt.length
        assert 2 * sols["greedy"].length <= 7 * opt.length


def test_solvers_with_alternative_path_backends():
    inst = inst_of("abab", "babb", "bba", "aab")
    for tag in SolverTag:
        sol = solve_s1(inst, path_solver=tag)
        assert validate_superstring(inst, sol.text)
        assert sol.algorithm == f"s1[{tag.value}]"


def test_solve_s1_default_reaches_a_rebound_exact_solver(monkeypatch):
    calls = []

    def recording(m, limit):
        calls.append((m.n, limit))
        return exact_max_path(m, limit=limit)

    monkeypatch.setattr(atsp, "exact_max_path", recording)
    inst = inst_of("abab" * 3, "aab" * 3, "aaab" * 3)
    assert len(inst.cover.cycles) == 3
    solve_s1(inst)
    assert calls == [(3, DEFAULT_EXACT_LIMIT)]


def test_readme_quickstart_prints_what_it_claims(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    claimed = [line.split("# ", 1)[1] for line in code.splitlines()
               if line.startswith("print(")]
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == claimed == ["bbaababb 8", "7"]
