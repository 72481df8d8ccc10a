import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from superstring import atsp
from superstring.atsp import (
    SolverLimitError,
    SolverTag,
    TableSizeError,
    cycle_cover_path,
    exact_max_path,
    greedy_max_path,
    max_path,
)
from superstring.bounds import gen_random_instance
from superstring.graph import WeightMatrix, overlap_matrix


def matrix(rows):
    arr = np.array(rows, dtype=np.int64)
    return WeightMatrix(arr)


def square_matrices(min_n, max_n, max_weight):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=max_weight),
                     min_size=n, max_size=n),
            min_size=n, max_size=n))


small_matrices = square_matrices(2, 6, 12)


# ------------------------------------------------------------------ exact DP

def test_exact_two_nodes():
    sol = exact_max_path(matrix([[0, 5], [3, 0]]))
    assert sol.order == (0, 1)
    assert sol.weight == 5
    assert sol.solver_tag is SolverTag.EXACT


def test_exact_three_shifted_strings():
    ov = overlap_matrix(["abc", "bcd", "cde"])
    sol = exact_max_path(ov)
    assert sol.order == (0, 1, 2)
    assert sol.weight == 4


def test_exact_single_node():
    sol = exact_max_path(matrix([[0]]))
    assert sol.order == (0,)
    assert sol.weight == 0


def test_exact_limit():
    m = matrix([[0] * 17 for _ in range(17)])
    with pytest.raises(SolverLimitError):
        exact_max_path(m)
    exact_max_path(m, limit=17)


def test_exact_limit_refuses_before_allocating():
    # a table for 40 nodes would cover 2^40 masks, so only a check made
    # before allocating can raise here
    with pytest.raises(SolverLimitError):
        exact_max_path(matrix([[1] * 40 for _ in range(40)]))


class TableBuilt(Exception):
    pass


def test_exact_table_ceiling_refuses_before_allocating(monkeypatch):
    # table plus int32 index: n * 2^n * (itemsize + 4) bytes against the
    # 1 GiB ceiling.  Any matrix with n * max|w| below 2^29 gets an int16 or
    # int32 table, so n = 22 (553 or 738 MB) is built and n = 23 (1.2 or
    # 1.5 GB) refused; an int64 table is refused at n = 22 (1.1 GB).  The
    # stand-in layout raises where the table would be built.
    def no_table(n):
        raise TableBuilt(n)

    monkeypatch.setattr(atsp, "_subset_layout", no_table)
    for weight in (0, 1, (1 << 29) // 23 - 1):
        with pytest.raises(TableSizeError):
            exact_max_path(matrix([[weight] * 23 for _ in range(23)]), limit=30)
        with pytest.raises(TableBuilt):
            exact_max_path(matrix([[weight] * 22 for _ in range(22)]), limit=22)
    with pytest.raises(TableSizeError):
        exact_max_path(matrix([[1 << 29] * 22 for _ in range(22)]), limit=22)
    with pytest.raises(TableBuilt):
        exact_max_path(matrix([[1 << 29] * 21 for _ in range(21)]), limit=21)


def test_layouts_above_the_default_limit_are_not_kept():
    # n = 17 is above DEFAULT_EXACT_LIMIT: its layout is built for the call
    # and dropped, while a small n's layout stays for reuse
    rng = random.Random(17)
    w = [[rng.randint(0, 9) for _ in range(17)] for _ in range(17)]
    exact_max_path(matrix(w), limit=17)
    assert 17 not in atsp._LAYOUTS
    exact_max_path(matrix([row[:5] for row in w[:5]]))
    assert 5 in atsp._LAYOUTS
    assert max(atsp._LAYOUTS) <= atsp.DEFAULT_EXACT_LIMIT
    assert not any(a.flags.writeable for a in atsp._LAYOUTS[5][:-1])


def test_exact_finds_a_planted_path_above_the_cached_layouts():
    # n = 18 builds its layout for the call.  The planted edges weigh 100
    # and every other edge at most 9, so the planted order, 1700, beats any
    # path that leaves out a planted edge (at most 16 * 100 + 9).
    rng = random.Random(18)
    n = 18
    planted = rng.sample(range(n), n)
    rows = [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
    for a, b in zip(planted, planted[1:]):
        rows[a][b] = 100
    sol = exact_max_path(matrix(rows), limit=n)
    assert (sol.order, sol.weight) == (tuple(planted), 100 * (n - 1))
    assert n not in atsp._LAYOUTS


@pytest.mark.parametrize("n", range(1, 13))
def test_subset_layout_push_matches_the_gather_through_pos(n):
    # the cell index, built row by row without looking masks up, against
    # cell (f, pos[mask | bit(f)]) looked up mask by mask
    size = 1 << n
    masks = sorted(range(size), key=lambda mask: (mask.bit_count(), mask))
    pos = {mask: p for p, mask in enumerate(masks)}
    want = [[0 if mask >> f & 1 else f * size + pos[mask | 1 << f]
             for mask in masks] for f in range(n)]
    got_pos, push, _, layer_ends = atsp._subset_layout(n)
    assert got_pos.tolist() == [pos[mask] for mask in range(size)]
    assert push.dtype == np.int32 and push.tolist() == want
    assert list(layer_ends) == [sum(1 for m in masks if m.bit_count() <= k)
                                for k in range(n + 1)]


@pytest.mark.parametrize("peak, dtype", [
    (0, np.int16), ((1 << 13) - 1, np.int16), (1 << 13, np.int32),
    ((1 << 29) - 1, np.int32), (1 << 29, np.int64), ((1 << 61) - 1, np.int64),
])
def test_table_type_cutoffs(peak, dtype):
    # the narrowest type whose unset value, its minimum // 2, plus or minus
    # a held value neither overflows nor reaches one
    got, unset = atsp.int_table_type(peak)
    assert got == np.dtype(dtype)
    assert unset == np.iinfo(dtype).min // 2
    assert np.iinfo(dtype).min < unset - peak and unset + peak < -peak


def test_table_type_refuses_weights_past_int64():
    with pytest.raises(ValueError):
        atsp.int_table_type(1 << 61)
    with pytest.raises(ValueError):
        exact_max_path(matrix([[0, 1 << 60], [-(1 << 60), 0]]))


@pytest.mark.parametrize("n, weight", [
    (2, (1 << 12) - 1), (2, 1 << 12), (8, (1 << 10) - 1), (8, 1 << 10),
    (8, (1 << 13) - 1), (8, (1 << 26) - 1), (8, 1 << 26), (8, (1 << 29) - 1),
    (3, (1 << 61) // 3),
])
def test_exact_matches_enumeration_at_the_type_cutoffs(n, weight):
    # n * weight sits just below or at a cutoff, or the weight alone just
    # below one, with the largest weights of both signs on paths, so a
    # table one type too narrow would wrap
    rng = random.Random(weight)
    rows = [[rng.choice((-weight, weight, weight - 1, 0)) for _ in range(n)]
            for _ in range(n)]
    sol = exact_max_path(matrix(rows))
    assert sol.order == brute.max_path_order(rows)
    assert sol.weight == brute.max_path_weight(rows)


def test_exact_tie_breaks_to_lexicographically_smallest_order():
    sol = exact_max_path(matrix([[0] * 4 for _ in range(4)]))
    assert sol.order == (0, 1, 2, 3)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_exact_matches_enumeration(rows):
    m = matrix(rows)
    sol = exact_max_path(m)
    assert sol.weight == brute.max_path_weight(rows)
    assert sum(rows[a][b] for a, b in zip(sol.order, sol.order[1:])) == sol.weight


def test_exact_tie_break_matches_enumeration():
    # tiny weights force plenty of ties; the solver must return the
    # lexicographically smallest among all maximum-weight orders
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 6)
        rows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        assert exact_max_path(matrix(rows)).order == brute.max_path_order(rows)


# Matrices of a few values each, so rows tie, of both signs, with one cell
# at the scale: n * scale selects an int16 (1000), int32 (2^20) or int64
# (2^40) table for every n up to 8.
TABLE_SCALES = {1000: np.int16, 1 << 20: np.int32, 1 << 40: np.int64}


@st.composite
def oracle_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    scale = draw(st.sampled_from(sorted(TABLE_SCALES)))
    values = st.sampled_from([0, 1, 2, -1, scale, scale - 1, -scale, 1 - scale])
    rows = draw(st.lists(st.lists(values, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rows[i][j] = draw(st.sampled_from([scale, -scale]))
    return scale, rows


@given(oracle_matrices())
@settings(max_examples=200, deadline=None)
def test_exact_order_matches_permutation_oracle(scale_rows):
    scale, rows = scale_rows
    n = len(rows)
    assert atsp.int_table_type(n * scale)[0] == np.dtype(TABLE_SCALES[scale])
    sol = exact_max_path(matrix(rows))
    assert sol.order == brute.max_path_order(rows)
    assert sol.weight == brute.max_path_weight(rows)


# ------------------------------------------------------------ cover-based path

def test_cycle_cover_path_two_nodes():
    sol = cycle_cover_path(matrix([[0, 5], [3, 0]]))
    assert sol.order == (0, 1)
    assert sol.weight == 5
    assert sol.solver_tag is SolverTag.CYCLE_COVER_HALF


def test_cycle_cover_path_all_zero():
    sol = cycle_cover_path(matrix([[0] * 3 for _ in range(3)]))
    assert sorted(sol.order) == [0, 1, 2]
    assert sol.weight == 0


@pytest.mark.parametrize("rows, order", [
    # one 3-cycle 0->1->2->0 weighing 2, 1, 1: the first lightest edge,
    # 1->2, is dropped
    ([[0, 2, 0], [0, 0, 1], [1, 0, 0]], (2, 0, 1)),
    # cycles (0 2) and (1 3), chained by smallest node
    ([[0, 0, 3, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 2, 0, 0]], (0, 2, 3, 1)),
])
def test_cycle_cover_path_drops_the_first_lightest_edge(rows, order):
    sol = cycle_cover_path(matrix(rows))
    assert sol.order == order
    assert sol.weight == sum(rows[i][j] for i, j in zip(order, order[1:]))


def test_cycle_cover_path_single_node():
    assert cycle_cover_path(matrix([[7]])).order == (0,)


def test_cycle_cover_path_ignores_heavy_diagonal():
    # loop edges cannot sit on a path, so a huge diagonal must not starve it
    sol = cycle_cover_path(matrix([[50, 1, 0], [0, 50, 1], [1, 0, 50]]))
    assert sol.weight >= 1


# -------------------------------------------------------------------- greedy

def test_greedy_two_nodes():
    sol = greedy_max_path(matrix([[0, 5], [3, 0]]))
    assert sol.order == (0, 1)
    assert sol.weight == 5


def test_greedy_three_shifted_strings():
    ov = overlap_matrix(["abc", "bcd", "cde"])
    sol = greedy_max_path(ov)
    assert sol.order == (0, 1, 2)
    assert sol.weight == 4


def test_greedy_uniform_matrix():
    n = 5
    rows = [[3] * n for _ in range(n)]
    sol = greedy_max_path(matrix(rows))
    assert sol.weight == (n - 1) * 3


# ------------------------------------------------------------ shared properties

@pytest.mark.parametrize("solver, tag, guarantee", [
    (exact_max_path, SolverTag.EXACT, Fraction(1)),
    (cycle_cover_path, SolverTag.CYCLE_COVER_HALF, Fraction(1, 2)),
    (greedy_max_path, SolverTag.GREEDY, Fraction(1, 3)),
])
def test_single_node_and_empty_matrix(solver, tag, guarantee):
    # the heavy diagonal is a loop edge, which no path can use
    sol = solver(matrix([[7]]))
    assert (sol.order, sol.weight, sol.solver_tag) == ((0,), 0, tag)
    assert sol.ratio_guarantee == guarantee
    with pytest.raises(ValueError):
        solver(WeightMatrix(np.zeros((0, 0), dtype=np.int64)))


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_max_path_runs_the_solver_its_tag_names(rows):
    m = matrix(rows)
    solvers = {SolverTag.EXACT: exact_max_path,
               SolverTag.CYCLE_COVER_HALF: cycle_cover_path,
               SolverTag.GREEDY: greedy_max_path}
    assert set(solvers) == set(SolverTag)
    for tag, solver in solvers.items():
        assert max_path(m, tag) == solver(m)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_half_approximation_floor(rows):
    m = matrix(rows)
    opt = exact_max_path(m).weight
    assert 2 * cycle_cover_path(m).weight >= opt
    assert 3 * greedy_max_path(m).weight >= opt
    assert cycle_cover_path(m).weight <= opt
    assert greedy_max_path(m).weight <= opt


def test_greedy_keeps_half_on_overlap_matrices():
    # a theorem on the overlap matrix of a substring-free instance (Tarhio &
    # Ukkonen 1988), though not on general matrices (see the next test)
    rng = random.Random(13)
    for alphabet_size in (2, 3, 4):
        for _ in range(100):
            m = gen_random_instance(rng, n_range=(2, 8),
                                    alphabet_size=alphabet_size).overlap
            assert 2 * greedy_max_path(m).weight >= exact_max_path(m).weight


@pytest.mark.parametrize("heavy, light", [(4, 3), (101, 100)])
def test_greedy_third_is_tight_on_general_matrices(heavy, light):
    # greedy takes 0 -> 1, which blocks all three light edges of the best
    # path 3 -> 1 -> 0 -> 2; the ratio tends to 1/3 as heavy / light -> 1
    m = matrix([[0, heavy, light, 0], [light, 0, 0, 0], [0, 0, 0, 0],
                [0, light, 0, 0]])
    greedy, opt = greedy_max_path(m), exact_max_path(m)
    assert (greedy.order, greedy.weight) == ((0, 1, 2, 3), heavy)
    assert (opt.order, opt.weight) == ((3, 1, 0, 2), 3 * light)
    assert greedy.ratio_guarantee == Fraction(1, 3) < Fraction(heavy, 3 * light)


@given(square_matrices(1, 8, 3))  # few weights, so many ties
@settings(max_examples=300, deadline=None)
def test_greedy_matches_sorted_edge_scan(rows):
    assert greedy_max_path(matrix(rows)).order == brute.greedy_path_order(rows)


def test_determinism_on_random_matrices():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 7)
        rows = [[rng.randint(0, 6) for _ in range(n)] for _ in range(n)]
        m = matrix(rows)
        for solver in (exact_max_path, cycle_cover_path, greedy_max_path):
            a, b = solver(m), solver(m)
            assert a.order == b.order and a.weight == b.weight
