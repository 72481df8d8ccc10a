"""Superstring construction and overlap-structure verification.

The package splits into five library layers plus a command line:

* words: rotations, borders, periods, overlaps, nice rotations.
* graph: overlap/prefix matrices and exact cycle covers.
* atsp: maximum-weight Hamiltonian path solvers (exact, cover-based, greedy).
* pipeline: the cycle-cover-to-representatives superstring constructions
  (solve_s1 / solve_s2 / solve_combined) and the greedy / exact baselines.
* bounds: executable inequality checks, tight example families, fuzz
  campaigns.
"""

from .atsp import (
    PathSolution,
    SolverLimitError,
    SolverTag,
    cycle_cover_path,
    exact_max_path,
    greedy_max_path,
    max_path,
)
from .bounds import (
    BoundReport,
    CycleFixture,
    check_cycle_bounds,
    check_pair_bounds,
    gen_greedy_path,
    gen_random_instance,
    gen_random_nice,
    gen_tight_2cycle,
    gen_tight_3cycle,
    verify_rotation_positions,
)
from .graph import (
    CycleCover,
    DegenerateInstanceError,
    Instance,
    WeightMatrix,
    max_cycle_cover,
    min_cycle_cover,
    normalize,
)
from .pipeline import (
    Representative,
    Solution,
    cycle_string,
    exact_superstring,
    greedy_superstring,
    representative,
    representatives,
    solve_combined,
    solve_s1,
    solve_s2,
)
from .words import (
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
    overlap_len,
    prefix_part,
    rotations_equivalent,
    w_string_prefix,
)

__version__ = "0.1.0"
