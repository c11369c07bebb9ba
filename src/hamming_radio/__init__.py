"""Consecutive radio labelings of Hamming graphs.

Library layout: `graphs` models the graphs, `verify` implements the
row-window radio condition, `bounds` the counting arguments and segment
search, `perms`/`instructions` the permutation encoding of orderings,
`search` the backtracking solvers, and `cli`/`documents` the command line
and file formats.
"""

from .bounds import (
    BoundVerdict,
    BoundaryViolation,
    FactorBound,
    Gracefulness,
    SegmentSearchResult,
    bound_verdict,
    boundary_structure_check,
    distinct_column_count,
    factor_threshold,
    segment_extension_search,
)
from .errors import (
    BudgetExceededError,
    DocumentError,
    InvalidWitnessError,
    MembershipError,
    NotAtBoundaryError,
    RadioGraphError,
    RepetitionError,
    ShapeError,
    SpecError,
    TooLargeError,
    UnsupportedSizeError,
)
from .graphs import (
    Factor,
    GraphSpec,
    Vertex,
    distance,
    enumerate_vertices,
    make_graph_spec,
    shared_coordinates,
)
from .instructions import (
    GeneratorKind,
    InstructionGenerator,
    OrderGenerator,
    arrangement_trace,
    build_column,
    builtin_generator,
    check_order_generator,
    enumerate_fixing_runs,
    enumerate_instruction_columns,
    make_order_generator,
    materialize,
    recover_instructions,
    run_fixes_one,
    subscript_string,
)
from .perms import Permutation, act, compose, identity
from .search import (
    SearchConfig,
    SearchOutcome,
    SearchStatus,
    search_k34_reduced,
    search_ordering,
)
from .verify import (
    Labeling,
    Ordering,
    RadioViolation,
    RepetitionViolation,
    check_ordering,
    induced_labeling,
    is_consecutive,
    is_valid_ordering,
    permute_column,
    position_labeling,
    verify_radio,
)

__version__ = "0.1.0"
