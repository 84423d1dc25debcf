"""planlab: a propositional plan-space planning laboratory.

Five interchangeable plan-extension generators (total-order, unambiguous
partial-order, their conditional-effect variants, and a deferred-ordering
modal-truth planner) under pluggable search strategies, with exhaustive
tree enumeration and machine-checked correspondence between the
total-order and partial-order search spaces.
"""

from .model import (
    CondEffect,
    OperatorSchema,
    Plan,
    PlanSizeError,
    Problem,
    Step,
    cond,
    extend,
    initial_plan,
    is_linearization,
    linear_extensions,
    make_op,
    restrict,
)
from .truth import (
    AmbiguousLastDeleter,
    GoalEntry,
    ModalStatus,
    is_unambiguous,
    last_deleter,
    modal_status,
)
from .planners import (
    ExtensionResult,
    PLANNERS,
    PlannerConfig,
    make_planner,
    specialize,
)
from .search import (
    SearchOutcome,
    StrategyConfig,
    bfs,
    dfs,
    iterative_broadening,
    iterative_sampling,
    min_goals_rating,
    rank_children,
    run_search,
    run_trials,
)
from .trees import (
    CorrespondenceMap,
    SearchTree,
    TreeCeilingError,
    build_correspondence,
    enumerate_tree,
    sibling_overlap_violations,
    tree_stats,
    verify_disjointness,
    verify_partition,
    verify_totality,
)
from .domains import (
    BlocksworldSpec,
    ParseError,
    blocksworld_problem,
    d1s1_problem,
    fixture,
    parse_problem,
    serialize_problem,
    standard_suite,
)
from .oracle import minimal_solution_length

__version__ = "0.1.0"
