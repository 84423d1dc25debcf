"""Property tests for the ua/to correspondence on generated problems.

Hypothesis draws unconditional problems with at most three operators over
four propositions and checks, at depth limits up to 3, the structural
claims the hand-picked suite checks: the correspondence map is total and
disjoint and partitions the total-order tree, the partial-order tree is
no larger, and every partial-order node is unambiguous and has a unique
last deleter for every precondition.  The examples are derandomized, so
every run checks the same problems.
"""

from __future__ import annotations

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from planlab.model import Problem, make_op
from planlab.planners import make_planner
from planlab.trees import (
    build_correspondence,
    enumerate_tree,
    verify_disjointness,
    verify_partition,
    verify_totality,
)
from planlab.truth import is_unambiguous_brute, last_deleter, precondition_entries

PROPS = ("a", "b", "c", "d")
SUBSETS = st.integers(0, 2 ** len(PROPS) - 1).map(
    lambda bits: frozenset(p for i, p in enumerate(PROPS) if bits >> i & 1)
)
EXAMPLES = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@st.composite
def operators(draw, name: str):
    pre = draw(SUBSETS)
    dels = draw(SUBSETS) & pre
    adds = draw(SUBSETS) - dels
    return make_op(name, pre, adds, dels)


@st.composite
def problems(draw) -> Problem:
    """A library of one to three operators; every goal is added by some
    operator and at least one goal is false initially."""
    library = tuple(draw(operators(f"o{i}")) for i in range(draw(st.sampled_from((3, 2, 1)))))
    goals = draw(SUBSETS) & frozenset().union(*(op.adds for op in library))
    init = draw(SUBSETS)
    assume(goals and not goals <= init)
    return Problem(name="generated", init=init, goals=goals, library=library)


# Two steps that never interact, so the ua tree is strictly smaller than the
# to tree; random problems this small rarely have such a pair.
INDEPENDENT = Problem(
    name="independent",
    init=frozenset(),
    goals=frozenset({"a", "b"}),
    library=(make_op("o0", adds={"a"}), make_op("o1", adds={"b"})),
)


# The third goal's adder o2 interacts with two steps that are unordered with
# each other and with it, so the ua ordering stage branches on both before
# and after for each of them in one extension.
TWO_INTERACTING = Problem(
    name="two-interacting",
    init=frozenset({"d"}),
    goals=frozenset({"a", "b", "c"}),
    library=(
        make_op("o0", adds={"a", "d"}),
        make_op("o1", adds={"b", "d"}),
        make_op("o2", pre={"d"}, adds={"c"}, dels={"d"}),
    ),
)


def _trees(problem: Problem, depth: int):
    tree_ua = enumerate_tree(make_planner("ua", problem), depth)
    tree_to = enumerate_tree(make_planner("to", problem), depth)
    return tree_ua, tree_to


@EXAMPLES
@given(problem=problems(), depth=st.sampled_from((3, 2, 1, 0)))
@example(problem=INDEPENDENT, depth=2)
@example(problem=TWO_INTERACTING, depth=3)
def test_correspondence_partitions_the_total_order_tree(problem, depth):
    tree_ua, tree_to = _trees(problem, depth)
    cmap = build_correspondence(tree_ua, tree_to)
    for report in (
        verify_totality(cmap, tree_ua),
        verify_disjointness(cmap),
        verify_partition(cmap, tree_to),
    ):
        assert report.ok, (report.name, report.violations)
    assert len(tree_ua) <= len(tree_to)
    assert cmap.image_size_sum() == len(tree_to)


@EXAMPLES
@given(problem=problems(), depth=st.sampled_from((3, 2, 1, 0)))
@example(problem=TWO_INTERACTING, depth=3)
def test_every_ua_node_is_unambiguous(problem, depth):
    tree_ua, _ = _trees(problem, depth)
    for node in tree_ua.nodes:
        assert is_unambiguous_brute(node.plan)
        for entry in precondition_entries(node.plan):
            # raises AmbiguousLastDeleter on two unordered latest deleters
            last_deleter(node.plan, entry.condition, entry.needer)
