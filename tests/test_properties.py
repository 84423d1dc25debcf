"""Property tests for the ua/to and uac/toc correspondence on generated problems.

Hypothesis draws unconditional problems with at most three operators over
four propositions and checks, at depth limits up to 3, the structural
claims the hand-picked suite checks: the correspondence map is total and
disjoint and partitions the total-order tree, the partial-order tree is
no larger, every partial-order node is unambiguous and has a unique
last deleter for every precondition, corresponding nodes have equal
open-goal counts (the h-property), and breadth-first search with either
planner solves within depth 3 exactly when the state-space oracle's
minimal length is at most 3, and at that length (completeness); that
oracle's bitmask search gives the same length as a breadth-first search
over frozenset states, on these problems and the conditional ones.  Every
``mt`` node's goals are checked against the all-linearizations oracle,
and every ``to``, ``ua`` and ``mt`` node's ``is_solution`` against its
goal set, with the goal set cached and without.  Every ``to``, ``ua``
and ``mt`` solution is sound: each of its linearizations runs from the
initial state under the oracle's ``apply_operator`` and reaches the goals.
Half the problems are built along a walk of operators, so many need two
or three steps; a floor on those is checked too.

A second strategy draws conditional problems: operators with conditional
adds and conditional deletes.  The ``uac``/``toc`` trees are checked for
totality, disjointness, partition, unambiguity and the h-property.
Completeness and soundness are left out for them: a conditional delete
that fires can make a conditional solution unsound (see ROADMAP,
conditional-delete soundness), so ``bfs`` and the state-space oracle may
disagree until that is settled.  On both kinds of problem, every pair of
plans the correspondence examines is decided by the label-for-label
``is_linearization`` and by the bijection oracle
``is_linearization_brute`` alike, and every node of all five planners'
trees has the adjacency, closure and totality of a fresh plan with its
steps and order, although a derived plan builds them from its parent's,
and a linearization of its order: for ``to``/``toc`` the fresh plan's
one, for the other kinds perhaps another.  A hand-built child whose order
lacks one of its parent's edges computes all of them afresh.  Under
seeded goal selection, every goal choice of all five planners' trees,
lone goals included, is the goal a fresh RNG draws.  The examples are
derandomized, so every run checks the same problems.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from planlab.domains import fixture
from planlab.model import Plan, Problem, cond, is_linearization, linear_extensions, make_op
from planlab.oracle import minimal_solution_length
from planlab.planners import PlannerConfig, make_planner
from planlab.search import StrategyConfig, bfs
from planlab import trees
from planlab.trees import (
    CorrespondenceMap,
    build_correspondence,
    enumerate_tree,
    verify_disjointness,
    verify_partition,
    verify_totality,
)
from planlab.truth import (
    ModalStatus,
    last_deleter,
    modal_status_brute,
    precondition_entries,
)

from helpers import (
    closure_pairs,
    is_linearization_brute,
    is_unambiguous_brute,
    minimal_solution_length_brute,
    orders_forward,
    reachable_pairs,
    runs_to_the_goals,
    seeded_goal_brute,
    seeded_picks,
)

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
def free_problems(draw) -> Problem:
    """A library of one to three operators; every goal is added by some
    operator and at least one goal is false initially."""
    library = tuple(draw(operators(f"o{i}")) for i in range(draw(st.sampled_from((3, 2, 1)))))
    goals = draw(SUBSETS) & frozenset().union(*(op.adds for op in library))
    init = draw(SUBSETS)
    assume(goals and not goals <= init)
    return Problem(name="generated", init=init, goals=goals, library=library)


@st.composite
def chained_problems(draw) -> Problem:
    """One to three operators built along a walk from an initial state of at
    most one proposition.  Each operator is applicable where the walk has
    got to, needs a proposition its predecessor newly added, and adds one
    that is not yet true; the goals include what the last one newly added.
    The walk solves the problem, and often no shorter plan does."""
    init = frozenset(draw(st.sets(st.sampled_from(PROPS), max_size=1)))
    state, library, new = init, [], frozenset()
    for i in range(draw(st.sampled_from((3, 2, 1)))):
        pre = draw(SUBSETS) & state
        if new:
            pre |= {draw(st.sampled_from(sorted(new)))}
        dels = draw(SUBSETS) & pre
        adds = (draw(SUBSETS) - dels) | {draw(st.sampled_from(sorted(set(PROPS) - state)))}
        library.append(make_op(f"o{i}", pre, adds, dels))
        new = adds - state
        state = (state - dels) | adds
        if state == set(PROPS):
            break
    goals = new | (draw(SUBSETS) & state)
    assume(not goals <= init)
    return Problem(name="generated", init=init, goals=goals, library=tuple(library))


def problems() -> st.SearchStrategy[Problem]:
    """Free libraries, about half unsolvable, and chained ones that need
    two or three steps more often than not."""
    return st.one_of(free_problems(), chained_problems())


@st.composite
def conditional_operators(draw, name: str):
    """An operator with up to two conditional adds and at most one
    conditional delete, whose effect is among its dependencies as
    ``OperatorSchema.validate`` requires."""
    op = draw(operators(name))
    deps = SUBSETS.filter(bool)
    cadds = draw(st.lists(st.builds(cond, deps, st.sampled_from(PROPS)), max_size=2))
    cdels = draw(
        st.lists(
            st.builds(lambda d, p: cond(d | {p}, p), SUBSETS, st.sampled_from(PROPS)),
            max_size=1,
        )
    )
    return make_op(name, op.pre, op.adds, op.dels, cadds, cdels)


@st.composite
def conditional_problems(draw) -> Problem:
    """A library of one to three conditional operators; every goal is
    added by some operator, perhaps only conditionally, and at least one
    goal is false initially."""
    library = tuple(
        draw(conditional_operators(f"o{i}")) for i in range(draw(st.sampled_from((3, 2, 1))))
    )
    addable = frozenset().union(*(op.adds | {ce.effect for ce in op.cadds} for op in library))
    goals = draw(SUBSETS) & addable
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


def _trees(problem: Problem, depth: int, kinds: tuple[str, str] = ("ua", "to")):
    tree_pa = enumerate_tree(make_planner(kinds[0], problem), depth)
    tree_to = enumerate_tree(make_planner(kinds[1], problem), depth)
    return tree_pa, tree_to


def _check_the_map(tree_pa, tree_to) -> CorrespondenceMap:
    """Totality, disjointness, partition, and a partial-order tree no
    larger than the total-order one."""
    cmap = build_correspondence(tree_pa, tree_to)
    for report in (
        verify_totality(cmap, tree_pa),
        verify_disjointness(cmap),
        verify_partition(cmap, tree_to),
    ):
        assert report.ok, (report.name, report.violations)
    assert len(tree_pa) <= len(tree_to)
    assert cmap.image_size_sum() == len(tree_to)
    return cmap


def _check_h_property(cmap, tree_pa, tree_to) -> None:
    """Linked nodes have equal open-goal counts."""
    for node in tree_pa.nodes:
        for to_id in cmap.image(node.id):
            assert len(tree_to.node(to_id).goals) == len(node.goals), (node.id, to_id)


def _check_unambiguous(tree_pa) -> None:
    for node in tree_pa.nodes:
        assert is_unambiguous_brute(node.plan)
        for entry in precondition_entries(node.plan):
            # raises AmbiguousLastDeleter on two unordered latest deleters
            last_deleter(node.plan, entry.condition, entry.needer)


@EXAMPLES
@given(problem=problems(), depth=st.sampled_from((3, 2, 1, 0)))
@example(problem=INDEPENDENT, depth=2)
@example(problem=TWO_INTERACTING, depth=3)
def test_correspondence_partitions_the_total_order_tree(problem, depth):
    _check_the_map(*_trees(problem, depth))


@EXAMPLES
@given(problem=problems(), depth=st.sampled_from((3, 2, 1, 0)))
@example(problem=TWO_INTERACTING, depth=3)
def test_every_ua_node_is_unambiguous(problem, depth):
    _check_unambiguous(_trees(problem, depth)[0])


@EXAMPLES
@given(problem=problems(), depth=st.sampled_from((3, 2, 1, 0)))
@example(problem=TWO_INTERACTING, depth=3)
def test_every_mt_goal_set_is_the_brute_not_necessarily_true_entries(problem, depth):
    # one planner, so one modal-truth memo, serves the whole tree
    tree_mt = enumerate_tree(make_planner("mt", problem), depth)
    for node in tree_mt.nodes:
        plan = node.plan
        assert node.goals == tuple(
            e
            for e in precondition_entries(plan)
            if modal_status_brute(plan, e.needer, e.condition) is not ModalStatus.NECESSARILY_TRUE
        ), node.id


def _check_is_solution(kind: str, problem: Problem, depth: int) -> None:
    # The tree's planner has every node's goal set cached, so it answers from
    # the cache; a fresh planner has none, so it decides a derived plan
    # without a goal set.
    warm = make_planner(kind, problem)
    for node in enumerate_tree(warm, depth).nodes:
        solved = not node.goals
        assert warm.is_solution(node.plan) == solved, (kind, node.id)
        assert make_planner(kind, problem).is_solution(node.plan) == solved, (kind, node.id)


@EXAMPLES
@given(problem=problems(), depth=st.sampled_from((3, 2, 1, 0)))
@example(problem=INDEPENDENT, depth=2)
@example(problem=TWO_INTERACTING, depth=3)
@example(problem=fixture("fig9"), depth=3)  # a ua leaf that falls back to its own order
def test_is_solution_agrees_with_the_goal_set(problem, depth):
    for kind in ("to", "ua", "mt"):
        _check_is_solution(kind, problem, depth)


# Conditional problems in which one specialised step is reached along two
# paths: o0 adds c outright and also when b holds, or only conditionally,
# when s or when t holds.
CONDITIONAL = (
    (fixture("fig13"), 4),
    (
        Problem(
            "dup",
            frozenset(),
            frozenset({"c"}),
            (make_op("o0", adds={"c"}, cadds=[cond({"b"}, "c")]),),
        ),
        3,
    ),
    (
        Problem(
            "two-cadds",
            frozenset({"s", "t"}),
            frozenset({"c"}),
            (make_op("o0", cadds=[cond({"t"}, "c"), cond({"s"}, "c")]),),
        ),
        3,
    ),
)


@pytest.mark.parametrize("kind", ["toc", "uac"])
@pytest.mark.parametrize("problem, depth", CONDITIONAL, ids=lambda v: getattr(v, "name", str(v)))
def test_conditional_is_solution_agrees_with_the_goal_set(kind, problem, depth):
    _check_is_solution(kind, problem, depth)


@EXAMPLES
@given(problem=problems(), depth=st.sampled_from((3, 2, 1, 0)))
@example(problem=TWO_INTERACTING, depth=3)
def test_corresponding_nodes_have_equal_open_goal_counts(problem, depth):
    tree_ua, tree_to = _trees(problem, depth)
    _check_h_property(build_correspondence(tree_ua, tree_to), tree_ua, tree_to)


@EXAMPLES
@given(problem=conditional_problems(), depth=st.sampled_from((3, 2, 1, 0)))
@example(problem=CONDITIONAL[1][0], depth=1)
@example(problem=CONDITIONAL[2][0], depth=1)
def test_conditional_correspondence_keeps_every_property(problem, depth):
    tree_uac, tree_toc = _trees(problem, depth, ("uac", "toc"))
    _check_h_property(_check_the_map(tree_uac, tree_toc), tree_uac, tree_toc)
    _check_unambiguous(tree_uac)


@EXAMPLES
@given(problem=st.one_of(problems(), conditional_problems()), depth=st.sampled_from((3, 2, 1, 0)))
@example(problem=TWO_INTERACTING, depth=3)
@example(problem=CONDITIONAL[1][0], depth=3)
@example(problem=CONDITIONAL[2][0], depth=3)
def test_is_linearization_agrees_with_the_bijection_oracle(problem, depth):
    # Every pair the correspondence examines, in both planner pairs, is
    # decided label for label and by the bijection oracle alike.
    def cross_checked(total, plan):
        got = is_linearization(total, plan)
        assert got == is_linearization_brute(total, plan)
        return got

    for kinds in (("ua", "to"), ("uac", "toc")):
        with mock.patch.object(trees, "is_linearization", cross_checked):
            build_correspondence(*_trees(problem, depth, kinds))


@EXAMPLES
@given(problem=st.one_of(problems(), conditional_problems()), depth=st.sampled_from((3, 2, 1, 0)))
@example(problem=TWO_INTERACTING, depth=3)
@example(problem=CONDITIONAL[1][0], depth=3)
def test_every_node_has_the_closure_of_a_fresh_plan(problem, depth):
    # Nodes come parent first, so reading each node's views caches its
    # parent's before it: every derived plan derives its views from them.
    for kind in ("to", "ua", "toc", "uac", "mt"):
        for node in enumerate_tree(make_planner(kind, problem), depth).nodes:
            plan = node.plan
            _check_order_views(plan, kind in ("to", "toc"), (kind, node.id))
            if plan.parent is not None:
                assert plan.new_edges == plan.order - plan.parent.order, (kind, node.id)
                # A plan whose order lacks one of its parent's edges has
                # nothing to derive from, and computes its views afresh.
                cut = Plan(plan.steps, plan.order - {max(plan.parent.order)}, plan.parent, plan.depth)
                assert cut.new_edges is None, (kind, node.id)
                _check_order_views(cut, False, (kind, node.id, "cut"))


def _check_order_views(plan, total_kind, where):
    assert all(step.label == i for i, step in enumerate(plan.steps)), where
    fresh = Plan(steps=plan.steps, order=plan.order)
    assert plan.predecessors == fresh.predecessors, where
    assert plan.successors == fresh.successors, where
    # The walk over the order's edges shares no code with the model.
    pairs = closure_pairs(plan)
    assert pairs == reachable_pairs(plan), where
    assert plan.after == fresh.after, where
    n = len(plan.steps)
    assert plan.is_total == (len(pairs) == n * (n - 1) // 2) == fresh.is_total, where
    # A derived plan carries a linearization of its order, which need not
    # be the fresh plan's; a total plan has only one.
    assert orders_forward(plan, plan.linear_order), where
    if total_kind:
        assert plan.linear_order == fresh.linear_order, where


@EXAMPLES
@given(problem=problems(), depth=st.sampled_from((3, 2, 1, 0)))
@example(problem=INDEPENDENT, depth=2)
@example(problem=TWO_INTERACTING, depth=3)
@example(problem=fixture("fig9"), depth=3)
def test_every_solution_executes_in_every_linearization(problem, depth):
    # Soundness, judged by the state-space oracle's own semantics rather
    # than by the planners' truth criteria.
    for kind in ("to", "ua", "mt"):
        for node in enumerate_tree(make_planner(kind, problem), depth).nodes:
            if not node.goals:
                for seq in linear_extensions(node.plan):
                    assert runs_to_the_goals(problem, node.plan, seq), (kind, node.id, seq)


@EXAMPLES
@given(problem=problems())
@example(problem=INDEPENDENT)
@example(problem=TWO_INTERACTING)
def test_bfs_solves_at_the_oracle_minimal_length(problem):
    # Breadth-first search goes level by level and each extension adds one
    # step, so within depth 3 it must solve exactly when the oracle's
    # minimal length is at most 3, and at that length.
    length = minimal_solution_length(problem)
    expected = length if length is not None and length <= 3 else None
    for kind in ("ua", "to"):
        outcome = bfs(make_planner(kind, problem), StrategyConfig(strategy="bfs", depth_limit=3))
        assert outcome.solution_length == expected, kind


@EXAMPLES
@given(problem=problems(), conditional=conditional_problems())
@example(problem=INDEPENDENT, conditional=TWO_INTERACTING)
def test_the_bitmask_oracle_agrees_with_the_frozenset_search(problem, conditional):
    for each in (problem, conditional):
        assert minimal_solution_length(each) == minimal_solution_length_brute(each)


@EXAMPLES
@given(problem=problems(), conditional=conditional_problems(), seed=st.integers(0, 10_000))
@example(problem=TWO_INTERACTING, conditional=CONDITIONAL[1][0], seed=0)
def test_every_seeded_goal_choice_is_the_fresh_rng_draw(problem, conditional, seed):
    config = PlannerConfig(goal_selection="seeded", seed=seed)
    runs = [(kind, problem) for kind in ("ua", "to", "mt")]
    runs += [(kind, conditional) for kind in ("uac", "toc")]
    for kind, each in runs:
        for plan, goals, chosen in seeded_picks(kind, each, config, 3):
            assert chosen == seeded_goal_brute(config, plan, goals), kind


def test_problems_include_longer_solvable_ones():
    # The properties above say little about ordering on problems that one
    # step solves; the strategy must keep drawing problems that need more.
    lengths = []

    @EXAMPLES
    @given(problem=problems())
    def draw(problem):
        lengths.append(minimal_solution_length(problem))

    draw()
    assert len(lengths) == 150
    assert sum(1 for n in lengths if n is not None and n >= 2) >= 25
    assert lengths.count(3) >= 5
