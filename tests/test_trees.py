from __future__ import annotations

import json

import pytest

from planlab.domains import BlocksworldSpec, blocksworld_problem, d1s1_problem, fixture
from planlab.model import Problem, initial_plan, linear_extensions
from planlab.oracle import minimal_solution_length
from planlab.planners import make_planner
from planlab.trees import (
    SearchNode,
    SearchTree,
    TreeCeilingError,
    build_correspondence,
    enumerate_tree,
    map_to_json,
    sibling_overlap_violations,
    tree_stats,
    tree_to_json,
    verify_disjointness,
    verify_partition,
    verify_totality,
)

from helpers import is_unambiguous_brute


class TestEnumerateTree:
    def test_empty_goal_single_node(self):
        prob = Problem("noop", frozenset(["p"]), frozenset(), ())
        tree = enumerate_tree(make_planner("to", prob), 3)
        assert len(tree) == 1
        assert tree.node(0).is_solution

    def test_preorder_ids(self):
        prob = d1s1_problem([1, 2])
        tree = enumerate_tree(make_planner("to", prob), 2)
        for n in tree.nodes:
            if n.parent_id is not None:
                assert n.parent_id < n.id
            for kid in n.children_ids:
                assert kid > n.id

    def test_ceiling_raises_with_count(self):
        prob = fixture("sussman")
        with pytest.raises(TreeCeilingError) as exc:
            enumerate_tree(make_planner("to", prob), 3, node_ceiling=10)
        assert exc.value.count == 10

    def test_negative_depth_limit_refused(self):
        with pytest.raises(ValueError):
            enumerate_tree(make_planner("to", fixture("sussman")), -1)

    def test_partial_order_tree_never_larger(self):
        for goals in [(1, 2), (1, 3), (1, 2, 3), (2, 4)]:
            prob = d1s1_problem(goals)
            depth = len(goals)
            to_tree = enumerate_tree(make_planner("to", prob), depth)
            ua_tree = enumerate_tree(make_planner("ua", prob), depth)
            assert len(ua_tree) <= len(to_tree)

    def test_deferred_planner_larger_on_overlap_fixture(self):
        prob = fixture("fig17")
        depth = 7
        mt_tree = enumerate_tree(make_planner("mt", prob), depth)
        to_tree = enumerate_tree(make_planner("to", prob), depth)
        assert len(mt_tree) > len(to_tree)

    def test_node_flags(self):
        prob = d1s1_problem([1, 2])
        tree = enumerate_tree(make_planner("ua", prob), 2)
        sols = [n for n in tree.nodes if n.is_solution]
        dead = [n for n in tree.nodes if n.is_dead_end]
        assert sols and all(not n.goals for n in sols)
        for n in dead:
            assert n.goals and not n.children_ids


class TestCorrespondence:
    def build(self, prob, depth):
        to_tree = enumerate_tree(make_planner("to", prob), depth)
        ua_tree = enumerate_tree(make_planner("ua", prob), depth)
        cmap = build_correspondence(ua_tree, to_tree)
        return ua_tree, to_tree, cmap

    def test_roots_correspond(self):
        ua_tree, to_tree, cmap = self.build(d1s1_problem([1, 2]), 2)
        assert cmap.image(0) == (0,)

    def test_all_checks_pass_on_chain_domain(self):
        for goals in [(1, 2), (1, 3), (1, 2, 3), (3, 5, 7)]:
            ua_tree, to_tree, cmap = self.build(d1s1_problem(goals), len(goals))
            assert verify_totality(cmap, ua_tree).ok
            assert verify_disjointness(cmap).ok
            assert verify_partition(cmap, to_tree).ok

    def test_all_checks_pass_on_blocksworld(self):
        prob = blocksworld_problem(BlocksworldSpec(n_blocks=3, seed=2))
        depth = minimal_solution_length(prob)
        ua_tree, to_tree, cmap = self.build(prob, depth)
        assert verify_totality(cmap, ua_tree).ok
        assert verify_disjointness(cmap).ok
        assert verify_partition(cmap, to_tree).ok

    def test_image_sizes_are_linearization_counts(self):
        ua_tree, to_tree, cmap = self.build(d1s1_problem([1, 3]), 2)
        for n in ua_tree.nodes:
            assert len(cmap.image(n.id)) == len(linear_extensions(n.plan))

    def test_image_sum_equals_total_tree(self):
        ua_tree, to_tree, cmap = self.build(d1s1_problem([1, 2, 3]), 3)
        assert cmap.image_size_sum() == len(to_tree)

    def test_unordered_goals_widen_images(self):
        # non-adjacent goal indices leave steps unordered, so one partial-order
        # node stands for several total-order nodes
        _, _, near = self.build(d1s1_problem([1, 2]), 2)
        far_ua, far_to, far = self.build(d1s1_problem([1, 3, 5]), 3)
        assert max(len(imgs) for imgs in near.pairs.values()) == 1
        assert max(len(imgs) for imgs in far.pairs.values()) > 1
        assert len(far_to) > len(far_ua)

    def test_totally_ordered_trees_equal_size(self):
        ua_tree, to_tree, cmap = self.build(d1s1_problem([1, 2]), 2)
        assert all(n.plan.is_total for n in ua_tree.nodes)
        assert len(ua_tree) == len(to_tree)

    def test_mismatched_problems_rejected(self):
        t1 = enumerate_tree(make_planner("ua", d1s1_problem([1])), 1)
        t2 = enumerate_tree(make_planner("to", d1s1_problem([2])), 1)
        with pytest.raises(ValueError):
            build_correspondence(t1, t2)

    def test_unambiguity_of_every_partial_node(self):
        ua_tree, _, _ = self.build(d1s1_problem([1, 2, 3]), 3)
        assert all(is_unambiguous_brute(n.plan) for n in ua_tree.nodes)

    def test_disjointness_failure_detected_on_overlap_fixture(self):
        prob = fixture("fig17")
        mt_tree = enumerate_tree(make_planner("mt", prob), 4)
        to_tree = enumerate_tree(make_planner("to", prob), 4)
        violations = sibling_overlap_violations(mt_tree, to_tree)
        assert violations
        assert any(
            ("#init", "op3", "op2", "op1", "#goal") in v.shared_sequences
            for v in violations
        )

    @pytest.mark.parametrize(
        "problem, kinds",
        [
            (blocksworld_problem(BlocksworldSpec(n_blocks=4, seed=20)), ("ua", "to")),
            # four of its ua plans repeat a step signature
            (blocksworld_problem(BlocksworldSpec(n_blocks=3, seed=16)), ("ua", "to")),
            (fixture("fig13"), ("uac", "toc")),
        ],
        ids=["blocks4_seed20", "blocks3_seed16", "fig13"],
    )
    def test_map_equals_linear_extension_reference(self, problem, kinds):
        depth = minimal_solution_length(problem)
        pa_tree = enumerate_tree(make_planner(kinds[0], problem), depth)
        to_tree = enumerate_tree(make_planner(kinds[1], problem), depth)

        def signatures(plan, seq):
            return tuple(plan.steps[lab].signature for lab in seq)

        # Same parent-linking rule as build_correspondence, but a total-order
        # node qualifies when its signature sequence is one of the partial
        # plan's linear extensions.
        reference = {pa_tree.root_id: (to_tree.root_id,)}
        for u in pa_tree.nodes[1:]:
            keys = {signatures(u.plan, seq) for seq in linear_extensions(u.plan)}
            hits = tuple(
                t_id
                for t_parent in reference.get(u.parent_id, ())
                for t_id in to_tree.node(t_parent).children_ids
                if signatures(to_tree.node(t_id).plan, to_tree.node(t_id).plan.sequence) in keys
            )
            if hits:
                reference[u.id] = hits
        assert len(reference) > 1
        assert build_correspondence(pa_tree, to_tree).pairs == reference

    def test_unambiguous_tree_has_no_sibling_overlap(self):
        prob = d1s1_problem([1, 2, 3])
        ua_tree = enumerate_tree(make_planner("ua", prob), 3)
        assert sibling_overlap_violations(ua_tree) == []


def synthetic_tree(flags: list[bool]) -> SearchTree:
    """A root with len(flags) leaf children, solution-flagged per `flags`."""
    prob = Problem("synthetic", frozenset(), frozenset(), ())
    plan = initial_plan(prob)
    nodes = [
        SearchNode(
            id=0,
            parent_id=None,
            plan=plan,
            depth=0,
            goals=(),
            is_solution=False,
            is_dead_end=False,
            cost=None,
            children_ids=tuple(range(1, len(flags) + 1)),
        )
    ]
    for i, flag in enumerate(flags, start=1):
        nodes.append(
            SearchNode(
                id=i,
                parent_id=0,
                plan=plan,
                depth=1,
                goals=(),
                is_solution=flag,
                is_dead_end=False,
                cost=None,
            )
        )
    return SearchTree(problem=prob, planner_kind="to", depth_limit=1, nodes=nodes)


class TestTreeStats:
    def test_uniform_spacing(self):
        flags = [(i % 4 == 0) for i in range(16)]  # 4 of 16, evenly spaced
        stats = tree_stats(synthetic_tree(flags))
        assert stats.solution_density == 0.25
        assert stats.clustering.max_run_length == 1
        assert stats.clustering.mean_gap == 4.0
        assert stats.clustering.gap_variance == 0.0

    def test_contiguous_solutions(self):
        flags = [True] * 4 + [False] * 12
        stats = tree_stats(synthetic_tree(flags))
        assert stats.solution_density == 0.25
        assert stats.clustering.max_run_length == 4

    def test_no_solutions(self):
        stats = tree_stats(synthetic_tree([False] * 8))
        assert stats.solution_density == 0.0
        assert stats.solution_leaf_count == 0
        assert stats.clustering.mean_gap is None

    def test_per_level_counts(self):
        prob = d1s1_problem([1, 2])
        tree = enumerate_tree(make_planner("to", prob), 2)
        stats = tree_stats(tree)
        assert stats.per_level == (1, 1, 2)
        assert stats.node_count == len(tree)


class TestJson:
    def test_round_trip_node_counts(self, tmp_path):
        prob = d1s1_problem([1, 2])
        tree = enumerate_tree(make_planner("ua", prob), 2)
        dumped = tree_to_json(tree)
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(dumped))
        loaded = json.loads(path.read_text())
        assert len(loaded) == len(tree)
        assert sum(1 for n in loaded if n["solution"]) == len(tree.solutions())

    def test_schema_fields(self):
        prob = d1s1_problem([1])
        tree = enumerate_tree(make_planner("to", prob), 1)
        node = tree_to_json(tree)[1]
        assert set(node) == {
            "id",
            "parent",
            "depth",
            "operator_sequence",
            "edges",
            "goals",
            "solution",
            "dead_end",
        }
        assert node["operator_sequence"] == ["o1"]

    def test_map_dump(self):
        prob = d1s1_problem([1, 3])
        to_tree = enumerate_tree(make_planner("to", prob), 2)
        ua_tree = enumerate_tree(make_planner("ua", prob), 2)
        cmap = build_correspondence(ua_tree, to_tree)
        payload = map_to_json(cmap)
        assert all(set(entry) == {"ua_id", "to_ids"} for entry in payload)
