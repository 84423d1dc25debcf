from __future__ import annotations

import pytest

from planlab.domains import fixture
from planlab.model import Problem, make_op
from planlab.planners import make_planner
from planlab.trees import enumerate_tree, sibling_overlap_violations

from helpers import is_unambiguous_brute


def find_node(tree, middle_names):
    for n in tree.nodes:
        names = sorted(n.plan.steps[lab].name for lab in n.plan.middle_labels)
        if names == sorted(middle_names):
            return n
    raise AssertionError(f"no node with middle steps {middle_names}")


class TestConditionalPlanners:
    def test_fig13_specialization_choices(self):
        prob = fixture("fig13")
        planner = make_planner("uac", prob)
        tree = enumerate_tree(planner, 2)
        node = find_node(tree, ["groundwork"])
        kids = [tree.node(k).plan for k in node.children_ids]
        assert len(kids) >= 2

        def committed(plan):
            gw = [s for s in plan.steps if s.name == "groundwork"][0]
            cap = [s for s in plan.steps if s.name == "capstone"][0]
            return "u" in gw.adds, "s" in cap.adds

        flags = {committed(k) for k in kids}
        assert (True, True) in flags  # both conditional effects selected
        assert (False, False) in flags  # neither selected

    def test_unconditional_goal_degenerates_to_plain_ua(self):
        prob = Problem(
            "plain",
            frozenset(["p"]),
            frozenset(["g"]),
            (make_op("win", pre=["p"], adds=["g"]),),
        )
        ua = make_planner("ua", prob)
        uac = make_planner("uac", prob)
        r1 = ua.children(ua.root())
        r2 = uac.children(uac.root())
        assert len(r1.children) == len(r2.children) == 1
        assert r1.children[0].order == r2.children[0].order

    def test_specializations_never_retracted_along_paths(self):
        prob = fixture("fig13")
        planner = make_planner("uac", prob)
        tree = enumerate_tree(planner, 3)
        for n in tree.nodes:
            if n.parent_id is None:
                continue
            parent = tree.node(n.parent_id).plan
            for lab in parent.labels:
                before = parent.steps[lab]
                after = n.plan.steps[lab]
                assert before.adds <= after.adds
                assert before.dels <= after.dels
                assert before.pre <= after.pre

    def test_uac_nodes_unambiguous(self):
        prob = fixture("fig13")
        planner = make_planner("uac", prob)
        tree = enumerate_tree(planner, 3)
        for n in tree.nodes:
            assert is_unambiguous_brute(n.plan)

    def test_toc_children_are_total(self):
        prob = fixture("fig13")
        planner = make_planner("toc", prob)
        tree = enumerate_tree(planner, 3)
        for n in tree.nodes:
            assert n.plan.is_total


class TestModalTruthPlanner:
    def test_fig17_establishment_choices(self):
        prob = fixture("fig17")
        planner = make_planner("mt", prob)
        tree = enumerate_tree(planner, 4)
        node = find_node(tree, ["op1", "op2", "op3"])
        assert [e.condition for e in node.goals] == ["p1", "p2", "p3"]
        # two reuse establishments plus three fresh instances
        assert len(node.children_ids) == 5
        sizes = sorted(len(tree.node(k).plan.steps) for k in node.children_ids)
        assert sizes == [5, 5, 6, 6, 6]

    def test_fig17_siblings_share_linearizations(self):
        prob = fixture("fig17")
        planner = make_planner("mt", prob)
        tree = enumerate_tree(planner, 4)
        violations = sibling_overlap_violations(tree)
        assert violations
        shared = {seq for v in violations for seq in v.shared_sequences}
        assert ("#init", "op3", "op2", "op1", "#goal") in shared

    def test_reuse_child_adds_no_step(self):
        prob = Problem(
            "reuse",
            frozenset(),
            frozenset(["ga", "gb"]),
            (
                make_op("helper_a", pre=["c"], adds=["ga"]),
                make_op("helper_b", adds=["gb", "c"]),
            ),
        )
        planner = make_planner("mt", prob)
        tree = enumerate_tree(planner, 3)
        node = find_node(tree, ["helper_a", "helper_b"])
        assert [e.condition for e in node.goals] == ["c"]
        kids = [tree.node(k).plan for k in node.children_ids]
        assert len(kids) == 2
        reuse = [k for k in kids if len(k.steps) == len(node.plan.steps)]
        fresh = [k for k in kids if len(k.steps) == len(node.plan.steps) + 1]
        assert len(reuse) == 1 and len(fresh) == 1
        ha = [s.label for s in reuse[0].steps if s.name == "helper_a"][0]
        hb = [s.label for s in reuse[0].steps if s.name == "helper_b"][0]
        assert reuse[0].before(hb, ha)

    def test_no_threat_single_ordering_per_adder(self):
        prob = Problem(
            "calm",
            frozenset(["p"]),
            frozenset(["g"]),
            (make_op("win", pre=["p"], adds=["g"]),),
        )
        planner = make_planner("mt", prob)
        result = planner.children(planner.root())
        assert len(result.children) == 1

    def test_threat_branches_demotion_and_knight(self):
        # needer is a middle step; a deleter threatens its precondition;
        # resolution can demote the deleter or interpose the new adder
        prob = Problem(
            "threat",
            frozenset(["c", "x"]),
            frozenset(["g", "z"]),
            (
                make_op("finisher", pre=["c"], adds=["g"]),
                make_op("breaker", pre=["c", "x"], adds=["z"], dels=["c"]),
                make_op("patch", adds=["c"]),
            ),
        )
        planner = make_planner("mt", prob)
        tree = enumerate_tree(planner, 3)
        node = find_node(tree, ["finisher", "breaker"])
        entry_conditions = [e.condition for e in node.goals]
        assert "c" in entry_conditions
        kids = [tree.node(k) for k in node.children_ids]
        assert len(kids) >= 2

    def test_children_may_be_ambiguous(self):
        prob = fixture("fig17")
        planner = make_planner("mt", prob)
        tree = enumerate_tree(planner, 4)
        assert any(not is_unambiguous_brute(n.plan) for n in tree.nodes)

    def test_solved_plan_raises(self):
        prob = Problem("done", frozenset(["g"]), frozenset(["g"]), ())
        planner = make_planner("mt", prob)
        with pytest.raises(ValueError):
            planner.children(planner.root())

    def test_mt_children_function(self):
        prob = fixture("fig17")
        planner = make_planner("mt", prob)
        result = planner.children(planner.root())
        assert len(result.children) == 1
