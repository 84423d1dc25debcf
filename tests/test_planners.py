from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from planlab.domains import d1s1_problem, fixture, fixture_names, standard_suite
from planlab.model import (
    FINAL_STEP,
    INIT_STEP,
    Plan,
    Problem,
    Step,
    initial_plan,
    linear_extensions,
    make_op,
)
from planlab import planners
from planlab.planners import (
    PlannerConfig,
    make_planner,
)
from planlab.trees import enumerate_tree
from planlab.truth import (
    GoalEntry,
    ModalStatus,
    false_in_sequence,
    last_deleter,
    modal_status,
    precondition_entries,
    steps_interact,
)

from conftest import chain_plan, linearization_plans
from helpers import (
    closure_pairs,
    equivalent,
    is_unambiguous_brute,
    orders_forward,
    seeded_goal_brute,
    seeded_picks,
    validate_plan,
)


def named_problem(name: str) -> Problem:
    """A fixture, or a standard-suite problem by name."""
    for _, problem in standard_suite():
        if problem.name == name:
            return problem
    return fixture(name)


def find_node(tree, middle_names, require_goals=True):
    for n in tree.nodes:
        names = sorted(n.plan.steps[lab].name for lab in n.plan.middle_labels)
        if names == sorted(middle_names) and (n.goals or not require_goals):
            return n
    raise AssertionError(f"no node with middle steps {middle_names}")


class TestTotalOrderChildren:
    def test_three_gaps_three_children(self):
        prob = fixture("fig2")
        planner = make_planner("to", prob)
        tree = enumerate_tree(planner, 3)
        node = None
        for n in tree.nodes:
            p = n.plan
            if len(p.steps) == 5:
                names = [p.steps[lab].name for lab in p.sequence]
                if names == ["#init", "wrecker", "helper_a", "helper_b", "#goal"]:
                    node = n
        assert node is not None
        result = planner.children(node.plan)
        assert len(result.children) == 3

    def test_no_adder_dead_end(self):
        prob = Problem(
            "stuck",
            frozenset(),
            frozenset(["g"]),
            (make_op("noop", adds=["x"]),),
        )
        planner = make_planner("to", prob)
        result = planner.children(planner.root())
        assert result.children == ()

    def test_adjacent_deleter_needer_single_gap(self):
        prob = fixture("fig2")
        planner = make_planner("to", prob)
        plan = chain_plan(prob, ["wrecker"])
        result = planner.children(plan)
        # goal `core`: only gap is between wrecker and the final step
        assert len(result.children) == 1

    def test_children_inserted_from_needer_backward(self):
        prob = fixture("fig2")
        planner = make_planner("to", prob)
        plan = chain_plan(prob, ["wrecker", "helper_a", "helper_b"])
        result = planner.children(plan)
        positions = []
        for child in result.children:
            seq = child.sequence
            fixer = [s.label for s in child.steps if s.name == "fixer"][0]
            positions.append(seq.index(fixer))
        assert positions == sorted(positions, reverse=True)

    def test_solved_plan_raises(self, tiny_problem):
        planner = make_planner("to", tiny_problem)
        solved = chain_plan(tiny_problem, ["win"])
        with pytest.raises(ValueError):
            planner.children(solved)

    def test_partial_input_rejected(self, tiny_problem):
        # Two unordered wins: every linearization solves the plan, but it is
        # not totally ordered, so the total-order planners refuse it.
        win = tiny_problem.library[0]
        root = initial_plan(tiny_problem)
        plan = Plan(
            steps=root.steps + (Step.from_schema(win, 2), Step.from_schema(win, 3)),
            order=root.order | {(INIT_STEP, 2), (2, FINAL_STEP), (INIT_STEP, 3), (3, FINAL_STEP)},
        )
        for kind in ("to", "toc"):
            planner = make_planner(kind, tiny_problem)
            for entry in (planner.goal_set, planner.is_solution, planner.children):
                with pytest.raises(ValueError, match="plan is not totally ordered"):
                    entry(plan)

    def test_child_bookkeeping(self, tiny_problem):
        planner = make_planner("to", tiny_problem)
        root = planner.root()
        result = planner.children(root)
        for child in result.children:
            assert child.parent is root
            assert child.depth == 1
            validate_plan(child)


class TestUnambiguousChildren:
    def test_interacting_step_ordered_both_ways(self):
        prob = fixture("fig4")
        planner = make_planner("ua", prob)
        tree = enumerate_tree(planner, 4)
        node = find_node(tree, ["wrecker", "helper_a", "helper_b"])
        result = planner.children(node.plan)
        assert len(result.children) == 2
        relations = set()
        for child in result.children:
            fixer = [s.label for s in child.steps if s.name == "fixer"][0]
            ha = [s.label for s in child.steps if s.name == "helper_a"][0]
            hb = [s.label for s in child.steps if s.name == "helper_b"][0]
            assert not child.before(fixer, hb) and not child.before(hb, fixer)
            relations.add(child.before(fixer, ha))
        assert relations == {True, False}

    def test_no_interactions_single_child(self):
        prob = d1s1_problem([1, 3])
        planner = make_planner("ua", prob)
        tree = enumerate_tree(planner, 2)
        node = find_node(tree, ["o1"])
        result = planner.children(node.plan)
        assert len(result.children) == 1

    def test_fig4_child_linearization_counts(self):
        # frozen from the brute-force topological-order oracle over this
        # encoding: the done-first child leaves more freedom than the other
        from conftest import brute_topological_orders

        prob = fixture("fig4")
        planner = make_planner("ua", prob)
        tree = enumerate_tree(planner, 4)
        node = find_node(tree, ["wrecker", "helper_a", "helper_b"])
        result = planner.children(node.plan)
        counts = sorted(len(brute_topological_orders(c)) for c in result.children)
        assert counts == [4, 8]
        assert counts == sorted(len(linear_extensions(c)) for c in result.children)

    def test_every_child_unambiguous(self):
        for name in ("fig4", "fig9", "sussman"):
            prob = fixture(name)
            planner = make_planner("ua", prob)
            tree = enumerate_tree(planner, 3)
            for n in tree.nodes:
                assert is_unambiguous_brute(n.plan), (name, n.id)

    def test_ordering_edges_minimal(self):
        # dropping any edge added by the last extension either re-creates an
        # interaction with the new step or breaks deleter < new < needer
        prob = fixture("fig4")
        planner = make_planner("ua", prob)
        tree = enumerate_tree(planner, 4)
        for n in tree.nodes:
            if n.parent_id is None:
                continue
            parent = tree.node(n.parent_id).plan
            child = n.plan
            new_label = max(child.labels)
            added = child.order - parent.order
            new_step = child.steps[new_label]
            child_closure = closure_pairs(child)
            for edge in added:
                reduced = Plan(child.steps, child.order - {edge})
                if closure_pairs(reduced) == child_closure:
                    continue  # transitively redundant edge: relation unchanged
                (goal_entry,) = [
                    e
                    for e in tree.node(n.parent_id).goals
                    if e == planner.select_goal(parent, tree.node(n.parent_id).goals)
                ]
                deleter = last_deleter(parent, goal_entry.condition, goal_entry.needer)
                broken_base = not (
                    reduced.before(deleter, new_label)
                    and reduced.before(new_label, goal_entry.needer)
                    and reduced.before(INIT_STEP, new_label)
                    and reduced.before(new_label, FINAL_STEP)
                )
                recreated = any(
                    not reduced.before(lab, new_label)
                    and not reduced.before(new_label, lab)
                    and steps_interact(child.steps[lab], new_step)
                    for lab in parent.labels
                )
                assert broken_base or recreated

    def test_fig9_ratings_differ(self):
        prob = fixture("fig9")
        planner = make_planner("ua", prob)
        tree = enumerate_tree(planner, 3)
        node = find_node(tree, ["closer", "supplier"])
        result = planner.children(node.plan)
        assert len(result.children) == 2
        ratings = {}
        for child in result.children:
            relay = [s.label for s in child.steps if s.name == "relay"][0]
            supplier = [s.label for s in child.steps if s.name == "supplier"][0]
            before = child.before(supplier, relay)
            ratings[before] = len(planner.goal_set(child))
        assert ratings[True] < ratings[False]

    def test_ambiguous_input_rejected(self):
        plan = Plan(
            steps=(
                Step(INIT_STEP, "#init", adds=frozenset(["p"])),
                Step(FINAL_STEP, "#goal", pre=frozenset(["p", "q"])),
                Step(2, "a", adds=frozenset(["p"])),
                Step(3, "b", pre=frozenset(["p"]), dels=frozenset(["p"])),
            ),
            order=frozenset(
                {(INIT_STEP, FINAL_STEP), (INIT_STEP, 2), (2, FINAL_STEP), (INIT_STEP, 3), (3, FINAL_STEP)}
            ),
        )
        assert modal_status(plan, FINAL_STEP, "p") is ModalStatus.AMBIGUOUS
        prob = Problem("amb", frozenset(["p"]), frozenset(["p", "q"]), (make_op("q_op", adds=["q"]),))
        for kind in ("ua", "uac"):
            planner = make_planner(kind, prob)
            # every entry refuses alike, the goal queries included
            for entry in (planner.goal_set, planner.is_solution, planner.children):
                with pytest.raises(ValueError, match="requires an unambiguous plan"):
                    entry(plan)


class TestExtensionCharacterizations:
    """Brute-force cross-checks: each generator's children must equal the
    declarative characterization of its one-step extensions."""

    @staticmethod
    def to_extension_set(planner, plan):
        """All totally ordered one-step superplans with the new step after the
        last deleter and before the needer."""
        goals = planner.goal_set(plan)
        if not goals:
            return []
        entry = planner.select_goal(plan, goals)
        c, needer = entry.condition, entry.needer
        seq = plan.sequence
        label = len(plan.steps)
        out = []
        for op in planner.problem.library:
            if c not in op.adds:
                continue
            new_step = Step.from_schema(op, label)
            for pos in range(1, len(seq)):
                chain = seq[:pos] + (label,) + seq[pos:]
                edges = set(plan.order)
                edges |= {(INIT_STEP, label), (label, FINAL_STEP)}
                edges |= set(zip(chain, chain[1:]))
                cand = Plan(
                    tuple(sorted(plan.steps + (new_step,), key=lambda s: s.label)),
                    frozenset(edges),
                )
                if not cand.before(label, needer):
                    continue
                deleter = last_deleter(cand, c, needer)
                if deleter != label and not cand.before(deleter, label):
                    continue
                out.append(cand)
        return out

    @staticmethod
    def ua_extension_set(planner, plan):
        """All minimal consistent interaction-free one-step superplans.

        Ordering minimality is judged within one operator choice: different
        operators are independent branches of operator selection.
        """
        goals = planner.goal_set(plan)
        if not goals:
            return []
        entry = planner.select_goal(plan, goals)
        c, needer = entry.condition, entry.needer
        label = len(plan.steps)
        out = []
        for op in planner.problem.library:
            if c not in op.adds:
                continue
            new_step = Step.from_schema(op, label)
            steps = tuple(sorted(plan.steps + (new_step,), key=lambda s: s.label))
            middles = [lab for lab in plan.labels if lab not in (INIT_STEP, FINAL_STEP)]
            valid = []
            for combo in itertools.product((-1, 0, 1), repeat=len(middles)):
                edges = set(plan.order) | {(INIT_STEP, label), (label, FINAL_STEP)}
                for other, rel in zip(middles, combo):
                    if rel == -1:
                        edges.add((other, label))
                    elif rel == 1:
                        edges.add((label, other))
                cand = Plan(steps, frozenset(edges))
                try:
                    cand.linear_order
                except ValueError:
                    continue
                if not cand.before(label, needer):
                    continue
                deleter = last_deleter(cand, c, needer)
                if deleter != label and not cand.before(deleter, label):
                    continue
                if any(
                    not cand.before(lab, label)
                    and not cand.before(label, lab)
                    and steps_interact(plan.steps[lab], new_step)
                    for lab in plan.labels
                ):
                    continue
                valid.append(cand)
            closures = [closure_pairs(cand) for cand in valid]
            out.extend(
                cand
                for i, cand in enumerate(valid)
                if not any(
                    j != i and closures[j] < closures[i] for j in range(len(valid))
                )
            )
        return out

    @staticmethod
    def assert_same_up_to_equivalence(generated, brute):
        # the brute set may contain equivalent duplicates; compare both ways
        for g in generated:
            assert any(equivalent(g, b) for b in brute), "generated child not in characterized set"
        for b in brute:
            assert any(equivalent(b, g) for g in generated), "characterized candidate not generated"

    def test_to_children_match_characterization_on_samples(self):
        rng = random.Random(42)
        checked = 0
        for name in ("fig2", "fig9", "sussman"):
            prob = fixture(name)
            planner = make_planner("to", prob)
            tree = enumerate_tree(planner, 3)
            parents = [n for n in tree.nodes if n.children_ids]
            rng.shuffle(parents)
            for n in parents[:8]:
                generated = [tree.node(k).plan for k in n.children_ids]
                brute = self.to_extension_set(planner, n.plan)
                self.assert_same_up_to_equivalence(generated, brute)
                checked += 1
        assert checked >= 15

    def test_ua_children_match_characterization_on_samples(self):
        rng = random.Random(43)
        checked = 0
        for name in ("fig4", "fig9", "sussman"):
            prob = fixture(name)
            planner = make_planner("ua", prob)
            tree = enumerate_tree(planner, 3)
            parents = [n for n in tree.nodes if n.children_ids]
            rng.shuffle(parents)
            for n in parents[:6]:
                generated = [tree.node(k).plan for k in n.children_ids]
                brute = self.ua_extension_set(planner, n.plan)
                self.assert_same_up_to_equivalence(generated, brute)
                checked += 1
        assert checked >= 12

    def test_interaction_pop_order_does_not_change_child_set(self):
        # resolve interacting steps in every order: same emitted set
        prob = fixture("fig4")
        planner = make_planner("ua", prob)
        tree = enumerate_tree(planner, 4)
        node = find_node(tree, ["wrecker", "helper_a", "helper_b"])
        baseline = [tree.node(k).plan for k in node.children_ids]
        brute = self.ua_extension_set(planner, node.plan)
        self.assert_same_up_to_equivalence(baseline, brute)


class TestLinearizationTraceback:
    def test_child_linearizations_trace_back(self):
        # removing the new step from a child's linearization leaves a
        # linearization of the parent that the total-order planner extends
        # into that same chain
        from planlab.model import is_linearization, restrict

        prob = fixture("fig4")
        ua = make_planner("ua", prob)
        to = make_planner("to", prob)
        tree = enumerate_tree(ua, 4)
        for n in tree.nodes:
            if n.parent_id is None:
                continue
            parent = tree.node(n.parent_id).plan
            new_label = max(n.plan.labels)
            for lin in linearization_plans(n.plan)[:6]:
                reduced = restrict(lin, [lab for lab in lin.labels if lab != new_label])
                assert is_linearization(reduced, parent)
                to_result = to.children(_reseat(reduced, parent))
                assert any(equivalent(child, lin) for child in to_result.children)


def _reseat(total_plan, like):
    """Give a value plan the derivation position of `like` (for generators
    that only read structure)."""
    return Plan(
        steps=total_plan.steps,
        order=total_plan.order,
        parent=like.parent,
        depth=like.depth,
    )


class TestCounters:
    def test_to_step4_constant(self):
        prob = fixture("sussman")
        planner = make_planner("to", prob)
        tree = enumerate_tree(planner, 3)
        for n in tree.nodes:
            if n.cost is not None:
                assert n.cost.step4_edge_visits <= 4

    def test_to_step5_linear_in_steps(self):
        prob = fixture("sussman")
        planner = make_planner("to", prob)
        tree = enumerate_tree(planner, 3)
        for n in tree.nodes:
            if n.cost is not None:
                assert n.cost.step5_visits <= 4 * len(n.plan.steps)

    def test_ua_step4_linear_in_edges(self):
        for name in ("fig4", "sussman"):
            prob = fixture(name)
            planner = make_planner("ua", prob)
            tree = enumerate_tree(planner, 3)
            for n in tree.nodes:
                if n.cost is not None:
                    assert n.cost.step4_edge_visits <= 4 * len(n.plan.order)
                    assert n.cost.step5_visits <= 4 * len(n.plan.order)

    def test_children_count_matches(self, tiny_problem):
        planner = make_planner("to", tiny_problem)
        result = planner.children(planner.root())
        assert len(result.costs) == len(result.children) > 0

    @pytest.mark.parametrize("name", ["fig9", "fig13", "fig17"])
    @pytest.mark.parametrize("kind", ["to", "ua", "toc", "uac", "mt"])
    def test_step5_visits_per_kind(self, name, kind):
        def expected(plan):
            if kind in ("to", "toc"):
                return len(plan.steps)
            if kind in ("ua", "uac"):
                return len(plan.order) + 2 * len(plan.steps)
            return len(precondition_entries(plan)) * len(plan.order)

        tree = enumerate_tree(make_planner(kind, fixture(name)), 5)
        costs = [(n.cost.step5_visits, expected(n.plan)) for n in tree.nodes if n.cost is not None]
        assert costs and all(got == want for got, want in costs)


# (problem, kind, depth, children, sum, sha256 prefix of the repr of the
# preorder list of ChildCost.step4_edge_visits), recorded while every adder
# instance of a goal still rebuilt the shared ordering context itself.
STEP4_PINS = [
    ("fig9", "ua", 5, 5, 45, "b52720e8212258ff"),
    ("fig9", "uac", 5, 5, 45, "b52720e8212258ff"),
    ("fig13", "ua", 5, 2, 11, "8050091b38c975da"),
    ("fig13", "uac", 5, 21, 204, "7cf1ee51e743e4d1"),
    ("fig17", "ua", 5, 81, 1295, "d49b3d279898eeb5"),
    ("fig17", "uac", 5, 81, 1295, "d49b3d279898eeb5"),
    ("sussman", "ua", 5, 1007, 16650, "ad3fe7ea22cbc001"),
    ("sussman", "uac", 5, 1007, 16650, "ad3fe7ea22cbc001"),
    ("blocks4_seed11", "ua", 3, 145, 1303, "a959d1dd4869b980"),
]


class TestStep4Pins:
    @pytest.mark.parametrize("name, kind, depth, count, total, digest", STEP4_PINS)
    def test_ua_step4_visits_pinned(self, name, kind, depth, count, total, digest):
        tree = enumerate_tree(make_planner(kind, named_problem(name)), depth)
        visits = [n.cost.step4_edge_visits for n in tree.nodes if n.cost is not None]
        got = (len(visits), sum(visits), hashlib.sha256(repr(visits).encode()).hexdigest()[:16])
        assert got == (count, total, digest)


class TestLazyGoals:
    @pytest.mark.parametrize("kind", ["to", "ua", "toc", "uac", "mt"])
    def test_children_leave_goals_uncomputed(self, kind):
        planner = make_planner(kind, fixture("fig17"))
        plan = planner.root()
        for _ in range(3):
            result = planner.children(plan)
            assert result.children
            assert not any(child in planner._goal_cache for child in result.children)
            plan = result.children[-1]
        # the first read computes and caches the goals
        goals = planner.goal_set(plan)
        assert planner._goal_cache[plan] is goals


class TestLeafDecision:
    """A derived ``ua`` plan carries the linearization ``model.extend``
    derived for it, its parent's with the new step right after its last
    predecessor, and is decided by it.  Only when a successor of the new
    step comes earlier in the parent's order does the plan sort its own."""

    def test_a_child_the_insertion_fits_carries_it(self, kahn_sorts):
        # supplier (3) < relay (4) < closer (2): the parent carries the
        # order it was built with, the supplier right after the initial
        # step, so the relay fits between the supplier and the closer.
        problem = fixture("fig9")
        tree = enumerate_tree(make_planner("ua", problem), 3)
        node = find_node(tree, ["closer", "supplier", "relay"], require_goals=False)
        child = node.plan
        new = len(child.steps) - 1
        assert (child.predecessors[new], child.successors[new]) == ((0, 3), (1, 2))
        assert child.parent.linear_order == (0, 3, 2, 1)
        assert child.linear_order == (0, 3, 4, 2, 1)
        assert kahn_sorts == [tree.nodes[0].plan]  # the root alone was sorted
        assert make_planner("ua", problem).is_solution(child) and not node.goals

    def test_a_child_sorts_when_a_successor_comes_first(self, kahn_sorts):
        # In the parent's order (0, 3, 2, 1) the new step's predecessor 2
        # comes after its successor 3, so no insertion fits.
        problem = named_problem("blocks4_seed11")
        tree = enumerate_tree(make_planner("ua", problem), 3)
        fallbacks = [plan for plan in kahn_sorts if plan.parent is not None]
        assert len(fallbacks) == 2
        for child in fallbacks:
            new = len(child.steps) - 1
            assert child.parent.linear_order == (0, 3, 2, 1)
            assert (child.predecessors[new], child.successors[new]) == ((0, 2), (1, 3))
            assert child.linear_order == (0, 2, 4, 3, 1)
        assert len(kahn_sorts) == 3 and len(tree.nodes) > 100

    def test_goal_set_simulates_the_carried_order(self, kahn_sorts):
        # Rating a child reads its goal set, which simulates the order it
        # carries, here often not the smallest-label-first one: no sort, and
        # the goals a fresh plan's order gives.
        problem = fixture("fig9")
        tree = enumerate_tree(make_planner("ua", problem), 3)
        children = [n.plan for n in tree.nodes if n.plan.parent is not None]
        assert children and len(kahn_sorts) == 1
        planner = make_planner("ua", problem)
        goals = [planner.goal_set(child) for child in children]
        assert len(kahn_sorts) == 1
        fresh = [Plan(steps=child.steps, order=child.order) for child in children]
        assert goals == [tuple(false_in_sequence(f, f.linear_order)) for f in fresh]
        assert any(c.linear_order != f.linear_order for c, f in zip(children, fresh))


class TestLazyChildren:
    @staticmethod
    def wide_parent(kind):
        """The planner and the first sussman plan with more than two children."""
        planner = make_planner(kind, fixture("sussman"))
        for node in enumerate_tree(planner, 3).nodes:
            if node.goals and len(node.children_ids) > 2:
                return planner, node.plan
        raise AssertionError("no wide node")

    @pytest.mark.parametrize("kind", ["to", "ua"])
    def test_children_built_only_when_indexed(self, kind, monkeypatch):
        built = []

        def spy(*args):
            built.append(args)
            return extend(*args)

        planner, plan = self.wide_parent(kind)
        extend = planners.extend
        monkeypatch.setattr(planners, "extend", spy)
        result = planner.children(plan)
        assert len(result.children) > 2 and built == []
        child = result.children[1]
        assert len(built) == 1
        assert result.children[1] is child and len(built) == 1  # kept once built
        assert list(result.children)[1] is child
        assert result.children[1:3] == [child, result.children[2]]
        assert len(built) == len(result.children)

    @pytest.mark.parametrize("kind", ["to", "ua"])
    def test_transient_view_keeps_no_child(self, kind):
        planner, plan = self.wide_parent(kind)
        result = planner.children(plan)
        view = result.children.transient()
        assert len(view) == len(result.children)
        assert view[0] is not view[0]
        assert [c.order for c in view] == [c.order for c in result.children]
        assert result.children[0] is result.children[0]

    @pytest.mark.parametrize("kind", ["to", "ua", "toc", "uac", "mt"])
    def test_dead_end_children_empty(self, kind):
        prob = Problem("stuck", frozenset(), frozenset(["g"]), (make_op("noop", adds=["x"]),))
        result = make_planner(kind, prob).children(initial_plan(prob))
        assert result.children == () and result.costs == ()

    @pytest.mark.parametrize("name", ["fig9", "fig13", "fig17", "sussman"])
    @pytest.mark.parametrize("kind", ["to", "ua", "toc", "uac", "mt"])
    def test_one_cost_per_child(self, name, kind):
        planner = make_planner(kind, fixture(name))
        parents = [n.plan for n in enumerate_tree(planner, 3).nodes if n.goals]
        for plan in parents:
            result = planner.children(plan)
            assert len(result.costs) == len(result.children)


class TestGoalSelection:
    def test_deterministic_takes_first(self, tiny_problem):
        planner = make_planner("to", tiny_problem)
        goals = (GoalEntry(1, "a"), GoalEntry(1, "b"))
        assert planner.select_goal(planner.root(), goals) == GoalEntry(1, "a")

    def test_seeded_is_reproducible(self, tiny_problem):
        cfg = PlannerConfig(goal_selection="seeded", seed=9)
        p1 = make_planner("to", tiny_problem, cfg)
        p2 = make_planner("to", tiny_problem, cfg)
        goals = tuple(GoalEntry(1, f"p{i}") for i in range(5))
        root = p1.root()
        assert p1.select_goal(root, goals) == p2.select_goal(p2.root(), goals)
        # the second pick may be read back from the memo; the reference draws afresh
        assert p2.select_goal(p2.root(), goals) == seeded_goal_brute(cfg, root, goals)

    def test_seeded_varies_with_seed(self, tiny_problem):
        goals = tuple(GoalEntry(1, f"p{i}") for i in range(8))
        chosen = {
            make_planner(
                "to", tiny_problem, PlannerConfig(goal_selection="seeded", seed=s)
            ).select_goal(initial_plan(tiny_problem), goals)
            for s in range(10)
        }
        assert len(chosen) > 1

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_every_extension_draws_the_reference_goal(self, seed):
        """Every extended node of seeded trees of all five kinds, over the
        fixtures, suite problems of every class and a chain problem, picks
        the goal a fresh RNG draws, single-goal nodes included."""
        cfg = PlannerConfig(goal_selection="seeded", seed=seed)
        suite = standard_suite()
        problems = [fixture(name) for name in fixture_names()]
        problems += [suite[i][1] for i in (0, 12, 23, 34)] + [d1s1_problem([3, 5, 6])]
        extended = {1: 0, 2: 0}
        for problem in problems:
            conditional = any(op.cadds or op.cdels for op in problem.library)
            for kind in ("uac", "toc") if conditional else ("ua", "to", "mt"):
                for plan, goals, chosen in seeded_picks(kind, problem, cfg, 4):
                    assert chosen == seeded_goal_brute(cfg, plan, goals), (problem.name, kind)
                    extended[min(len(goals), 2)] += 1
        assert extended[1] > 0 and extended[2] > 0

    def test_a_lone_goal_draws_nothing(self, tiny_problem, monkeypatch):
        def refuse(*args):
            raise AssertionError("no RNG for a lone goal")

        monkeypatch.setattr(planners.random, "Random", refuse)
        planner = make_planner("to", tiny_problem, PlannerConfig(goal_selection="seeded", seed=5))
        root = planner.root()
        assert planner.select_goal(root, (GoalEntry(1, "a"),)) == GoalEntry(1, "a")
        # the patch is live: two goals under a seed no other test uses miss the memo
        unused = make_planner("to", tiny_problem, PlannerConfig(goal_selection="seeded", seed=-424242))
        with pytest.raises(AssertionError, match="no RNG"):
            unused.select_goal(root, (GoalEntry(1, "a"), GoalEntry(1, "b")))

    def test_a_to_tree_reads_back_the_draws_of_the_ua_tree(self):
        cfg = PlannerConfig(goal_selection="seeded", seed=11)
        problem = fixture("sussman")
        enumerate_tree(make_planner("ua", problem, cfg), 4)
        before = planners._seeded_index.cache_info()
        enumerate_tree(make_planner("to", problem, cfg), 4)
        after = planners._seeded_index.cache_info()
        assert after.hits > before.hits

    def test_the_draw_memo_is_bounded(self):
        assert planners._seeded_index.cache_info().maxsize == 1024

    @pytest.mark.parametrize("mode", ["seded", "Seeded", "random", ""])
    def test_unknown_mode_refused(self, mode):
        with pytest.raises(ValueError, match=f"unknown goal selection {mode!r}"):
            PlannerConfig(goal_selection=mode, seed=5)


class TestChildPlans:
    """A child's derived or inherited order views (adjacency, closure and
    linearization, role variants' copies) must agree with what a freshly
    built plan computes: a ``ua`` plan's linearization need not be the
    fresh plan's, but must be one."""

    @pytest.mark.parametrize(
        "name, kind, depth",
        [
            ("fig9", "ua", 5),
            # several adder instances per goal with interacting candidates,
            # at its oracle depth
            ("blocks4_seed11", "ua", 3),
            ("fig13", "uac", 4),
            ("fig13", "toc", 4),
            ("fig17", "mt", 5),
            ("sussman", "ua", 3),
            ("sussman", "to", 3),
            ("sussman", "mt", 3),
        ],
    )
    def test_every_node_matches_a_fresh_plan(self, name, kind, depth):
        tree = enumerate_tree(make_planner(kind, named_problem(name)), depth)
        for node in tree.nodes:
            plan = node.plan
            fresh = Plan(steps=plan.steps, order=plan.order)
            assert plan.predecessors == fresh.predecessors
            assert plan.successors == fresh.successors
            assert orders_forward(plan, plan.linear_order)
            if kind in ("to", "toc"):
                assert plan.linear_order == fresh.linear_order
            assert plan.is_total == fresh.is_total
            assert plan.after == fresh.after
            assert list(plan.labels) == sorted(plan.labels)
            parent = None if node.parent_id is None else tree.nodes[node.parent_id].plan
            assert plan.parent is parent
