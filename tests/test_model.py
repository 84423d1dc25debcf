from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planlab import model
from planlab.model import (
    FINAL_STEP,
    INIT_STEP,
    Plan,
    PlanSizeError,
    Problem,
    Step,
    extend,
    initial_plan,
    is_linearization,
    linear_extensions,
    make_op,
    restrict,
    with_steps,
)

from conftest import brute_topological_orders, chain_plan, linearization_plans, random_plan
from helpers import equivalent, is_linearization_brute, validate_plan


def plan_of(edges, middle=3, names=None) -> Plan:
    """Middle steps 2, 3, ... named `names` (default: distinct ``op{i}``),
    each between the sentinels, plus `edges`."""
    if names is None:
        names = [f"op{i}" for i in range(middle)]
    steps = [Step(INIT_STEP, "#init"), Step(FINAL_STEP, "#goal")]
    for i, name in enumerate(names):
        steps.append(Step(2 + i, name))
    all_edges = set(edges)
    for s in steps:
        if s.label not in (INIT_STEP, FINAL_STEP):
            all_edges.add((INIT_STEP, s.label))
            all_edges.add((s.label, FINAL_STEP))
    all_edges.add((INIT_STEP, FINAL_STEP))
    return Plan(tuple(steps), frozenset(all_edges))


def draw_plan(data) -> tuple[list[str], Plan]:
    """Up to five middle steps named from a small pool, so names often
    repeat, and any edges that go forward in label order."""
    pool = data.draw(st.sampled_from(["AB", "ABCDEF"]))
    names = data.draw(st.lists(st.sampled_from(pool), max_size=5))
    k = len(names)
    edges = {(2 + i, 2 + j) for i in range(k) for j in range(i + 1, k) if data.draw(st.booleans())}
    return names, plan_of(edges, names=names)


def chain(k: int) -> set[tuple[int, int]]:
    """Edges ordering middle steps 2 .. k+1 in label order."""
    return {(2 + i, 3 + i) for i in range(k - 1)}


class TestInitialPlan:
    def test_empty_goals_immediate_solution(self):
        prob = Problem("empty", frozenset(["p"]), frozenset(), ())
        plan = initial_plan(prob)
        assert len(plan.steps) == 2
        assert plan.steps[FINAL_STEP].pre == frozenset()
        assert plan.order == {(INIT_STEP, FINAL_STEP)}
        assert plan.depth == 0 and plan.parent is None

    def test_chain_domain_initial_plan(self):
        from planlab.domains import d1s1_problem

        prob = d1s1_problem([1, 2])
        plan = initial_plan(prob)
        assert plan.steps[INIT_STEP].adds == frozenset(f"i{k}" for k in range(1, 16))
        assert plan.steps[FINAL_STEP].pre == {"g1", "g2"}

    def test_sussman_initial_plan(self):
        from planlab.domains import fixture

        plan = initial_plan(fixture("sussman"))
        assert plan.steps[FINAL_STEP].pre == {"on_a_b", "on_b_c"}


class TestOrderingRelation:
    def test_initial_plan_edge(self):
        prob = Problem("p", frozenset(), frozenset(), ())
        plan = initial_plan(prob)
        assert plan.before(INIT_STEP, FINAL_STEP)

    def test_chain_after(self):
        plan = plan_of({(2, 3)}, middle=2)
        assert plan.before(2, 3) and not plan.before(3, 2)

    def test_unordered(self):
        plan = plan_of(set(), middle=2)
        assert not plan.before(2, 3) and not plan.before(3, 2)

    def test_transitive_before(self):
        plan = plan_of({(2, 3), (3, 4)})
        assert plan.before(2, 4)

    def test_no_step_before_itself(self):
        rng = random.Random(17)
        for _ in range(20):
            plan = random_plan(rng)
            assert not any(plan.before(lab, lab) for lab in plan.labels)


class TestLinearizations:
    def test_totally_ordered_has_one(self):
        plan = plan_of({(2, 3), (3, 4)})
        assert len(linear_extensions(plan)) == 1

    def test_three_parallel_steps_factorial(self):
        plan = plan_of(set(), middle=3)
        assert len(linear_extensions(plan)) == 6

    def test_counts_match_brute_force(self):
        rng = random.Random(7)
        for _ in range(25):
            plan = random_plan(rng)
            assert len(linear_extensions(plan)) == len(brute_topological_orders(plan))

    def test_linearizations_are_total_and_contain_original(self):
        plan = plan_of({(2, 3)})
        for lin in linearization_plans(plan):
            assert lin.is_total
            assert plan.order <= lin.order
            assert is_linearization(lin, plan)

    def test_length_one_iff_total(self):
        rng = random.Random(11)
        for _ in range(20):
            plan = random_plan(rng)
            assert (len(linear_extensions(plan)) == 1) == plan.is_total


class TestIsLinearization:
    def test_total_plan_linearizes_itself(self):
        plan = plan_of({(2, 3), (3, 4)})
        assert is_linearization(plan, plan)

    def test_respects_partial_order(self):
        partial = plan_of(set(), middle=2)
        total_a = plan_of({(2, 3)}, middle=2)
        total_b = plan_of({(3, 2)}, middle=2)
        assert is_linearization(total_a, partial)
        assert is_linearization(total_b, partial)

    def test_violating_order_rejected(self):
        constrained = plan_of({(2, 3)}, middle=2)
        flipped = plan_of({(3, 2)}, middle=2)
        assert not is_linearization(flipped, constrained)

    def test_partial_candidate_rejected(self):
        partial = plan_of(set(), middle=2)
        assert not is_linearization(partial, partial)

    def test_implies_single_linearization(self):
        plan = plan_of({(2, 3), (3, 4)})
        assert len(linear_extensions(plan)) == 1

    def test_labels_must_match_not_just_signatures(self):
        # Labels 2:A, 3:A, 4:B with 3 < 4, against the chain A < B < A: the
        # bijection reading maps label 3 to the chain's label 2, but label
        # for label, label 3 is A in one plan and B in the other.
        plan = plan_of({(3, 4)}, names=["A", "A", "B"])
        total = plan_of(chain(3), names=["A", "B", "A"])
        assert is_linearization_brute(total, plan)
        assert not is_linearization(total, plan)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_label_for_label_oracle(self, data):
        names, plan = draw_plan(data)
        k = len(names)
        seq = [2 + i for i in data.draw(st.permutations(range(k)))]
        total_names = list(names)
        if k and data.draw(st.booleans()):
            total_names[data.draw(st.integers(0, k - 1))] = "Z"
        total = plan_of(set(zip(seq, seq[1:])), names=total_names)

        oracle = total.sequence in linear_extensions(plan) and all(
            total.steps[lab].signature == plan.steps[lab].signature for lab in plan.labels
        )
        assert is_linearization(total, plan) == oracle

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_brute_agrees_with_a_bijection_search(self, data):
        names, plan = draw_plan(data)
        k = len(names)
        chain_names = [names[i] for i in data.draw(st.permutations(range(k)))]
        if k and data.draw(st.booleans()):
            chain_names[data.draw(st.integers(0, k - 1))] = "Z"
        total = plan_of(chain(k), names=chain_names)

        # Some signature-preserving map of the middle labels onto the
        # chain's puts every edge forward; the sentinels map to themselves.
        position = {lab: i for i, lab in enumerate(total.sequence)}
        middle = plan.middle_labels
        oracle = any(
            all(plan.steps[a].signature == total.steps[b].signature for a, b in image.items())
            and all(position[image[a]] < position[image[b]] for a, b in plan.order)
            for image in (
                {INIT_STEP: INIT_STEP, FINAL_STEP: FINAL_STEP, **dict(zip(middle, perm))}
                for perm in itertools.permutations(total.middle_labels)
            )
        )
        assert is_linearization_brute(total, plan) == oracle
        if is_linearization(total, plan):
            assert oracle


class TestEquivalence:
    def test_relabeling(self, tiny_problem):
        a = chain_plan(tiny_problem, ["win", "spoil"])
        # same operators, labels swapped
        b_steps = [
            Step(INIT_STEP, "#init", adds=frozenset(["p"])),
            Step(FINAL_STEP, "#goal", pre=frozenset(["g"])),
            Step.from_schema(tiny_problem.library[1], 2),  # spoil
            Step.from_schema(tiny_problem.library[0], 3),  # win
        ]
        edges = {(INIT_STEP, 3), (3, 2), (2, FINAL_STEP), (INIT_STEP, 2), (3, FINAL_STEP), (INIT_STEP, FINAL_STEP)}
        b = Plan(tuple(sorted(b_steps, key=lambda s: s.label)), frozenset(edges))
        assert equivalent(a, b)

    def test_distinct_operator_orders_not_equivalent(self, tiny_problem):
        a = chain_plan(tiny_problem, ["win", "spoil"])
        b = chain_plan(tiny_problem, ["spoil", "win"])
        assert not equivalent(a, b)

    def test_same_sequence_from_different_objects(self, tiny_problem):
        a = chain_plan(tiny_problem, ["win", "win"])
        b = chain_plan(tiny_problem, ["win", "win"])
        assert a is not b and equivalent(a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_reflexive(self, seed):
        plan = random_plan(random.Random(seed))
        assert equivalent(plan, plan)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_symmetric(self, s1, s2):
        p1 = random_plan(random.Random(s1))
        p2 = random_plan(random.Random(s2))
        assert equivalent(p1, p2) == equivalent(p2, p1)

    def test_transitive_on_sample(self):
        rng = random.Random(3)
        plans = [random_plan(rng, max_middle=3) for _ in range(12)]
        for a in plans:
            for b in plans:
                for c in plans:
                    if equivalent(a, b) and equivalent(b, c):
                        assert equivalent(a, c)


class TestSubplans:
    # p1 is a subplan of p2 iff p1 is equivalent to p2 restricted to some steps
    def test_initial_plan_is_subplan_of_extensions(self, tiny_problem):
        root = initial_plan(tiny_problem)
        bigger = chain_plan(tiny_problem, ["win", "spoil"])
        assert equivalent(root, restrict(bigger, root.labels))

    def test_restriction_drops_steps_keeps_order(self):
        # The kept labels 0, 1, 2, 4 become 0, 1, 2, 3; 2 < 4 survives
        # through the dropped step 3.
        plan = plan_of({(2, 3), (3, 4)})
        sub = restrict(plan, [4, FINAL_STEP, INIT_STEP, 2])
        assert [s.label for s in sub.steps] == [0, 1, 2, 3]
        assert [s.signature for s in sub.steps] == [plan.steps[lab].signature for lab in (0, 1, 2, 4)]
        assert sub.before(2, 3)
        assert sub.order == {(0, 1), (0, 2), (0, 3), (2, 1), (2, 3), (3, 1)}

    def test_restriction_without_sentinels_starts_at_label_zero(self):
        plan = plan_of({(3, 4)})
        sub = restrict(plan, [3, 4])
        assert [s.name for s in sub.steps] == ["op1", "op2"]
        assert sub.order == {(0, 1)}

    def test_not_subplan_when_operators_missing(self, tiny_problem):
        a = chain_plan(tiny_problem, ["spoil"])
        b = chain_plan(tiny_problem, ["win", "win"])
        for lab in b.middle_labels:
            assert not equivalent(a, restrict(b, [INIT_STEP, FINAL_STEP, lab]))


class TestExtend:
    def test_extension_links_parent_and_depth(self, tiny_problem):
        root = initial_plan(tiny_problem)
        step = Step.from_schema(tiny_problem.library[0], 2)
        child = extend(root, step, {(INIT_STEP, 2), (2, FINAL_STEP)})
        assert child.parent is root
        assert child.depth == 1
        validate_plan(child)

    def test_acyclic_after_extension(self, tiny_problem):
        root = initial_plan(tiny_problem)
        step = Step.from_schema(tiny_problem.library[0], 2)
        child = extend(root, step, {(INIT_STEP, 2), (2, FINAL_STEP)})
        child.linear_order  # raises on a cycle

    @pytest.mark.parametrize(
        "edges",
        [{(FINAL_STEP, 2)}, {(3, 2)}, {(2, 3), (3, 4), (4, 2)}, {(3, 3)}],
        ids=["through-the-parent", "reversed", "new-loop", "self"],
    )
    def test_closure_from_the_parent_refuses_a_cycle(self, edges, kahn_sorts):
        # The parent's closure is cached, so the child derives its own from
        # it; an edge closing a cycle must be refused there, without a sort.
        # A plan without a parent closes its order along its linearization,
        # so the sort refuses the same cycle.
        parent = plan_of(chain(2), middle=2)
        assert parent.before(2, 3)
        child = extend(parent, Step(4, "op2"), {(INIT_STEP, 4), (4, FINAL_STEP)} | edges)
        with pytest.raises(ValueError, match="plan ordering contains a cycle"):
            child.after
        fresh = Plan(child.steps, child.order)
        with pytest.raises(ValueError, match="plan ordering contains a cycle"):
            fresh.after
        assert kahn_sorts == [parent, fresh]

    def test_closure_from_the_parent_equals_a_fresh_one(self, kahn_sorts):
        parent = plan_of(chain(2), middle=4)
        parent.after, parent.predecessors, parent.successors
        # Step 4 comes before step 5 in the parent's linearization, so the
        # child, with 5 before 6 before 4, is not linearized by ``extend``.
        edges = {(INIT_STEP, 6), (6, FINAL_STEP), (3, 6), (5, 6), (6, 4)}
        child = extend(parent, Step(6, "op4"), edges)
        assert child.before(2, 4) and child.before(5, 4) and not child.before(4, 5)
        fresh = Plan(child.steps, child.order)
        assert child.after == fresh.after
        assert child.predecessors == fresh.predecessors
        assert child.successors == fresh.successors
        # A closure derived from the parent's needs no linearization, so the
        # child is never sorted; a closure computed afresh sorts its plan.
        assert kahn_sorts == [parent, fresh]
        # No new edge touches step 2, so adjacency derived from the parent's
        # shares its entries for step 2; adjacency computed afresh builds its own.
        assert child.predecessors[2] is parent.predecessors[2]
        assert child.successors[2] is parent.successors[2]

    def test_child_inserts_its_step_into_the_parents_linearization(self, kahn_sorts):
        parent = plan_of(chain(2), middle=4)
        assert parent.linear_order == (0, 2, 3, 4, 5, 1)
        child = extend(parent, Step(6, "op4"), {(INIT_STEP, 6), (6, FINAL_STEP), (3, 6), (6, 4)})
        assert child.new_edges == {(INIT_STEP, 6), (6, FINAL_STEP), (3, 6), (6, 4)}
        assert child.linear_order == (0, 2, 3, 6, 4, 5, 1)  # right after step 3
        assert child.predecessors == Plan(child.steps, child.order).predecessors
        assert child.successors == Plan(child.steps, child.order).successors
        # The parent's closure was never asked for, so the child closes its
        # order along its own linearization, which it was not sorted for.
        assert child.after == Plan(child.steps, child.order).after
        assert not child.is_total and child not in kahn_sorts
        # A child without a new step (only mt builds one) sorts its own.
        grandchild = extend(child, None, {(4, 5)})
        assert grandchild.is_total and kahn_sorts[-1] is grandchild

    def test_child_sorts_when_a_successor_comes_first(self, kahn_sorts):
        # Step 4 comes before step 5 in the parent's linearization, so no
        # insertion of a step after 5 and before 4 runs every edge forward.
        parent = plan_of(set(), middle=4)
        assert parent.linear_order.index(4) < parent.linear_order.index(5)
        edges = {(INIT_STEP, 6), (6, FINAL_STEP), (5, 6), (6, 4)}
        child = extend(parent, Step(6, "op4"), edges)
        assert child.linear_order == (0, 2, 3, 5, 6, 4, 1) and kahn_sorts[-1] is child
        # A parent never linearized gives the child nothing to derive from.
        unsorted = plan_of(set(), middle=4)
        assert extend(unsorted, Step(6, "op4"), edges).linear_order == (0, 2, 3, 5, 6, 4, 1)
        assert len(kahn_sorts) == 3

    def test_with_steps_keeps_the_order_views_only(self):
        plan = plan_of(chain(2), middle=3)
        plan.after, plan.linear_order
        steps = tuple(replace(s, name=s.name + "'") for s in plan.steps)
        variant = with_steps(plan, steps)
        assert variant.steps == steps and variant.order == plan.order
        assert variant.after is plan.after
        assert variant.linear_order is plan.linear_order
        assert variant.steps[2].name == "op0'"

    @pytest.mark.parametrize("labels", [(1, 0), (0, 1, 3), (0, 2, 1, 3)])
    def test_a_plan_without_a_parent_refuses_labels_that_are_not_positions(self, labels):
        steps = tuple(Step(lab, f"op{lab}") for lab in labels)
        with pytest.raises(ValueError, match="must be their positions"):
            Plan(steps, frozenset())

    @pytest.mark.parametrize("label", [1, 3])
    def test_refuses_a_label_that_is_not_fresh(self, tiny_problem, label):
        root = initial_plan(tiny_problem)
        step = Step.from_schema(tiny_problem.library[0], label)
        with pytest.raises(ValueError, match="new step label [13] must be 2"):
            extend(root, step, {(INIT_STEP, label), (label, FINAL_STEP)})


class TestCeilings:
    def test_linear_extension_count_ceiling(self, monkeypatch):
        monkeypatch.setattr(model, "EXTENSION_CEILING", 100)
        plan = plan_of(set(), middle=8)
        with pytest.raises(PlanSizeError, match="exceeded 100 sequences"):
            linear_extensions(plan)

    def test_step_ceiling(self):
        plan = plan_of(set(), middle=35)
        with pytest.raises(PlanSizeError):
            linear_extensions(plan)

    def test_distinct_signatures_checked_past_the_step_ceiling(self):
        plan = plan_of(set(), middle=35)
        assert is_linearization(plan_of(chain(35), middle=35), plan)

    def test_repeated_signatures_decided_past_the_step_ceiling(self):
        names = ["A"] * 35
        total = plan_of(chain(35), names=names)
        assert is_linearization(total, plan_of(set(), names=names))
        assert not is_linearization(total, plan_of({(3, 2)}, names=names))


class TestOperatorSchema:
    def test_delete_must_be_precondition(self):
        with pytest.raises(ValueError, match="must be a precondition"):
            make_op("bad", pre=["a"], dels=["b"])

    def test_conditional_delete_membership(self):
        from planlab.model import cond

        with pytest.raises(ValueError, match="dependency"):
            make_op("bad", cdels=[cond(["a"], "b")])
