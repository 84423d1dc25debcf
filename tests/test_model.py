from __future__ import annotations

import random

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
    equivalent,
    extend,
    initial_plan,
    is_linearization,
    linear_extensions,
    make_op,
    restrict,
)

from conftest import brute_topological_orders, chain_plan, linearization_plans, random_plan


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


def chain(k: int) -> set[tuple[int, int]]:
    """Edges ordering middle steps 2 .. k+1 in label order."""
    return {(2 + i, 3 + i) for i in range(k - 1)}


class TestInitialPlan:
    def test_empty_goals_immediate_solution(self):
        prob = Problem("empty", frozenset(["p"]), frozenset(), ())
        plan = initial_plan(prob)
        assert len(plan.steps) == 2
        assert plan.step(FINAL_STEP).pre == frozenset()
        assert plan.order == {(INIT_STEP, FINAL_STEP)}
        assert plan.depth == 0 and plan.parent is None

    def test_chain_domain_initial_plan(self):
        from planlab.domains import d1s1_problem

        prob = d1s1_problem([1, 2])
        plan = initial_plan(prob)
        assert plan.step(INIT_STEP).adds == frozenset(f"i{k}" for k in range(1, 16))
        assert plan.step(FINAL_STEP).pre == {"g1", "g2"}

    def test_sussman_initial_plan(self):
        from planlab.domains import fixture

        plan = initial_plan(fixture("sussman"))
        assert plan.step(FINAL_STEP).pre == {"on_a_b", "on_b_c"}


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

    def test_unknown_label_raises(self):
        plan = plan_of(set(), middle=1)
        with pytest.raises(ValueError, match="no step labeled 99"):
            plan.step(99)

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

    def test_repeated_signatures_backtrack_past_a_dead_end(self):
        # Labels 2:A, 3:A, 4:B with 3 < 4.  The first ready A (label 2)
        # leaves B waiting on label 3, so the search must back up.
        plan = plan_of({(3, 4)}, names=["A", "A", "B"])
        total = plan_of(chain(3), names=["A", "B", "A"])
        assert is_linearization(total, plan)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_agrees_with_linear_extension_oracle(self, data):
        pool = data.draw(st.sampled_from(["AB", "ABCDEF"]))
        names = data.draw(st.lists(st.sampled_from(pool), max_size=5))
        k = len(names)
        edges = {
            (2 + i, 2 + j)
            for i in range(k)
            for j in range(i + 1, k)
            if data.draw(st.booleans())
        }
        plan = plan_of(edges, names=names)
        chain_names = [names[i] for i in data.draw(st.permutations(range(k)))]
        if k and data.draw(st.booleans()):
            chain_names[data.draw(st.integers(0, k - 1))] = "Z"
        total = plan_of(chain(k), names=chain_names)

        def signatures(p, seq):
            return tuple(p.step(lab).signature for lab in seq)

        oracle = signatures(total, total.sequence) in {
            signatures(plan, seq) for seq in linear_extensions(plan)
        }
        assert is_linearization(total, plan) == oracle


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
        plan = plan_of({(2, 3), (3, 4)})
        sub = restrict(plan, [INIT_STEP, FINAL_STEP, 2, 4])
        assert sub.before(2, 4)
        assert len(sub.steps) == 4

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
        child.validate()

    def test_acyclic_after_extension(self, tiny_problem):
        root = initial_plan(tiny_problem)
        step = Step.from_schema(tiny_problem.library[0], 2)
        child = extend(root, step, {(INIT_STEP, 2), (2, FINAL_STEP)})
        child.linear_order  # raises on a cycle

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

    def test_repeated_signatures_refused_past_the_step_ceiling(self):
        names = ["A"] * 35
        plan = plan_of(set(), names=names)
        with pytest.raises(PlanSizeError):
            is_linearization(plan_of(chain(35), names=names), plan)


class TestOperatorSchema:
    def test_delete_must_be_precondition(self):
        with pytest.raises(ValueError, match="must be a precondition"):
            make_op("bad", pre=["a"], dels=["b"])

    def test_conditional_delete_membership(self):
        from planlab.model import cond

        with pytest.raises(ValueError, match="dependency"):
            make_op("bad", cdels=[cond(["a"], "b")])
