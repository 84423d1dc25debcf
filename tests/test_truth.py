from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planlab.domains import d1s1_problem, fixture
from planlab.model import (
    FINAL_STEP,
    INIT_STEP,
    Plan,
    Problem,
    Step,
    initial_plan,
    restrict,
)
from planlab.planners import make_planner
from planlab.trees import enumerate_tree
from planlab.truth import (
    AmbiguousLastDeleter,
    GoalEntry,
    ModalStatus,
    false_in_sequence,
    is_unambiguous,
    last_deleter,
    modal_status,
    modal_status_brute,
    precondition_entries,
    steps_interact,
    true_in_sequence,
)

from conftest import chain_plan, random_plan
from helpers import equivalent, is_compact_solution, is_solution_plan, is_unambiguous_brute


def build(steps_spec, edges):
    """steps_spec: {label: (name, pre, adds, dels)}."""
    steps = []
    for lab, (name, pre, adds, dels) in steps_spec.items():
        steps.append(
            Step(lab, name, pre=frozenset(pre), adds=frozenset(adds), dels=frozenset(dels))
        )
    all_edges = set(edges) | {(INIT_STEP, FINAL_STEP)}
    for lab in steps_spec:
        if lab not in (INIT_STEP, FINAL_STEP):
            all_edges.add((INIT_STEP, lab))
            all_edges.add((lab, FINAL_STEP))
    return Plan(tuple(sorted(steps, key=lambda s: s.label)), frozenset(all_edges))


def two_step_ambiguous():
    """One unordered adder and one unordered deleter of the goal's prop."""
    return build(
        {
            INIT_STEP: ("#init", (), ("p",), ()),
            FINAL_STEP: ("#goal", ("p",), (), ()),
            2: ("adder", (), ("p",), ()),
            3: ("deleter", ("p",), (), ("p",)),
        },
        set(),
    )


class TestTotalOrderTruth:
    def test_added_never_deleted(self):
        plan = build(
            {
                INIT_STEP: ("#init", (), ("p",), ()),
                FINAL_STEP: ("#goal", ("p",), (), ()),
            },
            set(),
        )
        assert true_in_sequence(plan, plan.sequence, FINAL_STEP, "p")

    def test_intervening_deleter(self):
        plan = build(
            {
                INIT_STEP: ("#init", (), ("p",), ()),
                FINAL_STEP: ("#goal", ("p",), (), ()),
                2: ("del_p", ("p",), (), ("p",)),
            },
            set(),
        )
        assert not true_in_sequence(plan, plan.sequence, FINAL_STEP, "p")

    def test_chain_domain_marker_wiped(self):
        prob = d1s1_problem([1, 2])
        plan = chain_plan(prob, ["o2", "o1"])
        o1 = [s.label for s in plan.steps if s.name == "o1"][0]
        assert not true_in_sequence(plan, plan.sequence, o1, "i1")

    def test_requires_total_order(self):
        plan = two_step_ambiguous()
        with pytest.raises(ValueError):
            true_in_sequence(plan, plan.sequence, FINAL_STEP, "p")


class TestModalStatus:
    def test_totally_ordered_never_ambiguous(self):
        prob = d1s1_problem([1])
        plan = chain_plan(prob, ["o1"])
        for entry in precondition_entries(plan):
            assert (
                modal_status(plan, entry.needer, entry.condition)
                is not ModalStatus.AMBIGUOUS
            )

    def test_unordered_adder_deleter_ambiguous(self):
        plan = two_step_ambiguous()
        assert modal_status(plan, FINAL_STEP, "p") is ModalStatus.AMBIGUOUS

    def test_agrees_with_brute_oracle_on_random_plans(self):
        rng = random.Random(31)
        for _ in range(60):
            plan = random_plan(rng)
            for entry in precondition_entries(plan):
                assert modal_status(plan, entry.needer, entry.condition) is (
                    modal_status_brute(plan, entry.needer, entry.condition)
                )

    def test_fast_path_agrees_when_unambiguous(self):
        rng = random.Random(77)
        checked = 0
        for _ in range(120):
            plan = random_plan(rng)
            if not is_unambiguous_brute(plan):
                continue
            # one linearization decides an unambiguous plan: the ua goal update
            false = set(false_in_sequence(plan, plan.linear_order))
            for entry in precondition_entries(plan):
                brute = modal_status_brute(plan, entry.needer, entry.condition)
                assert (entry in false) is (brute is ModalStatus.NECESSARILY_FALSE)
                checked += 1
        assert checked > 10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_projection_matches_brute(self, seed):
        plan = random_plan(random.Random(seed))
        for entry in precondition_entries(plan):
            assert modal_status(plan, entry.needer, entry.condition) is (
                modal_status_brute(plan, entry.needer, entry.condition)
            )


class TestModalMemo:
    """`modal_status` with a memo shared across plans answers as the
    all-linearizations oracle does on each full plan."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 100_000), min_size=1, max_size=30))
    def test_shared_memo_matches_brute(self, seeds):
        # Labels 2.. recur across the plans for other operators in other
        # roles; the second pass answers projections from the memo.
        plans = [random_plan(random.Random(seed), max_middle=5) for seed in seeds]
        memo: dict = {}
        for plan in plans + plans:
            for entry in precondition_entries(plan):
                assert modal_status(plan, entry.needer, entry.condition, memo) is (
                    modal_status_brute(plan, entry.needer, entry.condition)
                )

    def test_repeated_labels_in_other_roles(self):
        # Each plan has steps 2 and 3 ordered 2 < 3 and step 2 is always
        # "op"; only what step 2 and step 3 do to p differs.
        cases = [
            ((("p",), ()), ((), ("p",)), ModalStatus.NECESSARILY_FALSE),
            (((), ("p",)), (("p",), ()), ModalStatus.NECESSARILY_TRUE),
            (((), ("p",)), (("p",), ("p",)), ModalStatus.NECESSARILY_TRUE),
            (((), ("p",)), ((), ("p",)), ModalStatus.NECESSARILY_FALSE),
        ]
        memo: dict = {}
        for (adds2, dels2), (adds3, dels3), expected in cases + cases:
            plan = build(
                {
                    INIT_STEP: ("#init", (), (), ()),
                    FINAL_STEP: ("#goal", ("p",), (), ()),
                    2: ("op", (), adds2, dels2),
                    3: ("op3", (), adds3, dels3),
                },
                {(2, 3)},
            )
            assert modal_status_brute(plan, FINAL_STEP, "p") is expected
            assert modal_status(plan, FINAL_STEP, "p", memo) is expected
        assert len(memo) == len(cases)

    def test_hit_neither_restricts_nor_enumerates(self, monkeypatch):
        import planlab.truth as truth

        memo: dict = {}
        plan = two_step_ambiguous()
        assert modal_status(plan, FINAL_STEP, "p", memo) is ModalStatus.AMBIGUOUS

        def refuse(*args):
            raise AssertionError("a memo hit must not rebuild the projection")

        monkeypatch.setattr(truth, "restrict", refuse)
        monkeypatch.setattr(truth, "linear_extensions", refuse)
        # an unrelated extra step leaves the projection, and so the key, alone
        wider = build(
            {
                **{s.label: (s.name, s.pre, s.adds, s.dels) for s in plan.steps},
                4: ("idle", (), ("q",), ()),
            },
            plan.order,
        )
        assert modal_status(wider, FINAL_STEP, "p", memo) is ModalStatus.AMBIGUOUS

    @pytest.mark.parametrize("name", ["fig17", "sussman"])
    def test_mt_goal_sets_equal_with_fresh_and_reused_memo(self, name):
        # fig17 has no deleters, so it pins the closure-only path; sussman's
        # depth-4 tree answers most of its projections from the memo.
        problem = fixture(name)
        tree = enumerate_tree(make_planner("mt", problem), 4)
        for node in tree.nodes:
            assert make_planner("mt", problem).goal_set(node.plan) == node.goals, node.id


class TestLastDeleter:
    def test_defaults_to_initial_step(self):
        plan = build(
            {
                INIT_STEP: ("#init", (), ("p",), ()),
                FINAL_STEP: ("#goal", ("p",), (), ()),
            },
            set(),
        )
        assert last_deleter(plan, "p", FINAL_STEP) == INIT_STEP

    def test_latest_of_two_chained_deleters(self):
        plan = build(
            {
                INIT_STEP: ("#init", (), ("p",), ()),
                FINAL_STEP: ("#goal", ("p",), (), ()),
                2: ("d1", ("p",), (), ("p",)),
                3: ("d2", ("p",), (), ("p",)),
            },
            {(2, 3)},
        )
        assert last_deleter(plan, "p", FINAL_STEP) == 3

    def test_chain_domain_example(self):
        prob = d1s1_problem([1, 2])
        plan = chain_plan(prob, ["o2", "o1"])
        o1 = [s.label for s in plan.steps if s.name == "o1"][0]
        o2 = [s.label for s in plan.steps if s.name == "o2"][0]
        assert last_deleter(plan, "i1", o1) == o2

    def test_unordered_deleters_raise(self):
        plan = build(
            {
                INIT_STEP: ("#init", (), ("p",), ()),
                FINAL_STEP: ("#goal", ("p",), (), ()),
                2: ("d1", ("p",), (), ("p",)),
                3: ("d2", ("p",), (), ("p",)),
            },
            set(),
        )
        with pytest.raises(AmbiguousLastDeleter):
            last_deleter(plan, "p", FINAL_STEP)

    def test_never_after_needer_and_gap_clean(self):
        rng = random.Random(5)
        for _ in range(40):
            plan = random_plan(rng)
            for entry in precondition_entries(plan):
                try:
                    d = last_deleter(plan, entry.condition, entry.needer)
                except AmbiguousLastDeleter:
                    continue
                assert not plan.before(entry.needer, d)
                for s in plan.steps:
                    if entry.condition in s.dels and s.label not in (d, entry.needer):
                        assert not (
                            plan.before(d, s.label)
                            and plan.before(s.label, entry.needer)
                        )


class TestInteracts:
    def test_ordering_is_ignored(self):
        plan = build(
            {
                INIT_STEP: ("#init", (), (), ()),
                FINAL_STEP: ("#goal", (), (), ()),
                2: ("a", (), ("r",), ()),
                3: ("b", ("r",), (), ()),
            },
            {(2, 3)},
        )
        assert plan.before(2, 3)
        assert steps_interact(plan.steps[2], plan.steps[3])

    def test_precondition_added_by_other(self):
        plan = build(
            {
                INIT_STEP: ("#init", (), (), ()),
                FINAL_STEP: ("#goal", (), (), ()),
                2: ("a", (), ("r",), ()),
                3: ("b", ("r",), (), ()),
            },
            set(),
        )
        assert steps_interact(plan.steps[2], plan.steps[3])

    def test_conditional_add_counts_only_in_conditional_mode(self):
        from planlab.model import cond

        maybe_r = Step(2, "maybe_r", cadds=(cond(["t"], "r"),))
        wants_r = Step(3, "wants_r", pre=frozenset(["r"]))
        assert not steps_interact(maybe_r, wants_r, "basic")
        assert steps_interact(maybe_r, wants_r, "conditional")

    def test_symmetry(self):
        rng = random.Random(13)
        for _ in range(40):
            plan = random_plan(rng)
            mids = [plan.steps[lab] for lab in plan.middle_labels]
            for i, a in enumerate(mids):
                for b in mids[i + 1 :]:
                    for mode in ("basic", "conditional"):
                        assert steps_interact(a, b, mode) == steps_interact(b, a, mode)


class TestUnambiguity:
    def test_totally_ordered_always_unambiguous(self, tiny_problem):
        plan = chain_plan(tiny_problem, ["spoil", "win"])
        assert is_unambiguous(plan)

    def test_ambiguous_two_step_example(self):
        assert not is_unambiguous(two_step_ambiguous())

    def test_matches_brute(self):
        rng = random.Random(99)
        for _ in range(50):
            plan = random_plan(rng)
            assert is_unambiguous(plan) == is_unambiguous_brute(plan)


def goals(kind: str, plan: Plan) -> tuple[GoalEntry, ...]:
    """Open goals of `plan` under the `kind` planner's goal semantics."""
    problem = Problem("hand-built", frozenset(), frozenset(), ())
    return make_planner(kind, problem).goal_set(plan)


class TestGoalSet:
    def test_solved_plan_empty_under_all_semantics(self, tiny_problem):
        plan = chain_plan(tiny_problem, ["win"])
        for kind in ("to", "ua", "mt"):
            assert goals(kind, plan) == ()

    def test_initial_plan_sussman_goals(self):
        problem = fixture("sussman")
        entries = make_planner("to", problem).goal_set(initial_plan(problem))
        assert entries == (
            GoalEntry(FINAL_STEP, "on_a_b"),
            GoalEntry(FINAL_STEP, "on_b_c"),
        )

    def test_ambiguous_entry_kept_by_mt(self):
        plan = two_step_ambiguous()
        assert modal_status(plan, FINAL_STEP, "p") is ModalStatus.AMBIGUOUS
        assert (FINAL_STEP, "p") in [e.key() for e in goals("mt", plan)]

    def test_total_plans_agree_across_semantics(self, tiny_problem):
        for ops in (["spoil"], ["win", "spoil"], ["spoil", "win"]):
            plan = chain_plan(tiny_problem, ops)
            assert goals("to", plan) == goals("ua", plan) == goals("mt", plan)

    def test_unambiguous_ua_equals_mt(self):
        # the ua planner's one-linearization shortcut against exact modal truth
        rng = random.Random(55)
        checked = 0
        for _ in range(60):
            plan = random_plan(rng)
            if is_unambiguous(plan):
                assert goals("ua", plan) == goals("mt", plan)
                checked += 1
        assert checked > 10

    def test_deterministic_order(self):
        plan = build(
            {
                INIT_STEP: ("#init", (), (), ()),
                FINAL_STEP: ("#goal", ("zz", "aa"), (), ()),
                2: ("needy", ("mm",), (), ()),
            },
            set(),
        )
        for kind in ("ua", "mt"):
            assert goals(kind, plan) == (
                GoalEntry(FINAL_STEP, "aa"),
                GoalEntry(FINAL_STEP, "zz"),
                GoalEntry(2, "mm"),
            )


class TestCompactness:
    def test_non_solution_raises(self):
        plan = two_step_ambiguous()
        with pytest.raises(ValueError):
            is_compact_solution(plan)

    def test_duplicate_step_not_compact(self, tiny_problem):
        plan = chain_plan(tiny_problem, ["win", "win"])
        assert is_solution_plan(plan)
        assert not is_compact_solution(plan)

    def test_minimal_chain_solution_compact(self):
        prob = d1s1_problem([1, 2])
        plan = chain_plan(prob, ["o1", "o2"])
        assert is_solution_plan(plan)
        assert is_compact_solution(plan)

    def test_initial_plan_subplan_of_solutions(self, tiny_problem):
        root = initial_plan(tiny_problem)
        solution = chain_plan(tiny_problem, ["win"])
        assert equivalent(root, restrict(solution, root.labels))
