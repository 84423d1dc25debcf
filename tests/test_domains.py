from __future__ import annotations

import hashlib
import itertools

import pytest

from planlab.domains import (
    CHAIN_SIZE,
    BlocksworldSpec,
    ParseError,
    blocksworld_operators,
    blocksworld_problem,
    d1s1_problem,
    fixture,
    fixture_names,
    parse_problem,
    serialize_problem,
)
from planlab.model import CondEffect, Problem, make_op
from planlab.oracle import minimal_solution_length
from planlab.planners import make_planner
from planlab.search import StrategyConfig, bfs


class TestBlocksworld:
    def test_operators_satisfy_delete_convention(self):
        for op in blocksworld_operators(4):
            op.validate()
            assert op.dels <= op.pre

    def test_two_block_stack_length_one(self):
        prob = Problem(
            "two",
            frozenset(["on_table_a", "on_table_b", "clear_a", "clear_b"]),
            frozenset(["on_a_b"]),
            blocksworld_operators(2),
        )
        assert minimal_solution_length(prob) == 1

    def test_sussman_length_three(self):
        assert minimal_solution_length(fixture("sussman")) == 3

    def test_generator_deterministic(self):
        a = blocksworld_problem(BlocksworldSpec(n_blocks=3, seed=17))
        b = blocksworld_problem(BlocksworldSpec(n_blocks=3, seed=17))
        assert a == b

    def test_generated_problems_solvable(self):
        for seed in range(12):
            prob = blocksworld_problem(BlocksworldSpec(n_blocks=3, seed=seed))
            length = minimal_solution_length(prob)
            assert length is not None and length >= 1

    def test_oracle_agrees_with_plan_space_search(self):
        for seed in (2, 4, 6):
            prob = blocksworld_problem(BlocksworldSpec(n_blocks=3, seed=seed))
            length = minimal_solution_length(prob)
            out = bfs(
                make_planner("to", prob),
                StrategyConfig(strategy="bfs", depth_limit=length),
            )
            assert out.solved and out.solution_length == length

    def test_block_count_bounds(self):
        with pytest.raises(ValueError):
            BlocksworldSpec(n_blocks=1, seed=0)

    def test_suite_problems_with_one_block_count_share_one_library(self):
        from planlab.domains import SUITE_ENTRIES, standard_suite

        for (_, n_blocks, _), (_, problem) in zip(SUITE_ENTRIES, standard_suite()):
            assert problem.library is blocksworld_operators(n_blocks)
        assert fixture("sussman").library is blocksworld_operators(3)

    def test_suite_serializes_as_when_each_problem_built_its_own_library(self):
        # sha1 of the 44 suite serializations in suite order, and of the
        # fixture built on the 3-block library, as written when every
        # blocksworld problem built a fresh library
        from planlab.domains import standard_suite

        digest = hashlib.sha1()
        for _, problem in standard_suite():
            digest.update(serialize_problem(problem).encode())
        assert digest.hexdigest() == "10de6242d66b355f60feaa4c8c2778c4f5eaa732"
        sussman = serialize_problem(fixture("sussman")).encode()
        assert hashlib.sha1(sussman).hexdigest() == "b3ac6aae38f8d694b77d62b4964eef3897a2f6f0"


class TestChainDomain:
    def test_single_goal_unique_solution(self):
        prob = d1s1_problem([3])
        assert minimal_solution_length(prob) == 1

    def test_consecutive_goals_forced_order(self):
        from planlab.trees import enumerate_tree

        prob = d1s1_problem([1, 2])
        tree = enumerate_tree(make_planner("ua", prob), 2)
        sols = tree.solutions()
        assert len(sols) == 1
        plan = sols[0].plan
        o1 = [s.label for s in plan.steps if s.name == "o1"][0]
        o2 = [s.label for s in plan.steps if s.name == "o2"][0]
        assert plan.before(o1, o2)

    def test_three_goals_single_totally_ordered_solution(self):
        from planlab.trees import enumerate_tree

        prob = d1s1_problem([1, 2, 3])
        tree = enumerate_tree(make_planner("ua", prob), 3)
        sols = tree.solutions()
        assert len(sols) == 1
        assert sols[0].plan.is_total

    def test_first_operator_deletes_nothing_by_default(self):
        prob = d1s1_problem([1])
        o1 = [op for op in prob.library if op.name == "o1"][0]
        assert o1.dels == frozenset()

    def test_index_validation(self):
        with pytest.raises(ValueError):
            d1s1_problem([])
        with pytest.raises(ValueError):
            d1s1_problem([16])

    def test_every_chain_problem_shares_one_valid_library(self):
        assert d1s1_problem([1]).library is d1s1_problem([2, 5]).library
        for op in d1s1_problem([1]).library:
            op.validate()

    def test_chain_problems_serialize_as_when_each_built_its_own_library(self):
        # sha1 of the serializations of every chain subset of up to three
        # goals, in `itertools.combinations` order, as written when
        # `d1s1_problem` built a fresh library on every call
        digest = hashlib.sha1()
        for size in (1, 2, 3):
            for combo in itertools.combinations(range(1, CHAIN_SIZE + 1), size):
                digest.update(serialize_problem(d1s1_problem(combo)).encode())
        assert digest.hexdigest() == "91fac268b05ba68cd7e31f69b302cd30d1c934e5"


class TestSuite:
    def test_shape(self):
        from planlab.domains import SUITE_ENTRIES, standard_suite

        suite = standard_suite()
        assert len(suite) == 44
        by_class = {}
        for (length, _), entry in zip(suite, SUITE_ENTRIES):
            by_class.setdefault(length, []).append(entry)
            assert entry[0] == length
        assert {k: len(v) for k, v in by_class.items()} == {1: 11, 2: 11, 3: 11, 4: 11}

    def test_lengths_match_oracle(self):
        from planlab.domains import standard_suite

        for length, problem in standard_suite()[:12]:
            assert minimal_solution_length(problem) == length

    def test_finder_regenerates_prefix(self):
        # full regeneration is slow; one cheap class guards determinism
        from helpers import find_suite_entries
        from planlab.domains import SUITE_ENTRIES

        regenerated = find_suite_entries(per_class=3, classes=(2,), seed_limit=50)
        committed = tuple(e for e in SUITE_ENTRIES if e[0] == 2)[:3]
        assert regenerated == committed


class TestFixtures:
    def test_names(self):
        assert fixture_names() == ("fig13", "fig17", "fig2", "fig4", "fig9", "sussman")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixture("fig99")

    def test_all_fixtures_validate(self):
        for name in fixture_names():
            for op in fixture(name).library:
                op.validate()


class TestProblemFormat:
    def test_round_trip_chain_domain(self):
        prob = d1s1_problem([1])
        assert parse_problem(serialize_problem(prob)) == prob

    def test_round_trip_all_fixtures(self):
        for name in fixture_names():
            prob = fixture(name)
            assert parse_problem(serialize_problem(prob)) == prob

    def test_round_trip_conditional_effects(self):
        prob = Problem(
            "condy",
            frozenset(["a"]),
            frozenset(["b"]),
            (
                make_op(
                    "oc",
                    pre=["a", "k"],
                    adds=["b"],
                    dels=["a"],
                    cadds=[CondEffect(frozenset(["t", "u"]), "v")],
                    cdels=[CondEffect(frozenset(["k"]), "k")],
                ),
            ),
        )
        assert parse_problem(serialize_problem(prob)) == prob

    def test_comments_and_blank_lines(self):
        text = """
# a comment
problem demo
init: a b   # trailing comment
goal: c

operator act
  pre: a
  add: c
  del: a
end
"""
        prob = parse_problem(text)
        assert prob.init == {"a", "b"}
        assert prob.library[0].dels == {"a"}

    def test_delete_without_precondition_rejected(self):
        text = """problem bad
init: a
goal: b
operator oops
  pre: a
  add: b
  del: c
end
"""
        with pytest.raises(ParseError, match="precondition"):
            parse_problem(text)

    def test_conditional_delete_membership_rejected(self):
        text = """problem bad
init: a
goal: b
operator oops
  cdel: (d -> e)
end
"""
        with pytest.raises(ParseError, match="dependency"):
            parse_problem(text)

    def test_syntax_error_position(self):
        text = "problem demo\ninit: a\ngoal: b\nwhat is this\n"
        with pytest.raises(ParseError) as exc:
            parse_problem(text)
        assert exc.value.line == 4

    def test_invalid_proposition_rejected(self):
        with pytest.raises(ParseError, match="proposition"):
            parse_problem("problem demo\ninit: BadName\ngoal: b\n")

    def test_missing_sections_rejected(self):
        with pytest.raises(ParseError):
            parse_problem("problem demo\ninit: a\n")

    def test_lint_warns_unachievable_goal(self):
        prob = Problem("odd", frozenset(), frozenset(["g"]), (make_op("n", adds=["x"]),))
        warnings = prob.lint()
        assert any("goal 'g'" in w for w in warnings)

    def test_lint_warns_unreferenced_initial_proposition(self):
        prob = Problem("odd", frozenset(["stray", "a"]), frozenset(["g"]), (make_op("n", pre=["a"], adds=["g"]),))
        assert prob.lint() == ["initial proposition 'stray' is never referenced"]

    def test_lint_counts_a_conditional_add_as_an_achiever(self):
        op = make_op("n", cadds=[CondEffect(frozenset(["a"]), "g")])
        prob = Problem("odd", frozenset(["a"]), frozenset(["g"]), (op,))
        assert prob.lint() == []
