"""The state-space oracle's bitmask search against the frozenset search.

``minimal_solution_length`` holds states as ints, one bit per
proposition.  These tests pin the encoding's edge cases (conditional
effects tested against the state before the operator, goals nothing
mentions, empty libraries, goals true at the start), check that it gives
the frozenset search's length on every chain subset of up to three goals,
the 44 suite problems and every fixture, and that both searches refuse
at the same state ceiling.

Problems with one initial state and library share one reach, the search
the last query left.  These tests interleave chain, suite and fixture
queries, query a chain problem parsed from text (an equal library that
is another object), change the ceiling up and down on one reach, down to
0, query a goal nothing mentions on a populated reach, and check that a
query on a fresh reach meets no state the frozenset search would not and
that a search cut short by an exception is not resumed; every answer and
refusal is the frozenset search's.  Importing the oracle loads no
``planlab`` module but ``model``.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from planlab import oracle
from planlab.domains import (
    CHAIN_SIZE,
    d1s1_problem,
    fixture,
    fixture_names,
    parse_problem,
    serialize_problem,
    standard_suite,
)
from planlab.model import Problem, cond, make_op
from planlab.oracle import OracleCeilingError, apply_operator, minimal_solution_length

from helpers import minimal_solution_length_brute


def _problem(init, goals, *library) -> Problem:
    return Problem("edge", frozenset(init), frozenset(goals), tuple(library))


# Each conditional effect's dependency is deleted or added by its own
# operator, so testing it after the operator gives a different length.
BEFORE_THE_OPERATOR = {
    # p holds before the step, so q is added although the step deletes p
    "add whose dependency the step deletes": (
        _problem({"p"}, {"q"}, make_op("o", pre={"p"}, dels={"p"}, cadds=[cond({"p"}, "q")])),
        1,
    ),
    # r is false before the first step, so q needs a second one
    "add whose dependency the step adds": (
        _problem(set(), {"q"}, make_op("o", adds={"r"}, cadds=[cond({"r"}, "q")])),
        2,
    ),
    # p and s hold before o1, so s goes and o2 never applies
    "delete whose dependency the step deletes": (
        _problem(
            {"p", "s"},
            {"g"},
            make_op("o1", pre={"p"}, adds={"q"}, dels={"p"}, cdels=[cond({"p", "s"}, "s")]),
            make_op("o2", pre={"q", "s"}, adds={"g"}),
        ),
        None,
    ),
    # r is false before the step, so s stays
    "delete whose dependency the step adds": (
        _problem({"s"}, {"r", "s"}, make_op("o", adds={"r"}, cdels=[cond({"r", "s"}, "s")])),
        1,
    ),
}


@pytest.mark.parametrize("case", sorted(BEFORE_THE_OPERATOR))
def test_conditional_effects_fire_against_the_state_before_the_operator(case):
    problem, length = BEFORE_THE_OPERATOR[case]
    assert minimal_solution_length(problem) == length
    assert minimal_solution_length_brute(problem) == length


def test_the_edge_cases_step_as_apply_operator_does():
    problem, _ = BEFORE_THE_OPERATOR["add whose dependency the step deletes"]
    assert apply_operator(problem.init, problem.library[0]) == {"q"}
    problem, _ = BEFORE_THE_OPERATOR["delete whose dependency the step adds"]
    assert apply_operator(problem.init, problem.library[0]) == {"r", "s"}


def test_a_goal_nothing_mentions_is_unreachable():
    problem = _problem({"p"}, {"p", "nowhere"}, make_op("o", pre={"p"}, adds={"q"}))
    assert minimal_solution_length(problem) is None


def test_an_empty_library_solves_only_what_init_holds():
    assert minimal_solution_length(_problem({"p"}, {"q"})) is None
    assert minimal_solution_length(_problem({"p"}, {"p"})) == 0
    assert minimal_solution_length(_problem(set(), set())) == 0


def test_goals_already_true_need_no_step():
    problem = _problem({"p", "q"}, {"q"}, make_op("o", pre={"p"}, adds={"g"}, dels={"p"}))
    assert minimal_solution_length(problem) == 0


def _corpus() -> list[Problem]:
    chains = [
        d1s1_problem(combo)
        for size in (1, 2, 3)
        for combo in itertools.combinations(range(1, CHAIN_SIZE + 1), size)
    ]
    return chains + [p for _, p in standard_suite()] + [fixture(n) for n in fixture_names()]


def test_the_bitmask_search_gives_the_frozenset_length_on_every_committed_problem():
    corpus = _corpus()
    assert len(corpus) == 575 + 44 + len(fixture_names())
    for problem in corpus:
        assert minimal_solution_length(problem) == minimal_solution_length_brute(problem), problem.name


def _outcome(search, problem):
    try:
        return search(problem)
    except OracleCeilingError:
        return "refused"


@pytest.mark.parametrize("name", ["sussman", "fig13"])
def test_both_searches_refuse_at_the_same_state_ceiling(name, monkeypatch):
    # fig13 has conditional adds; sussman needs a dozen states, so the
    # ceilings 1..20 cover refusals and answers on both problems.
    problem = fixture(name)
    outcomes = set()
    for ceiling in range(1, 21):
        monkeypatch.setattr(oracle, "STATE_CEILING", ceiling)
        outcome = _outcome(minimal_solution_length, problem)
        assert outcome == _outcome(minimal_solution_length_brute, problem), ceiling
        outcomes.add(outcome)
    assert "refused" in outcomes and len(outcomes) == 2


# -- one reach per initial state and library ------------------------------


def _fresh(monkeypatch):
    monkeypatch.setattr(oracle, "_last", None)


def test_interleaved_chain_suite_and_fixture_queries(monkeypatch):
    _fresh(monkeypatch)
    rng = random.Random(0)
    corpus = _corpus()
    queries = rng.sample(corpus, 200) + rng.sample(corpus[:575], 50)
    rng.shuffle(queries)
    for problem in queries:
        assert minimal_solution_length(problem) == minimal_solution_length_brute(problem), problem.name


def test_chain_problems_share_one_search(monkeypatch):
    _fresh(monkeypatch)
    chain = d1s1_problem([2, 4])
    assert minimal_solution_length(chain) == minimal_solution_length_brute(chain)
    reach = oracle._last
    parsed = parse_problem(serialize_problem(d1s1_problem([1, 3, 5])))
    assert parsed.library == chain.library and parsed.library is not chain.library
    assert minimal_solution_length(parsed) == minimal_solution_length_brute(parsed)
    assert oracle._last is reach
    assert minimal_solution_length(fixture("sussman")) == 3
    assert oracle._last is not reach


def test_a_fresh_query_meets_no_state_past_its_answer(monkeypatch):
    # The brute search answers exactly when the ceiling admits every state
    # it met before the goal state, so the least ceiling it answers under
    # counts those states; the reach holds them and the goal state.
    problems = [fixture(n) for n in fixture_names()] + [d1s1_problem(g) for g in ([1], [2, 3], [4, 6, 7])]
    for problem in problems:
        _fresh(monkeypatch)
        length = minimal_solution_length(problem)
        if not length:
            continue
        met = len(oracle._last.met)
        assert oracle._last.met[-1][1] == length
        monkeypatch.setattr(oracle, "STATE_CEILING", met - 1)
        assert minimal_solution_length_brute(problem) == length, problem.name
        if met > 2:
            monkeypatch.setattr(oracle, "STATE_CEILING", met - 2)
            assert _outcome(minimal_solution_length_brute, problem) == "refused", problem.name
        monkeypatch.setattr(oracle, "STATE_CEILING", 200_000)


def test_one_reach_answers_as_the_ceiling_rises_and_falls(monkeypatch):
    _fresh(monkeypatch)
    problem = fixture("sussman")
    other = replace(problem, goals=frozenset({"on_c_b", "on_b_a"}))
    outcomes, reach = [], None
    for ceiling in (20, 3, 20, 2, 40, 1, 20):
        monkeypatch.setattr(oracle, "STATE_CEILING", ceiling)
        for each in (problem, other):
            outcome = _outcome(minimal_solution_length, each)
            assert outcome == _outcome(minimal_solution_length_brute, each), (ceiling, each.goals)
            outcomes.append(outcome)
        reach = reach or oracle._last
        assert oracle._last is reach
    assert "refused" in outcomes and 3 in outcomes


def test_a_zero_ceiling_admits_the_start_and_the_first_state_met(monkeypatch):
    one_step = _problem({"p"}, {"q"}, make_op("o", pre={"p"}, adds={"q"}))
    dead_end = _problem({"p"}, {"g"}, make_op("o", pre={"p"}, adds={"q"}))
    problems = [one_step, dead_end, _problem({"p"}, {"g"}), _problem({"p"}, {"p"})]
    problems += [fixture("sussman"), d1s1_problem([1]), d1s1_problem([2])]
    monkeypatch.setattr(oracle, "STATE_CEILING", 0)
    for fresh in (True, False):
        for problem in problems:
            if fresh:
                _fresh(monkeypatch)
            assert _outcome(minimal_solution_length, problem) == _outcome(minimal_solution_length_brute, problem)
    assert [_outcome(minimal_solution_length, p) for p in problems] == [1, "refused", None, 0, "refused", 1, "refused"]


def test_a_goal_nothing_mentions_on_a_populated_reach(monkeypatch):
    _fresh(monkeypatch)
    assert minimal_solution_length(d1s1_problem(range(1, CHAIN_SIZE + 1))) == CHAIN_SIZE
    nowhere = replace(d1s1_problem([1]), goals=frozenset({"g1", "nowhere"}))
    for ceiling in (200_000, 100):
        monkeypatch.setattr(oracle, "STATE_CEILING", ceiling)
        assert _outcome(minimal_solution_length, nowhere) == _outcome(minimal_solution_length_brute, nowhere)
    assert _outcome(minimal_solution_length, nowhere) == "refused"
    monkeypatch.setattr(oracle, "STATE_CEILING", 200_000)
    assert minimal_solution_length(nowhere) is None


def test_a_search_cut_short_is_not_resumed(monkeypatch):
    _fresh(monkeypatch)
    assert minimal_solution_length(d1s1_problem([1])) == 1

    def interrupted():
        raise KeyboardInterrupt
        yield

    oracle._last.grow = interrupted()
    deeper = d1s1_problem([2, 3])
    with pytest.raises(KeyboardInterrupt):
        minimal_solution_length(deeper)
    assert minimal_solution_length(deeper) == minimal_solution_length_brute(deeper)


def test_the_oracle_imports_only_the_model_from_planlab():
    # The oracle stays independent of the plan-space machinery: importing it
    # in a fresh interpreter loads no planners, truth, search or trees.
    src = str(Path(oracle.__file__).resolve().parents[1])
    code = "import sys, planlab.oracle; print(sorted(m for m in sys.modules if m.startswith('planlab')))"
    done = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(["planlab", "planlab.model", "planlab.oracle"])
