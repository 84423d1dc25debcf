"""The state-space oracle's bitmask search against the frozenset search.

``minimal_solution_length`` holds states as ints, one bit per
proposition.  These tests pin the encoding's edge cases (conditional
effects tested against the state before the operator, goals nothing
mentions, empty libraries, goals true at the start), check that it gives
the frozenset search's length on every chain subset of up to three goals,
the 44 suite problems and every fixture, and that both searches refuse
at the same state ceiling.
"""

from __future__ import annotations

import itertools

import pytest

from planlab import oracle
from planlab.domains import CHAIN_SIZE, d1s1_problem, fixture, fixture_names, standard_suite
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
