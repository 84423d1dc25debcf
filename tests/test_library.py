"""Compiled operator libraries: one compile per library, shared by every
problem that holds it or an equal one.

``model.compile_library`` gives operator selection its adder index,
``Problem.lint`` the propositions the library adds and mentions, and the
state-space oracle its proposition bits and operator masks.  These tests
check that problems built from one block count, chain problems and two
parses of one text share one compiled form, that building the benchmark's
``verify`` problem set compiles exactly its 5 libraries, that oracle
queries naming propositions outside a library leave its shared bits
alone, and that ``lint`` gives the library scan's warnings.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from planlab import model, oracle
from planlab.domains import (
    CHAIN_SIZE,
    BlocksworldSpec,
    blocksworld_problem,
    d1s1_problem,
    fixture,
    fixture_names,
    parse_problem,
    serialize_problem,
    standard_suite,
)
from planlab.model import compile_library
from planlab.oracle import minimal_solution_length

from helpers import lint_brute
from test_properties import PROPS, conditional_problems, problems

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import workloads  # noqa: E402


def test_problems_of_one_block_count_share_one_compiled_form():
    for n in (2, 3, 4):
        built = [blocksworld_problem(BlocksworldSpec(n_blocks=n, seed=seed)) for seed in range(5)]
        built += [p for _, p in standard_suite() if p.library is built[0].library]
        assert len(built) > 5 and all(p.compiled is built[0].compiled for p in built)
    assert fixture("sussman").compiled is blocksworld_problem(BlocksworldSpec(3, 0)).compiled
    assert blocksworld_problem(BlocksworldSpec(3, 0)).compiled is not blocksworld_problem(BlocksworldSpec(4, 0)).compiled


def test_chain_problems_share_one_compiled_form():
    chains = [d1s1_problem(combo) for size in (1, 2) for combo in itertools.combinations(range(1, CHAIN_SIZE + 1), size)]
    assert all(p.compiled is chains[0].compiled for p in chains)
    assert chains[0].adders is chains[-1].adders


def test_two_parses_of_one_text_share_one_compiled_form():
    for name in fixture_names():
        text = serialize_problem(fixture(name))
        first, second = parse_problem(text), parse_problem(text)
        assert first.library is not second.library
        assert first.compiled is second.compiled is compile_library(first.library)


def test_building_the_verify_problem_set_compiles_five_libraries(monkeypatch):
    compiled = []
    init = model.CompiledLibrary.__init__

    def spy(self, library):
        compiled.append(library)
        init(self, library)

    monkeypatch.setattr(model.CompiledLibrary, "__init__", spy)
    monkeypatch.setattr(oracle, "_last", None)
    compile_library.cache_clear()
    try:
        setup = workloads.build("verify", 0)
        for entry in setup.problems.values():
            entry.problem.adders, entry.problem.lint()
    finally:
        compile_library.cache_clear()
    assert len(setup.problems) == 22 + 575 + 2
    assert len(compiled) == 5  # blocks 3 and 4, the chain, fig13, fig17
    assert {fixture("fig13").library, fixture("fig17").library, d1s1_problem([1]).library} < set(compiled)


def test_oracle_queries_leave_the_shared_bits_alone(monkeypatch):
    monkeypatch.setattr(oracle, "_last", None)
    chain, sussman = d1s1_problem([1]), fixture("sussman")
    shared = {p.name: dict(p.compiled.bits) for p in (chain, sussman)}
    queries = [
        (replace(chain, goals=frozenset({"g1", "nowhere"})), None),
        (replace(chain, init=chain.init | {"stray"}), 1),
        (replace(sussman, init=sussman.init | {"stray"}, goals=sussman.goals | {"elsewhere"}), None),
        (replace(sussman, init=frozenset({"loose"}), goals=frozenset({"loose"})), 0),
    ]
    for problem, length in queries:
        assert minimal_solution_length(problem) == length
        assert {"stray", "nowhere", "elsewhere", "loose"} & oracle._last.bits.keys()
    for p in (chain, sussman):
        assert p.compiled.bits == shared[p.name]
        assert not {"stray", "nowhere", "elsewhere", "loose"} & p.compiled.bits.keys()


def test_lint_gives_the_library_scan_on_the_fixtures():
    for name in fixture_names():
        problem = fixture(name)
        for variant in (problem, replace(problem, init=problem.init | {"stray"}, goals=problem.goals | {"nowhere"})):
            assert variant.lint() == lint_brute(variant)


NAMES = st.sets(st.sampled_from(PROPS + ("x", "y")), max_size=3)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(problem=st.one_of(problems(), conditional_problems()), init=NAMES, goals=NAMES)
def test_lint_gives_the_library_scan_on_generated_problems(problem, init, goals):
    # extra initial propositions and goals, perhaps ones no operator names,
    # so that both warnings occur
    variant = replace(problem, init=frozenset(init), goals=problem.goals | goals)
    assert variant.lint() == lint_brute(variant)
