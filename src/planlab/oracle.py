"""Independent state-space oracle.

A forward breadth-first search over world states, used to establish
minimal solution lengths without touching any plan-space machinery.
The search gives each of the problem's propositions one bit and holds a
state as an int; an operator applies when its precondition bits are all
set, and conditional effects fire exactly when their dependencies hold in
the state being transformed.  ``apply_operator`` is the same step on
frozensets of propositions, for callers that execute a plan's steps.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .model import CondEffect, OperatorSchema, Problem

STATE_CEILING = 200_000


class OracleCeilingError(RuntimeError):
    """The state-space search visited more states than allowed."""


def apply_operator(state: frozenset[str], op: OperatorSchema) -> frozenset[str]:
    dels = set(op.dels)
    adds = set(op.adds)
    for ce in op.cdels:
        if ce.deps <= state:
            dels.add(ce.effect)
    for ce in op.cadds:
        if ce.deps <= state:
            adds.add(ce.effect)
    return frozenset((state - dels) | adds)


def _conditional(mask, effects: tuple[CondEffect, ...]) -> tuple[tuple[int, int], ...]:
    # most operators have no conditional effects; skip building a generator
    if not effects:
        return ()
    return tuple((mask(ce.deps), mask((ce.effect,))) for ce in effects)


def minimal_solution_length(problem: Problem) -> Optional[int]:
    """Length of the shortest operator sequence from init to the goals,
    or None when the goals are unreachable.  Refuses a search that visits
    more than `STATE_CEILING` states."""
    bits: dict[str, int] = {}

    def mask(props: Iterable[str]) -> int:
        m = 0
        for p in props:
            m |= bits.setdefault(p, 1 << len(bits))
        return m

    start, goals = mask(problem.init), mask(problem.goals)
    if goals & ~start == 0:
        return 0
    ops = [
        (
            mask(op.pre),
            mask(op.adds),
            mask(op.dels),
            _conditional(mask, op.cadds),
            _conditional(mask, op.cdels),
        )
        for op in problem.library
    ]
    seen = {start}
    frontier, dist = [start], 0
    while frontier:
        dist += 1
        reached = []
        for state in frontier:
            absent = ~state
            for pre, adds, dels, cadds, cdels in ops:
                if pre & absent:
                    continue
                # conditional effects test the state before the operator;
                # adds and dels are rebound for each operator from `ops`
                for deps, effect in cdels:
                    if deps & absent == 0:
                        dels |= effect
                for deps, effect in cadds:
                    if deps & absent == 0:
                        adds |= effect
                nxt = state & ~dels | adds
                if nxt in seen:
                    continue
                if goals & ~nxt == 0:
                    return dist
                seen.add(nxt)
                if len(seen) > STATE_CEILING:
                    raise OracleCeilingError(
                        f"state-space search exceeded {STATE_CEILING} states"
                    )
                reached.append(nxt)
        frontier = reached
    return None
