"""Independent state-space oracle.

A forward breadth-first search over world states, used to establish
minimal solution lengths without touching any plan-space machinery.
The search gives each of the problem's propositions one bit and holds a
state as an int; an operator applies when its precondition bits are all
set, and conditional effects fire exactly when their dependencies hold in
the state being transformed.  ``apply_operator`` is the same step on
frozensets of propositions, for callers that execute a plan's steps.

Problems that share an initial state and a library share one search, a
*reach*: the states met so far with their depths, in the order the search
met them, and the search itself, resumed one state at a time when a query
needs more.  The last reach lives on between calls, holding at most
``STATE_CEILING + 1`` states under the largest ceiling it was asked with.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

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


class _Reach:
    """The states reachable from `init` under `library`, as (state, depth)
    pairs in the order the breadth-first search first meets them;
    advancing `grow` appends the next one."""

    def __init__(self, init: frozenset[str], library: tuple[OperatorSchema, ...]):
        self.init, self.library, self.bits = init, library, {}
        self.met = [(self.mask(init), 0)]
        ops = [
            (
                self.mask(op.pre),
                self.mask(op.adds),
                self.mask(op.dels),
                _conditional(self.mask, op.cadds),
                _conditional(self.mask, op.cdels),
            )
            for op in library
        ]
        self.grow = _search(self.met, ops)  # holds no reference to self: no cycle keeps a reach alive

    def mask(self, props: Iterable[str]) -> int:
        m = 0
        for p in props:
            m |= self.bits.setdefault(p, 1 << len(self.bits))
        return m


def _search(met: list[tuple[int, int]], ops: list) -> Iterator[None]:
    seen = {met[0][0]}
    for state, depth in met:  # the queue: pairs appended below are met in turn
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
            if nxt not in seen:
                seen.add(nxt)
                met.append((nxt, depth + 1))
                yield


_last: Optional[_Reach] = None


def minimal_solution_length(problem: Problem) -> Optional[int]:
    """Length of the shortest operator sequence from init to the goals,
    or None when the goals are unreachable.  Refuses a search that visits
    more than `STATE_CEILING` states: one that meets a state at index
    max(STATE_CEILING, 1), the initial state being 0, and finds the goals
    held neither there nor before."""
    global _last
    reach = _last
    # a tuple compares its items by identity first, then by ==
    if reach is None or (reach.init, reach.library) != (problem.init, problem.library):
        reach = _last = _Reach(problem.init, problem.library)
    goals, met, limit = reach.mask(problem.goals), reach.met, max(STATE_CEILING, 1)
    for i, (state, depth) in enumerate(met):  # sees each pair `grow` appends
        if goals & ~state == 0:
            return depth
        if i >= limit:
            raise OracleCeilingError(f"state-space search exceeded {STATE_CEILING} states")
        if i + 1 == len(met):
            _last = None  # a search cut short by an exception cannot resume
            next(reach.grow, None)
            _last = reach
    return None
