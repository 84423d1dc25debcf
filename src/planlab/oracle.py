"""Independent state-space oracle.

A forward breadth-first search over world states, used to establish
minimal solution lengths without touching any plan-space machinery.
The search gives each proposition one bit, reading the library's bits and
operator masks as ``model`` compiles them (never its adder index), and
holds a state as an int; an operator applies when its precondition bits
are all set, and conditional effects fire exactly when their dependencies
hold in the state being transformed.  ``apply_operator`` is the same step
on frozensets of propositions, for callers that execute a plan's steps.

Problems that share an initial state and a library share one search, a
*reach*: the states met so far with their depths, in the order the search
met them, and the search itself, resumed one state at a time when a query
needs more.  The last reach lives on between calls, holding at most
``STATE_CEILING + 1`` states under the largest ceiling it was asked with.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .model import OperatorSchema, Problem, bitmask, compile_library

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


class _Reach:
    """The states reachable from `init` under `library`, as (state, depth)
    pairs in the order the breadth-first search first meets them;
    advancing `grow` appends the next one."""

    def __init__(self, init: frozenset[str], library: tuple[OperatorSchema, ...]):
        compiled = compile_library(library)
        # a copy: bits for propositions only init or goals name stay out of the shared one
        self.init, self.library, self.bits = init, library, dict(compiled.bits)
        self.met = [(bitmask(self.bits, init), 0)]
        self.grow = _search(self.met, compiled.masks)  # holds no reference to self: no cycle keeps a reach alive


def _search(met: list[tuple[int, int]], ops: tuple) -> Iterator[None]:
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
    goals, met, limit = bitmask(reach.bits, problem.goals), reach.met, max(STATE_CEILING, 1)
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
