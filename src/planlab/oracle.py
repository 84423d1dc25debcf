"""Independent state-space oracle.

A forward breadth-first search over world states, used to establish
minimal solution lengths without touching any plan-space machinery.
States are frozensets of propositions; an operator applies when its
preconditions hold, and conditional effects fire exactly when their
dependencies hold in the state being transformed.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .model import OperatorSchema, Problem

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


def minimal_solution_length(problem: Problem) -> Optional[int]:
    """Length of the shortest operator sequence from init to the goals,
    or None when the goals are unreachable.  Refuses a search that visits
    more than `STATE_CEILING` states."""
    start = frozenset(problem.init)
    if problem.goals <= start:
        return 0
    seen = {start}
    queue: deque[tuple[frozenset[str], int]] = deque([(start, 0)])
    while queue:
        state, dist = queue.popleft()
        for op in problem.library:
            if not op.pre <= state:
                continue
            nxt = apply_operator(state, op)
            if nxt in seen:
                continue
            if problem.goals <= nxt:
                return dist + 1
            seen.add(nxt)
            if len(seen) > STATE_CEILING:
                raise OracleCeilingError(
                    f"state-space search exceeded {STATE_CEILING} states"
                )
            queue.append((nxt, dist + 1))
    return None
