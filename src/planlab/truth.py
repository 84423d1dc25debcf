"""Truth over totally and partially ordered plans.

In a totally ordered plan a step's precondition is true when an earlier
step adds it and no step in between deletes it.  Over a partial order a
precondition is necessarily true when it is true in every linearization,
necessarily false when it is true in none, and ambiguous otherwise.

``modal_status`` decides the modality exactly.  It applies the
all-linearizations oracle ``modal_status_brute`` to the projection: the
subposet induced on the steps that can influence the proposition (its
adders, its deleters, and the needing step), relabelled by position as
``model.restrict`` does, so the needer is asked about at its position in
the projection.  Any linear extension of an induced subposet extends to a
full linearization, so the projection loses nothing.  When the
proposition has no deleters the modality follows directly from
reachability.

A caller that asks about many related plans may pass a memo dict, which
``modal_status`` keys on the projection's roles and on the plan's closure
rows masked to the projected labels (see its docstring); the ``mt``
planner keeps one per planner, so a child's goal update reuses the
projections it shares with its ancestors and siblings.
An ``mt`` leaf that no heuristic rates is asked about its preconditions
only up to the first that is not necessarily true, so fewer projections
are enumerated (on the benchmark's traced ``descend`` round 0 at seed 0,
936 ``linear_extensions`` calls rather than 2,110), though enumeration
stays on the search path.

Conditional effects are inert here: only the effective (unconditional)
adds and deletes of a step influence truth.  A conditional effect starts
to matter once specialization promotes it into the unconditional sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Literal, Optional, Sequence

from .model import (
    INIT_STEP,
    Plan,
    Step,
    linear_extensions,
    restrict,
)


class ModalStatus(Enum):
    NECESSARILY_TRUE = "necessarily_true"
    NECESSARILY_FALSE = "necessarily_false"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class GoalEntry:
    """An open requirement: `needer` is the step whose precondition
    `condition` is not (yet) satisfied."""

    needer: int
    condition: str

    def key(self) -> tuple[int, str]:
        return (self.needer, self.condition)


class AmbiguousLastDeleter(ValueError):
    """Two unordered candidate deleters prevent a unique last deleter."""


InteractionMode = Literal["basic", "conditional"]


def true_in_sequence(plan: Plan, seq: Sequence[int], needer: int, c: str) -> bool:
    """Truth of precondition c at `needer` under a specific total order."""
    i = seq.index(needer)
    for lab in reversed(seq[:i]):
        step = plan.steps[lab]
        if c in step.adds:
            return True
        if c in step.dels:
            return False
    return False


def _adders_and_deleters(plan: Plan, needer: int, c: str) -> tuple[list[int], list[int]]:
    adders = [s.label for s in plan.steps if c in s.adds and s.label != needer]
    deleters = [s.label for s in plan.steps if c in s.dels and s.label != needer]
    return adders, deleters


def modal_status(
    plan: Plan, needer: int, c: str, memo: Optional[dict[tuple, ModalStatus]] = None
) -> ModalStatus:
    """Exact modality of precondition c at step `needer`.

    `memo`, when given, maps projection keys to statuses decided earlier
    and receives every status this call enumerates.  The key is the
    needer, the adders, the deleters and each of their closure rows
    masked to them, in label order.  That is all the enumeration reads:
    the linear extensions depend only on the labels and the order among
    them, and ``true_in_sequence`` only on whether each step before the
    needer adds or deletes c.  So equal keys have equal statuses whatever
    the plan, the proposition or the operators behind the labels.  A hit
    builds no projection and enumerates nothing.  Without a memo the call
    restricts and enumerates every time.
    """
    adders, deleters = _adders_and_deleters(plan, needer, c)
    if not deleters:
        if any(plan.before(a, needer) for a in adders):
            return ModalStatus.NECESSARILY_TRUE
        if any(not plan.before(needer, a) for a in adders):
            return ModalStatus.AMBIGUOUS
        return ModalStatus.NECESSARILY_FALSE
    keep = sorted({*adders, *deleters, needer})
    if memo is None:
        return modal_status_brute(restrict(plan, keep), keep.index(needer), c)
    mask = sum(1 << lab for lab in keep)
    after = plan.after
    key = (needer, tuple(adders), tuple(deleters), tuple(after[lab] & mask for lab in keep))
    status = memo.get(key)
    if status is None:
        status = memo[key] = modal_status_brute(restrict(plan, keep), keep.index(needer), c)
    return status


def modal_status_brute(plan: Plan, needer: int, c: str) -> ModalStatus:
    """All-linearizations oracle for `modal_status`; exponential."""
    seen_true = seen_false = False
    for seq in linear_extensions(plan):
        if true_in_sequence(plan, seq, needer, c):
            seen_true = True
        else:
            seen_false = True
        if seen_true and seen_false:
            return ModalStatus.AMBIGUOUS
    return ModalStatus.NECESSARILY_TRUE if seen_true else ModalStatus.NECESSARILY_FALSE


def last_deleter(plan: Plan, c: str, needer: int) -> int:
    """The deleter of c closest before `needer`: a deleter before `needer`
    with no other deleter strictly between it and `needer`.  The initial
    step when nothing before `needer` deletes c."""
    cands = [
        s.label
        for s in plan.steps
        if c in s.dels and s.label != needer and plan.before(s.label, needer)
    ]
    if not cands:
        return INIT_STEP
    maximal = [
        d
        for d in cands
        if not any(d2 != d and plan.before(d, d2) for d2 in cands)
    ]
    if len(maximal) > 1:
        raise AmbiguousLastDeleter(
            f"no unique last deleter of {c!r} before step {needer}: "
            f"candidates {sorted(maximal)} are unordered"
        )
    return maximal[0]


def _conds(step: Step) -> frozenset[str]:
    deps: set[str] = set(step.pre)
    for ce in step.cadds + step.cdels:
        deps |= ce.deps
    return frozenset(deps)


def _possible_adds(step: Step) -> frozenset[str]:
    return step.adds | {ce.effect for ce in step.cadds}


def _possible_dels(step: Step) -> frozenset[str]:
    return step.dels | {ce.effect for ce in step.cdels}


def steps_interact(s1: Step, s2: Step, mode: InteractionMode = "basic") -> bool:
    """Pairwise interaction test, ignoring ordering (callers decide that).

    Basic mode: one step's precondition is added or deleted by the other,
    or one adds what the other deletes.  Conditional mode widens every set
    to its possible counterpart: dependency conditions count as conditions,
    conditional effects count as possible adds/deletes.
    """
    if mode == "basic":
        conds1, conds2 = s1.pre, s2.pre
        adds1, adds2 = s1.adds, s2.adds
        dels1, dels2 = s1.dels, s2.dels
    else:
        conds1, conds2 = _conds(s1), _conds(s2)
        adds1, adds2 = _possible_adds(s1), _possible_adds(s2)
        dels1, dels2 = _possible_dels(s1), _possible_dels(s2)
    if conds1 & (adds2 | dels2) or conds2 & (adds1 | dels1):
        return True
    return bool(adds1 & dels2 or adds2 & dels1)


def precondition_entries(plan: Plan) -> list[GoalEntry]:
    """Every (step, precondition) pair, in canonical order: steps by label,
    conditions sorted."""
    return [GoalEntry(s.label, c) for s in plan.steps for c in sorted(s.pre)]


def is_unambiguous(plan: Plan) -> bool:
    """True iff no precondition of any step is ambiguous."""
    return all(
        modal_status(plan, e.needer, e.condition) is not ModalStatus.AMBIGUOUS
        for e in precondition_entries(plan)
    )


def false_in_sequence(plan: Plan, seq: Sequence[int]) -> list[GoalEntry]:
    """Preconditions false under one total order, via state simulation."""
    state: set[str] = set()
    out: list[GoalEntry] = []
    for lab in seq:
        step = plan.steps[lab]
        for c in step.pre:
            if c not in state:
                out.append(GoalEntry(lab, c))
        state -= step.dels
        state |= step.adds
    out.sort(key=GoalEntry.key)
    return out


def executes(plan: Plan, seq: Sequence[int]) -> bool:
    """True iff no precondition is false under the total order `seq`: the
    simulation of ``false_in_sequence``, stopped at the first false one."""
    state: set[str] = set()
    for lab in seq:
        step = plan.steps[lab]
        if not step.pre <= state:
            return False
        state -= step.dels
        state |= step.adds
    return True
