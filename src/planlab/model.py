"""Plan-space data model: propositions, operators, steps, plans, problems.

Propositions are plain interned strings (non-negated atoms, no variables).
A plan is an immutable value: a tuple of steps plus a set of direct
ordering edges over step labels.  A step's label is its position in the
tuple, so ``plan.steps[label]`` finds it.  Label 0 is always the initial
step (it adds the problem's initial state) and label 1 the final step (its
preconditions are the problem's goals); further steps are labeled 2, 3, ...
in derivation order.  A plan without a parent checks that its labels are
its positions, and ``extend`` keeps them so for every derived plan; only
``restrict``'s projections may lack the sentinels.

A plan caches views of its order: its adjacency, one linearization (which
also decides totality) and the transitive closure, one int per label whose
bits are the labels after it (``before`` is a shift and a mask).  A child
derives each from its parent's, when that is cached and the child's order
contains the parent's, by adding only its new edges: the linearization
when ``extend`` builds a child with a new step, the others when first
asked for.  Any other plan computes the view afresh: its linearization by
Kahn's sort (``topological_order``), and its closure along that
linearization.  Only this module reads the cache or builds the closure;
``with_steps`` hands a plan's order views to a plan that differs from it
in its steps alone.

Plans compare by identity, not by field value: two nodes of a search tree
may carry structurally identical plans and must stay distinct.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Optional

Proposition = str

INIT_STEP = 0
FINAL_STEP = 1
INIT_NAME = "#init"
FINAL_NAME = "#goal"

# Linear extension enumeration is exponential in plan size; refuse loudly
# rather than stall.
STEP_CEILING = 32
EXTENSION_CEILING = 1_000_000


class PlanSizeError(RuntimeError):
    """A combinatorial plan query exceeded its configured ceiling."""


@dataclass(frozen=True)
class CondEffect:
    """A conditional effect: `effect` occurs when every dependency holds."""

    deps: frozenset[str]
    effect: str


def cond(deps: Iterable[str], effect: str) -> CondEffect:
    return CondEffect(frozenset(deps), effect)


@dataclass(frozen=True)
class OperatorSchema:
    """A ground action template.

    Invariants (checked by ``validate``): every unconditional delete is a
    precondition, and every conditional delete's effect is a member of its
    own dependency set.
    """

    name: str
    pre: frozenset[str] = frozenset()
    adds: frozenset[str] = frozenset()
    dels: frozenset[str] = frozenset()
    cadds: tuple[CondEffect, ...] = ()
    cdels: tuple[CondEffect, ...] = ()

    def validate(self) -> None:
        bad = self.dels - self.pre
        if bad:
            raise ValueError(
                f"operator {self.name!r} deletes {sorted(bad)} which are not "
                f"preconditions; every deleted condition must be a precondition"
            )
        for ce in self.cdels:
            if ce.effect not in ce.deps:
                raise ValueError(
                    f"operator {self.name!r}: conditional delete of "
                    f"{ce.effect!r} must list it among its dependency "
                    f"conditions {sorted(ce.deps)}"
                )


def make_op(
    name: str,
    pre: Iterable[str] = (),
    adds: Iterable[str] = (),
    dels: Iterable[str] = (),
    cadds: Iterable[CondEffect] = (),
    cdels: Iterable[CondEffect] = (),
) -> OperatorSchema:
    """Convenience constructor that freezes field collections and validates."""
    op = OperatorSchema(
        name=name,
        pre=frozenset(pre),
        adds=frozenset(adds),
        dels=frozenset(dels),
        cadds=tuple(cadds),
        cdels=tuple(cdels),
    )
    op.validate()
    return op


@dataclass(frozen=True)
class Step:
    """A uniquely labeled operator instance inside one plan derivation.

    The field sets are the *effective* fields: they start as copies of the
    schema fields and may be narrowed by specialization (conditional effects
    promoted to unconditional ones).  ``marked`` holds indices into
    ``cadds`` for conditional adds that role selection has considered and
    declined to commit.
    """

    label: int
    name: str
    pre: frozenset[str] = frozenset()
    adds: frozenset[str] = frozenset()
    dels: frozenset[str] = frozenset()
    cadds: tuple[CondEffect, ...] = ()
    cdels: tuple[CondEffect, ...] = ()
    marked: frozenset[int] = frozenset()

    @classmethod
    def from_schema(cls, schema: OperatorSchema, label: int) -> "Step":
        return cls(
            label=label,
            name=schema.name,
            pre=schema.pre,
            adds=schema.adds,
            dels=schema.dels,
            cadds=schema.cadds,
            cdels=schema.cdels,
        )

    @cached_property
    def signature(self) -> tuple:
        """Hashable identity used by linearization checks: same operator,
        identical effective fields and identical marks."""
        cadds = tuple(
            sorted(
                (tuple(sorted(ce.deps)), ce.effect, i in self.marked)
                for i, ce in enumerate(self.cadds)
            )
        )
        cdels = tuple(sorted((tuple(sorted(ce.deps)), ce.effect) for ce in self.cdels))
        return (self.name, self.pre, self.adds, self.dels, cadds, cdels)


@dataclass(frozen=True, eq=False)
class Plan:
    """An immutable plan: steps plus direct ordering edges over labels.

    ``order`` stores direct edges only; the full strict partial order is
    their transitive closure.  ``parent`` is the plan this one was extended
    from (None exactly for depth-0 plans): derivation identity, from whose
    cached order views this plan derives its own.
    """

    steps: tuple[Step, ...]
    order: frozenset[tuple[int, int]]
    parent: Optional["Plan"] = None
    depth: int = 0

    def __post_init__(self) -> None:
        if self.parent is None and any(s.label != i for i, s in enumerate(self.steps)):
            raise ValueError(f"step labels {[s.label for s in self.steps]} must be their positions")

    @property
    def labels(self) -> range:
        return range(len(self.steps))

    @cached_property
    def new_edges(self) -> Optional[frozenset[tuple[int, int]]]:
        """The edges this plan adds to its parent's order; None when it has
        no parent or its order does not contain the parent's."""
        parent = self.parent
        return self.order - parent.order if parent is not None and parent.order <= self.order else None

    def _derives(self, view: str) -> bool:
        """True iff this plan derives `view` from its parent's: that is
        cached, and this plan's order contains the parent's."""
        return self.parent is not None and view in self.parent.__dict__ and self.new_edges is not None

    @cached_property
    def successors(self) -> dict[int, tuple[int, ...]]:
        if self._derives("successors"):
            return grow_adjacency(self.parent.successors, self.labels, self.new_edges)
        return grow_adjacency({}, self.labels, self.order)

    @cached_property
    def predecessors(self) -> dict[int, tuple[int, ...]]:
        if self._derives("predecessors"):
            return grow_adjacency(self.parent.predecessors, self.labels, ((b, a) for a, b in self.new_edges))
        return grow_adjacency({}, self.labels, ((b, a) for a, b in self.order))

    @cached_property
    def linear_order(self) -> tuple[int, ...]:
        """A topological order of the plan's labels: the one ``extend``
        derived from the parent's, or else ``topological_order``'s."""
        return topological_order(self)

    @cached_property
    def after(self) -> tuple[int, ...]:
        """The transitive closure, one bitmask per label: bit b of
        ``after[a]`` is set iff a strictly precedes b.

        A plan that derives it from its parent's starts from the parent's
        rows and adds its new edges: an edge (a, b) puts b and everything
        after b after a and after everything before a, and is refused if b
        already precedes a.  Any other plan closes its order along its
        ``linear_order``, last label first, which sorts the plan if it was
        not linearized yet, and so refuses a cycle there."""
        if self._derives("after"):
            out = list(self.parent.after)
            out += [0] * (len(self.steps) - len(out))
            for a, b in self.new_edges:
                if a == b or out[b] >> a & 1:
                    raise ValueError("plan ordering contains a cycle")
                reach = out[b] | 1 << b
                for lab, later in enumerate(out):
                    if lab == a or later >> a & 1:
                        out[lab] = later | reach
            return tuple(out)
        out = [0] * len(self.steps)
        for lab in reversed(self.linear_order):
            for s in self.successors[lab]:
                out[lab] |= out[s] | 1 << s
        return tuple(out)

    def before(self, a: int, b: int) -> bool:
        """True iff a strictly precedes b in the closure."""
        return self.after[a] >> b & 1 == 1

    @cached_property
    def is_total(self) -> bool:
        """True iff the order is total: every consecutive pair of
        ``linear_order`` is an edge, so no other linearization exists."""
        seq = self.linear_order
        return self.order.issuperset(zip(seq, seq[1:]))

    @property
    def sequence(self) -> tuple[int, ...]:
        """The unique total order of a totally ordered plan's labels."""
        if not self.is_total:
            raise ValueError("plan is not totally ordered")
        return self.linear_order

    @property
    def middle_labels(self) -> range:
        return range(FINAL_STEP + 1, len(self.steps))

    @property
    def length(self) -> int:
        """Number of steps excluding the initial and final sentinels."""
        return len(self.steps) - 2


@dataclass(frozen=True)
class Problem:
    """A planning problem: initial state, goal set, operator library."""

    name: str
    init: frozenset[str]
    goals: frozenset[str]
    library: tuple[OperatorSchema, ...]

    def lint(self) -> list[str]:
        """Non-fatal warnings about suspicious propositions."""
        mentioned: set[str] = set()
        added: set[str] = set()
        for op in self.library:
            mentioned |= op.pre | op.adds | op.dels
            added |= op.adds
            for ce in op.cadds:
                mentioned |= ce.deps | {ce.effect}
                added.add(ce.effect)
            for ce in op.cdels:
                mentioned |= ce.deps | {ce.effect}
        warnings = []
        for g in sorted(self.goals):
            if g not in self.init and g not in added:
                warnings.append(f"goal {g!r} is not initially true and no operator adds it")
        for p in sorted(self.init):
            if p not in mentioned and p not in self.goals:
                warnings.append(f"initial proposition {p!r} is never referenced")
        return warnings


def initial_plan(problem: Problem) -> Plan:
    """The two-step root plan: step 0 adds the initial state, step 1 requires
    the goals, with the single edge 0 -> 1."""
    init_step = Step(label=INIT_STEP, name=INIT_NAME, adds=problem.init)
    final_step = Step(label=FINAL_STEP, name=FINAL_NAME, pre=problem.goals)
    return Plan(
        steps=(init_step, final_step),
        order=frozenset({(INIT_STEP, FINAL_STEP)}),
        parent=None,
        depth=0,
    )


def extend(parent: Plan, new_step: Optional[Step], new_edges: Iterable[tuple[int, int]]) -> Plan:
    """Produce the child plan obtained by one extension (copy, never mutate).

    A new step must carry ``fresh_label(parent)``, so appending it keeps
    every label its step's position."""
    if new_step is None:
        steps = parent.steps
    elif new_step.label == fresh_label(parent):
        steps = parent.steps + (new_step,)
    else:
        raise ValueError(f"new step label {new_step.label} must be {fresh_label(parent)}")
    # The child knows its new edges, and gets its linearization at once, as
    # a search reads nearly every to and ua child's: the parent's, with the
    # new step right after its last predecessor, if every new edge then runs
    # forward.
    edges = frozenset(new_edges) - parent.order
    child = Plan(steps=steps, order=parent.order | edges, parent=parent, depth=parent.depth + 1)
    child.__dict__["new_edges"] = edges
    if new_step is not None and "linear_order" in parent.__dict__:
        seq, new = parent.linear_order, new_step.label
        index, last, first = seq.index, -1, len(seq)
        for a, b in edges:
            if a == b:
                return child
            if b == new and index(a) > last:
                last = index(a)
            elif a == new and index(b) < first:
                first = index(b)
            elif a != new != b and index(a) > index(b):
                return child
        if last < first:
            child.__dict__["linear_order"] = seq[: last + 1] + (new,) + seq[last + 1 :]
    return child


def fresh_label(plan: Plan) -> int:
    return len(plan.steps)


def grow_adjacency(adjacency: dict, labels: Iterable[int], edges: Iterable[tuple[int, int]]) -> dict:
    """`adjacency` (label -> sorted neighbour tuple) with an entry for every
    label of `labels` and b added under a for each (a, b) of `edges`, none
    of which it holds yet."""
    out = dict(adjacency)
    for lab in labels:
        if lab not in out:
            out[lab] = ()
    for a, b in edges:
        out[a] = tuple(sorted(out[a] + (b,)))
    return out


def with_steps(plan: Plan, steps: tuple[Step, ...]) -> Plan:
    """`plan` with `steps`, which carry its labels at their positions, in place
    of its own, keeping every view of its order that it has cached."""
    variant = replace(plan, steps=steps)
    views = ("new_edges", "predecessors", "successors", "linear_order", "after", "is_total")
    variant.__dict__.update((view, plan.__dict__[view]) for view in views if view in plan.__dict__)
    return variant


def topological_order(plan: Plan) -> tuple[int, ...]:
    """Kahn's sort of the plan's labels, smallest ready label first."""
    indeg = {lab: len(preds) for lab, preds in plan.predecessors.items()}
    ready = [lab for lab, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        out.append(lab := heapq.heappop(ready))
        for s in plan.successors[lab]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    if len(out) != len(indeg):
        raise ValueError("plan ordering contains a cycle")
    return tuple(out)


def _check_size(plan: Plan, what: str) -> None:
    if len(plan.steps) > STEP_CEILING:
        raise PlanSizeError(
            f"{what} refused: plan has {len(plan.steps)} steps, ceiling is {STEP_CEILING}"
        )


def linear_extensions(plan: Plan) -> list[tuple[int, ...]]:
    """All label sequences consistent with the plan's partial order."""
    _check_size(plan, "linear extension enumeration")
    indeg = {lab: len(plan.predecessors[lab]) for lab in plan.labels}
    n = len(plan.labels)
    out: list[tuple[int, ...]] = []
    seq: list[int] = []
    placed: set[int] = set()

    def rec() -> None:
        if len(seq) == n:
            if len(out) >= EXTENSION_CEILING:
                raise PlanSizeError(f"linear extension enumeration exceeded {EXTENSION_CEILING} sequences")
            out.append(tuple(seq))
            return
        for lab in sorted(l for l, d in indeg.items() if d == 0 and l not in placed):
            placed.add(lab)
            seq.append(lab)
            for s in plan.successors[lab]:
                indeg[s] -= 1
            rec()
            for s in plan.successors[lab]:
                indeg[s] += 1
            seq.pop()
            placed.discard(lab)

    rec()
    return out


def is_linearization(total: Plan, plan: Plan) -> bool:
    """True iff `total` is a totally ordered plan with `plan`'s steps label
    for label (as many steps, with the same operator and effective fields
    at each label) whose sequence places every step after all of its
    predecessors in `plan`.

    Linked planners give a new step the same fresh label in both trees, so
    the correspondence is label for label.  The property tests check this
    against ``is_linearization_brute``, which lets any signature-preserving
    bijection match the steps, on every pair ``build_correspondence``
    examines."""
    if len(total.steps) != len(plan.steps) or not total.is_total:
        return False
    # The newest step, last in label order, is where two candidates for
    # one link most often differ, so the walk starts there.
    for t, p in zip(reversed(total.steps), reversed(plan.steps)):
        if t.signature != p.signature:
            return False
    placed: set[int] = set()
    for lab in total.sequence:
        if not placed.issuperset(plan.predecessors[lab]):
            return False
        placed.add(lab)
    return True


def restrict(plan: Plan, labels: Iterable[int]) -> Plan:
    """The subplan on a label subset, relabelled by position: the subset's
    i-th smallest label becomes label i, and the order is the closure
    restricted to the subset, read from `plan`'s rows.  Labels 0 and 1 are
    the sentinels only when the subset keeps them."""
    keep = sorted(set(labels))
    steps = tuple(
        Step(i, s.name, s.pre, s.adds, s.dels, s.cadds, s.cdels, s.marked)
        for i, s in enumerate(plan.steps[lab] for lab in keep)
    )
    after = plan.after
    edges = frozenset((i, j) for i, a in enumerate(keep) for j, b in enumerate(keep) if after[a] >> b & 1)
    return Plan(steps=steps, order=edges, parent=None, depth=0)

