"""Plan-space data model: propositions, operators, steps, plans, problems.

Propositions are plain interned strings (non-negated atoms, no variables).
A plan is an immutable value: a set of uniquely labeled steps plus a set of
direct ordering edges over step labels.  Label 0 is always the initial step
(it adds the problem's initial state) and label 1 the final step (its
preconditions are the problem's goals); further steps are labeled 2, 3, ...
in derivation order.  Relational queries (before/after, linearization,
equivalence) are answered on the transitive closure of the edge set, which
is computed lazily and cached per plan.

Plans compare by identity, not by field value: two nodes of a search tree
may carry structurally identical plans and must stay distinct.  Structural
comparison is `equivalent`, which matches plans up to a relabeling
bijection.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

Proposition = str

INIT_STEP = 0
FINAL_STEP = 1
INIT_NAME = "#init"
FINAL_NAME = "#goal"

# Brute-force relational checks (equivalence, linearization checks and
# enumeration) are exponential in plan size; refuse loudly rather than stall.
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
        """Hashable identity used by equivalence: same operator, identical
        effective fields and identical marks."""
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
    from (None exactly for depth-0 plans); it records derivation identity,
    not structure.
    """

    steps: tuple[Step, ...]
    order: frozenset[tuple[int, int]]
    parent: Optional["Plan"] = None
    depth: int = 0

    @cached_property
    def by_label(self) -> dict[int, Step]:
        return {s.label: s for s in self.steps}

    @cached_property
    def labels(self) -> tuple[int, ...]:
        return tuple(s.label for s in self.steps)

    @cached_property
    def successors(self) -> dict[int, tuple[int, ...]]:
        succ: dict[int, list[int]] = {lab: [] for lab in self.labels}
        for a, b in self.order:
            succ[a].append(b)
        return {lab: tuple(sorted(v)) for lab, v in succ.items()}

    @cached_property
    def predecessors(self) -> dict[int, tuple[int, ...]]:
        pred: dict[int, list[int]] = {lab: [] for lab in self.labels}
        for a, b in self.order:
            pred[b].append(a)
        return {lab: tuple(sorted(v)) for lab, v in pred.items()}

    @cached_property
    def linear_order(self) -> tuple[int, ...]:
        """Smallest-label-first topological order of the labels; the one
        linearization every plan query and planner reads."""
        successors = self.successors
        indeg = {lab: len(preds) for lab, preds in self.predecessors.items()}
        ready = sorted((lab for lab, d in indeg.items() if d == 0), reverse=True)
        out: list[int] = []
        while ready:
            lab = ready.pop()
            out.append(lab)
            changed = False
            for s in successors[lab]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
                    changed = True
            if changed:
                ready.sort(reverse=True)
        if len(out) != len(indeg):
            raise ValueError("plan ordering contains a cycle")
        return tuple(out)

    @cached_property
    def after_sets(self) -> dict[int, frozenset[int]]:
        """label -> every label strictly after it (transitive closure)."""
        out: dict[int, frozenset[int]] = {}
        for lab in reversed(self.linear_order):
            acc: set[int] = set()
            for s in self.successors[lab]:
                acc.add(s)
                acc |= out[s]
            out[lab] = frozenset(acc)
        return out

    def before(self, a: int, b: int) -> bool:
        """True iff a strictly precedes b in the closure."""
        return b in self.after_sets[a]

    @cached_property
    def is_total(self) -> bool:
        n = len(self.labels)
        comparable = sum(len(v) for v in self.after_sets.values())
        return comparable == n * (n - 1) // 2

    @property
    def sequence(self) -> tuple[int, ...]:
        """The unique total order of a totally ordered plan's labels."""
        if not self.is_total:
            raise ValueError("plan is not totally ordered")
        return self.linear_order

    @cached_property
    def middle_labels(self) -> tuple[int, ...]:
        return tuple(lab for lab in self.labels if lab not in (INIT_STEP, FINAL_STEP))

    @property
    def length(self) -> int:
        """Number of steps excluding the initial and final sentinels."""
        return len(self.steps) - 2

    def step(self, label: int) -> Step:
        try:
            return self.by_label[label]
        except KeyError:
            raise ValueError(f"plan has no step labeled {label}") from None

    def validate(self) -> None:
        self.linear_order  # raises on a cycle
        for lab in self.labels:
            if lab != INIT_STEP and not self.before(INIT_STEP, lab):
                raise ValueError(f"initial step does not precede step {lab}")
            if lab != FINAL_STEP and not self.before(lab, FINAL_STEP):
                raise ValueError(f"final step does not follow step {lab}")
        if (self.parent is None) != (self.depth == 0):
            raise ValueError("parent must be absent exactly at derivation depth 0")


@dataclass(frozen=True)
class Problem:
    """A planning problem: initial state, goal set, operator library."""

    name: str
    init: frozenset[str]
    goals: frozenset[str]
    library: tuple[OperatorSchema, ...]

    def validate(self) -> None:
        for op in self.library:
            op.validate()

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

    A new step must carry ``fresh_label(parent)``, so appending it keeps the
    steps in label order."""
    if new_step is None:
        steps = parent.steps
    elif new_step.label == fresh_label(parent):
        steps = parent.steps + (new_step,)
    else:
        raise ValueError(f"new step label {new_step.label} must be {fresh_label(parent)}")
    order = parent.order | frozenset(new_edges)
    return Plan(steps=steps, order=order, parent=parent, depth=parent.depth + 1)


def fresh_label(plan: Plan) -> int:
    return len(plan.steps)


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


def _signature_groups(plan: Plan) -> dict[tuple, list[int]]:
    groups: dict[tuple, list[int]] = {}
    for s in plan.steps:
        groups.setdefault(s.signature, []).append(s.label)
    return groups


def is_linearization(total: Plan, plan: Plan) -> bool:
    """True iff `total` is a totally ordered plan whose steps correspond
    one-to-one (same operator, same effective fields) to `plan`'s steps in a
    way that respects every ordering of `plan`.

    When `plan`'s step signatures are all distinct the correspondence is
    forced, so one walk along `total.sequence` decides it in polynomial
    time, at any plan size.  Otherwise a backtracking search over the
    signature-preserving bijections decides it, refusing plans over
    ``STEP_CEILING`` steps."""
    if len(total.steps) != len(plan.steps):
        return False
    if not total.is_total:
        return False
    label_of = {s.signature: s.label for s in plan.steps}
    if len(label_of) == len(plan.steps):
        placed: set[int] = set()
        for t in total.sequence:
            lab = label_of.get(total.by_label[t].signature)
            if lab is None or lab in placed or not placed.issuperset(plan.predecessors[lab]):
                return False
            placed.add(lab)
        return True
    if Counter(s.signature for s in total.steps) != Counter(s.signature for s in plan.steps):
        return False
    _check_size(plan, "linearization check")
    seq = total.sequence
    used: set[int] = set()

    def place(i: int) -> bool:
        if i == len(seq):
            return True
        want = total.by_label[seq[i]].signature
        for lab in plan.labels:
            if lab in used or plan.by_label[lab].signature != want:
                continue
            if all(p in used for p in plan.predecessors[lab]):
                used.add(lab)
                if place(i + 1):
                    return True
                used.discard(lab)
        return False

    return place(0)


def equivalent(p1: Plan, p2: Plan) -> bool:
    """Plan equivalence: a bijection between steps mapping each step to one
    with an identical signature and preserving the order relation in both
    directions."""
    if len(p1.steps) != len(p2.steps):
        return False
    g1 = _signature_groups(p1)
    g2 = _signature_groups(p2)
    if set(g1) != set(g2) or any(len(g1[k]) != len(g2[k]) for k in g1):
        return False
    _check_size(p1, "equivalence check")

    labels1 = [s.label for s in p1.steps]
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def assign(i: int) -> bool:
        if i == len(labels1):
            return True
        a = labels1[i]
        sig = p1.by_label[a].signature
        for b in g2[sig]:
            if b in used:
                continue
            ok = True
            for a0, b0 in mapping.items():
                if p1.before(a, a0) != p2.before(b, b0) or p1.before(a0, a) != p2.before(b0, b):
                    ok = False
                    break
            if ok:
                mapping[a] = b
                used.add(b)
                if assign(i + 1):
                    return True
                del mapping[a]
                used.discard(b)
        return False

    return assign(0)


def restrict(plan: Plan, labels: Iterable[int]) -> Plan:
    """The subplan on a label subset: order is the closure restricted to it."""
    keep = set(labels)
    steps = tuple(s for s in plan.steps if s.label in keep)
    edges = frozenset((a, b) for a in keep for b in plan.after_sets[a] if b in keep)
    return Plan(steps=steps, order=edges, parent=None, depth=0)

