"""Plan extension generators.

Every planner here maps a plan to its complete, deterministically ordered
list of child plans.  They all share the same pipeline, differing only in
how a child is ordered and which goals count as open:

  1. termination check   (``children`` refuses solved plans;
                         ``is_solution`` reads a cached goal set, and
                         otherwise decides a derived plan without one:
                         ``to``/``ua`` and their conditional variants
                         simulate the plan's ``linear_order``, stopping at
                         the first false precondition, and ``mt`` stops at
                         the first precondition that is not necessarily
                         true; every depth-0 plan computes the goal set,
                         after the planner's input check)
  2. goal selection      (first open goal, or a seeded choice: a lone
                         goal draws nothing; otherwise ``random.Random``
                         seeded with ``seed|depth|needer:condition,...``
                         draws an index, memoised on that text in a
                         1024-entry LRU, so corresponding ``ua`` and
                         ``to`` nodes share one draw)
  3. operator selection  (library operators that add the selected goal,
                         read from the problem's adder index)
  4. ordering selection  (planner specific, instrumented): one recipe
                         per child; ``to`` and ``ua`` build a child plan
                         with ``model.extend`` only when it is first
                         indexed (``LazyChildren``), the other kinds build
                         every child at once; the model derives a child's
                         order views from its parent's
  5. goal updating       (the child's open goals, lazy): ``children`` only
                         counts its cost; the goals are computed on the
                         first ``goal_set`` call, when a search extends or
                         rates the child, so a leaf a search only tests
                         for a solution gets none, whatever the kind.
                         ``to`` and ``ua`` share one rule: simulate the
                         plan's ``linear_order``, which ``model.extend``
                         derives from the parent's, so a derived plan is
                         sorted only where a ``ua`` insertion does not fit

Planner kinds and their ordering stages:

``to``   totally ordered plans; the new step is inserted at every position
         between the last deleter of the goal and the needing step.
``ua``   partially ordered, unambiguity-preserving; the new step is placed
         after the last deleter and before the needing step, then every
         step that interacts with it is ordered against it, both ways.
         The per-goal context (the base edges and the steps they already
         order against the new step, found by walks over the parent's
         adjacency) is computed once per goal and shared by every adder
         instance.  A child's recipe is its new step and its new edges,
         the base plus one per interacting step, and building it is one
         ``model.extend`` call.  Every plan this planner builds is
         unambiguous, so any linearization decides its goals, as a ``to``
         plan's one sequence does.  A child's is its parent's with the new
         step right after its last predecessor, unless one of the step's
         successors comes earlier; then the child sorts its own.
``toc``/``uac``  the conditional-effect variants: operator selection also
         instantiates specialized copies of operators that conditionally
         add the goal, interaction detection widens to dependency
         conditions and conditional effects, and a role-selection stage
         branches on marking versus specializing usable conditional adds;
         it asks each candidate's ``before`` which steps follow a
         conditional adder, so these kinds build every child.  A variant
         is its candidate's steps, some replaced by position, in its
         candidate's order, and ``model.with_steps`` hands it the
         candidate's order views.  Two paths of specialisation can reach
         one variant, so only the first child with given step signatures
         and closure rows (``Plan.after``) is kept, as ``mt`` keeps it.
``mt``   deferred ordering driven by exact modal truth: establishers may
         be existing steps or fresh instances, threats are resolved one at
         a time by demotion or white-knight protection, and children may
         be ambiguous.  Goal updating asks ``modal_status`` about every
         precondition with the planner's own memo, which lives as long as
         the planner: a child repeats almost every projection its parent
         had, so most answers are read back, not enumerated.

Every child carries a ``ChildCost``: ``step4_edge_visits`` counts
graph-edge traversals during ordering selection and ``step5_visits``
counts node and edge touches during goal updating, so growth shapes can
be checked against the plan's edge count.  Step-5 touches depend only on
the child's size, never on which goals are open, so they are counted
without computing the goals, and for ``to`` and ``ua`` without building
the child: it has one step more than its parent, and every new edge
touches the new step, so none is in the parent's order already.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .model import (
    FINAL_STEP,
    INIT_STEP,
    CondEffect,
    OperatorSchema,
    Plan,
    Problem,
    Step,
    extend,
    fresh_label,
    with_steps,
)
from .truth import (
    GoalEntry,
    ModalStatus,
    executes,
    false_in_sequence,
    is_unambiguous,
    last_deleter,
    modal_status,
    steps_interact,
)


def specialize(op: Union[Step, OperatorSchema], deps: Iterable[str]) -> Union[Step, OperatorSchema]:
    """Commit conditional effects of `op` whose dependencies are covered.

    The dependency set is promoted into the preconditions; every
    conditional effect whose dependencies are a subset of `deps` becomes
    unconditional; surviving conditional effects keep the residual
    dependencies.
    """
    deps = frozenset(deps)

    adds = set(op.adds)
    dels = set(op.dels)
    cadds: list[CondEffect] = []
    cdels: list[CondEffect] = []
    marked: set[int] = set()
    old_marked = op.marked if isinstance(op, Step) else frozenset()
    for i, ce in enumerate(op.cadds):
        if ce.deps <= deps:
            adds.add(ce.effect)
        else:
            if i in old_marked:
                marked.add(len(cadds))
            cadds.append(CondEffect(ce.deps - deps, ce.effect))
    for ce in op.cdels:
        if ce.deps <= deps:
            dels.add(ce.effect)
        else:
            cdels.append(CondEffect(ce.deps - deps, ce.effect))

    fields = dict(
        pre=op.pre | deps,
        adds=frozenset(adds),
        dels=frozenset(dels),
        cadds=tuple(cadds),
        cdels=tuple(cdels),
    )
    if isinstance(op, Step):
        return replace(op, marked=frozenset(marked), **fields)
    return replace(op, **fields)


@dataclass(frozen=True)
class ChildCost:
    step4_edge_visits: int
    step5_visits: int


class LazyChildren(Sequence[Plan]):
    """Child plans built from their recipes on first index.

    A built child is kept, so every index of one result yields the same
    plan object; a ``transient`` view builds a fresh child on every index
    and keeps none."""

    __slots__ = ("_build", "_recipes", "_plans")

    def __init__(self, build: Callable[..., Plan], recipes: list[tuple], keep: bool = True):
        self._build = build
        self._recipes = recipes
        self._plans: Optional[list[Optional[Plan]]] = [None] * len(recipes) if keep else None

    def transient(self) -> "LazyChildren":
        return LazyChildren(self._build, self._recipes, keep=False)

    def __len__(self) -> int:
        return len(self._recipes)

    def __getitem__(self, i: int) -> Plan:
        plans = self._plans
        if plans is None:
            return self._build(*self._recipes[i])
        child = plans[i]
        if child is None:
            child = plans[i] = self._build(*self._recipes[i])
        return child

    def __iter__(self) -> Iterator[Plan]:
        # Builds directly: the generic Sequence iterator costs an index
        # call per child, which shows when every child is visited.
        build, plans = self._build, self._plans
        if plans is None:
            for recipe in self._recipes:
                yield build(*recipe)
            return
        for i, recipe in enumerate(self._recipes):
            child = plans[i]
            if child is None:
                child = plans[i] = build(*recipe)
            yield child


@dataclass(frozen=True)
class ExtensionResult:
    """The children of one extension and their costs, index for index;
    ``children`` is ``()`` when no operator establishes the goal."""

    children: Sequence[Plan]
    costs: tuple[ChildCost, ...]


@dataclass(frozen=True)
class PlannerConfig:
    goal_selection: str = "deterministic"  # or "seeded"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.goal_selection not in ("deterministic", "seeded"):
            raise ValueError(f"unknown goal selection {self.goal_selection!r}")


@lru_cache(maxsize=1024)
def _seeded_index(text: str, n: int) -> int:
    """The seeded goal draw: an index below `n` from an RNG seeded with
    `text`.  Pure, so memoised; the bound keeps a long-lived process that
    sees many seeds from growing it without limit."""
    return random.Random(text).randrange(n)


def _spread(marks: set[int], start: int, adj: tuple[tuple[int, ...], ...]) -> int:
    """Mark `start` and everything reachable from it through `adj`; the
    cost is one visit per out-edge of every newly marked node."""
    cost = 0
    stack = [start]
    while stack:
        u = stack.pop()
        if u in marks:
            continue
        marks.add(u)
        for v in adj[u]:
            cost += 1
            if v not in marks:
                stack.append(v)
    return cost


def _plan_key(plan: Plan) -> tuple:
    """What two sibling plans share exactly when they are one plan: their
    step signatures and the closure of their order."""
    return (tuple(s.signature for s in plan.steps), plan.after)


class Planner:
    """Shared extension pipeline; subclasses provide the ordering stage."""

    kind: str = ""
    conditional: bool = False

    def __init__(self, problem: Problem, config: Optional[PlannerConfig] = None):
        self.problem = problem
        self.config = config or PlannerConfig()
        # Weak keys: cached goal sets die with their plans, so long searches
        # do not accumulate memory.
        self._goal_cache: "weakref.WeakKeyDictionary[Plan, tuple[GoalEntry, ...]]" = (
            weakref.WeakKeyDictionary()
        )

    # -- goals ---------------------------------------------------------

    def root(self) -> Plan:
        return self.problem.root

    def goal_set(self, plan: Plan) -> tuple[GoalEntry, ...]:
        hit = self._goal_cache.get(plan)
        if hit is not None:
            return hit
        if plan.parent is None:
            self._check_input(plan)
        goals = self._compute_goals(plan)
        self._goal_cache[plan] = goals
        return goals

    def is_solution(self, plan: Plan) -> bool:
        """True iff `plan` has no open goal.  A cached goal set answers;
        otherwise a derived plan is decided by ``_solved``, which builds
        no goal set and stops at the first open precondition, and a
        depth-0 plan, which may come from outside, goes through
        ``goal_set`` and its input checks."""
        goals = self._goal_cache.get(plan)
        if goals is not None:
            return not goals
        if plan.parent is not None:
            return self._solved(plan)
        return not self.goal_set(plan)

    def _check_input(self, plan: Plan) -> None:
        """Refuse a depth-0 plan, which may come from outside, that this
        planner's goal rule cannot read."""

    # The goal rule of ``to`` and ``ua``, whose plans any linearization
    # decides; ``mt`` plans may be ambiguous and ask modal truth instead.
    def _compute_goals(self, plan: Plan) -> tuple[GoalEntry, ...]:
        return tuple(false_in_sequence(plan, plan.linear_order))

    def _solved(self, plan: Plan) -> bool:
        return executes(plan, plan.linear_order)

    def select_goal(self, plan: Plan, goals: tuple[GoalEntry, ...]) -> GoalEntry:
        """The first open goal, or under ``seeded`` selection the goal at
        an index drawn from an RNG seeded with the text
        ``seed|depth|needer:condition,...`` (the goals in order).  A lone
        goal is returned without a draw, which could only give 0; other
        draws go through ``_seeded_index``, an LRU of 1024 texts, so a
        repeated goal list at the same seed and depth is read back."""
        if self.config.goal_selection == "seeded" and len(goals) > 1:
            key = ",".join(f"{e.needer}:{e.condition}" for e in goals)
            return goals[_seeded_index(f"{self.config.seed}|{plan.depth}|{key}", len(goals))]
        return goals[0]

    # -- extension -----------------------------------------------------

    def children(self, plan: Plan) -> ExtensionResult:
        goals = self.goal_set(plan)
        if not goals:
            raise ValueError("plan is already solved; nothing to extend")
        return self._extensions(plan, self.select_goal(plan, goals))

    def _extensions(self, plan: Plan, goal: GoalEntry) -> ExtensionResult:
        """Every child establishing `goal` in `plan` (stages 3-4), with its
        step-4 and step-5 costs."""
        raise NotImplementedError

    # -- operator selection --------------------------------------------

    def _adder_instances(self, c: str, label: int) -> list[Step]:
        """Fresh step instances for every library way of adding c that this
        kind uses, read from the problem's adder index."""
        return [
            Step.from_schema(op, label) if deps is None else specialize(Step.from_schema(op, label), deps)
            for op, deps in self.problem.adders.get(c, ())
            if deps is None or self.conditional
        ]


class TotalOrderPlanner(Planner):
    """Key ``to``: keeps every plan totally ordered."""

    kind = "to"

    def _check_input(self, plan: Plan) -> None:
        plan.sequence  # raises unless the plan is totally ordered

    def _extensions(self, plan: Plan, goal: GoalEntry) -> ExtensionResult:
        c, needer = goal.condition, goal.needer
        seq = plan.sequence
        deleter = last_deleter(plan, c, needer)
        i, j = seq.index(deleter), seq.index(needer)
        label = fresh_label(plan)
        # A recipe is the new step and the position it follows.
        recipes = [
            (new_step, g)
            for new_step in self._adder_instances(c, label)
            for g in range(j - 1, i - 1, -1)  # positions from the needer backward
        ]
        if not recipes:
            return ExtensionResult((), ())

        def build(new_step: Step, g: int) -> Plan:
            edges = {(seq[g], label), (label, seq[g + 1]), (INIT_STEP, label), (label, FINAL_STEP)}
            return extend(plan, new_step, edges)

        cost = ChildCost(1, len(plan.steps) + 1)  # goal updating scans the steps
        return ExtensionResult(LazyChildren(build, recipes), (cost,) * len(recipes))


class UnambiguousPlanner(Planner):
    """Key ``ua``: partial orders in which every precondition is either
    necessarily true or necessarily false, maintained by ordering every
    step that interacts with the newcomer.

    The ordering stage computes the per-goal context once and shares it
    with every adder instance: the base edges (last deleter, needer and
    sentinels), their adjacency, the steps they already order against the
    newcomer and the step-4 visits spent finding them.  Only the
    interaction check and the branching over interacting steps are per
    instance.
    """

    kind = "ua"

    def _check_input(self, plan: Plan) -> None:
        # A plan this planner derived is unambiguous by construction, and so
        # is the two-step root; only a plan handed in from outside is checked.
        if plan.length > 0 and not is_unambiguous(plan):
            raise ValueError(f"the {self.kind} planner requires an unambiguous plan")

    def _extensions(self, plan: Plan, goal: GoalEntry) -> ExtensionResult:
        c, needer = goal.condition, goal.needer
        deleter = last_deleter(plan, c, needer)
        label = fresh_label(plan)
        instances = self._adder_instances(c, label)
        if not instances:
            return ExtensionResult((), ())
        # The base edges, the steps they order against the newcomer and the
        # cost of finding them depend only on the goal and the fresh label:
        # every adder instance shares them.  The walks take the newcomer's
        # base edges, then the parent's adjacency: a base edge changes only
        # the neighbours of steps ordered against the newcomer, which no walk
        # from a step unordered against it reaches.  Each base edge has the
        # newcomer, marked from the start, at one end.
        base = frozenset(
            {(deleter, label), (label, needer), (INIT_STEP, label), (label, FINAL_STEP)}
        )
        preds, succs = plan.predecessors, plan.successors
        before, after = {label}, {label}
        visits = len(base) + sum(_spread(before, a, preds) + _spread(after, b, succs) for a, b in base)
        visits += len(plan.steps) + 1  # scan for unlabeled interacting steps
        unordered = [lab for lab in plan.labels if lab not in before and lab not in after]
        mode = "conditional" if self.conditional else "basic"
        # Goal updating touches every edge and twice every step of the child.
        visits5 = len(plan.order) + 2 * (len(plan.steps) + 1)
        recipes: list[tuple[Step, frozenset[tuple[int, int]]]] = []
        costs: list[ChildCost] = []
        for new_step in instances:
            cands = sorted(
                lab for lab in unordered if steps_interact(plan.steps[lab], new_step, mode)
            )

            # One child per way of ordering every candidate before or after the
            # new step: its new edges are the base plus one edge per candidate.
            # A candidate's edge touches the new step and is never a base edge:
            # the base's ends are ordered against the new step, so they are
            # never candidates.
            def branch(
                idx: int,
                before: set[int],
                after: set[int],
                edges: frozenset[tuple[int, int]],
                visits: int,
            ) -> None:
                while idx < len(cands) and (cands[idx] in before or cands[idx] in after):
                    idx += 1
                if idx == len(cands):
                    recipes.append((new_step, edges))
                    costs.append(ChildCost(visits, visits5 + len(edges)))
                    return
                s = cands[idx]
                nb = set(before)
                cost_b = _spread(nb, s, preds)
                branch(idx + 1, nb, after, edges | {(s, label)}, visits + cost_b)
                na = set(after)
                cost_a = _spread(na, s, succs)
                branch(idx + 1, before, na, edges | {(label, s)}, visits + cost_a)

            branch(0, before, after, base, visits)

        return ExtensionResult(LazyChildren(partial(extend, plan), recipes), tuple(costs))


class _RoleSelectionMixin:
    """Step 4b: branch on marking versus specializing every conditional add
    that a later step could consume.  A variant differs from its candidate
    only in its steps' roles, so it has the candidate's costs."""

    def _extensions(self, plan: Plan, goal: GoalEntry) -> ExtensionResult:
        # Specialisations commute, so two paths can reach one variant; the
        # first copy of each distinct plan is kept.
        cands = super()._extensions(plan, goal)
        children: list[Plan] = []
        costs: list[ChildCost] = []
        seen: set = set()
        for cand, cost in zip(cands.children, cands.costs):
            for variant in self._role_branches(cand):
                key = _plan_key(variant)
                if key not in seen:
                    seen.add(key)
                    children.append(variant)
                    costs.append(cost)
        return ExtensionResult(tuple(children), tuple(costs))

    def _role_branches(self, cand: Plan) -> list[Plan]:
        before = cand.before
        results: list[Plan] = []

        def find_trigger(steps: tuple[Step, ...]):
            for lab, step in enumerate(steps):
                for idx, ce in enumerate(step.cadds):
                    if idx in step.marked:
                        continue
                    c = ce.effect
                    for ulab in cand.labels:
                        if not before(lab, ulab) or c not in steps[ulab].pre:
                            continue
                        blocked = any(
                            c in steps[d].dels and before(lab, d) and before(d, ulab)
                            for d in cand.labels
                        )
                        if not blocked:
                            return lab, idx, ce
            return None

        def branch(steps: tuple[Step, ...]) -> None:
            trigger = find_trigger(steps)
            if trigger is None:
                results.append(with_steps(cand, steps))
                return
            lab, idx, ce = trigger
            step = steps[lab]
            for variant in (replace(step, marked=step.marked | {idx}), specialize(step, ce.deps)):
                branch(steps[:lab] + (variant,) + steps[lab + 1 :])

        branch(cand.steps)
        return results


class ConditionalTotalOrderPlanner(_RoleSelectionMixin, TotalOrderPlanner):
    """Key ``toc``: the total-order planner for the conditional language."""

    kind = "toc"
    conditional = True


class ConditionalUnambiguousPlanner(_RoleSelectionMixin, UnambiguousPlanner):
    """Key ``uac``: the unambiguous planner for the conditional language."""

    kind = "uac"
    conditional = True


class ModalTruthPlanner(Planner):
    """Key ``mt``: orders only what each establishment requires.

    Goal updating keeps every precondition that is not necessarily true,
    so plans may be ambiguous.  Operator selection considers both existing
    steps possibly before the needer and fresh library instances.  Each
    threatening deleter is resolved once, either by demotion after the
    needer or by protecting the establishment with a white knight.
    """

    kind = "mt"

    def __init__(self, problem: Problem, config: Optional[PlannerConfig] = None):
        super().__init__(problem, config)
        self._modal_memo: dict[tuple, ModalStatus] = {}

    def _open(self, plan: Plan) -> Iterator[GoalEntry]:
        """The preconditions that are not necessarily true, asked one at a
        time in the goal set's order: steps by label, conditions sorted."""
        memo = self._modal_memo
        for s in plan.steps:
            for c in sorted(s.pre):
                if modal_status(plan, s.label, c, memo) is not ModalStatus.NECESSARILY_TRUE:
                    yield GoalEntry(s.label, c)

    def _compute_goals(self, plan: Plan) -> tuple[GoalEntry, ...]:
        return tuple(self._open(plan))

    def _solved(self, plan: Plan) -> bool:
        return next(self._open(plan), None) is None

    def _extensions(self, plan: Plan, goal: GoalEntry) -> ExtensionResult:
        """Every establishment of `goal` with its threats resolved."""
        c, needer = goal.condition, goal.needer
        found: list[tuple[Plan, int]] = []  # (child plan, step-4 edge visits)
        seen: set = set()
        for s in plan.steps:
            if s.label == needer or c not in s.adds:
                continue
            if plan.before(needer, s.label):
                continue  # necessarily after the needer: not possibly before
            found.extend(
                self._resolve_threats(
                    plan, None, frozenset({(s.label, needer)}), s.label, c, needer, seen
                )
            )
        label = fresh_label(plan)
        base = frozenset({(label, needer), (INIT_STEP, label), (label, FINAL_STEP)})
        for new_step in self._adder_instances(c, label):
            found.extend(self._resolve_threats(plan, new_step, base, label, c, needer, seen))
        # goal updating: one modal-truth query per precondition entry
        costs = tuple(
            ChildCost(visits, sum(len(s.pre) for s in child.steps) * len(child.order))
            for child, visits in found
        )
        return ExtensionResult(tuple(child for child, _ in found), costs)

    def _resolve_threats(
        self,
        plan: Plan,
        new_step: Optional[Step],
        edges: frozenset[tuple[int, int]],
        o_add: int,
        c: str,
        needer: int,
        seen: set,
    ) -> list[tuple[Plan, int]]:
        """Children extending `plan` by `new_step` (or no step) and `edges`
        plus one resolution of every threat to `o_add` establishing `c`."""
        out: list[tuple[Plan, int]] = []
        # The steps are fixed within one call, so a child's closure and its
        # handled threats decide everything below it.  `seen` drops a leaf
        # met again; `met` stops at a threatened state met again, whose
        # leaves are all in `seen` already.
        met: set[tuple[tuple[int, ...], frozenset[int]]] = set()

        def branch(edge_set: frozenset, handled: frozenset[int], visits: int) -> None:
            child = extend(plan, new_step, edge_set)
            before = child.before
            visits += len(child.order)
            threats = [
                d
                for d, st in enumerate(child.steps)
                if c in st.dels
                and d not in (o_add, needer)
                and d not in handled
                and not before(d, o_add)  # not necessarily before the adder
                and not before(needer, d)  # not necessarily after the needer
            ]
            if not threats:
                key = _plan_key(child)
                if key not in seen:
                    seen.add(key)
                    out.append((child, visits))
                return
            if (child.after, handled) in met:
                return
            met.add((child.after, handled))
            d = threats[0]
            if not before(d, needer):  # demotion stays acyclic
                branch(edge_set | {(needer, d)}, handled | {d}, visits)
            for k, st in enumerate(child.steps):
                if k in (d, needer) or c not in st.adds:
                    continue
                if before(k, d) or before(needer, k):
                    continue  # must be possibly between the deleter and the needer
                branch(edge_set | {(d, k), (k, needer)}, handled | {d}, visits)

        branch(edges, frozenset(), 0)
        return out


PLANNERS: dict[str, type[Planner]] = {
    cls.kind: cls
    for cls in (
        TotalOrderPlanner,
        UnambiguousPlanner,
        ConditionalTotalOrderPlanner,
        ConditionalUnambiguousPlanner,
        ModalTruthPlanner,
    )
}


def make_planner(kind: str, problem: Problem, config: Optional[PlannerConfig] = None) -> Planner:
    try:
        cls = PLANNERS[kind]
    except KeyError:
        raise ValueError(f"unknown planner kind {kind!r}; choose from {sorted(PLANNERS)}") from None
    return cls(problem, config)

