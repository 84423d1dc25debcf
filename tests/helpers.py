"""Maintenance helpers and oracles that only tests call.

``find_suite_entries`` regenerates ``domains.SUITE_ENTRIES`` (the committed
44-problem suite) from a deterministic seed scan, and
``mean_probes_until_solution`` estimates the leaf-sampling cost that
criterion C09 compares against.  ``equivalent``,
``is_linearization_brute``, ``is_unambiguous_brute``, ``is_solution_plan``
and ``is_compact_solution`` are brute-force oracles the tests compare
planner output against, ``validate_plan`` checks a plan's structural
invariants, ``orders_forward`` checks a label sequence against a plan's
order, ``closure_pairs`` lists the pairs ``Plan.before`` affirms and
``reachable_pairs`` the pairs a walk over the order's edges connects,
``runs_to_the_goals`` executes a sequence with the state-space oracle's
``apply_operator``, ``minimal_solution_length_brute`` is that oracle's
search over frozenset states, stepping with ``apply_operator``, and
``seeded_goal_brute`` is goal selection drawing from a fresh RNG on every
call, with no memo and no shortcut for a lone goal; ``seeded_picks``
records the goal choices a tree enumeration makes.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Optional

from planlab.domains import BlocksworldSpec, blocksworld_problem
from planlab.model import (
    FINAL_STEP,
    INIT_STEP,
    Plan,
    Problem,
    _check_size,
    linear_extensions,
    restrict,
)
from planlab import oracle
from planlab.oracle import OracleCeilingError, apply_operator, minimal_solution_length
from planlab.planners import PlannerConfig, make_planner
from planlab.search import StrategyConfig, run_trials
from planlab.trees import TreeCeilingError, enumerate_tree
from planlab.truth import GoalEntry, ModalStatus, modal_status, modal_status_brute, precondition_entries

SUITE_CLASSES = (1, 2, 3, 4)
SUITE_PER_CLASS = 11

# Per-class admission budgets, measured with fixed probe seeds: total-order
# breadth-first nodes to the first solution, mean depth-first nodes over
# three probe trials, and mean sampling iterations over two probe trials.
# They keep the committed suite's 25-trial experiment matrices desk-scale;
# minimal length 5 is excluded outright: random depth-5 probes need several
# thousand iterations per solution in this encoding, which prices the
# sampling experiments out of test scale.
_SUITE_BUDGETS = {
    1: (60, 40, 30),
    2: (500, 400, 60),
    3: (1_500, 900, 90),
    4: (6_000, 2_000, 150),
}


def _fits_budget(problem: Problem, length: int) -> bool:
    bfs_cap, dfs_cap, isamp_cap = _SUITE_BUDGETS[length]

    def probe(**fields) -> list:
        cfg = StrategyConfig(depth_limit=length, **fields)
        return run_trials(lambda _seed: make_planner("to", problem), cfg)

    try:
        # cheapest probe first: random sampling rejects most oversized candidates
        samples = probe(strategy="isamp", seed=2000, trials=2, max_iterations=2 * isamp_cap)
        if not all(o.solved for o in samples) or sum(o.iterations for o in samples) > 2 * isamp_cap:
            return False
        dives = probe(strategy="dfs", seed=1000, trials=3, node_ceiling=3 * dfs_cap)
        if not all(o.solved for o in dives) or sum(o.nodes_expanded for o in dives) > 3 * dfs_cap:
            return False
        if not probe(strategy="bfs", node_ceiling=bfs_cap)[0].solved:
            return False
    except TreeCeilingError:
        return False
    if length >= 2:
        # the suite should exercise real ordering freedom: beyond length 1,
        # admit only problems whose partial-order tree is strictly smaller
        try:
            to_tree = enumerate_tree(make_planner("to", problem), length, 6 * bfs_cap)
            ua_tree = enumerate_tree(make_planner("ua", problem), length, 6 * bfs_cap)
        except TreeCeilingError:
            return False
        return len(ua_tree) < len(to_tree)
    return True


def find_suite_entries(
    per_class: int = SUITE_PER_CLASS,
    classes: tuple[int, ...] = SUITE_CLASSES,
    seed_limit: int = 20_000,
) -> tuple[tuple[int, int, int], ...]:
    """Deterministically rebuild the suite seed list.

    Seeds are scanned in order; a candidate joins the first unfilled class
    matching its oracle minimal length, provided search-cost probes stay
    within the class budget (keeps the experiment matrix desk-scale).
    """
    filled: dict[int, list[tuple[int, int, int]]] = {c: [] for c in classes}
    for seed in range(seed_limit):
        if all(len(v) >= per_class for v in filled.values()):
            break
        for n_blocks in (2, 3, 4):
            problem = blocksworld_problem(BlocksworldSpec(n_blocks=n_blocks, seed=seed))
            length = minimal_solution_length(problem)
            if length not in filled or len(filled[length]) >= per_class:
                continue
            if _fits_budget(problem, length):
                filled[length].append((length, n_blocks, seed))
    if any(len(v) < per_class for v in filled.values()):
        raise RuntimeError("seed scan exhausted before filling every class")
    out: list[tuple[int, int, int]] = []
    for c in classes:
        out.extend(filled[c])
    return tuple(out)


def mean_probes_until_solution(
    leaves: int, solutions: int, runs: int, seed: int = 0
) -> float:
    """Monte Carlo estimate of how many distinct leaves a uniform scan
    inspects before hitting a solution, averaged over `runs` shuffles."""
    if not 0 < solutions <= leaves:
        raise ValueError("need 0 < solutions <= leaves")
    rng = random.Random(seed)
    arr = [True] * solutions + [False] * (leaves - solutions)
    total = 0
    for _ in range(runs):
        rng.shuffle(arr)
        total += arr.index(True) + 1
    return total / runs


def _signature_groups(plan: Plan) -> dict[tuple, list[int]]:
    groups: dict[tuple, list[int]] = {}
    for s in plan.steps:
        groups.setdefault(s.signature, []).append(s.label)
    return groups


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
        sig = p1.steps[a].signature
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


def is_linearization_brute(total: Plan, plan: Plan) -> bool:
    """The bijection reading of `model.is_linearization`: `total` is totally
    ordered and some linear extension of `plan` reads, signature for
    signature, as `total.sequence`, whatever the labels."""
    if len(total.steps) != len(plan.steps) or not total.is_total:
        return False
    want = tuple(total.steps[lab].signature for lab in total.sequence)
    return any(
        tuple(plan.steps[lab].signature for lab in seq) == want
        for seq in linear_extensions(plan)
    )


def validate_plan(plan: Plan) -> None:
    """Raise ``ValueError`` unless the order is acyclic, the initial step
    precedes and the final step follows every other step, and the plan has
    a parent exactly when its depth is not 0."""
    plan.linear_order  # raises on a cycle
    for lab in plan.labels:
        if lab != INIT_STEP and not plan.before(INIT_STEP, lab):
            raise ValueError(f"initial step does not precede step {lab}")
        if lab != FINAL_STEP and not plan.before(lab, FINAL_STEP):
            raise ValueError(f"final step does not follow step {lab}")
    if (plan.parent is None) != (plan.depth == 0):
        raise ValueError("parent must be absent exactly at derivation depth 0")


def orders_forward(plan: Plan, seq: tuple[int, ...]) -> bool:
    """True iff `seq` lists each of `plan`'s labels once and places every
    edge of its order forward: `seq` is a linearization of `plan`."""
    position = {lab: i for i, lab in enumerate(seq)}
    return (
        len(seq) == len(plan.labels)
        and position.keys() == set(plan.labels)
        and all(position[a] < position[b] for a, b in plan.order)
    )


def closure_pairs(plan: Plan) -> frozenset[tuple[int, int]]:
    """Every pair (a, b) of `plan`'s labels for which ``plan.before(a, b)``."""
    return frozenset((a, b) for a in plan.labels for b in plan.labels if plan.before(a, b))


def reachable_pairs(plan: Plan) -> frozenset[tuple[int, int]]:
    """Every pair (a, b) such that a path of `plan.order`'s edges leads
    from a to b: the closure, found by a walk that reads no model view."""
    succ: dict[int, list[int]] = {}
    for a, b in plan.order:
        succ.setdefault(a, []).append(b)
    pairs: set[tuple[int, int]] = set()
    for a, out in succ.items():
        seen: set[int] = set()
        stack = list(out)
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(succ.get(b, ()))
        pairs.update((a, b) for b in seen)
    return frozenset(pairs)


def runs_to_the_goals(problem: Problem, plan: Plan, seq: tuple[int, ...]) -> bool:
    """True iff the steps of `plan` between its sentinels, run in the order
    of `seq` from the initial state under ``oracle.apply_operator``, are
    each applicable and end in a state holding every goal."""
    state = frozenset(problem.init)
    for lab in seq:
        if lab in (INIT_STEP, FINAL_STEP):
            continue
        step = plan.steps[lab]
        if not step.pre <= state:
            return False
        state = apply_operator(state, step)
    return problem.goals <= state


def minimal_solution_length_brute(problem: Problem) -> Optional[int]:
    """Breadth-first ``oracle.minimal_solution_length`` over frozenset
    states: operators in library order, the goal test when a state is
    generated, and a refusal once more than ``oracle.STATE_CEILING``
    states are seen."""
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
            if len(seen) > oracle.STATE_CEILING:
                raise OracleCeilingError(f"state-space search exceeded {oracle.STATE_CEILING} states")
            queue.append((nxt, dist + 1))
    return None


def seeded_goal_brute(config: PlannerConfig, plan: Plan, goals: tuple[GoalEntry, ...]) -> GoalEntry:
    """``Planner.select_goal`` as it was before its draws were memoised."""
    if config.goal_selection == "seeded":
        key = ",".join(f"{e.needer}:{e.condition}" for e in goals)
        rng = random.Random(f"{config.seed}|{plan.depth}|{key}")
        return goals[rng.randrange(len(goals))]
    return goals[0]


def seeded_picks(kind: str, problem: Problem, config: PlannerConfig, depth: int) -> list:
    """``(plan, goals, chosen)`` for every goal choice the `kind` tree of
    `problem` to `depth` makes, one per extended node."""
    planner = make_planner(kind, problem, config)
    picks = []
    select = planner.select_goal

    def spy(plan, goals):
        picks.append((plan, goals, select(plan, goals)))
        return picks[-1][2]

    planner.select_goal = spy
    tree = enumerate_tree(planner, depth)
    assert len(picks) == sum(1 for n in tree.nodes if n.goals and n.depth < depth)
    return picks


def is_unambiguous_brute(plan: Plan) -> bool:
    """All-linearizations version of `truth.is_unambiguous`, for cross-checks."""
    return all(
        modal_status_brute(plan, e.needer, e.condition) is not ModalStatus.AMBIGUOUS
        for e in precondition_entries(plan)
    )


def is_solution_plan(plan: Plan) -> bool:
    """True iff every precondition of every step is necessarily true."""
    return all(
        modal_status(plan, e.needer, e.condition) is ModalStatus.NECESSARILY_TRUE
        for e in precondition_entries(plan)
    )


def is_compact_solution(plan: Plan) -> bool:
    """True iff the plan is a solution and no strict subplan (keeping the
    initial and final steps) is itself a solution."""
    if not is_solution_plan(plan):
        raise ValueError("compactness is only defined for solution plans")
    middles = plan.middle_labels
    for r in range(len(middles)):
        for combo in itertools.combinations(middles, r):
            if is_solution_plan(restrict(plan, (INIT_STEP, FINAL_STEP) + combo)):
                return False
    return True
