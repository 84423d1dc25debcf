"""The benchmark's workloads: set-up, task lists, task execution and checks.

A workload is a fixed list of cells (problem x planner x strategy x
heuristic).  One *round* runs every cell once (or a fixed number of
trials per cell); round ``r`` of workload seed ``s`` uses trial seeds
``s * SEED_STRIDE + r * trials + j``, so seed 0 round 0 uses trial seed 0,
the first trial of the acceptance matrices.  Every task goes through
planlab's public API with the acceptance matrices' call shape:
``make_planner(kind, problem, PlannerConfig("seeded", seed))`` followed by
``run_search`` or ``enumerate_tree``.  Depth limits come from
``oracle.minimal_solution_length``.

Why these three workloads:

``sample``   iterative sampling and iterative broadening with ``to``/``ua``
             on suite classes 3-4.  Probes restart from the root and
             recompute the same extensions; most generated children are
             never visited.  An extension memo or lazy goal sets act here.
``descend``  seeded depth-first search with ``to``/``ua`` under heuristics
             ``none`` and ``min_goals_rank`` on all four classes, plus
             ``mt`` under plain depth-first search.  Each node is visited
             at most once, so a memo should change nothing here; ``mt``
             puts modal truth and linear extensions on the search path.
``verify``   exhaustive ``ua``/``to`` tree enumeration, correspondence and
             its checks on suite classes 3-4 and every chain-domain goal
             subset of size <= 3, ``uac``/``toc`` on fig13 and the ``mt``
             sibling-overlap diagnostic on fig17 at depth 7.  Every child is
             visited and model relations dominate; search-side caching
             should change nothing here.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from planlab import domains, oracle, planners, search, trees
from planlab.model import FINAL_STEP, INIT_STEP, Plan, Problem

WORKLOADS = ("sample", "descend", "verify")
DEFAULT_SEED = 0
SEED_STRIDE = 10_000
# Tail percentile per workload: the highest of 90/95/98/99 that leaves at
# least ten tasks of one round beyond it.
TAIL_PERCENTILE = {"sample": 90, "descend": 95, "verify": 98}
OVERLAP_DEPTH = 7  # the depth acceptance criterion C07 compares fig17 trees at


@dataclass(frozen=True)
class Entry:
    problem: Problem
    length_class: int  # 0 outside the blocksworld suite
    depth: int


@dataclass(frozen=True)
class Cell:
    op: str  # "search", "verify" or "overlap"
    problem: str
    kinds: tuple[str, ...]
    strategy: str = ""
    heuristic: str = "none"
    trials: int = 1  # per round


@dataclass(frozen=True)
class Task:
    key: str
    cell: Cell
    seed: int


@dataclass
class Setup:
    workload: str
    seed: int
    problems: dict[str, Entry]
    cells: list[Cell]
    round0: list[Task] = field(default_factory=list)

    def round_tasks(self, r: int, shuffle: bool = False) -> list[Task]:
        """Round ``r``'s tasks in cell order, or in a shuffle seeded by the
        workload seed and ``r``."""
        base = self.seed * SEED_STRIDE
        tasks = []
        for cell in self.cells:
            for j in range(cell.trials):
                key = "/".join(
                    (cell.op, cell.strategy or "-", cell.heuristic, "+".join(cell.kinds), cell.problem, f"t{j}")
                )
                tasks.append(Task(key, cell, base + r * cell.trials + j))
        if shuffle:
            random.Random(base + r).shuffle(tasks)
        return tasks


def build(workload: str, seed: int) -> Setup:
    """Suite build, oracle depths and the round-0 task list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    classes = (1, 2, 3, 4) if workload == "descend" else (3, 4)
    problems: dict[str, Entry] = {}

    def add(problem: Problem, length_class: int, depth: Optional[int] = None) -> str:
        if depth is None:
            depth = oracle.minimal_solution_length(problem)
            if depth is None:
                raise ValueError(f"{problem.name} has no solution; no oracle depth")
        if problem.name in problems:
            raise ValueError(f"duplicate problem name {problem.name}")
        problems[problem.name] = Entry(problem, length_class, depth)
        return problem.name

    suite = [add(p, c) for c, p in domains.standard_suite() if c in classes]
    cells: list[Cell] = []
    if workload == "sample":
        for name in suite:
            for kind in ("to", "ua"):
                cells.append(Cell("search", name, (kind,), "isamp"))
                cells.append(Cell("search", name, (kind,), "ibroad", trials=2))
    elif workload == "descend":
        for name in suite:
            for kind in ("to", "ua"):
                for heuristic in ("none", "min_goals_rank"):
                    cells.append(Cell("search", name, (kind,), "dfs", heuristic))
            cells.append(Cell("search", name, ("mt",), "dfs"))
    else:
        chains = [
            add(domains.d1s1_problem(combo), 0)
            for size in (1, 2, 3)
            for combo in itertools.combinations(range(1, domains.CHAIN_SIZE + 1), size)
        ]
        cells = [Cell("verify", name, ("ua", "to")) for name in suite + chains]
        cells.append(Cell("verify", add(domains.fixture("fig13"), 0), ("uac", "toc")))
        fig17 = add(domains.fixture("fig17"), 0, OVERLAP_DEPTH)
        cells.append(Cell("overlap", fig17, ("mt", "to")))
    setup = Setup(workload, seed, problems, cells)
    setup.round0 = setup.round_tasks(0)
    return setup


# -- running one task ------------------------------------------------------


@dataclass
class Outcome:
    """One executed task: counters that must repeat exactly, the nodes it
    expanded or enumerated, its wall time, and any failure."""

    key: str
    counters: list
    nodes: int
    seconds: float
    failure: Optional[str] = None


def run_task(task: Task, setup: Setup):
    """The timed part of a task: planlab calls only, no checking."""
    cell = task.cell
    entry = setup.problems[cell.problem]
    config = planners.PlannerConfig("seeded", task.seed)
    if cell.op == "search":
        planner = planners.make_planner(cell.kinds[0], entry.problem, config)
        return search.run_search(
            planner,
            search.StrategyConfig(
                strategy=cell.strategy,
                depth_limit=entry.depth,
                heuristic=cell.heuristic,
                seed=task.seed,
            ),
        )
    tree_a = trees.enumerate_tree(planners.make_planner(cell.kinds[0], entry.problem, config), entry.depth)
    tree_b = trees.enumerate_tree(planners.make_planner(cell.kinds[1], entry.problem, config), entry.depth)
    if cell.op == "overlap":
        return tree_a, tree_b, trees.sibling_overlap_violations(tree_a, tree_b)
    cmap = trees.build_correspondence(tree_a, tree_b)
    reports = (
        trees.verify_totality(cmap, tree_a),
        trees.verify_disjointness(cmap),
        trees.verify_partition(cmap, tree_b),
    )
    return tree_a, tree_b, cmap.image_size_sum(), reports


def summarize(task: Task, setup: Setup, result) -> tuple[list, int, Optional[str]]:
    """Counters, node count and the output check of one task's result."""
    cell = task.cell
    entry = setup.problems[cell.problem]
    if cell.op == "search":
        out = result
        counters = [out.solved, out.nodes_expanded, out.leaves_visited, out.iterations, out.solution_length]
        if out.solved:
            failure = check_solution(out.solution, entry.problem, entry.depth)
        elif cell.kinds[0] == "mt":
            # mt spends extensions on establishments by existing steps, so
            # the oracle's step count can be too shallow for it: an
            # exhausted depth-first search is a valid outcome.
            failure = None
        else:
            failure = f"unsolved within the oracle depth {entry.depth}"
        return counters, out.nodes_expanded, failure
    if cell.op == "overlap":
        tree_a, tree_b, violations = result
        counters = [len(tree_a), len(tree_b), len(violations)]
        failure = None if violations else "no overlapping sibling pair"
        return counters, len(tree_a) + len(tree_b), failure
    tree_a, tree_b, image_sum, reports = result
    counters = [len(tree_a), len(tree_b), image_sum, [r.ok for r in reports]]
    failure = None
    bad = [r.name for r in reports if not r.ok]
    if bad:
        failure = "check failed: " + ", ".join(bad)
    elif len(tree_a) > len(tree_b):
        failure = f"size: |{cell.kinds[0]}| = {len(tree_a)} > |{cell.kinds[1]}| = {len(tree_b)}"
    elif image_sum != len(tree_b):
        failure = f"image sizes sum to {image_sum}, not |{cell.kinds[1]}| = {len(tree_b)}"
    return counters, len(tree_a) + len(tree_b), failure


def execute(task: Task, setup: Setup, golden: Optional[dict] = None, tracer=None) -> Outcome:
    """Run one task timed from outside, then check it with tracing paused.

    Exceptions, ceilings included, make the task fail instead of the run.
    """
    if tracer is not None:
        tracer.task_id = task.key
        tracer.enabled = True
    start = time.perf_counter()
    try:
        result = run_task(task, setup)
    except Exception as exc:  # a failed task, not a failed run
        return Outcome(task.key, [], 0, time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.enabled = False
    seconds = time.perf_counter() - start
    try:
        counters, nodes, failure = summarize(task, setup, result)
    except Exception as exc:
        return Outcome(task.key, [], 0, seconds, f"check raised {type(exc).__name__}: {exc}")
    if failure is None and golden is not None:
        want = golden.get(task.key)
        if want != counters:
            failure = f"counters {counters} differ from golden {want}"
    return Outcome(task.key, counters, nodes, seconds, failure)


# -- independent solution check --------------------------------------------


def _linearize(plan: Plan, pick) -> list[int]:
    """A topological order of the plan's edges, choosing among ready labels
    with `pick` (min or max); written here so the check shares no code
    with the planners."""
    labels = {s.label for s in plan.steps}
    preds = {lab: set() for lab in labels}
    for a, b in plan.order:
        preds[b].add(a)
    out: list[int] = []
    placed: set[int] = set()
    while len(out) < len(labels):
        ready = [lab for lab in labels - placed if preds[lab] <= placed]
        if not ready:
            raise ValueError("plan ordering has a cycle")
        lab = pick(ready)
        out.append(lab)
        placed.add(lab)
    return out


def check_solution(plan: Plan, problem: Problem, minimum: int) -> Optional[str]:
    """Execute two linearizations of a returned solution from the initial
    state with the state-space oracle's operator semantics."""
    steps = {s.label: s for s in plan.steps}
    middle = len(steps) - 2
    if middle < minimum:
        return f"solution has {middle} steps, fewer than the oracle minimum {minimum}"
    for pick in (min, max):
        state = frozenset(problem.init)
        for lab in _linearize(plan, pick):
            if lab in (INIT_STEP, FINAL_STEP):
                continue
            step = steps[lab]
            if not step.pre <= state:
                return f"step {lab} ({step.name}) runs with unmet preconditions {sorted(step.pre - state)}"
            state = oracle.apply_operator(state, step)
        if not problem.goals <= state:
            return f"goals {sorted(problem.goals - state)} unmet after the plan"
    return None
