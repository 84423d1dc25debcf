"""Search strategies over the extension generators.

All strategies count a node as expanded when they visit it (the root and
solution nodes included) and record per-depth visit counts.  Randomness
comes only from the run's seed, so identical seeds reproduce identical
counters.  The min-goals heuristic rates a child by how many open goals
it has; ranking sorts children by rating (ties keep their shuffled
order), pruning keeps only the best-rated children, and the weighted
variant biases random descent by 1/(1+rating).

Strategies index children one at a time, so for the planners whose
children are built on first index (``to`` and ``ua``) a search builds
only the children it reaches or rates.  Ranking shuffles child indices,
and a shuffle's random draws depend only on the length, so the RNG stream
is the one a shuffle of the plans would draw.

A search reads the goal set of every plan it extends or rates.  A leaf at
the depth limit that nothing rated is only asked ``Planner.is_solution``,
which for ``to`` and ``ua`` decides it by one simulation and computes no
goal set; most visits of a probing search end at such a leaf.

Iterative sampling and iterative broadening revisit the same nodes: every
probe or pass restarts at the run's one root.  They keep an extension memo
for the run, so each plan is extended once, at every depth; only
computation is cached, so the probes' choices, the RNG calls and the
counters are those of a memoryless search.  A memoised result keeps the
children it built, which are memo keys in turn, except at the last
expandable depth: there it keeps only the recipes, and each leaf is built
per visit and dies after it, so the memo does not hold every leaf the run
visits.  The planners that build every child at once are not memoised at
that depth at all, for the same reason.  The memo holds at most one entry
per expanded node, so the node ceiling bounds it, and it dies with the
run.  Breadth-first and depth-first search visit each node once and keep
no memo.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

from .model import Plan
from .planners import ExtensionResult, LazyChildren, Planner
from .trees import _Tally

HEURISTICS = ("none", "min_goals_rank", "min_goals_prune", "min_goals_weight")
STRATEGIES = ("bfs", "dfs", "isamp", "ibroad")
# Heuristics a strategy never consults, so pairing them would rerun the plain
# search under another name: bfs never rates children, dfs and ibroad rank
# or prune but never weight, and isamp prunes or weights but never ranks.
_IGNORED_HEURISTICS = {
    "bfs": HEURISTICS[1:],
    "dfs": ("min_goals_weight",),
    "isamp": ("min_goals_rank",),
    "ibroad": ("min_goals_weight",),
}


@dataclass(frozen=True)
class StrategyConfig:
    """One search's settings.  The depth limit and the node ceiling are
    checked when the run starts, by `trees._Tally`; the rest here."""

    strategy: str = "dfs"
    depth_limit: int = 0
    max_iterations: int = 100_000
    heuristic: str = "none"
    seed: int = 0
    trials: int = 1
    node_ceiling: Optional[int] = None  # unset: trees.NODE_CEILING

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic {self.heuristic!r}")
        if self.heuristic in _IGNORED_HEURISTICS[self.strategy]:
            raise ValueError(f"strategy {self.strategy!r} ignores heuristic {self.heuristic!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, not {self.trials}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, not {self.max_iterations}")


@dataclass(frozen=True)
class SearchOutcome:
    solved: bool
    solution: Optional[Plan]
    nodes_expanded: int
    leaves_visited: int
    per_level_counts: tuple[int, ...]
    wall_time: float
    seed: int
    iterations: Optional[int] = None
    final_cutoff: Optional[int] = None

    @property
    def solution_length(self) -> Optional[int]:
        return self.solution.length if self.solution is not None else None


def min_goals_rating(planner: Planner, plan: Plan) -> int:
    """Open-goal count under the planner's own goal semantics."""
    return len(planner.goal_set(plan))


def rank_children(
    planner: Planner,
    kids: Sequence[Plan],
    mode: str,
    rng: Optional[random.Random] = None,
) -> list[int]:
    """Indices into `kids`: shuffled, then ordered or pruned by the
    heuristic mode on the ratings.  Only rating reads a child."""
    order = list(range(len(kids)))
    if rng is not None:
        rng.shuffle(order)
    if mode == "min_goals_rank":
        # stable: ties keep their shuffled order
        order.sort(key=lambda i: min_goals_rating(planner, kids[i]))
    elif mode == "min_goals_prune" and order:
        ratings = [min_goals_rating(planner, kids[i]) for i in order]
        best = min(ratings)
        order = [i for i, rating in zip(order, ratings) if rating == best]
    elif mode not in HEURISTICS:
        raise ValueError(f"unknown heuristic {mode!r}")
    return order  # min_goals_weight applies at choice time, not here


_Memo = dict[Plan, ExtensionResult]


def _expand(
    planner: Planner,
    plan: Plan,
    depth: int,
    cfg: StrategyConfig,
    tally: _Tally,
    memo: Optional[_Memo] = None,
) -> Optional[ExtensionResult]:
    """Visit `plan`: its children, or None at a counted leaf (a solution,
    the depth limit or a dead end).  Below the depth limit it reads the
    goal set, which extending needs anyway; a plan at the limit is left to
    the caller's ``is_solution``, which needs none.  With a `memo`, a plan
    is extended at most once; at the last expandable depth the memo keeps
    no leaf."""
    tally.visit(depth)
    if depth < cfg.depth_limit and planner.goal_set(plan):
        if memo is None:
            result = planner.children(plan)
        elif (result := memo.get(plan)) is None:
            result = planner.children(plan)
            if depth < cfg.depth_limit - 1:
                memo[plan] = result
            elif isinstance(result.children, LazyChildren):
                memo[plan] = result = replace(result, children=result.children.transient())
        if result.children:
            return result
    tally.leaves += 1
    return None


def bfs(planner: Planner, cfg: StrategyConfig) -> SearchOutcome:
    """Level-by-level exploration; stops at the first solution visited."""
    from collections import deque

    start = time.perf_counter()
    tally = _Tally(cfg.depth_limit, cfg.node_ceiling)
    queue = deque([(planner.root(), 0)])
    while queue:
        plan, depth = queue.popleft()
        result = _expand(planner, plan, depth, cfg, tally)
        if result is not None:
            queue.extend((child, depth + 1) for child in result.children)
        elif planner.is_solution(plan):
            return _outcome(True, plan, tally, start, cfg.seed)
    return _outcome(False, None, tally, start, cfg.seed)


def _descend(
    planner: Planner,
    root: Plan,
    cfg: StrategyConfig,
    rng: random.Random,
    cutoff: Optional[int],
    tally: _Tally,
    memo: Optional[_Memo] = None,
) -> Optional[Plan]:
    """Depth-first from `root`, trying at most `cutoff` ranked children per
    node; the first solution leaf visited, else None.  The walk keeps its
    own stack, so the depth limit is not bounded by Python's recursion
    limit."""
    pending: list[Iterator[Plan]] = []  # untried children per open depth, built when reached
    plan = root
    while True:
        result = _expand(planner, plan, len(pending), cfg, tally, memo)
        if result is None:
            if planner.is_solution(plan):
                return plan
        else:
            kids = _rated(result, cfg.heuristic)
            order = rank_children(planner, kids, cfg.heuristic, rng)
            tally.max_width = max(tally.max_width, len(order))
            pending.append(map(kids.__getitem__, order[:cutoff]))
        while pending and (plan := next(pending[-1], None)) is None:
            pending.pop()
        if not pending:
            return None


def dfs(planner: Planner, cfg: StrategyConfig) -> SearchOutcome:
    """Depth-first with a seeded shuffle at every node; backtracks at the
    depth limit and at dead ends; returns the first solution found."""
    start = time.perf_counter()
    tally = _Tally(cfg.depth_limit, cfg.node_ceiling)
    rng = random.Random(cfg.seed)
    found = _descend(planner, planner.root(), cfg, rng, None, tally)
    return _outcome(found is not None, found, tally, start, cfg.seed)


def iterative_sampling(planner: Planner, cfg: StrategyConfig) -> SearchOutcome:
    """Random root-to-leaf probes, memoryless in their choices, until a
    solution leaf."""
    start = time.perf_counter()
    tally = _Tally(cfg.depth_limit, cfg.node_ceiling)
    rng = random.Random(cfg.seed)
    root = planner.root()
    memo: _Memo = {}
    for iteration in range(1, cfg.max_iterations + 1):
        plan, depth = root, 0
        while (result := _expand(planner, plan, depth, cfg, tally, memo)) is not None:
            plan = _pick(planner, result, cfg.heuristic, rng)
            depth += 1
        if planner.is_solution(plan):
            return _outcome(True, plan, tally, start, cfg.seed, iterations=iteration)
    return _outcome(False, None, tally, start, cfg.seed, iterations=cfg.max_iterations)


def _rated(result: ExtensionResult, heuristic: str) -> Sequence[Plan]:
    """The children to choose from: all built at once under a heuristic,
    which rates every one, so that none is built twice."""
    return result.children if heuristic == "none" else list(result.children)


def _pick(planner: Planner, result: ExtensionResult, heuristic: str, rng: random.Random) -> Plan:
    """One child; without a heuristic, only that child is built."""
    kids = _rated(result, heuristic)
    if heuristic == "min_goals_prune":
        kids = [kids[i] for i in rank_children(planner, kids, heuristic)]
    elif heuristic == "min_goals_weight":
        weights = [1.0 / (1 + min_goals_rating(planner, child)) for child in kids]
        return rng.choices(kids, weights=weights)[0]
    return kids[rng.randrange(len(kids))]


def iterative_broadening(planner: Planner, cfg: StrategyConfig) -> SearchOutcome:
    """Depth-first passes with growing per-node breadth cutoff.

    Every pass reuses the run's seed, so the pass whose cutoff reaches the
    tree's maximum branching visits exactly the plain depth-first node
    set.  The search is complete within the depth bound: it stops once a
    pass ran uncut and found nothing.
    """
    start = time.perf_counter()
    tally = _Tally(cfg.depth_limit, cfg.node_ceiling)
    root = planner.root()
    memo: _Memo = {}
    cutoff = 1
    while True:
        rng = random.Random(cfg.seed)
        tally.max_width = 0
        found = _descend(planner, root, cfg, rng, cutoff, tally, memo)
        if found is not None:
            return _outcome(True, found, tally, start, cfg.seed, final_cutoff=cutoff)
        if cutoff >= tally.max_width:
            return _outcome(False, None, tally, start, cfg.seed, final_cutoff=cutoff)
        cutoff += 1


def _outcome(
    solved: bool,
    plan: Optional[Plan],
    tally: _Tally,
    start: float,
    seed: int,
    iterations: Optional[int] = None,
    final_cutoff: Optional[int] = None,
) -> SearchOutcome:
    return SearchOutcome(
        solved=solved,
        solution=plan,
        nodes_expanded=tally.nodes,
        leaves_visited=tally.leaves,
        per_level_counts=tuple(tally.levels),
        wall_time=time.perf_counter() - start,
        seed=seed,
        iterations=iterations,
        final_cutoff=final_cutoff,
    )


_STRATEGY_FNS: dict[str, Callable[[Planner, StrategyConfig], SearchOutcome]] = {
    "bfs": bfs,
    "dfs": dfs,
    "isamp": iterative_sampling,
    "ibroad": iterative_broadening,
}


def run_search(planner: Planner, cfg: StrategyConfig) -> SearchOutcome:
    return _STRATEGY_FNS[cfg.strategy](planner, cfg)


def run_trials(
    make_planner: Callable[[int], Planner], cfg: StrategyConfig
) -> list[SearchOutcome]:
    """Run `cfg.trials` independent searches; trial i uses seed+i and a
    fresh planner built by `make_planner(trial_seed)`."""
    outcomes = []
    for trial in range(cfg.trials):
        trial_seed = cfg.seed + trial
        planner = make_planner(trial_seed)
        outcomes.append(run_search(planner, replace(cfg, seed=trial_seed)))
    return outcomes
