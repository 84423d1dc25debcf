from __future__ import annotations

import gc
import weakref
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest

from planlab.domains import d1s1_problem, fixture, standard_suite
from planlab.model import Problem, make_op
from planlab.planners import PlannerConfig, make_planner
from planlab.search import (
    HEURISTICS,
    STRATEGIES,
    StrategyConfig,
    _expand,
    bfs,
    dfs,
    iterative_broadening,
    iterative_sampling,
    min_goals_rating,
    rank_children,
    run_search,
    run_trials,
)
from planlab import planners, trees
from planlab.trees import TreeCeilingError, _Tally, enumerate_tree
from planlab.truth import precondition_entries

from helpers import mean_probes_until_solution


def empty_goal_problem():
    return Problem("noop", frozenset(["p"]), frozenset(), ())


class TestBfs:
    def test_empty_goal_solved_at_root(self):
        planner = make_planner("to", empty_goal_problem())
        out = bfs(planner, StrategyConfig(strategy="bfs", depth_limit=0))
        assert out.solved and out.nodes_expanded == 1
        assert out.per_level_counts == (1,)
        assert out.solution_length == 0

    def test_chain_domain_depth_two_both_planners(self):
        prob = d1s1_problem([1, 2])
        for kind in ("to", "ua"):
            out = bfs(make_planner(kind, prob), StrategyConfig(strategy="bfs", depth_limit=2))
            assert out.solved
            assert out.solution_length == 2

    def test_same_solution_depth_across_planners(self):
        for name in ("sussman", "fig2", "fig4", "fig9"):
            prob = fixture(name)
            depths = {}
            for kind in ("to", "ua"):
                out = bfs(
                    make_planner(kind, prob),
                    StrategyConfig(strategy="bfs", depth_limit=6),
                )
                assert out.solved, (name, kind)
                depths[kind] = out.solution_length
            assert depths["to"] == depths["ua"], name

    def test_levels_match_enumerated_tree_before_solution_depth(self):
        from planlab.trees import enumerate_tree

        prob = fixture("sussman")
        for kind in ("to", "ua"):
            planner = make_planner(kind, prob)
            out = bfs(planner, StrategyConfig(strategy="bfs", depth_limit=3))
            tree = enumerate_tree(make_planner(kind, prob), 3)
            per_level = [0] * 4
            for n in tree.nodes:
                per_level[n.depth] += 1
            solution_depth = out.solution_length
            for d in range(solution_depth):
                assert out.per_level_counts[d] == per_level[d]


class TestDfs:
    def test_visits_at_most_tree_size(self):
        prob = d1s1_problem([1, 2, 3])
        out = dfs(make_planner("to", prob), StrategyConfig(strategy="dfs", depth_limit=3, seed=5))
        assert out.solved
        assert out.nodes_expanded <= 10  # full tree size

    def test_trials_report_separately(self):
        prob = fixture("sussman")
        cfg = StrategyConfig(strategy="dfs", depth_limit=3, seed=100, trials=5)
        outs = run_trials(
            lambda seed: make_planner("to", prob, PlannerConfig("seeded", seed)), cfg
        )
        assert len(outs) == 5
        assert [o.seed for o in outs] == [100, 101, 102, 103, 104]

    def test_identical_seeds_bitwise_reproducible(self):
        prob = fixture("sussman")
        cfg = StrategyConfig(strategy="dfs", depth_limit=3, seed=7)
        a = dfs(make_planner("ua", prob), cfg)
        b = dfs(make_planner("ua", prob), cfg)
        assert (a.nodes_expanded, a.leaves_visited, a.per_level_counts) == (
            b.nodes_expanded,
            b.leaves_visited,
            b.per_level_counts,
        )

    def test_never_expands_below_depth_limit(self):
        prob = d1s1_problem([1, 2, 3])
        out = dfs(make_planner("to", prob), StrategyConfig(strategy="dfs", depth_limit=2, seed=0))
        assert not out.solved
        assert len(out.per_level_counts) == 3

    def test_min_goals_rank_prefers_better_ordering_child(self):
        # the cheaper interaction ordering is expanded first
        prob = fixture("fig9")
        planner = make_planner("ua", prob)
        from planlab.trees import enumerate_tree

        tree = enumerate_tree(planner, 3)
        target = None
        for n in tree.nodes:
            names = sorted(n.plan.steps[lab].name for lab in n.plan.middle_labels)
            if names == ["closer", "supplier"]:
                target = n
        result = planner.children(target.plan)
        import random

        ordered = rank_children(planner, result.children, "min_goals_rank", random.Random(3))
        first = result.children[ordered[0]]
        relay = [s.label for s in first.steps if s.name == "relay"][0]
        supplier = [s.label for s in first.steps if s.name == "supplier"][0]
        assert first.before(supplier, relay)


class TestIterativeSampling:
    def test_all_leaves_solutions_one_iteration(self):
        prob = d1s1_problem([1])
        out = iterative_sampling(
            make_planner("to", prob),
            StrategyConfig(strategy="isamp", depth_limit=1, seed=3),
        )
        assert out.solved and out.iterations == 1

    def test_iteration_cap_reported(self):
        prob = Problem(
            "hopeless",
            frozenset(),
            frozenset(["g"]),
            (make_op("spin", adds=["x"]),),
        )
        out = iterative_sampling(
            make_planner("to", prob),
            StrategyConfig(strategy="isamp", depth_limit=2, seed=0, max_iterations=40),
        )
        assert not out.solved
        assert out.iterations == 40

    def test_prune_mode_follows_fewest_goals(self):
        prob = fixture("fig9")
        out = iterative_sampling(
            make_planner("ua", prob),
            StrategyConfig(
                strategy="isamp", depth_limit=3, seed=1, heuristic="min_goals_prune"
            ),
        )
        assert out.solved

    def test_weight_mode_biases_but_explores_everything(self):
        # the probabilistic variant keeps every child reachable
        prob = fixture("fig9")
        solved = 0
        for seed in range(6):
            out = iterative_sampling(
                make_planner("ua", prob),
                StrategyConfig(
                    strategy="isamp",
                    depth_limit=3,
                    seed=seed,
                    heuristic="min_goals_weight",
                ),
            )
            solved += out.solved
        assert solved == 6


class TestIterativeBroadening:
    def test_cutoff_one_is_single_path(self):
        prob = d1s1_problem([1, 2, 3])
        out = iterative_broadening(
            make_planner("to", prob),
            StrategyConfig(strategy="ibroad", depth_limit=3, seed=11),
        )
        if out.final_cutoff == 1:
            assert out.nodes_expanded <= 4

    def test_final_pass_matches_plain_dfs_when_uncut(self):
        prob = fixture("sussman")
        seed = 21
        plain = dfs(make_planner("to", prob), StrategyConfig(strategy="dfs", depth_limit=3, seed=seed))
        wide = iterative_broadening(
            make_planner("to", prob),
            StrategyConfig(strategy="ibroad", depth_limit=3, seed=seed),
        )
        assert wide.solved == plain.solved
        if wide.final_cutoff is not None and wide.final_cutoff >= 64:
            assert plain.nodes_expanded <= wide.nodes_expanded

    def test_unsolvable_terminates_complete(self):
        prob = Problem(
            "hopeless",
            frozenset(),
            frozenset(["g"]),
            (make_op("spin", adds=["x"]),),
        )
        out = iterative_broadening(
            make_planner("to", prob),
            StrategyConfig(strategy="ibroad", depth_limit=2, seed=0),
        )
        assert not out.solved

    def test_solves_chain_domain(self):
        prob = d1s1_problem([1, 2])
        out = iterative_broadening(
            make_planner("ua", prob),
            StrategyConfig(strategy="ibroad", depth_limit=2, seed=4),
        )
        assert out.solved and out.solution_length == 2


@lru_cache(maxsize=None)
def suite_problems():
    return {problem.name: (length, problem) for length, problem in standard_suite()}


# (problem, planner, strategy, heuristic, nodes_expanded, leaves_visited,
#  per_level_counts, iterations or final_cutoff, solution length) at seed 1
# with depth limit = the problem's length class, recorded before the memo.
MEMO_CASES = [
    ("blocks4_seed6", "to", "isamp", "none", 308, 77, (77, 77, 77, 77), 77, 3),
    ("blocks4_seed6", "to", "ibroad", "none", 12, 5, (2, 2, 3, 5), 2, 3),
    ("blocks4_seed6", "to", "isamp", "min_goals_weight", 224, 56, (56, 56, 56, 56), 56, 3),
    ("blocks4_seed6", "ua", "isamp", "none", 1176, 294, (294, 294, 294, 294), 294, 3),
    ("blocks4_seed6", "ua", "ibroad", "none", 226, 164, (6, 13, 43, 164), 6, 3),
    ("blocks4_seed6", "ua", "isamp", "min_goals_weight", 224, 56, (56, 56, 56, 56), 56, 3),
    ("blocks4_seed42", "to", "isamp", "none", 184, 46, (46, 46, 46, 46), 46, 3),
    ("blocks4_seed42", "to", "ibroad", "none", 37, 20, (3, 5, 9, 20), 3, 3),
    ("blocks4_seed42", "to", "isamp", "min_goals_weight", 52, 13, (13, 13, 13, 13), 13, 3),
    ("blocks4_seed42", "ua", "isamp", "none", 76, 19, (19, 19, 19, 19), 19, 3),
    ("blocks4_seed42", "ua", "ibroad", "none", 145, 100, (5, 11, 29, 100), 5, 3),
    ("blocks4_seed42", "ua", "isamp", "min_goals_weight", 52, 13, (13, 13, 13, 13), 13, 3),
]


def memo_run(case, spy=None):
    name, kind, strategy, heuristic = case[:4]
    length, problem = suite_problems()[name]
    planner = make_planner(kind, problem, PlannerConfig("seeded", 1))
    if spy is not None:
        extend = planner.children

        def children(plan):
            spy.append(plan)  # held, so identities stay unique for the run
            return extend(plan)

        planner.children = children
    cfg = StrategyConfig(strategy=strategy, heuristic=heuristic, depth_limit=length, seed=1)
    return planner, cfg, run_search(planner, cfg)


class TestExtensionMemo:
    """isamp and ibroad extend every plan once per run, the last expandable
    depth included, and report the counters of a memoryless search."""

    @pytest.mark.parametrize("case", MEMO_CASES, ids=lambda c: "-".join(c[:4]))
    def test_counters_unchanged(self, case):
        out = memo_run(case)[2]
        progress = out.iterations if out.iterations is not None else out.final_cutoff
        assert (
            out.nodes_expanded,
            out.leaves_visited,
            out.per_level_counts,
            progress,
            out.solution_length,
        ) == case[4:]

    @pytest.mark.parametrize("case", MEMO_CASES, ids=lambda c: "-".join(c[:4]))
    def test_each_plan_extended_once(self, case):
        extended = []
        cfg = memo_run(case, extended)[1]
        assert max(Counter(id(plan) for plan in extended).values()) == 1
        assert any(plan.depth == cfg.depth_limit - 1 for plan in extended)
        assert sum(plan.depth == 0 for plan in extended) == 1  # one root per run

    @pytest.mark.parametrize("kind", ["to", "ua"])
    def test_memo_keeps_inner_children_and_no_leaf(self, kind):
        planner = make_planner(kind, fixture("sussman"))
        cfg = StrategyConfig(strategy="isamp", depth_limit=2)
        tally, memo = _Tally(cfg.depth_limit), {}
        root = planner.root()
        top = _expand(planner, root, 0, cfg, tally, memo)
        assert memo[root] is top
        child = top.children[0]
        assert top.children[0] is child  # a memo key: the same object every probe
        last = _expand(planner, child, 1, cfg, tally, memo)
        assert memo[child] is last and _expand(planner, child, 1, cfg, tally, memo) is last
        leaf = weakref.ref(last.children[0])
        gc.collect()
        assert leaf() is None  # built for one visit, kept by nobody
        assert last.children[0] is not last.children[0]

    @pytest.mark.parametrize("case", MEMO_CASES, ids=lambda c: "-".join(c[:4]))
    def test_run_leaves_only_the_solution_chain(self, case):
        # The solution's ancestors were extended, so their goal sets are
        # cached; the solution leaf itself may be decided without one.
        planner, _, out = memo_run(case)
        gc.collect()
        ancestors = set()
        plan = out.solution.parent
        while plan is not None:
            ancestors.add(id(plan))
            plan = plan.parent
        cached = {id(plan) for plan in planner._goal_cache.keys()}
        assert ancestors <= cached <= ancestors | {id(out.solution)}


class TestLeafGoals:
    """A search computes goal sets only for the plans it extends or rates:
    a leaf at the depth limit is decided without one."""

    # mt, which may spend an extension on reusing a step, solves few suite
    # problems at their length; this one under every strategy.
    PROBLEM = {"to": "blocks4_seed6", "ua": "blocks4_seed6", "mt": "blocks4_seed29"}

    @classmethod
    def spied_run(cls, kind, strategy, heuristic):
        length, problem = suite_problems()[cls.PROBLEM[kind]]
        planner = make_planner(kind, problem, PlannerConfig("seeded", 1))
        computed, solved = [], []
        compute, decide = planner._compute_goals, planner._solved

        def _compute_goals(plan):
            computed.append(plan)  # held, so identities stay unique for the run
            return compute(plan)

        def _solved(plan):
            solved.append(plan)
            return decide(plan)

        planner._compute_goals, planner._solved = _compute_goals, _solved
        cfg = StrategyConfig(strategy=strategy, heuristic=heuristic, depth_limit=length, seed=1)
        out = run_search(planner, cfg)
        assert out.solved and out.solution.depth == length
        return length, computed, solved

    @pytest.mark.parametrize("kind", ["to", "ua", "mt"])
    @pytest.mark.parametrize("strategy", ["dfs", "isamp", "ibroad"])
    def test_no_leaf_at_the_limit_computes_goals(self, kind, strategy):
        length, computed, solved = self.spied_run(kind, strategy, "none")
        assert computed and all(plan.depth < length for plan in computed)
        assert solved and all(plan.depth == length for plan in solved)

    def test_an_open_mt_leaf_stops_at_its_first_open_precondition(self, monkeypatch):
        # Each sussman child establishes one of two goals, so the other, an
        # entry of the final step, is open: the test asks about it before
        # any precondition of a later step.
        problem = fixture("sussman")
        tree = enumerate_tree(make_planner("mt", problem), 1)
        leaves = [n.plan for n in tree.nodes if n.plan.depth == 1 and n.goals]
        queries = []
        modal_status = planners.modal_status

        def spy(plan, needer, c, memo=None):
            queries.append((needer, c))
            return modal_status(plan, needer, c, memo)

        monkeypatch.setattr(planners, "modal_status", spy)
        assert leaves
        for plan in leaves:
            queries.clear()
            assert not make_planner("mt", problem).is_solution(plan)
            assert len(queries) < len(precondition_entries(plan))

    @pytest.mark.parametrize("kind", ["to", "ua"])
    @pytest.mark.parametrize("strategy", ["dfs", "ibroad"])
    def test_rated_leaves_keep_their_goal_sets(self, kind, strategy):
        length, computed, solved = self.spied_run(kind, strategy, "min_goals_rank")
        assert any(plan.depth == length for plan in computed)
        assert max(Counter(id(plan) for plan in computed).values()) == 1
        assert not solved  # every visited leaf was rated first


class TestCarriedLinearizations:
    @staticmethod
    def falls_back(plan) -> bool:
        """True iff a last predecessor of `plan`'s new step comes after one
        of its successors in its parent's order, so no insertion fits."""
        position = plan.parent.linear_order.index
        new = len(plan.steps) - 1
        return max(map(position, plan.predecessors[new])) > min(
            map(position, plan.successors[new])
        )

    def test_ua_dfs_sorts_only_the_root_and_fallback_plans(self, kahn_sorts):
        length, problem = suite_problems()["blocks4_seed391"]
        planner = make_planner("ua", problem, PlannerConfig("seeded", 1))
        out = run_search(planner, StrategyConfig(strategy="dfs", depth_limit=length, seed=1))
        sorted_plans = list(kahn_sorts)
        roots = [plan for plan in sorted_plans if plan.parent is None]
        assert len(roots) == 1
        fallbacks = [plan for plan in sorted_plans if plan.parent is not None]
        assert fallbacks and all(self.falls_back(plan) for plan in fallbacks)
        assert len(sorted_plans) < out.nodes_expanded / 100


class TestMinGoals:
    def test_solved_plan_rates_zero(self, tiny_problem):
        from conftest import chain_plan

        planner = make_planner("to", tiny_problem)
        assert min_goals_rating(planner, chain_plan(tiny_problem, ["win"])) == 0

    def test_rank_stable_sort(self):
        prob = fixture("fig9")
        planner = make_planner("ua", prob)
        from planlab.trees import enumerate_tree

        tree = enumerate_tree(planner, 3)
        for n in tree.nodes:
            if not n.children_ids:
                continue
            result = planner.children(n.plan)
            ordered = rank_children(planner, result.children, "min_goals_rank")
            ratings = [min_goals_rating(planner, result.children[i]) for i in ordered]
            assert ratings == sorted(ratings)

    def test_prune_keeps_only_minimum(self):
        prob = fixture("fig9")
        planner = make_planner("ua", prob)
        from planlab.trees import enumerate_tree

        tree = enumerate_tree(planner, 3)
        for n in tree.nodes:
            if not n.children_ids:
                continue
            result = planner.children(n.plan)
            kept = rank_children(planner, result.children, "min_goals_prune")
            best = min(len(planner.goal_set(c)) for c in result.children)
            assert kept and all(min_goals_rating(planner, result.children[i]) == best for i in kept)


class TestHeuristicPairs:
    IGNORED = {
        ("bfs", "min_goals_rank"),
        ("bfs", "min_goals_prune"),
        ("bfs", "min_goals_weight"),
        ("dfs", "min_goals_weight"),
        ("ibroad", "min_goals_weight"),
        ("isamp", "min_goals_rank"),
    }

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("heuristic", HEURISTICS[1:])
    def test_only_pairs_that_change_the_search_are_accepted(self, strategy, heuristic):
        if (strategy, heuristic) in self.IGNORED:
            with pytest.raises(ValueError, match=f"strategy {strategy!r} ignores heuristic"):
                StrategyConfig(strategy=strategy, heuristic=heuristic)
            return

        def nodes(h: str) -> list[int]:
            cfg = StrategyConfig(strategy=strategy, depth_limit=3, heuristic=h, seed=0, trials=4)
            planners = lambda seed: make_planner("ua", fixture("fig9"), PlannerConfig("seeded", seed))
            return [o.nodes_expanded for o in run_trials(planners, cfg)]

        assert nodes(heuristic) != nodes("none")


class TestNodeCeiling:
    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "isamp", "ibroad"])
    def test_every_strategy_stops_past_the_ceiling(self, strategy):
        prob = fixture("sussman")
        cfg = StrategyConfig(strategy=strategy, depth_limit=3, seed=4)
        free = run_search(make_planner("ua", prob), cfg)
        assert free.solved and free.nodes_expanded > 1
        capped = run_search(make_planner("ua", prob), replace(cfg, node_ceiling=free.nodes_expanded))
        assert (capped.nodes_expanded, capped.leaves_visited, capped.iterations) == (
            free.nodes_expanded,
            free.leaves_visited,
            free.iterations,
        )
        with pytest.raises(TreeCeilingError) as exc:
            run_search(make_planner("ua", prob), replace(cfg, node_ceiling=free.nodes_expanded - 1))
        assert exc.value.count == exc.value.ceiling == free.nodes_expanded - 1

    def test_unset_ceiling_is_the_module_default(self, monkeypatch):
        monkeypatch.setattr(trees, "NODE_CEILING", 3)
        cfg = StrategyConfig(strategy="bfs", depth_limit=3)
        with pytest.raises(TreeCeilingError) as exc:
            run_search(make_planner("ua", fixture("sussman")), cfg)
        assert exc.value.count == exc.value.ceiling == 3

    @pytest.mark.parametrize("ceiling", [0, -1])
    def test_ceiling_must_be_positive(self, ceiling):
        cfg = StrategyConfig(strategy="bfs", depth_limit=3, node_ceiling=ceiling)
        with pytest.raises(ValueError, match=f"node_ceiling must be >= 1, not {ceiling}"):
            run_search(make_planner("ua", fixture("sussman")), cfg)

    @pytest.mark.parametrize(
        "depth, ceiling, message",
        [
            (3, 0, "node_ceiling must be >= 1, not 0"),
            (3, -1, "node_ceiling must be >= 1, not -1"),
            (-1, None, "depth_limit must be >= 0, not -1"),
        ],
    )
    @pytest.mark.parametrize("run", [*STRATEGIES, "enumerate_tree"])
    def test_bad_bounds_refused_before_the_first_node(self, run, depth, ceiling, message):
        planner = make_planner("ua", fixture("sussman"))
        calls = []

        def spy(name, method):
            def record(plan):
                calls.append(name)
                return method(plan)

            return record

        for name in ("children", "goal_set"):
            setattr(planner, name, spy(name, getattr(planner, name)))

        def start(depth, ceiling):
            if run == "enumerate_tree":
                return enumerate_tree(planner, depth, ceiling)
            return run_search(planner, StrategyConfig(strategy=run, depth_limit=depth, node_ceiling=ceiling))

        with pytest.raises(ValueError, match=message):
            start(depth, ceiling)
        assert calls == []
        start(3, None)  # the spies see a run with good bounds
        assert {"children", "goal_set"} <= set(calls)

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_max_iterations_must_be_positive(self, max_iterations):
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            StrategyConfig(strategy="isamp", max_iterations=max_iterations)


class TestLeafSamplingEstimator:
    def test_single_solution_half_scan(self):
        n = 200
        est = mean_probes_until_solution(n, 1, runs=4000, seed=5)
        assert abs(est - 0.5 * n) / (0.5 * n) < 0.10

    def test_many_solutions_ratio(self):
        n, k = 200, 20
        est = mean_probes_until_solution(n, k, runs=4000, seed=6)
        assert abs(est - n / k) / (n / k) < 0.10

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            mean_probes_until_solution(10, 0, runs=10)
