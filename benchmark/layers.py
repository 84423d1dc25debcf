"""The layers the traced run wraps, the spans each workload must fire, and
the per-layer metrics computed from them.

Names follow ``<module>.<function>.<stat>``.  ``calls`` counts calls,
``s`` is inclusive time, ``self_s`` excludes traced calls nested inside.
"""

from __future__ import annotations

from planlab import domains, model, oracle, planners, search, trees, truth

import workloads
from tracer import Tracer

KINDS = ("to", "ua", "toc", "uac", "mt")
TRUTH = ("false_in_sequence", "last_deleter", "steps_interact", "modal_status")
MODEL = ("linear_extensions", "restrict", "is_linearization")
CHECKS = (
    "trees.verify_totality",
    "trees.verify_disjointness",
    "trees.verify_partition",
    "trees.sibling_overlap_violations",
)
SETUP = (
    (oracle, "minimal_solution_length"),
    (domains, "standard_suite"),
    (domains, "d1s1_problem"),
    (domains, "fixture"),
)

_COMMON = {
    "bench.task",
    "planners.children.to",
    "planners.children.ua",
    "planners.goal_set",
    "planners.root",
    "truth.false_in_sequence",
    "truth.last_deleter",
    "truth.steps_interact",
    "oracle.minimal_solution_length",
    "domains.standard_suite",
}
EXPECTED = {
    "sample": _COMMON | {"search.run_search"},
    "descend": _COMMON
    | {"search.run_search", "planners.children.mt", "truth.modal_status", "model.linear_extensions"},
    "verify": _COMMON
    | {
        "trees.enumerate_tree",
        "trees.build_correspondence",
        *CHECKS,
        "model.is_linearization",
        "model.linear_extensions",
        "truth.modal_status",
        "planners.children.toc",
        "planners.children.uac",
        "planners.children.mt",
        "domains.d1s1_problem",
        "domains.fixture",
    },
}


def _searched(tracer: Tracer, outcome) -> None:
    tracer.count("search.nodes_expanded", outcome.nodes_expanded)
    tracer.count("search.leaves", outcome.leaves_visited)
    tracer.count("search.iterations", outcome.iterations or 0)


def _enumerated(tracer: Tracer, tree) -> None:
    tracer.count("trees.nodes", len(tree))


def _linearized(tracer: Tracer, result: bool) -> None:
    if result:
        tracer.count("model.is_linearization.hits")


def _extended(tracer: Tracer, result) -> None:
    tracer.count("search.children_generated", len(result.children))


def install() -> Tracer:
    """Wrap every traced function; the tracer starts disabled."""
    tracer = Tracer()
    for fn in TRUTH:
        tracer.patch_function(truth, fn, f"truth.{fn}", record=False)
    for fn in MODEL:
        hook = _linearized if fn == "is_linearization" else None
        tracer.patch_function(model, fn, f"model.{fn}", False, hook)
    tracer.patch_function(search, "run_search", "search.run_search", True, _searched)
    tracer.patch_function(trees, "enumerate_tree", "trees.enumerate_tree", True, _enumerated)
    tracer.patch_function(trees, "build_correspondence", "trees.build_correspondence", True)
    for name in CHECKS:
        tracer.patch_function(trees, name.split(".")[1], name, True)
    for module, fn in SETUP:
        tracer.patch_function(module, fn, f"{module.__name__.split('.')[-1]}.{fn}", True)
    tracer.patch_function(workloads, "run_task", "bench.task", True)
    tracer.patch_method(
        planners.Planner, "children", lambda planner, plan: f"planners.children.{planner.kind}", _extended
    )
    tracer.patch_method(planners.Planner, "goal_set", "planners.goal_set")
    tracer.patch_method(planners.Planner, "root", "planners.root")
    return tracer


def missing_spans(tracer: Tracer, workload: str) -> list[str]:
    return sorted(name for name in EXPECTED[workload] if not tracer.calls(name))


def metrics(tracer: Tracer, overhead: float) -> dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit)."""
    t = tracer
    counts = t.counts
    out: dict[str, tuple] = {}
    children = [f"planners.children.{k}" for k in KINDS]
    child_calls = sum(t.calls(n) for n in children)
    out["planners.children.calls"] = (child_calls, "count")
    out["planners.children.s"] = (sum(t.seconds(n) for n in children), "s")
    out["planners.children.self_s"] = (sum(t.self_seconds(n) for n in children), "s")
    for kind, name in zip(KINDS, children):
        calls = t.calls(name)
        out[f"planners.children.us_per_call.{kind}"] = (t.seconds(name) / calls * 1e6 if calls else 0.0, "us")
    out["planners.goal_set.calls"] = (t.calls("planners.goal_set"), "count")
    out["planners.goal_set.s"] = (t.seconds("planners.goal_set"), "s")

    generated = counts.get("search.children_generated", 0)
    nodes = counts.get("search.nodes_expanded", 0) + counts.get("trees.nodes", 0)
    visited = nodes - t.calls("planners.root")
    out["search.children_generated"] = (generated, "count")
    out["search.children_visited"] = (visited, "count")
    out["search.visit_ratio"] = (visited / generated if generated else 0.0, "ratio")
    out["search.extensions_per_node"] = (child_calls / nodes if nodes else 0.0, "ratio")

    for fn in TRUTH:
        out[f"truth.{fn}.calls"] = (t.calls(f"truth.{fn}"), "count")
        out[f"truth.{fn}.s"] = (t.seconds(f"truth.{fn}"), "s")
    for fn in MODEL:
        out[f"model.{fn}.calls"] = (t.calls(f"model.{fn}"), "count")
        out[f"model.{fn}.s"] = (t.seconds(f"model.{fn}"), "s")
    calls = t.calls("model.is_linearization")
    out["model.is_linearization.hit_ratio"] = (
        counts.get("model.is_linearization.hits", 0) / calls if calls else 0.0,
        "ratio",
    )

    out["trees.build_correspondence.self_s"] = (t.self_seconds("trees.build_correspondence"), "s")
    out["trees.enumerate_tree.self_s"] = (t.self_seconds("trees.enumerate_tree"), "s")
    out["trees.checks.s"] = (sum(t.seconds(n) for n in CHECKS), "s")
    out["oracle.minimal_solution_length.calls"] = (t.calls("oracle.minimal_solution_length"), "count")
    out["oracle.minimal_solution_length.s"] = (t.seconds("oracle.minimal_solution_length"), "s")
    out["domains.standard_suite.s"] = (t.seconds("domains.standard_suite"), "s")

    out["search.self_s"] = (t.self_seconds("search.run_search"), "s")
    for name in ("search.nodes_expanded", "search.leaves", "search.iterations", "trees.nodes"):
        out[name] = (counts.get(name, 0), "count")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out
