"""Command-line surface.

Subcommands:
  solve       solve one problem file with a chosen planner and strategy
  verify      enumerate both search trees, build the correspondence map
              and run the totality/disjointness/partition checks
  experiment  run a (problems x planners x strategies x heuristics x trials)
              matrix from a config file and emit CSV or JSON rows
  gen         write problem files (single instances or the standard suite)
  dump-tree   enumerate one search tree and dump it as JSON

Exit codes: 0 success, 1 unsolved or failed checks, 2 usage error or a
file that cannot be read or written, 3 a ceiling exceeded (search nodes,
oracle states or plan size).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .domains import (
    BlocksworldSpec,
    blocksworld_problem,
    fixture,
    fixture_names,
    parse_problem,
    serialize_problem,
    standard_suite,
)
from .model import Plan, PlanSizeError, Problem
from .oracle import OracleCeilingError, minimal_solution_length
from .planners import PLANNERS, PlannerConfig, make_planner
from .search import HEURISTICS, STRATEGIES, StrategyConfig, run_trials
from .trees import (
    NODE_CEILING,
    TreeCeilingError,
    build_correspondence,
    enumerate_tree,
    map_to_json,
    sibling_overlap_violations,
    tree_to_json,
    verify_disjointness,
    verify_partition,
    verify_totality,
)

EXIT_OK = 0
EXIT_UNSOLVED = 1
EXIT_USAGE = 2
EXIT_CEILING = 3


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {raw!r}")
    return value


def _load_problem(path: str) -> Problem:
    if path.startswith("fixture:"):
        return fixture(path.split(":", 1)[1])
    text = Path(path).read_text(encoding="utf-8")
    problem = parse_problem(text)
    for warning in problem.lint():
        print(f"warning: {warning}", file=sys.stderr)
    return problem


def _resolve_depth(problem: Problem, raw: str) -> int:
    return _auto_depth(problem, minimal_solution_length(problem)) if raw == "auto" else int(raw)


def _auto_depth(problem: Problem, length: Optional[int]) -> int:
    """The depth limit "auto" gives: the minimal solution length."""
    if length is None:
        raise ValueError(f"problem {problem.name} is unsolvable; give an explicit depth limit")
    return length


def _check_writable(path: Path) -> None:
    """Refuse an output path that cannot be written, before any work runs."""
    if path.is_dir():
        raise OSError(f"cannot write {path}: it is a directory")
    parent = path.parent
    if not parent.is_dir():
        raise OSError(f"cannot write {path}: directory {parent} does not exist")
    if not os.access(path if path.exists() else parent, os.W_OK):
        raise OSError(f"cannot write {path}: permission denied")


def _describe_plan(plan: Plan) -> str:
    lines = []
    steps, middle = plan.steps, plan.middle_labels
    if plan.is_total:
        seq = [steps[lab].name for lab in plan.sequence if lab in middle]
        lines.append("sequence: " + (" < ".join(seq) if seq else "(empty)"))
    else:
        lines.append("steps: " + " ".join(f"{lab}:{steps[lab].name}" for lab in middle))
        ordered_pairs = [(a, b) for a in middle for b in middle if plan.before(a, b)]
        lines.append(
            "orderings: "
            + (
                ", ".join(f"{steps[a].name}({a}) < {steps[b].name}({b})" for a, b in ordered_pairs)
                or "(none)"
            )
        )
    return "\n".join(lines)


# -- solve ---------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    problem = _load_problem(args.problem)
    depth = _resolve_depth(problem, args.depth_limit)
    cfg = StrategyConfig(
        strategy=args.strategy,
        depth_limit=depth,
        heuristic=args.heuristic,
        seed=args.seed,
        trials=args.trials,
        max_iterations=args.max_iterations,
        node_ceiling=args.node_ceiling,
    )
    outcomes = run_trials(
        lambda seed: make_planner(args.planner, problem, _planner_config(args, seed)), cfg
    )
    print(f"problem: {problem.name}")
    print(f"planner: {args.planner}  strategy: {args.strategy}  depth limit: {depth}")
    for outcome in outcomes:
        if args.trials > 1:
            print(
                f"trial seed={outcome.seed}: solved={outcome.solved} "
                f"nodes={outcome.nodes_expanded} leaves={outcome.leaves_visited}"
            )
    last = outcomes[-1]
    if args.trials > 1:
        mean_nodes = sum(o.nodes_expanded for o in outcomes) / len(outcomes)
        print(f"mean nodes over {args.trials} trials: {mean_nodes:.2f}")
        last = next((o for o in outcomes if o.solved), last)
    print(f"nodes expanded: {last.nodes_expanded}  leaves: {last.leaves_visited}")
    if last.iterations is not None:
        print(f"iterations: {last.iterations}")
    print(f"wall time: {last.wall_time * 1000:.1f} ms")
    if last.solved and last.solution is not None:
        print(f"solved: yes  solution length: {last.solution_length}")
        print(_describe_plan(last.solution))
        return EXIT_OK
    print("solved: no")
    return EXIT_UNSOLVED


def _planner_config(args: argparse.Namespace, seed: Optional[int] = None) -> PlannerConfig:
    mode = "seeded" if args.seeded_goals else "deterministic"
    return PlannerConfig(goal_selection=mode, seed=args.seed if seed is None else seed)


# -- verify --------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    if args.mt and args.conditional:
        raise ValueError("--mt runs the mt/to diagnostic and cannot be combined with --conditional")
    if args.mt and args.dump_map:
        raise ValueError("--mt builds no correspondence map and cannot be combined with --dump-map")
    if args.dump_map:
        _check_writable(Path(args.dump_map))
    problem = _load_problem(args.problem)
    depth = _resolve_depth(problem, args.depth_limit)
    ceiling = args.node_ceiling
    config = _planner_config(args)
    if args.mt:
        tree_mt = enumerate_tree(make_planner("mt", problem, config), depth, ceiling)
        tree_to = enumerate_tree(make_planner("to", problem, config), depth, ceiling)
        print(f"|tree_mt| = {len(tree_mt)}  |tree_to| = {len(tree_to)}")
        violations = sibling_overlap_violations(tree_mt, tree_to)
        print(f"overlapping sibling pairs: {len(violations)}")
        for v in violations[:10]:
            seq = " < ".join(v.shared_sequences[0])
            print(f"  nodes {v.node_a} and {v.node_b} share: {seq}")
        if violations:
            print("expected redundancy confirmed (disjointness fails)")
            return EXIT_OK
        print("no overlap found; the deferred planner behaved disjointly here")
        return EXIT_UNSOLVED

    kinds = ("uac", "toc") if args.conditional else ("ua", "to")
    tree_pa = enumerate_tree(make_planner(kinds[0], problem, config), depth, ceiling)
    tree_to = enumerate_tree(make_planner(kinds[1], problem, config), depth, ceiling)
    print(f"|tree_{kinds[0]}| = {len(tree_pa)}  |tree_{kinds[1]}| = {len(tree_to)}")
    cmap = build_correspondence(tree_pa, tree_to)
    if args.dump_map:
        Path(args.dump_map).write_text(
            json.dumps(map_to_json(cmap), indent=1) + "\n", encoding="utf-8"
        )
        print(f"wrote correspondence map to {args.dump_map}")
    reports = [
        verify_totality(cmap, tree_pa),
        verify_disjointness(cmap),
        verify_partition(cmap, tree_to),
    ]
    ok = True
    for rep in reports:
        status = "pass" if rep.ok else "FAIL"
        print(f"{rep.name}: {status} ({rep.detail})")
        ok &= rep.ok
    size_ok = len(tree_pa) <= len(tree_to)
    print(f"size: |partial| <= |total|: {'pass' if size_ok else 'FAIL'}")
    return EXIT_OK if ok and size_ok else EXIT_UNSOLVED


# -- experiment ----------------------------------------------------------


@dataclass
class ExperimentConfig:
    problems: list[str] = field(default_factory=lambda: ["suite:standard"])
    planners: list[str] = field(default_factory=lambda: ["to", "ua"])
    strategies: list[str] = field(default_factory=lambda: ["dfs"])
    heuristics: list[str] = field(default_factory=lambda: ["none"])
    trials: int = 25
    base_seed: int = 0
    depth_limit: str = "auto"
    max_iterations: int = StrategyConfig.max_iterations
    output: str = "experiment.csv"
    format: str = "csv"

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        """Read `key = value` lines; the keys are the fields, and each value
        is read as its default is: a comma list, an int or text."""
        cfg = cls()
        kinds = {key: type(value) for key, value in vars(cfg).items()}
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in kinds:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if kinds[key] is list:
                value = [v.strip() for v in value.split(",") if v.strip()]
            elif kinds[key] is int:
                try:
                    value = int(value)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: {key} must be an integer, not {value!r}") from None
            setattr(cfg, key, value)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for key, entries in vars(self).items():
            if isinstance(entries, list) and not entries:
                raise ValueError(f"{key} must list at least one entry")
            if isinstance(entries, list) and len(set(entries)) < len(entries):
                raise ValueError(f"{key} lists {max(entries, key=entries.count)!r} more than once")
        for p in self.planners:
            if p not in PLANNERS:
                raise ValueError(f"unknown planner {p!r}")
        for s in self.strategies:
            for h in self.heuristics:
                StrategyConfig(
                    strategy=s, heuristic=h, trials=self.trials, max_iterations=self.max_iterations
                )
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if not Path(self.output).name:
            raise ValueError(f"output must name a file, not {self.output!r}")


def _experiment_problems(cfg: ExperimentConfig) -> dict[str, tuple[str, Optional[int], Problem]]:
    """Resolve the problem list to problem_id -> (source, minimal solution
    length or None when unsolvable, Problem), refusing one id from two sources:
    a suite problem's length is its class, a problem file's the oracle's answer."""
    import glob as globmod

    out: dict[str, tuple[str, Optional[int], Problem]] = {}

    def keep(source: str, length: Optional[int], problem: Problem) -> None:
        if problem.name in out:
            raise ValueError(f"problem id {problem.name!r} comes from both {out[problem.name][0]} and {source}")
        out[problem.name] = (source, length, problem)

    for spec in cfg.problems:
        if spec == "suite:standard":
            for length, problem in standard_suite():
                keep(spec, length, problem)
            continue
        paths = [spec] if spec.startswith("fixture:") else sorted(globmod.glob(spec))
        if not paths:
            raise ValueError(f"no problem files match {spec!r}")
        for path in paths:
            problem = _load_problem(path)
            keep(path, minimal_solution_length(problem), problem)
    return out


def run_experiment(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    """All result rows plus the per-cell summary table, in canonical order."""
    rows: list[dict] = []
    problems = _experiment_problems(cfg)
    for problem_id in sorted(problems):
        _, length, problem = problems[problem_id]
        depth = _auto_depth(problem, length) if cfg.depth_limit == "auto" else int(cfg.depth_limit)
        for planner_kind in sorted(cfg.planners):
            for strategy in sorted(cfg.strategies):
                for heuristic in sorted(cfg.heuristics):
                    outcomes = run_trials(
                        lambda seed: make_planner(
                            planner_kind, problem, PlannerConfig(goal_selection="seeded", seed=seed)
                        ),
                        StrategyConfig(
                            strategy=strategy,
                            depth_limit=depth,
                            heuristic=heuristic,
                            seed=cfg.base_seed,
                            trials=cfg.trials,
                            max_iterations=cfg.max_iterations,
                        ),
                    )
                    for trial, outcome in enumerate(outcomes):
                        rows.append(
                            {
                                "problem_id": problem_id,
                                "length_class": length or 0,
                                "planner": planner_kind,
                                "strategy": strategy,
                                "heuristic": heuristic,
                                "seed": outcome.seed,
                                "trial": trial,
                                "solved": int(outcome.solved),
                                "depth_limit": depth,
                                "nodes_expanded": outcome.nodes_expanded,
                                "leaves_visited": outcome.leaves_visited,
                                "iterations": outcome.iterations if outcome.iterations is not None else "",
                                "solution_length": outcome.solution_length if outcome.solution_length is not None else "",
                                "wall_ms": round(outcome.wall_time * 1000, 3),
                            }
                        )
    return rows, summarize_experiment(rows)


def summarize_experiment(rows: Sequence[dict]) -> list[dict]:
    """Mean nodes per (length_class, planner, strategy, heuristic), with the
    improvement of each heuristic cell relative to its plain counterpart."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["length_class"], row["planner"], row["strategy"], row["heuristic"])
        groups.setdefault(key, []).append(row)
    summary = []
    for key in sorted(groups, key=lambda k: (str(k[0]), k[1], k[2], k[3])):
        cell = groups[key]
        mean_nodes = sum(r["nodes_expanded"] for r in cell) / len(cell)
        entry = {
            "length_class": key[0],
            "planner": key[1],
            "strategy": key[2],
            "heuristic": key[3],
            "runs": len(cell),
            "solved_fraction": sum(r["solved"] for r in cell) / len(cell),
            "mean_nodes": round(mean_nodes, 3),
            "improvement_vs_plain_pct": "",
        }
        if key[3] != "none":
            plain = groups.get((key[0], key[1], key[2], "none"))
            if plain:
                base = sum(r["nodes_expanded"] for r in plain) / len(plain)
                if base > 0:
                    entry["improvement_vs_plain_pct"] = round(100.0 * (base - mean_nodes) / base, 2)
        summary.append(entry)
    return summary


def _write_rows(rows: list[dict], path: str, fmt: str) -> None:
    """Write non-empty `rows` as JSON, or as CSV headed by the first row's keys."""
    if fmt == "json":
        Path(path).write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def cmd_experiment(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.load(args.config)
    out = Path(cfg.output)
    summary_path = out.with_name(out.stem + "_summary" + out.suffix)
    _check_writable(out)
    _check_writable(summary_path)
    rows, summary = run_experiment(cfg)
    _write_rows(rows, str(out), cfg.format)
    _write_rows(summary, str(summary_path), cfg.format)
    print(f"wrote {len(rows)} rows to {out}")
    print(f"wrote {len(summary)} summary cells to {summary_path}")
    return EXIT_OK


# -- gen -----------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.suite:
        for length, problem in standard_suite():
            sub = outdir / f"length_{length}"
            sub.mkdir(exist_ok=True)
            (sub / f"{problem.name}.plan").write_text(
                serialize_problem(problem), encoding="utf-8"
            )
        print(f"wrote standard suite under {outdir}")
        return EXIT_OK
    if args.fixture:
        problem = fixture(args.fixture)
    else:
        problem = blocksworld_problem(
            BlocksworldSpec(n_blocks=args.blocks, seed=args.seed)
        )
    path = outdir / f"{problem.name}.plan"
    path.write_text(serialize_problem(problem), encoding="utf-8")
    print(f"wrote {path}")
    return EXIT_OK


# -- dump-tree -----------------------------------------------------------


def cmd_dump_tree(args: argparse.Namespace) -> int:
    if args.output:
        _check_writable(Path(args.output))
    problem = _load_problem(args.problem)
    depth = _resolve_depth(problem, args.depth_limit)
    planner = make_planner(args.planner, problem, _planner_config(args))
    tree = enumerate_tree(planner, depth, args.node_ceiling)
    payload = tree_to_json(tree)
    text = json.dumps(payload, indent=1)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {len(payload)} nodes to {args.output}")
    else:
        print(text)
    return EXIT_OK


# -- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planlab",
        description="plan-space planning laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--depth-limit", default="auto", help="integer or 'auto' (state-space oracle)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seeded-goals", action="store_true", help="seeded goal selection instead of first-goal")
        p.add_argument("--node-ceiling", type=_positive_int, help=f"nodes one run may visit (default: {NODE_CEILING})")

    p_solve = sub.add_parser("solve", help="solve one problem")
    p_solve.add_argument("problem", help="problem file path or fixture:<name>")
    p_solve.add_argument("--planner", choices=sorted(PLANNERS), default="ua")
    p_solve.add_argument("--strategy", choices=STRATEGIES, default="bfs")
    p_solve.add_argument("--heuristic", choices=HEURISTICS, default="none")
    p_solve.add_argument("--max-iterations", type=int, default=StrategyConfig.max_iterations)
    p_solve.add_argument("--trials", type=int, default=1, help="independent seeded runs (seed+i)")
    add_common(p_solve)
    p_solve.set_defaults(fn=cmd_solve)

    p_verify = sub.add_parser("verify", help="enumerate and cross-check search trees")
    p_verify.add_argument("problem")
    p_verify.add_argument("--conditional", action="store_true", help="verify uac against toc")
    p_verify.add_argument("--mt", action="store_true", help="run the mt/to redundancy diagnostic (not with --conditional or --dump-map)")
    p_verify.add_argument("--dump-map", default="", help="write the correspondence map as JSON")
    add_common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_exp = sub.add_parser("experiment", help="run an experiment matrix from a config file")
    p_exp.add_argument("config")
    p_exp.set_defaults(fn=cmd_experiment)

    p_gen = sub.add_parser("gen", help="generate problem files")
    p_gen.add_argument("outdir")
    p_gen.add_argument("--suite", action="store_true", help="write the standard 44-problem suite")
    p_gen.add_argument("--fixture", choices=fixture_names())
    p_gen.add_argument("--blocks", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(fn=cmd_gen)

    p_dump = sub.add_parser("dump-tree", help="dump an enumerated search tree as JSON")
    p_dump.add_argument("problem")
    p_dump.add_argument("--planner", choices=sorted(PLANNERS), default="ua")
    p_dump.add_argument("--output", default="")
    add_common(p_dump)
    p_dump.set_defaults(fn=cmd_dump_tree)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (TreeCeilingError, OracleCeilingError, PlanSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CEILING
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
