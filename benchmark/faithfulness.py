#!/usr/bin/env python3
"""The benchmark's own test: it must measure what users run.

    python3 benchmark/faithfulness.py

1. Every ``descend`` task of round 0 at the default seed must give the same
   ``solved``/``nodes``/``leaves``/``iterations``/``solution_length`` as the
   row ``planlab experiment`` (``cli.run_experiment``) writes for that cell
   and trial seed.
2. ``verify`` verdicts must equal the exit codes of ``planlab verify`` on a
   suite problem (through a problem file), on fig13 with ``--conditional``
   and on fig17 with ``--mt --depth-limit 7``.

Exits 1 on any mismatch.  Takes about ten seconds.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.pop("PLANLAB_NODE_CEILING", None)  # read at import; run.py does the same

from planlab import cli, domains  # noqa: E402

import workloads  # noqa: E402


def _verdict(outcome) -> int:
    return cli.EXIT_OK if outcome.failure is None else cli.EXIT_UNSOLVED


def check_descend() -> list[str]:
    setup = workloads.build("descend", workloads.DEFAULT_SEED)
    bench = {}
    for task in setup.round0:
        outcome = workloads.execute(task, setup)
        cell = task.cell
        bench[(cell.problem, cell.kinds[0], cell.heuristic, task.seed)] = outcome.counters
    seeds = sorted({key[3] for key in bench})
    errors = []
    compared = 0
    for seed in seeds:
        for planners_, heuristics in ((["to", "ua"], ["none", "min_goals_rank"]), (["mt"], ["none"])):
            cfg = cli.ExperimentConfig(
                problems=["suite:standard"],
                planners=planners_,
                strategies=["dfs"],
                heuristics=heuristics,
                trials=1,
                base_seed=seed,
            )
            rows, _ = cli.run_experiment(cfg)
            for row in rows:
                key = (row["problem_id"], row["planner"], row["heuristic"], row["seed"])
                want = [
                    bool(row["solved"]),
                    row["nodes_expanded"],
                    row["leaves_visited"],
                    row["iterations"] if row["iterations"] != "" else None,
                    row["solution_length"] if row["solution_length"] != "" else None,
                ]
                compared += 1
                if bench.get(key) != want:
                    errors.append(f"descend {key}: benchmark {bench.get(key)} != experiment {want}")
    if compared != len(bench):
        errors.append(f"descend: compared {compared} experiment rows with {len(bench)} tasks")
    print(f"descend: {compared} tasks equal their planlab experiment rows" if not errors else "descend: MISMATCH")
    return errors


def _cli_exit(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def check_verify() -> list[str]:
    setup = workloads.build("verify", workloads.DEFAULT_SEED)
    by_problem = {task.cell.problem: task for task in setup.round0}
    suite_name = next(name for name, e in setup.problems.items() if e.length_class == 4)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{suite_name}.plan"
    path.write_text(domains.serialize_problem(setup.problems[suite_name].problem), encoding="utf-8")
    cases = [
        (suite_name, ["verify", str(path)]),
        ("fig13", ["verify", "fixture:fig13", "--conditional"]),
        ("fig17", ["verify", "fixture:fig17", "--mt", "--depth-limit", str(workloads.OVERLAP_DEPTH)]),
    ]
    errors = []
    for name, argv in cases:
        bench = _verdict(workloads.execute(by_problem[name], setup))
        code = _cli_exit(argv)
        status = "equal" if bench == code else "MISMATCH"
        shown = " ".join(argv).replace(str(HERE.parent) + "/", "")
        print(f"verify {name}: benchmark verdict {bench}, `planlab {shown}` exit {code}: {status}")
        if bench != code:
            errors.append(f"verify {name}: benchmark verdict {bench} != cli exit {code}")
    return errors


def main() -> int:
    errors = check_descend() + check_verify()
    for e in errors[:20]:
        print(e, file=sys.stderr)
    print("faithfulness: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
