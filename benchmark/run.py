#!/usr/bin/env python3
"""planlab benchmark: one workload per run, timed from outside.

    python3 benchmark/run.py --workload sample --seed 3 --seconds 30 --trace 0

Untraced (``--trace 0``): after set-up, runs the workload in four fresh
interpreters one after the other, each for a quarter of ``--seconds``:
each takes every fourth task of round 0, then every fourth task of later
rounds, each round shuffled, until its time is up.  The run then repeats
the set-up in fresh interpreters and reports the end-to-end metrics over
the tasks of all four.  Traced (``--trace 1``): in this process, runs
round 0 untraced, installs the span tracer, repeats set-up and round 0
traced, and reports the per-layer metrics and the tracing overhead; spans
go to ``benchmark/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every line before
it names a figure and its unit.  See benchmark/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# An untraced run's tasks run in WORKERS fresh interpreters, one after the
# other, each for an equal slice of --seconds: per-process effects (memory
# layout, string hashing) then average out within one run.
WORKERS = 4
# Set-ups per run: this process's and each worker's, then probes in fresh
# interpreters one at a time until at least SETUP_MIN set-ups and
# SETUP_PROBE_SECONDS of probing, at most SETUP_MAX.  Cheap set-ups are thus
# repeated more often.
SETUP_MIN = 5
SETUP_MAX = 25
SETUP_PROBE_SECONDS = 2.0
NPROC = len(os.sched_getaffinity(0))  # before the run pins itself to one CPU


def _import_planlab() -> None:
    """Import planlab from this checkout's sources, never an installed copy."""
    if not (SRC / "planlab" / "__init__.py").is_file():
        sys.exit(f"error: no planlab sources under {SRC}")
    # Read at import, and a malformed value breaks the import: run hermetic.
    os.environ.pop("PLANLAB_NODE_CEILING", None)
    sys.path.insert(0, str(SRC))
    import planlab

    if Path(planlab.__file__).resolve().parent != (SRC / "planlab").resolve():
        sys.exit(f"error: imported planlab from {planlab.__file__}, not {SRC}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": NPROC,
        "cpu": sorted(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
    }


def _percentile(values: list, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _digest(outcomes) -> str:
    text = json.dumps([[o.key, o.counters] for o in outcomes])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _load_golden(workloads, setup):
    if setup.seed != workloads.DEFAULT_SEED:
        return None
    path = Path(__file__).resolve().parent / "golden.json"
    return json.loads(path.read_text())[setup.workload]


def _run_round(workloads, tasks, setup, golden=None, tracer=None):
    return [workloads.execute(task, setup, golden, tracer) for task in tasks]


def _report_failures(outcomes) -> int:
    failed = [o for o in outcomes if o.failure]
    for o in failed[:10]:
        print(f"FAILED {o.key}: {o.failure}", file=sys.stderr)
    return len(failed)


def _setup_probe_seconds(args) -> float:
    """Set-up time of a fresh interpreter running this script."""
    cmd = [
        sys.executable,
        __file__,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.split()[-1])


def _line(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def worker(args, workloads, setup, setup_s: float) -> dict:
    """One slice of an untraced run, in its own interpreter: round-0 tasks
    ``worker::WORKERS``, then the same share of later rounds, each round in
    a seeded shuffle so that a round cut short is a fair sample, until
    ``--seconds`` (the slice's length) have passed."""
    golden = _load_golden(workloads, setup)
    start = time.perf_counter()
    done = [
        [0, i, workloads.execute(task, setup, golden)]
        for i, task in enumerate(setup.round0)
        if i % WORKERS == args.worker
    ]
    r = 0
    while time.perf_counter() - start < args.seconds:
        r += 1
        tasks = setup.round_tasks(r, shuffle=True)
        for i in range(args.worker, len(tasks), WORKERS):
            done.append([r, i, workloads.execute(tasks[i], setup)])
            if time.perf_counter() - start >= args.seconds:
                break
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outcomes": [[r, i, o.key, o.counters, o.nodes, o.seconds, o.failure] for r, i, o in done],
    }


def _run_worker(args, index: int) -> dict:
    cmd = [
        sys.executable,
        __file__,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds / WORKERS),
        "--worker",
        str(index),
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def untraced(args, workloads, setup, setup_s: float) -> dict:
    slices = [_run_worker(args, i) for i in range(WORKERS)]
    rows = sorted(row for part in slices for row in part["outcomes"])
    outcomes = [workloads.Outcome(*row[2:]) for row in rows]
    round0 = [o for row, o in zip(rows, outcomes) if row[0] == 0]
    rounds = rows[-1][0] + 1
    wall0 = sum(o.seconds for o in round0)
    peak_rss_mb = max(part["peak_rss_mb"] for part in slices)
    setups = [setup_s] + [part["setup_s"] for part in slices]
    probing = time.perf_counter()
    while len(setups) < SETUP_MIN or (
        len(setups) < SETUP_MAX and time.perf_counter() - probing < SETUP_PROBE_SECONDS
    ):
        setups.append(_setup_probe_seconds(args))

    failed = _report_failures(outcomes)
    ok = [o for o in outcomes if not o.failure and o.nodes > 0]
    per_node = [o.seconds * 1e6 / o.nodes for o in ok]
    task_ms = [o.seconds * 1e3 for o in ok]
    tail = workloads.TAIL_PERCENTILE[args.workload]
    total_s = sum(o.seconds for o in ok)
    print(f"workers = {WORKERS}  rounds begun = {rounds}  tasks = {len(outcomes)} ({len(round0)} per round)")
    print(f"round 0 counter digest = {_digest(round0)}")
    _line("wall_s", wall0, "s", "round 0 task list; seed-dependent work, not gated")
    _line("nodes_per_s", sum(o.nodes for o in ok) / total_s, "1/s", "not gated")
    _line("task_ms_p50", statistics.median(task_ms), "ms", f"n={len(task_ms)}, not gated")
    _line(f"task_ms_p{tail}", _percentile(task_ms, tail), "ms", f"n={len(task_ms)}, not gated")
    _line("failed_frac", failed / len(outcomes), "ratio", "the failed/attempted fields")
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "node_us_p50": (statistics.median(per_node), "us", f"n={len(per_node)} tasks"),
        "node_us_tail": (_percentile(per_node, tail), "us", f"p{tail}, n={len(per_node)} tasks"),
        "peak_rss_mb": (peak_rss_mb, "MB", f"largest ru_maxrss of {WORKERS} workers"),
    }
    for name, (value, unit, note) in metrics.items():
        _line(name, value, unit, note)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }


def traced(args, workloads, setup) -> dict:
    import layers

    golden = _load_golden(workloads, setup)
    plain = _run_round(workloads, setup.round0, setup, golden)
    tracer = layers.install()
    try:
        tracer.enabled = True
        traced_setup = workloads.build(args.workload, args.seed)
        tracer.enabled = False
        spanned = _run_round(workloads, traced_setup.round0, traced_setup, golden, tracer)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    outcomes = plain + spanned
    failed = _report_failures(outcomes)
    correct = failed == 0
    if [o.counters for o in plain] != [o.counters for o in spanned]:
        print("FAILED: traced counters differ from untraced ones", file=sys.stderr)
        correct = False
    plain_s = sum(o.seconds for o in plain)
    overhead = sum(o.seconds for o in spanned) / plain_s - 1
    missing = layers.missing_spans(tracer, args.workload)
    if missing:
        sys.exit(f"error: expected spans never fired on {args.workload}: {', '.join(missing)}")
    metrics = layers.metrics(tracer, overhead)
    print(f"round 0 counter digest = {_digest(plain)}")
    for name, (value, unit) in metrics.items():
        _line(name, value, unit)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(
        json.dumps(
            {
                "environment": _environment(args),
                "metrics": {k: v for k, (v, _) in metrics.items()},
                "stats": tracer.stats,
                "counts": tracer.counts,
                "spans": tracer.spans,
            }
        )
    )
    print(f"spans written to {path.relative_to(ROOT)}")
    return {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _pin_to_one_cpu() -> None:
    """Run on one CPU, the highest-numbered one allowed.  The run is single
    threaded; pinned, identical work varied less between runs than when the
    scheduler moved it between cores.  Workers and set-up probes inherit
    the pin."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main() -> int:
    _pin_to_one_cpu()
    start = time.perf_counter()  # set-up: planlab import included
    _import_planlab()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker", type=int, choices=range(WORKERS), help=argparse.SUPPRESS)
    args = parser.parse_args()

    setup = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    if args.setup_probe:
        print(setup_s)
        return 0
    if args.worker is not None:
        print(json.dumps(worker(args, workloads, setup, setup_s)))
        return 0
    print("environment = " + json.dumps(_environment(args)))
    if args.trace:
        result = traced(args, workloads, setup)
    else:
        result = untraced(args, workloads, setup, setup_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
