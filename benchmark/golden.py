#!/usr/bin/env python3
"""Write or check benchmark/golden.json: the counters of every round-0 task
of every workload at the default seed.

    python3 benchmark/golden.py            # rewrite golden.json
    python3 benchmark/golden.py --check    # compare, exit 1 on a difference

Search tasks record ``[solved, nodes, leaves, iterations, solution_length]``;
verification tasks ``[|tree_a|, |tree_b|, image sum, [totality,
disjointness, partition]]``; the overlap task ``[|tree_mt|, |tree_to|,
overlapping pairs]``.  The file is written only when every task passes its
output check.  Run ``--check`` under several ``PYTHONHASHSEED`` values to
show the counters do not depend on string hashing.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.pop("PLANLAB_NODE_CEILING", None)  # read at import; run.py does the same

import workloads  # noqa: E402

GOLDEN = HERE / "golden.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    record = {}
    failed = 0
    for name in workloads.WORKLOADS:
        setup = workloads.build(name, workloads.DEFAULT_SEED)
        outcomes = [workloads.execute(task, setup) for task in setup.round0]
        for o in outcomes:
            if o.failure:
                failed += 1
                print(f"FAILED {name} {o.key}: {o.failure}", file=sys.stderr)
        record[name] = {o.key: o.counters for o in outcomes}
        print(f"{name}: {len(outcomes)} tasks")
    if failed:
        return 1
    if args.check:
        want = json.loads(GOLDEN.read_text())
        diff = [
            (name, key)
            for name in workloads.WORKLOADS
            for key in set(want[name]) | set(record[name])
            if want[name].get(key) != record[name].get(key)
        ]
        for name, key in diff[:20]:
            print(f"DIFF {name} {key}: {want[name].get(key)} != {record[name].get(key)}")
        print(f"{len(diff)} differences")
        return 1 if diff else 0
    blocks = []
    for name in sorted(record):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(record[name].items()))
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
