"""Golden counters: a fixed sample of the benchmark's round-0 tasks must
reproduce the counters recorded in ``benchmark/golden.json``.

The sample covers every planner (``to``, ``ua``, ``toc``, ``uac``,
``mt``), every search strategy the benchmark runs, and the ``search``,
``verify`` and ``overlap`` task kinds.  The full replay of all round-0
tasks is ``python3 benchmark/golden.py --check``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
sys.path.insert(0, str(BENCHMARK))

import workloads  # noqa: E402

GOLDEN = json.loads((BENCHMARK / "golden.json").read_text(encoding="utf-8"))

SAMPLE = {
    "sample": (
        "search/isamp/none/to/blocks4_seed51/t0",
        "search/isamp/none/ua/blocks3_seed16/t0",
        "search/isamp/none/ua/blocks4_seed472/t0",
        "search/ibroad/none/to/blocks4_seed813/t0",
        "search/ibroad/none/ua/blocks4_seed481/t1",
        "search/ibroad/none/ua/blocks3_seed799/t1",
    ),
    "descend": (
        "search/dfs/none/to/blocks2_seed3/t0",
        "search/dfs/none/ua/blocks2_seed2/t0",
        "search/dfs/none/to/blocks4_seed481/t0",
        "search/dfs/none/ua/blocks4_seed481/t0",
        "search/dfs/min_goals_rank/to/blocks4_seed813/t0",
        "search/dfs/min_goals_rank/ua/blocks4_seed813/t0",
        "search/dfs/none/mt/blocks2_seed6/t0",
        "search/dfs/none/mt/blocks4_seed11/t0",
    ),
    "verify": (
        "verify/-/none/ua+to/chain_9_14/t0",
        "verify/-/none/ua+to/chain_10_11_13/t0",
        "verify/-/none/ua+to/blocks4_seed20/t0",
        "verify/-/none/ua+to/blocks4_seed51/t0",
        "verify/-/none/uac+toc/fig13/t0",
        "overlap/-/none/mt+to/fig17/t0",
    ),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_sampled_round0_counters_match_golden(workload):
    setup = workloads.build(workload, workloads.DEFAULT_SEED)
    tasks = {task.key: task for task in setup.round0}
    golden = GOLDEN[workload]
    for key in SAMPLE[workload]:
        outcome = workloads.execute(tasks[key], setup)
        assert outcome.failure is None, f"{key}: {outcome.failure}"
        assert outcome.counters == golden[key], key


def test_sample_covers_every_planner_and_task_kind():
    keys = [key for keys in SAMPLE.values() for key in keys]
    kinds = {kind for key in keys for kind in key.split("/")[3].split("+")}
    assert kinds == {"to", "ua", "toc", "uac", "mt"}
    assert {key.split("/")[0] for key in keys} == {"search", "verify", "overlap"}
    assert {key.split("/")[1] for key in keys} == {"isamp", "ibroad", "dfs", "-"}
