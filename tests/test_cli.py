from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from planlab.cli import (
    EXIT_CEILING,
    EXIT_OK,
    EXIT_UNSOLVED,
    EXIT_USAGE,
    ExperimentConfig,
    main,
    run_experiment,
)
from planlab import cli, oracle, search, trees
from planlab.domains import d1s1_problem, fixture, serialize_problem
from planlab.model import PlanSizeError
from planlab.oracle import OracleCeilingError


@pytest.fixture
def sussman_file(tmp_path):
    path = tmp_path / "sussman.plan"
    path.write_text(serialize_problem(fixture("sussman")), encoding="utf-8")
    return str(path)


@pytest.fixture
def unsolvable_file(tmp_path):
    text = "problem stuck\ninit: a\ngoal: g\noperator n\n  pre: a\n  add: x\nend\n"
    path = tmp_path / "stuck.plan"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def loop_file(tmp_path):
    """Each operator needs what the other adds, so the one derivation is a
    chain as deep as the depth limit and never solves."""
    text = (
        "problem loop\ninit:\ngoal: g\n"
        "operator o1\n  pre: h\n  add: g\n  del:\nend\n"
        "operator o2\n  pre: g\n  add: h\n  del:\nend\n"
    )
    path = tmp_path / "loop.plan"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestSolve:
    def test_sussman_ua_bfs(self, sussman_file, capsys):
        code = main(["solve", sussman_file, "--planner", "ua", "--strategy", "bfs"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "solved: yes" in out
        assert "solution length: 3" in out

    def test_unsolvable_exit_one(self, unsolvable_file, capsys):
        code = main(
            [
                "solve",
                unsolvable_file,
                "--planner",
                "to",
                "--strategy",
                "bfs",
                "--depth-limit",
                "2",
            ]
        )
        assert code == EXIT_UNSOLVED
        assert "solved: no" in capsys.readouterr().out

    def test_missing_file_exit_two(self, capsys):
        assert main(["solve", "/nonexistent/x.plan"]) == EXIT_USAGE

    def test_parse_error_position_forwarded(self, tmp_path, capsys):
        path = tmp_path / "bad.plan"
        path.write_text("problem b\ninit: a\ngoal: g\njunk line\n")
        assert main(["solve", str(path)]) == EXIT_USAGE
        assert "line 4" in capsys.readouterr().err

    def test_bad_flag_exit_two(self, sussman_file):
        assert main(["solve", sussman_file, "--planner", "zz"]) == EXIT_USAGE

    def test_zero_trials_refused(self, sussman_file, capsys):
        assert main(["solve", sussman_file, "--trials", "0"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: trials must be >= 1, not 0\n"

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_nonpositive_max_iterations_refused(self, capsys, raw):
        code = main(["solve", "fixture:sussman", "--strategy", "isamp", "--max-iterations", raw])
        assert code == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: max_iterations must be >= 1, not {raw}\n")

    def test_heuristic_the_strategy_ignores_refused(self, capsys):
        code = main(["solve", "fixture:fig9", "--strategy", "bfs", "--heuristic", "min_goals_rank"])
        assert code == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: strategy 'bfs' ignores heuristic 'min_goals_rank'\n")

    def test_fixture_path(self, capsys):
        code = main(["solve", "fixture:fig9", "--planner", "ua", "--strategy", "bfs"])
        assert code == EXIT_OK

    def test_partially_ordered_solution_printed(self, capsys):
        assert main(["solve", "fixture:fig4", "--planner", "ua", "--strategy", "bfs"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "steps: 2:helper_a 3:helper_b 4:wrecker 5:fixer\n" in out
        assert "orderings: helper_a(2) < fixer(5), wrecker(4) < fixer(5)\n" in out

    def test_trials_print_each_trial_and_the_mean(self, capsys):
        argv = ["solve", "fixture:fig9", "--planner", "ua", "--strategy", "dfs", "--trials", "3"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("trial seed=")] == [
            "trial seed=0: solved=True nodes=4 leaves=1",
            "trial seed=1: solved=True nodes=5 leaves=2",
            "trial seed=2: solved=True nodes=5 leaves=2",
        ]
        assert "mean nodes over 3 trials: 4.67\n" in out


class TestVerify:
    def test_chain_domain_all_pass(self, tmp_path, capsys):
        path = tmp_path / "chain.plan"
        path.write_text(serialize_problem(d1s1_problem([1, 2, 3])), encoding="utf-8")
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "totality: pass" in out
        assert "disjointness: pass" in out
        assert "partition: pass" in out

    def test_sizes_echoed(self, sussman_file, capsys):
        code = main(["verify", sussman_file])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "|tree_ua|" in out and "|tree_to|" in out

    def test_mt_diagnostic_expected_failure_mode(self, tmp_path, capsys):
        path = tmp_path / "fig17.plan"
        path.write_text(serialize_problem(fixture("fig17")), encoding="utf-8")
        code = main(["verify", str(path), "--mt", "--depth-limit", "4"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "overlapping sibling pairs" in out

    def test_ceiling_exit_three(self, sussman_file):
        assert main(["verify", sussman_file, "--node-ceiling", "5"]) == EXIT_CEILING

    def test_seeded_goals_and_seed_honoured(self, capsys):
        assert main(["verify", "fixture:sussman", "--seeded-goals", "--seed", "3"]) == EXIT_OK
        assert "|tree_ua| = 37  |tree_to| = 37\n" in capsys.readouterr().out

    def test_dump_map(self, tmp_path, capsys):
        src = tmp_path / "chain.plan"
        src.write_text(serialize_problem(d1s1_problem([1, 3])), encoding="utf-8")
        out = tmp_path / "map.json"
        code = main(["verify", str(src), "--dump-map", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert all(set(e) == {"ua_id", "to_ids"} for e in payload)

    # One specialised step reached along two paths: o0 adds c outright and
    # also when b holds, or only conditionally, when t or when s holds.
    @pytest.mark.parametrize(
        "text, size",
        [
            ("problem dup\ninit:\ngoal: c\noperator o0\n  add: c\n  cadd: (b -> c)\nend\n", 3),
            ("problem a\ninit: s t\ngoal: c\noperator o0\n  cadd: (t -> c) (s -> c)\nend\n", 4),
        ],
        ids=["dup", "a"],
    )
    def test_conditional_siblings_are_distinct_plans(self, tmp_path, capsys, text, size):
        path = tmp_path / "cond.plan"
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path), "--conditional", "--depth-limit", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(f"|tree_uac| = {size}  |tree_toc| = {size}\n")
        for check in ("totality", "disjointness", "partition"):
            assert f"{check}: pass" in out

    def test_mt_with_conditional_refused(self, capsys):
        assert main(["verify", "fixture:fig9", "--mt", "--conditional"]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "",
            "error: --mt runs the mt/to diagnostic and cannot be combined with --conditional\n",
        )

    def test_mt_with_dump_map_refused_before_enumeration(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "enumerate_tree", lambda *args: calls.append(args))
        target = tmp_path / "map.json"
        argv = ["verify", "fixture:fig17", "--mt", "--depth-limit", "4", "--dump-map", str(target)]
        assert main(argv) == EXIT_USAGE
        assert calls == []
        assert not target.exists()
        assert capsys.readouterr() == (
            "",
            "error: --mt builds no correspondence map and cannot be combined with --dump-map\n",
        )


def _file_error_argv(case: str, tmp_path: Path) -> list[str]:
    """A command whose input or output path is unusable; `tmp_path` is an
    existing directory."""
    if case == "solve-directory":
        return ["solve", str(tmp_path)]
    if case == "gen-suite-over-file":
        existing = tmp_path / "existing.txt"
        existing.write_text("x\n")
        return ["gen", str(existing), "--suite"]
    if case == "experiment-output-directory":
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "problems = fixture:fig9\nplanners = to\ntrials = 1\n"
            f"depth_limit = 2\noutput = {tmp_path}\n"
        )
        return ["experiment", str(cfg)]
    if case == "dump-tree-output-directory":
        return ["dump-tree", "fixture:fig9", "--depth-limit", "2", "--output", str(tmp_path)]
    assert case == "verify-dump-map-directory"
    return ["verify", "fixture:fig9", "--depth-limit", "2", "--dump-map", str(tmp_path)]


class TestFileErrors:
    @pytest.mark.parametrize(
        "case",
        [
            "solve-directory",
            "gen-suite-over-file",
            "experiment-output-directory",
            "dump-tree-output-directory",
            "verify-dump-map-directory",
        ],
    )
    def test_os_error_exits_two_with_one_line(self, tmp_path, capsys, case):
        assert main(_file_error_argv(case, tmp_path)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("unusable", ["directory", "missing-parent"])
    def test_unwritable_output_refused_before_any_search(self, tmp_path, monkeypatch, capsys, unusable):
        calls = {"run_search": 0, "enumerate_tree": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(search, "run_search", counted("run_search", search.run_search))
        monkeypatch.setattr(cli, "enumerate_tree", counted("enumerate_tree", cli.enumerate_tree))
        target = tmp_path if unusable == "directory" else tmp_path / "absent" / "out.json"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "problems = fixture:fig9\nplanners = to,ua\ntrials = 5\n"
            f"depth_limit = 2\noutput = {target}\n"
        )
        verify = ["verify", "fixture:fig9", "--depth-limit", "2", "--dump-map", str(target)]
        dump = ["dump-tree", "fixture:fig9", "--depth-limit", "2", "--output", str(target)]
        for argv in (["experiment", str(cfg)], verify, dump):
            assert main(argv) == EXIT_USAGE
            assert calls == {"run_search": 0, "enumerate_tree": 0}, argv[0]
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1, err


class TestCeilings:
    def test_solve_honours_node_ceiling(self, capsys):
        args = ["solve", "fixture:fig17", "--planner", "mt", "--strategy", "bfs", "--depth-limit", "12"]
        assert main(args + ["--node-ceiling", "100"]) == EXIT_CEILING
        assert "exceeded 100 nodes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error", [OracleCeilingError("state-space search exceeded 9 states"), PlanSizeError("refused")]
    )
    def test_oracle_and_plan_size_ceilings_exit_three(self, monkeypatch, capsys, error):
        def raise_error(problem):
            raise error

        monkeypatch.setattr(cli, "minimal_solution_length", raise_error)
        assert main(["solve", "fixture:fig9"]) == EXIT_CEILING
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_oracle_state_ceiling_exits_three(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "STATE_CEILING", 2)
        assert main(["solve", "fixture:sussman", "--depth-limit", "auto"]) == EXIT_CEILING
        assert capsys.readouterr() == ("", "error: state-space search exceeded 2 states\n")

    @pytest.mark.parametrize("command", ["solve", "verify", "dump-tree"])
    @pytest.mark.parametrize("raw", ["0", "-2", "x"])
    def test_bad_node_ceiling_flag_refused(self, sussman_file, capsys, command, raw):
        assert main([command, sussman_file, "--node-ceiling", raw]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["solve", "verify", "dump-tree"])
    def test_negative_depth_limit_refused(self, sussman_file, capsys, command):
        assert main([command, sussman_file, "--depth-limit", "-1"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: depth_limit must be >= 0, not -1\n"

    def test_deep_verify_of_repeated_operators_is_not_refused(self, loop_file, capsys):
        # plans of up to 502 steps, each operator repeated: past the step
        # ceiling, which guards only linear-extension enumeration
        assert main(["verify", loop_file, "--depth-limit", "500"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.startswith("|tree_ua| = 501  |tree_to| = 501\n")
        for check in ("totality", "disjointness", "partition"):
            assert f"{check}: pass" in out
        assert err == ""

    def test_deep_verify_of_distinct_operators_is_not_refused(self, tmp_path, capsys):
        # 35 distinct operators in one chain: plans of 37 steps, over the
        # step ceiling, whose linearization check needs no search
        ops = "".join(f"operator op{i}\n  pre: p{i - 1}\n  add: p{i}\nend\n" for i in range(1, 36))
        path = tmp_path / "chain35.plan"
        path.write_text(f"problem chain35\ninit: p0\ngoal: p35\n{ops}", encoding="utf-8")
        assert main(["verify", str(path), "--depth-limit", "35"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.startswith("|tree_ua| = 36  |tree_to| = 36\n")
        assert err == ""

    def test_deep_dump_tree(self, loop_file, tmp_path, capsys):
        out = tmp_path / "tree.json"
        code = main(["dump-tree", loop_file, "--depth-limit", "500", "--output", str(out)])
        assert code == EXIT_OK
        nodes = json.loads(out.read_text())
        assert [n["id"] for n in nodes] == list(range(501))
        assert [n["parent"] for n in nodes] == [None, *range(500)]
        assert len(nodes[-1]["operator_sequence"]) == 500

    @pytest.mark.parametrize("strategy", ["dfs", "ibroad"])
    def test_deep_depth_first_search(self, loop_file, capsys, strategy):
        code = main(["solve", loop_file, "--strategy", strategy, "--depth-limit", "1000"])
        assert code == EXIT_UNSOLVED
        out, err = capsys.readouterr()
        assert "nodes expanded: 1001  leaves: 1\n" in out
        assert err == ""

    # Per-depth counts grow with the deepest node visited, so a depth limit
    # far past any plan allocates nothing before the first node.
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["solve", "fixture:sussman", "--planner", "ua", "--strategy", "bfs"], EXIT_OK),
            (["verify", "fixture:sussman", "--node-ceiling", "50"], EXIT_CEILING),
        ],
    )
    def test_huge_depth_limit(self, capsys, argv, code):
        assert main([*argv, "--depth-limit", str(10**19)]) == code
        assert "Traceback" not in capsys.readouterr().err

    def test_deep_search_stops_at_the_ceiling_within_memory(self):
        # Every plan on an ibroad path keeps its closure alive, so closures
        # must stay one int per step for 2,000 nodes 400 deep to fit in
        # 1 GiB of address space, which the child process sets on itself.
        pytest.importorskip("resource")
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            "import resource, sys\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))\n"
            "from planlab.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        argv = ["solve", "fixture:sussman", "--strategy", "ibroad", "--node-ceiling", "2000", "--depth-limit", "400"]
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == EXIT_CEILING, done.stderr
        assert "exceeded 2000 nodes" in done.stderr
        assert "Traceback" not in done.stderr

    # sussman at its minimal depth of 3 finishes in milliseconds, so a
    # command that ignored the ceiling would fail here rather than hang
    @pytest.mark.parametrize("command", ["solve", "verify", "dump-tree"])
    def test_module_ceiling_honoured(self, sussman_file, monkeypatch, capsys, command):
        monkeypatch.setattr(trees, "NODE_CEILING", 5)
        assert main([command, sussman_file, "--depth-limit", "3"]) == EXIT_CEILING
        assert capsys.readouterr() == ("", "error: search tree exceeded 5 nodes (at 5)\n")
        assert main([command, sussman_file, "--depth-limit", "3", "--node-ceiling", "1000"]) == EXIT_OK

    def test_environment_variable_ignored(self):
        src = str(Path(cli.__file__).resolve().parents[1])

        def nodes_line(env):
            argv = [sys.executable, "-m", "planlab.cli", "solve", "fixture:sussman"]
            done = subprocess.run(argv, env={**env, "PYTHONPATH": src}, capture_output=True, text=True)
            assert done.returncode == EXIT_OK, done.stderr
            return [line for line in done.stdout.splitlines() if line.startswith("nodes expanded:")]

        plain = {k: v for k, v in os.environ.items() if k != "PLANLAB_NODE_CEILING"}
        assert nodes_line({**plain, "PLANLAB_NODE_CEILING": "abc"}) == nodes_line(plain) != []

    def test_no_module_reads_the_environment(self):
        package = Path(cli.__file__).resolve().parent
        readers = [
            f"{path.name}:{lineno}"
            for path in sorted(package.glob("*.py"))
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(r"\b(environ|getenv)\b", line)
        ]
        assert readers == []

    def test_only_the_model_reads_plan_caches(self):
        # A plan's cached views are the model's to derive and hand on.
        package = Path(cli.__file__).resolve().parent
        readers = [
            f"{path.name}:{lineno}"
            for path in sorted(package.glob("*.py"))
            if path.name != "model.py"
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if "__dict__" in line
        ]
        assert readers == []

    def test_steps_are_found_by_position_only(self):
        # A step's label is its position, so plan.steps[label] finds it; no
        # module keeps a second map from labels to steps.  The pattern
        # spells the old attribute with a character class, so a grep of the
        # tree for its name finds nothing.
        package = Path(cli.__file__).resolve().parent
        maps = [
            f"{path.name}:{lineno}"
            for path in sorted(package.glob("*.py"))
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(r"by[_]label|\{\s*(\w+)\.label\s*:\s*\1\b", line)
        ]
        assert maps == []


class TestExperiment:
    def write_config(self, tmp_path, **overrides) -> str:
        lines = {
            "problems": "fixture:fig9",
            "planners": "to,ua",
            "strategies": "dfs",
            "heuristics": "none",
            "trials": "4",
            "base_seed": "0",
            "depth_limit": "auto",
            "output": str(tmp_path / "rows.csv"),
            "format": "csv",
        }
        lines.update({k: str(v) for k, v in overrides.items()})
        path = tmp_path / "exp.cfg"
        path.write_text("\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n")
        return str(path)

    def test_rows_and_summary_written(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["experiment", cfg]) == EXIT_OK
        rows = list(csv.DictReader((tmp_path / "rows.csv").read_text().splitlines()))
        assert len(rows) == 2 * 4  # planners x trials
        summary = list(csv.DictReader((tmp_path / "rows_summary.csv").read_text().splitlines()))
        assert len(summary) == 2

    def test_row_count_formula(self, tmp_path):
        cfg = ExperimentConfig.load(
            self.write_config(tmp_path, heuristics="none,min_goals_rank", trials=3)
        )
        rows, _ = run_experiment(cfg)
        assert len(rows) == 1 * 2 * 1 * 2 * 3

    def test_reproducible_rows_excluding_wall_clock(self, tmp_path):
        cfg = ExperimentConfig.load(self.write_config(tmp_path))
        rows_a, _ = run_experiment(cfg)
        rows_b, _ = run_experiment(cfg)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
        assert strip(rows_a) == strip(rows_b)

    def test_isamp_rows_have_iterations(self, tmp_path):
        cfg = ExperimentConfig.load(
            self.write_config(tmp_path, strategies="isamp", trials=2)
        )
        rows, _ = run_experiment(cfg)
        assert all(isinstance(r["iterations"], int) for r in rows)

    def test_summary_improvement_column(self, tmp_path):
        cfg = ExperimentConfig.load(
            self.write_config(tmp_path, heuristics="none,min_goals_rank", trials=3)
        )
        rows, summary = run_experiment(cfg)
        heur_cells = [c for c in summary if c["heuristic"] == "min_goals_rank"]
        assert heur_cells
        assert all(c["improvement_vs_plain_pct"] != "" for c in heur_cells)

    def test_experiment_honours_node_ceiling(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(trees, "NODE_CEILING", 5)
        assert main(["experiment", self.write_config(tmp_path)]) == EXIT_CEILING
        assert capsys.readouterr() == ("", "error: search tree exceeded 5 nodes (at 5)\n")
        assert not (tmp_path / "rows.csv").exists()

    def test_heuristic_a_strategy_ignores_refused(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, strategies="dfs,isamp", heuristics="none,min_goals_rank")
        assert main(["experiment", cfg]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: strategy 'isamp' ignores heuristic 'min_goals_rank'\n")
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_nonpositive_max_iterations_refused(self, tmp_path, capsys, raw):
        cfg = self.write_config(tmp_path, strategies="isamp", max_iterations=raw)
        assert main(["experiment", cfg]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: max_iterations must be >= 1, not {raw}\n")
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("key", ["problems", "planners", "strategies", "heuristics"])
    def test_empty_list_refused(self, tmp_path, capsys, key):
        cfg = self.write_config(tmp_path, **{key: ""})
        assert main(["experiment", cfg]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {key} must list at least one entry\n")
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("raw", ["", "."])
    def test_output_without_a_file_name_refused(self, tmp_path, monkeypatch, capsys, raw):
        cfg = self.write_config(tmp_path, output=raw)
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", cfg]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: output must name a file, not {raw!r}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_auto_depth_searches_once_per_problem_file(self, tmp_path, monkeypatch):
        problems = [d1s1_problem(goals) for goals in ((2, 3), (5,), (1, 2, 4))] + [fixture("sussman")]
        for k, problem in enumerate(problems):
            (tmp_path / f"{k}.plan").write_text(serialize_problem(problem), encoding="utf-8")
        calls = []

        def spy(problem):
            calls.append(problem.name)
            return oracle.minimal_solution_length(problem)

        monkeypatch.setattr(cli, "minimal_solution_length", spy)
        cfg = self.write_config(tmp_path, problems=tmp_path / "*.plan", trials=1)
        rows, _ = run_experiment(ExperimentConfig.load(cfg))
        assert sorted(calls) == sorted(p.name for p in problems)
        lengths = {p.name: oracle.minimal_solution_length(p) for p in problems}
        assert len(rows) == 2 * len(problems)
        for row in rows:
            assert row["depth_limit"] == row["length_class"] == lengths[row["problem_id"]]

    def test_the_first_unsolvable_problem_by_name_is_refused(self, tmp_path, capsys):
        stuck = "problem {}\ninit: a\ngoal: g\noperator n\n  pre: a\n  add: x\nend\n"
        texts = [stuck.format("zz_stuck"), stuck.format("bb_stuck"), serialize_problem(d1s1_problem([1]))]
        for k, text in enumerate(texts):
            (tmp_path / f"{k}.plan").write_text(text, encoding="utf-8")
        cfg = self.write_config(tmp_path, problems=tmp_path / "*.plan", trials=1)
        assert main(["experiment", cfg]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("\nerror: problem bb_stuck is unsolvable; give an explicit depth limit\n")
        assert err.count("error:") == 1
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize(
        "key, value, entry",
        [
            ("problems", "fixture:fig9, fixture:fig2, fixture:fig9", "fixture:fig9"),
            ("planners", "to,ua,to", "to"),
            ("strategies", "dfs,dfs", "dfs"),
            ("heuristics", "none, none", "none"),
        ],
    )
    def test_a_repeated_entry_is_refused(self, tmp_path, capsys, key, value, entry):
        cfg = self.write_config(tmp_path, **{key: value})
        assert main(["experiment", cfg]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {key} lists {entry!r} more than once\n")
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("with_fixture", [False, True])
    def test_one_problem_id_from_two_sources_is_refused(self, tmp_path, capsys, with_fixture):
        paths = [tmp_path / copy / "fig9.plan" for copy in ("dup_a", "dup_b")]
        for path in paths:
            path.parent.mkdir()
            path.write_text(serialize_problem(fixture("fig9")), encoding="utf-8")
        if with_fixture:
            problems, sources = f"fixture:fig9, {paths[0]}", ("fixture:fig9", paths[0])
        else:
            problems, sources = tmp_path / "dup*" / "fig9.plan", paths
        cfg = self.write_config(tmp_path, problems=problems, trials=2)
        assert main(["experiment", cfg]) == EXIT_USAGE
        message = f"error: problem id 'fig9' comes from both {sources[0]} and {sources[1]}\n"
        assert capsys.readouterr() == ("", message)
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("key, raw", [("trials", "abc"), ("base_seed", "1.5"), ("max_iterations", "")])
    def test_a_non_integer_value_is_refused_with_its_line(self, tmp_path, capsys, key, raw):
        cfg = self.write_config(tmp_path, **{key: raw})
        lineno = 1 + [line.split(" = ")[0] for line in Path(cfg).read_text().splitlines()].index(key)
        assert main(["experiment", cfg]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {cfg}:{lineno}: {key} must be an integer, not {raw!r}\n")
        assert not (tmp_path / "rows.csv").exists()

    def test_rows_come_in_canonical_order_whatever_the_list_order(self, tmp_path):
        def rows_for(planners, strategies):
            cfg = self.write_config(tmp_path, planners=planners, strategies=strategies, trials=2)
            rows, summary = run_experiment(ExperimentConfig.load(cfg))
            return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows], summary

        rows, summary = rows_for("ua,to", "ibroad,dfs")
        assert (rows, summary) == rows_for("to,ua", "dfs,ibroad")
        keys = [(r["problem_id"], r["planner"], r["strategy"], r["heuristic"], r["trial"]) for r in rows]
        assert keys == sorted(keys) and len(set(keys)) == len(keys) == 2 * 2 * 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frobnicate = 3\n")
        assert main(["experiment", str(path)]) == EXIT_USAGE

    def test_json_format(self, tmp_path):
        cfg_path = self.write_config(
            tmp_path, format="json", output=str(tmp_path / "rows.json"), trials=2
        )
        assert main(["experiment", cfg_path]) == EXIT_OK
        rows = json.loads((tmp_path / "rows.json").read_text())
        assert len(rows) == 4


class TestGenAndDump:
    def test_gen_single(self, tmp_path, capsys):
        code = main(["gen", str(tmp_path), "--blocks", "3", "--seed", "5"])
        assert code == EXIT_OK
        files = list(tmp_path.glob("*.plan"))
        assert len(files) == 1

    def test_gen_suite_layout(self, tmp_path, capsys):
        code = main(["gen", str(tmp_path), "--suite"])
        assert code == EXIT_OK
        class_dirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert class_dirs == ["length_1", "length_2", "length_3", "length_4"]
        total = sum(len(list(d.glob("*.plan"))) for d in tmp_path.iterdir())
        assert total == 44

    def test_gen_fixture_round_trips(self, tmp_path):
        main(["gen", str(tmp_path), "--fixture", "fig17"])
        from planlab.domains import parse_problem

        reparsed = parse_problem((tmp_path / "fig17.plan").read_text())
        assert reparsed == fixture("fig17")

    def test_dump_tree_round_trip(self, tmp_path, capsys):
        src = tmp_path / "chain.plan"
        src.write_text(serialize_problem(d1s1_problem([1, 2])), encoding="utf-8")
        out = tmp_path / "tree.json"
        code = main(
            ["dump-tree", str(src), "--planner", "ua", "--output", str(out)]
        )
        assert code == EXIT_OK
        nodes = json.loads(out.read_text())
        assert len(nodes) == 4

    def test_dump_empty_goal_single_node(self, tmp_path, capsys):
        src = tmp_path / "noop.plan"
        src.write_text("problem noop\ninit: a\ngoal: a\n", encoding="utf-8")
        code = main(["dump-tree", str(src), "--depth-limit", "2"])
        assert code == EXIT_OK
        nodes = json.loads(capsys.readouterr().out)
        assert len(nodes) == 1 and nodes[0]["solution"]


def test_a_misspelt_marker_fails_collection(tmp_path):
    # Under the project's pytest settings a misspelt `acceptance` marker is
    # an error, so a slow test cannot slip into `-m "not acceptance"`.
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "pyproject.toml").write_text((root / "pyproject.toml").read_text(encoding="utf-8"))
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_typo.py").write_text(
        "import pytest\n\n\n@pytest.mark.acceptence\ndef test_slow():\n    pass\n"
    )
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-m", "not acceptance"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode != 0
    assert "'acceptence' not found in `markers`" in done.stdout
