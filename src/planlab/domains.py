"""Problem sources: blocksworld, the indexed chain domain, fixtures, and
the problem-file format.

The blocksworld encoding is fully ground.  Positions are ``on_X_Y`` and
``on_table_X``; a block is movable when ``clear_X`` holds.  Move operators
come in three shapes (block to block, table to block, block to table) and
every delete is a precondition.

The chain domain (`d1s1_problem`) has initial markers i1..i15 and one
operator per index: o_k requires i_k, achieves g_k and wipes out i_{k-1}.
Goal sets over consecutive indices therefore admit exactly one compact
solution, fully ordered by index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .model import CondEffect, OperatorSchema, Problem, make_op

BLOCK_NAMES = "abcdefgh"


# -- blocksworld -------------------------------------------------------

#: The per-fact probability that a goal-configuration position fact is kept
#: as an actual goal, so goals are usually partial.
GOAL_KEEP = 0.7


@dataclass(frozen=True)
class BlocksworldSpec:
    """Seeded description of one random blocksworld instance."""

    n_blocks: int
    seed: int

    def __post_init__(self) -> None:
        if not 2 <= self.n_blocks <= len(BLOCK_NAMES):
            raise ValueError(f"n_blocks must be in [2, {len(BLOCK_NAMES)}]")


def _config_facts(below: dict[str, Optional[str]]) -> set[str]:
    """Position and clear facts of a stacking forest (block -> support)."""
    facts = set()
    covered = set()
    for blk, sup in below.items():
        if sup is None:
            facts.add(f"on_table_{blk}")
        else:
            facts.add(f"on_{blk}_{sup}")
            covered.add(sup)
    for blk in below:
        if blk not in covered:
            facts.add(f"clear_{blk}")
    return facts


def _random_forest(blocks: Sequence[str], rng) -> dict[str, Optional[str]]:
    below: dict[str, Optional[str]] = {}
    clear: list[str] = []
    order = list(blocks)
    rng.shuffle(order)
    for blk in order:
        if clear and rng.random() < 0.5:
            sup = clear.pop(rng.randrange(len(clear)))
            below[blk] = sup
        else:
            below[blk] = None
        clear.append(blk)
        clear.sort()
    return below


def blocksworld_operators(n_blocks: int) -> tuple[OperatorSchema, ...]:
    blocks = list(BLOCK_NAMES[:n_blocks])
    ops = []
    for x in blocks:
        for y in blocks:
            if y == x:
                continue
            ops.append(
                make_op(
                    f"move_{x}_from_table_to_{y}",
                    pre=[f"on_table_{x}", f"clear_{x}", f"clear_{y}"],
                    adds=[f"on_{x}_{y}"],
                    dels=[f"on_table_{x}", f"clear_{y}"],
                )
            )
            ops.append(
                make_op(
                    f"move_{x}_from_{y}_to_table",
                    pre=[f"on_{x}_{y}", f"clear_{x}"],
                    adds=[f"on_table_{x}", f"clear_{y}"],
                    dels=[f"on_{x}_{y}"],
                )
            )
            for z in blocks:
                if z in (x, y):
                    continue
                ops.append(
                    make_op(
                        f"move_{x}_from_{y}_to_{z}",
                        pre=[f"on_{x}_{y}", f"clear_{x}", f"clear_{z}"],
                        adds=[f"on_{x}_{z}", f"clear_{y}"],
                        dels=[f"on_{x}_{y}", f"clear_{z}"],
                    )
                )
    ops.sort(key=lambda op: op.name)
    return tuple(ops)


def blocksworld_problem(spec: BlocksworldSpec) -> Problem:
    """A seeded random blocksworld problem with partial position goals."""
    import random

    rng = random.Random(spec.seed)
    blocks = list(BLOCK_NAMES[: spec.n_blocks])
    init_cfg = _random_forest(blocks, rng)
    init = _config_facts(init_cfg)
    goals: set[str] = set()
    for _ in range(50):
        goal_cfg = _random_forest(blocks, rng)
        position_facts = sorted(
            f for f in _config_facts(goal_cfg) if not f.startswith("clear_")
        )
        goals = {f for f in position_facts if rng.random() < GOAL_KEEP}
        if goals and not goals <= init:
            break
    return Problem(
        name=f"blocks{spec.n_blocks}_seed{spec.seed}",
        init=frozenset(init),
        goals=frozenset(goals),
        library=blocksworld_operators(spec.n_blocks),
    )


# -- indexed chain domain ----------------------------------------------

CHAIN_SIZE = 15


def d1s1_problem(goal_indices: Iterable[int]) -> Problem:
    """The indexed chain domain over markers i1..i15 and targets g1..g15.

    Operator o_k requires i_k, adds g_k and deletes i_{k-1}; o_1 deletes
    nothing.
    """
    indices = sorted(set(goal_indices))
    if not indices:
        raise ValueError("at least one goal index is required")
    if indices[0] < 1 or indices[-1] > CHAIN_SIZE:
        raise ValueError(f"goal indices must lie in 1..{CHAIN_SIZE}")
    init = {f"i{k}" for k in range(1, CHAIN_SIZE + 1)}
    ops = []
    for k in range(1, CHAIN_SIZE + 1):
        dels = {f"i{k-1}"} if k > 1 else set()
        ops.append(
            make_op(
                f"o{k}",
                pre={f"i{k}"} | dels,
                adds={f"g{k}"},
                dels=dels,
            )
        )
    return Problem(
        name="chain_" + "_".join(str(k) for k in indices),
        init=frozenset(init),
        goals=frozenset(f"g{k}" for k in indices),
        library=tuple(ops),
    )


# -- hand-built fixtures -----------------------------------------------


def _fixture_sussman() -> Problem:
    return Problem(
        name="sussman",
        init=frozenset(
            ["on_c_a", "on_table_a", "on_table_b", "clear_c", "clear_b"]
        ),
        goals=frozenset(["on_a_b", "on_b_c"]),
        library=blocksworld_operators(3),
    )


def _fixture_fig2() -> Problem:
    # A totally ordered derivation reaches the chain
    # wrecker < helper_a < helper_b with the single open goal `core`,
    # which `fixer` re-achieves; three insertion gaps remain.
    return Problem(
        name="fig2",
        init=frozenset(["core"]),
        goals=frozenset(["core", "done_a", "done_b", "done_z"]),
        library=(
            make_op("fixer", adds=["core"]),
            make_op("wrecker", pre=["core"], adds=["done_z"], dels=["core"]),
            make_op("helper_a", adds=["done_a"]),
            make_op("helper_b", adds=["done_b"]),
        ),
    )


def _fixture_fig4() -> Problem:
    # The partial-order analog: helper_a, helper_b and wrecker end up
    # mutually unordered; fixer interacts with helper_a (it consumes the
    # tool helper_a needs) but not with helper_b.
    return Problem(
        name="fig4",
        init=frozenset(["core", "tool"]),
        goals=frozenset(["core", "done_a", "done_b", "done_z"]),
        library=(
            make_op("fixer", pre=["tool"], adds=["core"], dels=["tool"]),
            make_op("wrecker", pre=["core"], adds=["done_z"], dels=["core"]),
            make_op("helper_a", pre=["tool"], adds=["done_a"]),
            make_op("helper_b", adds=["done_b"]),
        ),
    )


def _fixture_fig9() -> Problem:
    # closer needs p; relay achieves p but needs q; supplier achieves q.
    # Ordering supplier before relay leaves no open goals, relay before
    # supplier leaves one: the ordering choice has unequal ratings.
    return Problem(
        name="fig9",
        init=frozenset(),
        goals=frozenset(["g", "q"]),
        library=(
            make_op("closer", pre=["p"], adds=["g"]),
            make_op("supplier", adds=["q"]),
            make_op("relay", pre=["q"], adds=["p"]),
        ),
    )


def _fixture_fig13() -> Problem:
    # groundwork conditionally supplies u (if t); capstone conditionally
    # supplies s (if u) and s is a top-level goal: role selection can
    # cascade, committing both conditional effects or neither.
    return Problem(
        name="fig13",
        init=frozenset(["p", "t"]),
        goals=frozenset(["base", "c", "s"]),
        library=(
            make_op("groundwork", pre=["p"], adds=["base"], cadds=[CondEffect(frozenset(["t"]), "u")]),
            make_op("capstone", adds=["c"], cadds=[CondEffect(frozenset(["u"]), "s")]),
        ),
    )


def _fixture_fig17() -> Problem:
    # Three symmetric operators; each needs its own trigger p_k yet adds
    # every trigger, so establishment choices overlap heavily.
    ops = []
    for k in (1, 2, 3):
        ops.append(
            make_op(
                f"op{k}",
                pre=[f"p{k}"],
                adds=[f"g{k}", "p1", "p2", "p3"],
            )
        )
    return Problem(
        name="fig17",
        init=frozenset(),
        goals=frozenset(["g1", "g2", "g3"]),
        library=tuple(ops),
    )


_FIXTURES = {
    "sussman": _fixture_sussman,
    "fig2": _fixture_fig2,
    "fig4": _fixture_fig4,
    "fig9": _fixture_fig9,
    "fig13": _fixture_fig13,
    "fig17": _fixture_fig17,
}


def fixture(name: str) -> Problem:
    try:
        builder = _FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; choose from {sorted(_FIXTURES)}") from None
    return builder()


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


# -- problem file format -----------------------------------------------

_PROP_RE = re.compile(r"[a-z][a-z0-9_]*$")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _strip_comment(text: str) -> str:
    i = text.find("#")
    return text if i < 0 else text[:i]


def _check_prop(tok: str, lineno: int, col: int) -> str:
    if not _PROP_RE.match(tok):
        raise ParseError(
            f"invalid proposition {tok!r} (expected [a-z][a-z0-9_]*)", lineno, col
        )
    return tok


def _parse_cond_effects(rest: str, lineno: int, base_col: int) -> list[CondEffect]:
    """Parse `(p [& q]* -> r)` groups."""
    out = []
    pos = 0
    while pos < len(rest):
        while pos < len(rest) and rest[pos].isspace():
            pos += 1
        if pos >= len(rest):
            break
        if rest[pos] != "(":
            raise ParseError("expected '('", lineno, base_col + pos + 1)
        close = rest.find(")", pos)
        if close < 0:
            raise ParseError("unterminated conditional effect", lineno, base_col + pos + 1)
        body = rest[pos + 1 : close]
        if "->" not in body:
            raise ParseError("expected '->' in conditional effect", lineno, base_col + pos + 1)
        deps_text, effect_text = body.split("->", 1)
        deps = [d.strip() for d in deps_text.split("&")]
        effect = effect_text.strip()
        if any(not d for d in deps) or not effect:
            raise ParseError("malformed conditional effect", lineno, base_col + pos + 1)
        for d in deps:
            _check_prop(d, lineno, base_col + pos + 1)
        _check_prop(effect, lineno, base_col + pos + 1)
        out.append(CondEffect(frozenset(deps), effect))
        pos = close + 1
    return out


def parse_problem(text: str) -> Problem:
    """Parse the line-oriented problem format; see `serialize_problem`."""
    lines = text.splitlines()
    name = None
    init: set[str] = set()
    goals: set[str] = set()
    ops: list[OperatorSchema] = []
    cur: Optional[dict] = None
    saw_init = saw_goal = False

    def finish_operator(lineno: int) -> None:
        nonlocal cur
        assert cur is not None
        try:
            ops.append(
                make_op(cur["name"], cur["pre"], cur["add"], cur["del"], cur["cadd"], cur["cdel"])
            )
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        cur = None

    for lineno, raw in enumerate(lines, start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        indent = len(raw) - len(raw.lstrip())
        if line.startswith("problem"):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected 'problem <name>'", lineno)
            if name is not None:
                raise ParseError("duplicate 'problem' line", lineno)
            name = _check_prop(parts[1], lineno, indent + len("problem ") + 1)
        elif line.startswith("operator"):
            if cur is not None:
                raise ParseError("operator block not closed with 'end'", lineno)
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected 'operator <name>'", lineno)
            cur = {
                "name": _check_prop(parts[1], lineno, indent + len("operator ") + 1),
                "pre": [],
                "add": [],
                "del": [],
                "cadd": [],
                "cdel": [],
            }
        elif line == "end":
            if cur is None:
                raise ParseError("'end' outside an operator block", lineno)
            finish_operator(lineno)
        elif ":" in line:
            key, rest = line.split(":", 1)
            key = key.strip()
            col = indent + len(key) + 2
            if key in ("init", "goal"):
                if cur is not None:
                    raise ParseError(f"{key!r} section inside an operator block", lineno)
                props = [_check_prop(t, lineno, col) for t in rest.split()]
                if key == "init":
                    init.update(props)
                    saw_init = True
                else:
                    goals.update(props)
                    saw_goal = True
            elif key in ("pre", "add", "del"):
                if cur is None:
                    raise ParseError(f"{key!r} section outside an operator block", lineno)
                cur[key].extend(_check_prop(t, lineno, col) for t in rest.split())
            elif key in ("cadd", "cdel"):
                if cur is None:
                    raise ParseError(f"{key!r} section outside an operator block", lineno)
                cur[key].extend(_parse_cond_effects(rest, lineno, col))
            else:
                raise ParseError(f"unknown section {key!r}", lineno)
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)

    if cur is not None:
        raise ParseError("operator block not closed with 'end'", len(lines) or 1)
    if name is None:
        raise ParseError("missing 'problem <name>' line", 1)
    if not saw_init or not saw_goal:
        raise ParseError("missing 'init:' or 'goal:' section", len(lines) or 1)
    return Problem(
        name=name,
        init=frozenset(init),
        goals=frozenset(goals),
        library=tuple(ops),
    )


def serialize_problem(problem: Problem) -> str:
    """Render a problem in the parseable line format (round-trip stable)."""
    out = [f"problem {problem.name}"]
    out.append("init: " + " ".join(sorted(problem.init)))
    out.append("goal: " + " ".join(sorted(problem.goals)))
    for op in problem.library:
        out.append(f"operator {op.name}")
        out.append("  pre: " + " ".join(sorted(op.pre)))
        out.append("  add: " + " ".join(sorted(op.adds)))
        out.append("  del: " + " ".join(sorted(op.dels)))
        if op.cadds:
            out.append(
                "  cadd: "
                + " ".join(
                    f"({' & '.join(sorted(ce.deps))} -> {ce.effect})" for ce in op.cadds
                )
            )
        if op.cdels:
            out.append(
                "  cdel: "
                + " ".join(
                    f"({' & '.join(sorted(ce.deps))} -> {ce.effect})" for ce in op.cdels
                )
            )
        out.append("end")
    return "\n".join(out) + "\n"


# -- the standard 44-problem suite --------------------------------------

#: (length_class, n_blocks, seed) for each suite member; regenerated by
#: `find_suite_entries`, committed so the suite is stable.
SUITE_ENTRIES: tuple[tuple[int, int, int], ...] = (
    (1, 2, 0),
    (1, 3, 0),
    (1, 2, 1),
    (1, 3, 1),
    (1, 4, 1),
    (1, 2, 2),
    (1, 2, 3),
    (1, 2, 5),
    (1, 3, 5),
    (1, 2, 6),
    (1, 2, 7),
    (2, 3, 4),
    (2, 4, 5),
    (2, 3, 6),
    (2, 4, 10),
    (2, 4, 24),
    (2, 4, 26),
    (2, 3, 42),
    (2, 3, 49),
    (2, 4, 53),
    (2, 3, 58),
    (2, 4, 63),
    (3, 4, 6),
    (3, 4, 11),
    (3, 3, 14),
    (3, 3, 16),
    (3, 4, 20),
    (3, 4, 25),
    (3, 3, 29),
    (3, 4, 29),
    (3, 4, 42),
    (3, 4, 51),
    (3, 4, 52),
    (4, 4, 68),
    (4, 3, 89),
    (4, 3, 284),
    (4, 4, 391),
    (4, 4, 472),
    (4, 4, 481),
    (4, 4, 683),
    (4, 4, 776),
    (4, 3, 799),
    (4, 4, 813),
    (4, 4, 882),
)

SUITE_CLASSES = (1, 2, 3, 4)
SUITE_PER_CLASS = 11

# Per-class admission budgets, measured with fixed probe seeds: total-order
# breadth-first nodes to the first solution, mean depth-first nodes over
# three probe trials, and mean sampling iterations over two probe trials.
# They keep the committed suite's 25-trial experiment matrices desk-scale;
# minimal length 5 is excluded outright: random depth-5 probes need several
# thousand iterations per solution in this encoding, which prices the
# sampling experiments out of test scale.
_SUITE_BUDGETS = {
    1: (60, 40, 30),
    2: (500, 400, 60),
    3: (1_500, 900, 90),
    4: (6_000, 2_000, 150),
}


def suite_problem(entry: tuple[int, int, int]) -> Problem:
    _, n_blocks, seed = entry
    return blocksworld_problem(BlocksworldSpec(n_blocks=n_blocks, seed=seed))


def standard_suite() -> list[tuple[int, Problem]]:
    """The committed 44-problem suite as (length_class, problem) pairs."""
    return [(entry[0], suite_problem(entry)) for entry in SUITE_ENTRIES]


def _fits_budget(problem: Problem, length: int) -> bool:
    from .planners import make_planner
    from .search import StrategyConfig, run_trials
    from .trees import TreeCeilingError, enumerate_tree

    bfs_cap, dfs_cap, isamp_cap = _SUITE_BUDGETS[length]

    def probe(**fields) -> list:
        cfg = StrategyConfig(depth_limit=length, **fields)
        return run_trials(lambda _seed: make_planner("to", problem), cfg)

    try:
        # cheapest probe first: random sampling rejects most oversized candidates
        samples = probe(strategy="isamp", seed=2000, trials=2, max_iterations=2 * isamp_cap)
        if not all(o.solved for o in samples) or sum(o.iterations for o in samples) > 2 * isamp_cap:
            return False
        dives = probe(strategy="dfs", seed=1000, trials=3, node_ceiling=3 * dfs_cap)
        if not all(o.solved for o in dives) or sum(o.nodes_expanded for o in dives) > 3 * dfs_cap:
            return False
        if not probe(strategy="bfs", node_ceiling=bfs_cap)[0].solved:
            return False
    except TreeCeilingError:
        return False
    if length >= 2:
        # the suite should exercise real ordering freedom: beyond length 1,
        # admit only problems whose partial-order tree is strictly smaller
        try:
            to_tree = enumerate_tree(make_planner("to", problem), length, 6 * bfs_cap)
            ua_tree = enumerate_tree(make_planner("ua", problem), length, 6 * bfs_cap)
        except TreeCeilingError:
            return False
        return len(ua_tree) < len(to_tree)
    return True


def find_suite_entries(
    per_class: int = SUITE_PER_CLASS,
    classes: tuple[int, ...] = SUITE_CLASSES,
    seed_limit: int = 20_000,
) -> tuple[tuple[int, int, int], ...]:
    """Deterministically rebuild the suite seed list.

    Seeds are scanned in order; a candidate joins the first unfilled class
    matching its oracle minimal length, provided search-cost probes stay
    within the class budget (keeps the experiment matrix desk-scale).
    """
    from .oracle import minimal_solution_length

    filled: dict[int, list[tuple[int, int, int]]] = {c: [] for c in classes}
    for seed in range(seed_limit):
        if all(len(v) >= per_class for v in filled.values()):
            break
        for n_blocks in (2, 3, 4):
            problem = blocksworld_problem(BlocksworldSpec(n_blocks=n_blocks, seed=seed))
            length = minimal_solution_length(problem)
            if length not in filled or len(filled[length]) >= per_class:
                continue
            if _fits_budget(problem, length):
                filled[length].append((length, n_blocks, seed))
    if any(len(v) < per_class for v in filled.values()):
        raise RuntimeError("seed scan exhausted before filling every class")
    out: list[tuple[int, int, int]] = []
    for c in classes:
        out.extend(filled[c])
    return tuple(out)
