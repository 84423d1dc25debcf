"""Exhaustive search-tree enumeration and cross-planner verification.

`enumerate_tree` unrolls a planner's complete derivation tree to a depth
limit, with deterministic preorder node ids.  `build_correspondence` links
a partial-order tree to a total-order tree of the same problem: a
total-order node belongs to the image of a partial-order node when their
parents are already linked and its plan linearizes that node's plan label
for label.  Both planners give a new step the parent's next free label,
so linked plans agree on what each label names; `is_linearization`
compares them step for step and checks that the total order puts every
ordering of the partial one forward.
The totality, disjointness and partition checks then machine-verify the
expected relationships between the two trees.

For the deferred-ordering planner (`mt`) the ancestry-respecting map is
vacuous as soon as an establishment reuses an existing step (the step
counts diverge), so its redundancy is diagnosed directly:
`sibling_overlap_violations` looks for children of one node whose
linearization sets intersect, which is exactly the disjointness failure
the map would otherwise surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .model import Plan, Problem, is_linearization, linear_extensions
from .planners import ChildCost, Planner
from .truth import GoalEntry

NODE_CEILING = 1_000_000


class TreeCeilingError(RuntimeError):
    """A tree enumeration or search hit the node ceiling; carries the
    partial count."""

    def __init__(self, count: int, ceiling: int):
        super().__init__(f"search tree exceeded {ceiling} nodes (at {count})")
        self.count = count
        self.ceiling = ceiling


class _Tally:
    """Node, leaf and per-depth visit counts of one search or enumeration,
    and the one home of its bounds: the depth limit and the node ceiling
    (unset: `NODE_CEILING`, read when the run starts), both checked before
    the first node.  Per-depth counts end at the deepest depth visited."""

    def __init__(self, depth_limit: int, node_ceiling: Optional[int] = None):
        self.ceiling = NODE_CEILING if node_ceiling is None else node_ceiling
        if depth_limit < 0:
            raise ValueError(f"depth_limit must be >= 0, not {depth_limit}")
        if self.ceiling < 1:
            raise ValueError(f"node_ceiling must be >= 1, not {self.ceiling}")
        self.nodes = 0
        self.leaves = 0
        self.levels: list[int] = []
        self.max_width = 0  # widest child list seen, for iterative broadening

    def visit(self, depth: int) -> None:
        if self.nodes == self.ceiling:
            raise TreeCeilingError(self.nodes, self.ceiling)
        self.nodes += 1
        if depth == len(self.levels):  # a node's parent was visited first
            self.levels.append(0)
        self.levels[depth] += 1


@dataclass
class SearchNode:
    id: int
    parent_id: Optional[int]
    plan: Plan
    depth: int
    goals: tuple[GoalEntry, ...]
    is_solution: bool
    is_dead_end: bool
    cost: Optional[ChildCost]
    children_ids: tuple[int, ...] = ()


@dataclass
class SearchTree:
    problem: Problem
    planner_kind: str
    depth_limit: int
    nodes: list[SearchNode] = field(default_factory=list)
    root_id: int = 0

    def node(self, node_id: int) -> SearchNode:
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    def solutions(self) -> list[SearchNode]:
        return [n for n in self.nodes if n.is_solution]


def enumerate_tree(
    planner: Planner, depth_limit: int, node_ceiling: Optional[int] = None
) -> SearchTree:
    """The complete derivation tree to `depth_limit`, preorder ids; the
    ceiling defaults to `NODE_CEILING`.  Bad bounds raise `ValueError`
    before the first node."""
    tally = _Tally(depth_limit, node_ceiling)
    tree = SearchTree(
        problem=planner.problem, planner_kind=planner.kind, depth_limit=depth_limit
    )

    # An explicit stack instead of recursion, so the depth limit is not
    # bounded by Python's recursion limit; popping children in order keeps
    # the preorder ids and the order of planner calls.
    stack: list[tuple[Plan, Optional[SearchNode], Optional[ChildCost]]] = [
        (planner.root(), None, None)
    ]
    while stack:
        plan, parent, cost = stack.pop()
        depth = 0 if parent is None else parent.depth + 1
        node_id = tally.nodes
        tally.visit(depth)
        goals = planner.goal_set(plan)
        node = SearchNode(
            id=node_id,
            parent_id=None if parent is None else parent.id,
            plan=plan,
            depth=depth,
            goals=goals,
            is_solution=not goals,
            is_dead_end=False,
            cost=cost,
        )
        tree.nodes.append(node)
        if parent is not None:
            parent.children_ids += (node_id,)
        if goals and depth < depth_limit:
            result = planner.children(plan)
            node.is_dead_end = not result.children
            kids = list(zip(result.children, result.costs))
            stack.extend((child, node, child_cost) for child, child_cost in reversed(kids))
    return tree


# -- correspondence map --------------------------------------------------


@dataclass
class CorrespondenceMap:
    """partial-order node id -> ids of its total-order counterparts."""

    pairs: dict[int, tuple[int, ...]]

    def image(self, node_id: int) -> tuple[int, ...]:
        return self.pairs.get(node_id, ())

    def image_size_sum(self) -> int:
        return sum(len(v) for v in self.pairs.values())


def build_correspondence(tree_pa: SearchTree, tree_to: SearchTree) -> CorrespondenceMap:
    """Link each partial-order node to the total-order nodes that linearize
    it and whose parents are already linked; roots are linked outright."""
    if (
        tree_pa.problem.init != tree_to.problem.init
        or tree_pa.problem.goals != tree_to.problem.goals
        or tree_pa.problem.library != tree_to.problem.library
    ):
        raise ValueError("correspondence requires trees over the same problem")
    if tree_pa.depth_limit != tree_to.depth_limit:
        raise ValueError("correspondence requires matching depth limits")

    pairs: dict[int, tuple[int, ...]] = {tree_pa.root_id: (tree_to.root_id,)}
    for u in tree_pa.nodes:
        if u.id == tree_pa.root_id:
            continue
        assert u.parent_id is not None
        hits: list[int] = []
        for t_parent in pairs.get(u.parent_id, ()):
            for t_id in tree_to.node(t_parent).children_ids:
                if is_linearization(tree_to.node(t_id).plan, u.plan):
                    hits.append(t_id)
        if hits:
            pairs[u.id] = tuple(hits)
    return CorrespondenceMap(pairs)


@dataclass
class CheckReport:
    name: str
    ok: bool
    violations: list
    detail: str = ""


def verify_totality(cmap: CorrespondenceMap, tree_pa: SearchTree) -> CheckReport:
    missing = [n.id for n in tree_pa.nodes if not cmap.image(n.id)]
    return CheckReport(
        name="totality",
        ok=not missing,
        violations=missing,
        detail=f"{len(missing)} nodes have an empty image",
    )


def verify_disjointness(cmap: CorrespondenceMap) -> CheckReport:
    owners: dict[int, list[int]] = {}
    for u_id, t_ids in cmap.pairs.items():
        for t_id in t_ids:
            owners.setdefault(t_id, []).append(u_id)
    clashes = [(t_id, sorted(us)) for t_id, us in sorted(owners.items()) if len(us) > 1]
    return CheckReport(
        name="disjointness",
        ok=not clashes,
        violations=clashes,
        detail=f"{len(clashes)} total-order nodes claimed by several images",
    )


def verify_partition(cmap: CorrespondenceMap, tree_to: SearchTree) -> CheckReport:
    covered: dict[int, int] = {}
    for t_ids in cmap.pairs.values():
        for t_id in t_ids:
            covered[t_id] = covered.get(t_id, 0) + 1
    problems = [
        (n.id, covered.get(n.id, 0))
        for n in tree_to.nodes
        if covered.get(n.id, 0) != 1
    ]
    return CheckReport(
        name="partition",
        ok=not problems,
        violations=problems,
        detail=f"{len(problems)} total-order nodes not covered exactly once",
    )


# -- overlap diagnostic for the deferred-ordering planner ----------------


@dataclass(frozen=True)
class OverlapViolation:
    node_a: int
    node_b: int
    shared_sequences: tuple[tuple[str, ...], ...]
    to_node_ids: tuple[int, ...] = ()


def _linearization_keys(plan: Plan) -> set[tuple]:
    keys = set()
    for seq in linear_extensions(plan):
        keys.add(tuple(plan.steps[lab].signature for lab in seq))
    return keys


def sibling_overlap_violations(
    tree: SearchTree, tree_to: Optional[SearchTree] = None
) -> list[OverlapViolation]:
    """Pairs of same-parent nodes whose linearization sets intersect.

    Distinct children of one node sharing a linearization is the
    disjointness failure characteristic of deferred-ordering planners;
    unambiguity-preserving planners never produce it.
    """
    to_index: dict[tuple, list[int]] = {}
    if tree_to is not None:
        for n in tree_to.nodes:
            key = tuple(n.plan.steps[lab].signature for lab in n.plan.sequence)
            to_index.setdefault(key, []).append(n.id)

    out: list[OverlapViolation] = []
    for node in tree.nodes:
        kids = node.children_ids
        if len(kids) < 2:
            continue
        keysets = {kid: _linearization_keys(tree.node(kid).plan) for kid in kids}
        for i, a in enumerate(kids):
            for b in kids[i + 1 :]:
                shared = keysets[a] & keysets[b]
                if not shared:
                    continue
                names = tuple(
                    sorted(tuple(sig[0] for sig in key) for key in shared)
                )
                to_ids: list[int] = []
                for key in shared:
                    to_ids.extend(to_index.get(key, ()))
                out.append(OverlapViolation(a, b, names, tuple(sorted(to_ids))))
    return out


# -- JSON dumps ----------------------------------------------------------


def tree_to_json(tree: SearchTree) -> list[dict]:
    out = []
    for n in tree.nodes:
        plan = n.plan
        seq = [plan.steps[lab].name for lab in plan.middle_labels]
        out.append(
            {
                "id": n.id,
                "parent": n.parent_id,
                "depth": n.depth,
                "operator_sequence": seq,
                "edges": sorted([a, b] for a, b in plan.order),
                "goals": [[e.needer, e.condition] for e in n.goals],
                "solution": n.is_solution,
                "dead_end": n.is_dead_end,
            }
        )
    return out


def map_to_json(cmap: CorrespondenceMap) -> list[dict]:
    return [
        {"ua_id": u_id, "to_ids": list(t_ids)}
        for u_id, t_ids in sorted(cmap.pairs.items())
    ]

