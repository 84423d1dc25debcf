from __future__ import annotations

import itertools
import random

import pytest

from planlab import model
from planlab.model import (
    FINAL_STEP,
    INIT_STEP,
    Plan,
    Problem,
    Step,
    initial_plan,
    linear_extensions,
    make_op,
)

from helpers import closure_pairs


def chain_plan(problem: Problem, op_names: list[str]) -> Plan:
    """A totally ordered plan running the named library operators in order.

    Built directly (not via a planner) so tests can place themselves at an
    arbitrary tree node.
    """
    by_name = {op.name: op for op in problem.library}
    plan = initial_plan(problem)
    steps = list(plan.steps)
    labels = [INIT_STEP]
    for i, name in enumerate(op_names):
        steps.append(Step.from_schema(by_name[name], 2 + i))
        labels.append(2 + i)
    labels.append(FINAL_STEP)
    edges = set(zip(labels, labels[1:]))
    for lab in labels[1:-1]:
        edges.add((INIT_STEP, lab))
        edges.add((lab, FINAL_STEP))
    edges.add((INIT_STEP, FINAL_STEP))
    return Plan(
        steps=tuple(sorted(steps, key=lambda s: s.label)),
        order=frozenset(edges),
        parent=None,
        depth=0,
    )


def brute_topological_orders(plan: Plan) -> list[tuple[int, ...]]:
    """Independent oracle: filter all label permutations by edge respect."""
    out = []
    lab_list = sorted(plan.labels)
    closure = closure_pairs(plan)
    for perm in itertools.permutations(lab_list):
        pos = {lab: i for i, lab in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in closure):
            out.append(perm)
    return out


def linearization_plans(plan: Plan) -> list[Plan]:
    """Every linear extension of `plan` as a totally ordered plan over the
    same steps: the original order plus the extension's chain edges."""
    return [
        Plan(steps=plan.steps, order=plan.order | frozenset(zip(seq, seq[1:])))
        for seq in linear_extensions(plan)
    ]


def random_plan(rng: random.Random, max_middle: int = 4) -> Plan:
    """A structurally valid random plan over a tiny proposition pool."""
    props = ["pa", "pb", "pc", "pd"]
    k = rng.randrange(0, max_middle + 1)
    steps = [Step(INIT_STEP, "#init", adds=frozenset(rng.sample(props, rng.randrange(0, 3))))]
    final_pre = frozenset(rng.sample(props, rng.randrange(0, 3)))
    steps.append(Step(FINAL_STEP, "#goal", pre=final_pre))
    edges = {(INIT_STEP, FINAL_STEP)}
    for i in range(k):
        lab = 2 + i
        pre = set(rng.sample(props, rng.randrange(0, 3)))
        dels = {p for p in pre if rng.random() < 0.4}
        adds = set(rng.sample(props, rng.randrange(0, 3)))
        steps.append(
            Step(
                lab,
                f"op{rng.randrange(3)}",
                pre=frozenset(pre),
                adds=frozenset(adds),
                dels=frozenset(dels),
            )
        )
        edges.add((INIT_STEP, lab))
        edges.add((lab, FINAL_STEP))
    # forward edges only (label-increasing), so the result is acyclic
    middles = [s.label for s in steps if s.label not in (INIT_STEP, FINAL_STEP)]
    for a, b in itertools.combinations(sorted(middles), 2):
        if rng.random() < 0.4:
            edges.add((a, b))
    return Plan(
        steps=tuple(sorted(steps, key=lambda s: s.label)),
        order=frozenset(edges),
        parent=None,
        depth=0,
    )


@pytest.fixture
def tiny_problem() -> Problem:
    return Problem(
        name="tiny",
        init=frozenset(["p"]),
        goals=frozenset(["g"]),
        library=(
            make_op("win", pre=["p"], adds=["g"]),
            make_op("spoil", pre=["p"], adds=["x"], dels=["p"]),
        ),
    )


@pytest.fixture
def kahn_sorts(monkeypatch) -> list[Plan]:
    """Every plan whose ``linear_order`` is computed by the topological
    sort, rather than derived from its parent's, while the test runs."""
    sorted_plans: list[Plan] = []
    kahn = model.topological_order

    def spy(plan: Plan) -> tuple[int, ...]:
        sorted_plans.append(plan)
        return kahn(plan)

    monkeypatch.setattr(model, "topological_order", spy)
    return sorted_plans
