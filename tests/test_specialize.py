from __future__ import annotations

from planlab.model import CondEffect, Step, cond, make_op
from planlab.planners import specialize


def op_with(cadds=(), cdels=(), pre=(), adds=(), dels=()):
    return make_op("o", pre=pre, adds=adds, dels=dels, cadds=cadds, cdels=cdels)


class TestSpecializeBullets:
    """One test per clause of the specialization definition."""

    def test_preconditions_gain_dependency_set(self):
        out = specialize(op_with(pre=["a"]), ["t", "u"])
        assert out.pre == {"a", "t", "u"}

    def test_adds_gain_covered_conditional_adds(self):
        out = specialize(op_with(cadds=[cond(["t"], "u")], adds=["a"]), ["t"])
        assert out.adds == {"a", "u"}
        assert out.cadds == ()

    def test_dels_gain_covered_conditional_dels(self):
        out = specialize(
            op_with(pre=["d"], cdels=[cond(["d"], "d")]),
            ["d"],
        )
        assert out.dels == {"d"}
        assert out.cdels == ()

    def test_uncovered_cadds_keep_residual_deps(self):
        out = specialize(op_with(cadds=[cond(["p", "q"], "r")]), ["p"])
        assert out.adds == frozenset()
        assert out.cadds == (CondEffect(frozenset(["q"]), "r"),)
        assert out.pre == {"p"}

    def test_uncovered_cdels_keep_residual_deps(self):
        out = specialize(
            op_with(pre=["e"], cdels=[cond(["e", "k"], "e")]),
            ["k"],
        )
        assert out.dels == frozenset()
        assert out.cdels == (CondEffect(frozenset(["e"]), "e"),)


class TestSpecializeModes:
    def test_empty_set_is_identity_without_empty_deps(self):
        op = op_with(pre=["a"], adds=["b"], cadds=[cond(["t"], "u")])
        assert specialize(op, []) == op

    def test_inclusive_promotes_exact_match(self):
        out = specialize(op_with(cadds=[cond(["t"], "u")]), ["t"])
        assert "u" in out.adds

    def test_step_marks_follow_surviving_pairs(self):
        step = Step(
            2,
            "o",
            cadds=(cond(["a"], "x"), cond(["a", "c"], "y")),
            marked=frozenset([1]),
        )
        out = specialize(step, ["a"])
        assert out.adds == {"x"}
        assert out.cadds == (CondEffect(frozenset(["c"]), "y"),)
        assert out.marked == {0}

    def test_repeated_specialization_monotone(self):
        op = op_with(cadds=[cond(["p", "q"], "r"), cond(["s"], "w")])
        once = specialize(op, ["p"])
        twice = specialize(once, ["q"])
        assert "r" in twice.adds
        assert once.adds <= twice.adds
        assert once.pre <= twice.pre
