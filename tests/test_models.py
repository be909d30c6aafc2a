"""Unit tests for the attribute-level and tuple-level relation types."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import InvalidRuleError, ModelError
from repro.models import (
    AttributeLevelRelation,
    AttributeTuple,
    DiscretePDF,
    ExclusionRule,
    TupleLevelRelation,
    TupleLevelTuple,
)
from repro.models.rules import cover_with_singletons


def _rows(*spec):
    return [
        TupleLevelTuple(tid, 10.0 - position, probability)
        for position, (tid, probability) in enumerate(spec)
    ]


_ABCD = _rows(("a", 0.3), ("b", 0.3), ("c", 0.3), ("d", 0.3))
_HEAVY = _rows(("a", 0.6), ("b", 0.6), ("c", 0.1), ("d", 0.1))
_NUMBERED = [
    TupleLevelTuple(5, 2.0, 0.5),  # type: ignore[arg-type]
    TupleLevelTuple("x", 1.0, 0.2),
    TupleLevelTuple("y", 0.5, 0.2),
]
_R = ExclusionRule

#: name -> (rows, rules, error type, message), as the relation raised
#: them when it built every implied singleton up front.  Where an input
#: holds two faults, the first in row order, then rule order, is named.
CONSTRUCTION_ERRORS = {
    "row_type": (
        _ABCD[:2] + ["x"],
        [],
        ModelError,
        "expected TupleLevelTuple, got str",
    ),
    "row_type_none": (
        _ABCD[:1] + [None] + _ABCD[1:],
        [],
        ModelError,
        "expected TupleLevelTuple, got NoneType",
    ),
    "row_type_attribute_tuple": (
        _ABCD[:1] + [AttributeTuple("z", DiscretePDF.point(1.0))],
        [],
        ModelError,
        "expected TupleLevelTuple, got AttributeTuple",
    ),
    "duplicate_tid": (
        _ABCD[:2] + _ABCD[:1],
        [],
        ModelError,
        "duplicate tuple id 'a'",
    ),
    "duplicate_before_row_type": (
        _ABCD[:2] + _ABCD[:1] + ["x"],
        [],
        ModelError,
        "duplicate tuple id 'a'",
    ),
    "row_type_before_duplicate": (
        _ABCD[:2] + ["x"] + _ABCD[:1],
        [],
        ModelError,
        "expected TupleLevelTuple, got str",
    ),
    "unknown_member": (
        _ABCD,
        [_R("r", ["a", "zz"])],
        InvalidRuleError,
        "rule 'r' references unknown tuple 'zz'",
    ),
    "unknown_member_in_later_rule": (
        _ABCD,
        [_R("r1", ["a"]), _R("r2", ["zz", "a"])],
        InvalidRuleError,
        "rule 'r2' references unknown tuple 'zz'",
    ),
    "tuple_in_two_rules": (
        _ABCD,
        [_R("r1", ["a", "b"]), _R("r2", ["b", "c"])],
        InvalidRuleError,
        "tuple 'b' appears in rules 'r1' and 'r2'",
    ),
    "two_rules_before_unknown": (
        _ABCD,
        [_R("r1", ["a", "b"]), _R("r2", ["b", "zz"])],
        InvalidRuleError,
        "tuple 'b' appears in rules 'r1' and 'r2'",
    ),
    "singleton_id_collision": (
        _ABCD,
        [_R("__singleton_c", ["a", "b"])],
        InvalidRuleError,
        "generated singleton rule id '__singleton_c' collides with an "
        "explicit rule",
    ),
    "first_collision_in_tuple_order": (
        _ABCD,
        [_R("__singleton_d", ["a"]), _R("__singleton_b", ["c"])],
        InvalidRuleError,
        "generated singleton rule id '__singleton_b' collides with an "
        "explicit rule",
    ),
    "collision_with_non_string_tid": (
        _NUMBERED,
        [_R("__singleton_5", ["x", "y"])],
        InvalidRuleError,
        "generated singleton rule id '__singleton_5' collides with an "
        "explicit rule",
    ),
    "rule_mass": (
        _HEAVY[:2],
        [_R("r", ["a", "b"])],
        InvalidRuleError,
        "rule 'r' has total probability 1.2 > 1",
    ),
    "collision_before_rule_mass": (
        _HEAVY,
        [_R("r", ["a", "b"]), _R("__singleton_c", ["d"])],
        InvalidRuleError,
        "generated singleton rule id '__singleton_c' collides with an "
        "explicit rule",
    ),
    "two_rules_before_rule_mass": (
        _HEAVY[:3],
        [_R("r", ["a", "b"]), _R("s", ["c", "a"])],
        InvalidRuleError,
        "tuple 'a' appears in rules 'r' and 's'",
    ),
}


class TestAttributeTuple:
    def test_expected_score(self):
        row = AttributeTuple("x", DiscretePDF([10, 20], [0.5, 0.5]))
        assert row.expected_score() == pytest.approx(15.0)

    def test_requires_pdf(self):
        with pytest.raises(ModelError):
            AttributeTuple("x", 5.0)  # type: ignore[arg-type]

    def test_attributes_copied(self):
        payload = {"name": "alpha"}
        row = AttributeTuple("x", DiscretePDF.point(1), payload)
        payload["name"] = "mutated"
        assert row.attributes["name"] == "alpha"

    def test_equality(self):
        first = AttributeTuple("x", DiscretePDF.point(1))
        second = AttributeTuple("x", DiscretePDF.point(1))
        assert first == second


class TestAttributeRelation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ModelError):
            AttributeLevelRelation(
                [
                    AttributeTuple("x", DiscretePDF.point(1)),
                    AttributeTuple("x", DiscretePDF.point(2)),
                ]
            )

    def test_lookup(self, fig2):
        assert fig2.tuple_by_id("t2").score.pr_equal(92) == pytest.approx(
            0.6
        )
        assert fig2.position_of("t3") == 2
        assert "t1" in fig2
        assert "zzz" not in fig2

    def test_curtailed_keeps_insertion_order(self, fig2):
        curtailed = fig2.curtailed(["t3", "t1"])
        assert curtailed.tids() == ("t1", "t3")
        assert curtailed.tuple_by_id("t3") is fig2.tuple_by_id("t3")

    def test_lookup_missing_raises(self, fig2):
        with pytest.raises(ModelError):
            fig2.tuple_by_id("nope")
        with pytest.raises(ModelError):
            fig2.position_of("nope")

    def test_value_universe(self, fig2):
        assert fig2.value_universe() == (70, 80, 85, 92, 100)

    def test_expected_scores(self, fig2):
        assert fig2.expected_scores() == pytest.approx((82.0, 87.2, 85.0))

    def test_order_by_expected_score(self, fig2):
        ordered = [row.tid for row in fig2.order_by_expected_score()]
        assert ordered == ["t2", "t3", "t1"]

    def test_max_pdf_size(self, fig2):
        assert fig2.max_pdf_size() == 2

    def test_instantiate_draws_support_values(self, fig2):
        rng = random.Random(3)
        world = fig2.instantiate(rng)
        assert world["t1"] in (70, 100)
        assert world["t3"] == 85

    def test_replace_tuple_keeps_position(self, fig2):
        replacement = AttributeTuple("t2", DiscretePDF.point(1000))
        updated = fig2.replace_tuple(replacement)
        assert updated.position_of("t2") == 1
        assert updated.tuple_by_id("t2").score.values == (1000,)
        # The original is untouched.
        assert fig2.tuple_by_id("t2").score.support_size == 2

    def test_replace_unknown_tuple(self, fig2):
        with pytest.raises(ModelError):
            fig2.replace_tuple(AttributeTuple("zz", DiscretePDF.point(1)))

    def test_map_scores(self, fig2):
        doubled = fig2.map_scores(lambda value: 2 * value)
        assert doubled.value_universe() == (140, 160, 170, 184, 200)


class TestExclusionRule:
    def test_membership(self):
        rule = ExclusionRule("r", ["a", "b"])
        assert "a" in rule
        assert "c" not in rule
        assert len(rule) == 2
        assert not rule.is_singleton

    def test_duplicate_member_rejected(self):
        with pytest.raises(InvalidRuleError):
            ExclusionRule("r", ["a", "a"])

    def test_empty_rule_rejected(self):
        with pytest.raises(InvalidRuleError):
            ExclusionRule("r", [])

    def test_validate_probabilities(self):
        rule = ExclusionRule("r", ["a", "b"])
        assert rule.validate_probabilities(
            {"a": 0.5, "b": 0.5}
        ) == pytest.approx(1.0)
        with pytest.raises(InvalidRuleError):
            rule.validate_probabilities({"a": 0.7, "b": 0.7})
        with pytest.raises(InvalidRuleError):
            rule.validate_probabilities({"a": 0.5})

    def test_cover_with_singletons(self):
        rules = cover_with_singletons(
            [ExclusionRule("r", ["a", "b"])], ["a", "b", "c"]
        )
        members = sorted(tuple(rule) for rule in rules)
        assert (("c",)) in members

    def test_cover_rejects_double_claim(self):
        with pytest.raises(InvalidRuleError):
            cover_with_singletons(
                [
                    ExclusionRule("r1", ["a", "b"]),
                    ExclusionRule("r2", ["b", "c"]),
                ],
                ["a", "b", "c"],
            )

    def test_cover_rejects_unknown_tuple(self):
        with pytest.raises(InvalidRuleError):
            cover_with_singletons(
                [ExclusionRule("r1", ["ghost"])], ["a"]
            )


class TestTupleLevelTuple:
    def test_validation(self):
        with pytest.raises(ModelError):
            TupleLevelTuple("x", float("inf"), 0.5)
        with pytest.raises(ModelError):
            TupleLevelTuple("x", 1.0, 1.5)
        with pytest.raises(ModelError):
            TupleLevelTuple("x", 1.0, -0.1)

    def test_probability_clamped_to_one(self):
        row = TupleLevelTuple("x", 1.0, 1.0 + 1e-12)
        assert row.probability == 1.0


class TestTupleLevelRelation:
    def test_rule_lookup(self, fig4):
        assert fig4.rule_of("t2").rule_id == "tau2"
        assert fig4.rule_of("t1").is_singleton
        assert fig4.rule_count == 3

    @pytest.mark.parametrize("case", sorted(CONSTRUCTION_ERRORS))
    def test_construction_errors(self, case):
        rows, rules, error, message = CONSTRUCTION_ERRORS[case]
        with pytest.raises(error) as caught:
            TupleLevelRelation(rows, rules=rules)
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_claimed_tuple_may_own_its_singleton_id(self):
        relation = TupleLevelRelation(
            _ABCD, rules=[ExclusionRule("__singleton_a", ["a", "b"])]
        )
        assert relation.rule_of("a").rule_id == "__singleton_a"
        assert relation.rule_count == 3

    def test_implied_singletons_match_the_cover(self):
        explicit = [ExclusionRule("r", ["d", "b"])]
        relation = TupleLevelRelation(_ABCD, rules=explicit)
        covered = cover_with_singletons(explicit, relation.tids())
        assert relation.rules == tuple(covered)
        assert relation.rules is relation.rules
        assert relation.explicit_rules == tuple(explicit)
        assert relation.rule_count == len(covered) == 3
        for rule in covered:
            for tid in rule:
                assert relation.rule_of(tid) == rule
        with pytest.raises(ModelError):
            relation.rule_of("zz")

    def test_rule_overflow_rejected(self):
        with pytest.raises(InvalidRuleError):
            TupleLevelRelation(
                [
                    TupleLevelTuple("a", 2.0, 0.8),
                    TupleLevelTuple("b", 1.0, 0.8),
                ],
                rules=[ExclusionRule("r", ["a", "b"])],
            )

    def test_order_by_score_ties_by_index(self):
        relation = TupleLevelRelation(
            [
                TupleLevelTuple("low", 1.0, 0.5),
                TupleLevelTuple("tie_b", 5.0, 0.5),
                TupleLevelTuple("tie_a", 5.0, 0.5),
            ]
        )
        ordered = [row.tid for row in relation.order_by_score()]
        assert ordered == ["tie_b", "tie_a", "low"]

    def test_expected_world_size(self, fig4):
        assert fig4.expected_world_size() == pytest.approx(2.4)

    def test_instantiate_respects_rules(self, fig4):
        rng = random.Random(11)
        for _ in range(200):
            appearing = set(fig4.instantiate(rng))
            assert not {"t2", "t4"} <= appearing
            assert "t3" in appearing  # p(t3) = 1

    def test_instantiate_returns_score_order(self, fig4):
        rng = random.Random(5)
        appearing = fig4.instantiate(rng)
        scores = [fig4.tuple_by_id(tid).score for tid in appearing]
        assert scores == sorted(scores, reverse=True)

    def test_replace_tuple_preserves_rules(self, fig4):
        updated = fig4.replace_tuple(TupleLevelTuple("t2", 95, 0.5))
        assert updated.rule_of("t2").rule_id == "tau2"
        assert updated.tuple_by_id("t2").score == 95

    def test_map_scores_preserves_rules(self, fig4):
        updated = fig4.map_scores(lambda value: value * 2)
        assert updated.rule_of("t4").rule_id == "tau2"
        assert updated.tuple_by_id("t4").score == 160

    def test_exclusive_with_self_is_false(self, fig4):
        assert not fig4.exclusive_with("t2", "t2")

    def test_curtailed_cuts_rules_to_kept_members(self):
        relation = TupleLevelRelation(
            [
                TupleLevelTuple(tid, score, 0.2)
                for tid, score in zip("abcdef", (6, 5, 4, 3, 2, 1))
            ],
            rules=[
                ExclusionRule("r1", ["e", "a", "c"]),
                ExclusionRule("r2", ["b", "f"]),
                ExclusionRule("r3", ["d"]),
            ],
        )
        curtailed = relation.curtailed(["e", "c", "b", "d"])
        assert curtailed.tids() == ("b", "c", "d", "e")
        assert [
            (rule.rule_id, rule.tids) for rule in curtailed.explicit_rules
        ] == [("r1", ("e", "c"))]
        assert curtailed.rule_of("b").is_singleton
