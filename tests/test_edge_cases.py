"""Edge-case tests: degenerate relations, extreme parameters, bounds.

The paper's definitions quietly assume non-degenerate inputs; a
production library must behave predictably outside them.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    global_topk,
    pt_k,
    u_kranks,
    u_topk,
)
from repro.core import (
    a_erank,
    a_mqrank,
    attribute_expected_ranks,
    rank,
    t_erank,
    t_mqrank,
    tuple_expected_ranks,
)
from repro.models import (
    AttributeLevelRelation,
    AttributeTuple,
    DiscretePDF,
    ExclusionRule,
    TupleLevelRelation,
    TupleLevelTuple,
)


class TestSingletonRelations:
    def test_attribute_single_tuple_all_methods(self):
        relation = AttributeLevelRelation(
            [AttributeTuple("only", DiscretePDF([5, 7], [0.5, 0.5]))]
        )
        assert a_erank(relation, 1).tids() == ("only",)
        assert a_mqrank(relation, 1).tids() == ("only",)
        assert u_topk(relation, 1).tids() == ("only",)
        assert u_kranks(relation, 1).tids() == ("only",)
        assert global_topk(relation, 1).tids() == ("only",)

    def test_tuple_single_uncertain_tuple(self):
        relation = TupleLevelRelation([TupleLevelTuple("x", 5.0, 0.3)])
        # Rank 0 when present, rank |W| = 0 when absent: always 0.
        assert tuple_expected_ranks(relation)["x"] == pytest.approx(0.0)
        assert t_mqrank(relation, 1).statistics["x"] == 0.0


EMPTY_RELATION_METHODS = {
    "expected_rank": {},
    "expected_rank_prune": {},
    "median_rank": {},
    "quantile_rank_prune": {},
    "u_kranks": {},
    "u_topk": {},
    "global_topk": {},
    "pt_k": {"threshold": 0.3},
    "expected_score": {},
    "prf_exponential": {"alpha": 0.9},
    "monte_carlo": {},
}


class TestEmptyRelations:
    @pytest.mark.parametrize(
        "relation",
        [AttributeLevelRelation([]), TupleLevelRelation([])],
        ids=["attribute", "tuple"],
    )
    @pytest.mark.parametrize("method", sorted(EMPTY_RELATION_METHODS))
    def test_every_method_answers_empty(self, relation, method):
        options = EMPTY_RELATION_METHODS[method]
        assert rank(relation, 3, method=method, **options).tids() == ()


class TestDegenerateProbabilities:
    def test_all_tuples_certain_reduces_to_sorting(self):
        relation = TupleLevelRelation(
            TupleLevelTuple(f"t{i}", float(100 - i), 1.0)
            for i in range(20)
        )
        assert t_erank(relation, 5).tids() == (
            "t0", "t1", "t2", "t3", "t4",
        )
        assert t_mqrank(relation, 5).tids() == (
            "t0", "t1", "t2", "t3", "t4",
        )

    def test_all_tuples_impossible(self):
        relation = TupleLevelRelation(
            TupleLevelTuple(f"t{i}", float(i), 0.0) for i in range(4)
        )
        ranks = tuple_expected_ranks(relation)
        # Every world is empty; every rank is |W| = 0.
        assert all(value == 0.0 for value in ranks.values())

    def test_rule_with_full_mass(self):
        relation = TupleLevelRelation(
            [
                TupleLevelTuple("a", 10.0, 0.5),
                TupleLevelTuple("b", 5.0, 0.5),
            ],
            rules=[ExclusionRule("r", ["a", "b"])],
        )
        ranks = tuple_expected_ranks(relation)
        # Exactly one appears: present -> rank 0; absent -> |W| = 1.
        assert ranks["a"] == pytest.approx(0.5)
        assert ranks["b"] == pytest.approx(0.5)

    def test_pt_k_threshold_one(self):
        relation = TupleLevelRelation(
            [
                TupleLevelTuple("sure", 10.0, 1.0),
                TupleLevelTuple("maybe", 5.0, 0.5),
            ]
        )
        result = pt_k(relation, 1, threshold=1.0)
        assert result.tid_set() == {"sure"}


class TestExtremeScores:
    def test_negative_scores_fine_for_exact_algorithms(self):
        relation = AttributeLevelRelation(
            [
                AttributeTuple("a", DiscretePDF([-5, -1], [0.5, 0.5])),
                AttributeTuple("b", DiscretePDF([-3], [1.0])),
            ]
        )
        ranks = attribute_expected_ranks(relation)
        assert ranks["a"] == pytest.approx(0.5)
        assert ranks["b"] == pytest.approx(0.5)

    def test_huge_spread_scores(self):
        relation = TupleLevelRelation(
            [
                TupleLevelTuple("tiny", 1e-12, 0.9),
                TupleLevelTuple("huge", 1e12, 0.1),
            ]
        )
        result = t_erank(relation, 2)
        assert result.tids() == ("tiny", "huge") or result.tids() == (
            "huge",
            "tiny",
        )
        # Value invariance: rescaling must not change the answer.
        rescaled = relation.map_scores(lambda value: value / 1e12 + 1.0)
        assert t_erank(rescaled, 2).tids() == result.tids()

    def test_identical_tuples_rank_by_insertion(self):
        relation = TupleLevelRelation(
            TupleLevelTuple(f"t{i}", 5.0, 0.5) for i in range(4)
        )
        assert t_erank(relation, 4).tids() == ("t0", "t1", "t2", "t3")


class TestKExtremes:
    def test_k_equals_n_everywhere(self, fig2, fig4):
        for method in ("expected_rank", "median_rank", "global_topk"):
            assert len(rank(fig2, fig2.size, method=method)) == fig2.size
            assert len(rank(fig4, fig4.size, method=method)) == fig4.size

    def test_k_far_beyond_n(self, fig4):
        assert len(rank(fig4, 1000)) == fig4.size

    def test_k_zero_everywhere(self, fig4):
        for method in (
            "expected_rank",
            "median_rank",
            "u_kranks",
            "global_topk",
            "expected_score",
        ):
            assert len(rank(fig4, 0, method=method)) == 0

    def test_u_topk_k_zero(self, fig4):
        result = u_topk(fig4, 0)
        assert result.tids() == ()
        assert result.metadata["answer_probability"] == pytest.approx(
            1.0
        )


class TestLongRules:
    def test_five_member_rule_against_oracle(self):
        from repro.baselines import brute_force_expected_ranks

        rows = [
            TupleLevelTuple(f"m{i}", 10.0 - i, 0.18) for i in range(5)
        ]
        rows.append(TupleLevelTuple("free", 7.5, 0.6))
        relation = TupleLevelRelation(
            rows,
            rules=[ExclusionRule("big", [f"m{i}" for i in range(5)])],
        )
        fast = tuple_expected_ranks(relation)
        slow = brute_force_expected_ranks(relation)
        for tid in fast:
            assert fast[tid] == pytest.approx(slow[tid], abs=1e-9)

    def test_five_member_rule_rank_distributions(self):
        from repro.baselines import brute_force_rank_distributions
        from repro.core import tuple_rank_distributions

        rows = [
            TupleLevelTuple(f"m{i}", 10.0 - i, 0.15) for i in range(5)
        ]
        rows.append(TupleLevelTuple("free", 8.2, 0.7))
        relation = TupleLevelRelation(
            rows,
            rules=[ExclusionRule("big", [f"m{i}" for i in range(5)])],
        )
        fast = tuple_rank_distributions(relation, ties="by_index")
        slow = brute_force_rank_distributions(relation, ties="by_index")
        for tid in fast:
            assert fast[tid].allclose(slow[tid], atol=1e-9)
