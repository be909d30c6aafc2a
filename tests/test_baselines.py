"""Tests for the prior-work baselines against the enumeration oracles."""

from __future__ import annotations

import pytest

from repro.baselines import (
    brute_force_rank_position_probabilities,
    brute_force_topk_answer_probabilities,
    brute_force_topk_probabilities,
    expected_score,
    expected_scores,
    global_topk,
    probability_only,
    pt_k,
    pt_k_scan,
    rank_position_probabilities,
    topk_probabilities,
    u_kranks,
    u_topk,
)
from repro.datagen import (
    generate_attribute_relation,
    generate_tuple_relation,
)
from repro.exceptions import RankingError, UnsupportedModelError
from repro.models import (
    TupleLevelRelation,
    TupleLevelTuple,
)


class TestRankPositionProbabilities:
    @pytest.mark.parametrize("seed", range(5))
    def test_attribute_against_oracle(self, seed):
        relation = generate_attribute_relation(5, pdf_size=3, seed=seed)
        fast = rank_position_probabilities(relation)
        slow = brute_force_rank_position_probabilities(relation)
        for tid in relation.tids():
            assert fast[tid] == pytest.approx(slow[tid], abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_tuple_against_oracle(self, seed):
        relation = generate_tuple_relation(
            7, rule_fraction=0.6, seed=seed
        )
        fast = rank_position_probabilities(relation)
        slow = brute_force_rank_position_probabilities(relation)
        for tid in relation.tids():
            assert fast[tid] == pytest.approx(slow[tid], abs=1e-9)

    def test_tuple_rows_sum_to_probability(self, fig4):
        table = rank_position_probabilities(fig4)
        for row in fig4:
            assert float(table[row.tid].sum()) == pytest.approx(
                row.probability
            )

    def test_attribute_rows_sum_to_one(self, fig2):
        table = rank_position_probabilities(fig2)
        for tid in fig2.tids():
            assert float(table[tid].sum()) == pytest.approx(1.0)


class TestTopkProbabilities:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_against_oracle(self, fig4, k):
        fast = topk_probabilities(fig4, k)
        slow = brute_force_topk_probabilities(fig4, k)
        for tid in fig4.tids():
            assert fast[tid] == pytest.approx(slow[tid], abs=1e-9)

    def test_monotone_in_k(self, fig4):
        previous = topk_probabilities(fig4, 1)
        for k in (2, 3, 4):
            current = topk_probabilities(fig4, k)
            for tid in current:
                assert current[tid] >= previous[tid] - 1e-12
            previous = current

    def test_k_n_equals_membership_probability(self, fig4):
        full = topk_probabilities(fig4, fig4.size)
        for row in fig4:
            assert full[row.tid] == pytest.approx(row.probability)


class TestUTopk:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tuple_search_matches_enumeration(self, seed, k):
        relation = generate_tuple_relation(
            7, rule_fraction=0.6, seed=seed
        )
        support = brute_force_topk_answer_probabilities(relation, k)
        best = max(support.values())
        result = u_topk(relation, k)
        assert result.metadata["answer_probability"] == pytest.approx(
            best
        )
        assert support[result.tids()] == pytest.approx(best)

    def test_attribute_enumeration_route(self, fig2):
        result = u_topk(fig2, 1)
        assert result.metadata["estimator"] == "enumeration"

    def test_attribute_monte_carlo_route(self):
        relation = generate_attribute_relation(
            30, pdf_size=4, seed=0
        )  # 4^30 worlds: sampling territory
        result = u_topk(relation, 2, samples=4000, rng=5)
        assert result.metadata["estimator"] == "monte_carlo"
        assert len(result) == 2

    def test_answer_may_be_short_on_small_worlds(self):
        relation = TupleLevelRelation(
            [TupleLevelTuple("a", 5.0, 0.1)]
        )
        # The empty world has probability 0.9, so the most likely
        # top-2 answer is empty — the paper's exact-k violation.
        result = u_topk(relation, 2)
        assert result.tids() == ()
        assert result.metadata["answer_probability"] == pytest.approx(0.9)

    def test_certain_data_reduces_to_topk(self, certain_tuple):
        assert u_topk(certain_tuple, 2).tids() == ("a", "b")

    def test_negative_k_rejected(self, fig4):
        with pytest.raises(RankingError):
            u_topk(fig4, -1)


class TestUkRanks:
    def test_exact_k_entries(self, fig4):
        assert len(u_kranks(fig4, 3)) == 3

    def test_winner_probabilities_match_oracle(self, fig4):
        table = brute_force_rank_position_probabilities(fig4)
        result = u_kranks(fig4, 2)
        for item in result:
            best = max(row[item.position] for row in table.values())
            assert item.statistic == pytest.approx(best)

    def test_containment_prefix(self, fig4):
        smaller = u_kranks(fig4, 2)
        larger = u_kranks(fig4, 3)
        assert larger.tids()[:2] == smaller.tids()

    def test_certain_data_reduces_to_topk(self, certain_attribute):
        assert u_kranks(certain_attribute, 3).tids() == ("a", "b", "c")

    def test_probability_ties_go_to_the_earlier_tuple(self):
        from repro.models import (
            AttributeLevelRelation,
            AttributeTuple,
            DiscretePDF,
        )

        # Each tuple wins each position with probability exactly 1/2.
        relation = AttributeLevelRelation(
            [
                AttributeTuple("first", DiscretePDF([1.0, 10.0], [0.5, 0.5])),
                AttributeTuple("second", DiscretePDF([2.0, 9.0], [0.5, 0.5])),
            ]
        )
        result = u_kranks(relation, 2)
        assert [item.statistic for item in result] == [0.5, 0.5]
        assert result.tids() == ("first", "first")


class TestPTk:
    def test_threshold_filters(self, fig4):
        generous = pt_k(fig4, 2, threshold=0.05)
        strict = pt_k(fig4, 2, threshold=0.9)
        assert len(generous) >= len(strict)

    def test_statistics_are_topk_probabilities(self, fig4):
        result = pt_k(fig4, 2, threshold=0.1)
        oracle = brute_force_topk_probabilities(fig4, 2)
        for item in result:
            assert item.statistic == pytest.approx(oracle[item.tid])

    def test_all_reported_pass_threshold(self, fig4):
        result = pt_k(fig4, 2, threshold=0.45)
        assert all(item.statistic >= 0.45 for item in result)

    def test_invalid_threshold(self, fig4):
        with pytest.raises(RankingError):
            pt_k(fig4, 2, threshold=0.0)
        with pytest.raises(RankingError):
            pt_k(fig4, 2, threshold=1.5)

    def test_scan_matches_exact_answer_set(self):
        relation = generate_tuple_relation(300, seed=4)
        exact = pt_k(relation, 10, threshold=0.3)
        scanned = pt_k_scan(relation, 10, threshold=0.3)
        assert scanned.tid_set() == exact.tid_set()

    def test_scan_prunes(self):
        relation = generate_tuple_relation(2000, seed=4)
        scanned = pt_k_scan(relation, 10, threshold=0.3)
        assert scanned.metadata["tuples_accessed"] < relation.size

    def test_scan_requires_tuple_level(self, fig2):
        with pytest.raises(RankingError):
            pt_k_scan(fig2, 2, threshold=0.5)  # type: ignore[arg-type]


class TestGlobalTopk:
    def test_exactly_k(self, fig4):
        assert len(global_topk(fig4, 2)) == 2

    def test_ranked_by_topk_probability(self, fig4):
        result = global_topk(fig4, 2)
        statistics = [item.statistic for item in result]
        assert statistics == sorted(statistics, reverse=True)

    def test_degenerates_to_probability_for_large_k(self):
        """As k -> N the statistic becomes the membership probability."""
        relation = generate_tuple_relation(
            12, rule_fraction=0.0, seed=9
        )
        result = global_topk(relation, relation.size)
        by_probability = probability_only(relation, relation.size)
        assert result.tids() == by_probability.tids()

    def test_certain_data_reduces_to_topk(self, certain_tuple):
        assert global_topk(certain_tuple, 2).tids() == ("a", "b")


class TestSimpleBaselines:
    def test_expected_score_attribute(self, fig2):
        scores = expected_scores(fig2)
        assert scores["t1"] == pytest.approx(82.0)
        assert expected_score(fig2, 3).tids() == ("t2", "t3", "t1")

    def test_expected_score_tuple_ignores_rules(self, fig4):
        scores = expected_scores(fig4)
        assert scores["t1"] == pytest.approx(40.0)
        assert scores["t3"] == pytest.approx(85.0)

    def test_expected_score_value_sensitivity(self):
        """The paper's objection: a huge unlikely score wins."""
        relation = TupleLevelRelation(
            [
                TupleLevelTuple("lottery", 1_000_000.0, 0.001),
                TupleLevelTuple("solid", 100.0, 0.99),
            ]
        )
        assert expected_score(relation, 1).tids() == ("lottery",)

    def test_probability_only(self, fig4):
        assert probability_only(fig4, 4).tids() == (
            "t3",
            "t2",
            "t4",
            "t1",
        )

    def test_probability_only_rejects_attribute_model(self, fig2):
        with pytest.raises(UnsupportedModelError):
            probability_only(fig2, 1)  # type: ignore[arg-type]
