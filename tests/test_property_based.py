"""Property-based tests (hypothesis) for the core invariants.

Strategy sizes are kept small because every test is checked against
the exponential possible-worlds oracle; correctness on all tiny
instances plus the seeded larger regressions elsewhere gives the
coverage the paper's proofs promise.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    brute_force_expected_ranks,
    brute_force_rank_distributions,
    brute_force_topk_answer_probabilities,
    u_topk,
)
from repro.core import (
    a_erank,
    attribute_expected_ranks,
    attribute_rank_distributions,
    t_erank,
    t_erank_prune,
    tuple_expected_ranks,
    tuple_rank_distributions,
)
from repro.models import (
    AttributeLevelRelation,
    AttributeTuple,
    DiscretePDF,
    ExclusionRule,
    TupleLevelRelation,
    TupleLevelTuple,
)
from repro.stats import poisson_binomial_pmf

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def discrete_pdfs(draw, max_support=3, value_pool=range(1, 13)):
    """Small pdfs over positive integer scores."""
    size = draw(st.integers(1, max_support))
    values = draw(
        st.lists(
            st.sampled_from(list(value_pool)),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.integers(1, 9), min_size=size, max_size=size
        )
    )
    return DiscretePDF(
        [float(value) for value in values],
        [float(weight) for weight in weights],
        normalize=True,
    )


@st.composite
def attribute_relations(draw, max_tuples=5):
    count = draw(st.integers(1, max_tuples))
    return AttributeLevelRelation(
        AttributeTuple(f"t{index}", draw(discrete_pdfs()))
        for index in range(count)
    )


@st.composite
def tuple_relations(draw, max_tuples=6):
    count = draw(st.integers(1, max_tuples))
    rows = []
    for index in range(count):
        score = float(draw(st.integers(1, 12)))
        probability = draw(
            st.floats(0.0, 1.0, allow_nan=False, width=32)
        )
        rows.append(TupleLevelTuple(f"t{index}", score, probability))
    # Pair up a random prefix of the shuffled ids into exclusion rules,
    # rescaling overflowing pairs.
    order = draw(st.permutations(range(count)))
    pair_count = draw(st.integers(0, count // 2))
    rules = []
    for pair_index in range(pair_count):
        first, second = (
            order[2 * pair_index],
            order[2 * pair_index + 1],
        )
        total = rows[first].probability + rows[second].probability
        if total > 1.0:
            scale = (1.0 - 1e-9) / total
            for position in (first, second):
                row = rows[position]
                rows[position] = TupleLevelTuple(
                    row.tid, row.score, row.probability * scale
                )
        rules.append(
            ExclusionRule(
                f"rule{pair_index}",
                [rows[min(first, second)].tid,
                 rows[max(first, second)].tid],
            )
        )
    return TupleLevelRelation(rows, rules=rules)


#: A case hypothesis found: after t1's score rises by 1, t1 and t4 tie
#: exactly on expected rank but not on floats.
_BOOST_TIE = TupleLevelRelation(
    [
        TupleLevelTuple(f"t{index}", score, probability)
        for index, (score, probability) in enumerate(
            zip(
                (1.0, 1.0, 3.0, 1.0, 1.0),
                (0.0, 0.4999999995, 0.25, 0.0, 0.4999999995),
            )
        )
    ],
    rules=[ExclusionRule("rule0", ["t1", "t4"])],
)


# ----------------------------------------------------------------------
# Algorithms versus the possible-worlds oracle
# ----------------------------------------------------------------------
class TestOracleEquivalence:
    @SETTINGS
    @given(relation=attribute_relations(), ties=st.sampled_from(
        ["shared", "by_index"]))
    def test_a_erank_matches_enumeration(self, relation, ties):
        fast = attribute_expected_ranks(relation, ties=ties)
        slow = brute_force_expected_ranks(relation, ties=ties)
        for tid in fast:
            assert fast[tid] == pytest.approx(slow[tid], abs=1e-8)

    @SETTINGS
    @given(relation=tuple_relations(), ties=st.sampled_from(
        ["shared", "by_index"]))
    def test_t_erank_matches_enumeration(self, relation, ties):
        fast = tuple_expected_ranks(relation, ties=ties)
        slow = brute_force_expected_ranks(relation, ties=ties)
        for tid in fast:
            assert fast[tid] == pytest.approx(slow[tid], abs=1e-8)

    @SETTINGS
    @given(relation=attribute_relations(max_tuples=4))
    def test_attribute_rank_distributions_match(self, relation):
        fast = attribute_rank_distributions(relation, ties="by_index")
        slow = brute_force_rank_distributions(relation, ties="by_index")
        for tid in fast:
            assert fast[tid].allclose(slow[tid], atol=1e-8)

    @SETTINGS
    @given(relation=tuple_relations(max_tuples=5))
    def test_tuple_rank_distributions_match(self, relation):
        fast = tuple_rank_distributions(relation, ties="by_index")
        slow = brute_force_rank_distributions(relation, ties="by_index")
        for tid in fast:
            assert fast[tid].allclose(slow[tid], atol=1e-8)

    @SETTINGS
    @given(relation=tuple_relations(max_tuples=5),
           k=st.integers(1, 3))
    def test_u_topk_finds_modal_answer(self, relation, k):
        support = brute_force_topk_answer_probabilities(relation, k)
        result = u_topk(relation, k)
        best = max(support.values())
        assert result.metadata["answer_probability"] == pytest.approx(
            best, abs=1e-9
        )
        assert support.get(result.tids(), 0.0) == pytest.approx(
            best, abs=1e-9
        )


# ----------------------------------------------------------------------
# Structural invariants of rank distributions
# ----------------------------------------------------------------------
class TestDistributionInvariants:
    @SETTINGS
    @given(relation=attribute_relations(max_tuples=4))
    def test_pmf_proper_and_consistent(self, relation):
        dists = attribute_rank_distributions(relation, ties="shared")
        ranks = attribute_expected_ranks(relation, ties="shared")
        for tid, dist in dists.items():
            assert float(dist.pmf.sum()) == pytest.approx(1.0)
            assert dist.max_rank <= relation.size - 1
            assert dist.expectation() == pytest.approx(
                ranks[tid], abs=1e-8
            )

    @SETTINGS
    @given(relation=tuple_relations(max_tuples=5))
    def test_tuple_quantiles_monotone_in_phi(self, relation):
        dists = tuple_rank_distributions(relation)
        for dist in dists.values():
            quantiles = [
                dist.quantile(phi) for phi in (0.1, 0.4, 0.7, 0.99)
            ]
            assert quantiles == sorted(quantiles)


# ----------------------------------------------------------------------
# The five ranking properties, on random inputs
# ----------------------------------------------------------------------
class TestRankingProperties:
    @SETTINGS
    @given(relation=attribute_relations())
    def test_expected_rank_containment_chain(self, relation):
        previous = ()
        for k in range(1, relation.size + 1):
            current = a_erank(relation, k).tids()
            assert len(current) == k  # exact-k
            assert current[: len(previous)] == previous  # containment
            assert len(set(current)) == k  # unique ranking
            previous = current

    @SETTINGS
    @given(relation=tuple_relations())
    def test_tuple_expected_rank_containment_chain(self, relation):
        previous = ()
        for k in range(1, relation.size + 1):
            current = t_erank(relation, k).tids()
            assert len(current) == k
            assert current[: len(previous)] == previous
            assert len(set(current)) == k
            previous = current

    @SETTINGS
    @given(
        relation=attribute_relations(),
        scale=st.integers(2, 5),
        offset=st.integers(0, 7),
    )
    def test_value_invariance_affine(self, relation, scale, offset):
        k = max(1, relation.size - 1)
        baseline = a_erank(relation, k).tids()
        mapped = relation.map_scores(
            lambda value: scale * value + offset
        )
        assert a_erank(mapped, k).tids() == baseline

    @SETTINGS
    @given(relation=tuple_relations(), shift=st.integers(1, 10))
    @example(relation=_BOOST_TIE, shift=1)
    def test_stability_boost_keeps_winner(self, relation, shift):
        """A boosted winner stays in the top-k, unless it ties the k-th
        answer's expected rank.

        Two tuples can have the same exact expected rank yet different
        floats: the kernel sums each tuple's terms in a different order
        (``_BOOST_TIE``: after the boost t1 and t4 tie at 0.7499999995
        exactly, and t4's float comes out one ulp lower).  Which of two
        tied tuples takes the last slot is a tie-break, not a stability
        violation, so a winner may drop out only on a tie to 1e-9.
        """
        k = max(1, relation.size // 2)
        winners = t_erank(relation, k).tid_set()
        for tid in winners:
            row = relation.tuple_by_id(tid)
            boosted = relation.replace_tuple(
                TupleLevelTuple(
                    tid, row.score + shift, row.probability
                )
            )
            answer = t_erank(boosted, k)
            if tid not in answer.tid_set():
                kth = max(item.statistic for item in answer)
                rank = tuple_expected_ranks(boosted)[tid]
                assert rank == pytest.approx(kth, rel=0, abs=1e-9)

    @SETTINGS
    @given(relation=tuple_relations())
    def test_prune_statistics_match_exact(self, relation):
        k = max(1, relation.size // 2)
        exact = tuple_expected_ranks(relation)
        pruned = t_erank_prune(relation, k)
        # Every scanned tuple's rank must be exact, and the k reported
        # statistics must equal the k smallest exact statistics.
        for tid, value in pruned.statistics.items():
            assert value == pytest.approx(exact[tid], abs=1e-8)
        reported = sorted(item.statistic for item in pruned)
        best = sorted(exact.values())[: len(reported)]
        assert reported == pytest.approx(best, abs=1e-8)


# ----------------------------------------------------------------------
# Poisson binomial and pdf invariants
# ----------------------------------------------------------------------
class TestStatsInvariants:
    @SETTINGS
    @given(
        probabilities=st.lists(
            st.floats(0.0, 1.0, allow_nan=False, width=32),
            max_size=12,
        )
    )
    def test_poisson_binomial_proper(self, probabilities):
        pmf = poisson_binomial_pmf(probabilities)
        assert pmf.sum() == pytest.approx(1.0)
        assert (pmf >= -1e-12).all()
        mean = float(
            sum(j * mass for j, mass in enumerate(pmf))
        )
        assert mean == pytest.approx(math.fsum(probabilities), abs=1e-8)

    @SETTINGS
    @given(pdf=discrete_pdfs(max_support=4))
    def test_pdf_tail_identities(self, pdf):
        for value in pdf.values:
            assert pdf.pr_greater(value) + pdf.pr_equal(
                value
            ) == pytest.approx(pdf.pr_greater_equal(value))
        assert pdf.pr_greater(pdf.max_value) == 0.0
        assert pdf.pr_greater_equal(pdf.min_value) == pytest.approx(1.0)

    @SETTINGS
    @given(pdf=discrete_pdfs(max_support=4), shift=st.integers(1, 9))
    def test_shift_dominance(self, pdf, shift):
        assert pdf.shift(shift).stochastically_dominates(pdf)
