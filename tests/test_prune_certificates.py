"""Every early halt of a pruned scan is re-checked against the exact answer.

A pruned scan reads tuples in its own access order and stops once its
bounds certify that no unread tuple can enter the answer.  Whenever a
scan reports ``halted_early``, this module recomputes the exact
statistic of *every* tuple with the method's exact twin on the full
relation and checks the certificate itself:

* rank-by-statistic scans (A-ERank-Prune, T-ERank-Prune and the two
  quantile-rank scans): among the ``tuples_accessed``-long prefix of the
  access order, the k-th best exact statistic is no worse than the best
  exact statistic of any unread tuple, so the exact top-k lies in the
  read prefix;
* PT-k's Chernoff scan: no unread tuple has an exact top-k probability
  at or above the threshold.

The access order is ``order_by_expected_score()`` for attribute-level
relations and ``order_by_score()`` for tuple-level ones.  Each method
must halt at least once over the seeded uniform and zipf relations, so
no test here passes vacuously.

On uniform and zipf data the expected-score order nearly agrees with
the rank order, so a scan that halts on a wrong certificate can still
land on the right prefix.  The "lottery" relations break that: a few
tuples score very high with a small probability and very low
otherwise, so they lead the access order while ranking last.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from repro.baselines.pt_k import pt_k, pt_k_scan
from repro.core.attr_expected_rank import a_erank, a_erank_prune
from repro.core.attr_mq_rank import a_mqrank, a_mqrank_prune
from repro.core.tuple_expected_rank import t_erank, t_erank_prune
from repro.core.tuple_mq_rank import t_mqrank, t_mqrank_prune
from repro.datagen.attribute_gen import generate_attribute_relation
from repro.datagen.tuple_gen import generate_tuple_relation
from repro.models import AttributeLevelRelation, AttributeTuple, DiscretePDF

DISTRIBUTIONS = ("uniform", "zipf")
SEEDS = (1, 2, 3)
KS = (5, 10)
TIES = ("shared", "by_index")
THRESHOLDS = (0.1, 0.3, 0.6)
ATTRIBUTE_N = 150
TUPLE_N = 300


@lru_cache(maxsize=None)
def attribute_relation(distribution: str, seed: int):
    return generate_attribute_relation(
        ATTRIBUTE_N, score_distribution=distribution, seed=seed
    )


LOTTERY_EVERY = 7


@lru_cache(maxsize=None)
def lottery_relation(seed: int):
    """One tuple in ``LOTTERY_EVERY`` is a lottery ticket: about 1000
    with probability 0.08, about 3 otherwise.  The rest hold steady
    three-point pdfs between 19 and 63.  Tickets have the highest
    expected scores and the worst expected and median ranks."""
    rng = random.Random(seed)
    rows = []
    for index in range(ATTRIBUTE_N):
        if index % LOTTERY_EVERY == 0:
            pdf = DiscretePDF(
                [rng.uniform(1.0, 5.0), rng.uniform(900.0, 1100.0)],
                [0.92, 0.08],
            )
        else:
            level = rng.uniform(20.0, 60.0)
            pdf = DiscretePDF(
                [level * 0.95, level, level * 1.05], [0.3, 0.4, 0.3]
            )
        rows.append(AttributeTuple(f"t{index}", pdf))
    return AttributeLevelRelation(rows)


#: ``generate_tuple_relation`` maps one seed's uniforms to either score
#: distribution by a monotone transform, so one seed gives the same
#: probabilities, rules and score order -- the same rank answers --
#: under both.  The zipf tuple relations therefore take seeds of their
#: own.
ZIPF_TUPLE_SEED_OFFSET = 100


@lru_cache(maxsize=None)
def tuple_relation(distribution: str, seed: int):
    if distribution == "zipf":
        seed += ZIPF_TUPLE_SEED_OFFSET
    return generate_tuple_relation(
        TUPLE_N, score_distribution=distribution, seed=seed
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_zipf_tuple_relations_are_not_the_uniform_ones(seed):
    orders = {
        tuple(
            row.tid
            for row in tuple_relation(distribution, seed).order_by_score()
        )
        for distribution in DISTRIBUTIONS
    }
    assert len(orders) == len(DISTRIBUTIONS)


#: name -> (pruned scan, exact twin, relation factory, access order).
RANK_SCANS = {
    "a_erank_prune": (
        a_erank_prune,
        a_erank,
        attribute_relation,
        lambda relation: relation.order_by_expected_score(),
    ),
    "t_erank_prune": (
        t_erank_prune,
        t_erank,
        tuple_relation,
        lambda relation: relation.order_by_score(),
    ),
    "a_mqrank_prune": (
        a_mqrank_prune,
        a_mqrank,
        attribute_relation,
        lambda relation: relation.order_by_expected_score(),
    ),
    "t_mqrank_prune": (
        t_mqrank_prune,
        t_mqrank,
        tuple_relation,
        lambda relation: relation.order_by_score(),
    ),
}


@pytest.mark.parametrize("name", sorted(RANK_SCANS))
def test_rank_scan_halts_only_on_a_sound_certificate(name):
    prune, exact, make_relation, access_order = RANK_SCANS[name]
    halts = 0
    for distribution in DISTRIBUTIONS:
        for seed in SEEDS:
            relation = make_relation(distribution, seed)
            order = [row.tid for row in access_order(relation)]
            for ties in TIES:
                statistics = None
                for k in KS:
                    pruned = prune(relation, k, ties=ties)
                    if not pruned.metadata["halted_early"]:
                        continue
                    halts += 1
                    if statistics is None:
                        statistics = exact(relation, k, ties=ties).statistics
                        assert len(statistics) == relation.size
                    accessed = pruned.metadata["tuples_accessed"]
                    seen = sorted(statistics[tid] for tid in order[:accessed])
                    unseen = min(statistics[tid] for tid in order[accessed:])
                    assert seen[k - 1] <= unseen, (
                        f"{name} {distribution} seed={seed} k={k} "
                        f"ties={ties}: halted after {accessed} tuples, "
                        f"k-th seen statistic {seen[k - 1]!r} is worse "
                        f"than unseen {unseen!r}"
                    )
    assert halts > 0, f"{name} never halted early"


def test_pt_k_scan_halts_only_on_a_sound_certificate():
    halts = 0
    for distribution in DISTRIBUTIONS:
        for seed in SEEDS:
            relation = tuple_relation(distribution, seed)
            order = [row.tid for row in relation.order_by_score()]
            for k in KS:
                for threshold in THRESHOLDS:
                    scanned = pt_k_scan(relation, k, threshold=threshold)
                    if not scanned.metadata["halted_early"]:
                        continue
                    halts += 1
                    statistics = pt_k(
                        relation, k, threshold=threshold
                    ).statistics
                    accessed = scanned.metadata["tuples_accessed"]
                    best_unseen = max(
                        statistics[tid] for tid in order[accessed:]
                    )
                    assert best_unseen < threshold, (
                        f"pt_k_scan {distribution} seed={seed} k={k} "
                        f"threshold={threshold}: halted after "
                        f"{accessed} tuples, an unread tuple has top-k "
                        f"probability {best_unseen!r}"
                    )
    assert halts > 0, "pt_k_scan never halted early"


@pytest.mark.parametrize(
    "prune, exact, check_every",
    [(a_mqrank_prune, a_mqrank, 16), (a_erank_prune, a_erank, 1)],
    ids=["a_mqrank_prune", "a_erank_prune"],
)
def test_attribute_scan_certificate_where_orders_disagree(
    prune, exact, check_every
):
    """A halt at the scan's first check would miss the whole answer
    here, so only a sound certificate passes."""
    halts = 0
    for seed in SEEDS:
        relation = lottery_relation(seed)
        order = [row.tid for row in relation.order_by_expected_score()]
        for ties in TIES:
            for k in KS:
                statistics = exact(relation, k, ties=ties).statistics
                first_check = max(k, check_every)
                assert min(statistics[tid] for tid in order[first_check:]) < (
                    sorted(statistics[tid] for tid in order[:first_check])[
                        k - 1
                    ]
                ), "the first check's prefix must not hold the answer"
                pruned = prune(relation, k, ties=ties)
                if not pruned.metadata["halted_early"]:
                    continue
                halts += 1
                accessed = pruned.metadata["tuples_accessed"]
                seen = sorted(statistics[tid] for tid in order[:accessed])
                unseen = min(statistics[tid] for tid in order[accessed:])
                assert seen[k - 1] <= unseen, (
                    f"seed={seed} k={k} ties={ties}: halted after "
                    f"{accessed} tuples, k-th seen statistic "
                    f"{seen[k - 1]!r} is worse than unseen {unseen!r}"
                )
    assert halts > 0
