"""The PT-k baseline (probabilistic threshold top-k, Hui et al. [23]).

PT-k returns *every* tuple whose top-k probability — the probability of
ranking among the best ``k`` of a random world — meets a user-supplied
threshold ``p``.  The answer size is therefore data-dependent: the
paper (Section 4.2) shows PT-k violates **exact-k** and only offers
*weak* containment (the Figure 2 example returns one tuple for
``k = 1`` and three tuples for both ``k = 2`` and ``k = 3`` at
``p = 0.4``).

Besides the exact evaluation, :func:`pt_k_scan` reproduces the pruning
idea attributed to [23]: scanning tuples by decreasing score and
stopping once a Chernoff-Hoeffding bound certifies that no unseen
tuple can reach the threshold.
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines.common import topk_probabilities
from repro.core.result import TopKResult, top_k_result
from repro.exceptions import RankingError
from repro.models.attribute import AttributeLevelRelation
from repro.models.tuple_level import TupleLevelRelation
from repro.stats.bounds import hoeffding_lower_tail

__all__ = ["pt_k", "pt_k_scan"]


def pt_k(
    relation: AttributeLevelRelation | TupleLevelRelation,
    k: int,
    *,
    threshold: float,
) -> TopKResult:
    """All tuples with top-``k`` probability at least ``threshold``.

    The answer is ordered by decreasing top-k probability (insertion
    order on ties) but — by design of the original definition — may
    contain fewer or more than ``k`` tuples.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    if not 0.0 < threshold <= 1.0:
        raise RankingError(
            f"threshold must be in (0, 1], got {threshold!r}"
        )
    statistics = topk_probabilities(relation, k)
    passing = [
        tid
        for tid, probability in statistics.items()
        if probability >= threshold
    ]
    answer = top_k_result(
        "pt_k",
        len(passing),
        passing,
        [statistics[tid] for tid in passing],
        statistics,
        {
            "tuples_accessed": relation.size,
            "exact": True,
            "threshold": threshold,
        },
        largest=True,
    )
    return replace(answer, k=k)


def pt_k_scan(
    relation: TupleLevelRelation,
    k: int,
    *,
    threshold: float,
) -> TopKResult:
    """PT-k with the Chernoff-bound early stop of [23] (tuple-level).

    Scanning in decreasing score order, once the seen probability mass
    ``q_n`` is large enough that ``Pr[fewer than k of the seen tuples
    appear] <= threshold``, no unseen tuple can have top-k probability
    above the threshold (it needs at least ``n - k + 1`` of the seen,
    higher-scored, rule-independent tuples to vanish).  The bound used
    is Hoeffding's inequality on the number of appearing seen tuples;
    it is conservative in the presence of exclusion rules because rule
    mates are negatively correlated, which only sharpens concentration.
    """
    if not isinstance(relation, TupleLevelRelation):
        raise RankingError("pt_k_scan supports the tuple-level model only")
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    if not 0.0 < threshold <= 1.0:
        raise RankingError(
            f"threshold must be in (0, 1], got {threshold!r}"
        )
    ordered = relation.order_by_score()
    seen_mass = 0.0
    accessed = 0
    halted_early = False
    for row in ordered:
        accessed += 1
        seen_mass += row.probability
        if accessed <= k:
            continue
        # An unseen tuple ranks in the top-k only if at most k - 1 of
        # the seen tuples appear; bound that probability.  At most one
        # seen tuple shares the unseen tuple's rule, so discount one
        # unit of mass before applying the tail bound.
        slack = seen_mass - 1.0 - (k - 1)
        if slack <= 0.0:
            continue
        tail = hoeffding_lower_tail(seen_mass - 1.0, accessed, slack)
        if tail < threshold:
            halted_early = True
            break

    # Top-k probabilities of seen tuples only depend on higher-score
    # (hence seen) tuples, so evaluating them on the curtailed relation
    # is exact and touches no unseen tuple.
    curtailed = relation.curtailed(row.tid for row in ordered[:accessed])
    return replace(
        pt_k(curtailed, k, threshold=threshold),
        method="pt_k_scan",
        metadata={
            "tuples_accessed": accessed,
            "halted_early": halted_early,
            "exact": True,
            "threshold": threshold,
        },
    )
