"""Scalar reference forms of the tuple-level expected-rank kernels.

The paper's algorithms written tuple by tuple; the columnar kernels of
:mod:`repro.core.tuple_expected_rank` compute the same values:

* :func:`tuple_expected_ranks` / :func:`t_erank` — Section 6.1,
  equation (8) evaluated per tuple over one score sort;
* :func:`t_erank_prune` — Section 6.2, the early-stop scan with a
  k-heap of exact seen ranks and the ``q_n - 1`` unseen bound;
* :func:`tuple_expected_ranks_quadratic` — equation (7) by pairwise
  comparison, the ``O(N^2)`` comparison point of experiment E7.

No ranking path calls into this module: the registry, the planner and
the serving tier run the columnar kernels only (``repro.core``
re-exports the quadratic form for the experiments).  The tests use
these forms as oracles — answers, ``tuples_accessed``,
``halted_early`` and the prune trajectory must match exactly,
statistics to ``1e-9`` — and the experiments use them as baselines.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

from repro.core.result import RankedItem, TopKResult
from repro.exceptions import RankingError
from repro.models.possible_worlds import TieRule, _check_ties
from repro.models.tuple_level import TupleLevelRelation, TupleLevelTuple
from repro.obs import get_registry, profiled

__all__ = [
    "tuple_expected_ranks",
    "tuple_expected_ranks_quadratic",
    "t_erank",
    "t_erank_prune",
]


def _beats(
    challenger: TupleLevelTuple,
    target: TupleLevelTuple,
    positions: dict[str, int],
    ties: TieRule,
) -> bool:
    """Whether ``challenger`` ranks above ``target`` when both appear."""
    if challenger.score > target.score:
        return True
    # Ties are exact equality of input scores.  # repro: noqa RPR002
    if ties == "by_index" and challenger.score == target.score:
        return positions[challenger.tid] < positions[target.tid]
    return False


def _rule_aggregates(
    relation: TupleLevelRelation,
    row: TupleLevelTuple,
    positions: dict[str, int],
    ties: TieRule,
) -> tuple[float, float]:
    """(mass of same-rule tuples that beat ``row``, total same-rule mass).

    Both sums exclude ``row`` itself.  Rules have constant size, so
    this is ``O(1)`` per tuple in the paper's cost model.
    """
    beating = 0.0
    total = 0.0
    for tid in relation.rule_of(row.tid):
        if tid == row.tid:
            continue
        other = relation.tuple_by_id(tid)
        total += other.probability
        if _beats(other, row, positions, ties):
            beating += other.probability
    return beating, total


def _expected_rank(
    row: TupleLevelTuple,
    higher_mass: float,
    same_rule_higher: float,
    same_rule_total: float,
    expected_world_size: float,
) -> float:
    """Equation (7)/(8) of the paper for one tuple.

    ``higher_mass`` is the total probability mass of tuples that beat
    ``row`` (over the whole relation); the same-rule portions are
    subtracted / added per the three-term decomposition.
    """
    present_term = row.probability * (higher_mass - same_rule_higher)
    absent_rest = expected_world_size - row.probability - same_rule_total
    return (
        present_term
        + same_rule_total
        + (1.0 - row.probability) * absent_rest
    )


def tuple_expected_ranks(
    relation: TupleLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """Exact expected rank of every tuple — the core of T-ERank."""
    _check_ties(ties)
    positions = {row.tid: index for index, row in enumerate(relation)}
    ordered = relation.order_by_score()
    expected_world_size = relation.expected_world_size()

    # higher_mass per tuple: exclusive prefix sums over the sorted
    # order.  Under "shared" ties all members of a tie group share the
    # group-start prefix (only strictly greater scores count).
    higher_mass: dict[str, float] = {}
    running = 0.0
    index = 0
    while index < len(ordered):
        group_end = index
        score = ordered[index].score
        # Tie groups: exact input-score runs.  # repro: noqa RPR002
        while group_end < len(ordered) and ordered[group_end].score == score:
            group_end += 1
        group_running = running
        for offset in range(index, group_end):
            row = ordered[offset]
            if ties == "shared":
                higher_mass[row.tid] = running
            else:
                higher_mass[row.tid] = group_running
                group_running += row.probability
        running += math.fsum(
            ordered[offset].probability
            for offset in range(index, group_end)
        )
        index = group_end

    ranks: dict[str, float] = {}
    for row in relation:
        same_rule_higher, same_rule_total = _rule_aggregates(
            relation, row, positions, ties
        )
        ranks[row.tid] = _expected_rank(
            row,
            higher_mass[row.tid],
            same_rule_higher,
            same_rule_total,
            expected_world_size,
        )
    return ranks


@profiled("t_erank_bfs")
def tuple_expected_ranks_quadratic(
    relation: TupleLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """Brute-force evaluation of equation (7), one pairwise pass per
    tuple — the ``O(N^2)`` comparison point of experiment E7."""
    _check_ties(ties)
    positions = {row.tid: index for index, row in enumerate(relation)}
    expected_world_size = relation.expected_world_size()
    ranks: dict[str, float] = {}
    for row in relation:
        higher_mass = 0.0
        for other in relation:
            if other.tid != row.tid and _beats(
                other, row, positions, ties
            ):
                higher_mass += other.probability
        same_rule_higher, same_rule_total = _rule_aggregates(
            relation, row, positions, ties
        )
        ranks[row.tid] = _expected_rank(
            row,
            higher_mass,
            same_rule_higher,
            same_rule_total,
            expected_world_size,
        )
    return ranks


def _select_top_k(
    relation_order: Sequence[str],
    ranks: dict[str, float],
    k: int,
) -> list[tuple[str, float]]:
    order = {tid: index for index, tid in enumerate(relation_order)}
    return heapq.nsmallest(
        k, ranks.items(), key=lambda item: (item[1], order[item[0]])
    )


def _as_result(
    method: str,
    k: int,
    winners: Sequence[tuple[str, float]],
    statistics: dict[str, float],
    metadata: dict[str, object],
) -> TopKResult:
    items = tuple(
        RankedItem(tid=tid, position=position, statistic=value)
        for position, (tid, value) in enumerate(winners)
    )
    return TopKResult(
        method=method,
        k=k,
        items=items,
        statistics=statistics,
        metadata=metadata,
    )


def t_erank(
    relation: TupleLevelRelation,
    k: int,
    *,
    ties: TieRule = "shared",
) -> TopKResult:
    """Exact top-k by expected rank (algorithm T-ERank)."""
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    ranks = tuple_expected_ranks(relation, ties=ties)
    winners = _select_top_k(relation.tids(), ranks, k)
    return _as_result(
        "expected_rank",
        k,
        winners,
        ranks,
        {"tuples_accessed": relation.size, "exact": True, "ties": ties},
    )


def t_erank_prune(
    relation: TupleLevelRelation,
    k: int,
    *,
    ties: TieRule = "shared",
) -> TopKResult:
    """Early-stop top-k by expected rank (algorithm T-ERank-Prune).

    Assumes (as the paper does) that ``E[|W|]`` is maintained by the
    store and that accessing a tuple also reveals its exclusion rule.
    Each scanned tuple's expected rank is exact; the scan stops as soon
    as the k-th smallest of them is at most the unseen lower bound.

    The unseen bound used is ``G_n - 1`` where ``G_n`` is the seen mass
    with score *strictly above* the current tuple's — equal to the
    paper's ``q_n - 1`` when scores are distinct, and still sound in
    the presence of ties under either tie rule.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    _check_ties(ties)
    positions = {row.tid: index for index, row in enumerate(relation)}
    ordered = relation.order_by_score()
    expected_world_size = relation.expected_world_size()

    ranks_seen: dict[str, float] = {}
    # Max-heap (negated) of the k smallest exact ranks seen so far.
    worst_of_best: list[float] = []
    halted_early = False
    accessed = 0

    # Bound trajectory for EXPLAIN: only while observability is on
    # (the disabled path pays one pointer compare per tuple), and
    # downsampled to a bounded number of points.
    trajectory: list[dict] | None = (
        [] if get_registry().enabled else None
    )
    stride = max(1, len(ordered) // 64)

    running = 0.0  # mass of all tuples scanned so far
    strict_before_group = 0.0  # mass with score strictly above current
    group_running = 0.0  # by-index exclusive mass within the tie group
    previous_score: float | None = None

    for row in ordered:
        # previous_score is a copied input score.  # repro: noqa RPR002
        if previous_score is None or row.score != previous_score:
            strict_before_group = running
            group_running = running
            previous_score = row.score
        higher_mass = (
            strict_before_group if ties == "shared" else group_running
        )
        group_running += row.probability
        running += row.probability
        accessed += 1

        same_rule_higher, same_rule_total = _rule_aggregates(
            relation, row, positions, ties
        )
        rank = _expected_rank(
            row,
            higher_mass,
            same_rule_higher,
            same_rule_total,
            expected_world_size,
        )
        ranks_seen[row.tid] = rank

        if len(worst_of_best) < k:
            heapq.heappush(worst_of_best, -rank)
        elif k > 0 and rank < -worst_of_best[0]:
            heapq.heapreplace(worst_of_best, -rank)

        if k == 0:
            halted_early = True
            break
        unseen_bound = strict_before_group - 1.0
        halting = (
            len(worst_of_best) == k and -worst_of_best[0] <= unseen_bound
        )
        if trajectory is not None and (
            halting or accessed % stride == 0 or accessed == len(ordered)
        ):
            trajectory.append(
                {
                    "accessed": accessed,
                    "kth_rank": (
                        -worst_of_best[0]
                        if len(worst_of_best) == k
                        else None
                    ),
                    "unseen_bound": unseen_bound,
                }
            )
        if halting:
            halted_early = True
            break

    winners = _select_top_k(relation.tids(), ranks_seen, k)
    metadata: dict[str, object] = {
        "tuples_accessed": accessed,
        "halted_early": halted_early,
        "exact": True,  # seen ranks are exact, and the top-k is global
        "ties": ties,
    }
    if trajectory is not None:
        metadata["prune_trajectory"] = tuple(trajectory)
    return _as_result(
        "expected_rank_prune",
        k,
        winners,
        ranks_seen,
        metadata,
    )
