"""Scalar reference forms of the expected-rank kernels and scans.

The paper's algorithms written tuple by tuple; the columnar kernels of
:mod:`repro.core.tuple_expected_rank` and the seen-prefix scan of
:mod:`repro.core.attr_expected_rank` compute the same values:

* :func:`tuple_expected_ranks` / :func:`t_erank` — Section 6.1,
  equation (8) evaluated per tuple over one score sort;
* :func:`t_erank_prune` — Section 6.2, the early-stop scan with a
  k-heap of exact seen ranks and the ``q_n - 1`` unseen bound;
* :func:`tuple_expected_ranks_quadratic` — equation (7) by pairwise
  comparison, the ``O(N^2)`` comparison point of experiment E7;
* :func:`attribute_expected_ranks_quadratic` — equation (3) by
  pairwise comparison, the BFS baseline of experiment E3;
* :func:`a_erank_prune` / :func:`a_mqrank_prune` — the Section 5.2
  scan and its quantile-rank twin, updating every seen tuple's
  seen-beats sum pair by pair as each tuple arrives.

No ranking path calls into this module: the registry, the planner and
the serving tier run the production kernels only (``repro.core``
re-exports the two quadratic forms for the experiments).  The tests
use these forms as oracles — answers, ``tuples_accessed``,
``halted_early`` and the prune trajectory must match exactly; the
tuple-level statistics to ``1e-9``, the attribute-level scans' floats
exactly — and the experiments use them as baselines.  The attribute
scans answer with the production exact kernels on the curtailed
database, as the production scans do.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import replace
from typing import Iterator, Sequence

import numpy as np

from repro.core.attr_expected_rank import a_erank
from repro.core.attr_mq_rank import _markov_quantile_upper, a_mqrank
from repro.core.beats import (
    beat_probability,
    tuple_beats,
    value_beat_probability,
)
from repro.core.rank_distribution import _method_name
from repro.core.result import RankedItem, TopKResult
from repro.exceptions import PruningBoundError, RankingError
from repro.models.attribute import AttributeLevelRelation, AttributeTuple
from repro.models.possible_worlds import TieRule, _check_ties
from repro.models.tuple_level import TupleLevelRelation, TupleLevelTuple
from repro.obs import get_registry, trace
from repro.stats.poisson_binomial import binomial_pmf, poisson_binomial_pmf

__all__ = [
    "tuple_expected_ranks",
    "tuple_expected_ranks_quadratic",
    "t_erank",
    "t_erank_prune",
    "attribute_expected_ranks_quadratic",
    "a_erank_prune",
    "a_mqrank_prune",
]


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
        if tuple_beats(other, row, positions, ties):
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


def tuple_expected_ranks_quadratic(
    relation: TupleLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """Brute-force evaluation of equation (7), one pairwise pass per
    tuple — the ``O(N^2)`` comparison point of experiment E7."""
    with trace("t_erank_bfs"):
        _check_ties(ties)
        positions = {row.tid: index for index, row in enumerate(relation)}
        expected_world_size = relation.expected_world_size()
        ranks: dict[str, float] = {}
        for row in relation:
            higher_mass = 0.0
            for other in relation:
                if other.tid != row.tid and tuple_beats(
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


# ----------------------------------------------------------------------
# Attribute level: the BFS baseline and the Section 5.2 pruned scans
# ----------------------------------------------------------------------
def attribute_expected_ranks_quadratic(
    relation: AttributeLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """The paper's brute-force-search (BFS) baseline: direct evaluation
    of equation (3), ``r(t_i) = sum_{j != i} Pr[X_j > X_i]``.

    ``O(N^2)`` pairwise comparisons — the comparison point of the
    scalability experiment (E3), kept deliberately naive.
    """
    with trace("a_erank_bfs"):
        _check_ties(ties)
        ranks: dict[str, float] = {}
        for position, row in enumerate(relation):
            total = 0.0
            for other_position, other in enumerate(relation):
                if other_position == position:
                    continue
                total += beat_probability(
                    other.score,
                    row.score,
                    challenger_is_earlier=other_position < position,
                    ties=ties,
                )
            ranks[row.tid] = total
        return ranks


class _SeenTuple:
    """Per-tuple pruning state: seen-beats sum and Markov tail shape."""

    __slots__ = ("row", "position", "seen_term")

    def __init__(self, row: AttributeTuple, position: int) -> None:
        self.row = row
        self.position = position
        # sum over seen j != i of Pr[X_j beats X_i]
        self.seen_term = 0.0

    def markov_tail(self, expectation_bound: float) -> float:
        """``sum_l p_{i,l} min(1, E / v_{i,l})`` — clamped equation 5/6
        term."""
        tail = 0.0
        for value, probability in self.row.score.items():
            tail += probability * min(1.0, expectation_bound / value)
        return tail


def _check_positive(relation: AttributeLevelRelation) -> None:
    for row in relation:
        if row.score.min_value <= 0.0:
            raise PruningBoundError(
                f"tuple {row.tid!r} has score {row.score.min_value!r}; "
                "the Markov bounds require strictly positive scores"
            )


def _scan_pairwise(
    relation: AttributeLevelRelation,
    ties: TieRule,
) -> Iterator[list[_SeenTuple]]:
    """Read tuples in decreasing expected-score order; after each
    arrival yield the seen list with every pairwise seen-beats sum (the
    first term of equation 5) brought up to date."""
    seen: list[_SeenTuple] = []
    for row in relation.order_by_expected_score():
        arriving = _SeenTuple(row, relation.position_of(row.tid))
        for other in seen:
            other.seen_term += beat_probability(
                arriving.row.score,
                other.row.score,
                challenger_is_earlier=arriving.position < other.position,
                ties=ties,
            )
            arriving.seen_term += beat_probability(
                other.row.score,
                arriving.row.score,
                challenger_is_earlier=other.position < arriving.position,
                ties=ties,
            )
        seen.append(arriving)
        yield seen


def a_erank_prune(
    relation: AttributeLevelRelation,
    k: int,
    *,
    ties: TieRule = "shared",
) -> TopKResult:
    """Early-termination top-k by expected rank (A-ERank-Prune), one
    tuple and one pair at a time.

    Maintains the upper bounds ``r+(t_i)`` of every seen tuple
    (equation 5) and the lower bound ``r-`` on all unseen tuples
    (equation 6), and halts once ``k`` seen upper bounds fall below
    ``r-``.  The answer is the exact A-ERank top-k of the curtailed
    database of seen tuples.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    _check_ties(ties)
    if k == 0:
        return TopKResult(
            method="expected_rank_prune",
            k=0,
            items=(),
            metadata={
                "tuples_accessed": 0,
                "halted_early": True,
                "exact": False,
                "ties": ties,
            },
        )
    _check_positive(relation)
    total = relation.size
    seen: list[_SeenTuple] = []
    halted_early = False
    trajectory: list[dict] | None = (
        [] if get_registry().enabled else None
    )
    stride = max(1, total // 64)

    for seen in _scan_pairwise(relation, ties):
        n = len(seen)
        if n < k or n == total:
            continue
        expectation_bound = seen[-1].row.expected_score()
        tails = [entry.markov_tail(expectation_bound) for entry in seen]
        unseen_count = total - n
        upper_bounds = [
            entry.seen_term + unseen_count * tail
            for entry, tail in zip(seen, tails)
        ]
        lower_bound = n - math.fsum(tails)
        kth_upper = heapq.nsmallest(k, upper_bounds)[-1]
        halting = kth_upper < lower_bound
        if trajectory is not None and (
            halting or n % stride == 0 or n == total
        ):
            trajectory.append(
                {
                    "accessed": n,
                    "kth_rank": kth_upper,
                    "unseen_bound": lower_bound,
                }
            )
        if halting:
            halted_early = True
            break

    curtailed = relation.curtailed(entry.row.tid for entry in seen)
    metadata: dict[str, object] = {
        "tuples_accessed": len(seen),
        "halted_early": halted_early,
        "exact": len(seen) == total,
        "ties": ties,
    }
    if trajectory is not None:
        metadata["prune_trajectory"] = tuple(trajectory)
    return replace(
        a_erank(curtailed, k, ties=ties),
        method="expected_rank_prune",
        metadata=metadata,
    )


def _unseen_quantile_lower(
    seen_rows: list[AttributeTuple],
    expectation_bound: float,
    phi: float,
) -> int:
    """Best lower bound on any unseen tuple's phi-quantile rank, from
    the seen tuples' Poisson binomial at a spread of thresholds."""
    expected = sorted(
        {row.expected_score() for row in seen_rows}, reverse=True
    )
    if not expected:
        return 0
    picks = {
        expected[min(len(expected) - 1, int(f * len(expected)))]
        for f in (0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9)
    }
    best = 0
    for threshold in picks:
        if threshold <= 0.0:
            continue
        slack = min(1.0, expectation_bound / threshold)
        if slack >= phi:
            continue
        params = [
            row.score.pr_greater_equal(threshold) for row in seen_rows
        ]
        cdf = np.cumsum(poisson_binomial_pmf(params))
        reachable = np.nonzero(slack + cdf >= phi - 1e-12)[0]
        lower = int(reachable[0]) if reachable.size else len(params)
        best = max(best, lower)
    return best


def _seen_quantile_upper(
    candidate: _SeenTuple,
    seen: list[_SeenTuple],
    unseen_count: int,
    expectation_bound: float,
    phi: float,
    markov_cap: int,
    ties: TieRule,
) -> int:
    """Certified upper bound on one seen tuple's phi-quantile rank:
    ``PB_seen(v) + Binomial(N - n, m(v))`` mixed over its pdf, capped
    by the pure-Markov bound."""
    components: list[tuple[float, np.ndarray]] = []
    horizon = markov_cap + 1
    for value, probability in candidate.row.score.items():
        params = [
            value_beat_probability(
                other.row.score,
                value,
                challenger_is_earlier=other.position
                < candidate.position,
                ties=ties,
            )
            for other in seen
            if other is not candidate
        ]
        seen_pmf = poisson_binomial_pmf(params)
        tail_probability = min(1.0, expectation_bound / value)
        unseen_pmf = binomial_pmf(unseen_count, tail_probability)
        combined = np.convolve(seen_pmf, unseen_pmf)[:horizon]
        components.append((probability, combined))
    size = max(len(pmf) for _, pmf in components)
    cdf_lower = np.zeros(size)
    for probability, pmf in components:
        cdf_lower[: len(pmf)] += probability * np.cumsum(pmf)
        if len(pmf) < size:
            cdf_lower[len(pmf):] += probability * float(
                np.cumsum(pmf)[-1]
            )
    reachable = np.nonzero(cdf_lower >= phi - 1e-12)[0]
    if reachable.size:
        return min(int(reachable[0]), markov_cap)
    return markov_cap


def a_mqrank_prune(
    relation: AttributeLevelRelation,
    k: int,
    *,
    phi: float = 0.5,
    ties: TieRule = "by_index",
    check_every: int = 16,
    tight_bounds: bool = True,
) -> TopKResult:
    """Early-termination quantile-rank top-k, one tuple and one pair
    at a time (the design is documented on
    :func:`repro.core.attr_mq_rank.a_mqrank_prune`)."""
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    if not 0.0 < phi < 1.0:
        raise RankingError(
            f"phi must be in (0, 1) for the pruned variant, got {phi!r}"
        )
    _check_ties(ties)
    if check_every < 1:
        raise RankingError(
            f"check_every must be >= 1, got {check_every!r}"
        )
    _check_positive(relation)
    total = relation.size
    seen: list[_SeenTuple] = []
    halted_early = False

    for seen in _scan_pairwise(relation, ties):
        n = len(seen)
        if n < max(k, 1) or n == total or n % check_every:
            continue
        expectation_bound = seen[-1].row.expected_score()
        unseen_count = total - n
        lower = _unseen_quantile_lower(
            [entry.row for entry in seen], expectation_bound, phi
        )
        if k == 0:
            halted_early = True
            break
        if lower == 0:
            continue
        markov_uppers = []
        for entry in seen:
            rank_upper = entry.seen_term + unseen_count * entry.markov_tail(
                expectation_bound
            )
            markov_uppers.append(
                (_markov_quantile_upper(rank_upper, phi), entry)
            )
        markov_uppers.sort(key=lambda pair: pair[0])
        candidates = markov_uppers[:k]
        if tight_bounds:
            uppers = [
                _seen_quantile_upper(
                    entry,
                    seen,
                    unseen_count,
                    expectation_bound,
                    phi,
                    markov_cap,
                    ties,
                )
                for markov_cap, entry in candidates
            ]
        else:
            uppers = [markov_cap for markov_cap, _ in candidates]
        if max(uppers) < lower:
            halted_early = True
            break

    curtailed = relation.curtailed(entry.row.tid for entry in seen)
    return replace(
        a_mqrank(curtailed, k, phi=phi, ties=ties),
        method=f"{_method_name(phi)}_prune",
        metadata={
            "tuples_accessed": len(seen),
            "halted_early": halted_early,
            "exact": len(seen) == total,
            "phi": phi,
            "ties": ties,
        },
    )
