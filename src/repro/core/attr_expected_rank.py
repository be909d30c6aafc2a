"""Expected ranks in the attribute-level model (paper Section 5).

Two algorithms:

* :func:`a_erank` — the exact ``O(N log N)`` algorithm (Section 5.1).
  By linearity of expectation (equation 3),
  ``r(t_i) = sum_{j != i} Pr[X_j > X_i]``, which equation (4) rewrites
  as ``sum_l p_{i,l} (q(v_{i,l}) - Pr[X_i > v_{i,l}])`` with
  ``q(v) = sum_j Pr[X_j > v]`` precomputed once for the whole value
  universe by a sort and a suffix sum.

* :func:`a_erank_prune` — the early-termination scan (Section 5.2).
  Tuples arrive in decreasing expected-score order; Markov's
  inequality bounds the influence of unseen tuples (equations 5-6).
  The scan halts once ``k`` seen tuples have upper bounds below the
  lower bound of every unseen tuple, then answers from the curtailed
  database exactly as the paper prescribes.  The Markov step requires
  strictly positive scores.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import replace

from repro.core.beats import beat_probability
from repro.core.result import TopKResult, top_k_result
from repro.exceptions import PruningBoundError, RankingError
from repro.models.attribute import AttributeLevelRelation, AttributeTuple
from repro.models.possible_worlds import TieRule, _check_ties
from repro.obs import count, get_registry, profiled

__all__ = [
    "attribute_expected_ranks",
    "attribute_expected_ranks_quadratic",
    "attribute_expected_ranks_vectorized",
    "a_erank",
    "a_erank_prune",
    "a_erank_prune_lazy",
]


class _TailOracle:
    """``q(v) = sum_j Pr[X_j > v]`` over the whole relation.

    Built once in ``O(S log S)`` where ``S = sum_i s_i``; each query is
    a binary search.  Also answers the total mass *equal* to a value
    among tuples with insertion position below a given one, which the
    ``by_index`` tie rule needs.
    """

    def __init__(self, relation: AttributeLevelRelation) -> None:
        mass_at: dict[float, float] = {}
        positions_at: dict[float, list[tuple[int, float]]] = {}
        for position, row in enumerate(relation):
            for value, probability in row.score.items():
                mass_at[value] = mass_at.get(value, 0.0) + probability
                positions_at.setdefault(value, []).append(
                    (position, probability)
                )
        self._values: list[float] = sorted(mass_at)
        # _suffix[i] = total mass at values strictly greater than
        # _values[i - 1]; _suffix[len] = 0.
        suffix = [0.0] * (len(self._values) + 1)
        for index in range(len(self._values) - 1, -1, -1):
            suffix[index] = suffix[index + 1] + mass_at[self._values[index]]
        self._suffix = suffix
        self._prefix_by_value: dict[
            float, tuple[list[int], list[float]]
        ] = {}
        for value, entries in positions_at.items():
            entries.sort()
            cumulative: list[float] = []
            running = 0.0
            for _, probability in entries:
                running += probability
                cumulative.append(running)
            self._prefix_by_value[value] = (
                [position for position, _ in entries],
                cumulative,
            )

    def mass_greater(self, value: float) -> float:
        """``q(value)``: total probability mass strictly above."""
        index = bisect.bisect_right(self._values, value)
        return self._suffix[index]

    def equal_mass_before(self, value: float, position: int) -> float:
        """Mass exactly at ``value`` among tuples inserted earlier."""
        entry = self._prefix_by_value.get(value)
        if entry is None:
            return 0.0
        positions, cumulative = entry
        index = bisect.bisect_left(positions, position)
        if index == 0:
            return 0.0
        return cumulative[index - 1]


@profiled("a_erank")
def attribute_expected_ranks(
    relation: AttributeLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """Exact expected rank of every tuple — the core of A-ERank.

    ``O(S log S)`` where ``S`` is the total pdf size; ``O(N log N)``
    for constant-size pdfs, matching the paper.
    """
    _check_ties(ties)
    count("a_erank.tuples_accessed", relation.size)
    oracle = _TailOracle(relation)
    ranks: dict[str, float] = {}
    for position, row in enumerate(relation):
        terms = []
        for value, probability in row.score.items():
            others_above = oracle.mass_greater(value) - row.score.pr_greater(
                value
            )
            if ties == "by_index":
                # Earlier tuples tied at this value also beat us.
                others_above += oracle.equal_mass_before(value, position)
            terms.append(probability * others_above)
        ranks[row.tid] = math.fsum(terms)
    return ranks


@profiled("a_erank_vectorized")
def attribute_expected_ranks_vectorized(
    relation: AttributeLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """A numpy batch evaluation of equation (4) — same asymptotics as
    :func:`attribute_expected_ranks`, much smaller constants.

    All ``S = sum_i s_i`` (value, probability) pairs are flattened into
    arrays; one argsort delivers ``q(v)`` (global mass strictly above
    each value) and the per-tuple own-mass correction, so the whole
    computation is a handful of vector operations.  Used by the large
    scalability runs; the scalar version stays as the readable
    reference and the two are cross-checked in the tests.
    """
    _check_ties(ties)
    count("a_erank_vectorized.tuples_accessed", relation.size)
    import numpy as np

    sizes = [row.score.support_size for row in relation]
    total = sum(sizes)
    values = np.empty(total)
    masses = np.empty(total)
    owners = np.empty(total, dtype=np.int64)
    cursor = 0
    for index, row in enumerate(relation):
        size = sizes[index]
        values[cursor : cursor + size] = row.score.values
        masses[cursor : cursor + size] = row.score.probabilities
        owners[cursor : cursor + size] = index
        cursor += size

    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    sorted_masses = masses[order]
    # Suffix sums grouped by distinct value: q(v) = mass strictly above.
    suffix = np.concatenate(
        ([0.0], np.cumsum(sorted_masses[::-1]))
    )[::-1]
    # For each sorted entry, the first index of its tie group; all
    # entries of a group share mass-strictly-above = suffix[group_end].
    is_new_group = np.empty(total, dtype=bool)
    is_new_group[0] = True
    np.not_equal(
        sorted_values[1:], sorted_values[:-1], out=is_new_group[1:]
    )
    group_ids = np.cumsum(is_new_group) - 1
    group_starts = np.nonzero(is_new_group)[0]
    group_ends = np.append(group_starts[1:], total)
    q_sorted = suffix[group_ends][group_ids]

    # Own-tuple mass strictly above each value, from each pdf's suffix.
    own_above = np.empty(total)
    cursor = 0
    for index, row in enumerate(relation):
        size = sizes[index]
        # pdf suffix[l] = Pr[X >= values[l]]; strictly-above drops the
        # value's own mass.
        probabilities = np.asarray(row.score.probabilities)
        including = np.cumsum(probabilities[::-1])[::-1]
        own_above[cursor : cursor + size] = including - probabilities
        cursor += size
    # own_above now holds Pr[X_i > v_{i,l}] per flattened entry.

    q_by_entry = np.empty(total)
    q_by_entry[order] = q_sorted
    others_above = q_by_entry - own_above

    if ties == "by_index":
        # Within each equal-value group, add the mass of entries from
        # earlier-positioned tuples (a tuple never repeats a value).
        tie_order = np.lexsort((owners[order], group_ids))
        grouped_masses = sorted_masses[tie_order]
        prefix = np.cumsum(grouped_masses)
        group_of = group_ids[tie_order]
        first_of_group = np.empty(total, dtype=bool)
        first_of_group[0] = True
        np.not_equal(
            group_of[1:], group_of[:-1], out=first_of_group[1:]
        )
        group_base = np.maximum.accumulate(
            np.where(first_of_group, prefix - grouped_masses, -np.inf)
        )
        earlier_in_group = prefix - grouped_masses - group_base
        tie_extra_sorted = np.empty(total)
        tie_extra_sorted[tie_order] = earlier_in_group
        tie_extra = np.empty(total)
        tie_extra[order] = tie_extra_sorted
        others_above = others_above + tie_extra

    contributions = masses * others_above
    ranks = np.zeros(len(relation))
    np.add.at(ranks, owners, contributions)
    return {
        row.tid: float(ranks[index])
        for index, row in enumerate(relation)
    }


@profiled("a_erank_bfs")
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


def a_erank(
    relation: AttributeLevelRelation,
    k: int,
    *,
    ties: TieRule = "shared",
) -> TopKResult:
    """Exact top-k by expected rank (algorithm A-ERank).

    Returns the ``min(k, N)`` tuples with the smallest expected ranks;
    ties on the statistic are broken by insertion order.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    ranks = attribute_expected_ranks(relation, ties=ties)
    return top_k_result(
        "expected_rank",
        k,
        relation.tids(),
        list(ranks.values()),
        ranks,
        {"tuples_accessed": relation.size, "exact": True, "ties": ties},
    )


class _SeenTuple:
    """Per-tuple pruning state: seen-beats sum and Markov tail shape."""

    __slots__ = ("row", "position", "seen_term", "inverse_moment")

    def __init__(self, row: AttributeTuple, position: int) -> None:
        self.row = row
        self.position = position
        # sum over seen j != i of Pr[X_j beats X_i]
        self.seen_term = 0.0
        # sum_l p_{i,l} / v_{i,l}; multiplied by E[X_n] it gives the
        # Markov tail term of equation (5) before clamping.
        self.inverse_moment = math.fsum(
            probability / value for value, probability in row.score.items()
        )

    def markov_tail(self, expectation_bound: float) -> float:
        """``sum_l p_{i,l} min(1, E / v_{i,l})`` — clamped equation 5/6
        term."""
        tail = 0.0
        for value, probability in self.row.score.items():
            tail += probability * min(1.0, expectation_bound / value)
        return tail


@profiled("a_erank_prune")
def a_erank_prune(
    relation: AttributeLevelRelation,
    k: int,
    *,
    ties: TieRule = "shared",
) -> TopKResult:
    """Early-termination top-k by expected rank (A-ERank-Prune).

    Scans tuples in decreasing expected-score order, maintaining the
    paper's upper bounds ``r+(t_i)`` on every seen tuple (equation 5)
    and the lower bound ``r-`` on all unseen tuples (equation 6).  The
    scan halts as soon as ``k`` seen upper bounds fall below ``r-``;
    the answer is the exact expected-rank top-k of the curtailed
    database of seen tuples.

    Raises :class:`PruningBoundError` when any score value is not
    strictly positive (Markov's inequality would be unsound).

    The returned metadata reports ``tuples_accessed`` — the experiment
    E5 measurement — and whether the scan halted early.
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
    for row in relation:
        if row.score.min_value <= 0.0:
            raise PruningBoundError(
                f"tuple {row.tid!r} has score {row.score.min_value!r}; "
                "A-ERank-Prune requires strictly positive scores"
            )

    access_order = relation.order_by_expected_score()
    total = relation.size
    seen: list[_SeenTuple] = []
    halted_early = False

    # Bound trajectory for EXPLAIN: recorded only while observability
    # is on, downsampled to a bounded number of points.
    trajectory: list[dict] | None = (
        [] if get_registry().enabled else None
    )
    stride = max(1, total // 64)

    for row in access_order:
        arriving = _SeenTuple(row, relation.position_of(row.tid))
        # Update pairwise seen-beats sums (the first term of eq. 5).
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

        n = len(seen)
        if n < k or n == total:
            continue
        expectation_bound = row.expected_score()
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

    count("a_erank_prune.tuples_accessed", len(seen))
    if halted_early:
        count("a_erank_prune.halted_early")
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


@profiled("a_erank_prune_lazy")
def a_erank_prune_lazy(
    relation: AttributeLevelRelation,
    k: int,
    *,
    check_every: int = 16,
) -> TopKResult:
    """A-ERank-Prune with batched, universe-based bound evaluation.

    The closing remark of paper Section 5.2: instead of updating every
    seen tuple's pairwise term on each arrival (the quadratic scan of
    :func:`a_erank_prune`), "utilize [the] value universe U of all seen
    tuples and maintain prefix sums of the q(v) values".  Arrivals here
    cost ``O(1)``; every ``check_every`` arrivals the bounds of *all*
    seen tuples are recomputed from one sort + suffix sum over the seen
    alternatives (``O(S log S)`` per check, ``S`` = seen pdf entries),
    exactly as the exact A-ERank does over the full relation.

    Semantics match :func:`a_erank_prune` under Definition 6 ties
    (``shared``); the scan may overshoot the minimal halting prefix by
    at most ``check_every - 1`` tuples.  Requires strictly positive
    scores, like every Markov-bound variant.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    if check_every < 1:
        raise RankingError(
            f"check_every must be >= 1, got {check_every!r}"
        )
    if k == 0:
        return TopKResult(
            method="expected_rank_prune_lazy",
            k=0,
            items=(),
            metadata={
                "tuples_accessed": 0,
                "halted_early": True,
                "exact": False,
                "ties": "shared",
            },
        )
    for row in relation:
        if row.score.min_value <= 0.0:
            raise PruningBoundError(
                f"tuple {row.tid!r} has score {row.score.min_value!r}; "
                "A-ERank-Prune requires strictly positive scores"
            )

    access_order = relation.order_by_expected_score()
    total = relation.size
    seen: list[AttributeTuple] = []
    halted_early = False

    for scanned, row in enumerate(access_order, start=1):
        seen.append(row)
        n = len(seen)
        if n < k or n == total or scanned % check_every:
            continue

        # One pass over the seen universe: q_seen(v) for every value.
        oracle = _TailOracle(AttributeLevelRelation(seen))
        expectation_bound = row.expected_score()
        tail_sum = 0.0
        upper_bounds = []
        for candidate in seen:
            seen_term = 0.0
            tail = 0.0
            for value, probability in candidate.score.items():
                seen_term += probability * (
                    oracle.mass_greater(value)
                    - candidate.score.pr_greater(value)
                )
                tail += probability * min(
                    1.0, expectation_bound / value
                )
            tail_sum += tail
            upper_bounds.append(seen_term + (total - n) * tail)
        lower_bound = n - tail_sum
        kth_upper = heapq.nsmallest(k, upper_bounds)[-1]
        if kth_upper < lower_bound:
            halted_early = True
            break

    count("a_erank_prune_lazy.tuples_accessed", len(seen))
    if halted_early:
        count("a_erank_prune_lazy.halted_early")
    curtailed = relation.curtailed(row.tid for row in seen)
    return replace(
        a_erank(curtailed, k, ties="shared"),
        method="expected_rank_prune_lazy",
        metadata={
            "tuples_accessed": len(seen),
            "halted_early": halted_early,
            "exact": len(seen) == total,
            "ties": "shared",
        },
    )
