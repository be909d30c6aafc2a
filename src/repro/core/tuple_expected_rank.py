"""Expected ranks in the tuple-level model (paper Section 6).

Both kernels run on the relation's :class:`~repro.core.columnar.TupleColumns`,
built once per relation version (``relation.columns()``).

* :func:`t_erank` — exact ``O(N log N)`` computation (Section 6.1).
  With tuples in access order (score descending, insertion order on
  ties) and ``q_i = sum_{j < i} p(t_j)``, equation (8) gives each
  tuple's expected rank from three aggregates: the probability mass
  ranked above it, the mass of its own rule, and the expected world
  size ``E[|W|] = sum_t p(t)``.  The three terms of equation (7) are:
  rank while present (independent higher tuples outside the rule),
  the same-rule mass (conditioned on absence the rule renormalises,
  and the ``(1 - p)`` factor cancels), and the rest of the world's
  expected size while absent.  All of it is one vector expression; the
  same-rule mass ranked above a tuple comes from a stable sort on rule.

* :func:`t_erank_prune` — the early-stop scan (Section 6.2).  Only
  ``E[|W|]`` is needed up front; each accessed tuple's expected rank is
  *exact* (equation 8 only references higher-score tuples plus the
  tuple's own rule, which is stored with it), and every unseen tuple's
  rank is at least ``G_n - 1`` (equation 9).  The scan stops at the
  first ``n`` at which the k-th smallest seen rank is at most that
  bound.  The k-th smallest seen rank never rises with ``n`` and the
  bound never falls, so the stop test is monotone: the stop point is
  found by galloping over prefix lengths ``k, 2k, 4k, ...`` and a
  binary search inside the last step, and equals the tuple-at-a-time
  scan's exactly.

The tuple-at-a-time forms live in :mod:`repro.core.reference` as test
oracles and experiment baselines.
"""

from __future__ import annotations

import numpy as np

from repro.core.columnar import TupleColumns
from repro.core.result import TopKResult, top_k_result
from repro.exceptions import RankingError
from repro.models.possible_worlds import TieRule, _check_ties
from repro.models.tuple_level import TupleLevelRelation
from repro.obs import count, get_registry, trace

__all__ = [
    "tuple_expected_ranks",
    "tuple_expected_ranks_vectorized",
    "t_erank",
    "t_erank_prune",
]

#: The prune trajectory keeps about this many evenly spaced points.
_TRAJECTORY_POINTS = 64


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """For each element, the index where its run of equal keys starts."""
    size = keys[0].size
    boundary = np.zeros(size, dtype=bool)
    boundary[:1] = True
    for key in keys:
        boundary[1:] |= key[1:] != key[:-1]
    return np.maximum.accumulate(np.where(boundary, np.arange(size), 0))


def _same_rule_terms(
    columns: TupleColumns, ties: TieRule
) -> tuple[np.ndarray, np.ndarray]:
    """Per tuple position: the same-rule mass that beats it, and the
    mass of the rest of its rule.

    Only multi-member rules contribute.  Rules of one size form one
    ``(rules, size)`` matrix, and the sums run over members in rule
    order, adding ``0.0`` for members that do not count — the same
    additions, in the same order, as the per-tuple scan makes.
    """
    beating = np.zeros(columns.size)
    others = np.zeros(columns.size)
    offsets = columns.member_offsets
    sizes = np.diff(offsets)
    for size in np.unique(sizes[sizes > 1]).tolist():
        starts = offsets[:-1][sizes == size]
        members = columns.members[starts[:, None] + np.arange(size)]
        probs = columns.probs[members]
        scores = columns.scores[members]
        beat_sum = np.zeros(members.shape)
        other_sum = np.zeros(members.shape)
        for column in range(size):
            challenger = probs[:, column : column + 1]
            score = scores[:, column : column + 1]
            beats = score > scores
            if ties == "by_index":
                # exact input-score ties  # repro: noqa RPR002
                beats |= (score == scores) & (
                    members[:, column : column + 1] < members
                )
            beat_sum += np.where(beats, challenger, 0.0)
            other_sum += np.where(
                np.arange(size) != column, challenger, 0.0
            )
        beating[members] = beat_sum
        others[members] = other_sum
    return beating, others


def _access_ranks(
    columns: TupleColumns,
    ties: TieRule,
    length: int,
    same_rule: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Equation (8) for the first ``length`` tuples in access order.

    Returns ``(ranks, above)``: entry ``i`` belongs to tuple
    ``columns.order[i]``; ``above[i]`` is the mass with score strictly
    above it (``G_n`` of the unseen bound).  ``same_rule`` is
    :func:`_same_rule_terms`.  A prefix reads only its own tuples and
    their rules, so a longer prefix extends a shorter one value for
    value.
    """
    order = columns.order[:length]
    probs = columns.probs[order]
    before = np.zeros(length)
    np.cumsum(probs[:-1], out=before[1:])
    above = before[_run_starts(columns.scores[order])]
    # Under shared ties only strictly higher scores beat a tuple.
    higher = before if ties == "by_index" else above
    same_rule_higher = same_rule[0][order]
    same_rule_total = same_rule[1][order]
    absent_rest = columns.expected_world_size - probs - same_rule_total
    ranks = (
        probs * (higher - same_rule_higher)
        + same_rule_total
        + (1.0 - probs) * absent_rest
    )
    return ranks, above


def _expected_rank_vector(
    relation: TupleLevelRelation, ties: TieRule
) -> tuple[TupleColumns, np.ndarray]:
    """The relation's columns and every expected rank, by position."""
    with trace("t_erank"):
        _check_ties(ties)
        columns = relation.columns()
        count("t_erank.tuples_accessed", columns.size)
        ranks = np.empty(columns.size)
        ranks[columns.order] = _access_ranks(
            columns, ties, columns.size, _same_rule_terms(columns, ties)
        )[0]
        return columns, ranks


def tuple_expected_ranks(
    relation: TupleLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """Exact expected rank of every tuple — the core of T-ERank."""
    columns, ranks = _expected_rank_vector(relation, ties)
    return dict(zip(columns.tids, ranks.tolist()))


#: The same kernel under the name the ``t_erank_vectorized`` bench
#: metrics use.
tuple_expected_ranks_vectorized = tuple_expected_ranks


def t_erank(
    relation: TupleLevelRelation,
    k: int,
    *,
    ties: TieRule = "shared",
) -> TopKResult:
    """Exact top-k by expected rank (algorithm T-ERank)."""
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    columns, ranks = _expected_rank_vector(relation, ties)
    return top_k_result(
        "expected_rank",
        k,
        columns.tids,
        ranks,
        dict(zip(columns.tids, ranks.tolist())),
        {"tuples_accessed": columns.size, "exact": True, "ties": ties},
    )


def _kth_smallest(ranks: np.ndarray, k: int, length: int) -> float:
    """The k-th smallest of the first ``length`` ranks (``length >= k``)."""
    return float(np.partition(ranks[:length], k - 1)[k - 1])


def _halts(
    ranks: np.ndarray, above: np.ndarray, k: int, length: int
) -> bool:
    """Whether the scan stops after ``length >= k`` accesses."""
    return _kth_smallest(ranks, k, length) <= above[length - 1] - 1.0


def _scan(
    columns: TupleColumns, ties: TieRule, k: int
) -> tuple[int, bool, np.ndarray, np.ndarray]:
    """Where the scan stops: ``(accessed, halted, ranks, above)``.

    The ranks and bounds cover a prefix at least ``accessed`` long.
    :func:`_halts` is monotone in the prefix length, so a galloping
    search over ``k, 2k, 4k, ...`` brackets the first length that halts
    and a binary search inside the bracket finds it.
    """
    size = columns.size
    same_rule = _same_rule_terms(columns, ties)
    low, high = k - 1, min(k, size)  # no prefix shorter than k halts
    while True:
        ranks, above = _access_ranks(columns, ties, high, same_rule)
        if high >= k and _halts(ranks, above, k, high):
            break
        if high == size:
            return size, False, ranks, above
        low, high = high, min(2 * high, size)
    while high - low > 1:
        middle = (low + high) // 2
        if _halts(ranks, above, k, middle):
            high = middle
        else:
            low = middle
    return high, True, ranks, above


def _trajectory(
    ranks: np.ndarray,
    above: np.ndarray,
    k: int,
    accessed: int,
    halted: bool,
    size: int,
) -> tuple[dict, ...]:
    """The bound trajectory of the scan, downsampled for EXPLAIN.

    The points are every ``stride``-th access plus the last one; the
    k smallest ranks are carried from point to point.
    """
    stride = max(1, size // _TRAJECTORY_POINTS)
    lengths = list(range(stride, accessed + 1, stride))
    last = accessed and (halted or accessed == size)
    if last and lengths[-1:] != [accessed]:
        lengths.append(accessed)
    points: list[dict] = []
    best, done = np.zeros(0), 0
    for length in lengths:
        kth: float | None = None
        if length >= k:
            merged = np.concatenate((best, ranks[done:length]))
            best = np.partition(merged, k - 1)[:k]
            done = length
            kth = float(best[k - 1])
        points.append(
            {
                "accessed": length,
                "kth_rank": kth,
                "unseen_bound": float(above[length - 1] - 1.0),
            }
        )
    return tuple(points)


def t_erank_prune(
    relation: TupleLevelRelation,
    k: int,
    *,
    ties: TieRule = "shared",
) -> TopKResult:
    """Early-stop top-k by expected rank (algorithm T-ERank-Prune).

    Assumes (as the paper does) that ``E[|W|]`` is maintained by the
    store and that accessing a tuple also reveals its exclusion rule.
    Each accessed tuple's expected rank is exact; the scan stops at the
    first tuple after which the k-th smallest of them is at most the
    unseen lower bound.

    The unseen bound used is ``G_n - 1`` where ``G_n`` is the accessed
    mass with score *strictly above* the current tuple's — equal to the
    paper's ``q_n - 1`` when scores are distinct, and still sound in
    the presence of ties under either tie rule.
    """
    with trace("t_erank_prune"):
        if k < 0:
            raise RankingError(f"k must be >= 0, got {k!r}")
        _check_ties(ties)
        columns = relation.columns()
        size = columns.size
        trajectory: tuple[dict, ...] = ()
        if k == 0:
            # k = 0 halts after the first access, before any bound check.
            accessed = min(size, 1)
            halted_early = accessed == 1
            ranks = _access_ranks(
                columns, ties, accessed, _same_rule_terms(columns, ties)
            )[0]
        else:
            accessed, halted_early, ranks, above = _scan(columns, ties, k)
            if get_registry().enabled:
                trajectory = _trajectory(
                    ranks, above, k, accessed, halted_early, size
                )

        count("t_erank_prune.tuples_accessed", accessed)
        if halted_early:
            count("t_erank_prune.halted_early")
        order = columns.order[:accessed]
        seen = ranks[:accessed]
        seen_tids = [columns.tids[index] for index in order.tolist()]
        by_position = np.argsort(order)
        metadata: dict[str, object] = {
            "tuples_accessed": accessed,
            "halted_early": halted_early,
            "exact": True,  # seen ranks are exact, and the top-k is global
            "ties": ties,
        }
        if get_registry().enabled:
            metadata["prune_trajectory"] = trajectory
        return top_k_result(
            "expected_rank_prune",
            k,
            [seen_tids[index] for index in by_position.tolist()],
            seen[by_position],
            dict(zip(seen_tids, seen.tolist())),
            metadata,
        )
