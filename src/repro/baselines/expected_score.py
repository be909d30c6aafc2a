"""The expected-score baseline (paper Section 4.2).

Ranking by ``E[score]`` yields a single total order, so it trivially
satisfies exact-k, containment, unique ranking and stability — but it
is **not value-invariant**: inflating one score value by orders of
magnitude propels an unlikely tuple to the top, and deflating it back
(without changing the relative order of values) drops it again.  In
the tuple-level model, ``E[score * presence] = p(t) * v(t)`` ignores
the exclusion rules entirely, the paper's second objection.
"""

from __future__ import annotations

from repro.core.result import TopKResult, top_k_result
from repro.exceptions import RankingError, UnsupportedModelError
from repro.models.attribute import AttributeLevelRelation
from repro.models.tuple_level import TupleLevelRelation

__all__ = ["expected_score", "expected_scores"]


def expected_scores(
    relation: AttributeLevelRelation | TupleLevelRelation,
) -> dict[str, float]:
    """The per-tuple expected score (higher is better).

    Attribute-level: ``E[X_i]``.  Tuple-level: ``p(t) * v(t)``, the
    expectation of the score with a missing tuple contributing zero.
    """
    if isinstance(relation, AttributeLevelRelation):
        return {row.tid: row.expected_score() for row in relation}
    if isinstance(relation, TupleLevelRelation):
        return {row.tid: row.probability * row.score for row in relation}
    raise UnsupportedModelError(
        f"unsupported relation type {type(relation).__name__}"
    )


def expected_score(
    relation: AttributeLevelRelation | TupleLevelRelation,
    k: int,
) -> TopKResult:
    """Top-k by decreasing expected score (insertion-order ties)."""
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    statistics = expected_scores(relation)
    return top_k_result(
        "expected_score",
        k,
        relation.tids(),
        list(statistics.values()),
        statistics,
        {"tuples_accessed": relation.size, "exact": True},
        largest=True,
    )
