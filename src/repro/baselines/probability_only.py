"""The probability-only baseline (Ré et al. [34]).

Ranking query results solely by their probability across possible
worlds — the "ignore one dimension" strawman of Section 4.2.  It
trivially satisfies the five properties but discards the score
entirely, happily ranking a low-score near-certain tuple above a
high-score likely one.  Only meaningful in the tuple-level model
(attribute-level tuples all have probability one).
"""

from __future__ import annotations

from repro.core.result import TopKResult, top_k_result
from repro.exceptions import RankingError, UnsupportedModelError
from repro.models.tuple_level import TupleLevelRelation

__all__ = ["probability_only"]


def probability_only(relation: TupleLevelRelation, k: int) -> TopKResult:
    """Top-k by decreasing membership probability (insertion ties)."""
    if not isinstance(relation, TupleLevelRelation):
        raise UnsupportedModelError(
            "probability-only ranking needs tuple-level uncertainty; "
            "attribute-level tuples all have probability one"
        )
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    statistics = {row.tid: row.probability for row in relation}
    return top_k_result(
        "probability_only",
        k,
        relation.tids(),
        list(statistics.values()),
        statistics,
        {"tuples_accessed": relation.size, "exact": True},
        largest=True,
    )
