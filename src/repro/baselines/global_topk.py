"""The Global-Topk baseline (Zhang & Chomicki [48]).

Global-Topk ranks all tuples by their top-``k`` probability and
reports the ``k`` largest — restoring exact-k relative to PT-k, but
still violating **containment**: the statistic itself depends on ``k``,
so the top-1 and top-2 answers can be disjoint (Figure 2's example:
top-1 is ``t1`` but top-2 is ``(t2, t3)``).  As ``k`` grows toward
``N`` the score's influence vanishes and the method degenerates into
ranking by probability alone, as the paper notes.
"""

from __future__ import annotations

from repro.baselines.common import topk_probabilities
from repro.core.result import TopKResult, top_k_result
from repro.exceptions import RankingError
from repro.models.attribute import AttributeLevelRelation
from repro.models.tuple_level import TupleLevelRelation

__all__ = ["global_topk"]


def global_topk(
    relation: AttributeLevelRelation | TupleLevelRelation,
    k: int,
) -> TopKResult:
    """The ``k`` tuples with the largest top-``k`` probability.

    Ties are broken by insertion order.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    statistics = topk_probabilities(relation, k)
    return top_k_result(
        "global_topk",
        k,
        relation.tids(),
        list(statistics.values()),
        statistics,
        {"tuples_accessed": relation.size, "exact": True},
        largest=True,
    )
