"""The U-kRanks baseline [Soliman et al. 42; PRank, Lian & Chen 30].

U-kRanks reports, for each output position ``i`` in ``1..k``, the tuple
most likely to be ranked ``i``-th in a random possible world.  The
paper (Section 4.2) shows it satisfies exact-k and containment but
violates **unique ranking** (one tuple can win several positions — in
Figure 2 the top-3 is ``t1, t3, t1``) and **stability**.  The
reproduction keeps those violations intact: :class:`TopKResult` items
may repeat a tuple id, and the property checkers flag it.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import position_matrix
from repro.core.result import RankedItem, TopKResult
from repro.exceptions import RankingError
from repro.models.attribute import AttributeLevelRelation
from repro.models.tuple_level import TupleLevelRelation

__all__ = ["u_kranks"]


def u_kranks(
    relation: AttributeLevelRelation | TupleLevelRelation,
    k: int,
) -> TopKResult:
    """Top-k where position ``j`` goes to ``argmax_t Pr[rank(t) = j]``.

    Ties on the probability are broken by insertion order: ``argmax``
    down each of the first ``k`` columns returns the first maximum.
    The reported statistic of each item is its winning probability.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    table = position_matrix(relation)
    k = min(k, relation.size)
    winners = np.argmax(table[:, :k], axis=0) if k else ()
    tids = relation.tids()
    items = tuple(
        RankedItem(
            tid=tids[winner],
            position=position,
            statistic=float(table[winner, position]),
        )
        for position, winner in enumerate(winners)
    )
    return TopKResult(
        method="u_kranks",
        k=k,
        items=items,
        statistics={},
        metadata={"tuples_accessed": relation.size, "exact": True},
    )
