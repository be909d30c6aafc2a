"""Shared statistics for the prior-work baselines.

U-kRanks, PT-k and Global-Topk all rank by functionals of the same
table: ``Pr[tuple t occupies position j of a random world's ranking]``
(positional, index tie-break; in the tuple-level model the tuple must
appear to occupy a position).  This module reads that table off the
columnar generating-function sweep (:mod:`repro.core.columnar`) — one
of the observations this reproduction makes explicit: the baselines
are marginals of the same conditional rank pmfs the paper's Section 7
dynamic programs build, so one sweep serves them all.
"""

from __future__ import annotations

import numpy as np

from repro.core.columnar import rank_position_probability_matrix
from repro.exceptions import UnsupportedModelError
from repro.models.attribute import AttributeLevelRelation
from repro.models.tuple_level import TupleLevelRelation

__all__ = [
    "position_matrix",
    "rank_position_probabilities",
    "topk_probabilities",
]

Relation = AttributeLevelRelation | TupleLevelRelation


def _require_known_model(relation: object) -> None:
    if not isinstance(
        relation, (AttributeLevelRelation, TupleLevelRelation)
    ):
        raise UnsupportedModelError(
            f"unsupported relation type {type(relation).__name__}"
        )


def position_matrix(relation: Relation) -> np.ndarray:
    """The read-only ``(N, N)`` positional table, rows in relation order.

    Built once per relation version
    (:func:`~repro.core.columnar.rank_position_probability_matrix`).
    """
    _require_known_model(relation)
    return rank_position_probability_matrix(relation)


def rank_position_probabilities(
    relation: Relation,
) -> dict[str, np.ndarray]:
    """``table[tid][j] = Pr[tid is ranked j within a random world]``.

    Attribute-level tuples always appear, so each row sums to one and
    equals the tuple's rank distribution under the index tie rule.
    Tuple-level rows are ``p(t) * Pr[j tuples beat t | t appears]`` and
    sum to ``p(t)``.
    """
    matrix = position_matrix(relation)
    return {
        tid: matrix[position]
        for position, tid in enumerate(relation.tids())
    }


def topk_probabilities(relation: Relation, k: int) -> dict[str, float]:
    """``Pr[tuple is among the top-k of a random world]`` per tuple.

    The per-tuple statistic of PT-k [23] and Global-Topk [48].  One
    row-wise sum over the first ``k`` columns; it adds each row in the
    same order as summing that row alone, so the floats are the same.
    """
    sums = position_matrix(relation)[:, : max(k, 0)].sum(axis=1)
    return dict(zip(relation.tids(), sums.tolist()))
