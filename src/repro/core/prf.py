"""Parameterized ranking functions (PRF) — the Li et al. [29] bridge.

Appendix A of the paper relates its rank-distribution semantics to the
general framework of Li, Saha and Deshpande, which scores each tuple
as a weighted sum over its rank-position probabilities:

    Upsilon(t) = sum_i  w(i) * Pr[t is ranked i in a random world]

and reports the k tuples with the largest Upsilon.  Different weight
functions recover different semantics:

* ``w(i) = 1 if i < k else 0``      -> Global-Topk's statistic [48];
* ``w(i) = 1 if i == j else 0``     -> the U-kRanks position-j score;
* ``w(i) = alpha ** i``  (PRF^e)    -> a tunable family interpolating
  between "probability of being top" (alpha -> 0) and pure membership
  probability (alpha -> 1);
* ``w(i) = N - i`` (linear)         -> for *attribute-level* relations
  (every tuple present) this is ``N - E[rank under positional ties]``,
  i.e. PRF with linear weights ranks identically to the expected rank.

In the tuple-level model an absent tuple occupies no position, so the
linear-weight PRF differs from the expected rank exactly by how
absence is charged (the paper ranks missing tuples at ``|W|``); the
tests pin both the attribute-level equivalence and the tuple-level
divergence.

The implementation reuses the columnar positional table
(:func:`repro.core.columnar.rank_position_probability_matrix`), so any
weight function costs one matrix-vector product on top of the shared
generating-function sweep.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.columnar import rank_position_probability_matrix
from repro.core.result import TopKResult, top_k_result
from repro.exceptions import RankingError
from repro.models.attribute import AttributeLevelRelation
from repro.models.tuple_level import TupleLevelRelation

__all__ = [
    "prf_rank",
    "prf_scores",
    "linear_weights",
    "exponential_weights",
    "step_weights",
    "position_weights",
]

Relation = AttributeLevelRelation | TupleLevelRelation
WeightFunction = Callable[[int], float]


def linear_weights(size: int) -> np.ndarray:
    """``w(i) = size - i`` — the expected-rank-flavoured weights."""
    if size < 1:
        raise RankingError(f"size must be >= 1, got {size!r}")
    return np.arange(size, 0, -1, dtype=float)


def exponential_weights(size: int, alpha: float) -> np.ndarray:
    """PRF^e weights ``w(i) = alpha ** i`` for ``alpha`` in ``(0, 1]``;
    an empty relation gets an empty vector."""
    if size < 0:
        raise RankingError(f"size must be >= 0, got {size!r}")
    if not 0.0 < alpha <= 1.0:
        raise RankingError(f"alpha must be in (0, 1], got {alpha!r}")
    return alpha ** np.arange(size, dtype=float)


def step_weights(size: int, k: int) -> np.ndarray:
    """``w(i) = 1`` for the first ``k`` positions — Global-Topk's
    statistic."""
    if size < 1:
        raise RankingError(f"size must be >= 1, got {size!r}")
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    weights = np.zeros(size)
    weights[: min(k, size)] = 1.0
    return weights


def position_weights(size: int, position: int) -> np.ndarray:
    """An indicator at one position — the U-kRanks per-rank score."""
    if not 0 <= position < size:
        raise RankingError(
            f"position must be in [0, {size}), got {position!r}"
        )
    weights = np.zeros(size)
    weights[position] = 1.0
    return weights


def _resolve_weights(
    weights: Sequence[float] | WeightFunction, size: int
) -> np.ndarray:
    if callable(weights):
        resolved = np.array(
            [float(weights(position)) for position in range(size)]
        )
    else:
        resolved = np.asarray(weights, dtype=float)
        if resolved.ndim != 1 or resolved.size != size:
            raise RankingError(
                f"weights must be a length-{size} vector, got shape "
                f"{resolved.shape}"
            )
    if not np.all(np.isfinite(resolved)):
        raise RankingError("weights must be finite")
    return resolved


def prf_scores(
    relation: Relation,
    weights: Sequence[float] | WeightFunction,
) -> dict[str, float]:
    """``Upsilon(t) = sum_i w(i) Pr[rank(t) = i]`` for every tuple.

    ``weights`` is either a length-``N`` vector or a callable
    ``w(position)``.  Higher is better.
    """
    table = rank_position_probability_matrix(relation)
    resolved = _resolve_weights(weights, relation.size)
    scores = table @ resolved
    return {
        tid: float(scores[position])
        for position, tid in enumerate(relation.tids())
    }


def prf_rank(
    relation: Relation,
    k: int,
    weights: Sequence[float] | WeightFunction,
    *,
    method_name: str = "prf",
) -> TopKResult:
    """Top-k under a parameterized ranking function.

    Ties on ``Upsilon`` are broken by insertion order, matching the
    conventions of the rest of the library.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    statistics = prf_scores(relation, weights)
    return top_k_result(
        method_name,
        k,
        relation.tids(),
        list(statistics.values()),
        statistics,
        {"tuples_accessed": relation.size, "exact": True},
        largest=True,
    )
