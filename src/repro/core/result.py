"""Result types shared by every ranking method.

A ranking query returns a :class:`TopKResult`: an ordered list of
:class:`RankedItem` entries (best first), the per-tuple statistic that
induced the order when the method has one (expected rank, median rank,
top-k probability, ...), and bookkeeping metadata such as how many
tuples a pruning algorithm accessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import RankingError

__all__ = ["RankedItem", "TopKResult", "top_k_result"]


@dataclass(frozen=True)
class RankedItem:
    """One entry of a top-k answer.

    Attributes
    ----------
    tid:
        The tuple identifier.
    position:
        The 0-based output position (0 = best).
    statistic:
        The method's per-tuple score for this tuple — e.g. its expected
        rank, median rank, or top-k probability.  ``None`` for methods
        that do not rank via a per-tuple statistic (U-Topk).
    """

    tid: str
    position: int
    statistic: float | None = None


@dataclass(frozen=True)
class TopKResult:
    """The answer to a ranking query.

    Attributes
    ----------
    method:
        Registered name of the ranking method that produced the answer.
    k:
        The requested ``k``.
    items:
        The reported entries, best first.  Sound methods report exactly
        ``min(k, N)`` entries; some baselines intentionally violate
        this (PT-k) — which the property tests then detect.
    statistics:
        Per-tuple statistic values for *all* tuples the method
        evaluated (not only the reported ones); empty when the method
        has no per-tuple statistic.
    metadata:
        Free-form bookkeeping: ``tuples_accessed`` for pruning
        algorithms, ``exact`` flags, sample counts, and so on.
    """

    method: str
    k: int
    items: tuple[RankedItem, ...]
    statistics: Mapping[str, float] = field(default_factory=dict)
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Duplicate tids are allowed: unique ranking is a property
        # under study (U-kRanks may repeat a tuple), which the
        # property checkers flag.
        for expected_position, item in enumerate(self.items):
            if item.position != expected_position:
                raise RankingError(
                    f"item {item.tid!r} has position {item.position}, "
                    f"expected {expected_position}"
                )

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[RankedItem]:
        return iter(self.items)

    def __getitem__(self, position: int) -> RankedItem:
        return self.items[position]

    def tids(self) -> tuple[str, ...]:
        """The reported tuple ids in rank order (may repeat for
        methods violating unique ranking)."""
        return tuple(item.tid for item in self.items)

    def tid_set(self) -> frozenset[str]:
        """The distinct reported tuple ids."""
        return frozenset(item.tid for item in self.items)

    def statistic_of(self, tid: str) -> float:
        """The method's statistic for ``tid``; raises if unknown."""
        try:
            return self.statistics[tid]
        except KeyError:
            raise RankingError(
                f"method {self.method!r} has no statistic for {tid!r}"
            ) from None

    def prefix(self, smaller_k: int) -> "TopKResult":
        """The answer truncated to its first ``smaller_k`` entries.

        Note this is *positional* truncation of this answer — it equals
        the method's own top-``smaller_k`` only for methods satisfying
        the containment property, which is precisely what the property
        tests probe.
        """
        if smaller_k < 0:
            raise RankingError(f"k must be >= 0, got {smaller_k!r}")
        return TopKResult(
            method=self.method,
            k=smaller_k,
            items=self.items[:smaller_k],
            statistics=self.statistics,
            metadata=dict(self.metadata),
        )

    def to_dict(self) -> dict:
        """A JSON-serialisable rendering of the full result."""
        return {
            "method": self.method,
            "k": self.k,
            "items": [
                {
                    "position": item.position,
                    "tid": item.tid,
                    "statistic": item.statistic,
                }
                for item in self.items
            ],
            "statistics": dict(self.statistics),
            "metadata": dict(self.metadata),
        }

    def describe(self) -> str:
        """A short human-readable rendering, for examples and logs."""
        entries = []
        for item in self.items:
            if item.statistic is None:
                entries.append(item.tid)
            else:
                entries.append(f"{item.tid}({item.statistic:.4g})")
        inner = ", ".join(entries)
        return f"{self.method} top-{self.k}: [{inner}]"


def top_k_result(
    method: str,
    k: int,
    tids: Sequence[str],
    values: Sequence[float] | np.ndarray,
    statistics: Mapping[str, float],
    metadata: Mapping[str, object],
    *,
    largest: bool = False,
) -> TopKResult:
    """The answer of a method that ranks by one per-tuple statistic.

    ``tids`` lists the candidates in insertion order and ``values``
    their statistic, aligned.  The answer holds the ``min(k, N)``
    candidates with the smallest values (the largest when ``largest``),
    best first, ties on the value broken by insertion order.  Every
    rank-by-statistic method selects by this one rule.
    """
    values = np.asarray(values, dtype=float)
    keys = -values if largest else values
    if k <= 0:
        chosen = np.zeros(0, dtype=np.intp)
    elif k < keys.size:
        kth = np.partition(keys, k - 1)[k - 1]
        chosen = np.flatnonzero(keys <= kth)
    else:
        chosen = np.arange(keys.size)
    winners = chosen[np.lexsort((chosen, keys[chosen]))][:k]
    items = tuple(
        RankedItem(tid=tids[index], position=position, statistic=value)
        for position, (index, value) in enumerate(
            zip(winners.tolist(), values[winners].tolist())
        )
    )
    return TopKResult(
        method=method,
        k=k,
        items=items,
        statistics=statistics,
        metadata=metadata,
    )
