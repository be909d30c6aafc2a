"""The attribute-level uncertainty model (paper Section 3, Figure 1).

A relation in this model is a list of ``N`` tuples.  Every tuple is
always present in every possible world, but its *score* attribute is a
random variable with a finite discrete pdf; tuples draw their scores
independently.  A possible world is therefore one score assignment per
tuple, and there are ``prod_i s_i`` worlds in total.

:class:`AttributeTuple` pairs a tuple identity with its score pdf (and
optional certain attributes); :class:`AttributeLevelRelation` is the
ordered collection the ranking algorithms consume.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import ModelError
from repro.models.memo import VersionMemo
from repro.models.pdf import DiscretePDF

__all__ = ["AttributeTuple", "AttributeLevelRelation"]


class AttributeTuple:
    """One tuple of an attribute-level uncertain relation.

    Parameters
    ----------
    tid:
        A relation-unique identifier (any hashable, typically a string
        such as ``"t1"``).
    score:
        The discrete pdf of the tuple's uncertain score attribute.
    attributes:
        Optional certain attributes carried along for presentation;
        they play no role in ranking.

    A row is never changed after construction, so ``_json``, the row's
    canonical JSON text, is filled by the first
    :func:`~repro.obs.capture.relation_digest` that reads it and then
    kept.
    """

    __slots__ = ("tid", "score", "attributes", "_json")

    def __init__(
        self,
        tid: str,
        score: DiscretePDF,
        attributes: Mapping[str, object] | None = None,
    ) -> None:
        if not isinstance(score, DiscretePDF):
            raise ModelError(
                f"tuple {tid!r}: score must be a DiscretePDF, "
                f"got {type(score).__name__}"
            )
        self.tid = tid
        self.score = score
        self.attributes = dict(attributes) if attributes else {}
        self._json: str | None = None

    def expected_score(self) -> float:
        """``E[X_i]`` — the sort key of A-ERank-Prune's access order."""
        return self.score.expectation()

    def __repr__(self) -> str:
        return f"AttributeTuple({self.tid!r}, {self.score!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeTuple):
            return NotImplemented
        return self.tid == other.tid and self.score == other.score

    def __hash__(self) -> int:
        return hash((self.tid, self.score))


class AttributeLevelRelation(VersionMemo):
    """An ordered collection of :class:`AttributeTuple` rows.

    Tuple order is the tie-breaking order used by Section 7 of the
    paper (ties rank the earlier tuple first), so the relation preserves
    insertion order and exposes positional indices.  The relation is
    immutable; its digest and
    :class:`~repro.core.columnar.AttributeColumns` are built on first
    use and kept (:mod:`repro.models.memo`).

    Examples
    --------
    The relation of the paper's Figure 2:

    >>> relation = AttributeLevelRelation([
    ...     AttributeTuple("t1", DiscretePDF([100, 70], [0.4, 0.6])),
    ...     AttributeTuple("t2", DiscretePDF([92, 80], [0.6, 0.4])),
    ...     AttributeTuple("t3", DiscretePDF([85], [1.0])),
    ... ])
    >>> relation.size
    3
    >>> relation.world_count()
    4
    """

    _COLUMNS = "AttributeColumns"

    def __init__(self, tuples: Iterable[AttributeTuple]) -> None:
        self._tuples: list[AttributeTuple] = list(tuples)
        self._index: dict[str, int] = {}
        for position, row in enumerate(self._tuples):
            if not isinstance(row, AttributeTuple):
                raise ModelError(
                    f"expected AttributeTuple, got {type(row).__name__}"
                )
            if row.tid in self._index:
                raise ModelError(f"duplicate tuple id {row.tid!r}")
            self._index[row.tid] = position
        self._reset_memo()

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """``N``, the number of tuples."""
        return len(self._tuples)

    @property
    def tuples(self) -> Sequence[AttributeTuple]:
        """The tuples in insertion (tie-breaking) order."""
        return tuple(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[AttributeTuple]:
        return iter(self._tuples)

    def __getitem__(self, position: int) -> AttributeTuple:
        return self._tuples[position]

    def __contains__(self, tid: object) -> bool:
        return tid in self._index

    def tuple_by_id(self, tid: str) -> AttributeTuple:
        """Look a tuple up by its identifier."""
        try:
            return self._tuples[self._index[tid]]
        except KeyError:
            raise ModelError(f"no tuple with id {tid!r}") from None

    def position_of(self, tid: str) -> int:
        """The 0-based insertion position of ``tid`` (tie-break order)."""
        try:
            return self._index[tid]
        except KeyError:
            raise ModelError(f"no tuple with id {tid!r}") from None

    def tids(self) -> tuple[str, ...]:
        """All tuple identifiers in insertion order."""
        return tuple(row.tid for row in self._tuples)

    # ------------------------------------------------------------------
    # Derived quantities used by the algorithms
    # ------------------------------------------------------------------
    def value_universe(self) -> tuple[float, ...]:
        """``U``: the sorted set of all support values of all tuples.

        A-ERank precomputes ``q(v)`` for each ``v`` in this universe
        (paper Section 5.1); its size is at most ``sum_i s_i``.
        """
        universe: set[float] = set()
        for row in self._tuples:
            universe.update(row.score.values)
        return tuple(sorted(universe))

    def expected_scores(self) -> tuple[float, ...]:
        """``E[X_i]`` for every tuple, in insertion order."""
        return tuple(row.expected_score() for row in self._tuples)

    def order_by_expected_score(self) -> list[AttributeTuple]:
        """Tuples sorted by decreasing expected score.

        This is the access order assumed by A-ERank-Prune ("an
        interface which generates each tuple in turn, in decreasing
        order of ``E[X_i]``").  Ties keep insertion order.
        """
        return sorted(
            self._tuples, key=lambda row: -row.expected_score()
        )

    def curtailed(self, tids: Iterable[str]) -> "AttributeLevelRelation":
        """The relation cut to ``tids``, in insertion order.

        A pruning scan answers from this curtailed database of the
        tuples it has seen.
        """
        keep = set(tids)
        return AttributeLevelRelation(
            row for row in self._tuples if row.tid in keep
        )

    def max_pdf_size(self) -> int:
        """``s``: the largest per-tuple support size."""
        return max(row.score.support_size for row in self._tuples)

    def world_count(self) -> int:
        """The number of possible worlds, ``prod_i s_i``."""
        return math.prod(row.score.support_size for row in self._tuples)

    def instantiate(self, rng) -> dict[str, float]:
        """Draw one possible world: an independent score per tuple.

        Returns a mapping from tuple id to its drawn score value.
        """
        return {row.tid: row.score.sample(rng) for row in self._tuples}

    def replace_tuple(
        self, replacement: AttributeTuple
    ) -> "AttributeLevelRelation":
        """A copy of the relation with one tuple swapped in place.

        The stability tests (Definition 4) replace a tuple's score pdf
        with a stochastically larger one; the replacement keeps the
        original insertion position so tie-breaking is unchanged.
        """
        if replacement.tid not in self._index:
            raise ModelError(f"no tuple with id {replacement.tid!r}")
        rows = list(self._tuples)
        rows[self._index[replacement.tid]] = replacement
        return AttributeLevelRelation(rows)

    def map_scores(self, transform) -> "AttributeLevelRelation":
        """Apply ``transform`` to every score value of every tuple.

        Used by the value-invariance tests (Definition 5) with strictly
        increasing transforms.
        """
        return AttributeLevelRelation(
            AttributeTuple(
                row.tid, row.score.map_values(transform), row.attributes
            )
            for row in self._tuples
        )

    def __repr__(self) -> str:
        return (
            f"AttributeLevelRelation(N={self.size}, "
            f"worlds={self.world_count()})"
        )
