"""The tuple-level uncertainty model (paper Section 3, Figures 3-4).

Each tuple has a *fixed* score but appears only with some membership
probability ``p(t)``.  Correlations take the form of exclusion rules
(:mod:`repro.models.rules`): at most one member of a rule appears in any
world, rules are disjoint, and every tuple belongs to exactly one rule
(singletons implied).  This is the x-relations model used by all prior
ranking work the paper compares against.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import ModelError
from repro.models.memo import VersionMemo
from repro.models.pdf import PROBABILITY_TOLERANCE
from repro.models.rules import (
    SINGLETON_PREFIX,
    ExclusionRule,
    check_singleton_ids,
    claim_members,
    cover_with_singletons,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.columnar import TupleColumnsDelta

__all__ = ["TupleLevelTuple", "TupleLevelRelation"]


class TupleLevelTuple:
    """One tuple of a tuple-level uncertain relation.

    Parameters
    ----------
    tid:
        Relation-unique identifier.
    score:
        The tuple's fixed score value.
    probability:
        Membership probability ``p(t)`` in ``[0, 1]``.
    attributes:
        Optional certain attributes, ignored by ranking.

    A row is never changed after construction (a store update makes a
    new row), so ``_json``, the row's canonical JSON text, is filled
    by the first :func:`~repro.obs.capture.relation_digest` that reads
    it and then kept.
    """

    __slots__ = ("tid", "score", "probability", "attributes", "_json")

    def __init__(
        self,
        tid: str,
        score: float,
        probability: float,
        attributes: Mapping[str, object] | None = None,
    ) -> None:
        if not math.isfinite(score):
            raise ModelError(f"tuple {tid!r}: non-finite score {score!r}")
        if not 0.0 <= probability <= 1.0 + PROBABILITY_TOLERANCE:
            raise ModelError(
                f"tuple {tid!r}: probability {probability!r} not in [0, 1]"
            )
        self.tid = tid
        self.score = float(score)
        self.probability = min(float(probability), 1.0)
        self.attributes = dict(attributes) if attributes else {}
        self._json: str | None = None

    def __repr__(self) -> str:
        return (
            f"TupleLevelTuple({self.tid!r}, score={self.score:g}, "
            f"p={self.probability:g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleLevelTuple):
            return NotImplemented
        return (
            self.tid == other.tid
            and self.score == other.score
            and self.probability == other.probability
        )

    def __hash__(self) -> int:
        return hash((self.tid, self.score, self.probability))


def _index_rows(rows: list[TupleLevelTuple]) -> dict[str, int]:
    """Map each row's tid to its position.

    Raises :class:`ModelError` at the first row, in order, that is not a
    :class:`TupleLevelTuple` or repeats an earlier tid.  The clean case
    runs at C speed; a bad input is walked row by row to name the fault.
    """
    if all(map(isinstance, rows, repeat(TupleLevelTuple))):
        index = dict(zip(map(attrgetter("tid"), rows), range(len(rows))))
        if len(index) == len(rows):
            return index
    index = {}
    for position, row in enumerate(rows):
        if not isinstance(row, TupleLevelTuple):
            raise ModelError(
                f"expected TupleLevelTuple, got {type(row).__name__}"
            )
        if row.tid in index:
            raise ModelError(f"duplicate tuple id {row.tid!r}")
        index[row.tid] = position
    return index


class TupleLevelRelation(VersionMemo):
    """An x-relation: tuples with membership probabilities plus rules.

    Tuples keep insertion order, which doubles as the tie-breaking
    order for equal scores.  Rules not covering every tuple are
    completed with implied singleton rules, made on demand: building a
    relation indexes its tids and checks only the explicit rules, in
    ``O(explicit members)``; :meth:`rule_of` makes an unclaimed tuple's
    singleton on its first lookup and :attr:`rules` lists them all on
    first read.  The relation is immutable; its digest and
    :class:`~repro.core.columnar.TupleColumns` are built on first use
    and kept (:mod:`repro.models.memo`).  ``columns_delta`` is how a
    :class:`~repro.engine.maintenance.MaintainedTupleStore` snapshot
    differs from an earlier version whose columns were built; the
    columns are then derived from those instead of the rows, and the
    delta is dropped once read.  The store vouches for it: a wrong
    delta gives wrong columns.

    Examples
    --------
    The relation of the paper's Figure 4:

    >>> relation = TupleLevelRelation(
    ...     [
    ...         TupleLevelTuple("t1", 100, 0.4),
    ...         TupleLevelTuple("t2", 92, 0.5),
    ...         TupleLevelTuple("t3", 85, 1.0),
    ...         TupleLevelTuple("t4", 80, 0.5),
    ...     ],
    ...     rules=[ExclusionRule("tau2", ["t2", "t4"])],
    ... )
    >>> relation.expected_world_size()
    2.4
    """

    _COLUMNS = "TupleColumns"

    def __init__(
        self,
        tuples: Iterable[TupleLevelTuple],
        rules: Sequence[ExclusionRule] | None = None,
        *,
        columns_delta: TupleColumnsDelta | None = None,
    ) -> None:
        self._tuples: list[TupleLevelTuple] = list(tuples)
        self._index: dict[str, int] = _index_rows(self._tuples)
        # Only explicit rules are checked and kept; an unclaimed tuple's
        # implied singleton is built when asked for (rule_of, rules).
        self._explicit: tuple[ExclusionRule, ...] = tuple(rules or ())
        claimed = claim_members(self._explicit, self._index)
        check_singleton_ids(self._explicit, self._index, claimed)
        # A singleton's mass is its tuple's probability, which
        # TupleLevelTuple has checked; only explicit rules can exceed 1.
        rows, index = self._tuples, self._index
        probability_of = {tid: rows[index[tid]].probability for tid in claimed}
        for rule in self._explicit:
            rule.validate_probabilities(probability_of)
        self._claimed_count = len(claimed)
        # rule_of adds each implied singleton it makes.
        self._rule_of = claimed
        self._rules: tuple[ExclusionRule, ...] | None = None
        self._reset_memo()
        self._columns_delta = columns_delta

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """``N``, the number of tuples."""
        return len(self._tuples)

    @property
    def tuples(self) -> Sequence[TupleLevelTuple]:
        """The tuples in insertion (tie-breaking) order."""
        return tuple(self._tuples)

    @property
    def rules(self) -> Sequence[ExclusionRule]:
        """All rules, explicit first, implied singletons after.

        Built on first read (``O(N)``) and kept; readers that want only
        the multi-member rules read :attr:`explicit_rules` instead.
        """
        rules = self._rules
        # Racing first readers may each build it; the tuples are equal.
        if rules is None:
            rules = self._rules = tuple(
                cover_with_singletons(self._explicit, self._index)
            )
        return rules

    @property
    def explicit_rules(self) -> Sequence[ExclusionRule]:
        """The rules given at construction (a prefix of :attr:`rules`)."""
        return self._explicit

    @property
    def rule_count(self) -> int:
        """``M``, the number of rules (singletons included)."""
        return len(self._explicit) + len(self._index) - self._claimed_count

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[TupleLevelTuple]:
        return iter(self._tuples)

    def __getitem__(self, position: int) -> TupleLevelTuple:
        return self._tuples[position]

    def __contains__(self, tid: object) -> bool:
        return tid in self._index

    def tuple_by_id(self, tid: str) -> TupleLevelTuple:
        """Look a tuple up by its identifier."""
        try:
            return self._tuples[self._index[tid]]
        except KeyError:
            raise ModelError(f"no tuple with id {tid!r}") from None

    def position_of(self, tid: str) -> int:
        """The 0-based insertion position of ``tid``."""
        try:
            return self._index[tid]
        except KeyError:
            raise ModelError(f"no tuple with id {tid!r}") from None

    def tids(self) -> tuple[str, ...]:
        """All tuple identifiers in insertion order."""
        return tuple(self._index)

    def rule_of(self, tid: str) -> ExclusionRule:
        """The unique rule containing ``tid``.

        An unclaimed tuple's implied singleton is made on its first
        lookup and kept; it equals the one in :attr:`rules`.
        """
        try:
            return self._rule_of[tid]
        except KeyError:
            if tid not in self._index:
                raise ModelError(f"no tuple with id {tid!r}") from None
        rule = self._rule_of[tid] = ExclusionRule.singleton(
            f"{SINGLETON_PREFIX}{tid}", tid
        )
        return rule

    def exclusive_with(self, tid_a: str, tid_b: str) -> bool:
        """True when two distinct tuples share an exclusion rule.

        This is the paper's ``t_i ~ t_j`` predicate (``t_i <> t_j`` and
        same rule); ``t_i`` and ``t_j`` in different rules are
        independent (the ``t_i <diamond> t_j`` predicate).
        """
        if tid_a == tid_b:
            return False
        return tid_b in self.rule_of(tid_a)

    # ------------------------------------------------------------------
    # Derived quantities used by the algorithms
    # ------------------------------------------------------------------
    def expected_world_size(self) -> float:
        """``E[|W|] = sum_t p(t)`` — rules do not affect it."""
        return math.fsum(row.probability for row in self._tuples)

    def order_by_score(self) -> list[TupleLevelTuple]:
        """Tuples sorted by decreasing score, ties by insertion order.

        T-ERank and the Section 7 algorithms assume this order: the
        paper's index convention has ``t_1`` as the highest-score tuple.
        """
        return sorted(
            self._tuples,
            key=lambda row: (-row.score, self._index[row.tid]),
        )

    def curtailed(self, tids: Iterable[str]) -> "TupleLevelRelation":
        """The relation cut to ``tids``: those tuples in insertion
        order, each rule cut to its members among them.

        A pruning scan answers from this curtailed database of the
        tuples it has seen; rules keep their ids and member order.
        """
        keep = set(tids)
        rules: list[ExclusionRule] = []
        # Implied singletons never keep two members; skip them.
        for rule in self.explicit_rules:
            members = [tid for tid in rule if tid in keep]
            if len(members) > 1:
                rules.append(ExclusionRule(rule.rule_id, members))
        return TupleLevelRelation(
            (row for row in self._tuples if row.tid in keep), rules=rules
        )

    def instantiate(self, rng) -> list[str]:
        """Draw one possible world: choose at most one member per rule.

        Returns the appearing tuple ids sorted by decreasing score (the
        within-world ranking order).
        """
        appearing: list[TupleLevelTuple] = []
        for rule in self.rules:
            point = rng.random()
            running = 0.0
            for tid in rule:
                running += self.tuple_by_id(tid).probability
                if point < running:
                    appearing.append(self.tuple_by_id(tid))
                    break
        appearing.sort(
            key=lambda row: (-row.score, self._index[row.tid])
        )
        return [row.tid for row in appearing]

    def replace_tuple(
        self, replacement: TupleLevelTuple
    ) -> "TupleLevelRelation":
        """A copy with one tuple swapped in place (rules unchanged).

        Used by the stability tests: the replacement may raise the
        score and/or probability.  Rule totals are revalidated.
        """
        if replacement.tid not in self._index:
            raise ModelError(f"no tuple with id {replacement.tid!r}")
        rows = list(self._tuples)
        rows[self._index[replacement.tid]] = replacement
        return TupleLevelRelation(rows, rules=self.explicit_rules)

    def map_scores(self, transform) -> "TupleLevelRelation":
        """Apply ``transform`` to every score (value-invariance tests)."""
        rows = [
            TupleLevelTuple(
                row.tid,
                transform(row.score),
                row.probability,
                row.attributes,
            )
            for row in self._tuples
        ]
        return TupleLevelRelation(rows, rules=self.explicit_rules)

    def __repr__(self) -> str:
        return (
            f"TupleLevelRelation(N={self.size}, M={self.rule_count}, "
            f"E[|W|]={self.expected_world_size():g})"
        )
