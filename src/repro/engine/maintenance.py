"""Incrementally maintained x-relation store (paper Section 6.2).

T-ERank-Prune needs ``E[|W|]`` before the scan starts, and the paper
notes it "can be efficiently maintained in O(1) time when D is updated
with deletion or insertion of tuples" because it is just the sum of
membership probabilities.  :class:`MaintainedTupleStore` provides that
contract: an updatable tuple-level relation that keeps ``E[|W|]``
under insert / delete / probability updates in ``O(1)``, and
materialises an immutable :class:`TupleLevelRelation` snapshot on
demand for querying.  No score order is kept under writes (neither a
snapshot nor its columns reads one); :meth:`score_order` sorts on
demand.  Rule membership is declared at insert time; a rule's
remaining members keep their semantics when one is deleted.

A snapshot's Python work is proportional to the change since the last
one: rows are kept in a dict in insertion order (an update keeps the
row's place), so a snapshot is one ``O(N)`` pointer copy of the rows;
each multi-member rule keeps its immutable :class:`ExclusionRule`,
shared by every version, and only rules whose membership changed are
rebuilt.  The relation builds no implied singleton rules up front.

The first read of a snapshot is priced by the change too.  The store
keeps the :class:`~repro.core.columnar.TupleColumns` of its newest
version whose columns were built (the *base*) and a log of the writes
since; each snapshot carries a
:class:`~repro.core.columnar.TupleColumnsDelta` from the base, so its
columns are derived with ``O(N)`` numpy work and Python work per
change.  The digest shares the rows' and rules' kept JSON fragments
(:func:`~repro.obs.capture.relation_digest`).
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple, cast

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.result import TopKResult

from repro.core.columnar import TupleColumnsDelta
from repro.exceptions import EngineError, InvalidRuleError
from repro.models.pdf import PROBABILITY_TOLERANCE
from repro.models.rules import ExclusionRule
from repro.models.tuple_level import TupleLevelRelation, TupleLevelTuple

__all__ = ["IMPLIED_PREFIX", "MaintainedTupleStore"]

#: Id prefix of the rule a tuple inserted without ``rule=`` is filed
#: under: ``__auto_<tid>``.  A caller's rule id may not start with it,
#: so no caller can name, and join, another tuple's implied rule.
IMPLIED_PREFIX = "__auto_"


class _Version(NamedTuple):
    """What the store keeps of a snapshot to derive later snapshots'
    columns from: its columns (or its columns memo slot, filled when
    the snapshot is first read), tid index and explicit rules; not the
    snapshot itself, whose digest and tables may be large."""

    columns: Any
    index: dict[str, int]
    rules: tuple[ExclusionRule, ...]


class MaintainedTupleStore:
    """An updatable tuple-level relation with O(1) ``E[|W|]``.

    Examples
    --------
    >>> store = MaintainedTupleStore()
    >>> store.insert("a", score=10.0, probability=0.5)
    >>> store.insert("b", score=8.0, probability=1.0)
    >>> store.expected_world_size()
    1.5
    >>> store.delete("a")
    >>> store.expected_world_size()
    1.0
    """

    def __init__(self) -> None:
        self._rows: dict[str, TupleLevelTuple] = {}
        self._rule_of: dict[str, str] = {}
        self._rule_members: dict[str, list[str]] = {}
        self._rule_mass: dict[str, float] = {}
        # Insertion counter at which each rule was created; rules are
        # ordered by it, as ``_rule_members`` is.
        self._rule_born: dict[str, int] = {}
        # Multi-member rules in ``_rule_members`` order, each with its
        # rule object, or None when its membership changed since the
        # object was built.
        self._multi: dict[str, ExclusionRule | None] = {}
        self._multi_ordered = True
        # ``_multi``'s rule objects as the last snapshot took them, or
        # None once ``_multi`` changed; an unchanged tuple is handed to
        # every snapshot, so a version shares it with the one before.
        self._explicit: tuple[ExclusionRule, ...] | None = ()
        self._expected_world_size = 0.0
        # Insertions so far; stamps each new rule's ``_rule_born``.
        self._counter = 0
        # Column hand-off (see snapshot()): the last snapshot, the base,
        # and the writes since the base, or since the last snapshot
        # when there is no base; ``_log_mark`` is where the writes
        # since the last snapshot start.  Nothing is logged before the
        # first snapshot.
        self._last: _Version | None = None
        self._base: _Version | None = None
        self._log: list[tuple[str, str]] = []
        self._log_mark = 0
        #: Monotone mutation counter; ranking views compare against it
        #: to detect staleness.
        self.version = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(
        self,
        tid: str,
        *,
        score: float,
        probability: float,
        rule: str | None = None,
    ) -> None:
        """Add a tuple, optionally joining the named exclusion rule.

        Raises when the id exists, the rule id starts with
        :data:`IMPLIED_PREFIX` or the rule's mass would exceed one.
        """
        if tid in self._rows:
            raise EngineError(f"tuple {tid!r} already exists")
        if rule is None:
            rule_id = f"{IMPLIED_PREFIX}{tid}"
        elif isinstance(rule, str) and rule.startswith(IMPLIED_PREFIX):
            raise InvalidRuleError(
                f"rule id {rule!r} uses the prefix {IMPLIED_PREFIX!r} "
                "reserved for implied rules"
            )
        else:
            rule_id = rule
        row = TupleLevelTuple(tid, score, probability)
        new_mass = self._rule_mass.get(rule_id, 0.0) + row.probability
        if new_mass > 1.0 + PROBABILITY_TOLERANCE:
            raise InvalidRuleError(
                f"rule {rule_id!r} mass would reach {new_mass:g} > 1"
            )
        self._rows[tid] = row
        self._rule_of[tid] = rule_id
        members = self._rule_members.get(rule_id)
        if members is None:
            members = self._rule_members[rule_id] = []
            self._rule_born[rule_id] = self._counter
        members.append(tid)
        self._membership_changed(rule_id, members)
        self._rule_mass[rule_id] = new_mass
        self._expected_world_size += row.probability
        self._counter += 1
        self._logged("insert", tid)

    def delete(self, tid: str) -> None:
        """Remove a tuple; its rule keeps the remaining members."""
        row = self._pop_checked(tid)
        self._expected_world_size -= row.probability
        self._logged("delete", tid)

    def update_probability(self, tid: str, probability: float) -> None:
        """Change a membership probability in ``O(1)`` (plus rule
        revalidation)."""
        row = self._require(tid)
        rule_id = self._rule_of[tid]
        new_mass = (
            self._rule_mass[rule_id] - row.probability + probability
        )
        if new_mass > 1.0 + PROBABILITY_TOLERANCE:
            raise InvalidRuleError(
                f"rule {rule_id!r} mass would reach {new_mass:g} > 1"
            )
        updated = TupleLevelTuple(
            tid, row.score, probability, row.attributes
        )
        self._rule_mass[rule_id] = new_mass
        self._expected_world_size += probability - row.probability
        self._rows[tid] = updated
        self._logged("update", tid)

    def update_score(self, tid: str, score: float) -> None:
        """Change a score in ``O(1)``.

        The tuple keeps its place in insertion order, so its place in
        the tie-break order (and in a snapshot) does not move.
        """
        row = self._require(tid)
        self._rows[tid] = TupleLevelTuple(
            tid, score, row.probability, row.attributes
        )
        self._logged("update", tid)

    def _logged(self, kind: str, tid: str) -> None:
        """Count a write and log it for the next snapshot's columns.

        A log longer than the store would cost more to replay than a
        build from the rows; the hand-off is then dropped, and the
        next snapshot builds from its rows and starts a new one.
        """
        self.version += 1
        if self._last is None:
            return
        log = self._log
        log.append((kind, tid))
        if len(log) > len(self._rows):
            self._last = self._base = None
            log.clear()
            self._log_mark = 0

    def _pop_checked(self, tid: str) -> TupleLevelTuple:
        row = self._require(tid)
        del self._rows[tid]
        rule_id = self._rule_of.pop(tid)
        members = self._rule_members[rule_id]
        members.remove(tid)
        self._membership_changed(rule_id, members)
        self._rule_mass[rule_id] -= row.probability
        if not members:
            del self._rule_members[rule_id]
            del self._rule_mass[rule_id]
            del self._rule_born[rule_id]
        return row

    def _membership_changed(self, rule_id: str, members: list[str]) -> None:
        """Drop ``rule_id``'s rule object; keep ``_multi`` in step.

        A rule that falls to one member leaves ``_multi`` (its tuple
        becomes an implied singleton); one that reaches two joins it,
        and ``_multi`` is re-sorted at the next snapshot unless the
        rule was created after every rule already there.
        """
        multi = self._multi
        if len(members) < 2:
            if rule_id in multi:
                del multi[rule_id]
                self._explicit = None
            return
        self._explicit = None
        if rule_id not in multi and multi:
            last = next(reversed(multi))
            if self._rule_born[last] > self._rule_born[rule_id]:
                self._multi_ordered = False
        multi[rule_id] = None

    def _require(self, tid: str) -> TupleLevelTuple:
        try:
            return self._rows[tid]
        except KeyError:
            raise EngineError(f"no tuple {tid!r} in the store") from None

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, tid: object) -> bool:
        return tid in self._rows

    def expected_world_size(self) -> float:
        """``E[|W|]``, maintained incrementally — the O(1) guarantee."""
        return self._expected_world_size

    def score_order(self) -> list[str]:
        """Tuple ids by decreasing score (insertion tie-break).

        Sorted on demand, ``O(N log N)``: the sort is stable, and the
        rows are kept in insertion order.
        """
        rows = sorted(
            self._rows.values(), key=attrgetter("score"), reverse=True
        )
        return [row.tid for row in rows]

    def snapshot(self) -> TupleLevelRelation:
        """An immutable relation reflecting the current contents.

        Tuples are emitted in insertion order (an update keeps the
        tuple's place); multi-member rules are carried over in the
        order they were created.  Cost: one ``O(N)`` pointer copy of
        the rows plus the relation's tid index, a new rule object for
        each rule whose membership changed since the last snapshot,
        and ``O(members)`` rule checks; no sort and no implied
        singleton rules.

        The snapshot carries a columns delta from the newest version
        whose columns were built (the last snapshot, if it was read),
        so its first read derives its columns instead of building
        them from the rows.
        """
        if not self._rows:
            raise EngineError("cannot snapshot an empty store")
        rules = self._explicit
        if rules is None:
            rules = self._explicit = self._rebuild_rules()
        rows = list(self._rows.values())
        self._promote_last()
        relation = TupleLevelRelation(
            rows, rules=rules, columns_delta=self._columns_delta()
        )
        self._last = _Version(
            relation._columns_memo, relation._index, relation.explicit_rules
        )
        if self._base is None:
            self._log.clear()
        self._log_mark = len(self._log)
        return relation

    def _rebuild_rules(self) -> tuple[ExclusionRule, ...]:
        """``_multi``'s rules in creation order, with a new rule object
        for each rule whose membership changed."""
        multi = self._multi
        if not self._multi_ordered:
            born = self._rule_born
            self._multi = multi = dict(
                sorted(multi.items(), key=lambda item: born[item[0]])
            )
            self._multi_ordered = True
        members = self._rule_members
        stale = [rule_id for rule_id, rule in multi.items() if rule is None]
        for rule_id in stale:
            multi[rule_id] = ExclusionRule(rule_id, members[rule_id])
        # Every value is a rule object again.
        return cast("tuple[ExclusionRule, ...]", tuple(multi.values()))

    def _promote_last(self) -> None:
        """Make the last snapshot the base if its columns were built;
        the log then starts at that snapshot."""
        last = self._last
        if last is None:
            return
        columns = last.columns.peek()
        if columns is not None:
            self._base = last._replace(columns=columns)
            del self._log[: self._log_mark]
            self._log_mark = 0

    def _columns_delta(self) -> TupleColumnsDelta | None:
        """Replay the log against the base: the base positions of the
        base rows since deleted and the base rows since updated."""
        base = self._base
        if base is None:
            return None
        inserted: set[str] = set()
        dropped: list[int] = []
        updated: dict[str, None] = {}
        for kind, tid in self._log:
            if kind == "insert":
                inserted.add(tid)
            elif tid in inserted:
                if kind == "delete":
                    inserted.discard(tid)
            elif kind == "delete":
                dropped.append(base.index[tid])
                updated.pop(tid, None)
            else:
                updated[tid] = None
        dropped.sort()
        return TupleColumnsDelta(
            base=base.columns,
            base_rules=base.rules,
            dropped=np.array(dropped, dtype=np.int64),
            updated=tuple(updated),
        )

    def topk(
        self, k: int, method: str = "expected_rank", **options
    ) -> TopKResult:
        """Query the current snapshot through the semantics registry."""
        from repro.core.semantics import rank

        return rank(self.snapshot(), k, method=method, **options)

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    @classmethod
    def from_relation(
        cls, relation: TupleLevelRelation
    ) -> "MaintainedTupleStore":
        """Seed a store from an immutable relation."""
        store = cls()
        rule_of = {
            tid: rule.rule_id
            for rule in relation.explicit_rules
            if not rule.is_singleton
            for tid in rule
        }
        for row in relation:
            store.insert(
                row.tid,
                score=row.score,
                probability=row.probability,
                rule=rule_of.get(row.tid),
            )
        return store

    def bulk_insert(
        self,
        rows: Iterable[tuple[str, float, float]],
    ) -> None:
        """Insert ``(tid, score, probability)`` triples (no rules)."""
        for tid, score, probability in rows:
            self.insert(tid, score=score, probability=probability)

    def validate(self) -> None:
        """Internal-consistency audit (used by tests).

        Recomputes every maintained aggregate from scratch and raises
        on drift beyond floating-point tolerance.
        """
        recomputed = math.fsum(
            row.probability for row in self._rows.values()
        )
        if abs(recomputed - self._expected_world_size) > 1e-6:
            raise EngineError(
                f"E[|W|] drifted: maintained "
                f"{self._expected_world_size!r} vs recomputed "
                f"{recomputed!r}"
            )
        multi = [
            rule_id
            for rule_id, members in self._rule_members.items()
            if len(members) > 1
        ]
        born = self._rule_born
        cached = list(self._multi)
        if not self._multi_ordered:
            cached.sort(key=born.__getitem__)
        if cached != multi:
            raise EngineError("multi-member rule cache out of sync")
        explicit = self._explicit
        if explicit is not None and (
            [rule.rule_id for rule in explicit] != multi
            or any(
                rule is not self._multi[rule.rule_id] for rule in explicit
            )
        ):
            raise EngineError("snapshot rule tuple out of sync")
        for rule_id, rule in self._multi.items():
            members = tuple(self._rule_members[rule_id])
            if rule is not None and rule.tids != members:
                raise EngineError(f"cached rule {rule_id!r} has stale members")
        for rule_id, members in self._rule_members.items():
            mass = math.fsum(
                self._rows[tid].probability for tid in members
            )
            if abs(mass - self._rule_mass[rule_id]) > 1e-6:
                raise EngineError(
                    f"rule {rule_id!r} mass drifted"
                )
