"""Stateful property-based testing of the maintained tuple store.

A hypothesis rule-based state machine drives random interleavings of
inserts, deletes, and updates against :class:`MaintainedTupleStore`,
with a plain-dictionary model as the oracle.  Invariants checked after
every step: the maintained ``E[|W|]`` equals the model's sum, the
score order matches a from-scratch sort, snapshots rank exactly like a
freshly-built relation, and a snapshot equals a relation built fresh
from the model (tuple order, rules, rule lookups and digest).  Inserts
join named rules, so multi-member rules grow, shrink to one member
(an implied singleton) and disappear.

A snapshot's columns are derived from an earlier version's
(``TupleColumnsDelta``); every derived column set must equal, bit for
bit, a build from the rows of a copy of the same snapshot.  Snapshots
that are never read sit between the read ones, so a delta may span
several versions.  A seeded churn-shaped script at N = 2000 runs the
same check on the catalog-churn write mix plus rule and score changes.
"""

from __future__ import annotations

import copy
import math
import random

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import tuple_expected_ranks
from repro.core.columnar import TupleColumns
from repro.datagen.tuple_gen import generate_tuple_relation
from repro.engine import MaintainedTupleStore
from repro.exceptions import InvalidRuleError
from repro.models import ExclusionRule, TupleLevelRelation, TupleLevelTuple

SCORES = st.floats(min_value=1.0, max_value=1000.0, allow_nan=False)
PROBABILITIES = st.floats(
    min_value=0.01, max_value=1.0, allow_nan=False
)
RULES = st.sampled_from([None, None, "g0", "g1", "g2"])


_ARRAYS = (
    "scores",
    "probs",
    "rules",
    "rule_masses",
    "order",
    "members",
    "member_offsets",
)


def assert_columns_match_rows_build(snapshot: TupleLevelRelation) -> bool:
    """Read ``snapshot``'s columns and check them field by field
    against a build from the rows of a copy (which has no delta).

    Returns whether the columns were derived from a delta.
    """
    derived = snapshot._columns_delta is not None
    columns = snapshot.columns()
    assert snapshot._columns_delta is None  # dropped once read
    rebuilt = TupleColumns.from_relation(copy.copy(snapshot))
    for name in _ARRAYS:
        got, want = getattr(columns, name), getattr(rebuilt, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert columns.tids == rebuilt.tids == snapshot.tids()
    assert columns.expected_world_size == rebuilt.expected_world_size
    assert columns.rule_count == snapshot.rule_count
    return derived


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.store = MaintainedTupleStore()
        self.model: dict[str, tuple[float, float]] = {}
        # Members of every named rule, in rule-creation order.
        self.rule_members: dict[str, list[str]] = {}
        self.counter = 0

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    @rule(score=SCORES, probability=PROBABILITIES, rule_id=RULES)
    def insert(self, score, probability, rule_id):
        tid = f"t{self.counter}"
        self.counter += 1
        try:
            self.store.insert(
                tid, score=score, probability=probability, rule=rule_id
            )
        except InvalidRuleError:
            return  # the rule's mass would exceed one; nothing changed
        self.model[tid] = (score, probability)
        if rule_id is not None:
            self.rule_members.setdefault(rule_id, []).append(tid)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        tid = data.draw(st.sampled_from(sorted(self.model)))
        self.store.delete(tid)
        del self.model[tid]
        for rule_id, members in list(self.rule_members.items()):
            if tid in members:
                members.remove(tid)
                if not members:
                    del self.rule_members[rule_id]

    @precondition(lambda self: self.model)
    @rule(data=st.data(), probability=PROBABILITIES)
    def update_probability(self, data, probability):
        tid = data.draw(st.sampled_from(sorted(self.model)))
        try:
            self.store.update_probability(tid, probability)
        except InvalidRuleError:
            return  # the rule's mass would exceed one; nothing changed
        score, _ = self.model[tid]
        self.model[tid] = (score, probability)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), score=SCORES)
    def update_score(self, data, score):
        tid = data.draw(st.sampled_from(sorted(self.model)))
        self.store.update_score(tid, score)
        _, probability = self.model[tid]
        self.model[tid] = (score, probability)

    @rule()
    def skip_snapshot(self):
        # A version that is never read: the next delta spans it.
        if self.model:
            self.store.snapshot().digest()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def derived_columns_match_rows_build(self):
        if self.model:
            assert_columns_match_rows_build(self.store.snapshot())

    @invariant()
    def expected_world_size_matches_model(self):
        expected = math.fsum(
            probability for _, probability in self.model.values()
        )
        assert abs(
            self.store.expected_world_size() - expected
        ) < 1e-6

    @invariant()
    def internal_audit_passes(self):
        self.store.validate()

    @invariant()
    def score_order_is_sorted(self):
        order = self.store.score_order()
        scores = [self.model[tid][0] for tid in order]
        assert scores == sorted(scores, reverse=True)

    @invariant()
    def snapshot_ranks_like_fresh_relation(self):
        if not self.model:
            return
        snapshot = self.store.snapshot()
        direct = tuple_expected_ranks(snapshot)
        queried = self.store.topk(min(2, len(snapshot)))
        for item in queried:
            assert abs(item.statistic - direct[item.tid]) < 1e-9

    @invariant()
    def snapshot_equals_fresh_relation(self):
        if not self.model:
            return
        snapshot = self.store.snapshot()
        fresh = TupleLevelRelation(
            [
                TupleLevelTuple(tid, score, probability)
                for tid, (score, probability) in self.model.items()
            ],
            rules=[
                ExclusionRule(rule_id, members)
                for rule_id, members in self.rule_members.items()
                if len(members) > 1
            ],
        )
        assert snapshot.tids() == tuple(self.model)
        assert snapshot.rules == fresh.rules
        assert snapshot.rule_count == fresh.rule_count
        for tid in self.model:
            assert snapshot.rule_of(tid) == fresh.rule_of(tid)
        assert snapshot.digest() == fresh.digest()


StoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestMaintainedStoreStateMachine = StoreMachine.TestCase


@pytest.mark.parametrize("seed", [1, 2])
def test_churn_script_derives_identical_columns(seed):
    """The catalog-churn write mix at N = 2000 (inserts, deletes and
    probability updates of free tuples), plus score updates and writes
    that make rules grow, shrink to a singleton, vanish and re-form.
    Every third snapshot is never read."""
    rng = random.Random(seed)
    store = MaintainedTupleStore.from_relation(
        generate_tuple_relation(
            2000, rule_fraction=0.3, rule_size=3, seed=seed
        )
    )
    assert_columns_match_rows_build(store.snapshot())
    derived = 0
    for cycle in range(24):
        tids = store.score_order()
        for position in range(10):
            rule = rng.choice((None, None, None, "g0", f"r{cycle % 5}"))
            try:
                store.insert(
                    f"c{cycle}n{position}",
                    score=rng.choice((rng.uniform(1.0, 1000.0), 500.0)),
                    probability=rng.uniform(0.02, 0.3),
                    rule=rule,
                )
            except InvalidRuleError:
                pass  # the rule is full; nothing changed
        for tid in rng.sample(tids, 7):
            store.delete(tid)
        for tid in rng.sample(store.score_order(), 8):
            try:
                store.update_probability(tid, rng.uniform(0.02, 0.3))
            except InvalidRuleError:
                pass
        for tid in rng.sample(store.score_order(), 3):
            # Ties at 500.0 exercise the access order's position
            # tie-break; an unchanged score keeps the row in place.
            score = rng.choice(
                (rng.uniform(1.0, 1000.0), 500.0, store._rows[tid].score)
            )
            store.update_score(tid, score)
        snapshot = store.snapshot()
        if cycle % 3 == 2:
            continue  # never read
        derived += assert_columns_match_rows_build(snapshot)
        store.validate()
    # Every snapshot read in the loop had a base to derive from.
    assert derived == 16
