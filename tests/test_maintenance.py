"""Tests for the incrementally maintained tuple store."""

from __future__ import annotations

import random

import pytest

from repro.core import t_erank, tuple_expected_ranks
from repro.datagen.tuple_gen import generate_tuple_relation
from repro.engine import MaintainedTupleStore
from repro.exceptions import EngineError, InvalidRuleError
from repro.models import ExclusionRule
from tests.test_relation_memo import _random_writes


@pytest.fixture
def store():
    s = MaintainedTupleStore()
    s.insert("a", score=10.0, probability=0.5)
    s.insert("b", score=8.0, probability=1.0)
    s.insert("c", score=6.0, probability=0.4, rule="pair")
    s.insert("d", score=4.0, probability=0.5, rule="pair")
    return s


class TestUpdates:
    def test_expected_world_size_maintained(self, store):
        assert store.expected_world_size() == pytest.approx(2.4)
        store.delete("b")
        assert store.expected_world_size() == pytest.approx(1.4)
        store.insert("e", score=1.0, probability=0.25)
        assert store.expected_world_size() == pytest.approx(1.65)
        store.update_probability("a", 0.9)
        assert store.expected_world_size() == pytest.approx(2.05)
        store.validate()

    def test_duplicate_insert_rejected(self, store):
        with pytest.raises(EngineError):
            store.insert("a", score=1.0, probability=0.1)

    def test_rule_overflow_rejected(self, store):
        with pytest.raises(InvalidRuleError):
            store.insert("e", score=1.0, probability=0.2, rule="pair")
        with pytest.raises(InvalidRuleError):
            store.update_probability("c", 0.6)

    def test_delete_unknown(self, store):
        with pytest.raises(EngineError):
            store.delete("zzz")

    def test_delete_frees_rule_mass(self, store):
        store.delete("c")
        store.insert("e", score=2.0, probability=0.5, rule="pair")
        store.validate()

    def test_score_update_repairs_order(self, store):
        assert store.score_order() == ["a", "b", "c", "d"]
        store.update_score("d", 9.0)
        assert store.score_order() == ["a", "d", "b", "c"]
        store.validate()

    def test_score_update_keeps_tie_break_place(self):
        store = MaintainedTupleStore()
        store.insert("a", score=5.0, probability=1.0)
        store.insert("b", score=5.0, probability=1.0)
        store.update_score("a", 5.0)
        assert store.topk(1).tids() == ("a",)
        assert store.score_order() == ["a", "b"]
        assert store.snapshot().tids() == ("a", "b")
        store.validate()

    def test_membership(self, store):
        assert "a" in store
        assert "zzz" not in store
        assert len(store) == 4

    @pytest.mark.parametrize("first_has_rule", [True, False])
    def test_implied_rule_ids_are_reserved(self, first_has_rule):
        # "b" inserted without a rule is filed under "__auto_b"; were
        # a caller allowed that id, "a" and "b" would share one rule,
        # in either insertion order.
        store = MaintainedTupleStore()
        if first_has_rule:
            with pytest.raises(InvalidRuleError, match="__auto_b"):
                store.insert("a", score=5.0, probability=0.5, rule="__auto_b")
            store.insert("b", score=4.0, probability=0.4)
        else:
            store.insert("b", score=4.0, probability=0.4)
            with pytest.raises(InvalidRuleError, match="__auto_b"):
                store.insert("a", score=5.0, probability=0.5, rule="__auto_b")
        store.insert("a", score=5.0, probability=0.5)
        store.validate()
        relation = store.snapshot()
        assert relation.explicit_rules == ()
        assert not relation.exclusive_with("a", "b")
        assert store.expected_world_size() == pytest.approx(0.9)


class TestSnapshots:
    def test_snapshot_matches_contents(self, store):
        relation = store.snapshot()
        assert relation.size == 4
        assert relation.rule_of("c").tids == ("c", "d")
        assert relation.expected_world_size() == pytest.approx(2.4)

    def test_snapshot_of_empty_store(self):
        with pytest.raises(EngineError):
            MaintainedTupleStore().snapshot()

    def test_topk_through_store(self, store):
        result = store.topk(2)
        reference = t_erank(store.snapshot(), 2)
        assert result.tids() == reference.tids()

    def test_from_relation_round_trip(self, store):
        relation = store.snapshot()
        rebuilt = MaintainedTupleStore.from_relation(relation)
        assert rebuilt.expected_world_size() == pytest.approx(
            relation.expected_world_size()
        )
        assert rebuilt.snapshot().tids() == relation.tids()

    def test_rules_follow_membership_changes(self, store):
        first = store.snapshot()
        assert [rule.rule_id for rule in first.explicit_rules] == ["pair"]
        # Untouched rules are shared by the next version.
        store.insert("e", score=3.0, probability=0.2, rule="solo")
        second = store.snapshot()
        assert second.explicit_rules[0] is first.explicit_rules[0]
        assert second.rule_of("e").is_singleton
        # A rule that reaches two members joins, in creation order.
        store.insert("f", score=2.0, probability=0.2, rule="solo")
        store.validate()
        third = store.snapshot()
        members = [(rule.rule_id, rule.tids) for rule in third.explicit_rules]
        assert members == [("pair", ("c", "d")), ("solo", ("e", "f"))]
        # One that falls to one member becomes an implied singleton.
        store.delete("c")
        fourth = store.snapshot()
        assert [rule.rule_id for rule in fourth.explicit_rules] == ["solo"]
        assert fourth.rule_of("d").rule_id == "__singleton_d"
        assert fourth.rule_count == 4
        store.validate()

    def test_rule_promoted_out_of_creation_order(self):
        store = MaintainedTupleStore()
        store.insert("a", score=1.0, probability=0.3, rule="early")
        store.insert("b", score=2.0, probability=0.3, rule="late")
        store.insert("c", score=3.0, probability=0.3, rule="late")
        store.snapshot()
        store.insert("d", score=4.0, probability=0.3, rule="early")
        store.validate()
        explicit = store.snapshot().explicit_rules
        assert [rule.rule_id for rule in explicit] == ["early", "late"]
        store.validate()

    def test_bulk_insert(self):
        s = MaintainedTupleStore()
        s.bulk_insert(
            (f"t{i}", float(i), 0.5) for i in range(10)
        )
        assert len(s) == 10
        assert s.expected_world_size() == pytest.approx(5.0)


class TestSnapshotCost:
    def test_snapshot_builds_only_changed_rules(self, monkeypatch):
        """A snapshot after r writes builds no implied singleton rule
        and at most r rule objects, digest and columns included."""
        store = MaintainedTupleStore.from_relation(
            generate_tuple_relation(
                2000, rule_fraction=0.3, rule_size=2, seed=29
            )
        )
        store.snapshot()
        built = {"rules": 0, "singletons": 0}
        real_init = ExclusionRule.__init__
        real_singleton = ExclusionRule.singleton

        def counting_init(rule, rule_id, tids):
            built["rules"] += 1
            real_init(rule, rule_id, tids)

        def counting_singleton(cls, rule_id, tid):
            built["singletons"] += 1
            return real_singleton(rule_id, tid)

        monkeypatch.setattr(ExclusionRule, "__init__", counting_init)
        monkeypatch.setattr(
            ExclusionRule, "singleton", classmethod(counting_singleton)
        )
        rng = random.Random(29)
        for writes in (1, 4, 16):
            built.update(rules=0, singletons=0)
            done = sum(1 for _ in _random_writes(store, rng, writes))
            snapshot = store.snapshot()
            snapshot.digest()
            snapshot.columns()
            assert built["singletons"] == 0
            assert built["rules"] <= done
        assert len(snapshot.explicit_rules) > 100


class TestRandomisedWorkload:
    def test_interleaved_updates_stay_consistent(self):
        """A churn test: random inserts / deletes / updates keep the
        maintained aggregates equal to from-scratch recomputation, and
        queries over snapshots equal direct T-ERank."""
        rng = random.Random(0)
        store = MaintainedTupleStore()
        alive: list[str] = []
        counter = 0
        for step in range(300):
            action = rng.random()
            if action < 0.5 or not alive:
                tid = f"t{counter}"
                counter += 1
                store.insert(
                    tid,
                    score=rng.uniform(1, 100),
                    probability=rng.uniform(0.05, 1.0),
                )
                alive.append(tid)
            elif action < 0.7:
                tid = alive.pop(rng.randrange(len(alive)))
                store.delete(tid)
            elif action < 0.85:
                store.update_probability(
                    rng.choice(alive), rng.uniform(0.05, 1.0)
                )
            else:
                store.update_score(
                    rng.choice(alive), rng.uniform(1, 100)
                )
            if step % 50 == 49:
                store.validate()
                snapshot = store.snapshot()
                direct = tuple_expected_ranks(snapshot)
                queried = store.topk(min(3, len(snapshot)))
                for item in queried:
                    assert item.statistic == pytest.approx(
                        direct[item.tid]
                    )
