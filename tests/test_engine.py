"""Tests for the mini probabilistic database engine."""

from __future__ import annotations

import pytest

from repro.engine import (
    AccessCounter,
    ProbabilisticDatabase,
    SortedAccessCursor,
    TopKPlanner,
    expected_score_cursor,
    load_attribute_csv,
    load_json,
    load_tuple_csv,
    save_attribute_csv,
    save_json,
    save_tuple_csv,
    score_cursor,
)
from repro.engine.database import QUERY_LOG_LIMIT
from repro.exceptions import (
    EngineError,
    RelationNotFoundError,
    SchemaError,
)
from repro.models import (
    AttributeLevelRelation,
    AttributeTuple,
    DiscretePDF,
    TupleLevelRelation,
    TupleLevelTuple,
)


class TestDatabaseCatalog:
    def test_create_and_query(self, fig2, fig4):
        db = ProbabilisticDatabase()
        db.create_relation("attr", fig2)
        db.create_relation("tup", fig4)
        assert set(db.relation_names()) == {"attr", "tup"}
        assert "attr" in db
        assert len(db) == 2
        assert db.topk("attr", 2).tids() == ("t2", "t3")
        assert db.topk("tup", 1, method="u_topk").tids() == ("t1",)

    def test_duplicate_name_rejected(self, fig2):
        db = ProbabilisticDatabase()
        db.create_relation("r", fig2)
        with pytest.raises(EngineError):
            db.create_relation("r", fig2)

    def test_empty_name_rejected(self, fig2):
        with pytest.raises(EngineError):
            ProbabilisticDatabase().create_relation("", fig2)

    def test_missing_relation(self):
        db = ProbabilisticDatabase()
        with pytest.raises(RelationNotFoundError):
            db.relation("ghost")
        with pytest.raises(RelationNotFoundError):
            db.drop_relation("ghost")

    def test_replace_and_drop(self, fig2, fig4):
        db = ProbabilisticDatabase()
        db.create_relation("r", fig2)
        db.replace_relation("r", fig4)
        assert db.describe("r")["model"] == "tuple"
        db.drop_relation("r")
        assert "r" not in db

    def test_describe(self, fig2, fig4):
        db = ProbabilisticDatabase()
        db.create_relation("attr", fig2)
        db.create_relation("tup", fig4)
        attr = db.describe("attr")
        assert attr["possible_worlds"] == 4
        tup = db.describe("tup")
        assert tup["expected_world_size"] == pytest.approx(2.4)
        assert tup["rules"] == 3

    def test_query_log(self, fig2):
        db = ProbabilisticDatabase()
        db.create_relation("r", fig2)
        db.topk("r", 2)
        db.topk("r", 1, method="u_topk")
        log = db.query_log
        assert len(log) == 2
        assert log[0].method == "expected_rank"
        assert log[0].answer == ("t2", "t3")
        assert log[1].method == "u_topk"
        db.clear_query_log()
        assert db.query_log == ()

    def test_query_log_keeps_only_the_latest_entries(self, fig2):
        db = ProbabilisticDatabase()
        db.create_relation("r", fig2)
        for k in range(QUERY_LOG_LIMIT + 5):
            db.topk("r", k, method="expected_score")
        log = db.query_log
        assert len(log) == QUERY_LOG_LIMIT
        assert [entry.k for entry in log] == list(
            range(5, QUERY_LOG_LIMIT + 5)
        )

    def test_save_and_load_round_trip(self, fig2, fig4, tmp_path):
        db = ProbabilisticDatabase()
        db.create_relation("attr", fig2)
        db.create_relation("tup", fig4)
        db.save(tmp_path / "catalog")
        loaded = ProbabilisticDatabase.load(tmp_path / "catalog")
        assert set(loaded.relation_names()) == {"attr", "tup"}
        assert loaded.topk("attr", 3).tids() == db.topk("attr", 3).tids()
        assert loaded.topk("tup", 4).tids() == db.topk("tup", 4).tids()

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(EngineError):
            ProbabilisticDatabase.load(tmp_path / "nope")


class TestSerialization:
    def test_attribute_csv_round_trip(self, fig2, tmp_path):
        path = tmp_path / "attr.csv"
        save_attribute_csv(fig2, path)
        loaded = load_attribute_csv(path)
        assert loaded.tids() == fig2.tids()
        for tid in fig2.tids():
            assert loaded.tuple_by_id(tid).score == fig2.tuple_by_id(
                tid
            ).score

    def test_tuple_csv_round_trip(self, fig4, tmp_path):
        path = tmp_path / "tup.csv"
        save_tuple_csv(fig4, path)
        loaded = load_tuple_csv(path)
        assert loaded.tids() == fig4.tids()
        assert loaded.rule_of("t2").tids == ("t2", "t4")
        assert loaded.tuple_by_id("t1").probability == pytest.approx(0.4)

    def test_json_round_trip_preserves_attributes(self, tmp_path):
        relation = TupleLevelRelation(
            [TupleLevelTuple("x", 5.0, 0.5, {"source": "radar"})]
        )
        path = tmp_path / "rel.json"
        save_json(relation, path)
        loaded = load_json(path)
        assert loaded.tuple_by_id("x").attributes == {"source": "radar"}

    def test_attribute_json_round_trip(self, fig2, tmp_path):
        path = tmp_path / "rel.json"
        save_json(fig2, path)
        loaded = load_json(path)
        assert isinstance(loaded, AttributeLevelRelation)
        assert loaded.tuple_by_id("t1").score == fig2.tuple_by_id(
            "t1"
        ).score

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tid,value\na,1\n")
        with pytest.raises(SchemaError):
            load_attribute_csv(path)

    def test_csv_bad_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tid,value,probability\na,oops,1.0\n")
        with pytest.raises(SchemaError):
            load_attribute_csv(path)

    def test_json_unknown_model(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": "martian", "tuples": []}')
        with pytest.raises(SchemaError):
            load_json(path)


class TestAccessInstrumentation:
    def test_cursor_counts(self, fig2):
        counter = AccessCounter()
        cursor = expected_score_cursor(fig2, counter)
        first = next(cursor)
        assert first.tid == "t2"  # highest expected score
        assert counter.count == 1
        assert cursor.remaining() == 2
        list(cursor)
        assert counter.count == 3
        assert cursor.exhausted

    def test_score_cursor_order(self, fig4):
        cursor = score_cursor(fig4)
        tids = [row.tid for row in cursor]
        assert tids == ["t1", "t2", "t3", "t4"]

    def test_counter_reset(self):
        counter = AccessCounter()
        counter.charge()
        counter.reset()
        assert counter.count == 0

    def test_negative_latency_rejected(self):
        with pytest.raises(EngineError):
            AccessCounter(latency_seconds=-1.0)

    def test_cursor_stops(self):
        cursor = SortedAccessCursor([1, 2])
        assert list(cursor) == [1, 2]
        with pytest.raises(StopIteration):
            next(cursor)


class TestPlanner:
    def test_cheap_access_stays_exact(self, fig2):
        plan = TopKPlanner().plan(fig2, 2)
        assert plan.method == "expected_rank"
        assert "cheap" in plan.reason

    def test_expensive_access_prefers_prune(self, fig2):
        plan = TopKPlanner(expensive_access=True).plan(fig2, 2)
        assert plan.method == "expected_rank_prune"

    def test_nonpositive_scores_block_attribute_pruning(self):
        relation = AttributeLevelRelation(
            [AttributeTuple("a", DiscretePDF([-5.0], [1.0]))]
        )
        plan = TopKPlanner(expensive_access=True).plan(relation, 1)
        assert plan.method == "expected_rank"
        assert "Markov" in plan.reason

    def test_unprunable_method_stays_exact(self, fig4):
        plan = TopKPlanner(expensive_access=True).plan(
            fig4, 2, method="u_topk"
        )
        assert plan.method == "u_topk"

    def test_median_gets_quantile_prune(self, fig4):
        plan = TopKPlanner(expensive_access=True).plan(
            fig4, 2, method="median_rank"
        )
        assert plan.method == "quantile_rank_prune"
        assert plan.options["phi"] == 0.5

    def test_boundary_phi_blocks_pruning(self, fig4):
        plan = TopKPlanner(expensive_access=True).plan(
            fig4, 2, method="quantile_rank", phi=1.0
        )
        assert plan.method == "quantile_rank"

    def test_execute_matches_exact_answer(self, fig4):
        planner = TopKPlanner(expensive_access=True)
        result = planner.execute(fig4, 2)
        assert result.tids() == ("t3", "t1")

    def test_negative_k(self, fig4):
        with pytest.raises(EngineError):
            TopKPlanner().plan(fig4, -1)
