"""The query EXPLAIN API: reports, schema, and trace stitching."""

from __future__ import annotations

import json

import pytest

from repro.engine.query import ResilientExecutor, TopKPlanner
from repro.obs import (
    EXPLAIN_SCHEMA,
    MetricsRegistry,
    NullSink,
    explain,
    get_registry,
    get_sink,
    set_registry,
    set_sink,
    validate_report,
)
from repro.robust import FaultInjector, RetryPolicy


@pytest.fixture
def ambient():
    """Pin the ambient registry/sink so explain's swap is observable."""
    registry = MetricsRegistry(enabled=False)
    previous_registry = set_registry(registry)
    previous_sink = set_sink(NullSink())
    yield registry
    set_sink(previous_sink)
    set_registry(previous_registry)


@pytest.fixture
def workload():
    from repro.bench.workloads import tuple_workload

    return tuple_workload("uu", 120, seed=5)


class TestExplainReport:
    def test_report_satisfies_the_published_schema(
        self, ambient, workload
    ):
        report = explain(workload, 5)
        validate_report(report.to_dict())
        validate_report(json.loads(report.to_json()), EXPLAIN_SCHEMA)

    def test_plan_section_names_method_and_reason(
        self, ambient, workload
    ):
        report = explain(workload, 5, expensive_access=True)
        assert report.plan["method"] == "expected_rank_prune"
        assert "pruned scan" in report.plan["reason"]
        cheap = explain(workload, 5, expensive_access=False)
        assert cheap.plan["method"] == "expected_rank"
        assert "cheap" in cheap.plan["reason"]

    def test_cost_section_reports_accesses_vs_n(
        self, ambient, workload
    ):
        report = explain(workload, 5)
        execution = report.execution
        assert execution["executed"] is True
        assert 0 < execution["tuples_accessed"] <= workload.size
        assert execution["fraction_accessed"] == pytest.approx(
            execution["tuples_accessed"] / workload.size
        )
        assert len(execution["answer"]) == 5

    def test_pruned_run_carries_bound_trajectory(
        self, ambient, workload
    ):
        report = explain(workload, 5)
        assert report.pruning is not None
        trajectory = report.pruning["trajectory"]
        assert trajectory
        assert (
            trajectory[-1]["accessed"]
            == report.execution["tuples_accessed"]
        )

    def test_stage_timings_have_percentiles(self, ambient, workload):
        report = explain(workload, 5)
        assert "explain.query" in report.stages
        assert "query.execute" in report.stages
        # The kernel's own span: the planner picked the pruned scan.
        assert report.plan["method"] == "expected_rank_prune"
        assert report.stages["t_erank_prune"]["count"] == 1
        for stage in report.stages.values():
            assert stage["count"] >= 1
            assert {"p50", "p95", "p99"} <= set(stage)
            assert stage["p50"] <= stage["p99"]

    def test_every_trace_record_shares_the_trace_id(
        self, ambient, workload
    ):
        report = explain(workload, 5)
        assert report.trace
        assert {
            record["trace_id"] for record in report.trace
        } == {report.trace_id}

    def test_dry_run_plans_without_executing(self, ambient, workload):
        report = explain(workload, 5, dry_run=True)
        assert report.execution["executed"] is False
        assert report.execution["dry_run"] is True
        assert report.execution["answer"] == []
        assert report.execution["tuples_accessed"] is None
        assert report.plan["method"]
        validate_report(report.to_dict())
        assert "dry run" in report.describe()

    def test_degradation_shows_up_as_events(self, ambient, workload):
        executor = ResilientExecutor(
            retry=RetryPolicy(max_retries=1, base_delay=0.0),
            injector=FaultInjector(error_rate=1.0, seed=1),
            sleep=lambda _seconds: None,
        )
        report = explain(workload, 5, executor=executor)
        names = [event["name"] for event in report.events]
        assert "retry.exhausted" in names
        assert "robust.degrade" in names
        assert "robust.fallback" in names
        assert report.execution["degraded"] is True
        assert report.execution["fallback_method"] == "mc_expected_rank"
        validate_report(report.to_dict())

    def test_ambient_registry_and_sink_restored(
        self, ambient, workload
    ):
        sink_before = get_sink()
        explain(workload, 3)
        assert get_registry() is ambient
        assert get_sink() is sink_before
        # The swapped-in registry never leaked counters into ours.
        assert ambient.snapshot()["counters"] == {}

    def test_describe_mentions_the_essentials(self, ambient, workload):
        text = explain(workload, 5).describe()
        assert "EXPLAIN" in text
        assert "trace_id=" in text
        assert "plan" in text
        assert "tuples accessed" in text

    def test_explicit_planner_overrides_default(
        self, ambient, workload
    ):
        report = explain(
            workload,
            5,
            planner=TopKPlanner(expensive_access=False),
            expensive_access=True,
        )
        assert report.plan["method"] == "expected_rank"


class TestResilienceEnvelope:
    def test_plain_runs_report_null(self, ambient, workload):
        report = explain(workload, 5)
        assert report.resilience is None
        assert report.to_dict()["resilience"] is None
        assert "resilience" not in report.describe()

    def test_executor_config_lands_in_the_envelope(
        self, ambient, workload
    ):
        executor = ResilientExecutor(
            retry=RetryPolicy(max_retries=2, base_delay=0.0),
            deadline_ms=500.0,
            injector=FaultInjector(error_rate=0.25, seed=9),
            sleep=lambda _seconds: None,
        )
        report = explain(workload, 5, executor=executor)
        envelope = report.resilience
        assert envelope["deadline_ms"] == 500.0
        assert envelope["max_retries"] == 2
        assert envelope["injector"]["error_rate"] == 0.25
        validate_report(report.to_dict())
        rendered = report.describe()
        assert "deadline_ms=500" in rendered
        assert "max_retries=2" in rendered
        assert "inject_faults=0.25" in rendered

    def test_breaker_states_surface_post_run(
        self, ambient, workload
    ):
        from repro.robust import BreakerBoard

        board = BreakerBoard(min_calls=1, window=4)
        executor = ResilientExecutor(
            retry=RetryPolicy(max_retries=0, base_delay=0.0),
            injector=FaultInjector(error_rate=1.0, seed=1),
            breakers=board,
            sleep=lambda _seconds: None,
        )
        report = explain(workload, 5, executor=executor)
        breakers = report.resilience["breakers"]
        assert breakers.get("exact") == "open"
        assert "breaker.exact=open" in report.describe()
        validate_report(report.to_dict())


class TestValidateReport:
    def test_missing_required_key_is_named(self, ambient, workload):
        report = explain(workload, 3).to_dict()
        del report["trace_id"]
        with pytest.raises(ValueError, match="trace_id"):
            validate_report(report)

    def test_wrong_type_is_named_with_its_path(self):
        with pytest.raises(ValueError, match=r"\$\.k"):
            validate_report(
                {"k": "three"},
                {
                    "type": "object",
                    "properties": {"k": {"type": "integer"}},
                },
            )

    def test_enum_mismatch_rejected(self):
        with pytest.raises(ValueError, match="not in"):
            validate_report(
                {"model": "graph"},
                {
                    "type": "object",
                    "properties": {"model": {"enum": ["attribute"]}},
                },
            )

    def test_array_items_checked_by_index(self):
        with pytest.raises(ValueError, match=r"\[1\]"):
            validate_report(
                [1, "two"],
                {"type": "array", "items": {"type": "integer"}},
            )

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ValueError):
            validate_report(True, {"type": "integer"})
