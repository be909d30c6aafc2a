"""The observability layer: registry, spans, sinks, kernel spans."""

from __future__ import annotations

import json
import logging
import threading

import pytest

from repro.core.tuple_expected_rank import (
    t_erank_prune,
    tuple_expected_ranks,
)
from repro.engine.access import AccessCounter, score_cursor
from repro.engine.query import TopKPlanner
from repro.exceptions import RankingError
from repro.obs import (
    JsonlSink,
    LoggingSink,
    MetricsRegistry,
    NullSink,
    configure,
    count,
    current_trace_id,
    emit_event,
    metrics_enabled,
    parse_prometheus,
    set_registry,
    set_sink,
    to_prometheus,
    trace,
)


class _Capture:
    """A sink that keeps every record for assertions."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture
def registry():
    """A fresh enabled registry installed as the default, then removed."""
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    previous_sink = set_sink(NullSink())
    yield fresh
    set_sink(previous_sink)
    set_registry(previous)


class TestRegistry:
    def test_counter_accumulates(self, registry):
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        assert registry.counter("c").value == 5

    def test_counter_identity_is_stable(self, registry):
        assert registry.counter("c") is registry.counter("c")

    def test_gauge_last_write_wins(self, registry):
        registry.gauge("g").set(1.0)
        registry.gauge("g").set(7.5)
        assert registry.gauge("g").value == 7.5

    def test_histogram_aggregates(self, registry):
        histogram = registry.histogram("h")
        for value in (2.0, 1.0, 4.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 7.0
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.mean == pytest.approx(7.0 / 3.0)

    def test_snapshot_is_plain_json_data(self, registry):
        registry.counter("c").inc(2)
        registry.gauge("g").set(3.0)
        registry.histogram("h").observe(0.5)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["counters"]["c"] == 2
        assert snapshot["gauges"]["g"] == 3.0
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_reset_zeroes_everything(self, registry):
        registry.counter("c").inc(9)
        registry.histogram("h").observe(1.0)
        registry.reset()
        assert registry.snapshot()["counters"]["c"] == 0
        assert registry.snapshot()["histograms"]["h"]["count"] == 0

    def test_count_helper_uses_default_registry(self, registry):
        count("helper", 3)
        assert registry.counter("helper").value == 3


class TestDisabledMode:
    def test_disabled_registry_hands_out_noops(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc(5)
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(2.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}

    def test_disable_stops_recording_but_keeps_values(self, registry):
        registry.counter("c").inc(2)
        registry.disable()
        registry.counter("c").inc(100)
        assert registry.snapshot()["counters"]["c"] == 2
        registry.enable()
        registry.counter("c").inc()
        assert registry.snapshot()["counters"]["c"] == 3

    def test_trace_is_noop_while_disabled(self, registry):
        registry.disable()
        handle = trace("nothing", n=1)
        with handle:
            pass
        assert handle.span_id is None
        assert "span.nothing.seconds" not in (
            registry.snapshot()["histograms"]
        )

    def test_kernel_off_path_records_nothing(self, registry, fig4):
        registry.disable()
        sink = _Capture()
        set_sink(sink)
        assert t_erank_prune(fig4, 2).items
        assert tuple_expected_ranks(fig4)
        registry.enable()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}
        assert sink.records == []

    def test_disabled_kernel_error_passes_through(self, registry, fig4):
        registry.disable()
        sink = _Capture()
        set_sink(sink)
        with pytest.raises(RankingError, match="k must be >= 0"):
            t_erank_prune(fig4, -1)
        registry.enable()
        assert registry.snapshot()["histograms"] == {}
        assert sink.records == []

    def test_configure_round_trip(self, registry):
        configure(enabled=False)
        assert not metrics_enabled()
        configure(enabled=True)
        assert metrics_enabled()


class TestSpans:
    def test_span_records_duration_histogram(self, registry):
        with trace("op", n=10):
            pass
        summary = registry.snapshot()["histograms"]["span.op.seconds"]
        assert summary["count"] == 1

    def test_nested_spans_link_parent(self, registry):
        captured = []

        class Capture:
            def emit(self, span):
                captured.append(span)

        set_sink(Capture())
        with trace("outer") as outer:
            with trace("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert [span["name"] for span in captured] == ["inner", "outer"]
        assert captured[0]["parent_id"] == captured[1]["span_id"]

    def test_span_captures_error_and_reraises(self, registry):
        captured = []

        class Capture:
            def emit(self, span):
                captured.append(span)

        set_sink(Capture())
        with pytest.raises(ValueError):
            with trace("boom"):
                raise ValueError("bad")
        assert captured[0]["error"] == "ValueError: bad"
        histograms = registry.snapshot()["histograms"]
        assert histograms["span.boom.seconds"]["count"] == 1

    def test_logging_sink_emits_one_record(self, registry, caplog):
        set_sink(LoggingSink())
        with caplog.at_level(logging.INFO, logger="repro.obs"):
            with trace("logged"):
                pass
        assert any("logged" in record.message for record in caplog.records)

    def test_jsonl_sink_round_trip(self, registry, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        set_sink(sink)
        with trace("first", n=3):
            pass
        with trace("second"):
            pass
        sink.write({"type": "metrics", "extra": True})
        sink.close()
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert [line["type"] for line in lines] == [
            "span", "span", "metrics",
        ]
        assert lines[0]["name"] == "first"
        assert lines[0]["attributes"] == {"n": 3}
        assert lines[0]["duration_seconds"] >= 0.0


class TestKernelInstrumentation:
    def test_t_erank_records_tuples_accessed(self, registry, fig4):
        ranks = tuple_expected_ranks(fig4)
        assert len(ranks) == 4
        snapshot = registry.snapshot()
        # The exact pass reads every tuple of the Figure 4 relation.
        assert snapshot["counters"]["t_erank.tuples_accessed"] == 4
        # One kernel call is one span: its histogram count is the
        # call count.
        assert snapshot["histograms"]["span.t_erank.seconds"]["count"] == 1

    def test_kernel_span_nests_in_the_query_trace(self, registry, fig4):
        sink = _Capture()
        set_sink(sink)
        TopKPlanner().execute(fig4, 2)
        spans = {record["span_id"]: record for record in sink.records}
        (kernel,) = [s for s in spans.values() if s["name"] == "t_erank"]
        (root,) = [s for s in spans.values() if s["parent_id"] is None]
        assert root["name"] == "query.execute"
        assert kernel["trace_id"] == root["trace_id"]
        ancestor = kernel
        while ancestor["parent_id"] is not None:
            ancestor = spans[ancestor["parent_id"]]
        assert ancestor is root

    def test_prune_counter_matches_result_metadata(self, registry, fig4):
        result = t_erank_prune(fig4, 2)
        snapshot = registry.snapshot()
        assert (
            snapshot["counters"]["t_erank_prune.tuples_accessed"]
            == result.metadata["tuples_accessed"]
        )

    def test_planner_counts_method_and_accesses(self, registry, fig4):
        result = TopKPlanner().execute(fig4, 2)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["query.method.expected_rank"] == 1
        assert (
            snapshot["counters"]["query.tuples_accessed"]
            == result.metadata["tuples_accessed"]
        )
        assert (
            snapshot["histograms"]["span.query.execute.seconds"]["count"]
            == 1
        )

    def test_results_identical_with_obs_on_and_off(self, registry, fig4):
        enabled = tuple_expected_ranks(fig4)
        registry.disable()
        disabled = tuple_expected_ranks(fig4)
        assert enabled == disabled


class TestKernelSpans:
    """A kernel's span is its timer: count is calls, sum is seconds."""

    def test_kernel_span_records_calls_and_seconds(self, registry, fig4):
        t_erank_prune(fig4, 1)
        t_erank_prune(fig4, 2)
        histograms = registry.snapshot()["histograms"]
        summary = histograms["span.t_erank_prune.seconds"]
        assert summary["count"] == 2
        assert summary["total"] >= 0.0
        # The span histogram is the only timer: no separate
        # ``<kernel>.calls`` / ``<kernel>.seconds`` instruments.
        assert "t_erank_prune.seconds" not in histograms
        assert "t_erank_prune.calls" not in (
            registry.snapshot()["counters"]
        )

    def test_kernel_span_records_even_when_kernel_raises(
        self, registry, fig4
    ):
        sink = _Capture()
        set_sink(sink)
        with pytest.raises(RankingError):
            t_erank_prune(fig4, -1)
        histograms = registry.snapshot()["histograms"]
        assert histograms["span.t_erank_prune.seconds"]["count"] == 1
        (span,) = sink.records
        assert span["name"] == "t_erank_prune"
        assert span["error"].startswith("RankingError")


class TestAccessCounter:
    def test_zero_latency_never_sleeps(self, monkeypatch):
        def forbidden(_seconds):
            raise AssertionError("time.sleep entered with zero latency")

        monkeypatch.setattr("repro.engine.access.time.sleep", forbidden)
        counter = AccessCounter()
        for _ in range(100):
            counter.charge()
        assert counter.count == 100

    def test_reset_allows_reuse_across_repetitions(self, fig4):
        counter = AccessCounter()
        for _ in score_cursor(fig4, counter):
            pass
        assert counter.count == 4
        counter.reset()
        assert counter.count == 0
        for _ in score_cursor(fig4, counter):
            pass
        assert counter.count == 4

    def test_charge_flows_into_registry(self, registry, fig4):
        counter = AccessCounter()
        for _ in score_cursor(fig4, counter):
            pass
        assert (
            registry.snapshot()["counters"]["engine.tuples_accessed"] == 4
        )

    def test_charge_skips_registry_when_disabled(self, registry, fig4):
        registry.disable()
        counter = AccessCounter()
        counter.charge()
        registry.enable()
        assert "engine.tuples_accessed" not in (
            registry.snapshot()["counters"]
        )


class TestTraceIds:
    def test_root_span_mints_trace_id(self, registry):
        with trace("root") as span:
            assert span.trace_id is not None
            assert current_trace_id() == span.trace_id
        assert current_trace_id() is None

    def test_nested_spans_inherit_the_trace_id(self, registry):
        sink = _Capture()
        set_sink(sink)
        with trace("outer") as outer:
            with trace("inner") as inner:
                assert inner.trace_id == outer.trace_id
        ids = {record["trace_id"] for record in sink.records}
        assert ids == {outer.trace_id}

    def test_separate_roots_get_distinct_ids(self, registry):
        with trace("first") as first:
            pass
        with trace("second") as second:
            pass
        assert first.trace_id != second.trace_id

    def test_emit_event_carries_ambient_ids(self, registry):
        sink = _Capture()
        set_sink(sink)
        with trace("op") as span:
            emit_event("checkpoint", step=3)
        event = next(
            record
            for record in sink.records
            if record["type"] == "event"
        )
        assert event["name"] == "checkpoint"
        assert event["trace_id"] == span.trace_id
        assert event["span_id"] == span.span_id
        assert event["attributes"] == {"step": 3}

    def test_event_outside_any_span_has_null_ids(self, registry):
        sink = _Capture()
        set_sink(sink)
        emit_event("orphan")
        assert sink.records[0]["trace_id"] is None
        assert sink.records[0]["span_id"] is None

    def test_events_free_while_disabled(self, registry):
        sink = _Capture()
        set_sink(sink)
        registry.disable()
        emit_event("nothing")
        assert sink.records == []

    def test_null_span_has_no_trace_id(self, registry):
        registry.disable()
        with trace("off") as span:
            assert span.trace_id is None

    def test_query_log_entry_records_the_trace_id(self, registry, fig4):
        from repro.engine.database import ProbabilisticDatabase

        sink = _Capture()
        set_sink(sink)
        db = ProbabilisticDatabase()
        db.create_relation("r", fig4)
        db.topk("r", 2)
        entry = db.query_log[-1]
        assert entry.trace_id is not None
        span_ids = {
            record["trace_id"]
            for record in sink.records
            if record["type"] == "span"
        }
        # Every span of the query carries the logged trace id.
        assert span_ids == {entry.trace_id}

    def test_query_log_trace_id_none_while_disabled(
        self, registry, fig4
    ):
        from repro.engine.database import ProbabilisticDatabase

        registry.disable()
        db = ProbabilisticDatabase()
        db.create_relation("r", fig4)
        db.topk("r", 2)
        assert db.query_log[-1].trace_id is None

    def test_resilient_result_metadata_links_to_spans(
        self, registry, fig4
    ):
        from repro.engine.query import ResilientExecutor

        sink = _Capture()
        set_sink(sink)
        result = ResilientExecutor().execute(fig4, 2)
        trace_id = result.metadata["trace_id"]
        assert trace_id is not None
        names = {
            record["name"]
            for record in sink.records
            if record["trace_id"] == trace_id
        }
        assert {"robust.execute", "robust.rung"} <= names


class TestBucketHistogram:
    def test_cumulative_buckets_are_monotone_and_end_at_count(
        self, registry
    ):
        histogram = registry.histogram("h")
        for value in (0.5e-6, 3e-6, 5e-6, 100.0):
            histogram.observe(value)
        pairs = histogram.cumulative_buckets()
        counts = [count_ for _, count_ in pairs]
        assert counts == sorted(counts)
        assert pairs[-1] == (float("inf"), 4)

    def test_quantile_lands_in_the_right_bucket(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("h", buckets=[1.0, 2.0, 4.0, 8.0])
        for value in (0.5, 1.5, 1.6, 3.0, 7.0):
            histogram.observe(value)
        # The median sample (1.5, 1.6 region) lies in the (1, 2]
        # bucket; interpolation must answer inside it.
        assert 1.0 <= histogram.quantile(0.5) <= 2.0
        assert histogram.quantile(0.0) == pytest.approx(0.5)
        assert histogram.quantile(1.0) == pytest.approx(7.0)

    def test_quantile_clamped_to_observed_range(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("h", buckets=[10.0, 20.0])
        histogram.observe(12.0)
        # One sample in (10, 20]: naive interpolation would answer a
        # bucket edge; the clamp pins it to the only observed value.
        assert histogram.quantile(0.5) == pytest.approx(12.0)

    def test_empty_histogram_answers_zero(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("h")
        assert histogram.quantile(0.5) == 0.0
        assert histogram.percentiles() == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_quantile_rejects_out_of_range(self):
        from repro.obs.metrics import Histogram

        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_summary_includes_percentiles(self, registry):
        histogram = registry.histogram("h")
        histogram.observe(1.0)
        summary = histogram.summary()
        assert {"p50", "p95", "p99"} <= set(summary)

    def test_reset_clears_bucket_counts(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("h")
        histogram.observe(1.0)
        histogram.reset()
        assert histogram.cumulative_buckets()[-1] == (float("inf"), 0)

    def test_percentiles_order_on_skewed_data(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("h")
        for _ in range(99):
            histogram.observe(1e-6)
        histogram.observe(10.0)
        percentiles = histogram.percentiles()
        assert (
            percentiles["p50"]
            <= percentiles["p95"]
            <= percentiles["p99"]
        )
        assert percentiles["p50"] == pytest.approx(1e-6)


class TestPrometheusExport:
    def test_counter_gets_total_suffix_and_type_line(self, registry):
        registry.counter("demo.calls").inc(3)
        text = to_prometheus(registry)
        assert "# TYPE repro_demo_calls_total counter" in text
        assert "repro_demo_calls_total 3" in text
        assert text.endswith("\n")

    def test_gauge_and_histogram_families(self, registry):
        registry.gauge("load").set(0.5)
        registry.histogram("lat").observe(1.0)
        text = to_prometheus(registry)
        assert "# TYPE repro_load gauge" in text
        assert "# TYPE repro_lat histogram" in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_sum 1" in text
        assert "repro_lat_count 1" in text

    def test_invalid_characters_sanitised(self, registry):
        registry.counter("span.query-execute/total").inc()
        text = to_prometheus(registry)
        assert "repro_span_query_execute_total_total 1" in text

    def test_empty_registry_exports_empty_string(self):
        assert to_prometheus(MetricsRegistry(enabled=True)) == ""

    def test_round_trip_through_parser(self, registry):
        registry.counter("a.calls").inc(2)
        registry.gauge("b").set(7.0)
        histogram = registry.histogram("c")
        histogram.observe(3e-6)
        histogram.observe(1.0)
        families = parse_prometheus(to_prometheus(registry))
        assert families["repro_a_calls_total"]["type"] == "counter"
        assert (
            families["repro_a_calls_total"]["samples"][0]["value"] == 2
        )
        assert families["repro_b"]["samples"][0]["value"] == 7.0
        histogram_family = families["repro_c"]
        assert histogram_family["type"] == "histogram"
        names = {
            sample["name"] for sample in histogram_family["samples"]
        }
        assert {
            "repro_c_bucket", "repro_c_sum", "repro_c_count",
        } == names
        inf_bucket = [
            sample
            for sample in histogram_family["samples"]
            if sample["labels"].get("le") == "+Inf"
        ]
        assert inf_bucket[0]["value"] == 2

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus("not a metric line at all !!!\n")

    def test_registry_method_delegates(self, registry):
        registry.counter("x").inc()
        assert registry.to_prometheus() == to_prometheus(registry)


class TestJsonlSinkConcurrency:
    def test_nested_spans_from_many_threads_stay_atomic(
        self, registry, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        set_sink(sink)

        def work(index):
            with trace("outer", worker=index):
                with trace("inner", worker=index):
                    pass

        threads = [
            threading.Thread(target=work, args=(index,))
            for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sink.close()
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        # Every record parses (no interleaved partial writes) and
        # every worker contributed its two spans.
        assert len(lines) == 16
        workers = {
            line["attributes"]["worker"] for line in lines
        }
        assert workers == set(range(8))

    def test_thread_trace_ids_do_not_leak_across_threads(
        self, registry, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        set_sink(sink)

        def work(index):
            with trace("root", worker=index):
                pass

        threads = [
            threading.Thread(target=work, args=(index,))
            for index in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sink.close()
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        # Each thread's root span minted its own trace id.
        assert len({line["trace_id"] for line in lines}) == 6


class TestPruneTrajectory:
    def test_tuple_prune_records_trajectory(self, registry):
        from repro.bench.workloads import tuple_workload

        relation = tuple_workload("uu", 200, seed=5)
        result = t_erank_prune(relation, 5)
        trajectory = result.metadata["prune_trajectory"]
        assert trajectory
        accessed = [point["accessed"] for point in trajectory]
        assert accessed == sorted(accessed)
        assert accessed[-1] == result.metadata["tuples_accessed"]
        final = trajectory[-1]
        assert {"accessed", "kth_rank", "unseen_bound"} <= set(final)

    def test_attr_prune_records_trajectory(self, registry):
        from repro.bench.workloads import attribute_workload
        from repro.core.attr_expected_rank import a_erank_prune

        relation = attribute_workload("zipf", 120, seed=5)
        result = a_erank_prune(relation, 5)
        trajectory = result.metadata["prune_trajectory"]
        assert trajectory
        assert (
            trajectory[-1]["accessed"]
            == result.metadata["tuples_accessed"]
        )

    def test_no_trajectory_while_disabled(self, registry, fig4):
        registry.disable()
        result = t_erank_prune(fig4, 2)
        assert "prune_trajectory" not in result.metadata

    def test_answers_identical_with_and_without_trajectory(
        self, registry
    ):
        from repro.bench.workloads import tuple_workload

        relation = tuple_workload("uu", 150, seed=9)
        enabled = t_erank_prune(relation, 5)
        registry.disable()
        disabled = t_erank_prune(relation, 5)
        assert enabled.tids() == disabled.tids()
        assert (
            enabled.metadata["tuples_accessed"]
            == disabled.metadata["tuples_accessed"]
        )


class TestJsonlSinkMaxBytes:
    def test_cap_writes_truncation_notice(self, tmp_path):
        path = tmp_path / "capped.jsonl"
        sink = JsonlSink(path, max_bytes=40)
        first = {"type": "span", "name": "keep"}
        sink.write(first)
        for index in range(5):
            sink.write({"type": "span", "name": f"drop{index}"})
        sink.close()
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert lines[0]["name"] == "keep"
        assert lines[-1]["type"] == "truncation_notice"
        assert lines[-1]["max_bytes"] == 40
        assert sink.truncated is True
        # One record tripped the cap, four more were dropped after.
        assert sink.dropped_records == 5

    def test_no_cap_never_truncates(self, tmp_path):
        path = tmp_path / "free.jsonl"
        sink = JsonlSink(path)
        for index in range(50):
            sink.write({"i": index})
        sink.close()
        assert sink.truncated is False
        assert sink.dropped_records == 0
        assert len(path.read_text().splitlines()) == 50

    def test_non_positive_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "bad.jsonl", max_bytes=0)

    def test_file_stays_at_or_under_cap_plus_notice(self, tmp_path):
        path = tmp_path / "capped.jsonl"
        cap = 200
        sink = JsonlSink(path, max_bytes=cap)
        for index in range(20):
            sink.write({"type": "span", "name": "x" * 10, "i": index})
        sink.close()
        lines = path.read_text().splitlines()
        # Every line except the final notice fits within the cap.
        payload = sum(len(line) + 1 for line in lines[:-1])
        assert payload <= cap
        assert json.loads(lines[-1])["type"] == "truncation_notice"
