"""Observability: metrics, spans, capture, and the admin-plane views.

The layer the benchmarks, the CLI and CI's perf smoke all read from:

* :class:`MetricsRegistry` — process-local counters, gauges, and
  histograms (:mod:`repro.obs.metrics`);
* :func:`trace` — spans with pluggable sinks: no-op, stdlib logging,
  or JSON lines (:mod:`repro.obs.trace`).  Spans are the one wall
  timer: each ranking kernel opens one (``with trace("t_erank"):``),
  so its time is the ``span.<name>.seconds`` histogram and its call
  count that histogram's ``count``;
* :func:`explain` — one query run under a fresh registry, folded into
  a schema-validated :class:`ExplainReport`
  (:mod:`repro.obs.explain`);
* :func:`to_prometheus` / :func:`parse_prometheus` — registry
  snapshots in Prometheus text exposition format
  (:mod:`repro.obs.export`);
* :class:`CostLedger` — per-query resource accounting: wall and CPU
  seconds, tuples accessed, the answering rung (:mod:`repro.obs.costs`);
* :func:`query_scope` — one record per executed query, from which
  its capture line and ledger entry are written (:mod:`repro.obs.scope`);
* :class:`SamplingProfiler` — stdlib-only continuous sampling
  profiler with collapsed-stack and speedscope output
  (:mod:`repro.obs.profiler`);
* :class:`CaptureLog` / :func:`replay_capture` / :func:`build_report`
  / :func:`to_chrome_trace` — durable workload capture, deterministic
  replay with per-query regression verdicts, session-wide reports,
  and Perfetto-loadable trace export (:mod:`repro.obs.capture`,
  :mod:`repro.obs.replay`, :mod:`repro.obs.report`,
  :mod:`repro.obs.chrome_trace`).

Spans carry per-query trace ids: the outermost span mints one, nested
spans and :func:`emit_event` records inherit it, and
``ProbabilisticDatabase.topk`` stamps it into the query log.

Everything is **off by default and free while off**: the hot ranking
kernels check one flag per call and skip all bookkeeping.  Turn
collection on per process with :func:`configure`, per registry with
:meth:`MetricsRegistry.enable`, or ambiently with ``REPRO_METRICS=1``.

>>> from repro.obs import configure, get_registry, trace
>>> configure(enabled=True)
>>> with trace("demo", n=3):
...     get_registry().counter("demo.tuples").inc(3)
>>> get_registry().snapshot()["counters"]["demo.tuples"]
3
>>> configure(enabled=False)
"""

from __future__ import annotations

from repro.obs.capture import (
    CaptureLog,
    answer_digest,
    get_capture,
    read_jsonl,
    relation_digest,
    set_capture,
)
from repro.obs.chrome_trace import (
    build_span_tree,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.costs import (
    CostEntry,
    CostLedger,
    get_cost_ledger,
    set_cost_ledger,
)
from repro.obs.explain import (
    EXPLAIN_SCHEMA,
    ExplainReport,
    explain,
    validate_report,
)
from repro.obs.replay import (
    QueryReplay,
    ReplayReport,
    replay_capture,
)
from repro.obs.report import SessionReport, build_report
from repro.obs.scope import query_scope
from repro.obs.export import (
    OPENMETRICS_CONTENT_TYPE,
    escape_help,
    escape_label_value,
    parse_prometheus,
    to_openmetrics,
    to_prometheus,
)
from repro.obs.flight import (
    FlightRecorder,
    get_flight_recorder,
    notify_anomaly,
    set_flight_recorder,
)
from repro.obs.logging import (
    StructuredLogger,
    bind_tenant,
    configure_logging,
    current_tenant,
    get_logger,
    logging_configured,
)
from repro.obs.slo import (
    SLOEngine,
    SLOSpec,
    SLOStatus,
    parse_slo_specs,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    count,
    get_registry,
    metrics_enabled,
    set_registry,
)
from repro.obs.profiler import SamplingProfiler, validate_speedscope
from repro.obs.trace import (
    JsonlSink,
    LoggingSink,
    NullSink,
    Sink,
    current_span_id,
    current_trace_id,
    emit_event,
    get_sink,
    set_sink,
    trace,
)

__all__ = [
    "EXPLAIN_SCHEMA",
    "OPENMETRICS_CONTENT_TYPE",
    "CaptureLog",
    "CostEntry",
    "CostLedger",
    "Counter",
    "ExplainReport",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "LoggingSink",
    "MetricsRegistry",
    "NullSink",
    "QueryReplay",
    "ReplayReport",
    "SLOEngine",
    "SLOSpec",
    "SLOStatus",
    "SamplingProfiler",
    "SessionReport",
    "Sink",
    "StructuredLogger",
    "answer_digest",
    "bind_tenant",
    "build_report",
    "build_span_tree",
    "configure",
    "configure_logging",
    "count",
    "current_span_id",
    "current_tenant",
    "current_trace_id",
    "emit_event",
    "escape_help",
    "escape_label_value",
    "explain",
    "get_capture",
    "get_cost_ledger",
    "get_flight_recorder",
    "get_logger",
    "get_registry",
    "get_sink",
    "logging_configured",
    "metrics_enabled",
    "notify_anomaly",
    "parse_prometheus",
    "parse_slo_specs",
    "query_scope",
    "read_jsonl",
    "relation_digest",
    "replay_capture",
    "set_capture",
    "set_cost_ledger",
    "set_flight_recorder",
    "set_registry",
    "set_sink",
    "to_chrome_trace",
    "to_openmetrics",
    "to_prometheus",
    "trace",
    "validate_report",
    "validate_speedscope",
    "write_chrome_trace",
]


def configure(
    *,
    enabled: bool | None = None,
    sink: Sink | None = None,
) -> None:
    """One-call setup: flip collection on/off and/or install a sink.

    ``configure(enabled=True, sink=JsonlSink("trace.jsonl"))`` is the
    typical whole-process opt-in; omitted arguments leave the current
    state alone.
    """
    if enabled is not None:
        registry = get_registry()
        if enabled:
            registry.enable()
        else:
            registry.disable()
    if sink is not None:
        set_sink(sink)
