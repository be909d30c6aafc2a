"""EXPLAIN for ranking queries: one report per query, fully traced.

``explain`` runs (or, with ``dry_run``, only plans) a top-k ranking
query under a fresh metrics registry and a capturing span sink, then
folds everything observable about that single query into one
:class:`ExplainReport`:

* the planner's chosen method and its stated reason;
* the paper's cost metric — tuples accessed versus relation size —
  plus the pruning-bound trajectory when a pruned scan ran;
* per-stage wall times with p50/p95/p99 from the bucketed histograms;
* retry / degradation events, linked by the query's ``trace_id``;
* the resilience envelope the query ran under — deadline, retry
  policy, fault injection, circuit-breaker states — whenever an
  executor was supplied (``null`` for plain engine runs).

The report is plain data (``to_dict`` / ``to_json``) with a published
:data:`EXPLAIN_SCHEMA`; :func:`validate_report` checks a report
against it using a small JSON-Schema subset, so CI can assert the
contract without third-party validators.  The ambient registry and
sink are restored on exit, and any previously configured sink still
receives the spans (the capture forwards), so EXPLAIN never hides a
trace that was being written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import Sink, get_sink, set_sink, trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.query import ResilientExecutor, TopKPlanner
    from repro.models.attribute import AttributeLevelRelation
    from repro.models.tuple_level import TupleLevelRelation

    Relation = AttributeLevelRelation | TupleLevelRelation

__all__ = [
    "EXPLAIN_SCHEMA",
    "ExplainReport",
    "explain",
    "validate_report",
]

#: The report contract, as the JSON-Schema subset
#: :func:`validate_report` understands (``type`` / ``properties`` /
#: ``required`` / ``items`` / ``enum``).  ``schema_version`` bumps on
#: breaking changes.
EXPLAIN_SCHEMA: dict = {
    "type": "object",
    "required": [
        "schema_version",
        "trace_id",
        "relation",
        "query",
        "plan",
        "execution",
        "stages",
        "events",
        "counters",
    ],
    "properties": {
        "schema_version": {"type": "integer"},
        "trace_id": {"type": "string"},
        "relation": {
            "type": "object",
            "required": ["model", "tuples"],
            "properties": {
                "model": {"enum": ["attribute", "tuple"]},
                "tuples": {"type": "integer"},
            },
        },
        "query": {
            "type": "object",
            "required": ["k", "method", "options"],
            "properties": {
                "k": {"type": "integer"},
                "method": {"type": "string"},
                "options": {"type": "object"},
            },
        },
        "plan": {
            "type": "object",
            "required": ["method", "reason"],
            "properties": {
                "method": {"type": "string"},
                "reason": {"type": "string"},
            },
        },
        "execution": {
            "type": "object",
            "required": ["executed", "dry_run", "degraded"],
            "properties": {
                "executed": {"type": "boolean"},
                "dry_run": {"type": "boolean"},
                "answer": {"type": "array", "items": {"type": "string"}},
                "tuples_accessed": {"type": ["integer", "null"]},
                "fraction_accessed": {"type": ["number", "null"]},
                "degraded": {"type": "boolean"},
                "fallback_method": {"type": ["string", "null"]},
                "wall_seconds": {"type": ["number", "null"]},
            },
        },
        "pruning": {"type": ["object", "null"]},
        "resilience": {"type": ["object", "null"]},
        "stages": {"type": "object"},
        "events": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "attributes"],
                "properties": {
                    "name": {"type": "string"},
                    "attributes": {"type": "object"},
                },
            },
        },
        "counters": {"type": "object"},
    },
}

_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: (
        isinstance(value, int) and not isinstance(value, bool)
    ),
    "number": lambda value: (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    ),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


def validate_report(
    report: object, schema: Mapping | None = None, *, path: str = "$"
) -> None:
    """Check ``report`` against ``schema`` (default the EXPLAIN one).

    Understands the JSON-Schema subset used by
    :data:`EXPLAIN_SCHEMA` — ``type`` (string or list), ``required``,
    ``properties``, ``items``, and ``enum`` — and raises
    :class:`ValueError` naming the offending path on the first
    mismatch.  Silence means the report satisfies the contract.
    """
    schema = EXPLAIN_SCHEMA if schema is None else schema
    declared = schema.get("type")
    if declared is not None:
        allowed = [declared] if isinstance(declared, str) else declared
        if not any(
            _TYPE_CHECKS[name](report) for name in allowed
        ):
            raise ValueError(
                f"{path}: expected {' | '.join(allowed)}, "
                f"got {type(report).__name__}"
            )
    if "enum" in schema and report not in schema["enum"]:
        raise ValueError(
            f"{path}: {report!r} not in {schema['enum']!r}"
        )
    if isinstance(report, dict):
        for key in schema.get("required", ()):
            if key not in report:
                raise ValueError(f"{path}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in report:
                validate_report(
                    report[key], subschema, path=f"{path}.{key}"
                )
    if isinstance(report, list) and "items" in schema:
        for index, item in enumerate(report):
            validate_report(
                item, schema["items"], path=f"{path}[{index}]"
            )


def _json_safe(value: object) -> object:
    """Recursively coerce to JSON-serialisable data (repr fallback)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return repr(value)


class _CaptureSink:
    """Records every span/event; forwards to the previous sink."""

    def __init__(self, forward: Sink | None = None) -> None:
        self.records: list[dict] = []
        self.forward = forward

    def emit(self, record: dict) -> None:
        self.records.append(record)
        if self.forward is not None:
            self.forward.emit(record)


@dataclass(frozen=True)
class ExplainReport:
    """Everything observable about one ranking query, as plain data."""

    trace_id: str
    relation: dict
    query: dict
    plan: dict
    execution: dict
    pruning: dict | None
    stages: dict
    events: list
    counters: dict
    #: The resilience configuration the query ran under (deadline,
    #: retries, injector, breaker states); ``None`` without executor.
    resilience: dict | None = None
    schema_version: int = 2
    #: Raw span/event records, for tooling that reconstructs the tree.
    trace: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """The report as a JSON-serialisable dict (schema-valid)."""
        return {
            "schema_version": self.schema_version,
            "trace_id": self.trace_id,
            "relation": self.relation,
            "query": self.query,
            "plan": self.plan,
            "execution": self.execution,
            "pruning": self.pruning,
            "resilience": self.resilience,
            "stages": self.stages,
            "events": self.events,
            "counters": self.counters,
            "trace": self.trace,
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def describe(self) -> str:
        """A human-readable rendering for terminal output."""
        lines = [f"EXPLAIN  trace_id={self.trace_id}"]
        lines.append(
            f"relation  {self.relation['model']}-level, "
            f"{self.relation['tuples']} tuples"
        )
        options = self.query.get("options") or {}
        suffix = (
            " " + " ".join(
                f"{key}={value}" for key, value in sorted(options.items())
            )
            if options
            else ""
        )
        lines.append(
            f"query     top-{self.query['k']} "
            f"{self.query['method']}{suffix}"
        )
        lines.append(
            f"plan      {self.plan['method']} — {self.plan['reason']}"
        )
        execution = self.execution
        if not execution["executed"]:
            lines.append("execution skipped (dry run)")
            return "\n".join(lines)
        answer = ", ".join(execution.get("answer") or ()) or "(empty)"
        lines.append(f"answer    {answer}")
        accessed = execution.get("tuples_accessed")
        if accessed is not None:
            fraction = execution.get("fraction_accessed")
            percent = (
                f" ({fraction * 100.0:.1f}% of relation)"
                if fraction is not None
                else ""
            )
            lines.append(f"cost      {accessed} tuples accessed{percent}")
        if execution.get("degraded"):
            lines.append(
                "degraded  answered by fallback "
                f"{execution.get('fallback_method')!r}"
            )
        if self.resilience is not None:
            deadline = self.resilience.get("deadline_ms")
            parts = [
                "deadline_ms="
                + ("none" if deadline is None else f"{deadline:g}"),
                f"max_retries={self.resilience.get('max_retries')}",
            ]
            if self.resilience.get("injector") is not None:
                rate = self.resilience["injector"].get("error_rate")
                parts.append(f"inject_faults={rate:g}")
            breakers = self.resilience.get("breakers") or {}
            for name, state in sorted(breakers.items()):
                parts.append(f"breaker.{name}={state}")
            lines.append("resilience " + " ".join(parts))
        if self.pruning is not None:
            points = self.pruning.get("trajectory") or []
            if points:
                last = points[-1]
                lines.append(
                    f"pruning   bound trajectory, {len(points)} "
                    f"checkpoints; final unseen_bound="
                    f"{last.get('unseen_bound')}"
                )
        for name in sorted(self.stages):
            stage = self.stages[name]
            lines.append(
                f"stage     {name}: {stage['count']}x "
                f"total={stage['total_seconds'] * 1e3:.3f}ms "
                f"p50={stage['p50'] * 1e3:.3f}ms "
                f"p95={stage['p95'] * 1e3:.3f}ms "
                f"p99={stage['p99'] * 1e3:.3f}ms"
            )
        for event in self.events:
            attributes = " ".join(
                f"{key}={value}"
                for key, value in sorted(event["attributes"].items())
            )
            lines.append(f"event     {event['name']} {attributes}")
        return "\n".join(lines)


def _stage_timings(registry: MetricsRegistry) -> dict:
    """Per-stage wall-time summaries from ``span.*.seconds``."""
    stages: dict[str, dict] = {}
    for name, histogram in registry._histograms.items():
        if not (name.startswith("span.") and name.endswith(".seconds")):
            continue
        stage = name[len("span."):-len(".seconds")]
        stages[stage] = {
            "count": histogram.count,
            "total_seconds": histogram.total,
            "mean_seconds": histogram.mean,
            **histogram.percentiles(),
        }
    return stages


def explain(
    relation: "Relation",
    k: int,
    method: str = "expected_rank",
    *,
    planner: "TopKPlanner | None" = None,
    executor: "ResilientExecutor | None" = None,
    dry_run: bool = False,
    expensive_access: bool = True,
    **options,
) -> ExplainReport:
    """Run (or plan) a top-k query and report everything observed.

    A fresh enabled registry and a capturing sink are swapped in for
    the duration of the call — so the report's stage timings and
    counters describe *this* query only — and restored afterwards;
    the previously configured sink still receives every span.  With
    ``dry_run`` the query is planned but not executed.  ``executor``
    routes execution through a
    :class:`~repro.engine.query.ResilientExecutor` so the report can
    show retries and degradations; otherwise the plan runs directly.
    ``expensive_access`` configures the default planner (ignored when
    ``planner`` is given).
    """
    from repro.engine.query import TopKPlanner
    from repro.models.attribute import AttributeLevelRelation

    if planner is None:
        planner = (
            executor.planner
            if executor is not None
            else TopKPlanner(expensive_access=expensive_access)
        )
    registry = MetricsRegistry(enabled=True)
    capture = _CaptureSink(forward=get_sink())
    previous_registry = set_registry(registry)
    set_sink(capture)
    try:
        with trace(
            "explain.query", method=method, k=k, n=relation.size
        ) as root:
            plan = planner.plan(relation, k, method, **dict(options))
            result = None
            if not dry_run:
                if executor is not None:
                    result = executor.execute(
                        relation, k, method=method, **options
                    )
                else:
                    result = plan.execute(relation, k)
        trace_id = root.trace_id
    finally:
        set_registry(previous_registry)
        set_sink(capture.forward)

    assert trace_id is not None  # registry was enabled
    n = relation.size
    model = (
        "attribute"
        if isinstance(relation, AttributeLevelRelation)
        else "tuple"
    )
    from repro.obs.capture import query_outcome, resilience_config

    metadata = dict(result.metadata) if result is not None else {}
    outcome = None if result is None else query_outcome(result)
    accessed = outcome and outcome.tuples_accessed
    root_record = next(
        (
            record
            for record in capture.records
            if record.get("type") == "span"
            and record.get("name") == "explain.query"
        ),
        None,
    )
    execution = {
        "executed": result is not None,
        "dry_run": dry_run,
        "resilient": bool(metadata.get("resilient", False)),
        "answer": list(result.tids()) if result is not None else [],
        "method_run": result.method if result is not None else None,
        "tuples_accessed": accessed,
        "fraction_accessed": (
            accessed / n if accessed is not None and n else None
        ),
        "degraded": bool(outcome and outcome.degraded),
        "fallback_method": outcome and outcome.fallback_method,
        "ladder": _json_safe(metadata.get("ladder", [])),
        "attempts": metadata.get("attempts"),
        "faults_survived": metadata.get("faults_survived"),
        "wall_seconds": (
            root_record.get("duration_seconds")
            if root_record is not None
            else None
        ),
    }
    trajectory = metadata.get("prune_trajectory")
    pruning = (
        {"trajectory": _json_safe(list(trajectory))}
        if trajectory is not None
        else None
    )
    resilience = resilience_config(executor)
    if resilience is not None:
        # Post-run breaker states: a rung that tripped during this
        # query shows up as open/half_open right here in the report.
        if executor is not None and executor.breakers is not None:
            resilience["breakers"] = executor.breakers.states()
        resilience = _json_safe(resilience)
    events = [
        {
            "name": record["name"],
            "attributes": _json_safe(record.get("attributes", {})),
        }
        for record in capture.records
        if record.get("type") == "event"
    ]
    report = ExplainReport(
        trace_id=trace_id,
        relation={"model": model, "tuples": n},
        query={
            "k": k,
            "method": method,
            "options": _json_safe(dict(options)),
        },
        plan={
            "method": plan.method,
            "reason": plan.reason,
            "options": _json_safe(dict(plan.options)),
        },
        execution=execution,
        pruning=pruning,
        resilience=resilience,
        stages=_stage_timings(registry),
        events=events,
        counters=dict(registry.snapshot()["counters"]),
        trace=[_json_safe(record) for record in capture.records],
    )
    validate_report(report.to_dict())
    return report
