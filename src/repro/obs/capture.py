"""Workload capture: a durable JSONL record of every executed query.

A :class:`CaptureLog` appends one JSON object per ranking query — the
dataset's content digest, the request (``k``/method/options), what
actually ran (plan, trace id, tuples accessed, wall time, retry and
degradation outcomes), and a stable digest of the ranked answer.  The
resulting file is the unit of reproducibility: :mod:`repro.obs.replay`
re-runs it against the current code and diffs the digests, and
:mod:`repro.obs.report` aggregates it into a session report.

Capture is ambient, like the span sink: install a log with
:func:`set_capture` (the CLI's ``--capture-out`` does this per
invocation) and every query that flows through
``ProbabilisticDatabase.topk``, a
:class:`~repro.engine.query.ResilientExecutor`, the serving core, or
the ``topk`` CLI is written once, when its query scope
(:func:`repro.obs.scope.query_scope`) closes.  :func:`query_outcome`
is the one reading of ``result.metadata`` that the capture line, the
cost-ledger entry and the query log share.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string
from operator import attrgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Mapping

from repro.obs.explain import _json_safe
from repro.obs.metrics import count
from repro.obs.trace import JsonlSink, current_trace_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.result import TopKResult
    from repro.engine.query import ResilientExecutor
    from repro.models.attribute import AttributeLevelRelation
    from repro.models.tuple_level import TupleLevelRelation

    Relation = AttributeLevelRelation | TupleLevelRelation

__all__ = [
    "CAPTURE_SCHEMA_VERSION",
    "CaptureLog",
    "QueryOutcome",
    "answer_digest",
    "get_capture",
    "query_outcome",
    "read_jsonl",
    "relation_digest",
    "resilience_config",
    "set_capture",
]

#: Bumped on breaking changes to the capture record layout.
CAPTURE_SCHEMA_VERSION = 1

#: Significant digits a statistic keeps inside :func:`answer_digest`.
#: Coarse enough that cross-platform ulp noise never flips a digest,
#: fine enough that a real behavioural change always does.
_DIGEST_PRECISION = 9


def relation_digest(relation: "Relation") -> str:
    """Stable 16-hex content digest of a relation.

    Hashes the canonical JSON text of
    :func:`repro.engine.io.relation_document` (``json.dumps`` with
    sorted keys, byte for byte), so the digest survives save/load
    round-trips and identifies the *data*, not the object.  The text
    is joined from per-row and per-rule fragments: rows and rules never
    change after construction (a store update makes a new object), so
    each keeps its fragment once encoded, the fragments are gathered
    at C speed and only objects without one are encoded.  After one
    write to a tuple N = 8000 store, the snapshot's digest is about
    2-3 ms on 2 vCPUs, nearly all of it the join and the SHA-256 over
    0.8 MB.  ``relation.digest()`` computes this once per relation
    object and is what the query path reads.
    """
    from repro.models.attribute import AttributeLevelRelation

    if isinstance(relation, AttributeLevelRelation):
        head = '{"model": "attribute", "tuples": ['
        rows = _fragments(relation, _attribute_row_json)
    else:
        # A singleton rule's fragment is empty: the document lists only
        # multi-member rules.
        rules = _fragments(relation.explicit_rules, _rule_json)
        head = '{"model": "tuple", "rules": [%s], "tuples": [' % ", ".join(
            filter(None, rules)
        )
        rows = _fragments(relation, _tuple_row_json)
    # Hashed in parts: no copy of the joined rows with the head.
    digest = hashlib.sha256(head.encode("utf-8"))
    digest.update(", ".join(rows).encode("utf-8"))
    digest.update(b"]}")
    return digest.hexdigest()[:16]


def _fragments(items, encode) -> list[str]:
    """Every item's kept ``_json`` fragment, encoding (and keeping)
    only the missing ones: ``O(len(items))`` at C speed plus Python
    work per missing fragment."""
    fragments = list(map(_JSON_OF, items))
    position = -1
    listed = None
    while True:
        try:
            # One scan in all: each search resumes past the last hit.
            position = fragments.index(None, position + 1)
        except ValueError:  # no fragment is missing past ``position``
            return fragments
        if listed is None:
            listed = list(items)
        item = listed[position]
        fragments[position] = item._json = encode(item)


_JSON_OF = attrgetter("_json")


def _rule_json(rule) -> str:
    """``json.dumps(entry, sort_keys=True)`` of a multi-member rule's
    document entry, ``""`` for a singleton (not in the document)."""
    if rule.is_singleton:
        return ""
    return json.dumps(
        {"rule_id": rule.rule_id, "tids": list(rule.tids)}, sort_keys=True
    )


def _tuple_row_json(row) -> str:
    """``json.dumps(entry, sort_keys=True)`` of a tuple row's document
    entry.  ``%r`` is ``float.__repr__`` here: ``TupleLevelTuple``
    stores its score and probability as exact floats."""
    tid = row.tid
    return '{"attributes": %s, "probability": %r, "score": %r, "tid": %s}' % (
        json.dumps(row.attributes, sort_keys=True) if row.attributes else "{}",
        row.probability,
        row.score,
        _json_string(tid) if tid.__class__ is str else json.dumps(tid),
    )


def _attribute_row_json(row) -> str:
    """``json.dumps(entry, sort_keys=True)`` of an attribute row's
    document entry."""
    tid = row.tid
    return '{"attributes": %s, "score": [%s], "tid": %s}' % (
        json.dumps(row.attributes, sort_keys=True) if row.attributes else "{}",
        ", ".join(
            f"[{_json_number(value)}, {_json_number(prob)}]"
            for value, prob in row.score.items()
        ),
        _json_string(tid) if tid.__class__ is str else json.dumps(tid),
    )


def _json_number(value: object) -> str:
    """``json.dumps(value)``, by ``repr`` only for an exact float (a
    numpy scalar's repr names its type)."""
    return repr(value) if value.__class__ is float else json.dumps(value)


def answer_digest(result: "TopKResult") -> str:
    """Stable 16-hex digest of a ranked answer.

    Covers the tuple ids in rank order plus each reported statistic
    rounded to :data:`_DIGEST_PRECISION` significant digits — two
    replays agree iff they ranked the same tuples in the same order
    with the same (to rounding) statistics.
    """
    payload = json.dumps(
        [
            [
                item.tid,
                None
                if item.statistic is None
                else float(f"{item.statistic:.{_DIGEST_PRECISION}g}"),
            ]
            for item in result
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def resilience_config(
    executor: "ResilientExecutor | None",
) -> dict | None:
    """A replayable description of an executor's configuration.

    Everything :func:`repro.obs.replay.replay_capture` needs to
    rebuild an identical degradation ladder: retry policy, deadline,
    Monte-Carlo budget, the shared seed, and — when a chaos injector
    is attached — its rates, seed, and budget.
    """
    if executor is None:
        return None
    config: dict = {
        "deadline_ms": executor.deadline_ms,
        "max_retries": executor.retry.max_retries,
        "base_delay": executor.retry.base_delay,
        "max_delay": executor.retry.max_delay,
        "seed": executor.seed,
        "mc_batch": executor.mc_batch,
        "mc_max_samples": executor.mc_max_samples,
    }
    injector = executor.injector
    if injector is not None:
        config["injector"] = {
            "error_rate": injector.error_rate,
            "latency_rate": injector.latency_rate,
            "latency_seconds": injector.latency_seconds,
            "corrupt_rate": injector.corrupt_rate,
            "drop_rate": injector.drop_rate,
            "seed": injector.seed,
            "fault_budget": injector.fault_budget,
        }
    return config


@dataclass(frozen=True)
class QueryOutcome:
    """What ran: the fields a capture line, a ledger entry and a
    ``QueryLogEntry`` share, read once off ``result.metadata``."""

    tuples_accessed: int | None
    degraded: bool
    fallback_method: str | None
    trace_id: str | None
    #: The ladder rung that answered; ``direct`` without an executor.
    rung: str


def query_outcome(
    result: "TopKResult", trace_id: str | None = None
) -> QueryOutcome:
    """Derive a :class:`QueryOutcome`; ``trace_id`` (the caller's
    span) beats the executor's and the ambient trace id."""
    metadata = result.metadata
    accessed = metadata.get("tuples_accessed")
    degraded = bool(metadata.get("degraded", False))
    fallback = metadata.get("fallback_method") if degraded else None
    rung = "direct"
    if metadata.get("resilient"):
        rung = "exact"
        for step in metadata.get("ladder") or ():
            if isinstance(step, Mapping) and step.get("outcome") == "ok":
                rung = str(step.get("rung", rung))
    return QueryOutcome(
        tuples_accessed=None if accessed is None else int(accessed),
        degraded=degraded,
        fallback_method=None if fallback is None else str(fallback),
        trace_id=(
            trace_id or metadata.get("trace_id") or current_trace_id()
        ),
        rung=rung,
    )


def _plain_json(value: object) -> bool:
    """Whether ``value`` is natively JSON (no lossy repr coercion)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, Mapping):
        return all(
            isinstance(key, str) and _plain_json(item)
            for key, item in value.items()
        )
    if isinstance(value, (list, tuple)):
        return all(_plain_json(item) for item in value)
    return False


class CaptureLog:
    """Append-only JSONL log of executed queries.

    Wraps a :class:`~repro.obs.trace.JsonlSink` (same locking, same
    optional ``max_bytes`` truncation cap) and stamps each record with
    a sequence number and ``schema_version``.
    """

    def __init__(
        self,
        target: Path | str | IO[str],
        *,
        max_bytes: int | None = None,
    ) -> None:
        self._sink = JsonlSink(target, max_bytes=max_bytes)
        self._next_seq = 0

    @property
    def records_written(self) -> int:
        """Queries recorded so far (including any the cap dropped)."""
        return self._next_seq

    @property
    def truncated(self) -> bool:
        """Whether the underlying sink's byte cap has tripped."""
        return self._sink.truncated

    def record_query(
        self,
        relation: "Relation",
        result: "TopKResult",
        *,
        k: int,
        method: str,
        options: Mapping[str, object] | None = None,
        wall_seconds: float | None = None,
        relation_name: str | None = None,
        executor: "ResilientExecutor | None" = None,
        annotations: Mapping[str, object] | None = None,
        outcome: QueryOutcome | None = None,
    ) -> dict:
        """Append one executed query; returns the written record.

        ``annotations`` is a free-form extension point for layers
        above the engine: the serving core marks coalesced requests
        here (tenant, shared leader trace id), keeping the core record
        layout stable.  ``outcome`` defaults to :func:`query_outcome`.
        """
        from repro.models.attribute import AttributeLevelRelation

        options = dict(options or {})
        metadata = result.metadata
        outcome = outcome or query_outcome(result)
        degraded = outcome.degraded
        if degraded:
            reason = (
                "degradation ladder answered with "
                f"{result.method!r}"
            )
        elif metadata.get("resilient"):
            reason = "degradation ladder answered at the exact rung"
        elif result.method != method:
            reason = "planner routed to a pruned variant"
        else:
            reason = "direct execution of the requested method"
        # A record replays faithfully only when its options are
        # natively JSON and any sampling is seeded (the executor seeds
        # its Monte-Carlo rung; a bare monte_carlo query is not).
        replayable = _plain_json(options) and (
            method != "monte_carlo" or executor is not None
        )
        record = {
            "type": "query",
            "schema_version": CAPTURE_SCHEMA_VERSION,
            "seq": self._next_seq,
            "relation": relation_name,
            "model": (
                "attribute"
                if isinstance(relation, AttributeLevelRelation)
                else "tuple"
            ),
            "n": relation.size,
            "dataset_digest": relation.digest(),
            "k": k,
            "method": method,
            "options": _json_safe(options),
            "replayable": replayable,
            "plan": {"method": result.method, "reason": reason},
            "trace_id": outcome.trace_id,
            "wall_seconds": wall_seconds,
            "tuples_accessed": outcome.tuples_accessed,
            "answer": list(result.tids()),
            "answer_digest": answer_digest(result),
            "degraded": degraded,
            "fallback_method": outcome.fallback_method,
            "attempts": metadata.get("attempts"),
            "faults_survived": metadata.get("faults_survived"),
            "faults_injected": metadata.get("faults_injected"),
            "gf_fallback": bool(metadata.get("gf_fallback", False)),
            "resilience": resilience_config(executor),
        }
        if annotations:
            record["annotations"] = _json_safe(dict(annotations))
        self._next_seq += 1
        self._sink.write(record)
        count("obs.capture.records")
        return record

    def close(self) -> None:
        self._sink.close()

    def __enter__(self) -> "CaptureLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


_capture: CaptureLog | None = None


def get_capture() -> CaptureLog | None:
    """The ambient capture log, if one is installed."""
    return _capture


def set_capture(log: CaptureLog | None) -> CaptureLog | None:
    """Install (or clear) the ambient log; returns the previous one."""
    global _capture
    previous = _capture
    _capture = log
    return previous


def read_jsonl(path: Path | str) -> tuple[list[dict], list[str]]:
    """Read a JSONL file, skipping malformed lines instead of raising.

    Returns ``(records, problems)``: every line that parsed to a JSON
    object, plus one human-readable description per line that did not
    (truncated writes, partial lines, non-object payloads).  Blank
    lines are ignored silently.  The capture/trace consumers —
    ``repro replay``, ``repro report``, ``repro chrome-trace`` — treat
    a non-empty ``problems`` list as "warn and exit 12", never as a
    crash: a half-written observability file should degrade the
    report, not destroy it.

    :class:`OSError` (missing file, unreadable path) still propagates
    — there is nothing to salvage from no file at all.
    """
    records: list[dict] = []
    problems: list[str] = []
    text = Path(path).read_text()
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            problems.append(
                f"line {number}: invalid JSON ({error.msg})"
            )
            continue
        if not isinstance(record, dict):
            problems.append(
                f"line {number}: expected an object, got "
                f"{type(record).__name__}"
            )
            continue
        records.append(record)
    return records, problems
