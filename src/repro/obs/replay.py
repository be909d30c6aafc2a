"""Deterministic replay of a captured workload against current code.

:func:`replay_capture` reads a capture JSONL file (see
:mod:`repro.obs.capture`), re-executes every recorded query against a
relation loaded today, and diffs what happened: answer digest, tuples
accessed, wall time.  Each query gets a verdict —

* ``ok`` — same answer digest, same tuples-accessed count;
* ``cost_change`` — same answer, different tuples accessed (the
  paper's cost metric moved; the perf gate decides if that is bad);
* ``answer_regression`` — the ranked answer changed;
* ``error`` — the replayed query raised;
* ``dataset_mismatch`` — the relation on disk is not the one captured
  (content digests differ), so the diff is meaningless;
* ``skipped`` — the record declared itself non-replayable (unseeded
  sampling or non-JSON options).

Determinism: records captured through a
:class:`~repro.engine.query.ResilientExecutor` carry their full
resilience configuration — retry policy, deadline, Monte-Carlo
budget, fault-injector rates and seed — and replay rebuilds a fresh,
identically seeded executor per query.  A chaos run captured under
``REPRO_FAULT_SEED=3`` therefore replays its exact fault sequence and
its exact degraded answers, every time.  (Deadline-driven degradation
is the one caveat: a much slower machine can legitimately degrade
where the capture did not.)

Exit-status contract (``repro replay``): 0 = clean, 9 = at least one
``answer_regression`` or ``error``, 12 = no regression but the input
was degraded (corrupt capture lines, dataset mismatches, skips).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.obs.capture import answer_digest, read_jsonl
from repro.obs.metrics import count
from repro.obs.trace import emit_event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.query import ResilientExecutor
    from repro.models.attribute import AttributeLevelRelation
    from repro.models.tuple_level import TupleLevelRelation

    Relation = AttributeLevelRelation | TupleLevelRelation

__all__ = [
    "EXIT_PARTIAL_INPUT",
    "EXIT_REPLAY_REGRESSION",
    "QueryReplay",
    "ReplayReport",
    "replay_capture",
]

#: ``repro replay`` exit code when any query's answer regressed.
EXIT_REPLAY_REGRESSION = 9
#: Exit code when the input was degraded but nothing regressed —
#: shared with ``repro report`` / ``repro chrome-trace`` for corrupt
#: JSONL lines.
EXIT_PARTIAL_INPUT = 12

#: Verdicts that fail the replay outright.
_REGRESSION_VERDICTS = frozenset({"answer_regression", "error"})
#: Verdicts that degrade the replay without failing it.
_DEGRADED_VERDICTS = frozenset({"dataset_mismatch", "skipped"})


@dataclass(frozen=True)
class QueryReplay:
    """The diff between one captured query and its replay."""

    seq: int
    method: str
    k: int
    verdict: str
    detail: str = ""
    trace_id: str | None = None
    digest_recorded: str | None = None
    digest_replayed: str | None = None
    tuples_recorded: int | None = None
    tuples_replayed: int | None = None
    wall_recorded: float | None = None
    wall_replayed: float | None = None

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "method": self.method,
            "k": self.k,
            "verdict": self.verdict,
            "detail": self.detail,
            "trace_id": self.trace_id,
            "answer_digest": {
                "recorded": self.digest_recorded,
                "replayed": self.digest_replayed,
            },
            "tuples_accessed": {
                "recorded": self.tuples_recorded,
                "replayed": self.tuples_replayed,
            },
            "wall_seconds": {
                "recorded": self.wall_recorded,
                "replayed": self.wall_replayed,
            },
        }


@dataclass(frozen=True)
class ReplayReport:
    """Every per-query diff plus the file-level problems."""

    capture_path: str
    dataset_digest: str
    results: tuple[QueryReplay, ...]
    problems: tuple[str, ...]

    def counts(self) -> dict[str, int]:
        """Verdict histogram over :attr:`results`."""
        tally: dict[str, int] = {}
        for result in self.results:
            tally[result.verdict] = tally.get(result.verdict, 0) + 1
        return tally

    @property
    def regressions(self) -> tuple[QueryReplay, ...]:
        return tuple(
            result
            for result in self.results
            if result.verdict in _REGRESSION_VERDICTS
        )

    @property
    def degraded(self) -> bool:
        """Corrupt lines, mismatched datasets, or skipped records."""
        return bool(self.problems) or any(
            result.verdict in _DEGRADED_VERDICTS
            for result in self.results
        )

    def exit_code(self) -> int:
        """The machine-readable verdict for the whole replay."""
        if self.regressions:
            return EXIT_REPLAY_REGRESSION
        if self.degraded:
            return EXIT_PARTIAL_INPUT
        return 0

    def to_dict(self) -> dict:
        return {
            "capture": self.capture_path,
            "dataset_digest": self.dataset_digest,
            "queries": len(self.results),
            "counts": self.counts(),
            "exit_code": self.exit_code(),
            "problems": list(self.problems),
            "results": [result.to_dict() for result in self.results],
        }

    def describe(self) -> str:
        """A human-readable rendering for terminal output."""
        lines = [
            f"replay of {self.capture_path} "
            f"(dataset {self.dataset_digest})"
        ]
        for result in self.results:
            parts = [
                f"  [{result.seq}] {result.method} k={result.k}: "
                f"{result.verdict}"
            ]
            if result.verdict == "cost_change":
                parts.append(
                    f" (tuples {result.tuples_recorded} -> "
                    f"{result.tuples_replayed})"
                )
            if (
                result.wall_recorded is not None
                and result.wall_replayed is not None
            ):
                parts.append(
                    f" wall {result.wall_recorded * 1e3:.2f}ms -> "
                    f"{result.wall_replayed * 1e3:.2f}ms"
                )
            if result.detail:
                parts.append(f" — {result.detail}")
            lines.append("".join(parts))
        for problem in self.problems:
            lines.append(f"  ! {problem}")
        tally = ", ".join(
            f"{verdict}={total}"
            for verdict, total in sorted(self.counts().items())
        )
        lines.append(
            f"summary: {len(self.results)} queries ({tally or 'none'}),"
            f" {len(self.problems)} corrupt lines, "
            f"exit {self.exit_code()}"
        )
        return "\n".join(lines)


def _executor_from(config: Mapping) -> "ResilientExecutor":
    """Rebuild the executor a capture record describes, fresh."""
    from repro.engine.query import ResilientExecutor
    from repro.robust import FaultInjector, RetryPolicy

    injector = None
    injector_config = config.get("injector")
    if injector_config:
        budget = injector_config.get("fault_budget")
        injector = FaultInjector(
            error_rate=float(injector_config.get("error_rate", 0.0)),
            latency_rate=float(
                injector_config.get("latency_rate", 0.0)
            ),
            latency_seconds=float(
                injector_config.get("latency_seconds", 0.0)
            ),
            corrupt_rate=float(
                injector_config.get("corrupt_rate", 0.0)
            ),
            drop_rate=float(injector_config.get("drop_rate", 0.0)),
            seed=int(injector_config.get("seed", 0)),
            fault_budget=None if budget is None else int(budget),
        )
    retry = RetryPolicy(
        max_retries=int(config.get("max_retries", 3)),
        base_delay=float(config.get("base_delay", 0.05)),
        max_delay=float(config.get("max_delay", 2.0)),
    )
    deadline_ms = config.get("deadline_ms")
    return ResilientExecutor(
        retry=retry,
        deadline_ms=(
            None if deadline_ms is None else float(deadline_ms)
        ),
        injector=injector,
        mc_batch=int(config.get("mc_batch", 250)),
        mc_max_samples=int(config.get("mc_max_samples", 4_000)),
        seed=int(config.get("seed", 0)),
    )


def _replay_one(
    record: Mapping, relation: "Relation", digest: str
) -> QueryReplay:
    from repro.core.semantics import rank

    seq = int(record.get("seq", -1))
    method = str(record.get("method", ""))
    k = int(record.get("k", 0))
    base = {
        "seq": seq,
        "method": method,
        "k": k,
        "trace_id": record.get("trace_id"),
        "digest_recorded": record.get("answer_digest"),
        "tuples_recorded": record.get("tuples_accessed"),
        "wall_recorded": record.get("wall_seconds"),
    }
    recorded_digest = record.get("answer_digest")
    if not method or recorded_digest is None:
        return QueryReplay(
            verdict="skipped",
            detail="record is missing 'method' or 'answer_digest'",
            **base,
        )
    recorded_dataset = record.get("dataset_digest")
    if recorded_dataset is not None and recorded_dataset != digest:
        return QueryReplay(
            verdict="dataset_mismatch",
            detail=(
                f"captured against {recorded_dataset}, replaying "
                f"against {digest}"
            ),
            **base,
        )
    if not record.get("replayable", True):
        return QueryReplay(
            verdict="skipped",
            detail="record was captured as non-replayable",
            **base,
        )
    options = dict(record.get("options") or {})
    resilience = record.get("resilience")
    start = time.perf_counter()
    try:
        if resilience:
            executor = _executor_from(resilience)
            result = executor.execute(
                relation, k, method=method, **options
            )
        else:
            result = rank(relation, k, method=method, **options)
    # Quarantine boundary; see comment below.  # repro: noqa RPR005
    except Exception as error:  # noqa: BLE001 - replay must not crash
        # Quarantine philosophy: a query that cannot replay (engine
        # error, alien options from an old capture, ...) is a finding
        # to report, never a reason to abandon the rest of the file.
        return QueryReplay(
            verdict="error",
            detail=f"{type(error).__name__}: {error}",
            wall_replayed=time.perf_counter() - start,
            **base,
        )
    wall = time.perf_counter() - start
    replayed_digest = answer_digest(result)
    accessed = result.metadata.get("tuples_accessed")
    replayed_tuples = int(accessed) if accessed is not None else None
    if replayed_digest != recorded_digest:
        verdict, detail = (
            "answer_regression",
            f"answer changed: {list(result.tids())!r}",
        )
        # Anomaly signal: an armed flight recorder dumps on this
        # (see DEFAULT_TRIGGERS in repro.obs.flight); free otherwise.
        emit_event(
            "capture.digest_mismatch",
            recorded=recorded_digest,
            replayed=replayed_digest,
            k=k,
            method=method,
        )
    elif replayed_tuples != record.get("tuples_accessed"):
        verdict, detail = "cost_change", ""
    else:
        verdict, detail = "ok", ""
    return QueryReplay(
        verdict=verdict,
        detail=detail,
        digest_replayed=replayed_digest,
        tuples_replayed=replayed_tuples,
        wall_replayed=wall,
        **base,
    )


def replay_capture(
    capture_path: Path | str, relation: "Relation"
) -> ReplayReport:
    """Replay every query of a capture file against ``relation``.

    Malformed JSONL lines are reported in ``problems`` rather than
    raised (a truncated capture still replays its intact prefix);
    non-``query`` records — metrics snapshots, truncation notices —
    are ignored.
    """
    records, problems = read_jsonl(capture_path)
    digest = relation.digest()
    results = []
    for record in records:
        if record.get("type") != "query":
            continue
        replay = _replay_one(record, relation, digest)
        results.append(replay)
        count(f"obs.replay.{replay.verdict}")
    return ReplayReport(
        capture_path=str(capture_path),
        dataset_digest=digest,
        results=tuple(results),
        problems=tuple(problems),
    )
