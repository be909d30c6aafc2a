"""Serialization of uncertain relations to CSV and JSON.

Formats are deliberately simple and human-editable:

Attribute-level CSV — one row per (tuple, alternative):

    tid,value,probability
    t1,100,0.4
    t1,70,0.6
    t2,92,0.6
    ...

Tuple-level CSV — one row per tuple, with an optional rule column
(tuples sharing a non-empty rule label are mutually exclusive):

    tid,score,probability,rule
    t1,100,0.4,
    t2,92,0.5,tau2
    t4,80,0.5,tau2

JSON mirrors the constructors one-to-one and round-trips attributes.

Ingest modes
------------
Every loader takes ``mode="strict"`` (the default) or ``"lenient"``:

* **strict** raises :class:`~repro.exceptions.SchemaError` naming the
  offending source line on the first malformed row — non-numeric or
  NaN/±inf scores, probabilities outside ``(0, 1]``, duplicate tuple
  ids, single-member or dangling exclusion rules;
* **lenient** routes each such row into a
  :class:`~repro.robust.QuarantineLog` (pass ``quarantine=``, or the
  rejects are only counted) and loads everything salvageable.

Structural problems — a missing column, an empty file, an unknown JSON
model kind — are fatal in both modes: there is nothing to salvage.

Resilient access
----------------
Loaders also accept a :class:`~repro.robust.FaultInjector` (chaos
testing: transient read errors, latency, corrupted/dropped rows) and a
:class:`~repro.robust.RetryPolicy` + :class:`~repro.robust.Deadline`;
with a policy, the whole parse retries under exponential backoff and
the shared deadline, and quarantine entries from abandoned attempts
are discarded so rejects are never double-counted.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path
from typing import Callable, Literal, TypeVar

from repro.exceptions import (
    InvalidDistributionError,
    SchemaError,
)
from repro.models.attribute import AttributeLevelRelation, AttributeTuple
from repro.models.pdf import DiscretePDF
from repro.models.rules import ExclusionRule
from repro.models.tuple_level import TupleLevelRelation, TupleLevelTuple
from repro.models.validation import probability_violation, score_violation
from repro.robust import (
    Deadline,
    FaultInjector,
    QuarantineLog,
    RetryPolicy,
    call_with_retry,
)

__all__ = [
    "IngestMode",
    "load_attribute_csv",
    "save_attribute_csv",
    "load_tuple_csv",
    "save_tuple_csv",
    "load_json",
    "relation_document",
    "save_json",
]

IngestMode = Literal["strict", "lenient"]

RelationT = TypeVar(
    "RelationT", bound="AttributeLevelRelation | TupleLevelRelation"
)


def _check_mode(mode: str) -> None:
    if mode not in ("strict", "lenient"):
        raise SchemaError(
            f"ingest mode must be 'strict' or 'lenient', got {mode!r}"
        )


class _Ingest:
    """Per-load context: mode, quarantine sink, and the source path."""

    def __init__(
        self,
        path: object,
        mode: IngestMode,
        quarantine: QuarantineLog | None,
    ) -> None:
        _check_mode(mode)
        self.path = path
        self.mode: IngestMode = mode
        # Lenient mode always has a log so rejects are at least
        # counted; callers pass their own to inspect or persist it.
        self.quarantine = (
            quarantine
            if quarantine is not None
            else QuarantineLog()
        )

    def reject(
        self,
        code: str,
        reason: str,
        *,
        line_number: int | None = None,
        raw: dict | None = None,
    ) -> None:
        """Strict: raise with source location.  Lenient: quarantine."""
        if self.mode == "strict":
            where = (
                f"line {line_number}"
                if line_number is not None
                else "document"
            )
            raise SchemaError(f"{self.path}: {where}: {reason}")
        self.quarantine.add(
            code, reason, line_number=line_number, raw=raw
        )


def _with_retry(
    operation: str,
    attempt: Callable[[QuarantineLog | None], RelationT],
    *,
    quarantine: QuarantineLog | None,
    retry: RetryPolicy | None,
    deadline: Deadline | None,
    rng: random.Random | int | None = None,
) -> RelationT:
    """Run a loader attempt, optionally under retry + deadline.

    Each attempt parses into a scratch quarantine; only the winning
    attempt's rejects are replayed into the caller's log, so a
    transient failure halfway through a file never double-counts the
    bad rows before the failure point.
    """
    if retry is None:
        if deadline is not None:
            deadline.check(operation)
        return attempt(quarantine)

    def one_attempt() -> tuple[RelationT, QuarantineLog]:
        scratch = QuarantineLog(
            limit=quarantine.limit if quarantine is not None else None
        )
        return attempt(scratch), scratch

    (relation, scratch), _stats = call_with_retry(
        operation,
        one_attempt,
        policy=retry,
        deadline=deadline,
        rng=rng,
    )
    if quarantine is not None:
        for row in scratch.rows:
            quarantine.add(
                row.code,
                row.reason,
                line_number=row.line_number,
                raw=row.raw,
            )
    return relation


def _read_rows(
    path: Path | str,
    required: tuple[str, ...],
    injector: FaultInjector | None = None,
) -> list[tuple[int, dict]]:
    """CSV rows as ``(line_number, fields)``, with optional chaos.

    The injector is pulsed once for the open and once per row
    (transient errors / latency), and each row passes through
    :meth:`~repro.robust.FaultInjector.mangle_row` (corruption /
    drops).  Corrupted fields surface later as schema violations; a
    dropped row simply never existed.
    """
    path = Path(path)
    if injector is not None:
        injector.pulse(f"open {path.name}")
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty CSV file")
        missing = [
            column for column in required if column not in reader.fieldnames
        ]
        if missing:
            raise SchemaError(
                f"{path}: missing column(s) {', '.join(missing)}"
            )
        rows: list[tuple[int, dict]] = []
        for line_number, row in enumerate(reader, start=2):
            if injector is not None:
                injector.latency_pulse(f"read {path.name}:{line_number}")
                mangled = injector.mangle_row(row)
                if mangled is None:
                    continue
                row = mangled
            rows.append((line_number, row))
        return rows


def load_attribute_csv(
    path: Path | str,
    *,
    mode: IngestMode = "strict",
    quarantine: QuarantineLog | None = None,
    injector: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    deadline: Deadline | None = None,
) -> AttributeLevelRelation:
    """Load an attribute-level relation from its CSV format.

    Tuples appear in order of their first row.  See the module
    docstring for the strict/lenient contract and the resilience
    keywords.
    """

    def attempt(log: QuarantineLog | None) -> AttributeLevelRelation:
        ingest = _Ingest(path, mode, log)
        rows = _read_rows(path, ("tid", "value", "probability"), injector)
        alternatives: dict[str, list[tuple[float, float]]] = {}
        first_line: dict[str, int] = {}
        order: list[str] = []
        for line_number, row in rows:
            tid = (row.get("tid") or "").strip()
            if not tid:
                ingest.reject(
                    "missing_tid",
                    "empty tuple id",
                    line_number=line_number,
                    raw=row,
                )
                continue
            violation = score_violation(row.get("value"))
            if violation is not None:
                ingest.reject(
                    "non_finite_score",
                    violation,
                    line_number=line_number,
                    raw=row,
                )
                continue
            violation = probability_violation(row.get("probability"))
            if violation is not None:
                ingest.reject(
                    "probability_out_of_range",
                    violation,
                    line_number=line_number,
                    raw=row,
                )
                continue
            if tid not in alternatives:
                alternatives[tid] = []
                first_line[tid] = line_number
                order.append(tid)
            alternatives[tid].append(
                (float(row["value"]), float(row["probability"]))
            )
        loaded: list[AttributeTuple] = []
        for tid in order:
            try:
                pdf = DiscretePDF.from_pairs(alternatives[tid])
            except InvalidDistributionError as error:
                ingest.reject(
                    "invalid_distribution",
                    f"tuple {tid!r}: {error}",
                    line_number=first_line[tid],
                    raw={"tid": tid, "pairs": alternatives[tid]},
                )
                continue
            loaded.append(AttributeTuple(tid, pdf))
        return AttributeLevelRelation(loaded)

    return _with_retry(
        f"load_attribute_csv {path}",
        attempt,
        quarantine=quarantine,
        retry=retry,
        deadline=deadline,
    )


def save_attribute_csv(
    relation: AttributeLevelRelation, path: Path | str
) -> None:
    """Write an attribute-level relation to its CSV format."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tid", "value", "probability"])
        for row in relation:
            for value, probability in row.score.items():
                writer.writerow([row.tid, repr(value), repr(probability)])


def load_tuple_csv(
    path: Path | str,
    *,
    mode: IngestMode = "strict",
    quarantine: QuarantineLog | None = None,
    injector: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    deadline: Deadline | None = None,
) -> TupleLevelRelation:
    """Load a tuple-level relation from its CSV format.

    See the module docstring for the strict/lenient contract and the
    resilience keywords.
    """

    def attempt(log: QuarantineLog | None) -> TupleLevelRelation:
        ingest = _Ingest(path, mode, log)
        rows = _read_rows(path, ("tid", "score", "probability"), injector)
        tuples: list[TupleLevelTuple] = []
        seen: set[str] = set()
        rule_members: dict[str, list[str]] = {}
        rule_line: dict[str, int] = {}
        for line_number, row in rows:
            tid = (row.get("tid") or "").strip()
            if not tid:
                ingest.reject(
                    "missing_tid",
                    "empty tuple id",
                    line_number=line_number,
                    raw=row,
                )
                continue
            if tid in seen:
                ingest.reject(
                    "duplicate_tid",
                    f"duplicate tuple id {tid!r}",
                    line_number=line_number,
                    raw=row,
                )
                continue
            violation = score_violation(row.get("score"))
            if violation is not None:
                ingest.reject(
                    "non_finite_score",
                    violation,
                    line_number=line_number,
                    raw=row,
                )
                continue
            violation = probability_violation(row.get("probability"))
            if violation is not None:
                ingest.reject(
                    "probability_out_of_range",
                    violation,
                    line_number=line_number,
                    raw=row,
                )
                continue
            seen.add(tid)
            tuples.append(
                TupleLevelTuple(
                    tid, float(row["score"]), float(row["probability"])
                )
            )
            rule_label = (row.get("rule") or "").strip()
            if rule_label:
                rule_members.setdefault(rule_label, []).append(tid)
                rule_line.setdefault(rule_label, line_number)
        rules = []
        for rule_id, members in rule_members.items():
            if len(members) < 2:
                ingest.reject(
                    "single_member_rule",
                    f"rule {rule_id!r} has a single member "
                    f"{members[0]!r}; exclusion rules need at least "
                    "two (the tuple is kept without the rule)",
                    line_number=rule_line[rule_id],
                    raw={"rule": rule_id, "tids": members},
                )
                continue
            rules.append(ExclusionRule(rule_id, members))
        return TupleLevelRelation(tuples, rules=rules)

    return _with_retry(
        f"load_tuple_csv {path}",
        attempt,
        quarantine=quarantine,
        retry=retry,
        deadline=deadline,
    )


def save_tuple_csv(relation: TupleLevelRelation, path: Path | str) -> None:
    """Write a tuple-level relation to its CSV format."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tid", "score", "probability", "rule"])
        label_of = {
            tid: rule.rule_id
            for rule in relation.explicit_rules
            if not rule.is_singleton
            for tid in rule
        }
        for row in relation:
            writer.writerow(
                [
                    row.tid,
                    repr(row.score),
                    repr(row.probability),
                    label_of.get(row.tid, ""),
                ]
            )


def relation_document(
    relation: AttributeLevelRelation | TupleLevelRelation,
) -> dict:
    """Either relation kind as its self-describing JSON document.

    This is the exact structure :func:`save_json` writes; it is also
    what :func:`repro.obs.capture.relation_digest` hashes, so a
    dataset's digest is stable across save/load round-trips.
    """
    if isinstance(relation, AttributeLevelRelation):
        document: dict = {
            "model": "attribute",
            "tuples": [
                {
                    "tid": row.tid,
                    "score": [list(pair) for pair in row.score.items()],
                    "attributes": row.attributes,
                }
                for row in relation
            ],
        }
    else:
        document = {
            "model": "tuple",
            "tuples": [
                {
                    "tid": row.tid,
                    "score": row.score,
                    "probability": row.probability,
                    "attributes": row.attributes,
                }
                for row in relation
            ],
            "rules": [
                {"rule_id": rule.rule_id, "tids": list(rule.tids)}
                for rule in relation.explicit_rules
                if not rule.is_singleton
            ],
        }
    return document


def save_json(
    relation: AttributeLevelRelation | TupleLevelRelation,
    path: Path | str,
) -> None:
    """Write either relation kind to a self-describing JSON document."""
    document = relation_document(relation)
    Path(path).write_text(json.dumps(document, indent=2))


def _load_json_attribute(
    ingest: _Ingest, document: dict, injector: FaultInjector | None
) -> AttributeLevelRelation:
    loaded: list[AttributeTuple] = []
    seen: set[str] = set()
    for entry in document.get("tuples", []):
        if injector is not None:
            injector.latency_pulse("read json entry")
            mangled = injector.mangle_row(entry)
            if mangled is None:
                continue
            entry = mangled
        tid = entry.get("tid")
        if not tid or not isinstance(tid, str):
            ingest.reject(
                "missing_tid", f"bad tuple id {tid!r}", raw=entry
            )
            continue
        if tid in seen:
            ingest.reject(
                "duplicate_tid",
                f"duplicate tuple id {tid!r}",
                raw=entry,
            )
            continue
        pairs = entry.get("score")
        if not isinstance(pairs, list):
            ingest.reject(
                "invalid_distribution",
                f"tuple {tid!r}: score must be a list of "
                f"[value, probability] pairs, got {pairs!r}",
                raw=entry,
            )
            continue
        bad = None
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                bad = f"malformed pair {pair!r}"
                break
            bad = score_violation(pair[0]) or probability_violation(
                pair[1]
            )
            if bad is not None:
                break
        if bad is not None:
            ingest.reject(
                "invalid_distribution",
                f"tuple {tid!r}: {bad}",
                raw=entry,
            )
            continue
        try:
            pdf = DiscretePDF.from_pairs(tuple(pair) for pair in pairs)
        except InvalidDistributionError as error:
            ingest.reject(
                "invalid_distribution",
                f"tuple {tid!r}: {error}",
                raw=entry,
            )
            continue
        seen.add(tid)
        loaded.append(
            AttributeTuple(tid, pdf, entry.get("attributes"))
        )
    return AttributeLevelRelation(loaded)


def _load_json_tuple(
    ingest: _Ingest, document: dict, injector: FaultInjector | None
) -> TupleLevelRelation:
    tuples: list[TupleLevelTuple] = []
    seen: set[str] = set()
    for entry in document.get("tuples", []):
        if injector is not None:
            injector.latency_pulse("read json entry")
            mangled = injector.mangle_row(entry)
            if mangled is None:
                continue
            entry = mangled
        tid = entry.get("tid")
        if not tid or not isinstance(tid, str):
            ingest.reject(
                "missing_tid", f"bad tuple id {tid!r}", raw=entry
            )
            continue
        if tid in seen:
            ingest.reject(
                "duplicate_tid",
                f"duplicate tuple id {tid!r}",
                raw=entry,
            )
            continue
        violation = score_violation(entry.get("score"))
        if violation is not None:
            ingest.reject(
                "non_finite_score",
                f"tuple {tid!r}: {violation}",
                raw=entry,
            )
            continue
        violation = probability_violation(entry.get("probability"))
        if violation is not None:
            ingest.reject(
                "probability_out_of_range",
                f"tuple {tid!r}: {violation}",
                raw=entry,
            )
            continue
        seen.add(tid)
        tuples.append(
            TupleLevelTuple(
                tid,
                float(entry["score"]),
                float(entry["probability"]),
                entry.get("attributes"),
            )
        )
    rules = []
    for rule in document.get("rules", []):
        rule_id = rule.get("rule_id")
        members = list(rule.get("tids", []))
        dangling = [tid for tid in members if tid not in seen]
        if dangling:
            ingest.reject(
                "dangling_rule_member",
                f"rule {rule_id!r} references unknown tuple(s) "
                f"{', '.join(map(repr, dangling))} "
                "(kept without them)",
                raw={"rule": rule_id, "tids": members},
            )
            members = [tid for tid in members if tid in seen]
        if len(members) < 2:
            ingest.reject(
                "single_member_rule",
                f"rule {rule_id!r} has fewer than two members; "
                "dropped",
                raw={"rule": rule_id, "tids": members},
            )
            continue
        rules.append(ExclusionRule(rule_id, members))
    return TupleLevelRelation(tuples, rules=rules)


def load_json(
    path: Path | str,
    *,
    mode: IngestMode = "strict",
    quarantine: QuarantineLog | None = None,
    injector: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    deadline: Deadline | None = None,
) -> AttributeLevelRelation | TupleLevelRelation:
    """Load a relation previously written by :func:`save_json`.

    See the module docstring for the strict/lenient contract and the
    resilience keywords.  JSON rejects carry no line numbers (the
    document is parsed as a whole); their ``raw`` field identifies the
    entry instead.
    """

    def attempt(
        log: QuarantineLog | None,
    ) -> AttributeLevelRelation | TupleLevelRelation:
        ingest = _Ingest(path, mode, log)
        if injector is not None:
            injector.pulse(f"open {Path(path).name}")
        document = json.loads(Path(path).read_text())
        model = document.get("model")
        if model == "attribute":
            return _load_json_attribute(ingest, document, injector)
        if model == "tuple":
            return _load_json_tuple(ingest, document, injector)
        raise SchemaError(f"unknown model kind {model!r}")

    return _with_retry(
        f"load_json {path}",
        attempt,
        quarantine=quarantine,
        retry=retry,
        deadline=deadline,
    )
