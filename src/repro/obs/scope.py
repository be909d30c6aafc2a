"""The query scope: one executed query, one record.

The serving core, ``ProbabilisticDatabase.topk``, a
:class:`~repro.engine.query.ResilientExecutor` and the ``topk`` CLI
each run their query inside :func:`query_scope`.  The outermost scope
owns the query's :class:`QueryRecord`; nested scopes join it and add
what only their layer knows.  When the owner's scope exits, one
:func:`~repro.obs.capture.query_outcome` derivation feeds both the
capture line and the ledger entry; a body that raises writes nothing.
With no capture log and no ledger installed the scope is a shared
no-op: no clock is read and no record is created.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ContextManager, Iterator, Mapping

from repro.obs.capture import (
    CaptureLog,
    QueryOutcome,
    get_capture,
    query_outcome,
)
from repro.obs.costs import CostLedger, CostMeter, get_cost_ledger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.result import TopKResult
    from repro.engine.database import Relation
    from repro.engine.query import ResilientExecutor

__all__ = ["QueryRecord", "query_scope"]

#: The record of the query executing in this context, if any.
_active: ContextVar["QueryRecord | None"] = ContextVar(
    "repro_query_record", default=None
)
_OFF: ContextManager[None] = nullcontext()


@dataclass(eq=False)
class QueryRecord:
    """One executed query, as the layers it passed through saw it."""

    relation: "Relation | None"
    k: int
    method: str
    options: Mapping[str, object]
    capture: CaptureLog | None = None
    meter: CostMeter | None = None
    #: The owner's entry time; the capture line's ``wall_seconds``.
    started: float = field(default_factory=time.perf_counter)
    relation_name: str | None = None
    executor: "ResilientExecutor | None" = None
    tenant: str | None = None
    result: "TopKResult | None" = None
    outcome: QueryOutcome | None = None

    def _write(self) -> None:
        result, relation = self.result, self.relation
        if result is None or relation is None:
            return
        outcome = self.outcome = self.outcome or query_outcome(result)
        if self.capture is not None:
            self.capture.record_query(
                relation,
                result,
                k=self.k,
                method=self.method,
                options=self.options,
                wall_seconds=time.perf_counter() - self.started,
                relation_name=self.relation_name,
                executor=self.executor,
                outcome=outcome,
            )
        if self.meter is not None:
            self.meter.finish(
                result,
                k=self.k,
                n=relation.size,
                method=self.method,
                tenant=self.tenant,
                outcome=outcome,
            )


@contextmanager
def _own(record: QueryRecord) -> Iterator[QueryRecord]:
    token = _active.set(record)
    try:
        yield record
    finally:
        _active.reset(token)
    record._write()


def query_scope(
    relation: "Relation | None",
    k: int,
    method: str,
    options: Mapping[str, object],
    *,
    ledger: CostLedger | None = None,
    **known: Any,
) -> ContextManager[QueryRecord | None]:
    """Run one query inside its scope; the outermost scope owns it.

    ``relation`` is the version the layer ranks (``None`` if it holds
    only a name); ``known`` is what else it knows: ``relation_name``,
    ``executor``, ``tenant``.  ``ledger`` replaces the ambient one.
    Yields the owner's :class:`QueryRecord`, whose ``result`` the body
    sets, or ``None`` when nothing is installed.
    """
    record = _active.get()
    if record is not None:
        # Joining: fill in only what no outer layer knew.
        for name, value in dict(known, relation=relation).items():
            if value is not None and getattr(record, name) is None:
                setattr(record, name, value)
        return nullcontext(record)
    capture = get_capture()
    if ledger is None:
        ledger = get_cost_ledger()
    if capture is None and ledger is None:
        return _OFF
    meter = None if ledger is None else ledger.meter()
    record = QueryRecord(relation, k, method, options, capture, meter, **known)
    return _own(record)
