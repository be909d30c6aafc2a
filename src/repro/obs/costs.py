"""Per-query resource accounting: the cost ledger.

This module is the system's **single accounting chokepoint** (enforced
by analysis rule RPR011): every CPU-clock read and every ledger write
in the codebase flows through it, with both clocks injectable so the
ledger's arithmetic is testable on fake time.

A :class:`CostLedger` records, per executed query, the measured
actuals — wall seconds, process-CPU seconds, tuples accessed, and the
degradation rung that answered.  Entries aggregate per
``(tenant, method)`` and export as ``cost.*`` labeled metrics.

Accounting is ambient and off by default, mirroring the capture log:
install a ledger with :func:`set_cost_ledger` (or pass one to the
serving core) and each executed query is billed once, when its query
scope (:func:`repro.obs.scope.query_scope`) closes.  With no ledger
installed no meter is started and no clock is read — the fault-free
path stays bit-identical.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.obs.capture import QueryOutcome, query_outcome
from repro.obs.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.result import TopKResult

__all__ = [
    "CostEntry",
    "CostLedger",
    "get_cost_ledger",
    "set_cost_ledger",
]

#: Metric help texts registered once per ledger (idempotent).
_HELP_TEXTS = {
    "cost.queries": "Queries accounted per tenant and method",
    "cost.wall_seconds": (
        "Measured wall seconds per tenant and method"
    ),
    "cost.cpu_seconds": (
        "Measured process-CPU seconds per tenant and method"
    ),
    "cost.tuples_accessed": (
        "Tuples accessed per tenant and method"
    ),
}


@dataclass(frozen=True)
class CostEntry:
    """One accounted query: its identity and measured actuals."""

    tenant: str
    method: str
    plan_method: str
    k: int
    n: int
    wall_seconds: float
    cpu_seconds: float
    tuples_accessed: int | None
    degraded: bool
    rung: str
    trace_id: str | None = None

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "method": self.method,
            "plan_method": self.plan_method,
            "k": self.k,
            "n": self.n,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "tuples_accessed": self.tuples_accessed,
            "degraded": self.degraded,
            "rung": self.rung,
            "trace_id": self.trace_id,
        }


class _Aggregate:
    """Running totals for one ``(tenant, method)`` cell."""

    __slots__ = (
        "queries",
        "wall_seconds",
        "cpu_seconds",
        "tuples_accessed",
        "degraded",
    )

    def __init__(self) -> None:
        self.queries = 0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.tuples_accessed = 0
        self.degraded = 0

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "tuples_accessed": self.tuples_accessed,
            "degraded": self.degraded,
        }


class CostLedger:
    """Resource accounting for executed queries.

    Parameters
    ----------
    wall_clock, cpu_clock:
        Injectable time sources.  ``cpu_clock`` defaults to
        :func:`time.process_time` — the one sanctioned read of the
        process-CPU clock in the codebase (RPR011).
    max_entries:
        Recent :class:`CostEntry` records kept for inspection (at
        least 1); aggregates are unbounded and exact.
    """

    def __init__(
        self,
        *,
        wall_clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
        max_entries: int = 1024,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries!r}")
        self._wall_clock = wall_clock
        self._cpu_clock = cpu_clock
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: list[CostEntry] = []
        self._aggregates: dict[tuple[str, str], _Aggregate] = {}

    # ------------------------------------------------------------------
    # Metering
    # ------------------------------------------------------------------
    def meter(self) -> "CostMeter":
        """Start measuring one query (reads both clocks once)."""
        return CostMeter(self)

    def record(self, entry: CostEntry) -> None:
        """Append one accounted query — the single ledger write."""
        with self._lock:
            self._entries.append(entry)
            if len(self._entries) > self._max_entries:
                del self._entries[: -self._max_entries]
            cell = self._aggregates.setdefault(
                (entry.tenant, entry.method), _Aggregate()
            )
            cell.queries += 1
            cell.wall_seconds += entry.wall_seconds
            cell.cpu_seconds += entry.cpu_seconds
            if entry.tuples_accessed is not None:
                cell.tuples_accessed += entry.tuples_accessed
            if entry.degraded:
                cell.degraded += 1
        self._export(entry)

    def _export(self, entry: CostEntry) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        for name, help_text in _HELP_TEXTS.items():
            registry.describe(name, help_text)
        labels = {"tenant": entry.tenant, "method": entry.method}
        registry.counter("cost.queries", labels).inc()
        registry.counter("cost.wall_seconds", labels).inc(
            entry.wall_seconds
        )
        registry.counter("cost.cpu_seconds", labels).inc(
            entry.cpu_seconds
        )
        if entry.tuples_accessed is not None:
            registry.counter("cost.tuples_accessed", labels).inc(
                entry.tuples_accessed
            )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def entries(self) -> tuple[CostEntry, ...]:
        """The most recent accounted queries (bounded ring)."""
        with self._lock:
            return tuple(self._entries)

    def summary(self) -> dict:
        """The ``/costs`` document: per-tenant totals."""
        with self._lock:
            tenants: dict[str, dict] = {}
            for (tenant, method), cell in sorted(
                self._aggregates.items()
            ):
                tenants.setdefault(tenant, {})[
                    method
                ] = cell.to_dict()
            total = sum(
                cell.queries for cell in self._aggregates.values()
            )
        return {"queries": total, "tenants": tenants}


class CostMeter:
    """One in-flight query's measurement, started at construction."""

    def __init__(self, ledger: CostLedger) -> None:
        self._ledger = ledger
        self._wall_start = ledger._wall_clock()
        self._cpu_start = ledger._cpu_clock()

    def finish(
        self,
        result: "TopKResult",
        *,
        k: int,
        n: int,
        method: str,
        tenant: str | None = None,
        outcome: QueryOutcome | None = None,
    ) -> CostEntry:
        """Stop the clocks and write the entry to the ledger.

        The actuals are read off ``outcome`` (default
        :func:`~repro.obs.capture.query_outcome`) — the layers above
        only supply identity.
        """
        ledger = self._ledger
        wall = ledger._wall_clock() - self._wall_start
        cpu = ledger._cpu_clock() - self._cpu_start
        outcome = outcome or query_outcome(result)
        entry = CostEntry(
            tenant=tenant or "default",
            method=method,
            plan_method=result.method,
            k=k,
            n=n,
            wall_seconds=wall,
            cpu_seconds=cpu,
            tuples_accessed=outcome.tuples_accessed,
            degraded=outcome.degraded,
            rung=outcome.rung,
            trace_id=outcome.trace_id,
        )
        ledger.record(entry)
        return entry


_ledger: CostLedger | None = None


def get_cost_ledger() -> CostLedger | None:
    """The ambient ledger, if one is installed."""
    return _ledger


def set_cost_ledger(
    ledger: CostLedger | None,
) -> CostLedger | None:
    """Install (or clear) the ambient ledger; returns the previous."""
    global _ledger
    previous = _ledger
    _ledger = ledger
    return previous
