"""Per-query resource accounting: the cost ledger.

This module is the system's **single accounting chokepoint** (enforced
by analysis rule RPR011): every CPU-clock read and every ledger write
in the codebase flows through it, with both clocks injectable so the
ledger's arithmetic is testable on fake time.

A :class:`CostLedger` records, per executed query, the planner's
:class:`~repro.obs.costmodel.CostEstimate` (stamped into
``result.metadata["cost_estimate"]`` by a cost-model-equipped
:class:`~repro.engine.query.TopKPlan`) next to the measured actuals —
wall seconds, process-CPU seconds, tuples accessed, and the
degradation rung that answered.  Entries aggregate per
``(tenant, method)`` and export as ``cost.*`` labeled metrics; the
per-method predicted/actual **drift** gauge fires the flight recorder
through :func:`~repro.obs.flight.notify_anomaly` (anomaly
``cost_drift``) once calibration has drifted past the threshold over
enough samples, so a stale cost model dumps its own evidence.

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
from typing import TYPE_CHECKING, Callable, Mapping

from repro.obs.capture import QueryOutcome, query_outcome
from repro.obs.flight import notify_anomaly
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
    "cost.predicted_seconds": (
        "Planner-predicted seconds per method (cost-model runs)"
    ),
    "cost.drift": (
        "Signed predicted-vs-actual drift per method: "
        "actual/predicted - 1 over accounted queries"
    ),
}


@dataclass(frozen=True)
class CostEntry:
    """One accounted query: the prediction next to the actuals."""

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
    predicted_seconds: float | None
    predicted_tuples: int | None
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
            "predicted_seconds": self.predicted_seconds,
            "predicted_tuples": self.predicted_tuples,
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
        "predicted_seconds",
        "predicted_queries",
    )

    def __init__(self) -> None:
        self.queries = 0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.tuples_accessed = 0
        self.degraded = 0
        self.predicted_seconds = 0.0
        self.predicted_queries = 0

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "tuples_accessed": self.tuples_accessed,
            "degraded": self.degraded,
            "predicted_seconds": self.predicted_seconds,
            "predicted_queries": self.predicted_queries,
        }


class CostLedger:
    """Predicted-vs-actual resource accounting for executed queries.

    Parameters
    ----------
    wall_clock, cpu_clock:
        Injectable time sources.  ``cpu_clock`` defaults to
        :func:`time.process_time` — the one sanctioned read of the
        process-CPU clock in the codebase (RPR011).
    drift_threshold:
        Absolute ``actual/predicted - 1`` beyond which the per-method
        drift anomaly fires (default 0.5: actuals 50% off the
        calibration).
    drift_min_samples:
        Cost-model-predicted queries a method must accumulate before
        its drift is trusted enough to alarm.
    max_entries:
        Recent :class:`CostEntry` records kept for inspection;
        aggregates are unbounded and exact.
    """

    def __init__(
        self,
        *,
        wall_clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
        drift_threshold: float = 0.5,
        drift_min_samples: int = 16,
        max_entries: int = 1024,
    ) -> None:
        if drift_threshold <= 0:
            raise ValueError(
                f"drift_threshold must be > 0, got {drift_threshold!r}"
            )
        if drift_min_samples < 1:
            raise ValueError(
                "drift_min_samples must be >= 1, got "
                f"{drift_min_samples!r}"
            )
        self._wall_clock = wall_clock
        self._cpu_clock = cpu_clock
        self.drift_threshold = drift_threshold
        self.drift_min_samples = drift_min_samples
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: list[CostEntry] = []
        self._aggregates: dict[tuple[str, str], _Aggregate] = {}
        self._drift_actual: dict[str, float] = {}
        self._drift_predicted: dict[str, float] = {}
        self._drift_samples: dict[str, int] = {}
        self._drift_alarmed: set[str] = set()

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
            if entry.predicted_seconds is not None:
                cell.predicted_seconds += entry.predicted_seconds
                cell.predicted_queries += 1
                method = entry.method
                self._drift_actual[method] = (
                    self._drift_actual.get(method, 0.0)
                    + entry.wall_seconds
                )
                self._drift_predicted[method] = (
                    self._drift_predicted.get(method, 0.0)
                    + entry.predicted_seconds
                )
                self._drift_samples[method] = (
                    self._drift_samples.get(method, 0) + 1
                )
        self._export(entry)
        self._check_drift(entry)

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
        if entry.predicted_seconds is not None:
            registry.counter(
                "cost.predicted_seconds",
                {"method": entry.method},
            ).inc(entry.predicted_seconds)

    def _check_drift(self, entry: CostEntry) -> None:
        if entry.predicted_seconds is None:
            return
        method = entry.method
        drift = self.drift(method)
        if drift is None:
            return
        registry = get_registry()
        if registry.enabled:
            registry.gauge(
                "cost.drift", {"method": method}
            ).set(drift)
        with self._lock:
            samples = self._drift_samples.get(method, 0)
            if samples < self.drift_min_samples:
                return
            if abs(drift) <= self.drift_threshold:
                self._drift_alarmed.discard(method)
                return
            if method in self._drift_alarmed:
                return
            self._drift_alarmed.add(method)
        notify_anomaly(
            "cost_drift",
            trace_id=entry.trace_id,
            method=method,
            drift=round(drift, 6),
            samples=samples,
            threshold=self.drift_threshold,
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def entries(self) -> tuple[CostEntry, ...]:
        """The most recent accounted queries (bounded ring)."""
        with self._lock:
            return tuple(self._entries)

    def drift(self, method: str) -> float | None:
        """``actual/predicted - 1`` over the method's predicted runs."""
        with self._lock:
            predicted = self._drift_predicted.get(method, 0.0)
            actual = self._drift_actual.get(method, 0.0)
        if predicted <= 0.0:
            return None
        return actual / predicted - 1.0

    def summary(self) -> dict:
        """The ``/costs`` document: per-tenant totals plus drift."""
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
            methods = sorted(self._drift_samples)
        drift = {}
        for method in methods:
            value = self.drift(method)
            if value is None:
                continue
            drift[method] = {
                "drift": value,
                "samples": self._drift_samples.get(method, 0),
                "alarmed": method in self._drift_alarmed,
                "threshold": self.drift_threshold,
            }
        return {
            "queries": total,
            "tenants": tenants,
            "drift": drift,
        }


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

        The prediction is read off ``result.metadata``, the actuals off
        ``outcome`` (default :func:`~repro.obs.capture.query_outcome`)
        — the layers above only supply identity.
        """
        ledger = self._ledger
        wall = ledger._wall_clock() - self._wall_start
        cpu = ledger._cpu_clock() - self._cpu_start
        outcome = outcome or query_outcome(result)
        estimate = result.metadata.get("cost_estimate")
        predicted_seconds = None
        predicted_tuples = None
        if isinstance(estimate, Mapping):
            value = estimate.get("total_seconds")
            if isinstance(value, (int, float)):
                predicted_seconds = float(value)
            tuples = estimate.get("tuples")
            if isinstance(tuples, int):
                predicted_tuples = tuples
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
            predicted_seconds=predicted_seconds,
            predicted_tuples=predicted_tuples,
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
