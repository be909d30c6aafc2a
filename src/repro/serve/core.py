"""The serving core: admission → coalescing → resilient execution.

:class:`ServingCore` is the in-process async API in front of
:class:`~repro.engine.database.ProbabilisticDatabase.topk`.  One
request flows:

1. **admission** — the bounded system limit and the tenant's token
   bucket decide synchronously; shed requests resolve immediately
   with ``status="shed"`` and a typed reason;
2. **deadline** — a single :class:`~repro.robust.Deadline` is minted
   at admission and follows the request everywhere: it gates thread-
   pool dispatch, bounds a follower's wait on a coalesced leader, and
   funds the degradation ladder's retry budget (queue time counts
   against the request, not on top of it);
3. **coalescing** — identical in-flight queries (same dataset digest,
   ``k``, method, options) share the leader's single kernel
   execution, answers bit-identical by construction;
4. **execution** — the leader runs ``db.topk`` through a per-request
   :class:`~repro.engine.query.ResilientExecutor` on a worker thread,
   every ladder rung gated by the core's shared
   :class:`~repro.robust.BreakerBoard` so persistently failing rungs
   are skipped fleet-wide.

Every request resolves to exactly one typed
:class:`ServeResponse` — ``ok``, ``shed``, or ``error`` — and never
hangs past its deadline; :meth:`ServingCore.drain` stops admission and
settles all in-flight work before returning.  The whole path is
traced (``serve.request`` spans admission through execution) and
metered (queue-depth gauge, shed/coalesced counters, per-tenant
latency histograms).

Thread-safety: all ``async`` methods run on one event loop; only the
kernel work crosses into the thread pool.  The breaker board is the
one structure mutated from worker threads — its per-call updates are
simple container operations guarded by the GIL, and a lost race there
skews accounting by one call at worst, never an answer.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Mapping

from repro.engine.query import ResilientExecutor
from repro.exceptions import (
    DeadlineExceededError,
    EngineError,
    OverloadedError,
    ReproError,
    SchemaError,
)
from repro.obs import answer_digest, count, get_registry
from repro.obs import trace as obs_trace
from repro.obs.capture import query_outcome
from repro.obs.costs import CostLedger
from repro.obs.flight import notify_anomaly
from repro.obs.logging import bind_tenant, get_logger
from repro.obs.scope import QueryRecord, query_scope
from repro.robust import BreakerBoard, Deadline, RetryPolicy
from repro.serve.admission import AdmissionController
from repro.serve.coalesce import RequestCoalescer, coalesce_key
from repro.serve.settings import ServeSettings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.result import TopKResult
    from repro.engine.database import ProbabilisticDatabase
    from repro.obs.slo import SLOEngine
    from repro.robust import FaultInjector

__all__ = ["ServeRequest", "ServeResponse", "ServingCore"]

_log = get_logger("repro.serve")


@dataclass(frozen=True)
class ServeRequest:
    """One tenant's ranking query, as admitted by the serving core."""

    relation: str
    k: int
    method: str = "expected_rank"
    tenant: str = "default"
    options: Mapping[str, object] = field(default_factory=dict)
    #: Per-request deadline; ``None`` adopts the settings default.
    deadline_ms: float | None = None

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "ServeRequest":
        """Build a request from one line-JSON object.

        Raises :class:`~repro.exceptions.SchemaError` on malformed
        payloads — the transport turns that into an ``error``
        response for the offending line, not a dead connection.
        """
        if not isinstance(payload, Mapping):
            raise SchemaError(
                f"request must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        known = {
            "relation",
            "k",
            "method",
            "tenant",
            "options",
            "deadline_ms",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SchemaError(
                f"unknown request field(s): {', '.join(unknown)}"
            )
        relation = payload.get("relation")
        if not isinstance(relation, str) or not relation:
            raise SchemaError(
                "request needs a non-empty string 'relation'"
            )
        k = payload.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise SchemaError(
                f"request needs an integer k >= 0, got {k!r}"
            )
        method = payload.get("method", "expected_rank")
        if not isinstance(method, str):
            raise SchemaError(f"method must be a string, got {method!r}")
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise SchemaError(
                f"tenant must be a non-empty string, got {tenant!r}"
            )
        options = payload.get("options", {})
        if not isinstance(options, Mapping):
            raise SchemaError(
                f"options must be an object, got {options!r}"
            )
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None and (
            not isinstance(deadline_ms, (int, float))
            or isinstance(deadline_ms, bool)
            or deadline_ms < 0
        ):
            raise SchemaError(
                f"deadline_ms must be a number >= 0, got {deadline_ms!r}"
            )
        return cls(
            relation=relation,
            k=k,
            method=method,
            tenant=tenant,
            options=dict(options),
            deadline_ms=(
                float(deadline_ms) if deadline_ms is not None else None
            ),
        )


@dataclass(frozen=True)
class ServeResponse:
    """Exactly one typed outcome per request.

    ``status`` is the contract: ``ok`` carries the answer (and the
    full :class:`TopKResult` for in-process callers), ``shed`` carries
    the admission/drain reason, ``error`` carries the typed failure.
    """

    status: str
    tenant: str
    relation: str
    k: int
    method: str
    answer: tuple[str, ...] | None = None
    answer_digest: str | None = None
    degraded: bool = False
    fallback_method: str | None = None
    coalesced: bool = False
    shed_reason: str | None = None
    error_type: str | None = None
    error: str | None = None
    trace_id: str | None = None
    wall_seconds: float | None = None
    #: The in-process payload; excluded from the wire representation.
    result: "TopKResult | None" = None

    def to_json(self) -> dict:
        """The line-JSON wire form (drops the in-process result)."""
        record: dict = {
            "status": self.status,
            "tenant": self.tenant,
            "relation": self.relation,
            "k": self.k,
            "method": self.method,
            "trace_id": self.trace_id,
            "wall_seconds": self.wall_seconds,
        }
        if self.status == "ok":
            record.update(
                answer=list(self.answer or ()),
                answer_digest=self.answer_digest,
                degraded=self.degraded,
                fallback_method=self.fallback_method,
                coalesced=self.coalesced,
            )
        elif self.status == "shed":
            record["shed_reason"] = self.shed_reason
        else:
            record.update(
                error_type=self.error_type, error=self.error
            )
        return record


class ServingCore:
    """Multi-tenant serving front end over one database.

    Parameters
    ----------
    database:
        The catalog to serve; relations are addressed by name.
    settings:
        All limits and quotas (:class:`ServeSettings`).
    injector:
        Optional shared chaos injector, passed to every per-request
        executor (the chaos soak's hook).
    retry:
        Per-rung retry policy; defaults to
        ``RetryPolicy(max_retries=settings.max_retries)``.
    breakers:
        The shared breaker board; built from the settings when not
        given.  Sharing is the point: rung failures observed by any
        request open the breaker for all of them.
    clock:
        Injectable monotonic clock driving admission quotas,
        deadlines, and breakers (RPR004: tests are wall-clock-free).
    slo:
        Optional :class:`~repro.obs.slo.SLOEngine`; every finished
        request is folded into it (outcome, latency, degradation), so
        the admin plane's ``/slo`` reads live burn rates.
    ledger:
        Optional :class:`~repro.obs.costs.CostLedger`; every leader
        execution is metered into it with the request's tenant, and
        the admin plane's ``/costs`` reads its summary.  ``None``
        falls back to the ambient ledger (if one is installed).
    """

    def __init__(
        self,
        database: "ProbabilisticDatabase",
        *,
        settings: ServeSettings | None = None,
        injector: "FaultInjector | None" = None,
        retry: RetryPolicy | None = None,
        breakers: BreakerBoard | None = None,
        clock: Callable[[], float] = time.monotonic,
        slo: "SLOEngine | None" = None,
        ledger: CostLedger | None = None,
    ) -> None:
        self.database = database
        self.settings = settings if settings is not None else ServeSettings()
        self.injector = injector
        self.retry = (
            retry
            if retry is not None
            else RetryPolicy(max_retries=self.settings.max_retries)
        )
        self.breakers = (
            breakers
            if breakers is not None
            else BreakerBoard(
                window=self.settings.breaker_window,
                failure_threshold=self.settings.breaker_threshold,
                min_calls=self.settings.breaker_min_calls,
                reset_seconds=self.settings.breaker_reset_seconds,
                clock=clock,
            )
        )
        self._clock = clock
        self.admission = AdmissionController(
            queue_limit=self.settings.queue_limit,
            quota_for=self.settings.quota_for,
            clock=clock,
        )
        self.coalescer = RequestCoalescer()
        self._pool = ThreadPoolExecutor(
            max_workers=self.settings.max_workers,
            thread_name_prefix="repro-serve",
        )
        self._abort = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._inflight = 0
        self._closed = False
        self.slo = slo
        self.ledger = ledger

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    async def submit(self, request: ServeRequest) -> ServeResponse:
        """Resolve one request to exactly one typed response.

        Never raises for load, faults, or deadlines — those become
        ``shed`` / ``error`` responses.  (Programming errors still
        propagate; a typed contract must not hide bugs.)
        """
        start = self._clock()
        with bind_tenant(request.tenant), obs_trace(
            "serve.request",
            tenant=request.tenant,
            relation=request.relation,
            method=request.method,
            k=request.k,
        ) as span:
            trace_id = span.trace_id
            try:
                self.admission.admit(request.tenant)
            except OverloadedError as error:
                outcome: tuple[str, object] = ("shed", error)
                response = self._finish(
                    request,
                    outcome,
                    coalesced=False,
                    trace_id=trace_id,
                    start=start,
                )
            else:
                deadline_ms = (
                    request.deadline_ms
                    if request.deadline_ms is not None
                    else self.settings.default_deadline_ms
                )
                deadline = Deadline.from_ms(
                    deadline_ms, clock=self._clock
                )
                self._enter()
                try:
                    outcome, coalesced = await self._execute(
                        request, deadline
                    )
                finally:
                    self.admission.release()
                    self._leave()
                response = self._finish(
                    request,
                    outcome,
                    coalesced=coalesced,
                    trace_id=trace_id,
                    start=start,
                )
        # Outside the span on purpose: by now the root span has been
        # emitted, so an armed flight recorder's anomaly dump holds
        # the triggering trace's *complete* tree.
        payload = outcome[1]
        if isinstance(payload, BaseException):
            notify_anomaly(
                payload, trace_id=trace_id, tenant=request.tenant
            )
        return response

    async def _execute(
        self, request: ServeRequest, deadline: Deadline
    ) -> tuple[tuple[str, object], bool]:
        """Run an admitted request; returns ``(outcome, coalesced)``."""
        try:
            digest = self.database.relation_digest(request.relation)
        except ReproError as error:
            return ("error", error), False
        if not self.settings.coalesce:
            return await self._lead(request, deadline, key=None), False
        key = coalesce_key(
            digest, request.k, request.method, request.options
        )
        is_leader, future = self.coalescer.join(key)
        if is_leader:
            return await self._lead(request, deadline, key=key), False
        return await self._follow(future, deadline), True

    async def _lead(
        self,
        request: ServeRequest,
        deadline: Deadline,
        *,
        key: str | None,
    ) -> tuple[str, object]:
        """Run the query on the pool; publish the outcome to followers."""
        loop = asyncio.get_running_loop()
        outcome: tuple[str, object] = (
            "error",
            EngineError("serve leader aborted before resolving"),
        )
        try:
            # The worker runs in a copy of this context, so the query
            # stays in the request's trace (and tenant) instead of
            # minting a trace of its own.
            answered = await loop.run_in_executor(
                self._pool,
                contextvars.copy_context().run,
                self._run_query,
                request,
                deadline,
            )
            outcome = ("ok", answered)
        except (ReproError, OSError) as error:
            outcome = ("error", error)
        except asyncio.CancelledError:
            # Only the drain path cancels pool futures; the request
            # still owes its caller a typed outcome.
            outcome = ("drained", None)
        finally:
            if key is not None:
                self.coalescer.resolve(key, outcome)
        return outcome

    async def _follow(
        self, future: asyncio.Future, deadline: Deadline
    ) -> tuple[str, object]:
        """Await the leader's outcome, bounded by our own deadline."""
        remaining = deadline.remaining()
        timeout = (
            None if remaining == float("inf") else max(0.0, remaining)
        )
        abort_waiter = asyncio.ensure_future(self._abort.wait())
        try:
            await asyncio.wait(
                {future, abort_waiter},
                timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            abort_waiter.cancel()
        if future.done():
            return future.result()
        if self._abort.is_set():
            return ("drained", None)
        return (
            "error",
            DeadlineExceededError(
                "deadline expired while waiting on a coalesced "
                "in-flight query"
            ),
        )

    def _run_query(
        self, request: ServeRequest, deadline: Deadline
    ) -> "tuple[TopKResult, QueryRecord | None]":
        """The worker-thread body: re-check the deadline, then rank.

        Runs on the pool, so queue time has already been spent when it
        starts; the admission deadline is re-checked here and whatever
        remains becomes the executor's ladder budget.  Returns the
        query scope's record too, for the coalesced followers.
        """
        deadline.check("serve.dispatch")
        remaining = deadline.remaining()
        executor = ResilientExecutor(
            retry=self.retry,
            deadline_ms=(
                None
                if remaining == float("inf")
                else max(0.0, remaining * 1000.0)
            ),
            injector=self.injector,
            breakers=self.breakers,
            seed=self.settings.seed,
        )
        with query_scope(
            None,
            request.k,
            request.method,
            request.options,
            relation_name=request.relation,
            tenant=request.tenant,
            ledger=self.ledger,
        ) as record:
            result = self.database.topk(
                request.relation,
                request.k,
                request.method,
                executor=executor,
                **dict(request.options),
            )
        return result, record

    # ------------------------------------------------------------------
    # Outcome → response
    # ------------------------------------------------------------------
    def _finish(
        self,
        request: ServeRequest,
        outcome: tuple[str, object],
        *,
        coalesced: bool,
        trace_id: str | None,
        start: float,
    ) -> ServeResponse:
        kind, payload = outcome
        wall = self._clock() - start
        count("serve.requests")
        registry = get_registry()
        if registry.enabled:
            registry.describe(
                "serve.latency",
                "Request wall time per tenant, admission to response",
            )
            registry.histogram(
                "serve.latency", {"tenant": request.tenant}
            ).observe(
                wall,
                # The OpenMetrics exemplar: each latency bucket links
                # to the most recent trace that landed in it, so a
                # scrape's slow bucket points straight at a trace id.
                exemplar=(
                    {"trace_id": trace_id}
                    if trace_id is not None
                    else None
                ),
            )
        if kind == "ok":
            result, record = payload  # type: ignore[misc]
            derived = (record and record.outcome) or query_outcome(result)
        if self.slo is not None:
            self.slo.observe(
                request.tenant,
                ok=kind == "ok",
                latency_seconds=wall,
                degraded=kind == "ok" and derived.degraded,
            )
        base = dict(
            tenant=request.tenant,
            relation=request.relation,
            k=request.k,
            method=request.method,
            trace_id=trace_id,
            wall_seconds=wall,
        )
        if kind == "ok":
            if coalesced and record is not None:
                self._record_coalesced(request, result, record, trace_id)
            return ServeResponse(
                status="ok",
                answer=result.tids(),
                answer_digest=answer_digest(result),
                degraded=derived.degraded,
                fallback_method=derived.fallback_method,
                coalesced=coalesced,
                result=result,
                **base,
            )
        if kind == "drained":
            count("serve.shed", labels={"reason": "drained"})
            return ServeResponse(
                status="shed", shed_reason="drained", **base
            )
        if kind == "shed":
            shed: OverloadedError = payload  # type: ignore[assignment]
            return ServeResponse(
                status="shed", shed_reason=shed.reason, **base
            )
        error: BaseException = payload  # type: ignore[assignment]
        count("serve.errors")
        _log.error(
            "serve.error",
            error_type=type(error).__name__,
            error=str(error),
            relation=request.relation,
            wall_seconds=round(wall, 6),
        )
        return ServeResponse(
            status="error",
            error_type=type(error).__name__,
            error=str(error),
            **base,
        )

    def _record_coalesced(
        self,
        request: ServeRequest,
        result: "TopKResult",
        leader: QueryRecord,
        trace_id: str | None,
    ) -> None:
        """Capture a follower's answer from its leader's record.

        Followers bill nothing.  The line names the version the leader
        ranked, and its annotations carry the follower's tenant and
        the leader's trace id, so a session report can group the share.
        """
        if leader.capture is None or leader.relation is None:
            return
        outcome = leader.outcome or query_outcome(result)
        leader.capture.record_query(
            leader.relation,
            result,
            k=leader.k,
            method=leader.method,
            options=leader.options,
            relation_name=leader.relation_name,
            outcome=replace(outcome, trace_id=trace_id),
            annotations={
                "coalesced": True,
                "tenant": request.tenant,
                "leader_trace_id": result.metadata.get("trace_id"),
            },
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _enter(self) -> None:
        self._inflight += 1
        self._idle.clear()

    def _leave(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

    @property
    def inflight(self) -> int:
        """Admitted requests not yet resolved."""
        return self._inflight

    @property
    def ready(self) -> bool:
        """Whether the core is accepting work (the ``/readyz`` answer).

        ``False`` from the moment a drain starts — load balancers
        stop routing here while in-flight requests settle.
        """
        return not self._closed and not self.admission.draining

    async def drain(self, *, deadline_ms: float | None = None) -> dict:
        """Graceful shutdown: stop admitting, settle in-flight work.

        New requests shed with reason ``draining`` immediately.
        In-flight requests get ``deadline_ms`` (default: the settings'
        drain deadline) to finish; past that, queued-but-unstarted
        kernel work is cancelled and waiting followers are released —
        both resolve as ``shed`` with reason ``drained``.  The final
        wait is unbounded but convergent: cancelled leaders resolve
        immediately and running kernels are bounded by their own
        request deadlines, so no task is ever orphaned.

        Returns ``{"abandoned": ..., "drained_in_seconds": ...}``.
        Idempotent; the core cannot be reused afterwards.
        """
        started = self._clock()
        self.admission.start_draining()
        budget = (
            self.settings.drain_deadline_ms
            if deadline_ms is None
            else deadline_ms
        )
        abandoned = 0
        if self._inflight:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=budget / 1000.0
                )
            except asyncio.TimeoutError:
                count("serve.drain.forced")
                self._abort.set()
                abandoned = self.coalescer.abandon_all()
                self._pool.shutdown(wait=False, cancel_futures=True)
                await self._idle.wait()
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)
        count("serve.drained")
        self.admission.publish_depth()
        report = {
            "abandoned": abandoned,
            "drained_in_seconds": self._clock() - started,
        }
        _log.info("serve.drained", **report)
        return report
