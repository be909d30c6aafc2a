"""The admin plane: live telemetry over minimal HTTP.

A second listener next to the line-JSON data port, speaking just
enough HTTP/1.0 for ``curl``, a Prometheus scraper, and a Kubernetes
probe — request line + headers in, one response out, connection
closed.  No routing framework, no dependency, no keep-alive: every
endpoint is a read-only snapshot of in-process state, so the handler
is a dispatch table over five paths:

``/metrics``
    The process registry as OpenMetrics 1.0 text — histograms carry
    per-bucket **exemplars** linking slow latency buckets to recent
    trace ids (:func:`repro.obs.export.to_openmetrics`).  SLO gauges
    are refreshed on the way out, so a scrape always reads current
    burn rates.
``/healthz``
    Liveness: 200 while the process can serve this very response.
``/readyz``
    Readiness: 200 while the core admits work, 503 once a drain has
    started — the signal a load balancer uses to stop routing here
    *before* requests start shedding.
``/slo``
    Every SLO spec's live evaluation as a JSON array (state, burn
    rates, good/bad counts), 200 even mid-breach — the *content*
    carries the alert, the transport stays boring.
``/costs``
    The cost ledger's summary (per-tenant/per-method resource
    aggregates) as JSON.  Drain-aware with
    ``/readyz`` semantics: 503 once a drain has started, because a
    draining core's ledger is about to stop moving and dashboards
    should fail over with the traffic.
``/debug/flight``
    The armed flight recorder's status; ``/debug/flight?dump=1``
    forces an on-demand dump (reason ``manual``) and returns it, the
    live-incident "give me everything you have" button.
``/debug/profile``
    Arm a :class:`~repro.obs.profiler.SamplingProfiler` for
    ``?seconds=N`` (default 1, capped at 30) and return the speedscope
    JSON dump.  The only endpoint that awaits: it samples the live
    process while other coroutines keep serving.  One capture at a
    time; a second request mid-capture gets 503.

The server binds loopback by default; nothing here authenticates, so
exposing it beyond the host is an operator decision, not a default.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING

from repro.obs import get_registry
from repro.obs.costs import get_cost_ledger
from repro.obs.export import OPENMETRICS_CONTENT_TYPE, to_openmetrics
from repro.obs.flight import get_flight_recorder
from repro.obs.logging import get_logger
from repro.obs.profiler import SamplingProfiler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.slo import SLOEngine
    from repro.serve.core import ServingCore

__all__ = ["handle_profile_request", "serve_admin"]

_log = get_logger("repro.serve.admin")

_MAX_REQUEST_BYTES = 8192

#: ``/debug/profile`` duration cap: the endpoint holds a sampler
#: thread for the whole capture, so a typo must not pin one for hours.
_MAX_PROFILE_SECONDS = 30.0

#: One capture at a time (single event loop, so a bool suffices).
_profiling = False


def _response(
    status: int,
    body: str,
    *,
    content_type: str = "text/plain; charset=utf-8",
) -> bytes:
    reason = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        503: "Service Unavailable",
    }.get(status, "OK")
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.0 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + payload


def _json_response(status: int, document: object) -> bytes:
    return _response(
        status,
        json.dumps(document, sort_keys=True, default=str) + "\n",
        content_type="application/json; charset=utf-8",
    )


def handle_admin_request(
    path: str,
    core: "ServingCore",
    *,
    slo: "SLOEngine | None" = None,
) -> bytes:
    """Resolve one GET path to a full HTTP response (transport-free).

    Split out from the socket handler so tests and the chaos soak can
    drive every endpoint without opening a port.
    """
    route, _, query = path.partition("?")
    slo_engine = slo if slo is not None else core.slo
    if route == "/metrics":
        if slo_engine is not None:
            slo_engine.evaluate()
        return _response(
            200,
            to_openmetrics(get_registry()),
            content_type=OPENMETRICS_CONTENT_TYPE,
        )
    if route == "/healthz":
        return _response(200, "ok\n")
    if route == "/readyz":
        if core.ready:
            return _response(200, "ready\n")
        return _response(503, "draining\n")
    if route == "/slo":
        if slo_engine is None:
            return _json_response(200, [])
        return _json_response(
            200,
            [status.to_dict() for status in slo_engine.evaluate()],
        )
    if route == "/costs":
        if not core.ready:
            return _json_response(503, {"error": "draining"})
        ledger = core.ledger if core.ledger is not None else (
            get_cost_ledger()
        )
        if ledger is None:
            return _json_response(200, {"enabled": False})
        document = ledger.summary()
        document["enabled"] = True
        return _json_response(200, document)
    if route == "/debug/flight":
        recorder = get_flight_recorder()
        if recorder is None:
            return _json_response(200, {"armed": False})
        document = recorder.snapshot()
        if "dump=1" in query.split("&"):
            recorder.trigger("manual", force=True)
            document = recorder.snapshot()
            document["last_dump"] = recorder.last_dump
        return _json_response(200, document)
    return _response(404, f"unknown path {route}\n")


async def handle_profile_request(path: str) -> bytes:
    """``/debug/profile?seconds=N[&hz=H]`` → speedscope JSON response.

    Async on purpose — the capture *is* the wait — and split from
    :func:`handle_admin_request` so tests can drive it without a
    socket.  Rejects overlapping captures with 503 rather than
    stacking sampler threads.
    """
    global _profiling
    _, _, query = path.partition("?")
    seconds = 1.0
    hz = 97.0
    for pair in query.split("&"):
        key, _, value = pair.partition("=")
        try:
            if key == "seconds":
                seconds = float(value)
            elif key == "hz":
                hz = float(value)
        except ValueError:
            return _json_response(
                400, {"error": f"bad {key} value {value!r}"}
            )
    if not 0.0 < seconds <= _MAX_PROFILE_SECONDS:
        return _json_response(
            400,
            {
                "error": (
                    "seconds must be in "
                    f"(0, {_MAX_PROFILE_SECONDS:g}], got {seconds:g}"
                )
            },
        )
    if _profiling:
        return _json_response(
            503, {"error": "a profile capture is already running"}
        )
    _profiling = True
    try:
        try:
            profiler = SamplingProfiler(hz=hz)
        except ValueError as error:
            return _json_response(400, {"error": str(error)})
        with profiler:
            await asyncio.sleep(seconds)
        return _json_response(
            200, profiler.to_speedscope(name="repro-admin")
        )
    finally:
        _profiling = False


async def serve_admin(
    core: "ServingCore",
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    slo: "SLOEngine | None" = None,
) -> asyncio.base_events.Server:
    """Start the admin listener; the caller owns its lifecycle.

    Runs on the same event loop as the data plane, so every endpoint
    reads consistent in-process state without locks.  Closing the
    returned server drops the listener; in-flight admin responses are
    one write each and finish on their own.
    """

    async def handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            parts = request_line.decode("latin-1").split()
            # Drain headers so well-behaved clients see a clean close.
            total = len(request_line)
            while True:
                header = await reader.readline()
                total += len(header)
                if header in (b"\r\n", b"\n", b"") or (
                    total > _MAX_REQUEST_BYTES
                ):
                    break
            if len(parts) < 2:
                writer.write(_response(405, "malformed request\n"))
            elif parts[0] != "GET":
                writer.write(
                    _response(405, f"method {parts[0]} not allowed\n")
                )
            elif parts[1].partition("?")[0] == "/debug/profile":
                writer.write(await handle_profile_request(parts[1]))
            else:
                writer.write(
                    handle_admin_request(parts[1], core, slo=slo)
                )
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    server = await asyncio.start_server(handler, host, port)
    bound = server.sockets[0].getsockname() if server.sockets else None
    _log.info("serve.admin.listening", address=str(bound))
    return server
