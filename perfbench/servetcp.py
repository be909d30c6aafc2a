"""serve-tcp: the shipped ``repro serve`` over loopback TCP.

One client (this process) opens two connections.  Each keeps one unit
in flight — a single request, or a coalescing group of identical
requests sent in one write — and sends the next only after every
response of the unit has arrived (a closed loop).  The units run in
segments of :data:`plan.SERVE_SEGMENT_UNITS` per connection; between
segments both connections are idle while the client probes the
machine's speed (:mod:`speed`), and each request is scaled by its
segment's probes.
"""

from __future__ import annotations

import asyncio
import json
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import plan
import speed
import tracing

HERE = Path(__file__).resolve().parent
SETUPS = 3
now = time.perf_counter


class ServerError(RuntimeError):
    pass


def spawn(files: list[Path], tmp: Path, trace_out: str, env):
    """Start a server; returns ``(process, port, seconds to ready)``."""
    log = tmp / f"server-{len(list(tmp.glob('server-*.log')))}.log"
    command = [
        sys.executable,
        str(HERE / "launch_server.py"),
        trace_out,
        "serve",
        *map(str, files),
        "--port",
        "0",
        "--max-workers",
        str(plan.workers()),
        "--queue-limit",
        "1024",
        "--tenant-rate",
        "1000000",
        "--tenant-burst",
        "1000000",
        "--deadline-ms",
        "120000",
    ]
    start = now()
    with open(log, "w") as handle:
        process = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=handle, env=env
        )
    while True:
        text = log.read_text()
        if "serving on " in text:
            elapsed = now() - start
            port = int(text.split("serving on ", 1)[1].split()[0].rsplit(":", 1)[1])
            return process, port, elapsed
        if process.poll() is not None or now() - start > 120:
            stop(process)
            raise ServerError(f"server did not start:\n{text}")
        time.sleep(0.002)


def stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
    try:
        process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


async def _drive(port: int, units, segment: int | None = None):
    """Run each connection's closed loop.

    Returns ``(responses by id, latencies by id, scale by id, raw
    seconds, scaled seconds)``.  With ``segment`` set, the loops meet
    every ``segment`` units and the speed is probed there.
    """
    connections = [
        await asyncio.open_connection("127.0.0.1", port) for _ in units
    ]
    responses: dict = {}
    latencies: dict = {}
    scales: dict = {}
    busy = busy_scaled = 0.0

    async def loop(reader, writer, conn_units, ids: list) -> None:
        for unit in conn_units:
            payload = "".join(json.dumps(line) + "\n" for line in unit)
            start = now()
            writer.write(payload.encode("utf-8"))
            await writer.drain()
            for _ in unit:
                raw = await reader.readline()
                arrived = now()
                if not raw:
                    raise ServerError("server closed the connection")
                record = json.loads(raw)
                latencies[record["id"]] = arrived - start
                responses[record["id"]] = record
                ids.append(record["id"])

    length = max(len(conn_units) for conn_units in units)
    step = segment or length
    before = speed.probe()
    try:
        for offset in range(0, length, step):
            ids: list = []
            start = now()
            await asyncio.gather(
                *(
                    loop(reader, writer, conn_units[offset : offset + step], ids)
                    for (reader, writer), conn_units in zip(connections, units)
                )
            )
            elapsed = now() - start
            after = speed.probe()
            scale = speed.factor(before, after)
            before = after
            busy += elapsed
            busy_scaled += elapsed * scale
            scales.update((request_id, scale) for request_id in ids)
    finally:
        for _, writer in connections:
            writer.close()
            await writer.wait_closed()
    return responses, latencies, scales, busy, busy_scaled


def _warmup_units(units):
    """One request per class per connection, with non-numeric ids."""
    warm = []
    for conn, conn_units in enumerate(units):
        seen = {}
        for unit in conn_units:
            spec = unit[0]
            if spec.query.name not in seen:
                line = spec.line()
                line["id"] = f"w{conn}-{spec.query.name}"
                seen[spec.query.name] = [line]
        warm.append(list(seen.values()))
    return warm


def timed_pass(port: int, units) -> dict:
    """A warm-up, then one timed pass; request ids are the op numbers."""
    asyncio.run(_drive(port, _warmup_units(units)))
    lines = [[[spec.line() for spec in unit] for unit in conn] for conn in units]
    responses, latencies, scales, busy, busy_scaled = asyncio.run(
        _drive(port, lines, plan.SERVE_SEGMENT_UNITS)
    )
    return {
        "responses": responses,
        "latencies": latencies,
        "scales": scales,
        "busy": busy,
        "busy_scaled": busy_scaled,
    }


def check(units, observed: dict, relations: dict) -> dict:
    """Answer check and counts for one pass (untimed)."""
    from repro.core.semantics import rank
    from repro.obs.capture import answer_digest

    reference: dict = {}
    failures = []
    per_class: dict[str, int] = {}
    followers = ok = 0
    latencies, factors, op_walls = [], [], {}
    for conn_units in units:
        for unit in conn_units:
            for spec in unit:
                record = observed["responses"].get(spec.op)
                per_class[spec.query.name] = per_class.get(spec.query.name, 0) + 1
                elapsed = observed["latencies"][spec.op]
                latencies.append(elapsed)
                factors.append(observed["scales"][spec.op])
                op_walls[spec.op] = elapsed
                key = (spec.query.name, spec.k)
                if key not in reference:
                    reference[key] = answer_digest(
                        rank(
                            relations[spec.query.relation],
                            spec.k,
                            method=spec.query.method,
                            **spec.query.options_dict(),
                        )
                    )
                if record is None or record.get("status") != "ok":
                    failures.append(f"op {spec.op}: {record}")
                    continue
                followers += bool(record.get("coalesced"))
                if record.get("degraded"):
                    failures.append(f"op {spec.op} degraded")
                elif record.get("answer_digest") != reference[key]:
                    failures.append(f"op {spec.op} answer digest mismatch")
                else:
                    ok += 1
    return {
        "latencies": latencies,
        "factors": factors,
        "write_latencies": [],
        "write_factors": [],
        "op_walls": op_walls,
        "busy": observed["busy"],
        "busy_scaled": observed["busy_scaled"],
        "ok": ok,
        "attempted": len(op_walls),
        "failures": failures,
        "counts": {
            "ops_per_class": dict(sorted(per_class.items())),
            "coalesced_followers": followers,
        },
    }


def run(seed: int, seconds: float, trace: bool, tmp: Path, env) -> dict:
    from repro.engine import io

    workload = plan.WORKLOADS["serve-tcp"]
    files = [tmp / f"{rel.name}.json" for rel in workload.relations]
    units = plan.serve_units(seed, seconds)
    setups = []
    server = None
    try:
        # Every set-up but the last is stopped at once; the last one
        # serves the timed pass.
        for _ in range(SETUPS):
            if server is not None:
                stop(server)
            before = speed.probe()
            server, port, elapsed = spawn(files, tmp, "-", env)
            setups.append([elapsed, speed.factor(before, speed.probe())])
        observed = timed_pass(port, units)
        stop(server)
        server = None
        # The largest terminated child: every server loaded the same
        # relations, and the last one carried the timed traffic.
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        relations = {path.stem: io.load_json(path) for path in files}
        timed = check(units, observed, relations)
        timed.pop("op_walls")
        result = {
            "setups": setups,
            "pass": timed,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }
        if trace:
            spans_path = tmp / "spans.json"
            server, port, _ = spawn(files, tmp, str(spans_path), env)
            traced_observed = timed_pass(port, units)
            stop(server)
            server = None
            traced = check(units, traced_observed, relations)
            spans = json.loads(spans_path.read_text())
            summary = tracing.summarize(
                spans, traced.pop("op_walls"), tracing.load_seconds(spans)
            )
            summary["pass"] = traced
            result["traced"] = summary
    finally:
        if server is not None:
            stop(server)
    return result
