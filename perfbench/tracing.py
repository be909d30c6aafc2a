"""In-memory spans around the package's public functions.

The traced run installs wrappers from here; nothing under ``src``
changes.  Each wrapper records one span — name, start, end, parent
span and operation id — into a :class:`Recorder`.  Spans stay in
memory and are summarised (or, in the server, written out) when the
run ends.

Parent links follow a context variable, which is task-local under
asyncio and thread-local in the worker pool.  The one hop the context
does not make — from ``ServingCore.submit`` on the event loop to
``ServingCore._run_query`` on a pool thread — is bridged by keying the
submit span on the request object.
"""

from __future__ import annotations

import contextvars
import itertools
import re
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

from stats import self_time

_now = time.perf_counter
_ID = re.compile(r'"id":\s*(\d+)')

#: Span name -> layer (the module the wrapped function belongs to).
LAYER = {
    "serve.transport.handle_line": "serve.transport",
    "serve.core.submit": "serve.core",
    "serve.core.run_query": "serve.core",
    "serve.admission.admit": "serve.admission",
    "serve.admission.release": "serve.admission",
    "serve.coalesce.join": "serve.coalesce",
    "serve.coalesce.wait": "serve.coalesce",
    "engine.database.topk": "engine.database",
    "engine.database.digest": "engine.database",
    "engine.database.replace": "engine.database",
    "engine.database.load": "engine.database",
    "engine.query.plan": "engine.query",
    "engine.query.execute": "engine.query",
    "engine.maintenance.update": "engine.maintenance",
    "engine.maintenance.snapshot": "engine.maintenance",
    "core.rank": "core",
    "core.columnar.build": "core.columnar",
    "obs.capture.record": "obs",
    "obs.costs.finish": "obs",
    "obs.answer_digest": "obs",
}

FAMILY = {
    "expected_rank": "erank",
    "expected_rank_prune": "erank_prune",
    "median_rank": "dist",
    "quantile_rank": "dist",
    "quantile_rank_prune": "dist",
    "u_kranks": "dist",
    "pt_k": "dist",
    "global_topk": "dist",
    "prf_exponential": "dist",
}


class Recorder:
    """Collects spans as ``(id, name, op, parent, start, end, info)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self.op: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_op", default=None
        )
        self._submits: dict[int, tuple] = {}

    @contextmanager
    def operation(self, op: int) -> Iterator[None]:
        token = self.op.set(op)
        try:
            yield
        finally:
            self.op.reset(token)

    def _begin(self) -> tuple:
        sid = next(self._ids)
        return sid, self.current.get(), self.current.set(sid), _now()

    def _end(self, name, sid, parent, token, start, info) -> None:
        end = _now()
        self.current.reset(token)
        self.spans.append((sid, name, self.op.get(), parent, start, end, info))

    def call(self, name, fn, args, kwargs, describe=None):
        sid, parent, token, start = self._begin()
        info = None
        try:
            result = fn(*args, **kwargs)
        except Exception as error:
            info = {"error": type(error).__name__}
            raise
        else:
            if describe is not None:
                info = describe(result, args)
            return result
        finally:
            self._end(name, sid, parent, token, start, info)

    async def acall(self, name, fn, args, kwargs):
        sid, parent, token, start = self._begin()
        try:
            return await fn(*args, **kwargs)
        finally:
            self._end(name, sid, parent, token, start, None)


def _patch(owner, attr: str, make: Callable) -> None:
    original = owner.__dict__[attr]
    if isinstance(original, classmethod):
        setattr(owner, attr, classmethod(make(original.__func__)))
    else:
        setattr(owner, attr, make(original))


def _sync(recorder: Recorder, name: str, describe=None) -> Callable:
    def make(fn):
        def wrapper(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs, describe)

        return wrapper

    return make


def _rank_info(result, args) -> dict:
    relation, method = args[0], args[2] if len(args) > 2 else None
    metadata = result.metadata
    accessed = metadata.get("tuples_accessed")
    return {
        "method": method or result.method,
        "n": relation.size,
        "accessed": accessed if isinstance(accessed, int) else None,
        "gf": metadata.get("gf_fallback"),
    }


def _execute_info(result, args) -> dict:
    metadata = result.metadata
    return {
        "rungs": len(metadata.get("ladder", ())),
        "degraded": bool(metadata.get("degraded", False)),
    }


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.core import semantics
    from repro.core.columnar import AttributeColumns, TupleColumns
    from repro.engine import database, io, query
    from repro.engine.database import ProbabilisticDatabase
    from repro.engine.maintenance import MaintainedTupleStore
    from repro.engine.query import ResilientExecutor, TopKPlanner
    from repro.obs import capture
    from repro.obs.capture import CaptureLog
    from repro.obs.costs import CostMeter
    from repro.serve import core, transport
    from repro.serve.admission import AdmissionController
    from repro.serve.coalesce import RequestCoalescer
    from repro.serve.core import ServingCore

    # -- core ----------------------------------------------------------
    def make_rank(fn):
        def rank(relation, k, method="expected_rank", **options):
            return recorder.call(
                "core.rank",
                fn,
                (relation, k, method),
                options,
                _rank_info,
            )

        return rank

    for module in (semantics, database, query):
        _patch(module, "rank", make_rank)
    _patch(AttributeColumns, "from_relation", _sync(recorder, "core.columnar.build"))
    _patch(TupleColumns, "from_relation", _sync(recorder, "core.columnar.build"))

    # -- engine --------------------------------------------------------
    _patch(ProbabilisticDatabase, "topk", _sync(recorder, "engine.database.topk"))
    _patch(
        ProbabilisticDatabase,
        "replace_relation",
        _sync(recorder, "engine.database.replace"),
    )
    _patch(capture, "relation_digest", _sync(recorder, "engine.database.digest"))
    load = _sync(recorder, "engine.database.load")(io.load_json)
    io.load_json = load
    database.load_json = load
    if "repro.cli" in sys.modules:
        sys.modules["repro.cli"].load_json = load
    _patch(TopKPlanner, "plan", _sync(recorder, "engine.query.plan"))
    _patch(
        ResilientExecutor,
        "execute",
        _sync(recorder, "engine.query.execute", _execute_info),
    )
    for attr in ("insert", "delete", "update_probability"):
        _patch(
            MaintainedTupleStore,
            attr,
            _sync(recorder, "engine.maintenance.update"),
        )
    _patch(
        MaintainedTupleStore,
        "snapshot",
        _sync(recorder, "engine.maintenance.snapshot"),
    )

    # -- obs -----------------------------------------------------------
    _patch(CaptureLog, "record_query", _sync(recorder, "obs.capture.record"))
    _patch(CostMeter, "finish", _sync(recorder, "obs.costs.finish"))
    for module in (capture, core):
        _patch(module, "answer_digest", _sync(recorder, "obs.answer_digest"))

    # -- serve ---------------------------------------------------------
    _patch(
        AdmissionController, "admit", _sync(recorder, "serve.admission.admit")
    )
    _patch(
        AdmissionController,
        "release",
        _sync(recorder, "serve.admission.release"),
    )

    def make_join(fn):
        def join(self, key):
            is_leader, future = recorder.call(
                "serve.coalesce.join", fn, (self, key), {}
            )
            if not is_leader:
                # The wait ends when the leader resolves the future.
                sid, parent = next(recorder._ids), recorder.current.get()
                op, start = recorder.op.get(), _now()

                def done(_future) -> None:
                    recorder.spans.append(
                        (
                            sid,
                            "serve.coalesce.wait",
                            op,
                            parent,
                            start,
                            _now(),
                            None,
                        )
                    )

                future.add_done_callback(done)
            return is_leader, future

        return join

    _patch(RequestCoalescer, "join", make_join)

    def make_submit(fn):
        async def submit(self, request):
            sid, parent, token, start = recorder._begin()
            recorder._submits[id(request)] = (recorder.op.get(), sid, start)
            try:
                return await fn(self, request)
            finally:
                recorder._submits.pop(id(request), None)
                recorder._end(
                    "serve.core.submit", sid, parent, token, start, None
                )

        return submit

    _patch(ServingCore, "submit", make_submit)

    def make_run_query(fn):
        def run_query(self, request, deadline):
            op, parent_sid, submitted = recorder._submits[id(request)]
            op_token = recorder.op.set(op)
            parent_token = recorder.current.set(parent_sid)
            try:
                return recorder.call(
                    "serve.core.run_query",
                    fn,
                    (self, request, deadline),
                    {},
                    lambda result, args: {"submitted": submitted},
                )
            finally:
                recorder.current.reset(parent_token)
                recorder.op.reset(op_token)

        return run_query

    _patch(ServingCore, "_run_query", make_run_query)

    def make_handle_line(fn):
        async def handle_line(core_, line):
            match = _ID.search(line)
            token = recorder.op.set(int(match.group(1)) if match else None)
            try:
                return await recorder.acall(
                    "serve.transport.handle_line", fn, (core_, line), {}
                )
            finally:
                recorder.op.reset(token)

        return handle_line

    _patch(transport, "handle_line", make_handle_line)


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
PER_LAYER = (
    ("serve.transport.self_ms", "ms"),
    ("serve.admission.ms", "ms"),
    ("serve.admission.shed", "count"),
    ("serve.coalesce.follower_frac", "frac"),
    ("serve.coalesce.follower_wait_ms", "ms"),
    ("serve.core.self_ms", "ms"),
    ("serve.core.dispatch_wait_ms", "ms"),
    ("engine.database.topk_self_ms", "ms"),
    ("engine.database.digest_calls", "count"),
    ("engine.database.digest_ms", "ms"),
    ("engine.database.load_s", "s"),
    ("engine.query.plan_ms", "ms"),
    ("engine.query.executor_self_ms", "ms"),
    ("engine.query.rungs_per_query", "count"),
    ("engine.query.degraded_frac", "frac"),
    ("engine.maintenance.update_ms", "ms"),
    ("engine.maintenance.snapshot_ms", "ms"),
    ("core.rank.erank_ms", "ms"),
    ("core.rank.erank_prune_ms", "ms"),
    ("core.rank.dist_ms", "ms"),
    ("core.rank.other_ms", "ms"),
    ("core.tuples_accessed_frac", "frac"),
    ("core.columnar.builds_per_query", "count"),
    ("core.columnar.build_ms", "ms"),
    ("core.columnar.gf_fallback_frac", "frac"),
    ("obs.capture.record_ms", "ms"),
    ("obs.costs.finish_ms", "ms"),
    ("obs.answer_digest_ms", "ms"),
)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def summarize(spans: list, op_walls: dict, setup_loads: float) -> dict:
    """Per-layer metrics, coverage and span counts of a traced pass.

    ``op_walls`` maps each timed operation id to its wall time in
    seconds as the benchmark measured it; spans without an operation
    (set-up, warm-up) only feed ``engine.database.load_s``, which the
    caller passes in as ``setup_loads``.
    """
    children: dict = defaultdict(list)
    for sid, name, op, parent, start, end, info in spans:
        if parent is not None:
            children[parent].append((start, end))
    ops = len(op_walls)
    durations: dict = defaultdict(list)
    self_by_layer: dict = defaultdict(float)
    self_by_name: dict = defaultdict(float)
    infos: dict = defaultdict(list)
    for sid, name, op, parent, start, end, info in spans:
        if op is None or op not in op_walls:
            continue
        own = self_time(start, end, children.get(sid, ()))
        self_by_layer[LAYER[name]] += own
        self_by_name[name] += own
        durations[name].append(end - start)
        if info is not None:
            infos[name].append(info)
    ms = 1000.0
    ranks = infos["core.rank"]
    family: dict = defaultdict(list)
    rank_durations = durations["core.rank"]
    for info, duration in zip(ranks, rank_durations):
        family[FAMILY.get(info["method"], "other")].append(duration)
    joins = len(durations["serve.coalesce.join"])
    followers = len(durations["serve.coalesce.wait"])
    executes = infos["engine.query.execute"]
    accessed = [info for info in ranks if info["accessed"] is not None]
    gf = [info for info in ranks if info["gf"] is not None]
    admits = durations["serve.admission.admit"]
    sheds = sum(
        1
        for info in infos["serve.admission.admit"]
        if info.get("error") == "OverloadedError"
    )
    metrics = {
        "serve.transport.self_ms": self_by_name["serve.transport.handle_line"]
        / max(ops, 1)
        * ms,
        "serve.admission.ms": (
            sum(admits) + sum(durations["serve.admission.release"])
        )
        / max(ops, 1)
        * ms,
        "serve.admission.shed": sheds,
        "serve.coalesce.follower_frac": followers / joins if joins else 0.0,
        "serve.coalesce.follower_wait_ms": _mean(
            durations["serve.coalesce.wait"]
        )
        * ms,
        "serve.core.self_ms": self_by_layer["serve.core"] / max(ops, 1) * ms,
        "serve.core.dispatch_wait_ms": _mean(
            [
                start - info["submitted"]
                for (sid, name, op, parent, start, end, info) in spans
                if name == "serve.core.run_query"
                and op in op_walls
                and info is not None
            ]
        )
        * ms,
        "engine.database.topk_self_ms": self_by_name["engine.database.topk"]
        / max(ops, 1)
        * ms,
        "engine.database.digest_calls": len(
            durations["engine.database.digest"]
        ),
        "engine.database.digest_ms": _mean(durations["engine.database.digest"])
        * ms,
        "engine.database.load_s": setup_loads,
        "engine.query.plan_ms": _mean(durations["engine.query.plan"]) * ms,
        "engine.query.executor_self_ms": self_by_name["engine.query.execute"]
        / max(ops, 1)
        * ms,
        "engine.query.rungs_per_query": _mean(
            [info["rungs"] for info in executes]
        ),
        "engine.query.degraded_frac": _mean(
            [float(info["degraded"]) for info in executes]
        ),
        "engine.maintenance.update_ms": _mean(
            durations["engine.maintenance.update"]
        )
        * ms,
        "engine.maintenance.snapshot_ms": _mean(
            durations["engine.maintenance.snapshot"]
        )
        * ms,
        "core.rank.erank_ms": _mean(family["erank"]) * ms,
        "core.rank.erank_prune_ms": _mean(family["erank_prune"]) * ms,
        "core.rank.dist_ms": _mean(family["dist"]) * ms,
        "core.rank.other_ms": _mean(family["other"]) * ms,
        "core.tuples_accessed_frac": (
            sum(info["accessed"] for info in accessed)
            / sum(info["n"] for info in accessed)
            if accessed
            else 0.0
        ),
        "core.columnar.builds_per_query": (
            len(durations["core.columnar.build"]) / len(ranks) if ranks else 0.0
        ),
        "core.columnar.build_ms": _mean(durations["core.columnar.build"]) * ms,
        "core.columnar.gf_fallback_frac": _mean(
            [float(bool(info["gf"])) for info in gf]
        ),
        "obs.capture.record_ms": _mean(durations["obs.capture.record"]) * ms,
        "obs.costs.finish_ms": _mean(durations["obs.costs.finish"]) * ms,
        "obs.answer_digest_ms": _mean(durations["obs.answer_digest"]) * ms,
    }
    attributed = sum(self_by_layer.values())
    wall = sum(op_walls.values())
    counts = {
        "tuples_accessed": sum(info["accessed"] for info in accessed),
        "rank_calls": len(ranks),
        "digest_computations": len(durations["engine.database.digest"]),
        "column_builds": len(durations["core.columnar.build"]),
        "ladder_rungs": sum(info["rungs"] for info in executes),
        "capture_records": len(durations["obs.capture.record"]),
        "coalesced_followers": followers,
        "gf_fallbacks": sum(1 for info in gf if info["gf"]),
    }
    return {
        "metrics": metrics,
        "coverage": attributed / wall if wall else 0.0,
        "self_ms_by_layer": {
            layer: total / max(ops, 1) * ms
            for layer, total in sorted(self_by_layer.items())
        },
        "counts": counts,
    }


def load_seconds(spans: list) -> float:
    """Total ``engine.io`` load time of the spans outside operations."""
    return sum(
        end - start
        for sid, name, op, parent, start, end, info in spans
        if name == "engine.database.load" and op is None
    )
