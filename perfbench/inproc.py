"""The in-process workloads: lib-scan, lib-dist and catalog-churn.

Run as a child of ``run.py`` so that its peak RSS is the work's own:

    python3 perfbench/inproc.py WORKLOAD SEED SECONDS TRACE DIR

``DIR`` holds the generated relation files; the result is written to
``DIR/result.json``.  With ``TRACE`` 1 the timed pass is followed by a
second one, after a fresh set-up, with the layer wrappers installed.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import plan  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

from repro.core.semantics import rank  # noqa: E402
from repro.engine import io  # noqa: E402
from repro.engine.database import ProbabilisticDatabase  # noqa: E402
from repro.engine.maintenance import MaintainedTupleStore  # noqa: E402
from repro.obs.capture import (  # noqa: E402
    CaptureLog,
    answer_digest,
    set_capture,
)
from repro.obs.costs import CostLedger  # noqa: E402
from repro.serve import ServeRequest, ServeSettings, ServingCore  # noqa: E402

SETUPS = 5
now = time.perf_counter


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pass:
    """What one timed pass observed.

    Every timed step (a lib query; a churn write or read round) is
    bracketed by speed probes; ``factors`` / ``write_factors`` hold the
    scale of the step each latency belongs to.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []  # reads / queries, in op order
        self.factors: list[float] = []
        self.write_latencies: list[float] = []
        self.write_factors: list[float] = []
        self.op_walls: dict[int, float] = {}
        self.busy = 0.0  # raw seconds of the timed steps
        self.busy_scaled = 0.0
        self.ok = 0
        self.failures: list[str] = []
        self.counts: dict = {}

    def step(self, seconds: float, scale: float) -> None:
        self.busy += seconds
        self.busy_scaled += seconds * scale

    def summary(self) -> dict:
        return {
            "latencies": self.latencies,
            "factors": self.factors,
            "write_latencies": self.write_latencies,
            "write_factors": self.write_factors,
            "busy": self.busy,
            "busy_scaled": self.busy_scaled,
            "ok": self.ok,
            "attempted": len(self.op_walls),
            "failures": self.failures,
            "counts": self.counts,
        }


def _scope(recorder, op):
    return recorder.operation(op) if recorder else contextlib.nullcontext()


def _drop() -> None:
    """Free the previous set-up before the next one is built."""
    gc.collect()


# ----------------------------------------------------------------------
# lib-scan / lib-dist
# ----------------------------------------------------------------------
def lib_setup(workload, files):
    start = now()
    db = ProbabilisticDatabase()
    for rel in workload.relations:
        db.create_relation(rel.name, io.load_json(files[rel.name]))
    # Warm-up: the first class of each relation, once.
    for rel in workload.relations:
        query = next(q for q in workload.classes if q.relation == rel.name)
        db.topk(query.relation, query.k, query.method, **query.options_dict())
    return db, now() - start


def lib_pass(db, requests, recorder, reference: dict) -> Pass:
    """One timed pass; ``reference`` caches answer digests by class."""
    run = Pass()
    # Keep only what the check reads: a result's full statistics map
    # (N entries) held for the whole pass would inflate every garbage
    # collection after it.
    answers = []
    probes = [speed.probe()]
    for op, query in enumerate(requests):
        options = query.options_dict()
        with _scope(recorder, op):
            start = now()
            result = db.topk(query.relation, query.k, query.method, **options)
            elapsed = now() - start
        probes.append(speed.probe())
        run.latencies.append(elapsed)
        run.op_walls[op] = elapsed
        answers.append(
            (
                result.items,
                result.metadata.get("tuples_accessed"),
                result.metadata.get("degraded"),
            )
        )
        del result
    run.factors = speed.factors(probes)
    for elapsed, scale in zip(run.latencies, run.factors):
        run.step(elapsed, scale)
    # Answer check, untimed: each distinct query once through
    # ``semantics.rank`` on the same relation.
    accessed = 0
    per_class: dict[str, int] = {}
    for op, (query, answer) in enumerate(zip(requests, answers)):
        items, value, degraded = answer
        if query.name not in reference:
            reference[query.name] = answer_digest(
                rank(
                    db.relation(query.relation),
                    query.k,
                    method=query.method,
                    **query.options_dict(),
                )
            )
        per_class[query.name] = per_class.get(query.name, 0) + 1
        accessed += value if isinstance(value, int) else 0
        if degraded:
            run.failures.append(f"op {op} ({query.name}) degraded")
        elif answer_digest(items) != reference[query.name]:
            run.failures.append(f"op {op} ({query.name}) answer digest mismatch")
        else:
            run.ok += 1
    run.counts = {
        "ops_per_class": dict(sorted(per_class.items())),
        "tuples_accessed": accessed,
    }
    return run


def run_lib(workload, seed, seconds, trace, files) -> dict:
    requests = plan.lib_requests(workload, seed, seconds)
    setups = []
    db = None
    for _ in range(SETUPS):
        db = None
        _drop()
        before = speed.probe()
        db, elapsed = lib_setup(workload, files)
        setups.append([elapsed, speed.factor(before, speed.probe())])
    reference: dict = {}
    timed = lib_pass(db, requests, None, reference)
    result = {
        "setups": setups,
        "pass": timed.summary(),
        "rss_mb": peak_rss_mb(),
    }
    if trace:
        db = None
        _drop()
        recorder = tracing.Recorder()
        tracing.install(recorder)
        db, _ = lib_setup(workload, files)
        traced = lib_pass(db, requests, recorder, reference)
        result["traced"] = _traced(recorder, traced)
    return result


# ----------------------------------------------------------------------
# catalog-churn
# ----------------------------------------------------------------------
class ChurnState:
    def __init__(self, files, tmp: Path, index: int) -> None:
        live = io.load_json(files["live"])
        self.store = MaintainedTupleStore.from_relation(live)
        self.db = ProbabilisticDatabase()
        self.db.create_relation("live", live)
        self.db.create_relation("static", io.load_json(files["static"]))
        self.capture = CaptureLog(tmp / f"capture-{index}.jsonl")
        set_capture(self.capture)
        self.core = ServingCore(
            self.db,
            settings=ServeSettings(
                queue_limit=1024,
                tenant_rate=1e6,
                tenant_burst=1e6,
                default_deadline_ms=120_000.0,
                max_workers=plan.workers(),
            ),
            ledger=CostLedger(),
        )

    async def close(self) -> None:
        await self.core.drain()
        set_capture(None)
        self.capture.close()


async def churn_setup(files, tmp: Path, index: int):
    start = now()
    state = ChurnState(files, tmp, index)
    # Warm-up: one read of each class.
    for query in plan.WORKLOADS["catalog-churn"].classes:
        await state.core.submit(
            ServeRequest(query.relation, 10, query.method, tenant="warmup")
        )
    return state, now() - start


def free_tids(relation) -> list[str]:
    return [
        row.tid for row in relation if relation.rule_of(row.tid).is_singleton
    ]


async def churn_pass(state: ChurnState, cycles, recorder) -> Pass:
    """Each write and each round of reads is one timed step."""
    run = Pass()
    store, db, core = state.store, state.db, state.core
    records_before = state.capture.records_written
    static = db.relation("static")
    reference: dict = {}
    per_class: dict[str, int] = {}
    accessed = rungs = 0
    op = 0

    async def read(op, query, k):
        with _scope(recorder, op):
            start = now()
            response = await core.submit(
                ServeRequest(query.relation, k, query.method, tenant="churn")
            )
            return op, query, k, now() - start, response

    before = speed.probe()
    for cycle in cycles:
        with _scope(recorder, op):
            start = now()
            for update in cycle.updates:
                if update[0] == "insert":
                    store.insert(update[1], score=update[2], probability=update[3])
                elif update[0] == "delete":
                    store.delete(update[1])
                else:
                    store.update_probability(update[1], update[2])
            snapshot = store.snapshot()
            db.replace_relation("live", snapshot)
            elapsed = now() - start
        after = speed.probe()
        scale = speed.factor(before, after)
        before = after
        run.step(elapsed, scale)
        run.write_latencies.append(elapsed)
        run.write_factors.append(scale)
        run.op_walls[op] = elapsed
        per_class["write"] = per_class.get("write", 0) + 1
        op += 1
        outcomes = []
        for reads in cycle.rounds:
            tasks = []
            for query, k in reads:
                tasks.append(read(op, query, k))
                op += 1
            start = now()
            done = await asyncio.gather(*tasks)
            elapsed = now() - start
            after = speed.probe()
            scale = speed.factor(before, after)
            before = after
            run.step(elapsed, scale)
            outcomes.extend((outcome, scale) for outcome in done)
        # Answer check, untimed: this cycle's relation version.
        for (read_op, query, k, elapsed, response), scale in outcomes:
            run.latencies.append(elapsed)
            run.factors.append(scale)
            run.op_walls[read_op] = elapsed
            per_class[query.name] = per_class.get(query.name, 0) + 1
            relation = snapshot if query.relation == "live" else static
            key = (id(relation), query.method, k)
            if key not in reference:
                reference[key] = answer_digest(rank(relation, k, method=query.method))
            if response.status != "ok":
                run.failures.append(f"op {read_op} {response.status}: {response.error}")
                continue
            metadata = response.result.metadata
            value = metadata.get("tuples_accessed")
            accessed += value if isinstance(value, int) else 0
            rungs += len(metadata.get("ladder", ()))
            if response.degraded:
                run.failures.append(f"op {read_op} ({query.name}) degraded")
            elif response.answer_digest != reference[key]:
                run.failures.append(f"op {read_op} ({query.name}) answer digest mismatch")
            else:
                run.ok += 1
        # Keep only the static references: the live version is gone.
        reference = {
            key: value for key, value in reference.items() if key[0] == id(static)
        }
        del outcomes
        before = speed.probe()
    run.ok += len(run.write_latencies)
    run.counts = {
        "ops_per_class": dict(sorted(per_class.items())),
        "tuples_accessed": accessed,
        "ladder_rungs": rungs,
        "capture_records": state.capture.records_written - records_before,
    }
    return run


async def run_churn(seed, seconds, trace, files, tmp) -> dict:
    """Set-ups, then the timed pass on the last one.  The traced pass
    starts from a fresh set-up, because a pass rewrites the live
    relation."""
    setups = []
    state = None
    for index in range(SETUPS):
        if state is not None:
            await state.close()
            state = None
            _drop()
        before = speed.probe()
        state, elapsed = await churn_setup(files, tmp, index)
        setups.append([elapsed, speed.factor(before, speed.probe())])
    cycles = plan.churn_cycles(
        seed, seconds, free_tids(state.db.relation("live"))
    )
    timed = await churn_pass(state, cycles, None)
    await state.close()
    state = None
    result = {
        "setups": setups,
        "pass": timed.summary(),
        "rss_mb": peak_rss_mb(),
    }
    if trace:
        _drop()
        recorder = tracing.Recorder()
        tracing.install(recorder)
        state, _ = await churn_setup(files, tmp, len(setups))
        traced = await churn_pass(state, cycles, recorder)
        await state.close()
        result["traced"] = _traced(recorder, traced)
    return result


def _traced(recorder: tracing.Recorder, run: Pass) -> dict:
    summary = tracing.summarize(
        recorder.spans, run.op_walls, tracing.load_seconds(recorder.spans)
    )
    summary["pass"] = run.summary()
    return summary


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, directory = argv
    tmp = Path(directory)
    workload = plan.WORKLOADS[name]
    files = {rel.name: tmp / f"{rel.name}.json" for rel in workload.relations}
    if name == "catalog-churn":
        result = asyncio.run(
            run_churn(int(seed), float(seconds), trace == "1", files, tmp)
        )
    else:
        result = run_lib(workload, int(seed), float(seconds), trace == "1", files)
    (tmp / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
