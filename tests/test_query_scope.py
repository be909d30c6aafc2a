"""One executed query, one record: the query scope end to end.

Every entry point that executes a query — ``db.topk`` with and
without an executor, a bare :class:`ResilientExecutor`, the CLI's
``_execute_recorded``, and a :class:`ServingCore` leader and follower
— must leave exactly one capture line per answer, at most one ledger
entry per execution (followers bill nothing), and agree across the
line, the entry and the ``QueryLogEntry`` on the relation name,
tenant, ``n`` and trace id.  The serving tests also pin the record to
the relation version that was actually ranked, whatever the catalog
does in between.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.cli import _execute_recorded
from repro.engine import query as engine_query
from repro.engine.database import ProbabilisticDatabase
from repro.engine.query import ResilientExecutor
from repro.models import AttributeLevelRelation, AttributeTuple, DiscretePDF
from repro.obs import MetricsRegistry, set_registry, trace
from repro.obs.capture import CaptureLog, set_capture
from repro.obs.costs import CostLedger, set_cost_ledger
from repro.serve import ServeRequest, ServingCore


@pytest.fixture
def recording(tmp_path):
    """Ambient capture log and ledger, with spans minting trace ids."""
    path = tmp_path / "capture.jsonl"
    log = CaptureLog(path)
    ledger = CostLedger()
    previous = (
        set_registry(MetricsRegistry(enabled=True)),
        set_capture(log),
        set_cost_ledger(ledger),
    )
    yield log, path, ledger
    set_registry(previous[0])
    set_capture(previous[1])
    set_cost_ledger(previous[2])
    log.close()


@pytest.fixture
def hold_leader(monkeypatch):
    """Hold every ladder ``rank`` call until ``release`` is set."""
    entered, release = threading.Event(), threading.Event()
    original = engine_query.rank

    def held(*args, **kwargs):
        entered.set()
        assert release.wait(10)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine_query, "rank", held)
    return entered, release


def catalog(relation) -> ProbabilisticDatabase:
    database = ProbabilisticDatabase()
    database.create_relation("fig2", relation)
    return database


def bigger(relation) -> AttributeLevelRelation:
    """A new version of ``relation`` with one more tuple."""
    return AttributeLevelRelation(
        list(relation) + [AttributeTuple("t9", DiscretePDF([1], [1.0]))]
    )


def lead_and_follow(core, hold, *, between=lambda: None):
    """Serve a leader held in ``rank`` and one coalesced follower.

    ``between`` runs once the follower has joined and before the
    leader is released.
    """
    entered, release = hold

    async def scenario():
        loop = asyncio.get_running_loop()
        leader = asyncio.create_task(
            core.submit(ServeRequest("fig2", 2, tenant="acme"))
        )
        assert await loop.run_in_executor(None, entered.wait, 10)
        follower = asyncio.create_task(
            core.submit(ServeRequest("fig2", 2, tenant="globex"))
        )
        while core.inflight < 2:  # joins before its first await
            await asyncio.sleep(0)
        between()
        release.set()
        responses = await asyncio.gather(leader, follower)
        await core.drain()
        return responses

    return asyncio.run(scenario())


def serve_one(core, request):
    async def scenario():
        response = await core.submit(request)
        await core.drain()
        return response

    return asyncio.run(scenario())


def run_entry(entry, fig2, hold):
    """Execute one query through ``entry``; returns the query log."""
    if entry == "executor":
        ResilientExecutor().execute(fig2, 2)
        return ()
    if entry == "cli":
        with trace("cli.topk"):
            _execute_recorded(
                fig2, 2, "expected_rank", {}, None, "fig2.csv"
            )
        return ()
    database = catalog(fig2)
    if entry == "db_topk":
        database.topk("fig2", 2)
    elif entry == "db_topk_executor":
        database.topk("fig2", 2, executor=ResilientExecutor())
    elif entry == "serve_leader":
        response = serve_one(
            ServingCore(database), ServeRequest("fig2", 2, tenant="acme")
        )
        assert response.status == "ok"
    else:
        responses = lead_and_follow(ServingCore(database), hold)
        assert [r.coalesced for r in responses] == [False, True]
    return database.query_log


def read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestOneRecordPerQuery:
    @pytest.mark.parametrize(
        "entry, relation_name, tenant, rung",
        [
            pytest.param("db_topk", "fig2", "default", "direct", id="db_topk"),
            pytest.param(
                "db_topk_executor",
                "fig2",
                "default",
                "exact",
                id="db_topk_executor",
            ),
            pytest.param("executor", None, "default", "exact", id="executor"),
            pytest.param("cli", "fig2.csv", "default", "direct", id="cli"),
            pytest.param(
                "serve_leader", "fig2", "acme", "exact", id="serve_leader"
            ),
            pytest.param(
                "serve_follower", "fig2", "acme", "exact", id="serve_follower"
            ),
        ],
    )
    def test_one_record_per_executed_query(
        self, entry, relation_name, tenant, rung, fig2, recording, hold_leader
    ):
        if entry != "serve_follower":
            hold_leader[1].set()  # only the follower test holds
        log, path, ledger = recording
        query_log = run_entry(entry, fig2, hold_leader)
        log.close()
        lines = read_lines(path)
        followers = entry == "serve_follower"
        assert len(lines) == (2 if followers else 1)
        # One execution, one bill: the follower's answer is free.
        assert len(ledger.entries) == 1
        line, bill = lines[0], ledger.entries[0]
        assert line["relation"] == relation_name
        assert bill.tenant == tenant
        assert line["n"] == bill.n == fig2.size
        assert line["k"] == bill.k == 2
        assert line["method"] == bill.method == "expected_rank"
        assert line["trace_id"] is not None
        assert line["trace_id"] == bill.trace_id
        assert line["tuples_accessed"] == bill.tuples_accessed
        assert line["degraded"] == bill.degraded
        assert bill.rung == rung
        # An executor on the path embeds its replayable configuration.
        assert (line["resilience"] is not None) == (rung == "exact")
        if query_log:
            (logged,) = query_log
            assert logged.relation == relation_name
            assert logged.trace_id == line["trace_id"]
            assert logged.tuples_accessed == line["tuples_accessed"]
        if followers:
            follower = lines[1]
            assert follower["annotations"] == {
                "coalesced": True,
                "tenant": "globex",
                "leader_trace_id": line["trace_id"],
            }
            for key in ("relation", "n", "dataset_digest", "answer"):
                assert follower[key] == line[key]
            assert follower["trace_id"] not in (None, line["trace_id"])
            assert follower["resilience"] is None

    def test_off_path_records_nothing_and_answers_identically(
        self, fig2, recording
    ):
        log, path, ledger = recording
        recorded = catalog(fig2).topk("fig2", 2)
        set_capture(None)
        set_cost_ledger(None)
        bare = catalog(fig2).topk("fig2", 2)
        assert bare.tids() == recorded.tids()
        assert bare.statistics == recorded.statistics
        log.close()
        assert len(read_lines(path)) == 1
        assert len(ledger.entries) == 1


class TestServedRecordNamesRankedVersion:
    def test_bill_survives_replace_and_drop_after_ranking(
        self, fig2, monkeypatch
    ):
        database = catalog(fig2)
        original = database.topk

        def topk_then_churn(name, *args, **kwargs):
            result = original(name, *args, **kwargs)
            database.replace_relation(name, bigger(fig2))
            database.drop_relation(name)
            return result

        monkeypatch.setattr(database, "topk", topk_then_churn)
        ledger = CostLedger()
        response = serve_one(
            ServingCore(database, ledger=ledger),
            ServeRequest("fig2", 2),
        )
        assert response.status == "ok"
        (entry,) = ledger.entries
        assert entry.n == fig2.size

    def test_follower_line_names_the_leaders_version(
        self, fig2, recording, hold_leader
    ):
        log, path, _ = recording
        database = catalog(fig2)
        lead_and_follow(
            ServingCore(database),
            hold_leader,
            between=lambda: database.replace_relation(
                "fig2", bigger(fig2)
            ),
        )
        log.close()
        leader, follower = read_lines(path)
        assert follower["annotations"]["coalesced"] is True
        assert follower["dataset_digest"] == leader["dataset_digest"]
        assert follower["n"] == leader["n"] == fig2.size
