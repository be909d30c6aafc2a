"""Tests for resource accounting: the ledger and its billing scope.

Two layers:

* the :class:`CostLedger` on fake clocks — entry arithmetic, per
  ``(tenant, method)`` aggregation, the bounded entry ring, and the
  exported ``cost.*`` metrics;
* :func:`~repro.obs.scope.query_scope` billing semantics — off path
  yields ``None`` everywhere, the outermost scope owns the query,
  explicit ledger beats ambient (the per-entry-point wiring lives in
  ``tests/test_query_scope.py``).
"""

from __future__ import annotations

import pytest

from repro.core.result import RankedItem, TopKResult
from repro.engine.database import ProbabilisticDatabase
from repro.engine.query import TopKPlanner
from repro.obs import MetricsRegistry, set_registry
from repro.obs.costs import (
    CostLedger,
    get_cost_ledger,
    set_cost_ledger,
)
from repro.obs.scope import query_scope


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def registry():
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def make_result(method="expected_rank", **metadata) -> TopKResult:
    return TopKResult(
        method=method,
        k=1,
        items=(RankedItem("t1", 0, 0.5),),
        metadata=metadata,
    )


def make_ledger(**overrides):
    wall, cpu = FakeClock(), FakeClock()
    ledger = CostLedger(
        wall_clock=wall, cpu_clock=cpu, **overrides
    )
    return ledger, wall, cpu


# ----------------------------------------------------------------------
# The ledger on fake clocks
# ----------------------------------------------------------------------
class TestCostLedger:
    def test_meter_arithmetic_is_exact_on_fake_clocks(self):
        ledger, wall, cpu = make_ledger()
        meter = ledger.meter()
        wall.advance(2.0)
        cpu.advance(0.5)
        entry = meter.finish(
            make_result(tuples_accessed=7),
            k=2,
            n=3,
            method="expected_rank",
            tenant="acme",
        )
        assert entry.wall_seconds == 2.0
        assert entry.cpu_seconds == 0.5
        assert entry.tuples_accessed == 7
        assert entry.tenant == "acme"
        assert entry.rung == "direct"
        assert not entry.degraded
        assert ledger.entries == (entry,)

    def test_finish_reads_rung_off_metadata(self):
        ledger, wall, _ = make_ledger()
        meter = ledger.meter()
        wall.advance(1.0)
        entry = meter.finish(
            make_result(
                resilient=True,
                degraded=True,
                ladder=(
                    {"rung": "exact", "outcome": "OSError: x"},
                    {"rung": "pruned", "outcome": "ok"},
                ),
                trace_id="trace-1",
            ),
            k=2,
            n=8,
            method="expected_rank",
        )
        assert entry.rung == "pruned"
        assert entry.degraded
        assert entry.trace_id == "trace-1"
        assert entry.tenant == "default"

    def test_aggregates_per_tenant_and_method(self):
        ledger, wall, cpu = make_ledger()
        for tenant, seconds in (
            ("acme", 1.0),
            ("acme", 3.0),
            ("globex", 5.0),
        ):
            meter = ledger.meter()
            wall.advance(seconds)
            cpu.advance(seconds / 2)
            meter.finish(
                make_result(tuples_accessed=10),
                k=1,
                n=4,
                method="expected_rank",
                tenant=tenant,
            )
        summary = ledger.summary()
        assert summary["queries"] == 3
        acme = summary["tenants"]["acme"]["expected_rank"]
        assert acme["queries"] == 2
        assert acme["wall_seconds"] == pytest.approx(4.0)
        assert acme["cpu_seconds"] == pytest.approx(2.0)
        assert acme["tuples_accessed"] == 20
        globex = summary["tenants"]["globex"]["expected_rank"]
        assert globex["queries"] == 1
        assert globex["wall_seconds"] == pytest.approx(5.0)

    def test_entry_ring_is_bounded_but_aggregates_are_not(self):
        ledger, wall, _ = make_ledger(max_entries=3)
        for index in range(5):
            meter = ledger.meter()
            wall.advance(1.0)
            meter.finish(
                make_result(), k=index, n=1, method="expected_rank"
            )
        assert len(ledger.entries) == 3
        assert [entry.k for entry in ledger.entries] == [2, 3, 4]
        assert ledger.summary()["queries"] == 5

    def test_constructor_validation(self):
        # max_entries=0 would trim with ``[:-0]``, which keeps every
        # entry: an unbounded ring.
        with pytest.raises(ValueError, match="max_entries"):
            CostLedger(max_entries=0)
        with pytest.raises(ValueError, match="max_entries"):
            CostLedger(max_entries=-1)

    def test_cost_metrics_are_exported(self, registry):
        ledger, wall, cpu = make_ledger()
        meter = ledger.meter()
        wall.advance(2.0)
        cpu.advance(1.0)
        meter.finish(
            make_result(tuples_accessed=5),
            k=1,
            n=4,
            method="expected_rank",
            tenant="acme",
        )
        labels = {"tenant": "acme", "method": "expected_rank"}
        assert registry.counter("cost.queries", labels).value == 1
        assert registry.counter(
            "cost.wall_seconds", labels
        ).value == pytest.approx(2.0)
        assert registry.counter(
            "cost.cpu_seconds", labels
        ).value == pytest.approx(1.0)
        assert registry.counter(
            "cost.tuples_accessed", labels
        ).value == 5
        assert "cost.wall_seconds" in registry.help_texts()


# ----------------------------------------------------------------------
# Query-scope billing semantics
# ----------------------------------------------------------------------
#: A query's identity with no relation version: the scope's owner
#: here holds only a name, and ``db.topk`` adds the version it ranks.
QUERY = (None, 2, "expected_rank", {})


class TestQueryAccounting:
    def test_off_path_yields_none(self):
        assert get_cost_ledger() is None
        # Nothing installed: one shared no-op context, no record.
        assert query_scope(*QUERY) is query_scope(*QUERY)
        with query_scope(*QUERY) as record:
            assert record is None

    def test_outermost_scope_owns_inner_scopes_join(self, fig2):
        database = ProbabilisticDatabase()
        database.create_relation("fig2", fig2)
        ledger, _, _ = make_ledger()
        with query_scope(*QUERY, ledger=ledger, tenant="acme") as outer:
            assert outer is not None
            with query_scope(*QUERY, ledger=ledger) as inner:
                assert inner is outer
            database.topk("fig2", 2)
        assert [entry.tenant for entry in ledger.entries] == ["acme"]
        # The scope is released: the next query owns a new record.
        with query_scope(*QUERY, ledger=ledger) as again:
            assert again is not None and again is not outer

    def test_explicit_ledger_beats_ambient(self, fig2):
        database = ProbabilisticDatabase()
        database.create_relation("fig2", fig2)
        ambient, _, _ = make_ledger()
        explicit, _, _ = make_ledger()
        previous = set_cost_ledger(ambient)
        try:
            with query_scope(*QUERY, ledger=explicit):
                database.topk("fig2", 2)
        finally:
            set_cost_ledger(previous)
        assert len(explicit.entries) == 1
        assert ambient.entries == ()

    def test_accounting_off_leaves_results_identical(self, fig2):
        bare = TopKPlanner().execute(fig2, 2)
        ledger = CostLedger()
        previous = set_cost_ledger(ledger)
        try:
            with query_scope(*QUERY) as record:
                accounted = TopKPlanner().execute(fig2, 2)
                assert record is not None
        finally:
            set_cost_ledger(previous)
        assert accounted == bare  # metering never mutates the answer
