"""Self-tests of the benchmark's own logic (no package under test).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import plan  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

RUN_SECONDS = json.loads(
    (HERE.parent / "BENCHMARK.json").read_text()
)["run_seconds"]


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("count", "expected"),
    [(20, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_beyond(count, expected):
    if expected is None:
        with pytest.raises(ValueError):
            stats.tail_percentile(count)
        return
    tail = stats.tail_percentile(count)
    assert tail == expected
    assert stats.samples_beyond(count, tail) >= stats.TAIL_BEYOND
    higher = [c for c in stats.TAIL_CANDIDATES if c > tail]
    assert all(
        stats.samples_beyond(count, c) < stats.TAIL_BEYOND for c in higher
    )


def test_nearest_rank():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 50.0) == 50
    assert stats.nearest_rank(values, 90.0) == 90
    assert stats.nearest_rank([7.0], 99.0) == 7.0


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_union_of_clipped_children():
    # Overlapping children count once; a child running past the
    # parent's end is clipped to it.
    children = [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]
    assert stats.self_time(0.0, 10.0, children) == pytest.approx(5.0)
    assert stats.self_time(0.0, 10.0, []) == pytest.approx(10.0)
    assert stats.self_time(0.0, 10.0, [(11.0, 12.0)]) == pytest.approx(10.0)


def test_summarize_attributes_self_time_per_layer():
    spans = [
        # (id, name, op, parent, start, end, info)
        (1, "engine.database.topk", 0, None, 0.0, 10.0, None),
        (2, "core.rank", 0, 1, 1.0, 9.0,
         {"method": "expected_rank", "n": 100, "accessed": 40, "gf": None}),
        (3, "core.columnar.build", 0, 2, 2.0, 4.0, None),
        (4, "engine.database.load", None, None, 0.0, 0.5, None),
    ]
    summary = tracing.summarize(spans, {0: 10.0}, tracing.load_seconds(spans))
    by_layer = summary["self_ms_by_layer"]
    assert by_layer["engine.database"] == pytest.approx(2000.0)
    assert by_layer["core"] == pytest.approx(6000.0)
    assert by_layer["core.columnar"] == pytest.approx(2000.0)
    assert summary["coverage"] == pytest.approx(1.0)
    metrics = summary["metrics"]
    assert metrics["core.rank.erank_ms"] == pytest.approx(8000.0)
    assert metrics["core.tuples_accessed_frac"] == pytest.approx(0.4)
    assert metrics["core.columnar.builds_per_query"] == 1.0
    assert metrics["engine.database.load_s"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Scaling to reference speed
# ----------------------------------------------------------------------
def test_scale_is_reference_over_mean_of_bracketing_probes():
    reference = speed.REFERENCE_SECONDS
    assert speed.factor(reference, reference) == pytest.approx(1.0)
    # Probes twice as slow: the machine is, so the step counts half.
    assert speed.factor(2 * reference, 2 * reference) == pytest.approx(0.5)
    assert speed.factors([reference, 3 * reference, reference]) == (
        pytest.approx([0.5, 0.5])
    )


def test_probe_measures_a_positive_time():
    assert 0.0 < speed.probe() < 1.0


# ----------------------------------------------------------------------
# Request lists
# ----------------------------------------------------------------------
FREE = [f"t{index}" for index in range(500)]


def _lists(seed):
    return (
        plan.lib_requests(plan.WORKLOADS["lib-scan"], seed, RUN_SECONDS),
        plan.lib_requests(plan.WORKLOADS["lib-dist"], seed, RUN_SECONDS),
        plan.serve_units(seed, RUN_SECONDS),
        plan.churn_cycles(seed, RUN_SECONDS, FREE),
    )


def test_request_lists_repeat_for_a_seed_and_differ_across_seeds():
    first, again, other = _lists(1), _lists(1), _lists(2)
    assert first == again
    for mine, theirs in zip(first, other):
        assert mine != theirs


def test_class_counts_are_exact():
    for name in ("lib-scan", "lib-dist"):
        workload = plan.WORKLOADS[name]
        requests = plan.lib_requests(workload, 3, RUN_SECONDS)
        total = plan.operation_count(workload, RUN_SECONDS)
        assert len(requests) == total
        for query in workload.classes:
            count = sum(1 for r in requests if r is query)
            assert abs(count - query.share * total) < 1.0


def test_serve_connections_never_share_a_key():
    units = plan.serve_units(5, RUN_SECONDS)
    for conn, conn_units in enumerate(units):
        for unit in conn_units:
            assert {spec.k % 2 for spec in unit} == {1 - conn}
            assert len({(spec.query, spec.k) for spec in unit}) == 1
    grouped = sum(len(unit) > 1 for conn in units for unit in conn)
    total = sum(len(conn) for conn in units)
    assert grouped == round(plan.SERVE_GROUP_SHARE * total)


def test_churn_updates_always_apply():
    live = set(FREE)
    for cycle in plan.churn_cycles(4, RUN_SECONDS, FREE):
        for update in cycle.updates:
            if update[0] == "insert":
                assert update[1] not in live
                live.add(update[1])
            elif update[0] == "delete":
                live.remove(update[1])
            else:
                assert update[1] in live
        for reads in cycle.rounds:
            assert len({query.name for query, _ in reads}) == len(reads)


# ----------------------------------------------------------------------
# Class shares vs percentiles
# ----------------------------------------------------------------------
def _latency_samples(name: str) -> int:
    """Latency samples of a run at the benchmark's run length."""
    workload = plan.WORKLOADS[name]
    if name == "serve-tcp":
        return sum(
            len(unit)
            for conn in plan.serve_units(1, RUN_SECONDS)
            for unit in conn
        )
    count = plan.operation_count(workload, RUN_SECONDS)
    if name == "catalog-churn":
        return count * plan.CHURN_ROUNDS * 2
    return count


@pytest.mark.parametrize("name", sorted(plan.WORKLOADS))
def test_percentiles_stay_clear_of_tier_boundaries(name):
    margins = plan.check_margins(
        plan.WORKLOADS[name], _latency_samples(name)
    )
    for label, margin in margins.items():
        assert margin >= plan.MIN_MARGIN, (name, label, margin)


def test_boundary_margin():
    assert stats.class_boundaries([0.3, 0.3, 0.4]) == pytest.approx(
        [30.0, 60.0]
    )
    assert stats.boundary_margin([0.3, 0.3, 0.4], 50.0) == pytest.approx(10)
    assert stats.boundary_margin([1.0], 50.0) == float("inf")
