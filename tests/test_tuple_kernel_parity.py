"""Columnar T-ERank / T-ERank-Prune against the scalar reference.

The production kernels (``repro.core.tuple_expected_rank``) must
reproduce the tuple-at-a-time oracles of ``repro.core.reference``:
the same answer ids in the same order, the same ``tuples_accessed``
and ``halted_early``, the same prune trajectory while the metrics
registry is on, and every statistic within ``1e-9``.
"""

from __future__ import annotations

import random

import pytest

from repro.core import reference
from repro.core import tuple_expected_rank as production
from repro.datagen.tuple_gen import generate_tuple_relation
from repro.engine import MaintainedTupleStore
from repro.models import ExclusionRule, TupleLevelRelation, TupleLevelTuple
from repro.obs import MetricsRegistry, NullSink, set_registry, set_sink


def _multi_member_rules() -> TupleLevelRelation:
    """Rules of sizes 2-4 with tied scores inside and across rules."""
    rows = [
        TupleLevelTuple("a", 9.0, 0.3),
        TupleLevelTuple("b", 9.0, 0.2),
        TupleLevelTuple("c", 7.0, 0.25),
        TupleLevelTuple("d", 7.0, 0.25),
        TupleLevelTuple("e", 7.0, 0.4),
        TupleLevelTuple("f", 5.0, 0.1),
        TupleLevelTuple("g", 5.0, 0.9),
        TupleLevelTuple("h", 3.0, 0.5),
        TupleLevelTuple("i", 3.0, 0.04),
        TupleLevelTuple("j", 1.0, 1.0),
    ]
    rules = [
        ExclusionRule("r4", ["e", "a", "i", "c"]),
        ExclusionRule("r3", ["d", "h", "b"]),
        ExclusionRule("r2", ["g", "f"]),
    ]
    return TupleLevelRelation(rows, rules=rules)


def _all_equal_scores() -> TupleLevelRelation:
    rng = random.Random(11)
    rows = [
        TupleLevelTuple(f"t{index}", 4.0, round(rng.uniform(0.05, 0.5), 3))
        for index in range(40)
    ]
    rules = [
        ExclusionRule(f"r{index}", [f"t{index}", f"t{index + 20}"])
        for index in range(0, 20, 3)
    ]
    return TupleLevelRelation(rows, rules=rules)


def _churned_snapshots() -> list[TupleLevelRelation]:
    """Snapshots of a store after inserts, deletes and updates."""
    rng = random.Random(5)
    store = MaintainedTupleStore.from_relation(
        generate_tuple_relation(150, rule_fraction=0.5, seed=3)
    )
    snapshots = []
    next_id = 0
    for _ in range(3):
        for _ in range(20):
            free = [
                tid
                for tid in store.score_order()
                if store.snapshot().rule_of(tid).is_singleton
            ][:40]
            action = rng.choice(("insert", "delete", "update"))
            if action == "insert":
                store.insert(
                    f"n{next_id}",
                    score=rng.choice((rng.uniform(1, 1000), 500.0)),
                    probability=rng.uniform(0.02, 1.0),
                )
                next_id += 1
            elif action == "delete":
                store.delete(rng.choice(free))
            else:
                store.update_probability(
                    rng.choice(free), rng.uniform(0.02, 1.0)
                )
        snapshots.append(store.snapshot())
    return snapshots


def _cases() -> list[tuple[str, TupleLevelRelation]]:
    cases = [
        ("empty", TupleLevelRelation([])),
        ("single", TupleLevelRelation([TupleLevelTuple("x", 1.0, 0.5)])),
        ("multi_member_rules", _multi_member_rules()),
        ("all_equal_scores", _all_equal_scores()),
    ]
    for seed in range(4):
        cases.append(
            (
                f"generated_seed{seed}",
                generate_tuple_relation(
                    120 + 40 * seed, rule_fraction=0.6, rule_size=3, seed=seed
                ),
            )
        )
    cases.append(
        (
            "generated_integer_scores",
            generate_tuple_relation(300, rule_fraction=0.4, seed=9).map_scores(
                lambda score: float(int(score) // 25)
            ),
        )
    )
    for index, snapshot in enumerate(_churned_snapshots()):
        cases.append((f"churned_snapshot{index}", snapshot))
    return cases


CASES = _cases()


@pytest.fixture(params=[False, True], ids=["registry_off", "registry_on"])
def registry(request):
    fresh = MetricsRegistry(enabled=request.param)
    previous = set_registry(fresh)
    previous_sink = set_sink(NullSink())
    yield fresh
    set_sink(previous_sink)
    set_registry(previous)


def _assert_same(fast, slow) -> None:
    assert fast.tids() == slow.tids()
    assert fast.metadata == slow.metadata  # accesses, halts, trajectory
    assert list(fast.statistics) == list(slow.statistics)
    for tid, value in slow.statistics.items():
        assert fast.statistics[tid] == pytest.approx(value, abs=1e-9)
    for fast_item, slow_item in zip(fast, slow):
        assert fast_item.statistic == pytest.approx(
            slow_item.statistic, abs=1e-9
        )


@pytest.mark.parametrize("ties", ["shared", "by_index"])
@pytest.mark.parametrize(
    "name, relation", CASES, ids=[name for name, _ in CASES]
)
class TestParityMatrix:
    def test_expected_ranks(self, name, relation, ties):
        fast = production.tuple_expected_ranks(relation, ties=ties)
        slow = reference.tuple_expected_ranks(relation, ties=ties)
        assert list(fast) == list(slow)
        for tid, value in slow.items():
            assert fast[tid] == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("k", [0, 1, 10, "over"])
    def test_t_erank(self, name, relation, ties, k, registry):
        k = relation.size + 5 if k == "over" else k
        _assert_same(
            production.t_erank(relation, k, ties=ties),
            reference.t_erank(relation, k, ties=ties),
        )

    @pytest.mark.parametrize("k", [0, 1, 10, "over"])
    def test_t_erank_prune(self, name, relation, ties, k, registry):
        k = relation.size + 5 if k == "over" else k
        fast = production.t_erank_prune(relation, k, ties=ties)
        _assert_same(fast, reference.t_erank_prune(relation, k, ties=ties))
        assert ("prune_trajectory" in fast.metadata) == registry.enabled


def test_vectorized_name_is_the_production_kernel():
    assert (
        production.tuple_expected_ranks_vectorized
        is production.tuple_expected_ranks
    )


def test_prune_counters_match_the_scan(fig4):
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    try:
        result = production.t_erank_prune(fig4, 2)
    finally:
        set_registry(previous)
    counters = registry.snapshot()["counters"]
    assert counters["t_erank_prune.tuples_accessed"] == (
        result.metadata["tuples_accessed"]
    )
    spans = registry.snapshot()["histograms"]
    assert spans["span.t_erank_prune.seconds"]["count"] == 1
    assert counters.get("t_erank_prune.halted_early", 0) == int(
        result.metadata["halted_early"]
    )
