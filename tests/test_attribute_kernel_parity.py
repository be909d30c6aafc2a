"""Columnar A-ERank-Prune / A-MQRank-Prune against the scalar reference.

Both production scans run on one seen-prefix scan over the relation's
columns (``repro.core.attr_expected_rank._SeenPrefix``).  They must
reproduce the pair-at-a-time oracles of ``repro.core.reference``
exactly: the same answer ids in the same order, the same statistics,
and the same metadata — ``tuples_accessed``, ``halted_early``,
``exact``, ``ties`` and, while the metrics registry is on, every float
of the prune trajectory.  Pdfs of up to 12 entries make a tuple's sum
long enough that numpy's pairwise summation would change its order.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.workloads import attribute_workload
from repro.core import attr_expected_rank, attr_mq_rank, reference
from repro.exceptions import PruningBoundError
from repro.models import AttributeLevelRelation, AttributeTuple, DiscretePDF
from repro.obs import MetricsRegistry, NullSink, set_registry, set_sink


def _mixed_sizes(
    count: int, seed: int, *, integer: bool = False
) -> AttributeLevelRelation:
    """Pdfs of 1 to 12 entries; integer scores tie across tuples."""
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        size = rng.randint(1, 12)
        if integer:
            values = rng.sample(range(1, 30), size)
        else:
            values = [rng.uniform(1.0, 100.0) for _ in range(size)]
        weights = [rng.uniform(0.05, 1.0) for _ in values]
        rows.append(
            AttributeTuple(
                f"t{index}", DiscretePDF(values, weights, normalize=True)
            )
        )
    return AttributeLevelRelation(rows)


def _cases() -> list[tuple[str, AttributeLevelRelation]]:
    cases = []
    for count in (1, 10, 11, 300):
        for seed, (code, pdf_size) in enumerate(
            (("uu", 5), ("zipf", 9), ("norm", 12))
        ):
            cases.append(
                (
                    f"{code}_n{count}",
                    attribute_workload(
                        code, count, pdf_size=pdf_size, seed=seed + count
                    ),
                )
            )
        ties = _mixed_sizes(count, count, integer=True)
        cases.append((f"integer_ties_n{count}", ties))
    cases.append(("mixed_sizes_n300", _mixed_sizes(300, 7)))
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
    assert fast.method == slow.method
    assert fast.tids() == slow.tids()
    assert fast.metadata == slow.metadata  # accesses, halts, trajectory
    assert list(fast.statistics.items()) == list(slow.statistics.items())
    assert [item.statistic for item in fast] == [
        item.statistic for item in slow
    ]


@pytest.mark.parametrize("ties", ["shared", "by_index"])
@pytest.mark.parametrize("k", [0, 1, 10, "over"])
@pytest.mark.parametrize(
    "name, relation", CASES, ids=[name for name, _ in CASES]
)
class TestParityMatrix:
    def test_a_erank_prune(self, name, relation, k, ties, registry):
        k = relation.size + 3 if k == "over" else k
        fast = attr_expected_rank.a_erank_prune(relation, k, ties=ties)
        _assert_same(fast, reference.a_erank_prune(relation, k, ties=ties))
        traced = "prune_trajectory" in fast.metadata
        assert traced == (registry.enabled and k > 0)

    def test_a_mqrank_prune(self, name, relation, k, ties):
        k = relation.size + 3 if k == "over" else k
        _assert_same(
            attr_mq_rank.a_mqrank_prune(relation, k, ties=ties),
            reference.a_mqrank_prune(relation, k, ties=ties),
        )


@pytest.mark.parametrize("ties", ["shared", "by_index"])
@pytest.mark.parametrize(
    "options",
    [
        {"check_every": 1},
        {"check_every": 5, "phi": 0.3},
        {"tight_bounds": False, "phi": 0.75},
    ],
    ids=["every_access", "phi0.3", "markov_only"],
)
def test_a_mqrank_prune_options(options, ties, registry):
    relation = _mixed_sizes(120, 3, integer=True)
    for k in (1, 5):
        _assert_same(
            attr_mq_rank.a_mqrank_prune(relation, k, ties=ties, **options),
            reference.a_mqrank_prune(relation, k, ties=ties, **options),
        )


@pytest.mark.parametrize(
    "prune", [attr_expected_rank.a_erank_prune, attr_mq_rank.a_mqrank_prune]
)
def test_the_matrix_halts_early(prune):
    """The matrix is not vacuous: each scan stops before the end."""
    relation = dict(CASES)["zipf_n300"]
    assert prune(relation, 10).metadata["halted_early"]


@pytest.mark.parametrize(
    "prune",
    [
        attr_expected_rank.a_erank_prune,
        attr_mq_rank.a_mqrank_prune,
        reference.a_erank_prune,
        reference.a_mqrank_prune,
    ],
    ids=["erank", "mqrank", "scalar_erank", "scalar_mqrank"],
)
def test_nonpositive_scores_are_rejected(prune):
    relation = AttributeLevelRelation(
        [
            AttributeTuple("a", DiscretePDF.point(3.0)),
            AttributeTuple("b", DiscretePDF([0.0, 5.0], [0.5, 0.5])),
        ]
    )
    with pytest.raises(PruningBoundError, match="'b' has score 0"):
        prune(relation, 1)


@pytest.mark.parametrize(
    "name, prune",
    [
        ("a_erank_prune", attr_expected_rank.a_erank_prune),
        ("a_mqrank_prune", attr_mq_rank.a_mqrank_prune),
    ],
)
def test_prune_counters_match_the_scan(name, prune):
    relation = attribute_workload("zipf", 200, seed=4)
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    try:
        result = prune(relation, 5)
    finally:
        set_registry(previous)
    counters = registry.snapshot()["counters"]
    assert counters[f"{name}.tuples_accessed"] == (
        result.metadata["tuples_accessed"]
    )
    spans = registry.snapshot()["histograms"]
    assert spans[f"span.{name}.seconds"]["count"] == 1
    assert counters.get(f"{name}.halted_early", 0) == int(
        result.metadata["halted_early"]
    )
