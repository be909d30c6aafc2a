"""Tests for the GF engine's mass-conservation guard.

The columnar generating-function sweeps must conserve probability mass
per tuple (|sum pmf - 1| <= MASS_TOLERANCE).  Every rank table a
relation version memoizes is checked once, when it is built; a table
built from a distressed table counts as distressed too.  A distressed
table is never kept: the one guarded read counts ``kernel.gf_fallback``
and answers from the legacy dynamic program, and the median and
quantile results flag ``gf_fallback`` so the capture log records it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import attribute_workload, tuple_workload
from repro.core import attr_mq_rank, columnar, tuple_mq_rank
from repro.core.columnar import (
    MASS_TOLERANCE,
    mass_violation,
    rank_quantiles,
    tuple_rank_pmf_matrix,
)
from repro.core.semantics import rank
from repro.models import (
    AttributeLevelRelation,
    AttributeTuple,
    DiscretePDF,
    ExclusionRule,
    TupleLevelRelation,
    TupleLevelTuple,
)
from repro.obs import MetricsRegistry, set_registry


@pytest.fixture
def registry():
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestMassViolation:
    def test_clean_matrix_passes(self):
        matrix = np.array([[0.25, 0.75], [1.0, 0.0]])
        assert mass_violation(matrix) is None

    def test_empty_matrix_passes(self):
        assert mass_violation(np.zeros((0, 3))) is None

    def test_deviation_is_reported(self):
        matrix = np.array([[0.5, 0.5 - 2e-6]])
        deviation = mass_violation(matrix)
        assert deviation == pytest.approx(2e-6)

    def test_tolerance_boundary(self):
        matrix = np.array([[1.0 - MASS_TOLERANCE / 2.0]])
        assert mass_violation(matrix) is None


SIZE = 12

RELATIONS = {
    "attribute": lambda: attribute_workload(
        "uu", SIZE, pdf_size=3, seed=5
    ),
    "tuple": lambda: tuple_workload(
        "uu",
        SIZE,
        rule_fraction=0.75,
        rule_size=3,
        probability_high=1.0 / 3,
        seed=8,
    ),
}

#: id -> (model, seam that leaks, whether the positional table reads it)
LEAKS = {
    "attribute-sweep": ("attribute", "_attribute_sweep", True),
    "tuple-present": ("tuple", "_present_sweep", True),
    "tuple-absent": ("tuple", "_with_absent_branch", False),
}

#: id -> (consumer, options); "distributions" is ``*_rank_distributions``.
CONSUMERS = {
    "median": ("median_rank", {}),
    "median-shared": ("median_rank", {"ties": "shared"}),
    "q25": ("quantile_rank", {"phi": 0.25}),
    "q75": ("quantile_rank", {"phi": 0.75}),
    "q100-shared": ("quantile_rank", {"phi": 1.0, "ties": "shared"}),
    "dists": ("distributions", {}),
    "dists-shared": ("distributions", {"ties": "shared"}),
    "ukranks": ("u_kranks", {}),
    "ptk": ("pt_k", {"threshold": 0.3}),
    "globaltopk": ("global_topk", {}),
    "prf": ("prf_exponential", {"alpha": 0.9}),
}

QUANTILE_METHODS = ("median_rank", "quantile_rank")


def leak(monkeypatch, seam: str) -> None:
    """Make ``columnar.<seam>`` leak mass from the first tuple's row."""
    honest = getattr(columnar, seam)

    def leaking(*args):
        table = honest(*args)
        table[0] *= 1.0 - 1e-3
        return table

    monkeypatch.setattr(columnar, seam, leaking)


def dp_distributions(relation, ties):
    if isinstance(relation, AttributeLevelRelation):
        dp = attr_mq_rank.attribute_rank_distributions_dp
    else:
        dp = tuple_mq_rank.tuple_rank_distributions_dp
    return dp(relation, ties=ties)


def distributions(relation, ties):
    if isinstance(relation, AttributeLevelRelation):
        guarded = attr_mq_rank.attribute_rank_distributions
    else:
        guarded = tuple_mq_rank.tuple_rank_distributions
    return guarded(relation, ties=ties)


def answer(relation, consumer, options):
    if consumer == "distributions":
        return distributions(relation, options.get("ties", "by_index"))
    return rank(relation, 4, method=consumer, **options)


def distressed_kept_tables(relation) -> list:
    """Kept memo slots whose table fails its own mass check, or whose
    present-branch table does (the slot is built from it), and kept
    cdfs whose source table is not kept."""
    kept = {
        key: slot.peek()[0]
        for key, slot in relation._table_memo.items()
        if slot.peek() is not None
    }
    bad = []
    for key, table in kept.items():
        # A cdf's rows end at one; it is sound when its source is.
        if key[0].endswith("_cdf"):
            if (key[0].removesuffix("_cdf"), key[1]) not in kept:
                bad.append(key)
        # Positional rows sum to p(t); the slot reads by_index present.
        elif key[0] == "position":
            if ("present", "by_index") not in kept:
                bad.append(key)
        elif mass_violation(table) is not None:
            bad.append(key)
        elif key[0] == "rank" and ("present", key[1]) not in kept:
            bad.append(key)
    return bad


_CASES = [(leak_id, use_id) for leak_id in LEAKS for use_id in CONSUMERS]


class TestGuardedRead:
    @pytest.mark.parametrize(
        "leak_id, use_id", _CASES, ids=[f"{a}-{b}" for a, b in _CASES]
    )
    def test_falls_back_to_the_dp(
        self, leak_id, use_id, registry, monkeypatch
    ):
        model, seam, positional_reads_it = LEAKS[leak_id]
        consumer, options = CONSUMERS[use_id]
        clean = answer(RELATIONS[model](), consumer, options)
        leak(monkeypatch, seam)
        relation = RELATIONS[model]()
        answers = [answer(relation, consumer, options) for _ in range(2)]

        reads_rank_table = consumer in (*QUANTILE_METHODS, "distributions")
        distressed = reads_rank_table or positional_reads_it
        counters = registry.snapshot()["counters"]
        # One fallback per answering call, and no distressed table kept.
        assert counters.get("kernel.gf_fallback", 0) == 2 * distressed
        assert distressed_kept_tables(relation) == []
        # Every quantile answer here read a distressed table: no cdf.
        cdfs = [key for key in relation._table_memo if "_cdf" in key[0]]
        assert all(relation._table_memo[key].peek() is None for key in cdfs)
        if consumer in QUANTILE_METHODS:
            assert cdfs

        ties = options.get("ties", "by_index")
        if consumer == "distributions":
            reference = dp_distributions(relation, ties)
            for guarded in answers:
                assert list(guarded) == list(reference)
                for tid, dist in reference.items():
                    np.testing.assert_allclose(
                        guarded[tid].pmf, dist.pmf, rtol=0.0, atol=1e-12
                    )
        elif consumer in QUANTILE_METHODS:
            phi = options.get("phi", 0.5)
            reference = {
                tid: float(dist.quantile(phi))
                for tid, dist in dp_distributions(relation, ties).items()
            }
            for result in answers:
                assert result.metadata["gf_fallback"] is True
                assert result.statistics == reference
        else:
            for result in answers:
                assert "gf_fallback" not in result.metadata
                assert result.tids() == clean.tids()
                assert result.statistics == pytest.approx(
                    clean.statistics, rel=0.0, abs=1e-9
                )

    @pytest.mark.parametrize("leak_id", LEAKS)
    def test_each_read_rebuilds_a_distressed_table(
        self, leak_id, registry, monkeypatch
    ):
        model, seam, _ = LEAKS[leak_id]
        leak(monkeypatch, seam)
        relation = RELATIONS[model]()
        for _ in range(2):
            rank(relation, 4, method="median_rank")
        counters = registry.snapshot()["counters"]
        assert counters["kernel.gf_fallback"] == 2
        # A leaking sweep is swept again on every read; a clean present
        # table under a leaking absent branch is built once and kept.
        kernel = "a_mqrank_gf" if model == "attribute" else "t_mqrank_gf"
        sweeps = 1 if seam == "_with_absent_branch" else 2
        histograms = registry.snapshot()["histograms"]
        assert histograms[f"span.{kernel}.seconds"]["count"] == sweeps

    def test_a_leaking_absent_branch_is_not_kept(
        self, registry, monkeypatch
    ):
        leak(monkeypatch, "_with_absent_branch")
        relation = RELATIONS["tuple"]()
        first = tuple_rank_pmf_matrix(relation)
        second = tuple_rank_pmf_matrix(relation)
        assert first is not second
        assert mass_violation(first) is None
        np.testing.assert_array_equal(first, second)
        assert distressed_kept_tables(relation) == []
        assert registry.snapshot()["counters"]["kernel.gf_fallback"] == 2

    @pytest.mark.parametrize("model", sorted(RELATIONS))
    def test_a_clean_sweep_never_counts_a_fallback(self, model, registry):
        relation = RELATIONS[model]()
        for consumer, options in CONSUMERS.values():
            result = answer(relation, consumer, options)
            if consumer in QUANTILE_METHODS:
                assert result.metadata["gf_fallback"] is False
        counters = registry.snapshot()["counters"]
        assert "kernel.gf_fallback" not in counters
        kind = "attribute_cdf" if model == "attribute" else "rank_cdf"
        for ties in ("by_index", "shared"):
            assert relation._table_memo[(kind, ties)].peek() is not None
        assert distressed_kept_tables(relation) == []


def _tied_attribute(size: int) -> AttributeLevelRelation:
    """Equal two-point pdfs: cdfs land exactly on 0.25, 0.5 and 0.75."""
    return AttributeLevelRelation(
        AttributeTuple(f"e{index}", DiscretePDF([2.0, 6.0], [0.5, 0.5]))
        for index in range(size)
    )


def _tied_tuple(size: int) -> TupleLevelRelation:
    rows = [
        TupleLevelTuple(f"e{index}", 4.0, (0.25, 0.5, 0.75)[index % 3])
        for index in range(size)
    ]
    return TupleLevelRelation(rows, rules=[ExclusionRule("r0", ["e0", "e4"])])


SMALL = {
    "attribute-uu": lambda seed: attribute_workload(
        "uu", 8, pdf_size=3, seed=seed
    ),
    "attribute-zipf": lambda seed: attribute_workload(
        "zipf", 8, pdf_size=2, seed=seed
    ),
    "attribute-tied": lambda seed: _tied_attribute(5 + seed),
    "tuple-uu": lambda seed: tuple_workload(
        "uu", 8, rule_fraction=0.5, rule_size=2, seed=seed
    ),
    "tuple-anti": lambda seed: tuple_workload(
        "anti", 8, rule_fraction=0.75, rule_size=3, seed=seed
    ),
    "tuple-tied": lambda seed: _tied_tuple(5 + seed),
}


@pytest.mark.parametrize("ties", ["by_index", "shared"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(SMALL))
def test_dp_table_quantiles_match(name, seed, ties):
    """The fallback reads quantiles off the DP table with
    ``rank_quantiles``; they are the integers the DP's own
    ``RankDistribution.quantile`` gives."""
    relation = SMALL[name](seed)
    kind = "attribute" if name.startswith("attribute") else "rank"
    table = columnar._dp_table(relation, kind, ties)
    reference = dp_distributions(relation, ties)
    for phi in (0.25, 0.5, 0.75):
        assert rank_quantiles(table, phi).tolist() == [
            dist.quantile(phi) for dist in reference.values()
        ], phi


class TestCaptureAnnotation:
    def test_capture_record_carries_the_fallback_flag(
        self, fig2, tmp_path, monkeypatch
    ):
        import json

        from repro.obs.capture import CaptureLog, set_capture

        leak(monkeypatch, "_attribute_sweep")
        path = tmp_path / "capture.jsonl"
        log = CaptureLog(path)
        previous = set_capture(log)
        try:
            result = attr_mq_rank.a_mqrank(fig2, 2)
            log.record_query(
                fig2, result, k=2, method="median_rank", options={}
            )
        finally:
            set_capture(previous)
            log.close()
        record = json.loads(path.read_text().splitlines()[0])
        assert record["gf_fallback"] is True
