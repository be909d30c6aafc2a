"""Unit tests for :class:`repro.core.TopKResult`."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.result import RankedItem, TopKResult, top_k_result
from repro.exceptions import RankingError


def make_result(tids, method="demo", statistics=None):
    items = tuple(
        RankedItem(tid=tid, position=index, statistic=float(index))
        for index, tid in enumerate(tids)
    )
    return TopKResult(
        method=method,
        k=len(tids),
        items=items,
        statistics=statistics or {},
    )


class TestTopKResult:
    def test_sequence_protocol(self):
        result = make_result(["a", "b"])
        assert len(result) == 2
        assert [item.tid for item in result] == ["a", "b"]
        assert result[1].tid == "b"

    def test_tids_and_tid_set(self):
        result = make_result(["a", "b", "a"])
        assert result.tids() == ("a", "b", "a")
        assert result.tid_set() == {"a", "b"}

    def test_positions_must_be_sequential(self):
        with pytest.raises(RankingError):
            TopKResult(
                method="demo",
                k=1,
                items=(RankedItem(tid="a", position=5),),
            )

    def test_statistic_of(self):
        result = make_result(["a"], statistics={"a": 1.5, "b": 2.5})
        assert result.statistic_of("b") == 2.5
        with pytest.raises(RankingError):
            result.statistic_of("zzz")

    def test_prefix(self):
        result = make_result(["a", "b", "c"])
        prefix = result.prefix(2)
        assert prefix.tids() == ("a", "b")
        assert prefix.k == 2
        with pytest.raises(RankingError):
            result.prefix(-1)

    def test_describe_with_and_without_statistics(self):
        with_stats = make_result(["a"])
        assert "a(0)" in with_stats.describe()
        bare = TopKResult(
            method="demo",
            k=1,
            items=(RankedItem(tid="a", position=0),),
        )
        assert "a" in bare.describe()


def _vectors():
    rng = random.Random(3)
    yield "heavy_ties", [float(rng.randrange(3)) for _ in range(40)]
    yield "signed_zeros", [0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0, -0.0]
    yield "distinct", [rng.uniform(-5.0, 5.0) for _ in range(25)]
    yield "all_equal", [2.5] * 9
    yield "empty", []


class TestTopKResultSelection:
    @pytest.mark.parametrize("largest", [False, True])
    @pytest.mark.parametrize("name, values", list(_vectors()))
    def test_matches_sort_by_value_then_position(
        self, name, values, largest
    ):
        tids = [f"t{index}" for index in range(len(values))]
        statistics = dict(zip(tids, values))
        sign = -1.0 if largest else 1.0
        expected = sorted(
            range(len(values)),
            key=lambda index: (sign * values[index], index),
        )
        for k in (0, 1, len(values), len(values) + 5):
            result = top_k_result(
                "demo",
                k,
                tids,
                values,
                statistics,
                {"exact": True},
                largest=largest,
            )
            winners = expected[:k]
            assert result.tids() == tuple(tids[i] for i in winners)
            for item, index in zip(result.items, winners):
                assert item.statistic == values[index]
                # -0.0 and 0.0 tie, but each keeps its own sign.
                assert math.copysign(1.0, item.statistic) == (
                    math.copysign(1.0, values[index])
                )
            assert result.k == k
            assert result.method == "demo"
            assert result.statistics is statistics
            assert result.metadata == {"exact": True}
