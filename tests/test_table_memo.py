"""Rank tables memoized on the relation version.

Every median, quantile and positional semantics reads one of four
generating-function tables (``repro.core.columnar``), median and
quantile top-k through the normalized cdf of theirs.  A relation
object builds each of them once per tie rule and keeps it read-only;
this module pins that the kept tables change no answer, and the
memo's lifecycle:

* parity, exact to the bit: a warm hit, a cold ``copy.copy`` version
  and a table built on every call (budget 0) give the same
  ``to_dict()`` JSON, and the tables equal a direct ``Columns`` call;
  a kept cdf gives the quantiles ``rank_quantiles`` reads off a fresh
  table, also where a cdf entry sits on ``phi``;
* one cdf serves median and every quantile of a version;
* kept arrays are read-only;
* a copy or a pickle round-trip starts with an empty memo;
* eight threads racing on a cold version build each table once;
* a table over the byte budget is not kept;
* a leaking sweep is caught once per build, the positional answers
  fall back to the legacy DP, and the leaking table is not kept.
"""

from __future__ import annotations

import copy
import json
import pickle
import threading

import numpy as np
import pytest

from repro.bench.workloads import attribute_workload, tuple_workload
from repro.core import columnar
from repro.core.columnar import (
    attribute_rank_pmf_matrix,
    rank_position_probability_matrix,
    tuple_present_rank_pmf_matrix,
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
    memo,
)
from repro.obs import MetricsRegistry, set_registry

SIZE = 12
KS = (0, 1, 5, SIZE + 3)
TIES = ("shared", "by_index")

#: (method, options, takes ``ties``)
METHODS = (
    ("median_rank", {}, True),
    ("quantile_rank", {"phi": 0.25}, True),
    ("quantile_rank", {"phi": 0.75}, True),
    ("quantile_rank", {"phi": 1.0}, True),
    ("u_kranks", {}, False),
    ("pt_k", {"threshold": 0.3}, False),
    ("global_topk", {}, False),
    ("prf_exponential", {"alpha": 0.9}, False),
)


def _equal_attribute() -> AttributeLevelRelation:
    return AttributeLevelRelation(
        AttributeTuple(f"e{index}", DiscretePDF([2.0, 6.0], [0.5, 0.5]))
        for index in range(SIZE)
    )


def _equal_tuple() -> TupleLevelRelation:
    rows = [
        TupleLevelTuple(f"e{index}", 4.0, (0.2, 0.5, 0.3)[index % 3])
        for index in range(SIZE)
    ]
    rules = [
        ExclusionRule("r0", ["e0", "e5"]),
        ExclusionRule("r1", ["e7", "e2", "e9"]),
    ]
    return TupleLevelRelation(rows, rules=rules)


def _ruled_tuple() -> TupleLevelRelation:
    """Seeded scores and probabilities, most tuples in 3-member rules."""
    return tuple_workload(
        "uu",
        SIZE,
        rule_fraction=0.75,
        rule_size=3,
        probability_high=1.0 / 3,
        seed=8,
    )


RELATIONS = {
    "attribute-uu": lambda: attribute_workload("uu", SIZE, pdf_size=3, seed=5),
    "attribute-equal": _equal_attribute,
    "tuple-ruled": _ruled_tuple,
    "tuple-equal": _equal_tuple,
}


@pytest.fixture
def registry():
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def _builds(registry) -> dict[str, int]:
    histograms = registry.snapshot()["histograms"]
    return {
        name: histograms.get(f"span.{name}.seconds", {}).get("count", 0)
        for name in ("a_mqrank_gf", "t_mqrank_gf")
    }


def _answer(relation, k, method, options) -> str:
    return json.dumps(rank(relation, k, method=method, **options).to_dict())


def _cases():
    for name in RELATIONS:
        for method, options, takes_ties in METHODS:
            for ties in TIES if takes_ties else (None,):
                yield name, method, options, ties


def _case_id(case) -> str:
    name, method, options, ties = case
    suffix = "".join(f"-{key}={value}" for key, value in options.items())
    return f"{name}-{method}{suffix}" + (f"-{ties}" if ties else "")


@pytest.mark.parametrize(
    "name, method, options, ties",
    list(_cases()),
    ids=[_case_id(case) for case in _cases()],
)
def test_warm_cold_and_unkept_answers_are_identical(
    name, method, options, ties, monkeypatch
):
    options = dict(options, **({"ties": ties} if ties else {}))
    relation = RELATIONS[name]()
    for k in KS:
        warm = [_answer(relation, k, method, options) for _ in range(2)]
        cold = _answer(copy.copy(relation), k, method, options)
        with monkeypatch.context() as patch:
            patch.setattr(memo, "TABLE_BUDGET_BYTES", 0)
            unkept = _answer(RELATIONS[name](), k, method, options)
        assert warm[0] == warm[1] == cold == unkept, (name, method, k)


TUPLE_TABLES = (tuple_present_rank_pmf_matrix, tuple_rank_pmf_matrix)


def _tables(relation) -> list[np.ndarray]:
    """Every memoized table of ``relation``, by the public entry points."""
    if isinstance(relation, AttributeLevelRelation):
        tables = [attribute_rank_pmf_matrix(relation, ties=t) for t in TIES]
    else:
        tables = [
            builder(relation, ties=t) for builder in TUPLE_TABLES for t in TIES
        ]
    return tables + [rank_position_probability_matrix(relation)]


def _direct(relation) -> list[np.ndarray]:
    """The same tables from direct ``Columns`` calls."""
    columns = relation.columns()
    if isinstance(relation, AttributeLevelRelation):
        tables = [attribute_rank_pmf_matrix(columns, ties=t) for t in TIES]
        return tables + [tables[1]]
    tables = [
        builder(columns, ties=t) for builder in TUPLE_TABLES for t in TIES
    ]
    n = columns.size
    position = np.zeros((n, n))
    limit = min(n, tables[1].shape[1])
    position[:, :limit] = tables[1][:, :limit] * columns.probs[:, None]
    return tables + [position]


@pytest.mark.parametrize("name", sorted(RELATIONS))
def test_tables_equal_direct_columns_calls(name):
    relation = RELATIONS[name]()
    direct = _direct(relation)
    warm = _tables(relation)
    again = _tables(relation)
    cold = _tables(copy.copy(relation))
    for index, expected in enumerate(direct):
        assert np.array_equal(warm[index], expected), (name, index)
        assert np.array_equal(cold[index], expected), (name, index)
        assert again[index] is warm[index]
        assert not warm[index].flags.writeable
        with pytest.raises(ValueError):
            warm[index][0, 0] = 1.0


def test_columns_calls_are_built_every_time_and_stay_writable(registry):
    relation = RELATIONS["attribute-uu"]()
    columns = relation.columns()
    first = attribute_rank_pmf_matrix(columns)
    second = attribute_rank_pmf_matrix(columns)
    assert first is not second and first.flags.writeable
    assert _builds(registry)["a_mqrank_gf"] == 2


def test_one_sweep_serves_median_then_positional_queries(registry):
    relation = RELATIONS["tuple-ruled"]()
    rank(relation, 3, method="median_rank")
    rank(relation, 3, method="pt_k", threshold=0.3)
    rank(relation, 3, method="u_kranks")
    rank(relation, 3, method="prf_exponential", alpha=0.9)
    rank(relation, 3, method="median_rank")
    assert _builds(registry) == {"a_mqrank_gf": 0, "t_mqrank_gf": 1}
    rank(relation, 3, method="median_rank", ties="shared")
    assert _builds(registry)["t_mqrank_gf"] == 2


@pytest.mark.parametrize("name", ["attribute-uu", "tuple-ruled"])
def test_copy_and_pickle_start_with_an_empty_memo(name, registry):
    relation = RELATIONS[name]()
    kernel = "a_mqrank_gf" if name.startswith("attribute") else "t_mqrank_gf"
    rank(relation, 3, method="median_rank")
    assert relation._table_memo
    clone = copy.copy(relation)
    revived = pickle.loads(pickle.dumps(relation))
    assert clone._table_memo == {} and revived._table_memo == {}
    assert _builds(registry)[kernel] == 1
    for version in (clone, revived):
        assert (
            rank(version, 3, method="median_rank").to_dict()
            == rank(relation, 3, method="median_rank").to_dict()
        )
    assert _builds(registry)[kernel] == 3


@pytest.mark.parametrize("name", ["attribute-uu", "tuple-ruled"])
def test_racing_threads_build_each_table_once(name, registry):
    relation = copy.copy(RELATIONS[name]())
    barrier = threading.Barrier(8)
    answers: list = [None] * 8

    def query(index: int) -> None:
        barrier.wait()
        method = ("median_rank", "pt_k", "u_kranks", "global_topk")[index % 4]
        options = {"threshold": 0.3} if method == "pt_k" else {}
        answers[index] = (method, _answer(relation, 5, method, options))

    workers = [threading.Thread(target=query, args=(i,)) for i in range(8)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert len(set(answers)) == 4
    if name.startswith("attribute"):
        # median and the positional table share the by_index sweep.
        assert _builds(registry) == {"a_mqrank_gf": 1, "t_mqrank_gf": 0}
    else:
        assert _builds(registry) == {"a_mqrank_gf": 0, "t_mqrank_gf": 1}


@pytest.mark.parametrize("name", ["attribute-uu", "tuple-ruled"])
def test_a_table_over_the_budget_is_not_kept(name, registry, monkeypatch):
    monkeypatch.setattr(memo, "TABLE_BUDGET_BYTES", 8 * SIZE * SIZE - 1)
    relation = RELATIONS[name]()
    kernel = "a_mqrank_gf" if name.startswith("attribute") else "t_mqrank_gf"
    first = rank_position_probability_matrix(relation)
    second = rank_position_probability_matrix(relation)
    assert first is not second and np.array_equal(first, second)
    assert first.flags.writeable
    # The tuple-level present table (N x M, M < N) still fits and is
    # kept; the N x N tables are rebuilt.
    assert _builds(registry)[kernel] == (2 if kernel == "a_mqrank_gf" else 1)
    monkeypatch.setattr(memo, "TABLE_BUDGET_BYTES", 8 * SIZE * SIZE)
    kept = rank_position_probability_matrix(relation)
    assert rank_position_probability_matrix(relation) is kept


def _dp_position_table(relation) -> np.ndarray:
    """The positional table from the legacy DPs, row by row."""
    from repro.core.attr_mq_rank import attribute_rank_distributions_dp
    from repro.core.tuple_mq_rank import tuple_present_rank_pmf

    table = np.zeros((relation.size, relation.size))
    if isinstance(relation, AttributeLevelRelation):
        rows = attribute_rank_distributions_dp(relation, ties="by_index")
        for position, tid in enumerate(relation.tids()):
            table[position, : rows[tid].pmf.size] = rows[tid].pmf
        return table
    for position, row in enumerate(relation):
        pmf = tuple_present_rank_pmf(relation, row.tid, ties="by_index")
        width = min(pmf.size, relation.size)
        table[position, :width] = row.probability * pmf[:width]
    return table


class TestPositionalGuard:
    """A leaking sweep behind the positional table falls back to the DP."""

    @pytest.mark.parametrize(
        "name, sweep",
        [
            ("attribute-uu", "_attribute_sweep"),
            ("tuple-ruled", "_present_sweep"),
        ],
    )
    def test_pt_k_and_prf_answer_from_the_dp(
        self, name, sweep, registry, monkeypatch
    ):
        clean = RELATIONS[name]()
        queries = (
            ("pt_k", {"threshold": 0.3}),
            ("prf_exponential", {"alpha": 0.9}),
        )
        expected = {
            method: rank(clean, 5, method=method, **options).tids()
            for method, options in queries
        }
        before = sum(_builds(registry).values())
        honest = getattr(columnar, sweep)

        def leaking(columns, ties):
            table = honest(columns, ties)
            table[0] *= 1.0 - 1e-3
            return table

        monkeypatch.setattr(columnar, sweep, leaking)
        relation = RELATIONS[name]()
        table = rank_position_probability_matrix(relation)
        np.testing.assert_array_equal(table, _dp_position_table(relation))
        answers = {
            method: rank(relation, 5, method=method, **options)
            for method, options in queries
        }
        for method, answer in answers.items():
            assert answer.tids() == expected[method], method
            assert "gf_fallback" not in answer.metadata
        top5 = table[:, :5].sum(axis=1)
        assert answers["pt_k"].statistics == dict(
            zip(relation.tids(), top5.tolist())
        )
        # One check per build, and every read rebuilt: nothing kept.
        assert registry.snapshot()["counters"]["kernel.gf_fallback"] == 3
        assert sum(_builds(registry).values()) - before == 3


def _kept_cdf(relation, ties) -> np.ndarray:
    kind = (
        "attribute_cdf"
        if isinstance(relation, AttributeLevelRelation)
        else "rank_cdf"
    )
    return relation._table_memo[(kind, ties)].peek()[0]


def _fresh_table(relation, ties) -> np.ndarray:
    columns = copy.copy(relation).columns()
    if isinstance(relation, AttributeLevelRelation):
        return attribute_rank_pmf_matrix(columns, ties=ties)
    return tuple_rank_pmf_matrix(columns, ties=ties)


class TestKeptCdf:
    """Median and quantile top-k read one kept cdf per source table."""

    @pytest.mark.parametrize(
        "name, ties, phi",
        [
            # Equal two-point pdfs: cdf entries land exactly on phi.
            ("attribute-equal", "by_index", 0.25),
            ("attribute-equal", "by_index", 0.75),
            ("attribute-equal", "shared", 0.75),
            # Entries within 1e-9 of phi, not on it.
            ("tuple-equal", "shared", 0.5),
        ],
    )
    def test_a_cdf_entry_on_phi_reads_as_a_fresh_table_does(
        self, name, ties, phi, monkeypatch
    ):
        relation = RELATIONS[name]()
        options = {"phi": phi, "ties": ties}
        warm = rank(relation, SIZE, method="quantile_rank", **options)
        cdf = _kept_cdf(relation, ties)
        assert np.any(np.abs(cdf - phi) <= 1e-9), "no entry on phi"
        fresh = columnar.rank_quantiles(_fresh_table(relation, ties), phi)
        assert list(warm.statistics.values()) == fresh.astype(float).tolist()
        cold = rank(
            copy.copy(relation), SIZE, method="quantile_rank", **options
        )
        with monkeypatch.context() as patch:
            patch.setattr(memo, "TABLE_BUDGET_BYTES", 0)
            unkept = rank(
                RELATIONS[name](), SIZE, method="quantile_rank", **options
            )
        assert (
            json.dumps(warm.to_dict())
            == json.dumps(cold.to_dict())
            == json.dumps(unkept.to_dict())
        )

    def test_an_entry_just_below_phi_reaches_it(self):
        pmf = np.array([[0.5 - 4e-10, 0.5 + 4e-10], [0.5 - 2e-9, 0.5 + 2e-9]])
        assert columnar.rank_quantiles(pmf, 0.5).tolist() == [0, 1]

    @pytest.mark.parametrize("name", ["attribute-uu", "tuple-ruled"])
    def test_median_then_quantiles_build_one_cdf(self, name, monkeypatch):
        builds = []
        honest = columnar._cdf

        def counted(matrix):
            builds.append(matrix.shape)
            return honest(matrix)

        monkeypatch.setattr(columnar, "_cdf", counted)
        relation = RELATIONS[name]()
        rank(relation, 3, method="median_rank")
        rank(relation, 3, method="quantile_rank", phi=0.75)
        rank(relation, 3, method="quantile_rank", phi=0.25)
        rank(relation, 3, method="median_rank")
        assert len(builds) == 1
        rank(relation, 3, method="median_rank", ties="shared")
        assert len(builds) == 2

    @pytest.mark.parametrize("name", ["attribute-uu", "tuple-ruled"])
    @pytest.mark.parametrize("ties", TIES)
    def test_a_kept_cdf_is_read_only_and_normalizes_its_table(
        self, name, ties
    ):
        relation = RELATIONS[name]()
        rank(relation, 3, method="median_rank", ties=ties)
        cdf = _kept_cdf(relation, ties)
        assert not cdf.flags.writeable
        with pytest.raises(ValueError):
            cdf[0, 0] = 0.0
        table = _fresh_table(relation, ties)
        expected = np.cumsum(table, axis=1)
        expected = expected / expected[:, -1:]
        assert np.array_equal(cdf, expected)

    def test_a_cdf_over_the_budget_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(memo, "TABLE_BUDGET_BYTES", 0)
        relation = RELATIONS["tuple-ruled"]()
        first = rank(relation, 3, method="median_rank")
        assert relation._table_memo == {}
        again = rank(relation, 3, method="median_rank")
        assert again.to_dict() == first.to_dict()
