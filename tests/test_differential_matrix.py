"""One differential-correctness matrix over every ranking method.

A table of named inputs (``INPUTS``) is crossed with a table of methods
(``METHODS``, one row per ``available_methods()`` entry and option
set).  A cell is one input, one method row and, for a method that
takes ``ties``, one tie rule.  Each cell runs its method for several
``k`` on four twins:

* the *kept* relation, shared by every cell of its input, so it answers
  from memoized columns and rank tables; it is queried with the other
  tie rule first, so a memo key that drops ``ties`` shows.  A store
  snapshot's kept columns are derived from the previous snapshot's
  (``TupleColumnsDelta``);
* a *fresh* ``copy.copy`` of it, which starts with an empty memo and
  builds its columns from its rows;

each with the metrics registry off and on.  The cell then checks:

1. the four answers are the same ``to_dict()`` JSON (registry-only
   metadata, the prune trajectory, removed);
2. on an ``oracle`` input, the answer against the possible-worlds
   oracles of :mod:`repro.baselines.brute_force`, to ``1e-9``;
3. on a ``reference`` input, the answer against
   :mod:`repro.core.reference` or the Section 7 DPs, ``==`` wherever
   that pair is ``==`` (the attribute-level pruned scans, the quantile
   statistics) and to ``1e-9`` otherwise.

Beside the cells: a guard that every registered method has a row, and
the property audit of Theorems 1-2 on the small seeded inputs.
"""

from __future__ import annotations

import copy
import functools
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest

from repro.baselines import (
    brute_force_expected_ranks,
    brute_force_rank_distributions,
    brute_force_rank_position_probabilities,
    brute_force_topk_answer_probabilities,
)
from repro.bench.workloads import attribute_workload, tuple_workload
from repro.core import properties, reference
from repro.core.attr_mq_rank import attribute_rank_distributions_dp
from repro.core.semantics import available_methods, method_supports, rank
from repro.core.tuple_mq_rank import (
    tuple_present_rank_pmf,
    tuple_rank_distributions_dp,
)
from repro.datagen import generate_attribute_relation, generate_tuple_relation
from repro.engine import MaintainedTupleStore
from repro.exceptions import UnsupportedModelError
from repro.models import (
    AttributeLevelRelation,
    AttributeTuple,
    DiscretePDF,
    ExclusionRule,
    TupleLevelRelation,
    TupleLevelTuple,
)
from repro.models.possible_worlds import (
    enumerate_attribute_worlds,
    enumerate_tuple_worlds,
)
from repro.obs import MetricsRegistry, NullSink, set_registry, set_sink

ATOL = 1e-9
TIES = ("shared", "by_index")
KS = (0, 1, 5, "over")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _attribute(pdfs) -> AttributeLevelRelation:
    return AttributeLevelRelation(
        AttributeTuple(f"t{index}", DiscretePDF(values, probs))
        for index, (values, probs) in enumerate(pdfs)
    )


def _tuples(rows, rules=()) -> TupleLevelRelation:
    return TupleLevelRelation(
        [TupleLevelTuple(tid, score, p) for tid, score, p in rows],
        rules=[ExclusionRule(rule, members) for rule, members in rules],
    )


def _integer_pdfs(count: int, seed: int, max_size: int = 3):
    """Integer-valued pdfs over a tiny universe: many cross-tuple ties."""
    rng = np.random.default_rng(seed)
    rows = []
    for index in range(count):
        size = int(rng.integers(1, max_size + 1))
        values = sorted(
            rng.choice(np.arange(1.0, 7.0), size=size, replace=False)
        )
        probs = rng.dirichlet(np.ones(size))
        rows.append(
            AttributeTuple(f"t{index}", DiscretePDF(values, probs.tolist()))
        )
    return AttributeLevelRelation(rows)


def _mixed_sizes(count: int, seed: int) -> AttributeLevelRelation:
    """Pdfs of 1 to 12 integer entries: long per-tuple sums, ties."""
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        values = rng.sample(range(1, 30), rng.randint(1, 12))
        weights = [rng.uniform(0.05, 1.0) for _ in values]
        rows.append(
            AttributeTuple(
                f"t{index}", DiscretePDF(values, weights, normalize=True)
            )
        )
    return AttributeLevelRelation(rows)


def _lottery(count: int, seed: int) -> AttributeLevelRelation:
    """One tuple in seven scores about 1000 with probability 0.08 and
    about 3 otherwise: tickets lead the expected-score access order of
    the pruned scans while ranking last."""
    rng = random.Random(seed)
    pdfs = []
    for index in range(count):
        if index % 7 == 0:
            pdfs.append(
                (
                    [rng.uniform(1.0, 5.0), rng.uniform(900.0, 1100.0)],
                    [0.92, 0.08],
                )
            )
        else:
            level = rng.uniform(20.0, 60.0)
            pdfs.append(
                ([level * 0.95, level, level * 1.05], [0.3, 0.4, 0.3])
            )
    return _attribute(pdfs)


def _tuple_lottery(count: int, seed: int) -> TupleLevelRelation:
    """High scores with small probabilities among steady tuples."""
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        if index % 7 == 0:
            rows.append((f"t{index}", rng.uniform(900.0, 1100.0), 0.05))
        else:
            rows.append(
                (f"t{index}", rng.uniform(20.0, 60.0), rng.uniform(0.6, 1.0))
            )
    return _tuples(rows)


def _multi_member_rules() -> TupleLevelRelation:
    """Rules of sizes 2-4 with tied scores inside and across rules."""
    rows = [
        ("a", 9.0, 0.3), ("b", 9.0, 0.2), ("c", 7.0, 0.25),
        ("d", 7.0, 0.25), ("e", 7.0, 0.4), ("f", 5.0, 0.1),
        ("g", 5.0, 0.9), ("h", 3.0, 0.5), ("i", 3.0, 0.04),
        ("j", 1.0, 1.0),
    ]  # fmt: skip
    rules = [
        ("r4", ["e", "a", "i", "c"]),
        ("r3", ["d", "h", "b"]),
        ("r2", ["g", "f"]),
    ]
    return _tuples(rows, rules)


def _all_equal_scores(count: int) -> TupleLevelRelation:
    """One wide tie group, some of it paired into rules."""
    rng = random.Random(11)
    rows = [
        (f"t{index}", 4.0, round(rng.uniform(0.05, 0.5), 3))
        for index in range(count)
    ]
    half = count // 2
    rules = [
        (f"r{index}", [f"t{index}", f"t{index + half}"])
        for index in range(0, half, 3)
    ]
    return _tuples(rows, rules)


def _churned_store(count: int, seed: int, rounds: int) -> TupleLevelRelation:
    """The last of ``rounds`` store snapshots, each derived from the one
    before: every snapshot's columns are read before the next writes,
    and the writes insert, delete, and re-weigh and re-score base rows
    (some onto a shared score, so moved rows land in tie groups)."""
    rng = random.Random(seed)
    store = MaintainedTupleStore.from_relation(
        generate_tuple_relation(count, rule_fraction=0.5, seed=seed)
    )
    snapshot = store.snapshot()
    snapshot.columns()
    fresh = 0
    for _ in range(rounds):
        singles = [
            tid for tid in store.score_order()
            if snapshot.rule_of(tid).is_singleton
        ]  # fmt: skip
        for _ in range(max(4, count // 8)):
            action = rng.choice(("insert", "delete", "weigh", "score"))
            tid = rng.choice(singles)
            if action == "insert":
                store.insert(
                    f"n{fresh}",
                    score=rng.choice((rng.uniform(1, 1000), 500.0)),
                    probability=rng.uniform(0.02, 1.0),
                )
                fresh += 1
            elif action == "delete" and len(singles) > 2:
                singles.remove(tid)
                store.delete(tid)
            elif action == "weigh":
                store.update_probability(tid, rng.uniform(0.02, 1.0))
            else:
                store.update_score(
                    tid, rng.choice((rng.uniform(1, 1000), 500.0))
                )
        snapshot = store.snapshot()
        # The derived build is what this input is for.
        assert snapshot._columns_delta is not None
        snapshot.columns()
    return snapshot


#: name -> (factory, checked against: "oracle" or "reference").
INPUTS: dict[str, tuple[Callable[[], object], str]] = {
    # -- attribute-level, possible-worlds oracle --------------------
    "a-empty": (lambda: AttributeLevelRelation([]), "oracle"),
    "a-single": (lambda: _attribute([([1.0, 2.0], [0.4, 0.6])]), "oracle"),
    "a-fig2": (
        lambda: _attribute(
            [([100, 70], [0.4, 0.6]), ([92, 80], [0.6, 0.4]), ([85], [1.0])]
        ),
        "oracle",
    ),
    "a-uu-5": (
        lambda: attribute_workload("uu", 5, pdf_size=2, seed=13),
        "oracle",
    ),
    "a-zipf-5": (
        lambda: generate_attribute_relation(
            5, pdf_size=3, score_distribution="zipf", seed=4
        ),
        "oracle",
    ),
    "a-ties-6": (lambda: _integer_pdfs(6, 11), "oracle"),
    "a-all-equal": (
        lambda: _attribute([([2.0, 6.0], [0.5, 0.5])] * 6),
        "oracle",
    ),
    "a-points": (
        lambda: _attribute([([5.0], [1.0]), ([5.0], [1.0]), ([3.0], [1.0])]),
        "oracle",
    ),
    "a-edge-p": (
        lambda: _attribute(
            [
                ([1.0, 9.0], [1e-15, 1.0 - 1e-15]),
                ([2.0, 8.0], [1.0 - 1e-15, 1e-15]),
                ([5.0], [1.0]),
                ([4.0, 6.0], [0.5, 0.5]),
            ]
        ),
        "oracle",
    ),
    # -- attribute-level, reference scans and DPs ---------------------
    "a-uu-48": (
        lambda: attribute_workload("uu", 48, pdf_size=3),
        "reference",
    ),
    "a-zipf-60": (
        lambda: attribute_workload("zipf", 60, pdf_size=9, seed=3),
        "reference",
    ),
    "a-norm-40": (
        lambda: attribute_workload("norm", 40, pdf_size=12, seed=2),
        "reference",
    ),
    "a-ties-64": (lambda: _integer_pdfs(64, 23), "reference"),
    "a-mixed-60": (lambda: _mixed_sizes(60, 7), "reference"),
    "a-lottery-70": (lambda: _lottery(70, 1), "reference"),
    # -- tuple-level, possible-worlds oracle --------------------------
    "t-empty": (lambda: TupleLevelRelation([]), "oracle"),
    "t-single": (lambda: _tuples([("x", 1.0, 0.5)]), "oracle"),
    "t-fig4": (
        lambda: _tuples(
            [("t1", 100, 0.4), ("t2", 92, 0.5), ("t3", 85, 1.0),
             ("t4", 80, 0.5)],
            [("tau2", ["t2", "t4"])],
        ),  # fmt: skip
        "oracle",
    ),
    "t-rules-6": (
        lambda: _tuples(
            [("a", 9.0, 0.6), ("b", 8.0, 0.3), ("c", 8.0, 0.35),
             ("d", 6.0, 1.0), ("e", 5.0, 0.25), ("f", 4.0, 0.45)],
            [("tau1", ["a", "c"]), ("tau2", ["b", "e", "f"])],
        ),  # fmt: skip
        "oracle",
    ),
    "t-multi-member": (_multi_member_rules, "oracle"),
    "t-near-certain": (
        # Rule mass within 1e-9 of one: theta ~ 1e9 in the splice.
        lambda: _tuples(
            [("u", 7.0, (1.0 - 1e-9) / 2.0), ("v", 6.0, (1.0 - 1e-9) / 2.0),
             ("w", 5.0, 0.5), ("x", 3.0, 0.9)],
            [("tau", ["u", "v"])],
        ),  # fmt: skip
        "oracle",
    ),
    "t-edge-p": (
        lambda: _tuples(
            [("sure", 9.0, 1.0), ("almost", 8.5, 1.0 - 1e-15),
             ("maybe", 8.0, 0.5), ("never", 7.0, 0.0),
             ("hardly", 6.5, 1e-15), ("low", 6.0, 0.2)]
        ),  # fmt: skip
        "oracle",
    ),
    "t-ties-7": (
        lambda: generate_tuple_relation(
            7, rule_fraction=0.6, rule_size=2, seed=3
        ).map_scores(lambda score: float(int(score) // 40)),
        "oracle",
    ),
    "t-all-equal-8": (lambda: _all_equal_scores(8), "oracle"),
    "t-store-8": (lambda: _churned_store(8, 2, rounds=2), "oracle"),
    # -- tuple-level, reference scans and DPs -------------------------
    "t-uu-48": (lambda: tuple_workload("uu", 48), "reference"),
    "t-zipf-48": (lambda: tuple_workload("zipf", 48), "reference"),
    "t-cor-48": (lambda: tuple_workload("cor", 48), "reference"),
    "t-anti-48": (lambda: tuple_workload("anti", 48), "reference"),
    "t-rules3-160": (
        lambda: generate_tuple_relation(
            160, rule_fraction=0.6, rule_size=3, seed=1
        ),
        "reference",
    ),
    "t-integer-120": (
        lambda: generate_tuple_relation(
            120, rule_fraction=0.4, seed=9
        ).map_scores(lambda score: float(int(score) // 25)),
        "reference",
    ),
    "t-all-equal-40": (lambda: _all_equal_scores(40), "reference"),
    "t-lottery-70": (lambda: _tuple_lottery(70, 5), "reference"),
    "t-store-150": (lambda: _churned_store(150, 3, rounds=3), "reference"),
}


@functools.lru_cache(maxsize=None)
def kept(name: str):
    """The input's one kept relation, shared by all its cells."""
    return INPUTS[name][0]()


@pytest.fixture(scope="module", autouse=True)
def _release_kept_inputs():
    """Drop the kept relations and their truths with the module."""
    yield
    for cached in (
        kept,
        _ranks_of,
        _distributions_of,
        _positions_of,
        _expected_scores_of,
    ):
        cached.cache_clear()


def fresh_copy(relation):
    """A new version of ``relation`` that must build everything."""
    clone = copy.copy(relation)
    assert clone._table_memo == {}
    assert clone._columns_memo.peek() is None
    assert clone._columns_delta is None
    return clone


@contextmanager
def registry(enabled: bool):
    previous = set_registry(MetricsRegistry(enabled=enabled))
    previous_sink = set_sink(NullSink())
    try:
        yield
    finally:
        set_sink(previous_sink)
        set_registry(previous)


# ----------------------------------------------------------------------
# What each method is checked against, per input and tie rule
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _ranks_of(name: str, ties: str) -> dict[str, float]:
    relation = kept(name)
    if INPUTS[name][1] == "oracle":
        return brute_force_expected_ranks(relation, ties=ties)
    if isinstance(relation, AttributeLevelRelation):
        return reference.attribute_expected_ranks_quadratic(
            relation, ties=ties
        )
    return reference.tuple_expected_ranks(relation, ties=ties)


@functools.lru_cache(maxsize=None)
def _distributions_of(name: str, ties: str):
    relation = kept(name)
    if INPUTS[name][1] == "oracle":
        return brute_force_rank_distributions(relation, ties=ties)
    if isinstance(relation, AttributeLevelRelation):
        return attribute_rank_distributions_dp(relation, ties=ties)
    return tuple_rank_distributions_dp(relation, ties=ties)


@functools.lru_cache(maxsize=None)
def _positions_of(name: str) -> dict[str, np.ndarray]:
    """``Pr[t is ranked j]`` rows (index ties); tuple-level rows carry
    the membership mass."""
    relation = kept(name)
    if INPUTS[name][1] == "oracle":
        table = brute_force_rank_position_probabilities(relation)
        return {tid: np.asarray(row) for tid, row in table.items()}
    rows = {}
    n = relation.size
    if isinstance(relation, AttributeLevelRelation):
        dists = attribute_rank_distributions_dp(relation, ties="by_index")
        for tid, dist in dists.items():
            rows[tid] = np.zeros(n)
            rows[tid][: dist.pmf.size] = dist.pmf
        return rows
    for row in relation:
        pmf = tuple_present_rank_pmf(relation, row.tid, ties="by_index")
        rows[row.tid] = np.zeros(n)
        width = min(pmf.size, n)
        rows[row.tid][:width] = row.probability * pmf[:width]
    return rows


@functools.lru_cache(maxsize=None)
def _expected_scores_of(name: str) -> dict[str, float]:
    relation = kept(name)
    scores = dict.fromkeys(relation.tids(), 0.0)
    if isinstance(relation, AttributeLevelRelation):
        for world in enumerate_attribute_worlds(relation):
            for tid, score in world.scores.items():
                scores[tid] += world.probability * score
        return scores
    for world in enumerate_tuple_worlds(relation):
        for tid in world.appearing:
            score = relation.tuple_by_id(tid).score
            scores[tid] += world.probability * score
    return scores


def assert_top_k(result, truth, k, *, largest=False, values=True):
    """``result`` reports the ``min(k, N)`` best tuples of ``truth``, in
    order, up to ``ATOL``-close ties; with ``values``, each item's
    statistic is its ``truth``."""
    items = result.items
    assert len(items) == min(k, len(truth))
    assert len(set(result.tids())) == len(items)
    sign = -1.0 if largest else 1.0
    got = [sign * truth[item.tid] for item in items]
    assert all(b >= a - ATOL for a, b in zip(got, got[1:])), got
    best = sorted(sign * value for value in truth.values())[: len(items)]
    assert got == pytest.approx(best, abs=ATOL)
    if values:
        for item in items:
            assert item.statistic == pytest.approx(truth[item.tid], abs=ATOL)


def assert_statistics(result, truth, *, exact=False):
    """Every statistic the result reports equals its ``truth``."""
    assert set(result.statistics) <= set(truth)
    for tid, value in result.statistics.items():
        if exact:
            assert value == truth[tid], tid
        else:
            assert value == pytest.approx(truth[tid], abs=ATOL), tid


# -- per-method checks: (name, relation, k, ties, result, opts) --------
def _check_expected_rank(name, relation, k, ties, result, opts):
    truth = _ranks_of(name, ties)
    assert set(result.statistics) == set(truth)
    assert_statistics(result, truth)
    assert_top_k(result, truth, k)


def _check_expected_rank_prune(name, relation, k, ties, result, opts):
    truth = _ranks_of(name, ties)
    # An attribute-level scan reports ranks over the read prefix only.
    tuple_level = isinstance(relation, TupleLevelRelation)
    if tuple_level:
        assert_statistics(result, truth)
    assert_top_k(result, truth, k, values=tuple_level)


def _quantiles(name, ties, phi) -> dict[str, float]:
    return {
        tid: float(dist.quantile(phi))
        for tid, dist in _distributions_of(name, ties).items()
    }


def _check_quantile(name, relation, k, ties, result, opts):
    truth = _quantiles(name, ties, opts.get("phi", 0.5))
    assert set(result.statistics) == set(truth)
    assert_statistics(result, truth, exact=True)
    assert_top_k(result, truth, k)


def _check_quantile_prune(name, relation, k, ties, result, opts):
    truth = _quantiles(name, ties, opts.get("phi", 0.5))
    assert_top_k(result, truth, k, values=False)


def _check_u_topk(name, relation, k, ties, result, opts):
    if INPUTS[name][1] != "oracle":
        return  # exact best-first search; only the oracle applies
    support = brute_force_topk_answer_probabilities(relation, k)
    best = max(support.values())
    probability = result.metadata["answer_probability"]
    assert probability == pytest.approx(best, abs=ATOL)
    assert support.get(result.tids(), 0.0) == pytest.approx(best, abs=ATOL)


def _check_u_kranks(name, relation, k, ties, result, opts):
    table = _positions_of(name)
    assert len(result.items) == min(k, relation.size)
    for item in result.items:
        column = [row[item.position] for row in table.values()]
        own = table[item.tid][item.position]
        assert item.statistic == pytest.approx(own, abs=ATOL)
        assert own == pytest.approx(max(column), abs=ATOL)


def _top_k_probabilities(name, k) -> dict[str, float]:
    return {
        tid: float(row[:k].sum()) for tid, row in _positions_of(name).items()
    }


def _check_pt_k(name, relation, k, ties, result, opts):
    truth = _top_k_probabilities(name, k)
    threshold = opts["threshold"]
    assert set(result.statistics) == set(truth)
    assert_statistics(result, truth)
    stats = result.statistics
    answer = set(result.tids())
    assert answer == {tid for tid, p in stats.items() if p >= threshold}
    assert {t for t, p in truth.items() if p >= threshold + ATOL} <= answer
    assert answer <= {t for t, p in truth.items() if p >= threshold - ATOL}
    got = [stats[tid] for tid in result.tids()]
    assert got == sorted(got, reverse=True)


def _check_global_topk(name, relation, k, ties, result, opts):
    truth = _top_k_probabilities(name, k)
    assert_statistics(result, truth)
    assert_top_k(result, truth, k, largest=True)


def _check_prf(name, relation, k, ties, result, opts):
    alpha = opts["alpha"]
    truth = {
        tid: float(np.dot(alpha ** np.arange(row.size), row))
        for tid, row in _positions_of(name).items()
    }
    assert_statistics(result, truth)
    assert_top_k(result, truth, k, largest=True)


def _check_expected_score(name, relation, k, ties, result, opts):
    if INPUTS[name][1] == "oracle":
        truth = _expected_scores_of(name)
    elif isinstance(relation, AttributeLevelRelation):
        truth = {
            row.tid: float(np.dot(row.score.values, row.score.probabilities))
            for row in relation
        }
    else:
        truth = {row.tid: row.probability * row.score for row in relation}
    assert_statistics(result, truth)
    assert_top_k(result, truth, k, largest=True)


def _check_probability_only(name, relation, k, ties, result, opts):
    truth = {
        tid: float(row.sum()) for tid, row in _positions_of(name).items()
    }
    assert_statistics(result, truth)
    assert_top_k(result, truth, k, largest=True)


def _check_monte_carlo(name, relation, k, ties, result, opts):
    """Sampled ranks sit inside the reported confidence band, and the
    answer is the top-k of the sampled ranks."""
    truth = _ranks_of(name, ties)
    band = result.metadata["half_width"]
    for tid, value in result.statistics.items():
        assert abs(value - truth[tid]) <= band, tid
    assert_top_k(result, dict(result.statistics), k)


# -- exact comparisons against repro.core.reference ----------------------
def _same_as_reference(result, expected, *, exact):
    assert result.tids() == expected.tids()
    assert result.metadata == expected.metadata
    assert list(result.statistics) == list(expected.statistics)
    if exact:
        assert result.method == expected.method
        assert list(result.statistics.items()) == list(
            expected.statistics.items()
        )
        assert [item.statistic for item in result] == [
            item.statistic for item in expected
        ]
    else:
        assert_statistics(result, dict(expected.statistics))


def _reference_expected_rank(relation, k, result, options):
    if isinstance(relation, TupleLevelRelation):
        expected = reference.t_erank(relation, k, **options)
        _same_as_reference(result, expected, exact=False)


def _reference_expected_rank_prune(relation, k, result, options):
    if isinstance(relation, AttributeLevelRelation):
        expected = reference.a_erank_prune(relation, k, **options)
        _same_as_reference(result, expected, exact=True)
    else:
        expected = reference.t_erank_prune(relation, k, **options)
        _same_as_reference(result, expected, exact=False)


def _reference_quantile_prune(relation, k, result, options):
    if isinstance(relation, AttributeLevelRelation):
        expected = reference.a_mqrank_prune(relation, k, **options)
        _same_as_reference(result, expected, exact=True)


@dataclass(frozen=True)
class Method:
    """One row of the method table."""

    name: str
    check: Callable
    options: dict = field(default_factory=dict)
    takes_ties: bool = True
    #: ``(relation, k, result, options)``: asserts the answer is
    #: the reference scan's, run under the same registry; on
    #: ``reference`` inputs only.
    reference: Callable | None = None
    #: Work grows exponentially in ``k`` (U-Topk's best-first search):
    #: ``k > N`` runs on ``oracle`` inputs only.
    exponential_in_k: bool = False

    @property
    def label(self) -> str:
        suffix = "".join(f"-{key}={v}" for key, v in self.options.items())
        return self.name + suffix


METHODS = (
    Method(
        "expected_rank",
        _check_expected_rank,
        reference=_reference_expected_rank,
    ),
    Method(
        "expected_rank_prune",
        _check_expected_rank_prune,
        reference=_reference_expected_rank_prune,
    ),
    Method("median_rank", _check_quantile),
    Method("quantile_rank", _check_quantile, {"phi": 0.25}),
    Method("quantile_rank", _check_quantile, {"phi": 0.75}),
    Method("quantile_rank", _check_quantile, {"phi": 1.0}),
    Method(
        "quantile_rank_prune",
        _check_quantile_prune,
        reference=_reference_quantile_prune,
    ),
    Method(
        "monte_carlo",
        _check_monte_carlo,
        {"rng": 7, "batch": 100, "max_samples": 200},
    ),
    Method(
        "u_topk",
        _check_u_topk,
        {"rng": 3, "samples": 200},
        takes_ties=False,
        exponential_in_k=True,
    ),
    Method("u_kranks", _check_u_kranks, takes_ties=False),
    Method("pt_k", _check_pt_k, {"threshold": 0.5}, takes_ties=False),
    Method("global_topk", _check_global_topk, takes_ties=False),
    Method("prf_exponential", _check_prf, {"alpha": 0.9}, takes_ties=False),
    Method("expected_score", _check_expected_score, takes_ties=False),
    Method("probability_only", _check_probability_only, takes_ties=False),
)


def _canonical(result) -> str:
    """``to_dict()`` JSON without the registry-only prune trajectory."""
    document = result.to_dict()
    document["metadata"].pop("prune_trajectory", None)
    return json.dumps(document)


def _cells():
    for name in INPUTS:
        for row in METHODS:
            for ties in TIES if row.takes_ties else (None,):
                label = f"{name}-{row.label}" + (f"-{ties}" if ties else "")
                yield pytest.param(name, row, ties, id=label)


@pytest.mark.parametrize("name, row, ties", _cells())
def test_cell(name, row, ties):
    relation = kept(name)
    options = dict(row.options)
    if ties is not None:
        options["ties"] = ties
    if not method_supports(row.name, relation):
        for version in (relation, fresh_copy(relation)):
            with pytest.raises(UnsupportedModelError):
                rank(version, 1, method=row.name, **options)
        return
    if ties is not None:
        # Warm the kept memo under the other tie rule first.
        other = TIES[1 - TIES.index(ties)]
        rank(relation, 1, method=row.name, **dict(options, ties=other))
    large = INPUTS[name][1] == "reference"
    for k in KS:
        if k == "over" and row.exponential_in_k and large:
            continue
        k = relation.size + 2 if k == "over" else k
        answers = {}
        for enabled in (False, True):
            with registry(enabled):
                for twin, version in (
                    ("kept", relation),
                    ("fresh", fresh_copy(relation)),
                ):
                    answers[twin, enabled] = rank(
                        version, k, method=row.name, **options
                    )
                if row.reference and large:
                    row.reference(
                        relation, k, answers["kept", enabled], options
                    )
        texts = {key: _canonical(answer) for key, answer in answers.items()}
        assert len(set(texts.values())) == 1, (k, texts)
        row.check(name, relation, k, ties, answers["kept", False], options)


def test_every_registered_method_has_a_row():
    assert {row.name for row in METHODS} == set(available_methods())


# ----------------------------------------------------------------------
# Theorems 1-2: the five properties on the production paths
# ----------------------------------------------------------------------
AUDITED = (
    ("expected_rank", {}),
    ("median_rank", {}),
    ("quantile_rank", {"phi": 0.25}),
    ("quantile_rank", {"phi": 0.75}),
)
AUDIT_INPUTS = ("a-uu-5", "a-zipf-5", "a-ties-6", "t-rules-6", "t-ties-7")


@pytest.mark.parametrize("ties", TIES)
@pytest.mark.parametrize(
    "method, options",
    AUDITED,
    ids=[name + "".join(f"-{v}" for v in o.values()) for name, o in AUDITED],
)
def test_expected_and_quantile_ranks_satisfy_every_property(
    method, options, ties
):
    invoke = functools.partial(rank, method=method, ties=ties, **options)
    relations = [INPUTS[name][0]() for name in AUDIT_INPUTS]
    audit = properties.audit_method(invoke, relations)
    failed = [str(check) for check in audit.values() if not check.holds]
    assert not failed
