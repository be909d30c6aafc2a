"""Golden answers of every rank-by-statistic method.

Each case runs one method on one small seeded relation and compares
the whole answer with ``tests/golden/answers.json``: the
``answer_digest`` and the full ``TopKResult.to_dict()`` rendering,
compared as JSON text, so the reported tuples, every statistic value,
the key order of the statistics and the metadata must all be
unchanged.  The matrix covers both uncertainty models where a method
supports them, both tie rules where a method takes ``ties``, ``k`` in
``{0, 1, 5, N + 3}``, seeded ``uu`` / ``zipf`` relations and one
relation whose tuples all have the same score.

The fixture records the answers of the code as it stood before the
top-k selection was shared by all methods.  Regenerate it only for an
intended change of answers::

    PYTHONPATH=src python tests/test_golden_answers.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.expected_score import expected_score
from repro.baselines.global_topk import global_topk
from repro.baselines.probability_only import probability_only
from repro.baselines.pt_k import pt_k, pt_k_scan
from repro.bench.workloads import attribute_workload, tuple_workload
from repro.core.attr_expected_rank import a_erank, a_erank_prune
from repro.core.attr_mq_rank import a_mqrank, a_mqrank_prune
from repro.core.monte_carlo import mc_expected_rank
from repro.core.prf import exponential_weights, prf_rank
from repro.core.tuple_expected_rank import t_erank, t_erank_prune
from repro.core.tuple_mq_rank import t_mqrank, t_mqrank_prune
from repro.models import (
    AttributeLevelRelation,
    AttributeTuple,
    DiscretePDF,
    ExclusionRule,
    TupleLevelRelation,
    TupleLevelTuple,
)
from repro.obs import MetricsRegistry, NullSink, set_registry, set_sink
from repro.obs.capture import answer_digest

FIXTURE = Path(__file__).parent / "golden" / "answers.json"

SIZE = 12
KS = (0, 1, 5, SIZE + 3)
TIES = ("shared", "by_index")


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


RELATIONS = {
    "attribute": {
        "uu": lambda: attribute_workload("uu", SIZE, pdf_size=3, seed=5),
        "zipf": lambda: attribute_workload(
            "zipf", SIZE, pdf_size=3, seed=6
        ),
        "equal": _equal_attribute,
    },
    "tuple": {
        "uu": lambda: tuple_workload("uu", SIZE, seed=5),
        "zipf": lambda: tuple_workload("zipf", SIZE, seed=6),
        "equal": _equal_tuple,
    },
}


def _prf(relation, k):
    return prf_rank(
        relation,
        k,
        exponential_weights(relation.size, 0.8),
        method_name="prf_exponential[0.8]",
    )


# (name, {model: function}, takes ties, extra keywords)
METHODS = [
    ("erank", {"attribute": a_erank, "tuple": t_erank}, True, {}),
    (
        "erank_prune",
        {"attribute": a_erank_prune, "tuple": t_erank_prune},
        True,
        {},
    ),
    ("median", {"attribute": a_mqrank, "tuple": t_mqrank}, True, {}),
    (
        "quantile75",
        {"attribute": a_mqrank, "tuple": t_mqrank},
        True,
        {"phi": 0.75},
    ),
    (
        "median_prune",
        {"attribute": a_mqrank_prune, "tuple": t_mqrank_prune},
        True,
        {"check_every": 4},
    ),
    (
        "expected_score",
        {"attribute": expected_score, "tuple": expected_score},
        False,
        {},
    ),
    ("probability_only", {"tuple": probability_only}, False, {}),
    (
        "global_topk",
        {"attribute": global_topk, "tuple": global_topk},
        False,
        {},
    ),
    ("pt_k", {"attribute": pt_k, "tuple": pt_k}, False, {"threshold": 0.3}),
    ("pt_k_scan", {"tuple": pt_k_scan}, False, {"threshold": 0.3}),
    ("prf_exponential", {"attribute": _prf, "tuple": _prf}, False, {}),
    (
        "monte_carlo",
        {"attribute": mc_expected_rank, "tuple": mc_expected_rank},
        True,
        {"batch": 40, "max_samples": 120, "rng": 17},
    ),
]

#: Pruned methods whose metadata gains the bound trajectory while the
#: metrics registry records; run once more with it on.
TRACED = ("erank_prune",)


def _cases() -> dict[str, tuple]:
    cases: dict[str, tuple] = {}
    for name, functions, takes_ties, extra in METHODS:
        for model, function in functions.items():
            for data in RELATIONS[model]:
                for ties in TIES if takes_ties else (None,):
                    for k in KS:
                        for traced in (False, True):
                            if traced and name not in TRACED:
                                continue
                            options = dict(extra)
                            if ties is not None:
                                options["ties"] = ties
                            parts = [name, model, data, ties, f"k={k}"]
                            if traced:
                                parts.append("traced")
                            case = "/".join(p for p in parts if p)
                            cases[case] = (
                                function, model, data, k, options, traced
                            )
    return cases


CASES = _cases()


def _answer(case: str) -> dict:
    function, model, data, k, options, traced = CASES[case]
    previous = set_registry(MetricsRegistry(enabled=traced))
    previous_sink = set_sink(NullSink())
    try:
        result = function(RELATIONS[model][data](), k, **options)
    finally:
        set_sink(previous_sink)
        set_registry(previous)
    return {"digest": answer_digest(result), "result": result.to_dict()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_answer_matches_golden(golden, case):
    expected = golden[case]
    actual = _answer(case)
    assert actual["digest"] == expected["digest"]
    assert json.dumps(actual["result"]) == json.dumps(expected["result"])


def _record() -> None:
    lines = [
        f"{json.dumps(case)}: {json.dumps(_answer(case))}"
        for case in sorted(CASES)
    ]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        "{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8"
    )


if __name__ == "__main__":
    _record()
