"""E13 — Running-time comparison across ranking definitions.

Expected ranks are the cheapest of the probabilistic semantics: one
sorted pass.  The baselines built on conditional rank pmfs (U-kRanks,
PT-k, Global-Topk) pay a Poisson-binomial convolution per tuple
(``O(N M^2)`` total), and U-Topk pays a best-first search.  The
experiment prints the cost ladder and asserts the ordering the
complexity analysis predicts.
"""

from __future__ import annotations

import copy
import functools

from repro.bench import Table, measure_seconds, tuple_workload
from repro.core import rank

SIZES = (200, 400, 800)
K = 10

METHODS = [
    ("expected_rank", functools.partial(rank, method="expected_rank")),
    ("median_rank", functools.partial(rank, method="median_rank")),
    ("u_kranks", functools.partial(rank, method="u_kranks")),
    ("global_topk", functools.partial(rank, method="global_topk")),
    ("pt_k(0.3)", functools.partial(rank, method="pt_k", threshold=0.3)),
    ("u_topk", functools.partial(rank, method="u_topk")),
]


def test_cost_ladder(benchmark, record):
    table = Table(
        f"E13 — seconds per top-{K} query (tuple-level uu, "
        "probabilities in [0.5, 1])",
        ["N", *[name for name, _ in METHODS]],
    )
    times: dict[tuple[int, str], float] = {}
    for size in SIZES:
        relation = tuple_workload(
            "uu", size, probability_low=0.5, probability_high=1.0
        )
        row: list[object] = [size]
        for name, invoke in METHODS:
            # A new relation version per method: the rank tables are
            # memoized per version, so the methods after the first
            # would otherwise read the first one's table.
            seconds = measure_seconds(
                lambda version, invoke=invoke: invoke(version, K),
                repeats=1,
                setup=lambda relation=relation: copy.copy(relation),
            )
            times[(size, name)] = seconds
            row.append(seconds)
        table.add_row(row)
    table.add_note(
        "expected rank: one sorted pass; median/U-kRanks/PT-k/"
        "Global-Topk: O(N M^2) conditional pmfs; U-Topk: best-first "
        "search (fast at high membership probabilities)"
    )
    record("e13_baseline_costs", table)

    largest = SIZES[-1]
    # The paper's efficiency claim: expected ranks beat every
    # pmf-based baseline by a growing margin.
    for name in ("median_rank", "u_kranks", "global_topk", "pt_k(0.3)"):
        assert (
            times[(largest, "expected_rank")] < times[(largest, name)]
        ), name

    relation = tuple_workload(
        "uu", 400, probability_low=0.5, probability_high=1.0
    )
    benchmark(rank, relation, K)
