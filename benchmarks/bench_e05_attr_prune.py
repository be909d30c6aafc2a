"""E5 — A-ERank-Prune: tuples accessed against k, per distribution.

Reconstructs the pruning-power experiment: tuples are served in
decreasing expected-score order and the scan stops once the Markov
bounds certify the top-k.  The paper's shape: a small, k-dependent
prefix suffices; skewed (zipf) score distributions prune best because
the expected-score order separates tuples quickly, while flat uniform
scores are the hard case.

E5b times the production scan (one numpy seen-prefix scan over the
relation's columns) against the pair-at-a-time scalar scan of
``repro.core.reference``; the two must stop at the same tuple and give
the same answer.
"""

from __future__ import annotations

import pytest

from repro.bench import Table, attribute_workload, measure_seconds
from repro.core import a_erank_prune, reference

N = 2000
KS = (10, 20, 50, 100)
WORKLOADS = ("uu", "zipf", "norm")
SMOKE_N = 300


@pytest.mark.smoke
@pytest.mark.parametrize("ties", ["shared", "by_index"])
@pytest.mark.parametrize("code", ["uu", "zipf"])
def test_smoke_scan_matches_the_scalar_scan(code, ties):
    """CI perf-smoke slice: a shrunken E5b.  The production and
    reference scans stop at the same tuple with the same answer.  The
    ``record`` fixture is not used, so no table is rewritten."""
    relation = attribute_workload(code, SMOKE_N)
    production = a_erank_prune(relation, 10, ties=ties)
    scalar = reference.a_erank_prune(relation, 10, ties=ties)
    assert production.metadata == scalar.metadata
    assert production.tids() == scalar.tids()
    assert production.metadata["halted_early"]


def test_pruned_scan_stops_early(benchmark, record):
    table = Table(
        f"E5 — A-ERank-Prune tuples accessed (N={N}, s=5)",
        ["workload", *[f"k={k}" for k in KS]],
    )
    accessed: dict[str, list[int]] = {}
    for code in WORKLOADS:
        relation = attribute_workload(code, N)
        row = []
        for k in KS:
            result = a_erank_prune(relation, k)
            row.append(result.metadata["tuples_accessed"])
        accessed[code] = row
        table.add_row([code, *row])
    table.add_note(
        "paper shape: accessed prefix grows with k and never needs "
        "the full relation on skewed data"
    )
    record("e05_attr_prune", table)

    # Monotone in k for each workload (weakly).
    for code, row in accessed.items():
        assert row == sorted(row), (code, row)
    # Zipf (skewed) must prune much harder than uniform at small k.
    assert accessed["zipf"][0] < accessed["uu"][0]
    # Pruning must actually save accesses somewhere.
    assert min(accessed["zipf"]) < N

    relation = attribute_workload("zipf", N)
    benchmark.pedantic(
        a_erank_prune, args=(relation, 10), rounds=2, iterations=1
    )


def test_scan_matches_the_scalar_scan(record, benchmark):
    """The production scan reads exactly as many tuples as the scalar
    pairwise scan and answers the same, in a fraction of the time."""
    table = Table(
        f"E5b — scalar vs production A-ERank-Prune (k=10, N={N})",
        [
            "workload",
            "scalar accessed",
            "scalar (s)",
            "production accessed",
            "production (s)",
        ],
    )
    for code in WORKLOADS:
        relation = attribute_workload(code, N)
        scalar = reference.a_erank_prune(relation, 10)
        scalar_seconds = measure_seconds(
            lambda relation=relation: reference.a_erank_prune(relation, 10),
            repeats=1,
        )
        production = a_erank_prune(relation, 10)
        production_seconds = measure_seconds(
            lambda relation=relation: a_erank_prune(relation, 10),
            repeats=1,
        )
        assert production.metadata == scalar.metadata
        assert production.tids() == scalar.tids()
        table.add_row(
            [
                code,
                scalar.metadata["tuples_accessed"],
                scalar_seconds,
                production.metadata["tuples_accessed"],
                production_seconds,
            ]
        )
    table.add_note(
        "same stop point and answer; the production scan updates every "
        "seen tuple's bound with a few array operations per arrival"
    )
    record("e05_attr_prune", table)

    # On the uniform workload (long scans) the production scan must win.
    rows = {row[0]: row for row in table.rows}
    assert rows["uu"][4] < rows["uu"][2]

    relation = attribute_workload("uu", N)
    benchmark.pedantic(
        a_erank_prune, args=(relation, 10), rounds=1, iterations=1
    )
