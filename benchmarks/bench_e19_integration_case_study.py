"""E19 — Case study: the data-integration workload end to end.

The paper's Section 1 scenario, run for real: candidate record matches
with similarity-derived scores, confidence probabilities, and
per-entity exclusion rules.  The experiment reports (a) how much the
semantics disagree on a workload with genuine rule structure, and
(b) the full query pipeline cost — generate, diagnose, prune-scan,
drill into a rank distribution.
"""

from __future__ import annotations

import copy

from repro.bench import Table, measure_seconds
from repro.core import rank, t_erank, t_erank_prune
from repro.datagen import integration_matches
from repro.models.validation import diagnose

ENTITIES = 250
K = 10

METHODS = (
    ("expected_rank", {}),
    ("median_rank", {}),
    ("quantile_rank[.9]", {"phi": 0.9}),
    ("u_kranks", {}),
    ("global_topk", {}),
    ("expected_score", {}),
    ("probability_only", {}),
)


def _invoke(relation, name, options):
    method = name.split("[")[0]
    if method == "quantile_rank":
        return rank(relation, K, method="quantile_rank", **options)
    return rank(relation, K, method=method, **options)


def test_semantics_on_integration_workload(benchmark, record):
    relation = integration_matches(ENTITIES, seed=2024)
    reference = rank(relation, K).tids()

    table = Table(
        f"E19a — top-{K} agreement on the integration workload "
        f"(N={relation.size}, {ENTITIES} entities)",
        ["method", f"overlap with expected_rank top-{K}", "seconds"],
    )
    overlaps = {}
    for name, options in METHODS:
        # A new relation version per method, so no method reads a
        # rank table memoized by the one before it.
        seconds = measure_seconds(
            lambda version, name=name, options=options: _invoke(
                version, name, options
            ),
            repeats=1,
            setup=lambda: copy.copy(relation),
        )
        answer = _invoke(relation, name, options).tid_set()
        # U-kRanks may repeat tuples; compare distinct members against
        # the reference set.
        overlap = len(answer & set(reference)) / K
        overlaps[name] = overlap
        table.add_row([name, overlap, seconds])
    table.add_note(
        "rank-distribution statistics agree closely; score-blind and "
        "k-dependent definitions drift"
    )
    record("e19_integration_case_study", table)

    assert overlaps["expected_rank"] == 1.0
    assert overlaps["median_rank"] >= 0.5
    assert overlaps["probability_only"] <= overlaps["median_rank"]

    benchmark.pedantic(
        rank, args=(relation, K), rounds=3, iterations=1
    )


def test_pipeline_costs(record, benchmark):
    generate_seconds = measure_seconds(
        lambda: integration_matches(ENTITIES, seed=2024), repeats=1
    )
    relation = integration_matches(ENTITIES, seed=2024)
    diagnose_seconds = measure_seconds(
        lambda: diagnose(relation), repeats=1
    )
    exact_seconds = measure_seconds(
        lambda: t_erank(relation, K), repeats=3
    )
    pruned = t_erank_prune(relation, K)
    pruned_seconds = measure_seconds(
        lambda: t_erank_prune(relation, K), repeats=3
    )

    table = Table(
        "E19b — pipeline stage costs (seconds)",
        ["stage", "seconds", "notes"],
    )
    table.add_row(["generate workload", generate_seconds, ""])
    table.add_row(
        ["diagnose", diagnose_seconds,
         f"{len(diagnose(relation))} finding(s)"]
    )
    table.add_row(["exact T-ERank", exact_seconds, ""])
    table.add_row(
        [
            "T-ERank-Prune",
            pruned_seconds,
            f"{pruned.metadata['tuples_accessed']}/{relation.size} "
            "accessed",
        ]
    )
    record("e19_integration_case_study", table)

    assert pruned.tids() == t_erank(relation, K).tids()

    benchmark.pedantic(
        t_erank_prune, args=(relation, K), rounds=3, iterations=1
    )
