"""E15 — Ablations of the pruning design choices (DESIGN.md call-outs).

Three knobs the reconstruction had to choose; each is ablated to show
the choice is load-bearing:

* **Tight vs Markov-only quantile upper bounds** (A-MQRank-Prune).
  The conditional Poisson-binomial + Binomial-tail construction is
  what lets the scan halt on flat data; pure Markov bounds rarely do.
* **Halting-check cadence** (``check_every``).  Checks cost
  ``O(n^2)``; checking every tuple minimises accesses but burns time,
  while sparse checks overshoot the minimal prefix — the table
  quantifies the trade.
* **Score skew** interacts with both: skewed inputs halt earlier
  under every configuration.
"""

from __future__ import annotations

import copy

from repro.bench import Table, attribute_workload, measure_seconds
from repro.core import a_mqrank, a_mqrank_prune

N = 200
K = 5


def test_tight_bounds_are_load_bearing(benchmark, record):
    table = Table(
        f"E15a — A-MQRank-Prune upper-bound ablation (N={N}, k={K})",
        ["workload", "bounds", "accessed", "halted early"],
    )
    accessed = {}
    for code in ("uu", "zipf"):
        relation = attribute_workload(code, N, pdf_size=3)
        for tight in (True, False):
            result = a_mqrank_prune(
                relation, K, check_every=16, tight_bounds=tight
            )
            label = "tight (PB+Binomial)" if tight else "Markov only"
            accessed[(code, tight)] = result.metadata[
                "tuples_accessed"
            ]
            table.add_row(
                [
                    code,
                    label,
                    result.metadata["tuples_accessed"],
                    result.metadata["halted_early"],
                ]
            )
    table.add_note(
        "tight bounds never access more and win outright on flat (uu) "
        "data, where pure Markov caps are loosest"
    )
    record("e15_ablations", table)

    for code in ("uu", "zipf"):
        assert accessed[(code, True)] <= accessed[(code, False)]
    assert accessed[("uu", True)] < accessed[("uu", False)]

    relation = attribute_workload("zipf", N, pdf_size=3)
    benchmark.pedantic(
        a_mqrank_prune,
        args=(relation, K),
        kwargs={"check_every": 16},
        rounds=1,
        iterations=1,
    )


def test_check_cadence_tradeoff(record, benchmark):
    relation = attribute_workload("zipf", N, pdf_size=3)
    exact_seconds = measure_seconds(
        lambda version: a_mqrank(version, K),
        repeats=1,
        setup=lambda: copy.copy(relation),
    )
    table = Table(
        f"E15b — halting-check cadence (zipf, N={N}, k={K}); "
        f"exact pass: {exact_seconds:.3f}s",
        ["check_every", "accessed", "seconds"],
    )
    accessed = []
    for cadence in (4, 16, 64):
        result = a_mqrank_prune(relation, K, check_every=cadence)
        seconds = measure_seconds(
            lambda version, cadence=cadence: a_mqrank_prune(
                version, K, check_every=cadence
            ),
            repeats=1,
            setup=lambda: copy.copy(relation),
        )
        accessed.append(result.metadata["tuples_accessed"])
        table.add_row([cadence, accessed[-1], seconds])
    table.add_note(
        "denser checks shave accesses at extra bound-computation cost; "
        "every configuration beats recomputing the exact DP"
    )
    record("e15_ablations", table)

    # Sparser checks can only overshoot the minimal prefix.
    assert accessed == sorted(accessed)

    benchmark.pedantic(
        a_mqrank_prune,
        args=(relation, K),
        kwargs={"check_every": 4},
        rounds=1,
        iterations=1,
    )
