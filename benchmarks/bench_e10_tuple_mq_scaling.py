"""E10 — T-MQRank running time against N and against the rule count M.

Section 7's tuple-level dynamic program costs ``O(N M^2)``: per tuple,
one Poisson-binomial over the M rules.  Two sweeps:

* N sweep with proportional M — expect roughly cubic growth overall;
* M sweep at fixed N (rule size up, M = N/size down) — expect the
  time to *fall* as rules get larger, the signature of the M^2 factor.

The shape tests time the DP, ``tuple_rank_distributions_dp`` —
``tuple_rank_distributions`` runs the ``O(N M)`` generating-function
sweep, whose speedup and parity the smoke test gates.
"""

from __future__ import annotations

import copy

import pytest

from repro.bench import (
    Table,
    growth_exponent,
    measure_seconds,
    tuple_workload,
)
from repro.core import (
    tuple_rank_distributions,
    tuple_rank_distributions_dp,
)

SIZES = (100, 200, 400)
RULE_SIZES = (2, 4, 8)
FIXED_N = 400

#: Smoke sizes: the legacy DP is measured at the small size and
#: extrapolated cubically (M grows with N here); the GF engine is
#: measured at the large one.
SMOKE_DP_N = 256
SMOKE_GF_N = 1024


@pytest.mark.smoke
def test_smoke_gf_speedup_and_parity():
    """CI perf-smoke slice: the generating-function engine's gate.

    Mirrors E9's gate in the tuple-level model: exact (1e-9) parity
    with the Section 7 DP at a size where the DP is affordable, and a
    >= 50x speedup at N >= 1000 against the DP's cubically
    extrapolated cost.  Ratios are machine-relative, so the gate is
    stable across runner speeds.
    """
    relation = tuple_workload("uu", SMOKE_DP_N)
    dp_seconds = measure_seconds(
        lambda: tuple_rank_distributions_dp(relation),
        repeats=1,
    )
    gf = tuple_rank_distributions(relation)
    dp = tuple_rank_distributions_dp(relation)
    assert all(gf[tid].allclose(dp[tid], atol=1e-9) for tid in dp)

    large = tuple_workload("uu", SMOKE_GF_N)
    # Each run gets a new relation version: a repeat on one object
    # would time the memoized table.
    gf_seconds = measure_seconds(
        tuple_rank_distributions,
        repeats=2,
        setup=lambda: copy.copy(large),
    )
    dp_estimate = dp_seconds * (SMOKE_GF_N / SMOKE_DP_N) ** 3
    assert dp_estimate / gf_seconds >= 50.0


def test_time_vs_n(benchmark, record):
    times = {}
    for size in SIZES:
        relation = tuple_workload("uu", size)
        times[size] = measure_seconds(
            lambda relation=relation: tuple_rank_distributions_dp(
                relation
            ),
            repeats=1,
        )
    table = Table(
        "E10a — T-MQRank time vs N (30% rules, M ~ 0.85 N)",
        ["N", "M", "seconds"],
    )
    for size in SIZES:
        table.add_row(
            [size, tuple_workload("uu", size).rule_count, times[size]]
        )
    exponent = growth_exponent(list(SIZES), [times[s] for s in SIZES])
    table.add_note(
        f"fitted exponent {exponent:.2f} (paper: O(N M^2) with M "
        "proportional to N here)"
    )
    record("e10_tuple_mq_scaling", table)
    assert exponent > 1.8

    relation = tuple_workload("uu", 200)
    benchmark.pedantic(
        tuple_rank_distributions_dp,
        args=(relation,),
        rounds=1,
        iterations=1,
    )


def test_time_vs_rule_count(record, benchmark):
    table = Table(
        f"E10b — T-MQRank time vs rule granularity (N={FIXED_N}, "
        "all tuples in rules)",
        ["rule size", "M", "seconds"],
    )
    times = []
    for rule_size in RULE_SIZES:
        relation = tuple_workload(
            "uu",
            FIXED_N,
            rule_fraction=1.0,
            rule_size=rule_size,
            probability_high=1.0 / rule_size,
        )
        seconds = measure_seconds(
            lambda relation=relation: tuple_rank_distributions_dp(
                relation
            ),
            repeats=1,
        )
        times.append(seconds)
        table.add_row([rule_size, relation.rule_count, seconds])
    table.add_note(
        "fewer, larger rules shrink M and the M^2 convolution cost"
    )
    record("e10_tuple_mq_scaling", table)

    # Time decreases as M shrinks (weakly, overhead aside).
    assert times[-1] < times[0]

    relation = tuple_workload(
        "uu", FIXED_N, rule_fraction=1.0, rule_size=4,
        probability_high=0.25,
    )
    benchmark.pedantic(
        tuple_rank_distributions_dp,
        args=(relation,),
        rounds=1,
        iterations=1,
    )
