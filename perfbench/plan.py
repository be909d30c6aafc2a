"""Workload definitions and their seeded request lists.

Everything a run does is fixed here before any timing starts: which
relations exist (sizes and models), which queries run in which order,
and — for catalog-churn — every store update.  The same ``(seed,
seconds)`` always yields the same lists; the operation count comes
from ``seconds`` and a nominal per-operation cost, never from a clock,
so counted work cannot depend on how fast a run happens to be.

Query classes are grouped into latency *tiers* (classes whose
latencies overlap on the reference machine).  Tier shares are chosen
so that p50 and the reported tail percentile sit at least
:data:`MIN_MARGIN` points away from every boundary between tiers; a
percentile on a boundary jumps between two tiers' latencies from run
to run while throughput holds still.

This module is stdlib-only so the benchmark's self-tests can import it
without the package under test.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from stats import boundary_margin, tail_percentile

#: Minimum distance, in percentile points, between p50 / the tail
#: percentile and any tier boundary.
MIN_MARGIN = 5.0

#: serve-tcp units per connection between two speed probes.
SERVE_SEGMENT_UNITS = 8


def workers() -> int:
    """Worker threads of the serving workloads: the cores available."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Rel:
    """A generated relation: model, size, and its file stem."""

    name: str
    model: str  # "tuple" or "attribute"
    size: int


@dataclass(frozen=True)
class QueryClass:
    """One query class: relation, method, options and ``k``.

    ``k`` is the class's own for lib-scan / lib-dist; serve-tcp and
    catalog-churn assign ``k`` per request instead.
    """

    name: str
    relation: str
    method: str
    k: int
    share: float
    tier: int
    options: tuple[tuple[str, object], ...] = ()

    def options_dict(self) -> dict:
        return dict(self.options)


@dataclass(frozen=True)
class Workload:
    name: str
    relations: tuple[Rel, ...]
    classes: tuple[QueryClass, ...]
    #: Nominal cost of one operation (or one churn cycle) in seconds on
    #: the reference machine; sizes the fixed operation count.
    nominal_seconds: float

    def shares_by_tier(self) -> list[float]:
        tiers: dict[int, float] = {}
        for query in self.classes:
            tiers[query.tier] = tiers.get(query.tier, 0.0) + query.share
        return [tiers[tier] for tier in sorted(tiers)]


def _split_k(
    name: str,
    relation: str,
    method: str,
    ks: tuple[int, ...],
    share: float,
    tier: int,
    options: tuple = (),
) -> list[QueryClass]:
    """One class per ``k``, the share split evenly."""
    return [
        QueryClass(
            f"{name}_k{k}",
            relation,
            method,
            k,
            share / len(ks),
            tier,
            options,
        )
        for k in ks
    ]


#: Tiers: the pruned tuple scan (~7-10 ms), the full tuple scan
#: (~23-27 ms), and the attribute scans (~45-75 ms, overlapping).
_LIB_SCAN_CLASSES = (
    *_split_k("prune_t8k", "t8k", "expected_rank_prune", (10, 100), 0.30, 1),
    *_split_k("erank_t8k", "t8k", "expected_rank", (10, 100), 0.30, 2),
    *_split_k("erank_a2k", "a2k", "expected_rank", (10, 100), 0.25, 3),
    *_split_k("prune_a200", "a200", "expected_rank_prune", (10, 100), 0.15, 3),
)

_DIST_METHODS = (
    ("median", "median_rank", ()),
    ("q25", "quantile_rank", (("phi", 0.25),)),
    ("q75", "quantile_rank", (("phi", 0.75),)),
    ("ukranks", "u_kranks", ()),
    ("ptk", "pt_k", (("threshold", 0.3),)),
    ("globaltopk", "global_topk", ()),
    ("prf", "prf_exponential", (("alpha", 0.9),)),
)


def _lib_dist_classes() -> tuple[QueryClass, ...]:
    """7 semantics x 2 relations; ``k`` alternates 10/50 by class.

    Tiers: the positional baselines on tuple N=500 (~22-29 ms), every
    semantics on attribute N=150 (~36-42 ms), and the median/quantile
    sweeps on tuple N=500 (~44-55 ms).
    """
    classes = []
    for index, (short, method, options) in enumerate(_DIST_METHODS):
        mq = method in ("median_rank", "quantile_rank")
        classes.append(
            QueryClass(
                f"{short}_a150",
                "a150",
                method,
                (10, 50)[index % 2],
                0.40 / 7,
                2,
                options,
            )
        )
        classes.append(
            QueryClass(
                f"{short}_t500",
                "t500",
                method,
                (50, 10)[index % 2],
                0.35 / 3 if mq else 0.25 / 4,
                3 if mq else 1,
                options,
            )
        )
    return tuple(classes)


_SERVE_CLASSES = (
    QueryClass("probonly_t2k", "t2k", "probability_only", 0, 0.10, 1),
    QueryClass("escore_t2k", "t2k", "expected_score", 0, 0.20, 1),
    QueryClass("erank_t2k", "t2k", "expected_rank", 0, 0.35, 2),
    QueryClass("prune_t20k", "t20k", "expected_rank_prune", 0, 0.25, 3),
    QueryClass("erank_a2k", "a2k", "expected_rank", 0, 0.10, 3),
)

#: serve-tcp: connection 0 sends only odd k, connection 1 only even k,
#: so requests of different connections never share a coalescing key.
SERVE_KS = ((9, 11), (10, 12))
SERVE_GROUP_SHARE = 0.10
SERVE_GROUP_SIZE = 4
SERVE_TENANTS = 8

#: catalog-churn read classes, and the pairs one round may run.
_CHURN_CLASSES = (
    QueryClass("erank_static", "static", "expected_rank", 10, 1 / 3, 1),
    QueryClass("prune_live", "live", "expected_rank_prune", 10, 1 / 3, 2),
    QueryClass("erank_live", "live", "expected_rank", 10, 1 / 3, 3),
)
CHURN_PAIRS = (
    ("erank_live", "prune_live"),
    ("erank_live", "erank_static"),
    ("prune_live", "erank_static"),
)
CHURN_KS = (10, 100)
CHURN_UPDATES = (("insert", 10), ("delete", 7), ("update", 8))
CHURN_ROUNDS = 4

WORKLOADS = {
    "lib-scan": Workload(
        "lib-scan",
        (
            Rel("t8k", "tuple", 8_000),
            Rel("a2k", "attribute", 2_000),
            Rel("a200", "attribute", 200),
        ),
        _LIB_SCAN_CLASSES,
        0.033,
    ),
    "lib-dist": Workload(
        "lib-dist",
        (Rel("t500", "tuple", 500), Rel("a150", "attribute", 150)),
        _lib_dist_classes(),
        0.042,
    ),
    "serve-tcp": Workload(
        "serve-tcp",
        (
            Rel("t2k", "tuple", 2_000),
            Rel("t20k", "tuple", 20_000),
            Rel("a2k", "attribute", 2_000),
        ),
        _SERVE_CLASSES,
        1 / 90.0,
    ),
    "catalog-churn": Workload(
        "catalog-churn",
        (Rel("live", "tuple", 8_000), Rel("static", "tuple", 2_000)),
        _CHURN_CLASSES,
        0.37,
    ),
}


def data_seed(seed: int, relation_index: int) -> int:
    """The numpy seed of one generated relation."""
    return seed * 101 + relation_index


def _allocate(shares: list[float], total: int) -> list[int]:
    """Largest-remainder split of ``total`` by ``shares`` (exact)."""
    norm = sum(shares)
    raw = [share / norm * total for share in shares]
    counts = [int(value) for value in raw]
    order = sorted(
        range(len(raw)),
        key=lambda index: (-(raw[index] - counts[index]), index),
    )
    for index in order[: total - sum(counts)]:
        counts[index] += 1
    return counts


def operation_count(workload: Workload, seconds: float) -> int:
    """Operations (or churn cycles) in a run's timed pass."""
    return max(1, round(seconds / workload.nominal_seconds))


def lib_requests(
    workload: Workload, seed: int, seconds: float
) -> list[QueryClass]:
    """The closed-loop query list of lib-scan / lib-dist."""
    total = operation_count(workload, seconds)
    counts = _allocate([query.share for query in workload.classes], total)
    requests = [
        query
        for query, count in zip(workload.classes, counts)
        for _ in range(count)
    ]
    random.Random(f"{workload.name}:{seed}").shuffle(requests)
    return requests


@dataclass(frozen=True)
class ServeRequestSpec:
    op: int
    conn: int
    query: QueryClass
    k: int
    tenant: str

    def line(self) -> dict:
        payload = {
            "id": self.op,
            "relation": self.query.relation,
            "k": self.k,
            "method": self.query.method,
            "tenant": self.tenant,
            # Generous: no request may degrade for lack of time.
            "deadline_ms": 120_000,
        }
        if self.query.options:
            payload["options"] = self.query.options_dict()
        return payload


def serve_units(
    seed: int, seconds: float
) -> tuple[list[list[ServeRequestSpec]], list[list[ServeRequestSpec]]]:
    """Per-connection lists of units; a unit is sent in one write.

    Units are 1 request, or :data:`SERVE_GROUP_SIZE` identical
    requests (the coalescing groups).  Class shares are exact over
    units; each connection gets every other unit of every class so the
    two closed loops carry the same work.
    """
    workload = WORKLOADS["serve-tcp"]
    rng = random.Random(f"serve-tcp:{seed}")
    requests_target = operation_count(workload, seconds)
    per_unit = 1 + (SERVE_GROUP_SIZE - 1) * SERVE_GROUP_SHARE
    units_total = max(2, round(requests_target / per_unit))
    counts = _allocate(
        [query.share for query in workload.classes], units_total
    )
    groups_total = round(SERVE_GROUP_SHARE * units_total)
    per_conn: list[list[tuple[QueryClass, int, bool]]] = [[], []]
    for query, count in zip(workload.classes, counts):
        for index in range(count):
            conn = index % 2
            ks = SERVE_KS[conn]
            per_conn[conn].append((query, ks[(index // 2) % len(ks)], False))
    for conn, conn_units in enumerate(per_conn):
        rng.shuffle(conn_units)
        groups = (groups_total + 1 - conn) // 2
        for position in rng.sample(range(len(conn_units)), groups):
            query, k, _ = conn_units[position]
            conn_units[position] = (query, k, True)
    units: tuple[list, list] = ([], [])
    op = 0
    for conn in (0, 1):
        for query, k, grouped in per_conn[conn]:
            unit = []
            for _ in range(SERVE_GROUP_SIZE if grouped else 1):
                unit.append(
                    ServeRequestSpec(
                        op,
                        conn,
                        query,
                        k,
                        f"tenant{op % SERVE_TENANTS}",
                    )
                )
                op += 1
            units[conn].append(unit)
    return units


@dataclass(frozen=True)
class ChurnCycle:
    #: ("insert", tid, score, probability) / ("delete", tid) /
    #: ("update", tid, probability), in application order.
    updates: tuple[tuple, ...]
    #: Rounds of two concurrent reads: (class, k) pairs.
    rounds: tuple[tuple[tuple[QueryClass, int], ...], ...]


def churn_cycles(
    seed: int, seconds: float, free_tids: list[str]
) -> list[ChurnCycle]:
    """The whole catalog-churn script.

    ``free_tids`` are the live relation's tuples outside multi-member
    rules, in relation order; deletes and probability updates pick
    from them (and from earlier inserts), so no update can break a
    rule's mass bound and every update succeeds.
    """
    workload = WORKLOADS["catalog-churn"]
    rng = random.Random(f"catalog-churn:{seed}")
    cycles = operation_count(workload, seconds)
    by_name = {query.name: query for query in workload.classes}
    pair_counts = _allocate(
        [1.0] * len(CHURN_PAIRS), cycles * CHURN_ROUNDS
    )
    pairs = [
        pair
        for pair, count in zip(CHURN_PAIRS, pair_counts)
        for _ in range(count)
    ]
    rng.shuffle(pairs)
    candidates = list(free_tids)
    script = []
    read_index = 0
    for cycle in range(cycles):
        kinds = [kind for kind, count in CHURN_UPDATES for _ in range(count)]
        rng.shuffle(kinds)
        updates: list[tuple] = []
        for position, kind in enumerate(kinds):
            if kind == "insert":
                tid = f"c{cycle}n{position}"
                updates.append(
                    (
                        "insert",
                        tid,
                        rng.uniform(1.0, 1000.0),
                        rng.uniform(0.02, 1.0),
                    )
                )
                candidates.append(tid)
                continue
            index = rng.randrange(len(candidates))
            tid = candidates[index]
            if kind == "delete":
                candidates[index] = candidates[-1]
                candidates.pop()
                updates.append(("delete", tid))
            else:
                updates.append(("update", tid, rng.uniform(0.02, 1.0)))
        rounds = []
        for pair in pairs[cycle * CHURN_ROUNDS : (cycle + 1) * CHURN_ROUNDS]:
            reads = []
            for name in pair:
                reads.append(
                    (by_name[name], CHURN_KS[read_index % len(CHURN_KS)])
                )
                read_index += 1
            rounds.append(tuple(reads))
        script.append(ChurnCycle(tuple(updates), tuple(rounds)))
    return script


def check_margins(workload: Workload, operations: int) -> dict[str, float]:
    """Margins of p50 and the tail from tier boundaries (in points)."""
    shares = workload.shares_by_tier()
    tail = tail_percentile(operations)
    return {
        "p50": boundary_margin(shares, 50.0),
        f"p{tail:g}": boundary_margin(shares, tail),
    }
