"""Machine-readable perf-smoke baseline: ``python -m repro.bench.baseline``.

Runs a fixed, seeded suite over the hot kernels and the pruning
algorithms and writes one JSON document with two kinds of metric:

* ``seconds`` — median wall-clock time of a kernel invocation on a
  fresh relation version, so the one-time column build is timed with
  the kernel (machine-dependent; compared with a generous tolerance);
* ``count``   — the paper's tuples-accessed cost metric for the
  pruning scans (deterministic given the seeded workloads; compared
  tightly).

The committed ``BENCH_baseline.json`` at the repository root is the
reference; CI regenerates a fresh run and gates on
:mod:`repro.bench.compare`:

    python -m repro.bench.baseline --out fresh.json
    python -m repro.bench.compare BENCH_baseline.json fresh.json

``--scale`` shrinks every workload proportionally (tests use tiny
scales), ``--repeats`` controls the timing median.
"""

from __future__ import annotations

import argparse
import copy
import json
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.bench.harness import measure_seconds
from repro.bench.workloads import attribute_workload, tuple_workload
from repro.core.attr_expected_rank import (
    a_erank_prune,
    attribute_expected_ranks,
    attribute_expected_ranks_vectorized,
)
from repro.core.attr_mq_rank import (
    a_mqrank_prune,
    attribute_rank_distributions,
)
from repro.core.tuple_expected_rank import (
    t_erank_prune,
    tuple_expected_ranks,
    tuple_expected_ranks_vectorized,
)
from repro.core.tuple_mq_rank import t_mqrank_prune, tuple_rank_distributions

__all__ = ["SCHEMA_VERSION", "SUITE_NAME", "run_suite", "write_baseline",
           "main"]

SCHEMA_VERSION = 1
SUITE_NAME = "repro-perf-smoke"


def _scaled(base: int, scale: float, *, floor: int = 8) -> int:
    return max(floor, int(base * scale))


@dataclass(frozen=True)
class Case:
    """One suite entry: a named measurement and how to take it."""

    name: str
    kind: str  # "seconds" | "count"
    run: Callable[[float, int], float]


def _timing(build, call) -> Callable[[float, int], float]:
    def run(scale: float, repeats: int) -> float:
        subject = build(scale)
        # A copy is a new relation version: its digest and columns are
        # not built yet, so every timed call pays for its own columns.
        return measure_seconds(
            call, repeats=repeats, warmup=1, setup=lambda: copy.copy(subject)
        )

    return run


def _access_count(build, call) -> Callable[[float, int], float]:
    def run(scale: float, repeats: int) -> float:
        subject = build(scale)
        result = call(subject)
        return float(result.metadata["tuples_accessed"])

    return run


SUITE: tuple[Case, ...] = (
    Case(
        "a_erank/uu/n=2000/seconds",
        "seconds",
        _timing(
            lambda scale: attribute_workload("uu", _scaled(2000, scale)),
            lambda relation: attribute_expected_ranks(relation),
        ),
    ),
    Case(
        "a_erank_vectorized/uu/n=8000/seconds",
        "seconds",
        _timing(
            lambda scale: attribute_workload("uu", _scaled(8000, scale)),
            lambda relation: attribute_expected_ranks_vectorized(relation),
        ),
    ),
    Case(
        "t_erank/uu/n=4000/seconds",
        "seconds",
        _timing(
            lambda scale: tuple_workload("uu", _scaled(4000, scale)),
            lambda relation: tuple_expected_ranks(relation),
        ),
    ),
    Case(
        "t_erank_vectorized/uu/n=8000/seconds",
        "seconds",
        _timing(
            lambda scale: tuple_workload("uu", _scaled(8000, scale)),
            lambda relation: tuple_expected_ranks_vectorized(relation),
        ),
    ),
    Case(
        "a_mqrank/uu/n=160/seconds",
        "seconds",
        _timing(
            lambda scale: attribute_workload(
                "uu", _scaled(160, scale), pdf_size=3
            ),
            lambda relation: attribute_rank_distributions(relation),
        ),
    ),
    Case(
        "t_mqrank/uu/n=200/seconds",
        "seconds",
        _timing(
            lambda scale: tuple_workload("uu", _scaled(200, scale)),
            lambda relation: tuple_rank_distributions(relation),
        ),
    ),
    Case(
        "a_mqrank_gf/uu/n=1000/seconds",
        "seconds",
        _timing(
            lambda scale: attribute_workload(
                "uu", _scaled(1000, scale), pdf_size=3
            ),
            lambda relation: attribute_rank_distributions(relation),
        ),
    ),
    Case(
        "t_mqrank_gf/uu/n=1000/seconds",
        "seconds",
        _timing(
            lambda scale: tuple_workload("uu", _scaled(1000, scale)),
            lambda relation: tuple_rank_distributions(relation),
        ),
    ),
    Case(
        "a_erank_prune/zipf/n=2000/k=10/tuples_accessed",
        "count",
        _access_count(
            lambda scale: attribute_workload("zipf", _scaled(2000, scale)),
            lambda relation: a_erank_prune(relation, 10),
        ),
    ),
    Case(
        "t_erank_prune/uu/n=4000/k=10/tuples_accessed",
        "count",
        _access_count(
            lambda scale: tuple_workload("uu", _scaled(4000, scale)),
            lambda relation: t_erank_prune(relation, 10),
        ),
    ),
    Case(
        "a_mqrank_prune/zipf/n=240/k=5/tuples_accessed",
        "count",
        _access_count(
            lambda scale: attribute_workload(
                "zipf", _scaled(240, scale), pdf_size=3
            ),
            lambda relation: a_mqrank_prune(relation, 5),
        ),
    ),
    Case(
        "t_mqrank_prune/uu/n=400/k=5/tuples_accessed",
        "count",
        _access_count(
            lambda scale: tuple_workload("uu", _scaled(400, scale)),
            lambda relation: t_mqrank_prune(relation, 5),
        ),
    ),
)


def run_suite(
    *,
    scale: float = 1.0,
    repeats: int = 3,
    names: set[str] | None = None,
    verbose: bool = False,
) -> dict:
    """Execute the suite; returns the baseline document as a dict.

    ``names`` restricts the run to a subset of case names (unknown
    names raise ``ValueError``); ``scale`` shrinks workload sizes.
    """
    if names is not None:
        known = {case.name for case in SUITE}
        unknown = names - known
        if unknown:
            raise ValueError(
                f"unknown case(s): {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
    metrics: dict[str, dict] = {}
    for case in SUITE:
        if names is not None and case.name not in names:
            continue
        value = case.run(scale, repeats)
        metrics[case.name] = {"kind": case.kind, "value": value}
        if verbose:
            print(f"  {case.name}: {value:.6g}", file=sys.stderr)
    return {
        "schema": SCHEMA_VERSION,
        "suite": SUITE_NAME,
        "scale": scale,
        "repeats": repeats,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "metrics": metrics,
    }


def write_baseline(document: dict, path: Path | str) -> None:
    """Pretty-print the baseline document to ``path``."""
    Path(path).write_text(json.dumps(document, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.baseline",
        description="Run the perf-smoke suite and write a JSON baseline.",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_baseline.json"),
        help="output file (default: BENCH_baseline.json)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload size multiplier (default 1.0)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repetitions per case (default 3)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-case progress on stderr",
    )
    args = parser.parse_args(argv)
    if args.scale <= 0:
        print(f"error: --scale must be > 0, got {args.scale}",
              file=sys.stderr)
        return 2
    if args.repeats < 1:
        print(f"error: --repeats must be >= 1, got {args.repeats}",
              file=sys.stderr)
        return 2
    document = run_suite(
        scale=args.scale, repeats=args.repeats, verbose=not args.quiet
    )
    write_baseline(document, args.out)
    print(f"wrote {len(document['metrics'])} metrics to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
