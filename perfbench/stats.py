"""Pure helpers: percentiles, the tail choice, span self time.

Nothing here imports the package under test, so the benchmark's own
logic is unit-tested in isolation (``perfbench/tests``).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Candidate tail percentiles, highest first.  A workload reports the
#: first one with at least :data:`TAIL_BEYOND` samples strictly beyond
#: it, so the label is fixed by the workload's fixed operation count.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def _rank(count: int, percentile: float) -> int:
    """1-based nearest rank, in exact integer arithmetic (0.1 steps)."""
    tenths = round(percentile * 10)
    return max(1, -(-tenths * count // 1000))


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """The nearest-rank percentile of already-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(len(sorted_values), percentile) - 1]


def samples_beyond(count: int, percentile: float) -> int:
    """Samples strictly above the nearest-rank ``percentile``."""
    return count - _rank(count, percentile)


def tail_percentile(count: int, beyond: int = TAIL_BEYOND) -> float:
    """The highest candidate percentile with ``beyond`` samples past it.

    Raises when even the lowest candidate is too thin: a tail read off
    fewer samples is noise, not a tail.
    """
    for candidate in TAIL_CANDIDATES:
        if samples_beyond(count, candidate) >= beyond:
            return candidate
    raise ValueError(
        f"{count} samples leave fewer than {beyond} beyond "
        f"p{TAIL_CANDIDATES[-1]:g}"
    )


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    low = high = None
    for start, end in sorted(intervals):
        if high is None or start > high:
            if high is not None:
                total += high - low
            low, high = start, end
        elif end > high:
            high = end
    if high is not None:
        total += high - low
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval; overlapping
    children (concurrent work under one parent) count once.
    """
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
        if child_end > start and child_start < end
    ]
    return (end - start) - covered(clipped)


def class_boundaries(shares: Sequence[float]) -> list[float]:
    """Interior cumulative boundaries, in points, of ordered shares.

    ``shares`` are the fractions of operations per latency tier in
    ascending order of tier latency.  0 and 100 are omitted: they are
    not boundaries between two tiers.
    """
    total = float(sum(shares))
    edges = []
    running = 0.0
    for share in shares[:-1]:
        running += share
        edges.append(100.0 * running / total)
    return edges


def boundary_margin(shares: Sequence[float], percentile: float) -> float:
    """Distance in points from ``percentile`` to the nearest boundary."""
    edges = class_boundaries(shares)
    if not edges:
        return math.inf
    return min(abs(percentile - edge) for edge in edges)
