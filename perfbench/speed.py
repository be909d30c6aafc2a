"""The machine's current speed, read by a fixed probe between steps.

On the reference machine (2 shared vCPUs) the same code slows by 30 %
to 3x for seconds at a time when neighbouring tenants load the cores,
so raw wall times of two identical runs can differ by more than any
regression worth catching.  A benchmark step (one operation, one
serve-tcp segment, one set-up) is therefore bracketed by two
:func:`probe` calls — a fixed pure-Python loop that does not allocate
containers (so it never triggers the program's garbage collector) —
and its end-to-end time is reported *scaled to reference speed*:

    scaled = raw * REFERENCE_SECONDS / mean(probe before, probe after)

that is, the time the step would take on a machine on which the probe
takes :data:`REFERENCE_SECONDS`.  A change to the program moves the
step and not the probe, so it shows in full; a slow spell of the
machine moves both and largely cancels.  Raw times are printed beside
the scaled ones.

Stdlib-only, like :mod:`stats`.
"""

from __future__ import annotations

import time

PROBE_ITERATIONS = 60_000
#: The probe's duration on a quiet reference machine; scaled times are
#: in seconds of a machine this fast.
REFERENCE_SECONDS = 0.004


def probe() -> float:
    """Seconds one fixed loop takes right now."""
    start = time.perf_counter()
    total = 0
    for index in range(PROBE_ITERATIONS):
        total += index * index % 7
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale of a step bracketed by probes ``before`` and ``after``."""
    return 2.0 * REFERENCE_SECONDS / (before + after)


def factors(probes: list[float]) -> list[float]:
    """Scales of consecutive steps, one probe between each two."""
    return [factor(a, b) for a, b in zip(probes, probes[1:])]
