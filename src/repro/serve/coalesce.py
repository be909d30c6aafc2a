"""Request coalescing: identical in-flight queries run once.

A ranking query is a pure function of (dataset contents, ``k``,
method, options), and the capture layer already computes a stable
content digest per relation — so two requests with the same key can
share one kernel execution bit-for-bit.  The first arrival becomes the
**leader** and runs the query; arrivals while it is in flight become
**followers** and await the leader's outcome future.

Outcomes are stored as ``("ok", answer)`` / ``("error", error)``
tuples rather than via ``Future.set_exception`` — a future holding an
exception that no follower ever awaits would trigger Python's
"exception was never retrieved" warning; a tuple is inert.

Single-threaded by design: all methods must be called from the event
loop thread (the serving core's), so no locking is needed.
"""

from __future__ import annotations

import asyncio
import json
from typing import Mapping

from repro.obs import count

__all__ = ["RequestCoalescer", "coalesce_key"]


def coalesce_key(
    dataset_digest: str,
    k: int,
    method: str,
    options: Mapping[str, object],
) -> str:
    """The canonical identity of a query for coalescing purposes.

    Options are serialised as sorted-key JSON so dict ordering never
    splits identical queries; an option that does not serialise (an
    injected object, say) degrades to its ``repr`` via ``default=repr``
    — a safe over-approximation that can only *prevent* coalescing,
    never wrongly merge distinct queries with differing reprs.
    """
    canonical = json.dumps(
        dict(options), sort_keys=True, default=repr
    )
    return f"{dataset_digest}:{k}:{method}:{canonical}"


class RequestCoalescer:
    """In-flight deduplication keyed by :func:`coalesce_key`."""

    def __init__(self) -> None:
        self._inflight: dict[str, asyncio.Future] = {}

    @property
    def inflight(self) -> int:
        """Distinct query executions currently in flight."""
        return len(self._inflight)

    def join(self, key: str) -> tuple[bool, asyncio.Future]:
        """Attach to the in-flight execution of ``key``.

        Returns ``(is_leader, outcome_future)``.  The leader MUST
        eventually call :meth:`resolve` with the outcome tuple (the
        serving core does so in a ``finally``); followers only await
        the future.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            count("serve.coalesced")
            return False, existing
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[key] = future
        count("serve.coalesce.leaders")
        return True, future

    def resolve(self, key: str, outcome: tuple[str, object]) -> None:
        """Publish the leader's outcome and retire the key."""
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(outcome)

    def abandon_all(self) -> int:
        """Resolve every in-flight future as drained (for shutdown).

        Returns how many executions were abandoned.  Followers see a
        ``("drained", None)`` outcome and shed; this is the drain
        deadline's last resort, not the normal path.
        """
        abandoned = 0
        for key in list(self._inflight):
            future = self._inflight.pop(key)
            if not future.done():
                future.set_result(("drained", None))
                abandoned += 1
        return abandoned
