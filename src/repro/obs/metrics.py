"""Process-local metrics: counters, gauges, and histograms.

The registry is the single collection point for everything the library
observes about itself — event counts, span durations (recorded by
:mod:`repro.obs.trace`, the one wall timer), and the
paper's own cost metric, tuples accessed (Sections 5.2/6.2 motivate
pruning entirely through that count).  Two design rules keep it safe
to thread through the hot kernels:

* **Disabled means free.**  A disabled registry hands out shared no-op
  instruments and every recording helper checks ``registry.enabled``
  first, so the vectorized kernels pay at most one attribute load per
  *call* (never per tuple) when observability is off — which is the
  default.
* **Aggregates only.**  Histograms keep count/total/min/max plus a
  fixed set of log-spaced bucket counts rather than samples, so a
  million observations cost the same memory as one — while still
  supporting percentile estimates (p50/p95/p99) and the Prometheus
  ``_bucket`` exposition lines.

Enable collection explicitly (:func:`MetricsRegistry.enable`, the CLI
``--metrics-out`` flag) or ambiently via the ``REPRO_METRICS=1``
environment variable.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Mapping, Sequence

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_LABEL_CARDINALITY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "count",
    "get_registry",
    "metrics_enabled",
    "set_registry",
]

#: Distinct label sets one metric name may hold before further sets
#: are dropped (and counted in ``obs.dropped_labels``).  Tenant ids
#: arrive from the wire; without a cap a hostile workload could mint
#: one instrument per request and grow the registry without bound.
DEFAULT_LABEL_CARDINALITY = 64

#: Canonical form of a label mapping: sorted, hashable, immutable.
Labels = tuple[tuple[str, str], ...]


def _canonical_labels(labels: Mapping[str, str] | None) -> Labels:
    if not labels:
        return ()
    return tuple(
        (str(key), str(value))
        for key, value in sorted(labels.items())
    )


def _instrument_key(name: str, labels: Labels) -> str:
    """The registry key: ``name`` alone, or ``name{k="v",...}``."""
    if not labels:
        return name
    rendered = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{rendered}}}"

#: Default histogram bucket upper bounds: doubling steps from 1 µs to
#: ~67 s (27 finite buckets plus the implicit overflow bucket).  Every
#: histogram this library records is a wall-clock duration in seconds,
#: so a fixed log-spaced ladder makes percentiles exact-enough (at
#: most one doubling of error) without storing samples.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    1e-6 * 2.0**exponent for exponent in range(27)
)


class Counter:
    """A monotonically adjusted total (use :meth:`reset` to zero it)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (default 1) to the running total."""
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = None


class Histogram:
    """Aggregate distribution summary with fixed log-spaced buckets.

    Keeps count/total/min/max plus one integer per bucket — never the
    samples themselves — so memory is constant and ``observe`` is a
    handful of compares plus one binary search.  Bucket ``i`` counts
    samples with ``value <= buckets[i]`` (Prometheus ``le``
    semantics); one extra overflow bucket catches everything above the
    last bound.  :meth:`quantile` interpolates within the landing
    bucket and clamps to the observed ``[min, max]``, so percentile
    estimates are off by at most one bucket width.

    Via ``observe``'s ``exemplar`` keyword a sample can carry a tiny
    label set (typically ``{"trace_id": ...}``), remembered per
    landing bucket, last-write-wins.  The OpenMetrics export renders
    exemplars after their ``_bucket`` lines — that is how a latency
    histogram on a dashboard links straight to a recent concrete
    trace.  Exemplars cost one dict entry per bucket at most, and
    nothing at all when never provided.
    """

    __slots__ = (
        "name",
        "labels",
        "count",
        "total",
        "min",
        "max",
        "buckets",
        "_bucket_counts",
        "_exemplars",
    )

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] | None = None,
        labels: Labels = (),
    ) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: tuple[float, ...] = (
            DEFAULT_BUCKETS
            if buckets is None
            else tuple(sorted(buckets))
        )
        self._bucket_counts = [0] * (len(self.buckets) + 1)
        self._exemplars: dict[int, tuple[Labels, float]] = {}

    def observe(
        self,
        value: float,
        *,
        exemplar: Mapping[str, str] | None = None,
    ) -> None:
        """Record one sample, optionally tagged with an exemplar."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bisect_left(self.buckets, value)
        self._bucket_counts[index] += 1
        if exemplar:
            self._exemplars[index] = (
                _canonical_labels(exemplar),
                value,
            )

    def exemplars(self) -> dict[int, tuple[Labels, float]]:
        """Per-bucket-index ``(labels, value)`` exemplars recorded."""
        return dict(self._exemplars)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style.

        The last pair's bound is ``inf`` and its count equals
        :attr:`count` — exactly the ``le="+Inf"`` exposition line.
        """
        pairs: list[tuple[float, int]] = []
        cumulative = 0
        for bound, bucket_count in zip(
            self.buckets, self._bucket_counts
        ):
            cumulative += bucket_count
            pairs.append((bound, cumulative))
        pairs.append((float("inf"), self.count))
        return pairs

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Linear interpolation within the landing bucket (uniform
        assumption), clamped to the observed extremes; an empty
        histogram answers 0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, in_bucket in enumerate(self._bucket_counts):
            if not in_bucket:
                continue
            previous = cumulative
            cumulative += in_bucket
            if cumulative >= target:
                lower = self.buckets[index - 1] if index else 0.0
                upper = (
                    self.buckets[index]
                    if index < len(self.buckets)
                    else self.max
                )
                fraction = (target - previous) / in_bucket
                estimate = lower + (upper - lower) * min(
                    1.0, max(0.0, fraction)
                )
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - defensive

    def percentiles(self) -> dict[str, float]:
        """The conventional p50/p95/p99 trio, from the buckets."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._bucket_counts = [0] * (len(self.buckets) + 1)
        self._exemplars.clear()

    def summary(self) -> dict[str, float]:
        """The aggregates as a plain dict (empty histogram -> zeros)."""
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            **self.percentiles(),
        }


class _NullCounter:
    """Shared do-nothing counter handed out by a disabled registry."""

    __slots__ = ()
    name = "<disabled>"
    labels: tuple = ()
    value = 0

    def inc(self, amount: float = 1) -> None:
        return None

    def reset(self) -> None:
        return None


class _NullGauge:
    __slots__ = ()
    name = "<disabled>"
    labels: tuple = ()
    value = None

    def set(self, value: float) -> None:
        return None

    def reset(self) -> None:
        return None


class _NullHistogram:
    __slots__ = ()
    name = "<disabled>"
    labels: tuple = ()
    count = 0
    total = 0.0
    min = 0.0
    max = 0.0
    mean = 0.0
    buckets: tuple[float, ...] = ()

    def observe(
        self,
        value: float,
        *,
        exemplar: Mapping[str, str] | None = None,
    ) -> None:
        return None

    def exemplars(self) -> dict:
        return {}

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        return [(float("inf"), 0)]

    def quantile(self, q: float) -> float:
        return 0.0

    def percentiles(self) -> dict[str, float]:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def reset(self) -> None:
        return None

    def summary(self) -> dict[str, float]:
        return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Create-or-get instruments by name; snapshot them as plain data.

    Instrument creation is locked (safe under threads); recording is a
    plain ``+=`` — the registry is process-local and best-effort by
    design, matching its benchmark/diagnostic purpose.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        label_cardinality: int = DEFAULT_LABEL_CARDINALITY,
    ) -> None:
        if label_cardinality < 1:
            raise ValueError(
                "label_cardinality must be >= 1, got "
                f"{label_cardinality!r}"
            )
        self.enabled = enabled
        self.label_cardinality = label_cardinality
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Distinct label sets seen per metric name, across kinds.
        self._label_sets: dict[str, set[Labels]] = {}
        self._help: dict[str, str] = {}

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` string to the metric called ``name``.

        The export escapes it per the exposition format; describing a
        metric never creates an instrument.
        """
        with self._lock:
            self._help[name] = help_text

    def help_texts(self) -> dict[str, str]:
        """All registered help strings, keyed by metric name."""
        with self._lock:
            return dict(self._help)

    def _admit_labels(self, name: str, labels: Labels) -> bool:
        """Whether this ``(name, labels)`` pair may create an instrument.

        Caps distinct label sets per metric name at
        :attr:`label_cardinality`; beyond it the observation is
        dropped and tallied in ``obs.dropped_labels`` so the loss is
        itself observable.  Must be called with the lock held.
        """
        seen = self._label_sets.setdefault(name, set())
        if labels in seen:
            return True
        if len(seen) >= self.label_cardinality:
            dropped = self._counters.get("obs.dropped_labels")
            if dropped is None:
                dropped = self._counters.setdefault(
                    "obs.dropped_labels", Counter("obs.dropped_labels")
                )
            dropped.inc()
            return False
        seen.add(labels)
        return True

    def counter(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
    ) -> Counter:
        """The counter called ``name`` (a shared no-op when disabled)."""
        if not self.enabled:
            return _NULL_COUNTER  # type: ignore[return-value]
        canonical = _canonical_labels(labels)
        key = _instrument_key(name, canonical)
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                if canonical and not self._admit_labels(
                    name, canonical
                ):
                    return _NULL_COUNTER  # type: ignore[return-value]
                instrument = self._counters.setdefault(
                    key, Counter(name, canonical)
                )
        return instrument

    def gauge(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
    ) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE  # type: ignore[return-value]
        canonical = _canonical_labels(labels)
        key = _instrument_key(name, canonical)
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                if canonical and not self._admit_labels(
                    name, canonical
                ):
                    return _NULL_GAUGE  # type: ignore[return-value]
                instrument = self._gauges.setdefault(
                    key, Gauge(name, canonical)
                )
        return instrument

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
    ) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM  # type: ignore[return-value]
        canonical = _canonical_labels(labels)
        key = _instrument_key(name, canonical)
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                if canonical and not self._admit_labels(
                    name, canonical
                ):
                    return _NULL_HISTOGRAM  # type: ignore[return-value]
                instrument = self._histograms.setdefault(
                    key, Histogram(name, labels=canonical)
                )
        return instrument

    def snapshot(self) -> dict[str, dict]:
        """All instruments as one JSON-serialisable dict."""
        with self._lock:
            return {
                "counters": {
                    name: instrument.value
                    for name, instrument in sorted(self._counters.items())
                },
                "gauges": {
                    name: instrument.value
                    for name, instrument in sorted(self._gauges.items())
                },
                "histograms": {
                    name: instrument.summary()
                    for name, instrument in sorted(
                        self._histograms.items()
                    )
                },
            }

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format.

        Delegates to :func:`repro.obs.export.to_prometheus`; see that
        module for the naming and formatting contract.
        """
        from repro.obs.export import to_prometheus

        return to_prometheus(self)

    def reset(self) -> None:
        """Zero every instrument (names and identities survive)."""
        with self._lock:
            for counter in self._counters.values():
                counter.reset()
            for gauge in self._gauges.values():
                gauge.reset()
            for histogram in self._histograms.values():
                histogram.reset()


_registry = MetricsRegistry(
    enabled=bool(os.environ.get("REPRO_METRICS"))
)


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous


def metrics_enabled() -> bool:
    """Whether the default registry is currently recording."""
    return _registry.enabled


def count(
    name: str,
    amount: float = 1,
    labels: Mapping[str, str] | None = None,
) -> None:
    """Add to a default-registry counter; free when disabled."""
    registry = _registry
    if registry.enabled:
        registry.counter(name, labels).inc(amount)
