"""Metric instruments for the runtime observability layer.

The paper's translucency story (§1 R2, §2.1-2.3) reifies the *structure*
of the positioning process; this module reifies its *behaviour*: how many
data items each component consumed and produced, how long each hop took,
how often things failed.  Everything is pure stdlib and clock-injected --
a :class:`MetricsRegistry` built over the
:class:`~repro.clock.SimulationClock` records fully deterministic
latencies, which is what keeps the observability tests reproducible.

A :class:`MetricsRegistry` holds lazily-created counters, gauges and
histograms keyed by ``(name, labels)``.  There is no process-wide
registry: whatever records gets its registry handed to it (the hub
owns one per graph), and recording without one means not recording.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]
SeriesKey = Tuple[str, LabelKey]

#: Default latency bucket bounds (seconds): microseconds to ~1 minute.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6,
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
    60.0,
)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _series_name(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A value that can go up and down (e.g. current graph size)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """A latency/size distribution with fixed bucket bounds.

    Keeps count/sum/min/max plus cumulative bucket counts, which is
    enough for mean and coarse quantiles without storing samples.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bucket bound containing the q-quantile (0 < q <= 1)."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bound in enumerate(self.buckets):
            cumulative += self.bucket_counts[index]
            if cumulative >= target:
                return bound
        return self.max if self.max is not None else self.buckets[-1]

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Lazily-created, label-keyed metric instruments.

    ``time_fn`` is the injected clock that latency recorders built over
    this registry (the hub, unless given its own) read; pass
    ``lambda: clock.now`` to drive latencies from the simulation clock
    (deterministic) or leave the ``time.monotonic`` default for
    wall-clock measurement.
    """

    def __init__(self, time_fn: Optional[Callable[[], float]] = None) -> None:
        self.time_fn: Callable[[], float] = time_fn or time.monotonic
        self._counters: Dict[SeriesKey, Counter] = {}
        self._gauges: Dict[SeriesKey, Gauge] = {}
        self._histograms: Dict[SeriesKey, Histogram] = {}

    # -- instrument lookup -------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(buckets)
        return instrument

    # -- inspection --------------------------------------------------------

    def series(
        self,
    ) -> Iterator[Tuple[str, str, Dict[str, str], Any]]:
        """Yield ``(kind, name, labels, instrument)`` for every series."""
        for (name, labels), instrument in self._counters.items():
            yield "counter", name, dict(labels), instrument
        for (name, labels), instrument in self._gauges.items():
            yield "gauge", name, dict(labels), instrument
        for (name, labels), instrument in self._histograms.items():
            yield "histogram", name, dict(labels), instrument

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Point-in-time dump: ``{"counters": {...}, "gauges": ...}``."""
        return {
            "counters": {
                _series_name(name, labels): c.value
                for (name, labels), c in sorted(self._counters.items())
            },
            "gauges": {
                _series_name(name, labels): g.value
                for (name, labels), g in sorted(self._gauges.items())
            },
            "histograms": {
                _series_name(name, labels): h.summary()
                for (name, labels), h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Zero every instrument (series identities are kept)."""
        for group in (self._counters, self._gauges, self._histograms):
            for instrument in group.values():
                instrument.reset()

    def clear(self) -> None:
        """Drop every series entirely."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )


# -- cross-registry merging (sharded runtime) --------------------------------


def merge_histogram_summaries(
    summaries: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Combine :meth:`Histogram.summary` dicts from independent registries.

    Count and sum add exactly; min/max take the extremes; the merged
    mean is recomputed from the merged sum/count (never averaged from
    per-shard means, which would weight shards equally regardless of
    traffic).
    """
    count = sum(s.get("count", 0) for s in summaries)
    total = sum(s.get("sum", 0.0) for s in summaries)
    mins = [s["min"] for s in summaries if s.get("min") is not None]
    maxes = [s["max"] for s in summaries if s.get("max") is not None]
    return {
        "count": count,
        "sum": total,
        "min": min(mins) if mins else None,
        "max": max(maxes) if maxes else None,
        "mean": total / count if count else 0.0,
    }


def merge_snapshots(
    snapshots: List[Dict[str, Dict[str, Any]]],
) -> Dict[str, Dict[str, Any]]:
    """Merge :meth:`MetricsRegistry.snapshot` dumps from N registries.

    The sharded runtime gives every shard its own registry (workers may
    not even share an interpreter); this rolls their snapshots up into
    one surface with the same shape, so report/hub consumers are
    indifferent to sharding.  Counters and histograms merge losslessly.
    Gauges *sum*, which is correct for the additive gauges the runtime
    exports (queue depths, drop totals, graph sizes); order-sensitive
    gauges (e.g. ``graph_topology_version``) should be read per shard
    where the distinction matters.
    """
    counters: Dict[str, Any] = {}
    gauges: Dict[str, Any] = {}
    histograms: Dict[str, List[Dict[str, Any]]] = {}
    for snapshot in snapshots:
        for series, value in snapshot.get("counters", {}).items():
            counters[series] = counters.get(series, 0) + value
        for series, value in snapshot.get("gauges", {}).items():
            gauges[series] = gauges.get(series, 0) + value
        for series, summary in snapshot.get("histograms", {}).items():
            histograms.setdefault(series, []).append(summary)
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {
            series: merge_histogram_summaries(summaries)
            for series, summaries in sorted(histograms.items())
        },
    }


def merge_component_stats(
    stats_maps: List[Dict[str, Dict[str, Any]]],
) -> Dict[str, Dict[str, Any]]:
    """Merge :meth:`ObservabilityHub.component_stats` maps from N hubs.

    Each shard runs the same graph shape, so per-component series line
    up by name: numeric series (items_in/out, errors, drops) sum, and
    ``latency`` summaries merge via :func:`merge_histogram_summaries`.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    latencies: Dict[str, List[Dict[str, Any]]] = {}
    for stats in stats_maps:
        for component, entry in stats.items():
            slot = merged.setdefault(component, {})
            for series, value in entry.items():
                if series == "latency":
                    latencies.setdefault(component, []).append(value)
                elif isinstance(value, (int, float)):
                    slot[series] = slot.get(series, 0) + value
    for component, summaries in latencies.items():
        merged[component]["latency"] = merge_histogram_summaries(summaries)
    return merged
