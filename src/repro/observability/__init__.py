"""Runtime observability: per-component metrics and flow tracing.

The paper's translucency stack reifies structure (PSL tree), channels
(PCL + data trees) and the provider surface; this package adds the
*runtime* rung -- what the process actually did.  Three modules:

* :mod:`repro.observability.metrics` -- counters, gauges, latency
  histograms; clock-injected, plus the cross-shard snapshot merges;
* :mod:`repro.observability.tracing` -- :class:`FlowTrace`, the ordered
  component path (with timestamps) a datum traversed, carried on the
  datum itself;
* :mod:`repro.observability.instrumentation` -- the
  :class:`ObservabilityHub` the processing graph consults, plus the
  :class:`TracingFeature` / :class:`ChannelTracingFeature` entry points
  through the paper's own Feature mechanism.

Enable per middleware with ``PerPos.enable_observability()``; everything
stays off (one ``is None`` check per event) by default.
"""

from repro.observability.instrumentation import (
    ChannelTracingFeature,
    ObservabilityHub,
    TracingFeature,
)
from repro.observability.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_component_stats,
    merge_histogram_summaries,
    merge_snapshots,
)
from repro.observability.tracing import (
    TRACE_ATTR,
    FlowTrace,
    TraceHop,
    trace_of,
    with_trace,
)

__all__ = [
    "ChannelTracingFeature",
    "ObservabilityHub",
    "TracingFeature",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_component_stats",
    "merge_histogram_summaries",
    "merge_snapshots",
    "TRACE_ATTR",
    "FlowTrace",
    "TraceHop",
    "trace_of",
    "with_trace",
]
