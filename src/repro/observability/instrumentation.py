"""The ObservabilityHub: per-component metrics + flow tracing for a graph.

The hub is the single instrumentation point the
:class:`~repro.core.graph.ProcessingGraph` consults on its hot path.  It
is installed with ``graph.set_instrumentation(hub)`` (or, one level up,
``PerPos.enable_observability()``), and the graph composes
:meth:`ObservabilityHub.deliver_batch` into every route it memoizes;
while no hub is installed the graph pays exactly one ``is None`` check
per hand-off, which is what keeps the disabled default within the
overhead budget measured by ``benchmarks/bench_overhead_ablation.py``.
While one is installed, the graph calls :meth:`ObservabilityHub.dispatched`
once per hand-off, whatever the batch's size.

Per event the hub records:

* ``items_out{component=...}`` -- datums dispatched by a component;
* ``items_in{component=...}`` -- datums delivered into a component;
* ``items_dropped{component=...}`` / ``feature_drops{feature=...}`` --
  datums a Component Feature vetoed;
* ``errors{component=...}`` -- exceptions escaping ``receive``;
* ``hop_latency_s{component=...}`` -- processing time per delivery;
* ``graph_components`` / ``graph_connections`` /
  ``graph_topology_version`` gauges on topology change, and the
  compiled-plan gauges.

The hub instruments only the graph it is installed on (plus the
scenario and control hooks their callers hand it).  Every other count
has one owner that keeps it and shows it in its own snapshot: lane
queues and the engine (offers, depths, drops, scheduler rounds), the
gateway and its adapters (accepted / rejected / shed / rate-limited /
replayed), the dead-letter queue, the durability manager and each
channel (feature errors).  Nothing copies those counts in here, so the
registry's size follows the graph, not the number of devices seen.

With ``tracing=True`` (the default) the hub also maintains flow traces:
each dispatched datum carries a :class:`~repro.observability.tracing
.FlowTrace` extended with the producing component.  Because delivery is
synchronous, the hub keeps a stack of "the trace of the datum currently
being processed"; whatever a component produces while processing input X
inherits X's trace.  Datums produced outside any delivery (sources, clock
callbacks) start fresh traces.

Two feature-mechanism entry points complete the surface:
:class:`TracingFeature` (a Component Feature logging a component's
in/out events) and :class:`ChannelTracingFeature` (a Channel Feature
collecting the flow traces behind a channel's outputs) -- observability
installable through the paper's own extension seams.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.channel import ChannelFeature
from repro.core.data import Datum
from repro.core.datatree import DataTree
from repro.core.features import ComponentFeature
from repro.core.subsystems import fmt
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import (
    FlowTrace,
    TraceHop,
    trace_of,
    with_trace,
)


class ObservabilityHub:
    """Records runtime behaviour of one processing graph.

    Parameters
    ----------
    registry:
        Metric store; a fresh :class:`MetricsRegistry` by default.
    time_fn:
        Clock for hop timestamps and latencies.  Inject
        ``lambda: clock.now`` for deterministic simulation-time traces
        (what :meth:`~repro.core.middleware.PerPos.enable_observability`
        does); defaults to the registry's ``time_fn``.
    tracing:
        Whether to attach/extend flow traces (costs one datum copy per
        hop); metrics are always recorded while the hub is installed.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        time_fn: Optional[Callable[[], float]] = None,
        tracing: bool = True,
    ) -> None:
        self.registry = registry or MetricsRegistry(time_fn=time_fn)
        self._time = time_fn or self.registry.time_fn
        self.tracing = tracing
        # Traces of datums currently being processed (delivery is
        # synchronous, so this is a proper nesting stack).
        self._context: List[Optional[FlowTrace]] = []
        # Per-component instrument memos: registry lookups build a
        # sorted label key per call, which is pure overhead on the
        # graph's per-datum hot path.  Instrument identity survives
        # ``registry.reset()``, so these never need invalidation.
        self._out_counters: Dict[str, Any] = {}
        self._in_instruments: Dict[str, Tuple[Any, Any, Any]] = {}
        # Scenario / closed-loop control memos (repro.scenario).
        self._scenario_gauges: Optional[Tuple[Any, Any, Any]] = None
        self._geofence_counters: Dict[str, Any] = {}
        self._controller_counters: Dict[Tuple[str, str], Any] = {}
        self._ledger_gauge: Any = None
        # Plan-compilation memo (graph compiler seam).
        self._plan_invalidation_counter: Any = None

    # -- graph hooks (hot path) --------------------------------------------

    def dispatched(self, producer: str, datums: List[Datum]) -> List[Datum]:
        """A component handed ``datums`` to the graph for routing.

        One call per hand-off: ``items_out`` advances by the batch's
        size, and while tracing each datum's trace is extended with the
        producing component (the returned list carries the traced
        copies; without tracing it is ``datums`` itself).
        """
        counter = self._out_counters.get(producer)
        if counter is None:
            counter = self._out_counters[producer] = self.registry.counter(
                "items_out", component=producer
            )
        counter.inc(len(datums))
        if not self.tracing:
            return datums
        time_fn = self._time
        parent = self._context[-1] if self._context else None
        traced: List[Datum] = []
        for datum in datums:
            hop = TraceHop(producer, time_fn(), datum.kind)
            trace = (
                parent.extended(hop)
                if parent is not None
                else FlowTrace((hop,))
            )
            traced.append(with_trace(datum, trace))
        return traced

    def _delivery_instruments(self, name: str) -> Tuple[Any, Any, Any]:
        """``(items_in, errors, hop_latency_s)`` for one consumer."""
        instruments = self._in_instruments.get(name)
        if instruments is None:
            registry = self.registry
            instruments = self._in_instruments[name] = (
                registry.counter("items_in", component=name),
                registry.counter("errors", component=name),
                registry.histogram("hop_latency_s", component=name),
            )
        return instruments

    def deliver(self, consumer: Any, port: str, datum: Datum) -> None:
        """Deliver ``datum`` into ``consumer`` under instrumentation.

        The per-datum step behind :meth:`deliver_batch` while tracing
        (each datum's trace becomes the context its outputs inherit)
        and inside a supervised delivery.
        """
        items_in, errors, latency = self._delivery_instruments(consumer.name)
        items_in.inc()
        self._context.append(trace_of(datum) if self.tracing else None)
        start = self._time()
        try:
            consumer.receive(port, datum)
        except Exception:
            errors.inc()
            raise
        finally:
            self._context.pop()
            latency.observe(self._time() - start)

    def deliver_batch(
        self, consumer: Any, port: str, datums: List[Datum]
    ) -> None:
        """Deliver a batch into ``consumer`` under instrumentation.

        The graph composes this as a consumer's delivery while a hub is
        installed; a produced datum arrives as a batch of one.  With
        tracing enabled this falls back to per-datum :meth:`deliver` so
        every datum keeps its own trace context -- batching must never
        coarsen flow traces.  With tracing off the whole batch crosses
        ``consumer.receive_batch`` in one call: ``items_in`` still
        counts every datum, while ``hop_latency_s`` records one
        observation for the whole batch (per-datum hop times are
        meaningless inside a fused batch).
        """
        if self.tracing:
            deliver = self.deliver
            for datum in datums:
                deliver(consumer, port, datum)
            return
        items_in, errors, latency = self._delivery_instruments(consumer.name)
        items_in.inc(len(datums))
        start = self._time()
        try:
            consumer.receive_batch(port, datums)
        except Exception:
            errors.inc()
            raise
        finally:
            latency.observe(self._time() - start)

    # -- scenario + closed-loop control (repro.scenario) --------------------

    def scenario_tick(self, devices: int, events: int) -> None:
        """One simulated city tick: population size and emissions."""
        gauges = self._scenario_gauges
        if gauges is None:
            registry = self.registry
            gauges = self._scenario_gauges = (
                registry.gauge("scenario_devices"),
                registry.counter("scenario_ticks"),
                registry.counter("scenario_events"),
            )
        gauges[0].set(devices)
        gauges[1].inc()
        if events:
            gauges[2].inc(events)

    def geofence_alert(self, rule: str) -> None:
        """One geofence rule raised an alert on the live stream."""
        counters = self._geofence_counters
        counter = counters.get(rule)
        if counter is None:
            counter = counters[rule] = self.registry.counter(
                "geofence_alerts", rule=rule
            )
        counter.inc()

    def controller_decision(self, controller: str, action: str) -> None:
        """One closed-loop controller actuated an adaptation seam."""
        counters = self._controller_counters
        counter = counters.get((controller, action))
        if counter is None:
            counter = counters[(controller, action)] = self.registry.counter(
                "controller_decisions", controller=controller, action=action
            )
        counter.inc()

    def control_ledger_depth(self, depth: int) -> None:
        """Current depth of the bounded controller decision ledger."""
        gauge = self._ledger_gauge
        if gauge is None:
            gauge = self._ledger_gauge = self.registry.gauge(
                "control_ledger_depth"
            )
        gauge.set(depth)

    def datum_dropped(
        self, component: Any, port: str, datum: Datum, feature_name: str
    ) -> None:
        """A Component Feature vetoed a datum on its way in."""
        self.registry.counter(
            "items_dropped", component=component.name
        ).inc()
        self.registry.counter(
            "feature_drops", feature=feature_name
        ).inc()

    def topology_changed(
        self,
        n_components: int,
        n_connections: int,
        version: Optional[int] = None,
    ) -> None:
        self.registry.gauge("graph_components").set(n_components)
        self.registry.gauge("graph_connections").set(n_connections)
        if version is not None:
            self.registry.gauge("graph_topology_version").set(version)

    # -- plan compilation (graph compiler seam) -----------------------------

    def plan_invalidated(self) -> None:
        """The graph dropped its compiled dispatch plan."""
        counter = self._plan_invalidation_counter
        if counter is None:
            counter = self._plan_invalidation_counter = self.registry.counter(
                "graph_plan_invalidations"
            )
        counter.inc()

    def plan_compiled(self, n_chains: int, fused_components: int) -> None:
        """The graph (re)compiled its dispatch plan.

        ``graph_compiled_chains`` / ``graph_fused_components`` gauges
        describe the live plan; the companion
        ``graph_fused_dispatches`` counter is advanced by the fused
        chains themselves as they execute.
        """
        self.registry.gauge("graph_compiled_chains").set(n_chains)
        self.registry.gauge("graph_fused_components").set(fused_components)

    # -- queries -----------------------------------------------------------

    def component_stats(
        self, name: Optional[str] = None
    ) -> Dict[str, Any]:
        """Per-component roll-up of every recorded series.

        With ``name`` the stats of one component; without, a mapping of
        component name to stats.  Latency appears as the histogram
        summary under ``"latency"``.
        """
        stats: Dict[str, Dict[str, Any]] = {}
        for kind, series, labels, instrument in self.registry.series():
            component = labels.get("component")
            if component is None:
                continue
            entry = stats.setdefault(component, {})
            if kind == "histogram" and series == "hop_latency_s":
                entry["latency"] = instrument.summary()
            elif kind == "counter":
                entry[series] = instrument.value
            elif kind == "gauge":
                entry[series] = instrument.value
        if name is not None:
            return stats.get(name, {})
        return stats

    def snapshot(self) -> Dict[str, Any]:
        """Full metrics dump plus the per-component roll-up."""
        return {
            "enabled": True,
            "tracing": self.tracing,
            "metrics": self.registry.snapshot(),
            "components": self.component_stats(),
        }

    def render(self, snapshot: Dict[str, Any]) -> List[str]:
        """The report's ``live metrics:`` lines for a :meth:`snapshot`."""
        lines: List[str] = []
        for name, stats in sorted(snapshot["components"].items()):
            parts = [
                f"in={stats.get('items_in', 0)}",
                f"out={stats.get('items_out', 0)}",
            ]
            if stats.get("items_dropped"):
                parts.append(f"dropped={stats['items_dropped']}")
            if stats.get("errors"):
                parts.append(f"errors={stats['errors']}")
            latency = stats.get("latency")
            if latency and latency["count"]:
                parts.append(f"mean_latency_s={fmt(latency['mean'])}")
            lines.append(f"  {name}: " + ", ".join(parts))
        return lines

    def reset(self) -> None:
        """Zero all metrics (traces on in-flight datums are untouched)."""
        self.registry.reset()


class TracingFeature(ComponentFeature):
    """A Component Feature logging its host's data events.

    Installable through the paper's per-component extension seam
    (:meth:`ProcessStructureLayer.attach_feature`), independent of any
    hub: it keeps a bounded in-memory event log -- ``(time, direction,
    kind, producer)`` -- and, when given a ``registry``, counts the
    events there too (``feature_events``); without one it counts
    nowhere.

    Its public methods (``events``, ``last_event``, ``clear``) surface
    through the component's reflective API like any feature methods.
    """

    name = "Tracing"

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        keep_last: int = 256,
        time_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__()
        self._registry = registry
        self._keep_last = keep_last
        self._time = time_fn
        self._events: List[Tuple[float, str, str, str]] = []

    def _record(self, direction: str, datum: Datum) -> None:
        if self._registry is not None:
            self._registry.counter(
                "feature_events",
                component=self.component.name,
                direction=direction,
            ).inc()
        stamp = self._time() if self._time is not None else datum.timestamp
        self._events.append((stamp, direction, datum.kind, datum.producer))
        if len(self._events) > self._keep_last:
            del self._events[: len(self._events) - self._keep_last]

    def consume(self, datum: Datum) -> Optional[Datum]:
        self._record("in", datum)
        return datum

    def produce(self, datum: Datum) -> Optional[Datum]:
        self._record("out", datum)
        return datum

    # -- reflective surface ------------------------------------------------

    def events(self) -> List[Tuple[float, str, str, str]]:
        """The logged ``(time, direction, kind, producer)`` events."""
        return list(self._events)

    def last_event(self) -> Optional[Tuple[float, str, str, str]]:
        return self._events[-1] if self._events else None

    def clear(self) -> None:
        self._events.clear()


class ChannelTracingFeature(ChannelFeature):
    """A Channel Feature collecting flow traces behind channel outputs.

    Every time the channel delivers an output whose datum carries a
    :class:`FlowTrace`, the trace is kept (bounded).  ``paths()`` then
    answers "which concrete component routes fed this channel lately" --
    the runtime complement of the channel's static member list.
    """

    name = "ChannelTracing"

    def __init__(self, keep_last: int = 64) -> None:
        super().__init__()
        self._keep_last = keep_last
        self._traces: List[FlowTrace] = []

    def apply(self, data_tree: DataTree) -> None:
        trace = trace_of(data_tree.root.datum)
        if trace is None:
            return
        self._traces.append(trace)
        if len(self._traces) > self._keep_last:
            del self._traces[: len(self._traces) - self._keep_last]

    # -- reflective surface ------------------------------------------------

    def traces(self) -> List[FlowTrace]:
        return list(self._traces)

    def last_trace(self) -> Optional[FlowTrace]:
        return self._traces[-1] if self._traces else None

    def paths(self) -> List[List[str]]:
        """Distinct component paths observed, in first-seen order."""
        seen: List[List[str]] = []
        for trace in self._traces:
            path = trace.path
            if path not in seen:
                seen.append(path)
        return seen
