"""The ObservabilityHub: per-component metrics + flow tracing for a graph.

The hub is the single instrumentation point the
:class:`~repro.core.graph.ProcessingGraph` consults on its hot path.  It
is installed with ``graph.set_instrumentation(hub)`` (or, one level up,
``PerPos.enable_observability()``), and the graph composes
:meth:`ObservabilityHub.deliver_batch` into every route it memoizes;
while no hub is installed the graph pays exactly one ``is None`` check
per produced datum, which is what keeps the disabled default within the
overhead budget measured by ``benchmarks/bench_overhead_ablation.py``.

Per event the hub records:

* ``items_out{component=...}`` -- datums dispatched by a component;
* ``items_in{component=...}`` -- datums delivered into a component;
* ``items_dropped{component=...}`` -- datums a Component Feature vetoed;
* ``errors{component=...}`` -- exceptions escaping ``receive``;
* ``hop_latency_s{component=...}`` -- processing time per delivery;
* ``graph_components`` / ``graph_connections`` /
  ``graph_topology_version`` gauges on topology change.

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
from repro.observability.metrics import (
    MetricsRegistry,
    default_registry,
)
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
        # Ingestion-side memos (scale-out runtime): per-(target, verdict)
        # offer counters and per-target depth/drop gauges.
        self._ingestion_counters: Dict[Tuple[str, str], Any] = {}
        self._ingestion_gauges: Dict[str, Tuple[Any, Any]] = {}
        # Gateway-edge memos: per-(adapter, outcome) counters plus the
        # dead-letter-queue gauge triple.
        self._gateway_counters: Dict[Tuple[str, str], Any] = {}
        self._dlq_gauges: Optional[Tuple[Any, Any, Any]] = None
        # Scenario / closed-loop control memos (repro.scenario).
        self._scenario_gauges: Optional[Tuple[Any, Any, Any]] = None
        self._geofence_counters: Dict[str, Any] = {}
        self._controller_counters: Dict[Tuple[str, str], Any] = {}
        self._ledger_gauge: Any = None
        # Plan-compilation memo (graph compiler seam).
        self._plan_invalidation_counter: Any = None

    # -- graph hooks (hot path) --------------------------------------------

    def datum_dispatched(self, producer: str, datum: Datum) -> Datum:
        """A component handed ``datum`` to the graph for routing."""
        counter = self._out_counters.get(producer)
        if counter is None:
            counter = self._out_counters[producer] = self.registry.counter(
                "items_out", component=producer
            )
        counter.inc()
        if self.tracing:
            hop = TraceHop(producer, self._time(), datum.kind)
            parent = self._context[-1] if self._context else None
            trace = (
                parent.extended(hop)
                if parent is not None
                else FlowTrace((hop,))
            )
            datum = with_trace(datum, trace)
        return datum

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

    # -- ingestion hooks (scale-out runtime) -------------------------------

    def ingestion_event(self, target: str, verdict: str) -> None:
        """One queue offer settled for ``target`` (accepted/dropped/...)."""
        counters = self._ingestion_counters
        counter = counters.get((target, verdict))
        if counter is None:
            counter = counters[(target, verdict)] = self.registry.counter(
                "queue_offers", target=target, verdict=verdict
            )
        counter.inc()

    def ingestion_depth(
        self, target: str, depth: int, dropped: int
    ) -> None:
        """Current queue depth and cumulative drops for ``target``."""
        gauges = self._ingestion_gauges
        pair = gauges.get(target)
        if pair is None:
            registry = self.registry
            pair = gauges[target] = (
                registry.gauge("queue_depth", target=target),
                registry.gauge("queue_dropped_total", target=target),
            )
        pair[0].set(depth)
        pair[1].set(dropped)

    def gateway_event(self, adapter: str, outcome: str) -> None:
        """One gateway pipeline verdict settled for ``adapter``.

        ``outcome`` is one of ``accepted`` / ``rejected`` / ``shed`` /
        ``replayed``; each becomes its own ``gateway_<outcome>`` counter
        labelled by adapter, which is how per-adapter accept/reject
        rates surface (ISSUE 8 instrument names).
        """
        counters = self._gateway_counters
        counter = counters.get((adapter, outcome))
        if counter is None:
            counter = counters[(adapter, outcome)] = self.registry.counter(
                f"gateway_{outcome}", adapter=adapter
            )
        counter.inc()

    def dlq_state(self, depth: int, replayed: int, exhausted: int) -> None:
        """Current dead-letter depth and cumulative replay outcomes."""
        gauges = self._dlq_gauges
        if gauges is None:
            registry = self.registry
            gauges = self._dlq_gauges = (
                registry.gauge("dlq_depth"),
                registry.gauge("dlq_replayed"),
                registry.gauge("dlq_exhausted"),
            )
        gauges[0].set(depth)
        gauges[1].set(replayed)
        gauges[2].set(exhausted)

    def scheduler_round(self, drained: int) -> None:
        """One scheduler round drained ``drained`` datums into the graph."""
        self.registry.counter("scheduler_rounds").inc()
        if drained:
            self.registry.counter("scheduler_drained").inc(drained)

    def durability_snapshot(self, n_bytes: int) -> None:
        """One full state snapshot persisted (``n_bytes`` serialized)."""
        self.registry.counter("durability_snapshots").inc()
        self.registry.gauge("snapshot_bytes").set(n_bytes)

    def durability_restore(self, replayed: int) -> None:
        """One crash-recovery restore replayed ``replayed`` journal entries."""
        self.registry.counter("durability_restores").inc()
        if replayed:
            self.registry.counter("restore_replayed").inc(replayed)

    def durability_migration(self, pause_s: float) -> None:
        """One warm lane handoff completed with ``pause_s`` of lane pause."""
        self.registry.counter("migrations_completed").inc()
        self.registry.histogram("handoff_pause_ticks").observe(pause_s)

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

    def channel_feature_error(self, channel_id: str, feature_name: str) -> None:
        """A Channel Feature's ``apply`` raised during output delivery."""
        self.registry.counter(
            "channel_feature_errors", channel=channel_id, feature=feature_name
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

    def reset(self) -> None:
        """Zero all metrics (traces on in-flight datums are untouched)."""
        self.registry.reset()


class TracingFeature(ComponentFeature):
    """A Component Feature logging its host's data events.

    Installable through the paper's per-component extension seam
    (:meth:`ProcessStructureLayer.attach_feature`), independent of any
    hub: it keeps a bounded in-memory event log -- ``(time, direction,
    kind, producer)`` -- and mirrors event counts into ``registry`` (the
    process-wide default registry unless one is given, so attaching it
    is free while observability is globally disabled).

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
        registry = (
            self._registry if self._registry is not None else default_registry()
        )
        registry.counter(
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
