"""The PerPos middleware facade.

Ties the pieces together the way the paper's platform does: one
processing graph exposed through the three abstraction layers (PSL, PCL,
Positioning), an OSGi-style framework in which the layers are registered
as services, a simulation clock, and sensor pumping that feeds
:class:`~repro.sensors.base.SimulatedSensor` readings into source
components.

Pipelines (which concrete components to chain for GPS, WiFi, ...) live in
:mod:`repro.processing.pipelines`; the facade stays policy-free.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.clock import SimulationClock
from repro.core.component import ApplicationSink, SourceComponent
from repro.core.data import Datum, Kind
from repro.core.graph import ProcessingGraph
from repro.core.pcl import ProcessChannelLayer
from repro.core.positioning import (
    Criteria,
    LocationProvider,
    PositioningLayer,
)
from repro.core.psl import ProcessStructureLayer
from repro.core.subsystems import (
    CONTROL,
    DURABILITY,
    GATEWAY,
    OBSERVABILITY,
    RUNTIME,
    SCENARIO,
    SHARDING,
    SUPERVISION,
    Section,
)
from repro.durability import DurabilityManager, MemoryStateStore, StateStore
from repro.gateway import IngestionGateway
from repro.observability.instrumentation import ObservabilityHub
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import FlowTrace, trace_of
from repro.robustness.supervision import SupervisionPolicy, Supervisor
from repro.runtime.engine import PositioningEngine
from repro.runtime.scheduler import FairScheduler
from repro.runtime.sharding import GraphRecipe, ShardedEngine
from repro.sensors.base import SensorReading, SimulatedSensor
from repro.services.bundle import Framework
from repro.services.registry import ServiceRegistration

#: Maps a SensorReading's declared format to a graph data kind.
DEFAULT_KIND_MAP: Dict[str, str] = {
    "nmea-raw": Kind.NMEA_RAW,
    "wifi-scan": Kind.WIFI_SCAN,
    "beacon-scan": Kind.BEACON_SCAN,
    "accel-variance": Kind.ACCEL_VARIANCE,
}

#: Why durability and sharding are never live together.
_DURABLE_SHARDS = (
    "durability with sharding is not supported: the durability manager"
    " journals only this graph's engine, so a restore would miss every"
    " shard lane"
)


class PerPos:
    """One middleware instance: graph + layers + clock + sensor pumping."""

    def __init__(self, clock: Optional[SimulationClock] = None) -> None:
        self.clock = clock or SimulationClock()
        self.framework = Framework()
        registry = self.framework.registry
        self.graph = ProcessingGraph()
        self.psl = ProcessStructureLayer(self.graph, registry)
        self.pcl = ProcessChannelLayer(self.graph)
        self.positioning = PositioningLayer()
        self._sensors: List[Tuple[SimulatedSensor, SourceComponent, Callable]] = []
        # Live registrations of the optional subsystems, by table row.
        self._registrations: Dict[Section, ServiceRegistration] = {}
        # The layers are themselves services, as in the OSGi realisation.
        registry.register("perpos.ProcessingGraph", self.graph)
        registry.register("perpos.ProcessStructureLayer", self.psl)
        registry.register("perpos.ProcessChannelLayer", self.pcl)
        registry.register("perpos.PositioningLayer", self.positioning)

    # -- optional subsystems -----------------------------------------------------
    # The registry is the one record of which subsystem is live, under the
    # interface its row in repro.core.subsystems names.  enable_X checks
    # preconditions, runs disable_X, builds and registers; whatever needs
    # a runtime (durability, the gateway feeding it) leaves with it.

    def _register(self, section: Section, service: Any) -> None:
        self._registrations[section] = self.framework.registry.register(
            section.interface, service
        )

    def _unregister(self, section: Section) -> Any:
        """Withdraw the live ``section`` subsystem; returns it (or None)."""
        registration = self._registrations.pop(section, None)
        if registration is None:
            return None
        service = self.framework.registry.get_service(registration.reference)
        registration.unregister()
        return service

    def _disable_gateway_of(self, engine: Any) -> None:
        """Disable the gateway feeding ``engine``, which is going away."""
        gateway = self.gateway
        if gateway is not None and gateway.engine is engine:
            self.disable_gateway()

    # -- observability -----------------------------------------------------------

    @property
    def observability(self) -> Optional[ObservabilityHub]:
        """The installed hub, or None while observability is disabled."""
        return self.graph.instrumentation

    def enable_observability(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        tracing: bool = True,
    ) -> ObservabilityHub:
        """Install runtime metrics + flow tracing on this middleware.

        The hub's clock is the middleware's simulation clock, so hop
        timestamps and latencies are deterministic.  Re-enabling
        replaces the previous hub; pass an explicit ``registry`` to keep
        accumulating into existing series.
        """
        self.disable_observability()
        hub = ObservabilityHub(
            registry=registry,
            time_fn=lambda: self.clock.now,
            tracing=tracing,
        )
        self.graph.set_instrumentation(hub)
        self._register(OBSERVABILITY, hub)
        return hub

    def disable_observability(self) -> Optional[ObservabilityHub]:
        """Remove the hub (recorded metrics stay readable on it)."""
        self._unregister(OBSERVABILITY)
        return self.graph.set_instrumentation(None)

    # -- supervision -------------------------------------------------------------

    @property
    def supervision(self) -> Optional[Supervisor]:
        """The installed supervisor, or None while supervision is off."""
        return self.graph.supervisor

    def enable_supervision(
        self, policy: Optional[SupervisionPolicy] = None
    ) -> Supervisor:
        """Install failure supervision on this middleware's graph.

        The supervisor's clock is the middleware's simulation clock, so
        sliding failure windows and half-open probe recovery are fully
        deterministic.  Re-enabling replaces the previous supervisor
        (and its failure history).
        """
        self.disable_supervision()
        supervisor = Supervisor(policy, time_fn=lambda: self.clock.now)
        self.graph.set_supervisor(supervisor)
        self._register(SUPERVISION, supervisor)
        return supervisor

    def disable_supervision(self) -> Optional[Supervisor]:
        """Remove the supervisor (its failure records stay readable)."""
        self._unregister(SUPERVISION)
        return self.graph.set_supervisor(None)

    # -- scale-out runtime -------------------------------------------------------

    @property
    def runtime(self) -> Optional[PositioningEngine]:
        """The installed engine, or None while the runtime is disabled."""
        return self.graph.engine

    def enable_runtime(
        self, scheduler: Optional[FairScheduler] = None
    ) -> PositioningEngine:
        """Install the multi-target scale-out runtime on this graph.

        The engine shares the middleware's simulation clock, so
        ``engine.start(interval)`` drain rounds interleave
        deterministically with sensor pumping.  Re-enabling replaces
        the previous engine (and discards its lanes), as
        :meth:`disable_runtime` followed by a fresh enable would.
        """
        self.disable_runtime()
        engine = PositioningEngine(
            self.graph, clock=self.clock, scheduler=scheduler
        )
        self._register(RUNTIME, engine)
        return engine

    def disable_runtime(self) -> Optional[PositioningEngine]:
        """Remove the engine (its lane statistics stay readable).

        A started engine is stopped first, so no drain rounds fire
        after the runtime is disabled.  The gateway feeding the engine
        and the durability manager journalling through it leave with it
        (the DLQ is persisted first; the store's contents stay
        readable).
        """
        engine = self.graph.engine
        self._disable_gateway_of(engine)
        self.disable_durability()
        self._unregister(RUNTIME)
        self.graph.set_engine(None)
        if engine is not None:
            engine.stop()
        return engine

    # -- sharded runtime ---------------------------------------------------------

    @property
    def sharding(self) -> Optional[ShardedEngine]:
        """The installed sharded engine, or None while sharding is off."""
        return SHARDING.live(self.framework.registry)

    def enable_sharding(
        self, recipe: GraphRecipe, shards: int, **kwargs: object
    ) -> ShardedEngine:
        """Install a sharded multi-worker runtime on this middleware.

        Unlike :meth:`enable_runtime` (which multiplexes targets over
        *this* middleware's graph), sharding partitions targets across
        ``shards`` private graphs each built from ``recipe``; the
        middleware's own graph keeps serving the single-process layers.
        The coordinator shares the middleware's simulation clock, so
        ``sharding.start(interval)`` drain rounds interleave
        deterministically with sensor pumping.  Keyword arguments pass
        through to :class:`~repro.runtime.sharding.ShardedEngine`
        (``placement``, ``executor``, ``scheduler``, ``observability``,
        ``supervision``, ...).  Re-enabling closes the previous
        coordinator first.  Raises while durability is enabled: the
        manager journals only this graph's engine, not the shard lanes.
        """
        if self.durability is not None:
            raise ValueError(_DURABLE_SHARDS)
        self.disable_sharding()
        engine = ShardedEngine(
            recipe,
            shards,
            clock=self.clock,
            **kwargs,  # type: ignore[arg-type]
        )
        self._register(SHARDING, engine)
        return engine

    def disable_sharding(self) -> Optional[ShardedEngine]:
        """Stop and close the sharded runtime, releasing its workers.

        Worker processes (multiprocessing executor) terminate, so live
        shard state becomes unreadable; the coordinator's own counters
        and failure records stay readable on the returned object.  The
        gateway feeding the coordinator leaves with it.
        """
        engine = self._unregister(SHARDING)
        if engine is not None:
            self._disable_gateway_of(engine)
            engine.close()
        return engine

    # -- ingestion gateway -------------------------------------------------------

    @property
    def gateway(self) -> Optional[IngestionGateway]:
        """The installed ingestion gateway, or None while the edge is off."""
        return GATEWAY.live(self.framework.registry)

    def enable_gateway(
        self,
        source: str,
        *,
        engine: Optional[object] = None,
        **kwargs: object,
    ) -> IngestionGateway:
        """Install the raw-payload ingestion edge on this middleware.

        ``source`` names the graph source component that auto-tracked
        device lanes enter at.  The gateway feeds whichever runtime is
        live: the sharded coordinator when sharding is enabled,
        otherwise this graph's :class:`PositioningEngine` (enable one
        first); pass ``engine`` explicitly to override.  The gateway
        shares the middleware's simulation clock (deterministic
        freshness checks and DLQ backoff) and keeps its own outcome
        counts, so it needs no observability hub.  Keyword arguments
        pass through to
        :class:`~repro.gateway.IngestionGateway` (``device_policy``,
        ``admission_capacity``, ``retry``, ``max_age_s``, ...).
        Re-enabling replaces the previous gateway through
        :meth:`disable_gateway`, so its dead letters carry over under
        durability.
        """
        if engine is None:
            engine = self.sharding
        if engine is None:
            engine = self.graph.engine
        if engine is None:
            raise ValueError(
                "no runtime to feed: enable_runtime() or enable_sharding()"
                " before enable_gateway(), or pass engine= explicitly"
            )
        self.disable_gateway()
        gateway = IngestionGateway(
            engine,
            source,
            clock=self.clock,
            **kwargs,  # type: ignore[arg-type]
        )
        self._register(GATEWAY, gateway)
        manager = self.durability
        if manager is not None:
            manager.gateway = gateway
            dlq_state = manager.load_dlq_state()
            if dlq_state is not None:
                gateway.dlq.state_restore(dlq_state)
        return gateway

    def disable_gateway(self) -> Optional[IngestionGateway]:
        """Close the ingestion edge (DLQ and counters stay readable).

        With durability enabled, the dead-letter records are persisted
        to the state store first, so a later :meth:`enable_gateway`
        rehydrates them -- a disable/enable cycle (or a crash between
        the two) no longer forfeits payloads awaiting replay-after-fix.
        """
        gateway = self._unregister(GATEWAY)
        if gateway is not None:
            manager = self.durability
            if manager is not None:
                manager.save_dlq_state(gateway.dlq.state_snapshot())
                manager.gateway = None
            gateway.close()
        return gateway

    # -- durability --------------------------------------------------------------

    @property
    def durability(self) -> Optional[DurabilityManager]:
        """The installed durability manager, or None while it is off."""
        return DURABILITY.live(self.framework.registry)

    def enable_durability(
        self,
        store: Optional[StateStore] = None,
        *,
        snapshot_every: Optional[int] = None,
    ) -> DurabilityManager:
        """Install durable state on this middleware's runtime.

        Requires a live :meth:`enable_runtime` engine: the manager
        journals every submit/drain/track/untrack/policy mutation into
        ``store`` (default: an in-memory store, useful for tests and
        warm handoff staging) and can snapshot/restore the full engine
        state -- lanes, queues, component state, breakers, DLQ records,
        metric counters.  ``snapshot_every`` auto-snapshots after that
        many journal entries.  Re-enabling detaches the previous
        manager (its store stays readable).  Raises while sharding is
        enabled, whose lanes the manager would not journal.
        """
        if self.graph.engine is None:
            raise ValueError(
                "no runtime to persist: enable_runtime() before"
                " enable_durability()"
            )
        if self.sharding is not None:
            raise ValueError(_DURABLE_SHARDS)
        self.disable_durability()
        manager = DurabilityManager(
            self.graph,
            store if store is not None else MemoryStateStore(),
            snapshot_every=snapshot_every,
        )
        manager.attach()
        manager.gateway = self.gateway
        self._register(DURABILITY, manager)
        return manager

    def disable_durability(self) -> Optional[DurabilityManager]:
        """Detach durable state (the store's contents stay readable)."""
        manager = self._unregister(DURABILITY)
        if manager is not None:
            manager.detach()
        return manager

    # -- scenario ----------------------------------------------------------------

    @property
    def scenario(self) -> Optional[Any]:
        """The installed scenario runner, or None while no scenario runs."""
        return SCENARIO.live(self.framework.registry)

    def enable_scenario(self, runner: Any) -> Any:
        """Install a scenario runner (and its control loop, if any).

        The runner (:class:`repro.scenario.ScenarioRunner`) drives the
        workload from outside; installing it only publishes the
        inspection surfaces -- ``psl.scenario()``, ``psl.controllers()``
        and the report's ``scenario:`` / ``control:`` sections -- by
        registering the runner, and its control loop beside it, as
        services.  Re-enabling replaces the previous runner.
        """
        self.disable_scenario()
        self._register(SCENARIO, runner)
        control = getattr(runner, "control", None)
        if control is not None:
            self._register(CONTROL, control)
        return runner

    def disable_scenario(self) -> Optional[Any]:
        """Remove the scenario runner and control loop surfaces."""
        self._unregister(CONTROL)
        return self._unregister(SCENARIO)

    def trace(self, position: Optional[Datum]) -> Optional[FlowTrace]:
        """The component path (with timestamps) behind a delivered datum.

        The runtime twin of the PCL data tree: for a position the
        application received, this returns the exact source-to-sink
        component sequence that produced it, or None when the datum was
        produced while tracing was off.
        """
        return trace_of(position)

    # -- sensors ---------------------------------------------------------------

    def attach_sensor(
        self,
        sensor: SimulatedSensor,
        capabilities: Sequence[str],
        kind_of: Optional[Callable[[SensorReading], str]] = None,
        source_name: Optional[str] = None,
    ) -> SourceComponent:
        """Wrap a simulated sensor as a source component in the graph.

        ``kind_of`` maps each reading to a data kind; by default the
        reading's ``attributes['format']`` is looked up in
        :data:`DEFAULT_KIND_MAP`.  The emulator sensor of §3.2 plugs in
        through exactly this method, "taking the place of the sensors".
        """
        name = source_name or sensor.sensor_id
        source = SourceComponent(name, capabilities)
        self.graph.add(source)

        def _default_kind(reading: SensorReading) -> str:
            fmt = reading.attributes.get("format", "")
            try:
                return DEFAULT_KIND_MAP[fmt]
            except KeyError:
                raise ValueError(
                    f"reading from {reading.sensor_id} has unmapped format"
                    f" {fmt!r}; pass kind_of explicitly"
                ) from None

        self._sensors.append((sensor, source, kind_of or _default_kind))
        return source

    def detach_sensor(self, source_name: str) -> None:
        """Remove a sensor and its source component from the graph."""
        for entry in list(self._sensors):
            if entry[1].name == source_name:
                self._sensors.remove(entry)
                self.graph.remove(source_name)
                return
        raise KeyError(f"no sensor attached as {source_name!r}")

    def pump(self, now: Optional[float] = None) -> int:
        """Sample every sensor and inject due readings into the graph.

        Returns the number of readings injected.  ``now`` defaults to the
        middleware clock's current time.
        """
        t = self.clock.now if now is None else now
        injected = 0
        for sensor, source, kind_of in list(self._sensors):
            for reading in sensor.sample(t):
                source.inject(
                    Datum(
                        kind=kind_of(reading),
                        payload=reading.payload,
                        timestamp=reading.timestamp,
                        producer=source.name,
                        attributes=reading.attributes,
                    )
                )
                injected += 1
        return injected

    def run_until(self, deadline: float, step_s: float = 1.0) -> None:
        """Advance the clock to ``deadline``, pumping sensors every step."""
        if step_s <= 0:
            raise ValueError("step_s must be positive")
        while self.clock.now < deadline:
            target = min(self.clock.now + step_s, deadline)
            self.clock.run_until(target)
            self.pump()

    # -- positioning layer conveniences ----------------------------------------

    def create_provider(
        self,
        name: str,
        accepts: Sequence[str],
        technologies: Sequence[str] = (),
    ) -> LocationProvider:
        """Create an application sink + provider and register both."""
        sink = ApplicationSink(name, accepts)
        self.graph.add(sink)
        provider = LocationProvider(name, sink, self.pcl, technologies)
        self.positioning.register_provider(provider)
        return provider

    def get_provider(self, criteria: Criteria) -> LocationProvider:
        """JSR-179-style provider lookup by criteria."""
        return self.positioning.get_provider(criteria)
