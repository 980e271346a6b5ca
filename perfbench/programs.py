"""The programs under test and their closed-loop replays.

Each program object is one fresh build of a workload's deployment --
constructing it *is* the set-up that ``setup_s`` times.  ``replay``
feeds the pre-generated inputs tick by tick: a tick's inputs are
submitted as soon as the previous tick returns, with no wall-clock
pacing, and the replay ends when every lane is drained.  Sink listeners
record each application output with its arrival time, and the replay
returns the counters the accounting check reads.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import PerPos
from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.core.data import Datum, Kind
from repro.core.graph import ProcessingGraph
from repro.gateway import AutoTrackPolicy
from repro.gateway.adapters import Crosswalk, FieldMap
from repro.gateway.wire import FLOAT, STRING, TIMESTAMP, FieldSpec, WireFormat
from repro.model.demo import (
    demo_building,
    demo_radio_environment,
    demo_survey_positions,
)
from repro.processing.fusion import BestAccuracyFusionComponent
from repro.processing.interpreter import NmeaInterpreterComponent
from repro.processing.parser import NmeaParserComponent
from repro.processing.resolver import RoomResolverComponent
from repro.processing.wifi_positioning import FingerprintPositioningComponent
from repro.runtime.scheduler import RoundRobinScheduler
from repro.scenario import (
    ALERT_KIND,
    BLE_KIND,
    GPS_KIND,
    SENSOR_KINDS,
    WIFI_KIND,
    Actuators,
    BackpressureController,
    ControlLoop,
    GeofenceComponent,
    GeofenceRule,
    RebalanceController,
    ScenarioRunner,
)
from repro.sensors.wifi import build_radio_map

from .inputs import (
    BLE_FORMAT,
    GPS_FORMAT,
    WIFI_FORMAT,
    EdgeInputs,
    RoomInputs,
    room_lane,
    room_source,
)

#: Room lanes are drained to empty every tick; this only bounds a tick.
ROOM_LANE_CAPACITY = 64

#: Edge lanes start small and drain a few datums per lane per round, so
#: the burst overflows them and the backpressure controller reacts.
EDGE_SOURCE = "edge-src"
EDGE_LANE_CAPACITY = 8
EDGE_QUANTUM = 3
EDGE_SHARDS = 2
#: Large enough that a whole tick is admitted before it is forwarded.
EDGE_ADMISSION = 8192
#: A replay drains its backlog after the last tick within this many
#: extra ticks, or the replay fails.
MAX_TAIL_TICKS = 500

#: The E17 geofence.
RULES = (GeofenceRule("downtown", 1000.0, 1000.0, 400.0, trigger="both"),)


@dataclass
class Replay:
    """What one replay measured and counted."""

    starts: List[float] = field(default_factory=list)
    end: float = 0.0
    deliveries: List[Tuple[float, str, Datum]] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.starts[0]

    def rows(self) -> Counter:
        """The sink multiset: one row per application output."""
        return Counter(
            (sink, datum.kind, repr(datum.payload), datum.attributes.get("target"))
            for _t, sink, datum in self.deliveries
        )


def _listener(sink: str, out: List[Tuple[float, str, Datum]]) -> Callable:
    append = out.append
    clock = time.perf_counter

    def on_output(datum: Datum) -> None:
        append((clock(), sink, datum))

    return on_output


# -- room_process -------------------------------------------------------------


class RoomProgram:
    """K Fig. 1 processes on one ``PerPos``, fed through engine lanes.

    Per target: GPS fragments -> parser -> interpreter, WiFi scans ->
    fingerprint, both -> fusion -> resolver, with fusion and resolver
    output delivered to the target's provider sink.  No gateway, hub,
    sharding or control loop.
    """

    gateway = None
    runner = None
    sharded = False

    def __init__(self, inputs: RoomInputs, *, interpreted: bool = False) -> None:
        building = demo_building()
        environment = demo_radio_environment(building)
        radio_map = build_radio_map(environment, demo_survey_positions(2.0))
        middleware = PerPos()
        graph = middleware.graph
        self.providers = []
        for target in range(inputs.targets):
            prefix = f"t{target:03d}"
            gps = SourceComponent(room_source(target, "gps"), (Kind.NMEA_RAW,))
            wifi = SourceComponent(room_source(target, "wifi"), (Kind.WIFI_SCAN,))
            parser = NmeaParserComponent(name=f"{prefix}-parser")
            interpreter = NmeaInterpreterComponent(name=f"{prefix}-interpreter")
            fingerprint = FingerprintPositioningComponent(
                radio_map, building.grid, k=3, name=f"{prefix}-fingerprint"
            )
            fusion = BestAccuracyFusionComponent(name=f"{prefix}-fusion")
            resolver = RoomResolverComponent(building, name=f"{prefix}-resolver")
            for component in (
                gps, wifi, parser, interpreter, fingerprint, fusion, resolver
            ):
                graph.add(component)
            graph.connect(gps.name, parser.name)
            graph.connect(parser.name, interpreter.name)
            graph.connect(wifi.name, fingerprint.name)
            graph.connect(interpreter.name, fusion.name)
            graph.connect(fingerprint.name, fusion.name)
            graph.connect(fusion.name, resolver.name)
            provider = middleware.create_provider(
                f"{prefix}-app",
                accepts=(Kind.POSITION_WGS84, Kind.ROOM_ID),
                technologies=("gps", "wifi"),
            )
            graph.connect(fusion.name, provider.sink.name)
            graph.connect(resolver.name, provider.sink.name)
            self.providers.append(provider)
        if interpreted:
            graph.set_compilation(False)
        engine = middleware.enable_runtime()
        for target in range(inputs.targets):
            for strand in ("gps", "wifi"):
                engine.track(
                    room_lane(target, strand),
                    room_source(target, strand),
                    capacity=ROOM_LANE_CAPACITY,
                )
        self.middleware = middleware
        self.engine = engine

    # The layer objects the tracer instruments.
    def graphs(self) -> List[ProcessingGraph]:
        return [self.middleware.graph]

    def engines(self) -> List[Any]:
        return [self.engine]

    def hubs(self) -> List[Any]:
        return []

    def replay(
        self, inputs: RoomInputs, on_tick: Optional[Callable[[int], None]] = None
    ) -> Replay:
        result = Replay()
        for provider in self.providers:
            provider.add_listener(_listener(provider.name, result.deliveries))
        engine = self.engine
        submit = engine.submit
        starts = result.starts
        clock = time.perf_counter
        for tick, readings in enumerate(inputs.ticks):
            if on_tick is not None:
                on_tick(tick)
            starts.append(clock())
            for lane, datum in readings:
                submit(lane, datum)
            engine.drain_all()
        result.end = clock()
        lanes = engine.lanes()
        result.counts = {
            "inputs": inputs.count,
            "drained": sum(lane.queue.drained for lane in lanes),
            "batches": sum(lane.batches for lane in lanes),
            "dropped": sum(lane.queue.dropped for lane in lanes),
            "discarded": 0,
            "pending": engine.depth_total(),
            "rejected": 0,
            "shed": 0,
            "rate_limited": 0,
            "gateway_pending": 0,
            "planted": 0,
            "delivered": len(result.deliveries),
            "ticks": len(inputs.ticks),
        }
        return result


# -- edge_single / edge_sharded -------------------------------------------------


def wifi_format() -> WireFormat:
    return WireFormat(
        WIFI_FORMAT,
        fields=(
            FieldSpec("device_id", STRING, required=True),
            FieldSpec("timestamp", TIMESTAMP, required=True),
            FieldSpec("ap", FLOAT, required=True, minimum=0.0, maximum=64.0),
            FieldSpec("rssi_dbm", FLOAT, required=True, minimum=-130.0, maximum=0.0),
        ),
    )


def ble_format() -> WireFormat:
    return WireFormat(
        BLE_FORMAT,
        fields=(
            FieldSpec("device_id", STRING, required=True),
            FieldSpec("timestamp", TIMESTAMP, required=True),
            FieldSpec("beacon", FLOAT, required=True, minimum=0.0, maximum=64.0),
            FieldSpec("rssi_dbm", FLOAT, required=True, minimum=-130.0, maximum=0.0),
        ),
    )


def legacy_crosswalk() -> Crosswalk:
    """Admits GPS payloads that name their fix ``latitude``/``longitude``."""
    return Crosswalk((FieldMap("latitude", "lat"), FieldMap("longitude", "lon")))


def convert(datum: Datum) -> Datum:
    """Gateway datum -> city sensor datum, keyed on the wire format.

    Every registered format mints ``position-wgs84`` datums, so the
    format attribute is what tells a GPS fix from a WiFi or BLE sighting.
    GPS fixes go back onto the city grid the geofence rules use.
    """
    payload = datum.payload
    attributes = datum.attributes
    wire = attributes["format"]
    if wire == GPS_FORMAT:
        kind = GPS_KIND
        value: Tuple[Any, ...] = (
            round((payload["lon"] - 12.0) * 63_000.0, 2),
            round((payload["lat"] - 55.0) * 111_320.0, 2),
            payload["accuracy_m"],
        )
    elif wire == WIFI_FORMAT:
        kind = WIFI_KIND
        value = (payload["ap"], payload["rssi_dbm"])
    else:
        kind = BLE_KIND
        value = (payload["beacon"], payload["rssi_dbm"])
    return Datum(
        kind=kind,
        payload=value,
        timestamp=datum.timestamp,
        attributes={"target": attributes["target"], "tick": int(datum.timestamp)},
    )


def build_edge_graph(graph: ProcessingGraph) -> ProcessingGraph:
    """source -> convert -> geofence -> {city-app, city-alerts}."""
    graph.add(SourceComponent(EDGE_SOURCE, (Kind.POSITION_WGS84,)))
    graph.add(
        FunctionComponent("convert", (Kind.POSITION_WGS84,), SENSOR_KINDS, convert)
    )
    graph.add(GeofenceComponent(RULES))
    graph.add(ApplicationSink("city-app", SENSOR_KINDS, keep_last=1_000_000))
    graph.add(ApplicationSink("city-alerts", (ALERT_KIND,), keep_last=1_000_000))
    graph.connect(EDGE_SOURCE, "convert")
    graph.connect("convert", "geofence")
    graph.connect("geofence", "city-app")
    graph.connect("geofence", "city-alerts")
    return graph


def edge_recipe() -> ProcessingGraph:
    """The shard recipe (module level, so it would pickle to workers)."""
    return build_edge_graph(ProcessingGraph())


class EdgeProgram:
    """Raw payloads -> gateway -> engine lanes -> city graph, with the
    stock backpressure controller stepping on the per-tick view.

    ``shards=0`` runs one engine on the middleware graph; otherwise the
    gateway feeds an in-process ``ShardedEngine`` and the rebalance
    controller joins the loop.  ``interpreted`` turns plan compilation
    off on the single engine's graph: the reference both edge workloads
    are checked against.
    """

    def __init__(
        self, inputs: EdgeInputs, *, shards: int = 0, interpreted: bool = False
    ) -> None:
        middleware = PerPos()
        if shards:
            engine: Any = middleware.enable_sharding(
                edge_recipe,
                shards,
                executor="inprocess",
                observability=True,
                scheduler=("round_robin", EDGE_QUANTUM),
            )
        else:
            build_edge_graph(middleware.graph)
            if interpreted:
                middleware.graph.set_compilation(False)
            engine = middleware.enable_runtime(
                scheduler=RoundRobinScheduler(quantum=EDGE_QUANTUM)
            )
        hub = middleware.enable_observability(tracing=False)
        gateway = middleware.enable_gateway(
            EDGE_SOURCE,
            device_policy=AutoTrackPolicy(capacity=EDGE_LANE_CAPACITY),
            admission_capacity=EDGE_ADMISSION,
        )
        gateway.register_format(wifi_format())
        gateway.register_format(ble_format())
        gateway.adapter(GPS_FORMAT).set_crosswalk(legacy_crosswalk())
        controllers: List[Any] = [BackpressureController()]
        if shards:
            controllers.append(RebalanceController())
        control = ControlLoop(controllers)
        runner = ScenarioRunner(
            inputs.generator,
            engine,
            control=control,
            hub=hub,
            source=EDGE_SOURCE,
            capacity=EDGE_LANE_CAPACITY,
        )
        middleware.enable_scenario(runner)
        self.middleware = middleware
        self.engine = engine
        self.sharded = bool(shards)
        self.hub = hub
        self.gateway = gateway
        self.runner = runner
        self.control = control

    # The layer objects the tracer instruments.
    def graphs(self) -> List[ProcessingGraph]:
        if self.sharded:
            return [shard.graph for shard in self.engine.shards()]
        return [self.middleware.graph]

    def engines(self) -> List[Any]:
        if self.sharded:
            return [shard.engine for shard in self.engine.shards()]
        return [self.engine]

    def hubs(self) -> List[Any]:
        if self.sharded:
            return [self.hub] + [shard.hub for shard in self.engine.shards()]
        return [self.hub]

    def _lane(self, device: str) -> Any:
        if self.sharded:
            shard = self.engine.shard(self.engine.shard_of(device))
            return shard.engine.lane(device)
        return self.engine.lane(device)

    def replay(
        self, inputs: EdgeInputs, on_tick: Optional[Callable[[int], None]] = None
    ) -> Replay:
        result = Replay()
        for graph in self.graphs():
            for sink in ("city-app", "city-alerts"):
                graph.component(sink).add_listener(
                    _listener(sink, result.deliveries)
                )
        engine = self.engine
        gateway = self.gateway
        runner = self.runner
        control = self.control
        # Bound here, not at set-up, so the controllers call through any
        # wrappers the tracer has put on the engine since.
        actuators = Actuators(
            set_backpressure=engine.set_policy,
            migrate_target=engine.migrate_target if self.sharded else None,
        )
        hub = self.hub
        retired = []
        starts = result.starts
        clock = time.perf_counter
        ticks = inputs.ticks
        tick = 0
        while True:
            if on_tick is not None:
                on_tick(tick)
            starts.append(clock())
            if tick < len(ticks):
                current = ticks[tick]
                for device in current.left:
                    if engine.is_tracked(device):
                        retired.append(self._lane(device))
                        engine.untrack(device)
                gateway.submit_many(current.payloads)
                gateway.forward()
            view = runner.view(tick, engine.drain_round())
            control.step(view, actuators, hub)
            tick += 1
            if tick >= len(ticks) and not view["pending"]:
                break
            if tick >= len(ticks) + MAX_TAIL_TICKS:
                raise RuntimeError(
                    f"lanes still hold {view['pending']} datums after"
                    f" {MAX_TAIL_TICKS} tail ticks"
                )
        result.end = clock()
        lanes = [lane for engine_ in self.engines() for lane in engine_.lanes()]
        app = alerts = 0
        for _t, sink, _datum in result.deliveries:
            if sink == "city-app":
                app += 1
            else:
                alerts += 1
        result.counts = {
            "inputs": inputs.count,
            "drained": sum(lane.queue.drained for lane in lanes + retired),
            "batches": sum(lane.batches for lane in lanes + retired),
            "dropped": sum(lane.queue.dropped for lane in lanes + retired),
            "discarded": sum(lane.queue.depth for lane in retired),
            "pending": sum(lane.queue.depth for lane in lanes),
            "accepted": gateway.accepted,
            "rejected": gateway.rejected,
            "shed": gateway.shed,
            "rate_limited": gateway.rate_limited,
            "gateway_pending": gateway.pending,
            "planted": inputs.planted,
            "delivered": app,
            "alerts": alerts,
            "alerts_raised": sum(
                graph.component("geofence").alerts_raised for graph in self.graphs()
            ),
            "ticks": tick,
            "decisions": control.decisions_total,
            "migrations": len(engine.migrations()) if self.sharded else 0,
        }
        return result
