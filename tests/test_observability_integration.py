"""Integration tests: observability through the full room-number app.

Drives the Fig. 1 pipeline (GPS strand + WiFi strand -> fusion ->
resolver -> application) through :class:`PerPos` with observability
enabled, and asserts that (a) ``PerPos.trace`` names the actual
source-to-merge path behind a delivered position, and (b) the
infrastructure report embeds the live metrics section.  A composed
gateway -> runtime -> durability run then pins (c) that the hub records
only graph series, however many devices come and go, while each count
outside the graph is kept, exactly, by its owner.
"""

import pytest

from repro.core import Kind, PerPos, infrastructure_snapshot, render_report
from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.gateway import AutoTrackPolicy
from repro.model.demo import demo_building, demo_radio_environment
from repro.processing.pipelines import build_room_app
from repro.sensors.gps import GpsReceiver, INDOOR, OPEN_SKY
from repro.sensors.trajectory import Waypoint, WaypointTrajectory
from repro.sensors.wifi import WifiScanner
from repro.geo.grid import GridPosition


@pytest.fixture(scope="module")
def room_app_run():
    """The room-app walk of ``examples/room_number_app.py``, observed."""
    building = demo_building()
    grid = building.grid
    waypoints = [
        (0.0, -40.0, 7.5),
        (40.0, -2.0, 7.5),
        (55.0, 5.0, 7.5),
        (75.0, 15.0, 7.5),
        (95.0, 15.0, 12.0),
        (150.0, 15.0, 12.0),
    ]
    trajectory = WaypointTrajectory(
        [
            Waypoint(t, grid.to_wgs84(GridPosition(x, y)))
            for t, x, y in waypoints
        ]
    )

    def sky(t, position):
        inside = building.contains(grid.to_grid(position))
        return INDOOR if inside else OPEN_SKY

    gps = GpsReceiver("gps-device", trajectory, sky, seed=21)
    wifi = WifiScanner(
        "wifi-device",
        trajectory,
        demo_radio_environment(building),
        grid,
        seed=22,
    )
    middleware = PerPos()
    hub = middleware.enable_observability()
    app = build_room_app(middleware, gps, wifi, building)
    middleware.run_until(150.0)
    return middleware, hub, app


class TestEndToEndTrace:
    def test_room_id_trace_names_source_to_merge_path(self, room_app_run):
        middleware, _hub, app = room_app_run
        datum = app.provider.last_known(Kind.ROOM_ID)
        trace = middleware.trace(datum)
        assert trace is not None
        # Indoors at t=150 the WiFi strand wins the fusion: the trace
        # names the actual path, hop by hop, ending at the resolver that
        # minted the room id.
        assert trace.path == [
            "wifi",
            "wifi-positioning",
            "fusion",
            "resolver",
        ]
        assert trace.path[0] == datum.attribute("perpos.trace").source

    def test_hops_carry_monotonic_timestamps(self, room_app_run):
        middleware, _hub, app = room_app_run
        trace = middleware.trace(app.provider.last_known(Kind.ROOM_ID))
        stamps = [hop.timestamp for hop in trace]
        assert stamps == sorted(stamps)
        assert stamps[-1] <= 150.0

    def test_provider_last_trace_matches_middleware_trace(
        self, room_app_run
    ):
        middleware, _hub, app = room_app_run
        via_provider = app.provider.last_trace(Kind.ROOM_ID)
        via_middleware = middleware.trace(
            app.provider.last_known(Kind.ROOM_ID)
        )
        assert via_provider == via_middleware

    def test_every_trace_is_a_path_in_the_graph(self, room_app_run):
        middleware, _hub, app = room_app_run
        edges = {
            (c.producer, c.consumer)
            for c in middleware.graph.connections()
        }
        for datum in app.provider.sink.received:
            trace = middleware.trace(datum)
            assert trace is not None
            for a, b in zip(trace.path, trace.path[1:]):
                assert (a, b) in edges

    def test_fused_position_traced_to_one_strand(self, room_app_run):
        middleware, _hub, app = room_app_run
        trace = middleware.trace(
            app.provider.last_known(Kind.POSITION_WGS84)
        )
        assert trace.path[-1] == "fusion"
        assert trace.path[0] in ("gps", "wifi")


class TestLiveMetrics:
    def test_report_embeds_live_metrics_section(self, room_app_run):
        middleware, _hub, _app = room_app_run
        report = render_report(middleware)
        assert "live metrics:" in report
        assert "(observability disabled)" not in report
        # Per-component in/out counts appear for pipeline members.
        assert "fusion: in=" in report
        assert "gps-parser: in=" in report

    def test_snapshot_embeds_observability(self, room_app_run):
        middleware, hub, _app = room_app_run
        snapshot = infrastructure_snapshot(middleware)
        observability = snapshot["observability"]
        assert observability is not None
        assert observability["tracing"] is True
        components = observability["components"]
        assert components["fusion"]["items_in"] > 0
        assert components["fusion"]["latency"]["count"] > 0
        assert observability == hub.snapshot()

    def test_report_disabled_marker_without_hub(self):
        middleware = PerPos()
        assert "(observability disabled)" in render_report(middleware)
        assert infrastructure_snapshot(middleware)["observability"] is None

    def test_flow_conservation_across_the_app(self, room_app_run):
        middleware, hub, _app = room_app_run
        stats = hub.component_stats()
        # The application sink consumed no more than the graph produced.
        produced = sum(
            s.get("items_out", 0) for s in stats.values()
        )
        consumed_by_sink = stats["room-app"]["items_in"]
        assert 0 < consumed_by_sink <= produced

    def test_pcl_flow_summary_names_live_paths(self, room_app_run):
        middleware, _hub, _app = room_app_run
        by_path = {
            tuple(row["latest_path"] or ()): row
            for row in middleware.pcl.flow_summary()
        }
        assert ("gps", "gps-parser", "gps-interpreter") in by_path
        assert ("wifi", "wifi-positioning") in by_path

    def test_psl_metrics_reachable_for_all_members(self, room_app_run):
        middleware, _hub, _app = room_app_run
        metrics = middleware.psl.component_metrics()
        for name in (
            "gps",
            "gps-parser",
            "gps-interpreter",
            "wifi",
            "wifi-positioning",
            "fusion",
            "resolver",
            "room-app",
        ):
            assert name in metrics


# -- one owner per count: the hub records only the graph --------------------

#: Every series the hub records for the graph it is installed on.
GRAPH_SERIES = {
    "items_in",
    "items_out",
    "items_dropped",
    "feature_drops",
    "errors",
    "hop_latency_s",
    "graph_components",
    "graph_connections",
    "graph_topology_version",
    "graph_plan_invalidations",
    "graph_compiled_chains",
    "graph_fused_components",
    "graph_fused_dispatches",
}

POS = Kind.POSITION_WGS84


def edge_payload(device, **over):
    payload = {
        "source_format": "phone_tracker_v1",
        "device_id": device,
        "timestamp": 0.0,
        "lat": 55.676,
        "lon": 12.568,
        "accuracy_m": 5.0,
        "battery_pct": 0.8,
    }
    payload.update(over)
    return payload


def composed_run(devices, waves=3):
    """Gateway -> runtime -> drain with device churn, then snapshot,
    one more wave, and a restore.

    Each wave brings ``devices`` new devices with four payloads each:
    the token bucket (burst 3) limits the fourth, a lane of capacity 2
    under ``drop_newest`` sheds the third, and a one-short admission
    queue sheds the wave's last admitted payload.  A malformed and an
    unknown-format payload are rejected per wave.  Half of each wave's
    devices leave after the drain.  Returns the middleware, its hub,
    and the stats of every lane that ever existed.
    """
    middleware = PerPos()
    graph = middleware.graph
    graph.add(SourceComponent("src", (POS,)))
    graph.add(FunctionComponent("f", (POS,), (POS,), fn=lambda d: d))
    graph.add(ApplicationSink("sink", (POS,), keep_last=100_000))
    graph.connect("src", "f", "in")
    graph.connect("f", "sink", "in")
    hub = middleware.enable_observability(tracing=False)
    engine = middleware.enable_runtime()
    manager = middleware.enable_durability()
    gateway = middleware.enable_gateway(
        "src",
        device_policy=AutoTrackPolicy(capacity=2, policy="drop_newest"),
        admission_capacity=3 * devices - 1,
        rate_limit=3.0,
    )
    retired = []

    def wave(n):
        ids = [f"w{n}-d{i}" for i in range(devices)]
        for device in ids:
            for k in range(4):
                gateway.submit(edge_payload(device, timestamp=float(k)))
        gateway.submit(edge_payload(ids[0], lat=999.0))
        gateway.submit({"source_format": "no_such_format_v9"})
        gateway.forward()
        engine.drain_round()
        for device in ids[: devices // 2]:
            retired.append(engine.lane(device).stats())
            engine.untrack(device)

    for n in range(waves):
        wave(n)
    manager.checkpoint()
    wave(waves)
    assert manager.restore() > 0
    engine.drain_all()
    lanes = retired + [lane.stats() for lane in engine.lanes()]
    return middleware, hub, lanes


class TestOneOwnerPerCount:
    def test_hub_holds_only_graph_series(self):
        _middleware, hub, _lanes = composed_run(devices=4)
        names = {name for _kind, name, _labels, _i in hub.registry.series()}
        assert names and names <= GRAPH_SERIES

    def test_series_do_not_grow_with_devices_seen(self):
        def series(devices):
            _middleware, hub, lanes = composed_run(devices)
            assert len(lanes) == 4 * devices
            return sorted(
                (kind, name, sorted(labels.items()))
                for kind, name, labels, _i in hub.registry.series()
            )

        assert series(3) == series(12)

    def test_owners_account_exactly(self):
        middleware, _hub, lanes = composed_run(devices=6)
        gateway = middleware.gateway.snapshot()
        assert gateway["submitted"] == (
            gateway["accepted"]
            + gateway["rejected"]
            + gateway["shed"]
            + gateway["rate_limited"]
            + gateway["pending"]
        )
        # Every outcome is exercised, and the adapter's share of each
        # is exact (unknown-format rejects have no adapter).
        adapter = gateway["adapters"]["phone_tracker_v1"]
        for outcome in ("accepted", "shed", "rate_limited"):
            assert gateway[outcome] > 0
            assert adapter[outcome] == gateway[outcome]
        assert 0 < adapter["rejected"] < gateway["rejected"]
        for lane in lanes:
            assert lane["offered"] == (
                lane["accepted"]
                + lane["rejected"]
                + lane["dropped_newest"]
                + lane["coalesced"]
            )
        assert sum(lane["dropped_newest"] for lane in lanes) > 0
        durability = middleware.durability.snapshot()
        assert durability["restores"] == 1
        assert durability["entries_replayed"] > 0
