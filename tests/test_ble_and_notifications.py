"""BLE technology plug-in (requirement R1), interval + geofence listeners."""

import pytest

from repro.clock import SimulationClock
from repro.core import Kind, PerPos
from repro.core.component import ApplicationSink, SourceComponent
from repro.core.data import Datum
from repro.core.graph import ProcessingGraph
from repro.core.pcl import ProcessChannelLayer
from repro.core.positioning import LocationProvider, PositioningError
from repro.geo.grid import GridPosition
from repro.model.demo import (
    demo_beacons,
    demo_building,
    demo_radio_environment,
)
from repro.processing.beacon_positioning import BeaconPositioningComponent
from repro.processing.pipelines import build_room_app
from repro.sensors.ble import BeaconScan, BeaconSighting, BleScanner
from repro.sensors.gps import GpsReceiver, INDOOR
from repro.sensors.trajectory import (
    StationaryTrajectory,
    Waypoint,
    WaypointTrajectory,
)
from repro.sensors.wifi import WifiScanner
from repro.geo.wgs84 import Wgs84Position


class TestBleScanner:
    def setup_scanner(self, position=GridPosition(15.0, 12.0), seed=1):
        building = demo_building()
        inside = building.grid.to_wgs84(position)
        scanner = BleScanner(
            "ble0",
            StationaryTrajectory(inside, 60.0),
            demo_beacons(),
            building.grid,
            seed=seed,
            wall_counter=building.walls_between,
        )
        return scanner

    def test_scan_rate(self):
        scanner = self.setup_scanner()
        readings = scanner.sample(9.0)
        assert len(readings) == 10
        assert all(isinstance(r.payload, BeaconScan) for r in readings)

    def test_nearest_beacon_strongest(self):
        # Standing in N2: the N2 beacon should usually win.
        scanner = self.setup_scanner(GridPosition(15.0, 12.0))
        wins = 0
        for reading in scanner.sample(30.0):
            strongest = reading.payload.strongest()
            if strongest and strongest.beacon_id == "bcn:N2":
                wins += 1
        assert wins > 15

    def test_validation(self):
        building = demo_building()
        still = StationaryTrajectory(Wgs84Position(0, 0), 1.0)
        with pytest.raises(ValueError):
            BleScanner("b", still, [], building.grid)
        with pytest.raises(ValueError):
            BleScanner(
                "b", still, demo_beacons(), building.grid,
                scan_period_s=0.0,
            )


class TestBeaconPositioning:
    def wire(self):
        building = demo_building()
        component = BeaconPositioningComponent(
            demo_beacons(), building.grid
        )
        graph = ProcessingGraph()
        source = SourceComponent("ble", (Kind.BEACON_SCAN,))
        sink = ApplicationSink(
            "app", (Kind.POSITION_WGS84, Kind.POSITION_GRID)
        )
        for c in (source, component, sink):
            graph.add(c)
        graph.connect("ble", component.name)
        graph.connect(component.name, "app")
        return building, component, source, sink

    def scan(self, *sightings, t=0.0):
        return Datum(
            Kind.BEACON_SCAN,
            BeaconScan(
                t, tuple(BeaconSighting(b, r) for b, r in sightings)
            ),
            t,
        )

    def test_strongest_beacon_position_produced(self):
        building, _comp, source, sink = self.wire()
        source.inject(
            self.scan(("bcn:N2", -55.0), ("bcn:corr:west", -75.0))
        )
        grid_pos = sink.last(Kind.POSITION_GRID)
        assert grid_pos.attributes["beacon"] == "bcn:N2"
        assert building.room_at(grid_pos.payload).room_id == "N2"

    def test_weak_sightings_rejected(self):
        _b, _comp, source, sink = self.wire()
        source.inject(self.scan(("bcn:N2", -89.0)))
        assert sink.received == []

    def test_unknown_beacon_ignored(self):
        _b, _comp, source, sink = self.wire()
        source.inject(self.scan(("bcn:rogue", -40.0)))
        assert sink.received == []

    def test_accuracy_grows_with_weakness(self):
        _b, component, source, sink = self.wire()
        source.inject(self.scan(("bcn:N2", -59.0), t=0.0))
        near = sink.last(Kind.POSITION_WGS84).payload.accuracy_m
        source.inject(self.scan(("bcn:N2", -75.0), t=1.0))
        far = sink.last(Kind.POSITION_WGS84).payload.accuracy_m
        assert far > near

    def test_validation(self):
        building = demo_building()
        with pytest.raises(ValueError):
            BeaconPositioningComponent([], building.grid)


class TestR1PlugIn:
    """§1/R1: add a new positioning mechanism to a RUNNING application
    without touching its API."""

    def test_ble_strand_added_to_live_room_app(self):
        building = demo_building()
        grid = building.grid
        trajectory = WaypointTrajectory(
            [
                Waypoint(0.0, grid.to_wgs84(GridPosition(15.0, 12.0))),
                Waypoint(120.0, grid.to_wgs84(GridPosition(15.0, 12.0))),
            ]
        )

        def sky(t, position):
            return INDOOR  # fully indoors: GPS is useless here

        middleware = PerPos()
        gps = GpsReceiver("gps-dev", trajectory, sky, seed=3)
        wifi = WifiScanner(
            "wifi-dev",
            trajectory,
            demo_radio_environment(building),
            grid,
            seed=4,
        )
        app = build_room_app(middleware, gps, wifi, building)
        middleware.run_until(30.0)

        # Plug BLE in mid-run: sensor + positioning component into the
        # existing fusion node.  No application change.
        ble = BleScanner(
            "ble-dev",
            trajectory,
            demo_beacons(),
            grid,
            seed=5,
            wall_counter=building.walls_between,
        )
        middleware.attach_sensor(ble, (Kind.BEACON_SCAN,))
        engine = BeaconPositioningComponent(demo_beacons(), grid)
        middleware.graph.add(engine)
        middleware.graph.connect("ble-dev", engine.name)
        middleware.graph.connect(engine.name, app.fusion)
        middleware.run_until(120.0)

        # The new technology's fixes flowed through the unchanged app.
        late = [
            d
            for d in app.provider.sink.received
            if d.kind == Kind.POSITION_WGS84 and d.timestamp > 30.0
        ]
        sources = {d.attributes.get("selected_source") for d in late}
        assert "ble-positioning" in sources
        # The channel view gained a strand; the app sink is untouched.
        channel_ids = [c.id for c in middleware.pcl.channels()]
        assert "ble-dev->fusion" in channel_ids
        room = app.provider.last_known(Kind.ROOM_ID)
        assert room.payload.room_id == "N2"


class TestIntervalListener:
    def build_provider(self):
        graph = ProcessingGraph()
        source = SourceComponent("src", (Kind.POSITION_WGS84,))
        sink = ApplicationSink("app", (Kind.POSITION_WGS84,))
        graph.add(source)
        graph.add(sink)
        graph.connect("src", "app")
        provider = LocationProvider(
            "app", sink, ProcessChannelLayer(graph)
        )
        return provider, source

    def test_periodic_delivery(self):
        clock = SimulationClock()
        provider, source = self.build_provider()
        received = []
        provider.add_interval_listener(
            clock, 10.0, lambda d: received.append(d)
        )
        clock.run_until(5.0)
        assert received == []
        source.inject(
            Datum(
                Kind.POSITION_WGS84, Wgs84Position(56.0, 10.0), 5.0, "src"
            )
        )
        clock.run_until(35.0)
        assert len(received) == 3
        assert all(d is not None for d in received)

    def test_none_delivered_before_first_fix(self):
        clock = SimulationClock()
        provider, _source = self.build_provider()
        received = []
        provider.add_interval_listener(
            clock, 10.0, lambda d: received.append(d)
        )
        clock.run_until(25.0)
        assert received == [None, None]

    def test_cancellation(self):
        clock = SimulationClock()
        provider, _source = self.build_provider()
        received = []
        cancel = provider.add_interval_listener(
            clock, 10.0, lambda d: received.append(d)
        )
        clock.run_until(15.0)
        cancel()
        clock.run_until(100.0)
        assert len(received) == 1

    def test_validation(self):
        clock = SimulationClock()
        provider, _source = self.build_provider()
        with pytest.raises(PositioningError):
            provider.add_interval_listener(clock, 0.0, lambda d: None)


class TestGeofence:
    def test_polygon_geofence_crossings(self):
        building = demo_building()
        grid = building.grid
        graph = ProcessingGraph()
        source = SourceComponent("src", (Kind.POSITION_WGS84,))
        sink = ApplicationSink("app", (Kind.POSITION_WGS84,))
        graph.add(source)
        graph.add(sink)
        graph.connect("src", "app")
        provider = LocationProvider(
            "app", sink, ProcessChannelLayer(graph)
        )
        n2_polygon = building.room_by_id("N2").polygon
        events = []
        provider.add_geofence_listener(
            n2_polygon, grid, lambda kind, d: events.append(kind)
        )

        def inject(x, y, t):
            source.inject(
                Datum(
                    Kind.POSITION_WGS84,
                    grid.to_wgs84(GridPosition(x, y)),
                    t,
                    "src",
                )
            )

        inject(5.0, 7.5, 0.0)  # corridor, outside N2
        inject(15.0, 12.0, 1.0)  # inside N2
        inject(15.0, 7.5, 2.0)  # back in the corridor
        assert events == ["entered", "left"]

    def test_geofence_validation(self):
        building = demo_building()
        provider, _src = TestIntervalListener().build_provider()
        with pytest.raises(PositioningError):
            provider.add_geofence_listener(
                [(0, 0), (1, 1)], building.grid, lambda k, d: None
            )
