"""Coverage for remaining public surface across packages."""

from repro.core import Kind
from repro.core.assembly import AutoAssembler
from repro.core.channel import Channel
from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.core.data import Datum
from repro.core.graph import ProcessingGraph
from repro.geo.transforms import ReferenceSystem
from repro.geo.wgs84 import Wgs84Position
from repro.model.demo import demo_beacons, demo_building, demo_radio_environment
from repro.sensors.ble import BleScanner
from repro.sensors.gps import GpsReceiver
from repro.sensors.inertial import Accelerometer
from repro.sensors.trajectory import StationaryTrajectory
from repro.sensors.wifi import WifiScanner
from repro.services.bundle import Framework
from repro.services.graph_binding import COMPONENT_INTERFACE, GraphBinder

HOME = Wgs84Position(56.17, 10.19)


class TestSensorDescriptions:
    """Every sensor self-describes for the infrastructure report."""

    def test_gps_describe(self):
        gps = GpsReceiver("g", StationaryTrajectory(HOME, 1.0))
        info = gps.describe()
        assert info["technology"] == "gps"
        assert info["rate_hz"] == 1.0

    def test_wifi_describe(self):
        building = demo_building()
        wifi = WifiScanner(
            "w",
            StationaryTrajectory(HOME, 1.0),
            demo_radio_environment(building),
            building.grid,
        )
        assert wifi.describe()["technology"] == "wifi"

    def test_ble_describe(self):
        building = demo_building()
        ble = BleScanner(
            "b",
            StationaryTrajectory(HOME, 1.0),
            demo_beacons(),
            building.grid,
        )
        info = ble.describe()
        assert info["technology"] == "ble"
        assert info["beacons"] == len(demo_beacons())

    def test_accelerometer_describe(self):
        acc = Accelerometer("a", StationaryTrajectory(HOME, 1.0))
        assert acc.describe()["technology"] == "inertial"


class TestAssemblerRemoveReconnect:
    def test_remove_with_reconnect_bridges_neighbours(self):
        assembler = AutoAssembler()
        source = SourceComponent("src", ("x",))
        middle = FunctionComponent("mid", ("x",), ("x",), fn=lambda d: d)
        sink = ApplicationSink("app", ("x",))
        assembler.add(source)
        assembler.add(middle)
        assembler.add(sink)
        assembler.remove("mid", reconnect=True)
        source.inject(Datum("x", 5, 0.0))
        assert sink.last().payload == 5


class TestGraphBinderSurface:
    def test_bound_components_mapping(self):
        framework = Framework()
        binder = GraphBinder(framework.registry)
        registration = framework.registry.register(
            COMPONENT_INTERFACE, SourceComponent("s1", ("x",))
        )
        assert list(binder.bound_components().values()) == ["s1"]
        registration.unregister()
        assert binder.bound_components() == {}


class TestChannelClose:
    def test_close_detaches_and_stops_observing(self):
        graph = ProcessingGraph()
        source = SourceComponent("src", ("x",))
        sink = ApplicationSink("app", ("x",))
        graph.add(source)
        graph.add(sink)
        graph.connect("src", "app")
        channel = Channel(graph, [source], "app")
        source.inject(Datum("x", 1, 0.0))
        assert channel.latest_output() is not None
        before = channel.latest_output().logical_time
        channel.close()
        source.inject(Datum("x", 2, 1.0))
        assert channel.latest_output().logical_time == before


class TestReferenceSystemMetadata:
    def test_metadata_not_part_of_equality(self):
        a = ReferenceSystem("wgs84", "geodetic", metadata=(("epsg", 4326),))
        b = ReferenceSystem("wgs84", "geodetic")
        assert a == b
        assert a.metadata == (("epsg", 4326),)


class TestSymbolicLocationSurface:
    def test_is_inside_flag(self):
        building = demo_building()
        from repro.geo.grid import GridPosition

        inside = building.resolve(
            building.grid.to_wgs84(GridPosition(5.0, 3.0))
        )
        outside = building.resolve(
            building.grid.to_wgs84(GridPosition(-100.0, 0.0))
        )
        assert inside.is_inside and not outside.is_inside


class TestDatumKindGuards:
    def test_beacon_scan_kind_registered_in_default_map(self):
        from repro.core.middleware import DEFAULT_KIND_MAP

        assert DEFAULT_KIND_MAP["beacon-scan"] == Kind.BEACON_SCAN
