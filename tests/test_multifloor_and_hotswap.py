"""Multi-floor building model, extended channel requirements, hot-swap."""

import pytest

from repro.core import Kind, PerPos
from repro.core.channel import ChannelFeature
from repro.core.component import ApplicationSink, FunctionComponent, SourceComponent
from repro.core.features import FeatureError
from repro.core.graph import ProcessingGraph
from repro.core.pcl import ProcessChannelLayer
from repro.geo.grid import GridPosition
from repro.geo.wgs84 import Wgs84Position
from repro.model.demo import demo_two_floor_building
from repro.processing.pipelines import build_gps_pipeline
from repro.sensors.emulator import EmulatorSensor
from repro.sensors.gps import GpsReceiver
from repro.sensors.trajectory import Waypoint, WaypointTrajectory


class TestTwoFloorBuilding:
    @pytest.fixture(scope="class")
    def building(self):
        return demo_two_floor_building()

    def test_floor_inventory(self, building):
        assert [f.level for f in building.floors] == [0, 1]
        assert len(building.floor(0).rooms) == 9
        assert len(building.floor(1).rooms) == 5

    def test_room_resolution_per_floor(self, building):
        ground = GridPosition(5.0, 12.0, floor=0)
        upper = GridPosition(5.0, 12.0, floor=1)
        assert building.room_at(ground).room_id == "N1"
        assert building.room_at(upper).room_id == "1N1"

    def test_altitude_selects_floor(self, building):
        over_n1 = building.grid.to_wgs84(GridPosition(5.0, 12.0, floor=1))
        assert over_n1.altitude_m == pytest.approx(3.0, abs=0.01)
        assert building.room_at_wgs84(over_n1).room_id == "1N1"

    def test_walls_are_per_floor(self, building):
        # x=10 partition exists on floor 0 but not on floor 1.
        a0 = GridPosition(9.0, 12.0, floor=0)
        b0 = GridPosition(11.0, 12.0, floor=0)
        a1 = GridPosition(9.0, 12.0, floor=1)
        b1 = GridPosition(11.0, 12.0, floor=1)
        assert building.crosses_wall(a0, b0)
        assert not building.crosses_wall(a1, b1)

    def test_cross_floor_move_blocked(self, building):
        a = GridPosition(5.0, 12.0, floor=0)
        b = GridPosition(5.0, 12.0, floor=1)
        assert building.crosses_wall(a, b)

    def test_room_centroids_resolve(self, building):
        for room in building.rooms():
            assert building.room_at(room.centroid).room_id == room.room_id


class ProvidingChannelFeature(ChannelFeature):
    name = "Base"

    def apply(self, tree):
        pass


class DependentChannelFeature(ChannelFeature):
    name = "Dependent"
    requires_channel_features = ("Base",)

    def apply(self, tree):
        pass


class NeedsParser(ChannelFeature):
    name = "NeedsParser"
    requires_components = ("middle",)

    def apply(self, tree):
        pass


class NeedsTypeName(ChannelFeature):
    name = "NeedsTypeName"
    requires_components = ("FunctionComponent",)

    def apply(self, tree):
        pass


class TestChannelFeatureRequirements:
    def build(self):
        graph = ProcessingGraph()
        source = SourceComponent("src", ("x",))
        middle = FunctionComponent("middle", ("x",), ("x",), fn=lambda d: d)
        sink = ApplicationSink("app", ("x",))
        for c in (source, middle, sink):
            graph.add(c)
        graph.connect("src", "middle")
        graph.connect("middle", "app")
        pcl = ProcessChannelLayer(graph)
        return pcl.channel("src->app")

    def test_channel_feature_dependency_enforced(self):
        channel = self.build()
        with pytest.raises(FeatureError):
            channel.attach_feature(DependentChannelFeature())
        channel.attach_feature(ProvidingChannelFeature())
        channel.attach_feature(DependentChannelFeature())
        assert channel.get_feature("Dependent") is not None

    def test_component_requirement_by_name(self):
        channel = self.build()
        channel.attach_feature(NeedsParser())

    def test_component_requirement_by_type_name(self):
        channel = self.build()
        channel.attach_feature(NeedsTypeName())

    def test_missing_component_requirement(self):
        class NeedsGhost(ChannelFeature):
            name = "NeedsGhost"
            requires_components = ("ghost",)

            def apply(self, tree):
                pass

        channel = self.build()
        with pytest.raises(FeatureError):
            channel.attach_feature(NeedsGhost())


class TestSensorHotSwap:
    """§3.2's deployment move: the emulator 'was plugged into the
    processing graph, taking the place of the sensors' -- here performed
    live on a running middleware."""

    def test_replace_live_gps_with_emulator(self):
        start = Wgs84Position(56.17, 10.19)
        trajectory = WaypointTrajectory(
            [Waypoint(0.0, start), Waypoint(120.0, start.moved(90.0, 150.0))]
        )
        middleware = PerPos()
        live = GpsReceiver("gps", trajectory, seed=1)
        pipeline = build_gps_pipeline(middleware, live, prefix="gps")
        provider = middleware.create_provider(
            "app", accepts=(Kind.POSITION_WGS84,)
        )
        middleware.graph.connect(pipeline.interpreter, provider.sink.name)
        middleware.run_until(30.0)
        live_positions = len(provider.sink.received)
        assert live_positions > 0

        # Record a replacement trace from a second device, then hot-swap.
        recorder = GpsReceiver("gps-recorded", trajectory, seed=2)
        recorded = recorder.sample(120.0)
        middleware.detach_sensor("gps")
        emulator = EmulatorSensor(recorded, sensor_id="gps")
        source = middleware.attach_sensor(emulator, (Kind.NMEA_RAW,))
        middleware.graph.connect(source.name, pipeline.parser)

        middleware.run_until(60.0)
        assert len(provider.sink.received) > live_positions
        # The downstream pipeline object identity never changed.
        assert middleware.graph.component(pipeline.parser) is not None
        assert middleware.graph.upstream(pipeline.parser) == ["gps"]

    def test_channels_rebuilt_after_swap(self):
        start = Wgs84Position(56.17, 10.19)
        trajectory = WaypointTrajectory(
            [Waypoint(0.0, start), Waypoint(60.0, start.moved(90.0, 80.0))]
        )
        middleware = PerPos()
        live = GpsReceiver("gps", trajectory, seed=1)
        pipeline = build_gps_pipeline(middleware, live, prefix="gps")
        provider = middleware.create_provider(
            "app", accepts=(Kind.POSITION_WGS84,)
        )
        middleware.graph.connect(pipeline.interpreter, provider.sink.name)
        assert [c.id for c in middleware.pcl.channels()] == ["gps->app"]
        middleware.detach_sensor("gps")
        # With the source gone the parser is temporarily the strand head.
        assert [c.id for c in middleware.pcl.channels()] == [
            "gps-parser->app"
        ]
        emulator = EmulatorSensor(
            GpsReceiver("gps-rec", trajectory, seed=2).sample(60.0),
            sensor_id="gps",
        )
        source = middleware.attach_sensor(emulator, (Kind.NMEA_RAW,))
        middleware.graph.connect(source.name, pipeline.parser)
        assert [c.id for c in middleware.pcl.channels()] == ["gps->app"]
