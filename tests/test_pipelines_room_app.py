"""Integration test: the Fig. 1 Room Number Application end to end."""

import os
import subprocess
import sys

import pytest

from repro.core import Criteria, Kind, PerPos
from repro.geo.grid import GridPosition
from repro.model.demo import demo_building, demo_radio_environment
from repro.processing.pipelines import (
    build_gps_pipeline,
    build_room_app,
    build_wifi_pipeline,
)
from repro.sensors.gps import GpsReceiver, INDOOR, OPEN_SKY
from repro.sensors.trajectory import Waypoint, WaypointTrajectory
from repro.sensors.wifi import WifiScanner


def run_room_app(until_s):
    """Walk from outside through the corridor into office N2."""
    building = demo_building()
    grid = building.grid
    waypoints = [
        Waypoint(0.0, grid.to_wgs84(GridPosition(-30.0, 7.5))),
        Waypoint(30.0, grid.to_wgs84(GridPosition(-2.0, 7.5))),
        Waypoint(50.0, grid.to_wgs84(GridPosition(15.0, 7.5))),
        Waypoint(70.0, grid.to_wgs84(GridPosition(15.0, 12.0))),
        Waypoint(120.0, grid.to_wgs84(GridPosition(15.0, 12.0))),
    ]
    trajectory = WaypointTrajectory(waypoints)

    def environment(t, position):
        return (
            INDOOR
            if building.contains(grid.to_grid(position))
            else OPEN_SKY
        )

    gps = GpsReceiver("gps-dev", trajectory, environment, seed=11)
    wifi = WifiScanner(
        "wifi-dev",
        trajectory,
        demo_radio_environment(building),
        grid,
        seed=12,
    )
    middleware = PerPos()
    app = build_room_app(middleware, gps, wifi, building)
    middleware.run_until(until_s)
    return building, trajectory, middleware, app


@pytest.fixture(scope="module")
def room_app_run():
    return run_room_app(120.0)


class TestRoomApp:
    def test_structure_matches_fig1(self, room_app_run):
        _b, _t, middleware, app = room_app_run
        structure = middleware.psl.structure()
        for name in ("gps-parser", "gps-interpreter", "wifi-positioning",
                     "fusion", "resolver"):
            assert name in structure

    def test_channels_match_fig2(self, room_app_run):
        _b, _t, middleware, _app = room_app_run
        ids = [c.id for c in middleware.pcl.channels()]
        assert "gps->fusion" in ids
        assert "wifi->fusion" in ids

    def test_positions_and_rooms_delivered(self, room_app_run):
        _b, _t, _mw, app = room_app_run
        kinds = {d.kind for d in app.provider.sink.received}
        assert Kind.POSITION_WGS84 in kinds
        assert Kind.ROOM_ID in kinds

    def test_final_room_is_n2(self, room_app_run):
        _b, _t, _mw, app = room_app_run
        room = app.provider.last_known(Kind.ROOM_ID)
        assert room.payload.room_id == "N2"

    def test_final_position_close_to_truth(self, room_app_run):
        _b, trajectory, _mw, app = room_app_run
        truth = trajectory.position_at(120.0)
        reported = app.provider.last_position()
        assert truth.distance_to(reported) < 10.0

    def test_provider_discoverable_by_criteria(self, room_app_run):
        _b, _t, middleware, app = room_app_run
        chosen = middleware.get_provider(
            Criteria(kind=Kind.ROOM_ID, technology="wifi")
        )
        assert chosen is app.provider

    def test_indoor_positions_come_from_wifi(self, room_app_run):
        """While indoors the GPS is stale/absent; fusion must have chosen
        the WiFi engine for the late (indoor) part of the walk."""
        _b, _t, _mw, app = room_app_run
        late_positions = [
            d
            for d in app.provider.sink.received
            if d.kind == Kind.POSITION_WGS84 and d.timestamp > 90.0
        ]
        assert late_positions
        sources = {
            d.attributes.get("selected_source") for d in late_positions
        }
        assert "wifi-positioning" in sources


class TestPipelineBuilders:
    def test_gps_pipeline_names(self):
        building = demo_building()
        grid = building.grid
        trajectory = WaypointTrajectory(
            [
                Waypoint(0.0, grid.to_wgs84(GridPosition(0.0, 0.0))),
                Waypoint(10.0, grid.to_wgs84(GridPosition(5.0, 0.0))),
            ]
        )
        middleware = PerPos()
        gps = GpsReceiver("g", trajectory, seed=0)
        pipeline = build_gps_pipeline(middleware, gps, prefix="g")
        assert pipeline.source == "g"
        assert middleware.graph.downstream("g") == [pipeline.parser]

    def test_wifi_pipeline_names(self):
        building = demo_building()
        grid = building.grid
        trajectory = WaypointTrajectory(
            [
                Waypoint(0.0, grid.to_wgs84(GridPosition(0.0, 0.0))),
                Waypoint(10.0, grid.to_wgs84(GridPosition(5.0, 0.0))),
            ]
        )
        middleware = PerPos()
        wifi = WifiScanner(
            "w", trajectory, demo_radio_environment(building), grid
        )
        pipeline = build_wifi_pipeline(middleware, wifi, building, prefix="w")
        assert middleware.graph.downstream("w") == [pipeline.engine]


class TestHashSeedIndependence:
    """The room app's outputs must not follow set iteration order."""

    SCRIPT = (
        "from tests.test_pipelines_room_app import run_room_app\n"
        "_b, _t, _mw, app = run_room_app(40.0)\n"
        "print(repr(app.provider.sink.received))\n"
    )

    def outputs_under(self, hash_seed):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = [root, os.path.join(root, "src")]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        env = dict(
            os.environ,
            PYTHONHASHSEED=str(hash_seed),
            PYTHONPATH=os.pathsep.join(paths),
        )
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env,
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        )
        return result.stdout

    def test_outputs_identical_under_two_hash_seeds(self):
        first = self.outputs_under(1)
        # The walk reaches the building: WiFi fixes win fusion.
        assert "'selected_source': 'wifi-positioning'" in first
        assert first == self.outputs_under(2)
