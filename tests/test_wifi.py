"""Tests for the WiFi radio environment and scanner."""

import random
import statistics

import pytest

from repro.geo.grid import GridPosition
from repro.geo.wgs84 import Wgs84Position
from repro.model.demo import demo_building, demo_radio_environment
from repro.sensors.trajectory import StationaryTrajectory
from repro.sensors.wifi import (
    AccessPoint,
    RadioEnvironment,
    WifiObservation,
    WifiScan,
    WifiScanner,
    build_radio_map,
)

AP = AccessPoint("ap:test", GridPosition(0.0, 0.0))


def open_environment(**kwargs):
    kwargs.setdefault("shadowing_sigma_db", 0.0)
    return RadioEnvironment([AP], **kwargs)


class TestPathLoss:
    def test_rssi_decreases_with_distance(self):
        env = open_environment()
        near = env.expected_rssi(AP, GridPosition(2.0, 0.0))
        far = env.expected_rssi(AP, GridPosition(20.0, 0.0))
        assert near > far

    def test_below_one_metre_clamped(self):
        env = open_environment()
        at_ap = env.expected_rssi(AP, GridPosition(0.0, 0.0))
        nearby = env.expected_rssi(AP, GridPosition(0.5, 0.0))
        assert at_ap == nearby == AP.tx_power_dbm

    def test_path_loss_exponent_controls_slope(self):
        gentle = open_environment(path_loss_exponent=2.0)
        steep = open_environment(path_loss_exponent=4.0)
        p = GridPosition(30.0, 0.0)
        assert steep.expected_rssi(AP, p) < gentle.expected_rssi(AP, p)

    def test_walls_attenuate(self):
        env = RadioEnvironment(
            [AP],
            shadowing_sigma_db=0.0,
            wall_loss_db=6.0,
            wall_counter=lambda a, b: 2,
        )
        free = open_environment()
        p = GridPosition(10.0, 0.0)
        assert env.expected_rssi(AP, p) == pytest.approx(
            free.expected_rssi(AP, p) - 12.0
        )

    def test_requires_access_points(self):
        with pytest.raises(ValueError):
            RadioEnvironment([])


class TestObservation:
    def test_weak_aps_fall_below_noise_floor(self):
        env = open_environment(noise_floor_dbm=-60.0)
        rng = random.Random(0)
        far = env.observe(GridPosition(500.0, 0.0), rng)
        assert far == []

    def test_observations_sorted_strongest_first(self):
        aps = [
            AccessPoint("a", GridPosition(0.0, 0.0)),
            AccessPoint("b", GridPosition(50.0, 0.0)),
        ]
        env = RadioEnvironment(aps, shadowing_sigma_db=0.0)
        obs = env.observe(GridPosition(5.0, 0.0), random.Random(0))
        assert [o.bssid for o in obs] == ["a", "b"]

    def test_shadowing_adds_noise(self):
        env = RadioEnvironment([AP], shadowing_sigma_db=4.0)
        rng = random.Random(1)
        p = GridPosition(10.0, 0.0)
        samples = [env.observe(p, rng)[0].rssi_dbm for _ in range(50)]
        assert statistics.stdev(samples) > 1.0


class TestWifiScan:
    def test_rssi_of_lookup(self):
        scan = WifiScan(0.0, (WifiObservation("x", -50.0),))
        assert scan.rssi_of("x") == -50.0
        assert scan.rssi_of("y") is None

    def test_as_dict(self):
        scan = WifiScan(
            0.0,
            (WifiObservation("x", -50.0), WifiObservation("y", -60.0)),
        )
        assert scan.as_dict() == {"x": -50.0, "y": -60.0}


class TestScanner:
    def test_scan_period_respected(self):
        building = demo_building()
        env = demo_radio_environment(building)
        inside = building.grid.to_wgs84(GridPosition(20.0, 7.5))
        scanner = WifiScanner(
            "wifi0",
            StationaryTrajectory(inside, 100.0),
            env,
            building.grid,
            scan_period_s=2.0,
        )
        readings = scanner.sample(10.0)
        assert len(readings) == 6  # t = 0, 2, 4, 6, 8, 10
        assert all(isinstance(r.payload, WifiScan) for r in readings)

    def test_indoor_scan_sees_aps(self):
        building = demo_building()
        env = demo_radio_environment(building)
        inside = building.grid.to_wgs84(GridPosition(20.0, 7.5))
        scanner = WifiScanner(
            "wifi0",
            StationaryTrajectory(inside, 10.0),
            env,
            building.grid,
            seed=1,
        )
        scan = scanner.sample(0.0)[0].payload
        assert len(scan.observations) >= 2

    def test_far_away_scan_is_empty(self):
        building = demo_building()
        env = demo_radio_environment(building)
        far = building.grid.to_wgs84(GridPosition(5000.0, 5000.0))
        scanner = WifiScanner(
            "wifi0",
            StationaryTrajectory(far, 10.0),
            env,
            building.grid,
            seed=1,
        )
        scan = scanner.sample(0.0)[0].payload
        assert scan.observations == ()

    def test_rejects_nonpositive_period(self):
        building = demo_building()
        with pytest.raises(ValueError):
            WifiScanner(
                "wifi0",
                StationaryTrajectory(Wgs84Position(0, 0), 1.0),
                demo_radio_environment(building),
                building.grid,
                scan_period_s=0.0,
            )


class TestRadioMap:
    def test_map_covers_positions_in_range(self):
        env = open_environment()
        positions = [GridPosition(x, 0.0) for x in (1.0, 10.0, 30.0)]
        radio_map = build_radio_map(env, positions)
        assert len(radio_map) == 3
        for _pos, vector in radio_map:
            assert "ap:test" in vector

    def test_map_drops_out_of_range_entries(self):
        env = open_environment(noise_floor_dbm=-50.0)
        radio_map = build_radio_map(env, [GridPosition(1000.0, 0.0)])
        assert radio_map[0][1] == {}

    def test_map_is_immutable(self):
        radio_map = build_radio_map(open_environment(), [GridPosition(1.0, 0.0)])
        with pytest.raises(TypeError):
            radio_map[0][1]["ap:test"] = -30.0
        with pytest.raises(TypeError):
            radio_map[0] = (GridPosition(2.0, 0.0), {})
