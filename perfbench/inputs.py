"""Seeded inputs for the benchmark workloads.

Everything here runs before any timing starts, and the program under
test only ever sees the lists built here: sensor readings for
``room_process`` and raw wire payloads for the two edge workloads.  The
same seed always yields the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core.data import Datum, Kind
from repro.geo.grid import GridPosition
from repro.model.demo import demo_building, demo_radio_environment
from repro.scenario import (
    GPS_KIND,
    WIFI_KIND,
    BurstEvent,
    CityConfig,
    CityGenerator,
)
from repro.sensors.gps import INDOOR, OPEN_SKY, GpsReceiver
from repro.sensors.trajectory import Waypoint, WaypointTrajectory
from repro.sensors.wifi import WifiScanner

#: ``room_process`` size: targets, each with its own Fig. 1 process,
#: walked for this many simulated seconds.  Even targets move between
#: points inside the demo building, odd ones on open ground south of it,
#: so the indoor/outdoor mix (and with it the GPS fix rate) is the same
#: for every seed.
ROOM_TARGETS = 12
ROOM_TICKS = 90
ROOM_INDOOR = ((1.0, 39.0), (1.0, 14.0))
ROOM_OUTDOOR = ((-40.0, 80.0), (-100.0, -30.0))
#: One GPS epoch and one WiFi scan per target per second, so every tick
#: carries the same kind of work.
ROOM_SCAN_PERIOD_S = 1.0

#: Edge workload size.  One tick is one simulated second; churn and the
#: degraded GPS zones are the city generator's defaults.
EDGE_DEVICES = 100
EDGE_TICKS = 160
EDGE_CHURN = 0.01
#: A citywide tenfold burst for eight ticks: every lane overflows (see
#: ``programs.EDGE_LANE_CAPACITY``) and the backlog takes about ten more
#: ticks to drain.  Short, so most outputs still see an unloaded tick.
EDGE_BURST = BurstEvent("citywide", 60, 8, 1000.0, 1000.0, 1500.0, factor=10)
#: Every device carries WiFi and BLE (and nine in ten GPS), so the
#: traffic volume barely varies from seed to seed.
EDGE_SENSORS = {"p_gps": 0.9, "p_wifi": 1.0, "p_ble": 1.0}

#: Wire format names the edge payloads declare.
GPS_FORMAT = "phone_tracker_v1"
WIFI_FORMAT = "city_wifi_v1"
BLE_FORMAT = "city_ble_v1"

#: Share of GPS payloads shipped in the legacy ``latitude``/``longitude``
#: layout that the gateway's crosswalk admits.
LEGACY_SHARE = 0.2
#: Share of payloads followed by a planted malformed copy, which the
#: gateway must dead-letter.
MALFORMED_SHARE = 0.01


def room_lane(target: int, strand: str) -> str:
    """Lane id of one target's GPS or WiFi strand."""
    return f"t{target:03d}/{strand}"


def room_source(target: int, strand: str) -> str:
    """Graph source component a lane enters at."""
    return f"t{target:03d}-{strand}"


@dataclass(frozen=True)
class RoomInputs:
    """Per tick, the ``(lane id, datum)`` readings of every target."""

    targets: int
    ticks: Tuple[Tuple[Tuple[str, Datum], ...], ...]
    count: int


def _walk(
    rng: random.Random, grid: Any, region: Any, duration_s: float
) -> WaypointTrajectory:
    """Walk between random points of a box at 1.2 m/s, pausing up to
    4 s at each."""
    (x0, x1), (y0, y1) = region

    def point() -> GridPosition:
        return GridPosition(rng.uniform(x0, x1), rng.uniform(y0, y1))

    here = point()
    now = 0.0
    waypoints = [Waypoint(now, grid.to_wgs84(here))]
    while now <= duration_s:
        now += rng.uniform(0.5, 4.0)
        waypoints.append(Waypoint(now, grid.to_wgs84(here)))
        there = point()
        now += max(1.0, here.distance_to(there) / 1.2)
        waypoints.append(Waypoint(now, grid.to_wgs84(there)))
        here = there
    return WaypointTrajectory(waypoints)


def room_inputs(seed: int) -> RoomInputs:
    """NMEA fragments and WiFi scans from seeded walkers in and around
    the demo building."""
    rng = random.Random(seed)
    building = demo_building()
    grid = building.grid
    environment = demo_radio_environment(building)

    def sky(_t: float, position: Any) -> Any:
        inside = building.contains(grid.to_grid(position))
        return INDOOR if inside else OPEN_SKY

    sensors = []
    for target in range(ROOM_TARGETS):
        region = ROOM_INDOOR if target % 2 == 0 else ROOM_OUTDOOR
        walk = _walk(rng, grid, region, ROOM_TICKS + 10.0)
        gps = GpsReceiver(
            room_source(target, "gps"), walk, sky, seed=rng.randrange(1 << 30)
        )
        wifi = WifiScanner(
            room_source(target, "wifi"),
            walk,
            environment,
            grid,
            seed=rng.randrange(1 << 30),
            scan_period_s=ROOM_SCAN_PERIOD_S,
        )
        sensors.append(
            (
                (gps, room_lane(target, "gps"), Kind.NMEA_RAW),
                (wifi, room_lane(target, "wifi"), Kind.WIFI_SCAN),
            )
        )
    out = []
    count = 0
    for tick in range(ROOM_TICKS):
        readings: List[Tuple[str, Datum]] = []
        for pair in sensors:
            for sensor, lane, kind in pair:
                for reading in sensor.sample(float(tick)):
                    readings.append(
                        (
                            lane,
                            Datum(
                                kind=kind,
                                payload=reading.payload,
                                timestamp=float(tick),
                                producer=sensor.sensor_id,
                                attributes={
                                    **reading.attributes,
                                    "target": lane,
                                },
                            ),
                        )
                    )
        count += len(readings)
        out.append(tuple(readings))
    return RoomInputs(ROOM_TARGETS, tuple(out), count)


@dataclass(frozen=True)
class EdgeTick:
    """One simulated second of edge traffic."""

    left: Tuple[str, ...]
    payloads: Tuple[Any, ...]


@dataclass(frozen=True)
class EdgeInputs:
    """Raw wire traffic of a seeded city, tick by tick.

    ``generator`` is the city after the last tick; the control view
    reads its summary.  ``planted`` counts the malformed payloads the
    gateway must reject and ``legacy`` the GPS payloads in the legacy
    layout.
    """

    generator: CityGenerator
    ticks: Tuple[EdgeTick, ...]
    count: int
    planted: int
    legacy: int


def _malformed(payload: Dict[str, Any], variant: int) -> Any:
    """A broken copy of a valid payload, one of five ways to break it."""
    if variant == 0:
        return {**payload, "source_format": "tracker_v0"}
    if variant == 1:
        return {k: v for k, v in payload.items() if k != "device_id"}
    if variant == 2:
        return {**payload, "timestamp": "yesterday"}
    if variant == 3:
        return f"{payload.get('device_id')}:{payload.get('timestamp')}"
    return {**payload, "device_id": 42}


def edge_inputs(seed: int) -> EdgeInputs:
    """Every city emission as a wire payload, plus planted bad ones.

    GPS crosses as ``phone_tracker_v1`` (a share in the legacy layout);
    WiFi and BLE use the two formats the programs register.
    """
    generator = CityGenerator(
        CityConfig(
            seed=seed,
            devices=EDGE_DEVICES,
            churn_rate=EDGE_CHURN,
            bursts=(EDGE_BURST,),
            **EDGE_SENSORS,
        )
    )
    rng = random.Random(seed * 7919 + 17)
    out = []
    count = planted = legacy = 0
    for _ in range(EDGE_TICKS):
        batch = generator.advance()
        payloads: List[Any] = []
        for device_id, datum in batch.events:
            if datum.kind == GPS_KIND:
                payload = generator.wire_payload(device_id, datum)
                payload["source_format"] = GPS_FORMAT
                if rng.random() < LEGACY_SHARE:
                    payload["latitude"] = payload.pop("lat")
                    payload["longitude"] = payload.pop("lon")
                    legacy += 1
            else:
                wifi = datum.kind == WIFI_KIND
                payload = {
                    "source_format": WIFI_FORMAT if wifi else BLE_FORMAT,
                    "device_id": device_id,
                    "timestamp": float(datum.timestamp),
                    "ap" if wifi else "beacon": datum.payload[0],
                    "rssi_dbm": datum.payload[1],
                }
            payloads.append(payload)
            if rng.random() < MALFORMED_SHARE:
                payloads.append(_malformed(payload, planted % 5))
                planted += 1
        count += len(payloads)
        out.append(EdgeTick(tuple(batch.left), tuple(payloads)))
    return EdgeInputs(generator, tuple(out), count, planted, legacy)
