"""WiFi sensing substrate (system S4).

Substitution note (DESIGN.md §4): the paper's indoor fixes come from a
campus WiFi positioning deployment.  We rebuild the physical layer it sits
on: access points at known building-grid positions and a log-distance
path-loss radio model with per-wall attenuation and log-normal shadowing.
The scanner emits :class:`WifiScan` readings; the fingerprinting engine in
:mod:`repro.processing.wifi_positioning` turns scans into positions,
matching them against a :class:`RadioMap` built here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.geo.grid import GridPosition, LocalGrid
from repro.sensors.base import SensorReading, SimulatedSensor
from repro.sensors.trajectory import Trajectory


@dataclass(frozen=True)
class AccessPoint:
    """A WiFi access point at a known building-grid position."""

    bssid: str
    position: GridPosition
    tx_power_dbm: float = -40.0  # received power at 1 m


@dataclass(frozen=True)
class WifiObservation:
    """One AP observed in a scan."""

    bssid: str
    rssi_dbm: float


@dataclass(frozen=True)
class WifiScan:
    """The result of one scan cycle: every AP heard above the floor."""

    timestamp: float
    observations: Tuple[WifiObservation, ...]

    def rssi_of(self, bssid: str) -> Optional[float]:
        for obs in self.observations:
            if obs.bssid == bssid:
                return obs.rssi_dbm
        return None

    def as_dict(self) -> Mapping[str, float]:
        return {o.bssid: o.rssi_dbm for o in self.observations}


#: Counts walls on the straight line between two grid positions.
WallCounter = Callable[[GridPosition, GridPosition], int]


class RadioEnvironment:
    """Log-distance path loss with wall attenuation and shadowing.

    ``rssi = tx_power - 10 * n * log10(d) - walls * wall_loss + shadowing``
    with path-loss exponent ``n`` and per-sample log-normal shadowing.
    The expected (noise-free) RSSI is exposed separately so that radio maps
    can be built from the model itself, as site surveys effectively do.
    """

    def __init__(
        self,
        access_points: Sequence[AccessPoint],
        path_loss_exponent: float = 3.0,
        wall_loss_db: float = 6.0,
        shadowing_sigma_db: float = 3.5,
        noise_floor_dbm: float = -95.0,
        wall_counter: Optional[WallCounter] = None,
    ) -> None:
        if not access_points:
            raise ValueError("need at least one access point")
        self.access_points = list(access_points)
        self.path_loss_exponent = path_loss_exponent
        self.wall_loss_db = wall_loss_db
        self.shadowing_sigma_db = shadowing_sigma_db
        self.noise_floor_dbm = noise_floor_dbm
        self._wall_counter = wall_counter

    def expected_rssi(
        self, ap: AccessPoint, position: GridPosition
    ) -> float:
        """Noise-free RSSI of ``ap`` heard at ``position``."""
        distance = max(1.0, ap.position.distance_to(position))
        loss = 10.0 * self.path_loss_exponent * math.log10(distance)
        walls = 0
        if self._wall_counter is not None:
            walls = self._wall_counter(ap.position, position)
        return ap.tx_power_dbm - loss - walls * self.wall_loss_db

    def observe(
        self, position: GridPosition, rng: random.Random
    ) -> List[WifiObservation]:
        """One noisy scan at ``position``: APs above the noise floor."""
        observations = []
        for ap in self.access_points:
            rssi = self.expected_rssi(ap, position) + rng.gauss(
                0.0, self.shadowing_sigma_db
            )
            if rssi >= self.noise_floor_dbm:
                observations.append(WifiObservation(ap.bssid, rssi))
        observations.sort(key=lambda o: o.rssi_dbm, reverse=True)
        return observations


class WifiScanner(SimulatedSensor):
    """A device scanning the radio environment along a trajectory.

    Emits one :class:`WifiScan` per scan period.  Positions are projected
    into the building grid through ``grid``; scanning outside radio range
    yields empty scans, which downstream components must tolerate (that is
    one of the "seams" the paper is about).
    """

    def __init__(
        self,
        sensor_id: str,
        trajectory: Trajectory,
        environment: RadioEnvironment,
        grid: LocalGrid,
        seed: int = 0,
        scan_period_s: float = 2.0,
    ) -> None:
        super().__init__(sensor_id)
        if scan_period_s <= 0:
            raise ValueError("scan_period_s must be positive")
        self.trajectory = trajectory
        self.environment = environment
        self.grid = grid
        self._rng = random.Random(seed)
        self._period = scan_period_s
        self._next_scan = 0.0

    def describe(self) -> dict:
        return {
            "sensor_id": self.sensor_id,
            "type": "WifiScanner",
            "technology": "wifi",
            "output": "wifi-scan",
            "rate_hz": 1.0 / self._period,
        }

    def sample(self, now: float) -> List[SensorReading]:
        readings: List[SensorReading] = []
        while self._next_scan <= now:
            t = self._next_scan
            truth = self.trajectory.position_at(t)
            grid_pos = self.grid.to_grid(truth)
            scan = WifiScan(
                timestamp=t,
                observations=tuple(
                    self.environment.observe(grid_pos, self._rng)
                ),
            )
            readings.append(
                SensorReading(self.sensor_id, t, scan, {"format": "wifi-scan"})
            )
            self._next_scan += self._period
        return readings


#: RSSI assumed for an AP a vector does not hear: the fill value of the
#: fingerprint index's dense rows and of signal-distance comparisons.
MISSING_DBM = -95.0

#: One radio-map entry: a survey position and the RSSI vector heard there.
RadioMapEntry = Tuple[GridPosition, Mapping[str, float]]


@dataclass(frozen=True)
class FingerprintIndex:
    """A radio map laid out for weighted-kNN matching.

    ``column`` maps the map's APs, in sorted order, to the columns of
    every row.  ``positions`` holds the survey points that hear at
    least one AP, in radio-map order; the indexes in ``groups`` point
    into it.  ``groups`` holds one ``(coverage bitmask, indexes, dense
    rows)`` triple per distinct set of heard APs, in order of first
    appearance, with unheard APs at :data:`MISSING_DBM`: the survey
    points share a handful of coverage sets, so a matcher sizes each
    AP union once per set.
    """

    column: Mapping[str, int]
    positions: Tuple[GridPosition, ...]
    groups: Tuple[
        Tuple[int, Tuple[int, ...], Tuple[Tuple[float, ...], ...]], ...
    ]

    @classmethod
    def build(cls, entries: Iterable[RadioMapEntry]) -> "FingerprintIndex":
        surveyed = [(pos, vector) for pos, vector in entries if vector]
        access_points = sorted(
            {bssid for _pos, vector in surveyed for bssid in vector}
        )
        column = {bssid: j for j, bssid in enumerate(access_points)}
        positions: List[GridPosition] = []
        groups: Dict[int, Tuple[List[int], List[Tuple[float, ...]]]] = {}
        blank = [MISSING_DBM] * len(column)
        for index, (pos, vector) in enumerate(surveyed):
            row = list(blank)
            mask = 0
            for bssid, rssi in vector.items():
                j = column[bssid]
                row[j] = rssi
                mask |= 1 << j
            positions.append(pos)
            group = groups.get(mask)
            if group is None:
                group = groups[mask] = ([], [])
            group[0].append(index)
            group[1].append(tuple(row))
        return cls(
            column,
            tuple(positions),
            tuple(
                (mask, tuple(indexes), tuple(rows))
                for mask, (indexes, rows) in groups.items()
            ),
        )


class RadioMap(Sequence[RadioMapEntry]):
    """An immutable survey radio map: one RSSI vector per survey position.

    The map owns the fingerprint matcher's :class:`FingerprintIndex`:
    built on the first :meth:`index` call, it is shared by every
    matcher given this map.  Immutability (a tuple of entries,
    read-only vectors) is what keeps the shared index current.
    """

    def __init__(self, entries: Iterable[RadioMapEntry]) -> None:
        self._entries: Tuple[RadioMapEntry, ...] = tuple(
            (pos, MappingProxyType(dict(vector))) for pos, vector in entries
        )
        self._index: Optional[FingerprintIndex] = None

    def index(self) -> FingerprintIndex:
        """The matcher index, built on the first call."""
        index = self._index
        if index is None:
            index = self._index = FingerprintIndex.build(self._entries)
        return index

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, i: Any) -> Any:
        return self._entries[i]

    def __iter__(self) -> Iterator[RadioMapEntry]:
        return iter(self._entries)


def build_radio_map(
    environment: RadioEnvironment,
    positions: Sequence[GridPosition],
) -> RadioMap:
    """A survey radio map: expected RSSI vector at each survey position.

    This plays the role of the offline calibration phase of a fingerprint
    positioning system; the online phase is in
    :mod:`repro.processing.wifi_positioning`.
    """
    radio_map = []
    for pos in positions:
        vector = {
            ap.bssid: environment.expected_rssi(ap, pos)
            for ap in environment.access_points
        }
        vector = {
            bssid: rssi
            for bssid, rssi in vector.items()
            if rssi >= environment.noise_floor_dbm
        }
        radio_map.append((pos, vector))
    return RadioMap(radio_map)
