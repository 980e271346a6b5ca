"""The WiFi fingerprint positioning engine.

Substitution for the paper's campus "indoor WiFi positioning system"
(Fig. 1): classic two-phase fingerprinting.  The offline phase is a radio
map -- RSSI vectors at known grid positions, built by
:func:`repro.sensors.wifi.build_radio_map` -- and the online phase is
weighted k-nearest-neighbours in signal space, producing positions in
both the building grid and WGS84.

The matcher scores against the radio map's
:class:`~repro.sensors.wifi.FingerprintIndex`: the map's APs in sorted
order, one dense RSSI tuple per survey point (unheard APs at the noise
floor) and one AP bitmask per point.  The
:class:`~repro.sensors.wifi.RadioMap` builds that index once and every
matcher given the map shares it; a plain sequence of entries is wrapped
in a map of its own.  Scoring a scan costs one :func:`math.dist` per
survey point; the size of each point's AP union comes from the
bitmasks, counted once per distinct mask, and scan APs the map never
heard add one constant to every point.  The k nearest come from
:func:`heapq.nsmallest`, ties resolved in radio-map order.  Every sum
runs in a fixed order, so no estimate depends on the interpreter's hash
seed.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Mapping, Sequence, Tuple

from repro.core.component import InputPort, OutputPort, ProcessingComponent
from repro.core.data import Datum, Kind
from repro.geo.grid import GridPosition, LocalGrid
from repro.sensors.wifi import MISSING_DBM, RadioMap, RadioMapEntry, WifiScan


def signal_distance(
    a: Mapping[str, float], b: Mapping[str, float], missing_dbm: float = MISSING_DBM
) -> float:
    """Euclidean distance between RSSI vectors over the union of APs.

    APs heard in one vector but not the other count as received at the
    noise floor, which penalises disagreeing coverage sets.  The sum runs
    over the APs in sorted order, so the result is the same under every
    hash seed.
    """
    keys = sorted(set(a) | set(b))
    if not keys:
        return float("inf")
    total = 0.0
    for key in keys:
        va = a.get(key, missing_dbm)
        vb = b.get(key, missing_dbm)
        total += (va - vb) ** 2
    return math.sqrt(total / len(keys))


class FingerprintPositioningComponent(ProcessingComponent):
    """Weighted-kNN fingerprint matcher over an indexed survey radio map."""

    def __init__(
        self,
        radio_map: Sequence[RadioMapEntry],
        grid: LocalGrid,
        k: int = 3,
        name: str = "wifi-positioning",
        min_observations: int = 1,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        super().__init__(
            name,
            inputs=(InputPort("in", (Kind.WIFI_SCAN,)),),
            output=OutputPort((Kind.POSITION_WGS84, Kind.POSITION_GRID)),
        )
        if not isinstance(radio_map, RadioMap):
            radio_map = RadioMap(radio_map)
        index = radio_map.index()
        if not index.positions:
            # A point that hears no AP is skipped, so every scan would
            # find no neighbour at all.
            raise ValueError("radio map has no survey point that hears an AP")
        self._column = index.column
        self._positions = index.positions
        self._groups = index.groups
        self.grid = grid
        self.k = k
        self.min_observations = min_observations

    def process(self, port_name: str, datum: Datum) -> None:
        scan = datum.payload
        if not isinstance(scan, WifiScan):
            return
        if len(scan.observations) < self.min_observations:
            return  # out of coverage: a seam, surfaced as silence
        estimate, spread = self.estimate(scan)
        self.produce(
            Datum(
                kind=Kind.POSITION_GRID,
                payload=estimate,
                timestamp=datum.timestamp,
                producer=self.name,
            )
        )
        wgs84 = self.grid.to_wgs84(estimate)
        wgs84 = type(wgs84)(
            wgs84.latitude_deg,
            wgs84.longitude_deg,
            wgs84.altitude_m,
            accuracy_m=spread,
            timestamp=datum.timestamp,
        )
        self.produce(
            Datum(
                kind=Kind.POSITION_WGS84,
                payload=wgs84,
                timestamp=datum.timestamp,
                producer=self.name,
            )
        )

    def _scores(self, observed: Mapping[str, float]) -> List[Tuple[float, int]]:
        """``(signal distance, radio-map index)`` for every survey point.

        Equal to :func:`signal_distance` between the scan and each
        point's vector, up to rounding.
        """
        column = self._column
        scan_row = [MISSING_DBM] * len(column)
        scan_mask = 0
        unmapped = 0  # scan APs no survey point heard
        unmapped_sq = 0.0  # their squared differences from the floor
        for bssid, rssi in observed.items():
            j = column.get(bssid)
            if j is None:
                unmapped += 1
                unmapped_sq += (rssi - MISSING_DBM) ** 2
            else:
                scan_row[j] = rssi
                scan_mask |= 1 << j
        dist = math.dist
        sqrt = math.sqrt
        scored: List[Tuple[float, int]] = []
        for mask, indexes, rows in self._groups:
            # int.bit_count needs Python 3.10; one count per coverage set.
            union = bin(mask | scan_mask).count("1") + unmapped
            for index, row in zip(indexes, rows):
                d = dist(scan_row, row)
                scored.append((sqrt((d * d + unmapped_sq) / union), index))
        return scored

    def estimate(self, scan: WifiScan) -> Tuple[GridPosition, float]:
        """Weighted-kNN estimate and a spread-based accuracy value."""
        positions = self._positions
        nearest = [
            (distance, positions[index])
            for distance, index in heapq.nsmallest(
                self.k, self._scores(scan.as_dict())
            )
        ]
        weights = [1.0 / (distance + 1e-3) for distance, _pos in nearest]
        total = sum(weights)
        x = sum(w * pos.x_m for w, (_d, pos) in zip(weights, nearest)) / total
        y = sum(w * pos.y_m for w, (_d, pos) in zip(weights, nearest)) / total
        floor = nearest[0][1].floor
        estimate = GridPosition(x, y, floor)
        spread = max(
            estimate.distance_to(pos) for _d, pos in nearest
        )
        return estimate, max(spread, 1.0)

    def map_size(self) -> int:
        """Number of usable survey points (inspection)."""
        return len(self._positions)
