"""A Location-Stack-style layered positioning middleware.

The Location Stack (Hightower et al. 2002) prescribes fixed layers --
Sensors produce technology-specific data, the Measurements layer converts
everything into one common measurement format, a fixed Fusion layer
merges them -- and applications only see the top.  PerPos's §3
comparisons rest on two consequences of that architecture, both of which
this implementation makes measurable:

* **closed format**: the measurement schema is fixed at middleware
  construction.  Application code cannot add a field; the §3.1 satellite
  filter therefore requires a *middleware source change* (modelled here
  as constructing the middleware with an extended schema).
* **format pollution**: once extended, the field is part of the common
  format for *every* technology -- WiFi measurements carry a satellite
  count slot that is always empty.  §3.4: "This solution does not scale
  well; if there is a large variance in the needed information for
  different applications and positioning technologies ... this is
  problematic."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.geo.wgs84 import Wgs84Position

#: The stack's common measurement schema as shipped.
STANDARD_FIELDS: Tuple[str, ...] = (
    "latitude_deg",
    "longitude_deg",
    "accuracy_m",
    "timestamp",
    "technology",
)


class FormatError(Exception):
    """A measurement violated the middleware's fixed format."""


@dataclass(frozen=True)
class Measurement:
    """One entry in the common measurement format.

    ``values`` must contain exactly the middleware's schema fields --
    unknown fields are rejected, which is the closed-format property.
    """

    values: Mapping[str, Any]

    def get(self, name: str) -> Any:
        return self.values.get(name)


class _SensorAdapter:
    """Wraps a technology-specific callable into the measurement layer."""

    def __init__(
        self,
        technology: str,
        produce: Callable[[float], List[Dict[str, Any]]],
    ) -> None:
        self.technology = technology
        self.produce = produce


class LocationStackMiddleware:
    """Fixed-layer stack: sensors -> measurements -> fusion -> application.

    ``extra_fields`` models a middleware *source modification*: it is the
    only way to admit new information, and every measurement -- whatever
    its technology -- then carries the field.
    """

    def __init__(self, extra_fields: Sequence[str] = ()) -> None:
        self._fields: Tuple[str, ...] = STANDARD_FIELDS + tuple(extra_fields)
        self._extra_fields = tuple(extra_fields)
        self._adapters: List[_SensorAdapter] = []
        self._measurements: List[Measurement] = []
        self._fused: List[Measurement] = []
        self.source_modified = bool(extra_fields)

    # -- schema ------------------------------------------------------------

    def position_format_fields(self) -> Tuple[str, ...]:
        return self._fields

    def _admit(self, technology: str, raw: Dict[str, Any]) -> Measurement:
        unknown = set(raw) - set(self._fields)
        if unknown:
            raise FormatError(
                f"fields {sorted(unknown)} are not part of the common"
                " position format; extending it requires middleware"
                " source access"
            )
        # Every schema field is present on every measurement: technologies
        # that cannot supply a field carry it as None (format pollution).
        values = {name: raw.get(name) for name in self._fields}
        values["technology"] = technology
        return Measurement(values)

    # -- layers --------------------------------------------------------------

    def add_sensor(
        self,
        technology: str,
        produce: Callable[[float], List[Dict[str, Any]]],
    ) -> None:
        """Register a sensor adapter (the Sensors layer)."""
        self._adapters.append(_SensorAdapter(technology, produce))

    def pump(self, now: float) -> int:
        """Run sensors -> measurements -> fusion for time ``now``."""
        new = 0
        for adapter in self._adapters:
            for raw in adapter.produce(now):
                measurement = self._admit(adapter.technology, raw)
                self._measurements.append(measurement)
                new += 1
        if new:
            self._fuse(now)
        return new

    def _fuse(self, now: float, window_s: float = 10.0) -> None:
        """The fixed fusion engine: accuracy-weighted selection.

        Applications cannot replace or extend this step -- plugging a
        particle filter in as fusion "will violate the architecture of
        the middleware" (paper §1, citing Graumann et al.).
        """
        recent = [
            m
            for m in self._measurements
            if now - (m.get("timestamp") or 0.0) <= window_s
            and m.get("latitude_deg") is not None
        ]
        if not recent:
            return
        best = min(
            recent,
            key=lambda m: (
                m.get("accuracy_m")
                if m.get("accuracy_m") is not None
                else 1e9
            ),
        )
        self._fused.append(best)

    # -- application API (the only exposed surface) -----------------------------

    def last_position(self) -> Optional[Wgs84Position]:
        if not self._fused:
            return None
        m = self._fused[-1]
        return Wgs84Position(
            m.get("latitude_deg"),
            m.get("longitude_deg"),
            accuracy_m=m.get("accuracy_m"),
            timestamp=m.get("timestamp"),
        )

    def last_measurement(self) -> Optional[Measurement]:
        return self._fused[-1] if self._fused else None

    def fused_measurements(self) -> List[Measurement]:
        return list(self._fused)

    # -- pollution metrics (experiment E7) ----------------------------------------

    def pollution_report(self) -> Dict[str, float]:
        """Per extended field: fraction of measurements carrying None.

        Quantifies §3.4's scaling complaint: a satellite-count field
        added for GPS is dead weight on every WiFi measurement.
        """
        report: Dict[str, float] = {}
        if not self._measurements:
            return {name: 0.0 for name in self._extra_fields}
        for name in self._extra_fields:
            empty = sum(
                1 for m in self._measurements if m.get(name) is None
            )
            report[name] = empty / len(self._measurements)
        return report
