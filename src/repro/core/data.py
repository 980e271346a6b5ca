"""The data envelope that flows along processing-graph edges.

Edges in the PerPos graph "represent the data that flows between
components" (paper §2).  Every element on an edge is a :class:`Datum`: a
typed payload with a wall-clock timestamp and provenance.  The ``kind``
string is the unit of capability matching -- output ports declare the
kinds they can produce, input ports the kinds they accept -- and of
feature-added data routing (paper §2.1 "Adding Data": generated data is
only propagated if the next component explicitly accepts it).
"""

from __future__ import annotations

import reprlib
from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import Any, Mapping, Tuple


class Kind:
    """Well-known data kinds used by the built-in components.

    Kinds are plain strings so applications can mint their own; these
    constants just name the ones the stock pipeline speaks.
    """

    NMEA_RAW = "nmea-raw"  # serial string fragments from a GPS device
    NMEA_SENTENCE = "nmea-sentence"  # parsed NMEA sentence values
    POSITION_WGS84 = "position-wgs84"  # geodetic positions
    POSITION_GRID = "position-grid"  # building-grid positions
    ROOM_ID = "room-id"  # symbolic locations
    WIFI_SCAN = "wifi-scan"  # WiFi RSSI scans
    BEACON_SCAN = "beacon-scan"  # BLE beacon sightings
    ACCEL_VARIANCE = "accel-variance"  # accelerometer motion energy
    HDOP = "hdop"  # feature-added dilution of precision
    NUM_SATELLITES = "num-satellites"  # feature-added satellite count
    SEGMENT = "trajectory-segment"  # windowed position sequences
    SEGMENT_FEATURES = "segment-features"  # motion statistics per segment
    TRANSPORT_MODE = "transport-mode"  # classified movement mode


class _FreshDict:
    """The ``attributes`` default: a fresh ``{}`` for every datum built
    without one, shown as a dataclass shows a ``default_factory``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<factory>"


_FRESH: Any = _FreshDict()

_FIELDS = ("kind", "payload", "timestamp", "producer", "attributes")


class Datum:
    """One unit of data travelling through the processing graph.

    Parameters
    ----------
    kind:
        Capability string; drives routing and port compatibility.
    payload:
        The value itself (an NMEA sentence, a position, a scan, ...).
    timestamp:
        Simulation wall-clock time the underlying observation was made.
    producer:
        Name of the component (or feature) that produced this datum.
    attributes:
        Free-form annotations; features use this to associate extra data
        with an element without changing its type.

    Behaves as a frozen dataclass of these five fields would: the same
    signature and repr, field-wise ``==`` between datums
    (``NotImplemented`` against any other class), the field tuple's
    hash (so dict attributes make a datum unhashable), and
    :class:`dataclasses.FrozenInstanceError` on assignment or deletion.
    It is a ``__slots__`` class because every graph edge builds datums
    (DESIGN.md §18): no per-instance ``__dict__``, and ``__init__`` sets
    each field through its slot descriptor instead of one
    ``object.__setattr__`` call per field.  It is not a tuple, so it is
    neither iterable, sized nor orderable.
    """

    __slots__ = _FIELDS
    __match_args__ = _FIELDS

    kind: str
    payload: Any
    timestamp: float
    producer: str
    attributes: Mapping[str, Any]

    def __init__(
        self,
        kind: str,
        payload: Any,
        timestamp: float,
        producer: str = "",
        attributes: Mapping[str, Any] = _FRESH,
    ) -> None:
        _set_kind(self, kind)
        _set_payload(self, payload)
        _set_timestamp(self, timestamp)
        _set_producer(self, producer)
        _set_attributes(self, {} if attributes is _FRESH else attributes)

    @reprlib.recursive_repr()
    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(kind={self.kind!r},"
            f" payload={self.payload!r}, timestamp={self.timestamp!r},"
            f" producer={self.producer!r}, attributes={self.attributes!r})"
        )

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return _fields_of(self) == _fields_of(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(_fields_of(self))

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> Tuple[Any, ...]:
        # Pickle and copy rebuild through __init__: the frozen
        # __setattr__ would refuse the fields as slot state.
        return (type(self), _fields_of(self))

    def attribute(self, key: str, default: Any = None) -> Any:
        """Look one annotation up; how trace/feature data is read back.

        Attributes are the envelope's extension point (features and the
        observability layer both ride on them), so reads go through one
        accessor instead of poking the mapping directly.
        """
        return self.attributes.get(key, default)

    def with_payload(self, payload: Any) -> "Datum":
        """Copy with a different payload (same kind/time/provenance).

        Component Features use this in ``consume``/``produce`` hooks: the
        paper allows them to alter data but not to change its type.
        """
        return Datum(self.kind, payload, self.timestamp, self.producer, self.attributes)

    def annotated(self, **annotations: Any) -> "Datum":
        """Copy with extra attributes merged in."""
        merged = dict(self.attributes)
        merged.update(annotations)
        return Datum(self.kind, self.payload, self.timestamp, self.producer, merged)

    def from_producer(self, producer: str) -> "Datum":
        """Copy re-attributed to ``producer``."""
        return Datum(self.kind, self.payload, self.timestamp, producer, self.attributes)


#: A datum's five fields as a tuple, in declaration order.
_fields_of = attrgetter(*_FIELDS)

# The slot descriptors' setters: how ``Datum.__init__`` writes its
# fields past the frozen ``__setattr__``.
_set_kind = Datum.__dict__["kind"].__set__
_set_payload = Datum.__dict__["payload"].__set__
_set_timestamp = Datum.__dict__["timestamp"].__set__
_set_producer = Datum.__dict__["producer"].__set__
_set_attributes = Datum.__dict__["attributes"].__set__
