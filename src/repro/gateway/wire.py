"""Versioned wire formats: the gateway's external data contract.

Everything inside the middleware speaks :class:`~repro.core.data.Datum`;
everything *outside* speaks whatever its vendor shipped.  A
:class:`WireFormat` names one external JSON shape -- ``phone_tracker_v1``
(SNIPPETS.md Snippet 3 / zmeta-stack) is the canonical example: a
lightweight GPS fix pushed from a mobile automation with ``device_id``,
``timestamp``, ``lat``/``lon``, ``accuracy_m`` and ``battery_pct`` --
and carries the per-field schema the gateway validates payloads against:
required/optional, accepted types, and numeric ranges.

Formats are *versioned by name* (``..._v1``, ``..._v2``): a breaking
payload change mints a new format name with its own schema and adapter,
so old devices keep working against the old contract while new ones roll
forward -- the gateway never guesses which shape it was handed, the
payload declares it in ``source_format``.

The schema is data, not code: a format keeps one table row per field,
and :meth:`WireFormat.validate` walks that table in field order.  The
walk settles the shapes JSON decoding produces inline (a missing field,
an exact float/int within bounds, an exact str) and hands any other
value to one helper that returns its error.  Two rules hold beyond
each :class:`FieldSpec`: a NaN never passes a :data:`FLOAT` or
:data:`TIMESTAMP` field (every comparison with NaN is false, so it
would pass any range or freshness check), and the format's timestamp
field is always required (the gateway cannot place a payload in time
without it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Field kinds a :class:`FieldSpec` may declare.
FLOAT = "float"  # int or float (bools excluded), optionally range-bounded
STRING = "str"
TIMESTAMP = "timestamp"  # epoch seconds (int/float) or ISO-8601 string
ANY = "any"

FIELD_KINDS = (FLOAT, STRING, TIMESTAMP, ANY)

_MISSING = object()


class WireFormatError(Exception):
    """Raised on invalid wire-format definitions or unparseable values."""


def parse_timestamp(value: Any) -> float:
    """Normalise a wire timestamp to float epoch seconds.

    Accepts epoch seconds (int/float) or an ISO-8601 string (``Z``
    suffix and naive timestamps both read as UTC, so parsing never
    depends on the host's timezone).  Raises :class:`WireFormatError`
    on anything else.
    """
    if isinstance(value, bool):
        raise WireFormatError(f"timestamp must be a number or string, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        text = value[:-1] + "+00:00" if value.endswith("Z") else value
        try:
            parsed = datetime.fromisoformat(text)
        except ValueError:
            raise WireFormatError(f"unparseable ISO-8601 timestamp {value!r}") from None
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=timezone.utc)
        return parsed.timestamp()
    raise WireFormatError(
        f"timestamp must be epoch seconds or an ISO-8601 string,"
        f" got {type(value).__name__}"
    )


@dataclass(frozen=True)
class FieldSpec:
    """Schema for one wire-format field.

    ``kind`` is one of :data:`FIELD_KINDS`; ``minimum``/``maximum``
    bound :data:`FLOAT` (and numeric :data:`TIMESTAMP`) values
    inclusively.
    """

    name: str
    kind: str = FLOAT
    required: bool = False
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FIELD_KINDS:
            raise WireFormatError(
                f"field {self.name!r}: unknown kind {self.kind!r};"
                f" expected one of {FIELD_KINDS}"
            )


def _field_error(
    name: str, kind: str, value: Any, low: Any, high: Any
) -> Optional[str]:
    """The error for one present value the validate loop did not settle.

    ``low``/``high`` are the field's bounds, -inf/+inf where it has none;
    a message prints the bound object itself.
    """
    if kind == STRING:
        if isinstance(value, str):
            return None
        return f"field {name!r} must be a string, got {type(value).__name__}"
    value_type = type(value)
    if kind == TIMESTAMP:
        if value_type is not float and value_type is not int:
            try:
                value = parse_timestamp(value)
            except WireFormatError as exc:
                return f"field {name!r}: {exc}"
    elif value_type is bool or not isinstance(value, (int, float)):
        return f"field {name!r} must be numeric, got {value_type.__name__}"
    if value != value:
        return f"field {name!r} is NaN"
    if value < low:
        return f"field {name!r}={value!r} below minimum {low}"
    if value > high:
        return f"field {name!r}={value!r} above maximum {high}"
    return None


class WireFormat:
    """One named, versioned external payload shape plus its schema.

    Parameters
    ----------
    name:
        The ``source_format`` value payloads declare; by convention it
        ends in ``_v<N>`` (parsed into :attr:`version`).
    fields:
        Per-field schema.  Unknown extra fields are tolerated (forward
        compatibility: a ``_v1`` consumer must not break when a device
        adds an informational field).
    device_field / timestamp_field:
        Which fields carry the tracked-device id and the observation
        time; both must appear in ``fields``.
    """

    def __init__(
        self,
        name: str,
        fields: Sequence[FieldSpec],
        *,
        device_field: str = "device_id",
        timestamp_field: str = "timestamp",
    ) -> None:
        if not name:
            raise WireFormatError("wire format name must be non-empty")
        names = [spec.name for spec in fields]
        if len(set(names)) != len(names):
            raise WireFormatError(f"format {name!r}: duplicate field specs")
        for label, field in (
            ("device_field", device_field),
            ("timestamp_field", timestamp_field),
        ):
            if field not in names:
                raise WireFormatError(
                    f"format {name!r}: {label} {field!r} has no FieldSpec"
                )
        self.name = name
        self.fields: Tuple[FieldSpec, ...] = tuple(fields)
        self.device_field = device_field
        self.timestamp_field = timestamp_field
        # The field table validate walks, in field order.  A missing
        # bound is +-inf, so the range test is one chained comparison.
        # The timestamp field is required whatever its spec says: the
        # gateway cannot place a payload in time without it.
        self._table: Tuple[Tuple[str, bool, str, bool, Any, Any], ...] = tuple(
            (
                spec.name,
                spec.required or spec.name == timestamp_field,
                spec.kind,
                spec.kind in (FLOAT, TIMESTAMP),
                -math.inf if spec.minimum is None else spec.minimum,
                math.inf if spec.maximum is None else spec.maximum,
            )
            for spec in self.fields
        )

    @property
    def version(self) -> int:
        """The ``_v<N>`` suffix of :attr:`name`, or 0 when unversioned."""
        stem, _, suffix = self.name.rpartition("_v")
        if stem and suffix.isdigit():
            return int(suffix)
        return 0

    # -- validation (hot path) ----------------------------------------------

    def validate(self, payload: Mapping[str, Any]) -> List[str]:
        """Schema-check one payload; returns error strings (empty = valid).

        Walks the field table in field order, at most one error per
        field: a missing required field errors (the timestamp field is
        always required); :data:`FLOAT` accepts int/float but never bool
        or NaN, with inclusive range bounds; :data:`STRING` accepts str;
        :data:`TIMESTAMP` accepts epoch numbers directly and parses other
        shapes via :func:`parse_timestamp`, bounds applying to the parsed
        value, and refuses NaN; :data:`ANY` only checks presence.  The
        loop settles the shapes JSON decoding produces with exact
        ``type()`` probes; any other value (int/float/str subclasses,
        ISO strings, out-of-range numbers, wrong types) goes to
        :func:`_field_error`.
        """
        errors: List[str] = []
        get = payload.get
        for name, required, kind, numeric, low, high in self._table:
            value = get(name, _MISSING)
            value_type = type(value)
            if numeric:
                if (value_type is float or value_type is int) and low <= value <= high:
                    continue
            elif value_type is str:
                continue
            if value is _MISSING:
                if required:
                    errors.append(f"missing required field {name!r}")
                continue
            if kind == ANY:
                continue
            error = _field_error(name, kind, value, low, high)
            if error is not None:
                errors.append(error)
        return errors

    # -- field access ---------------------------------------------------------

    def device_of(self, payload: Mapping[str, Any]) -> Optional[str]:
        """The tracked-device id a payload names, or None."""
        device = payload.get(self.device_field)
        return device if isinstance(device, str) and device else None

    def timestamp_of(self, payload: Mapping[str, Any]) -> float:
        """The observation time as epoch seconds (raises if absent/bad)."""
        value = payload.get(self.timestamp_field, _MISSING)
        value_type = type(value)
        if value_type is float:  # hot path: epoch seconds as shipped
            return value
        if value_type is int:
            return float(value)
        if value is _MISSING:
            raise WireFormatError(
                f"payload has no {self.timestamp_field!r} field"
            )
        return parse_timestamp(value)

    def describe(self) -> Dict[str, Any]:
        """Reflective summary (what the PSL/report surface)."""
        return {
            "name": self.name,
            "version": self.version,
            "device_field": self.device_field,
            "timestamp_field": self.timestamp_field,
            "fields": {
                spec.name: {
                    "kind": spec.kind,
                    "required": spec.required,
                    **(
                        {"minimum": spec.minimum}
                        if spec.minimum is not None
                        else {}
                    ),
                    **(
                        {"maximum": spec.maximum}
                        if spec.maximum is not None
                        else {}
                    ),
                }
                for spec in self.fields
            },
        }

    def __repr__(self) -> str:
        return f"WireFormat({self.name!r}, {len(self.fields)} fields)"


#: The zmeta-stack style mobile GPS fix (SNIPPETS.md Snippet 3).
PHONE_TRACKER_V1 = WireFormat(
    "phone_tracker_v1",
    fields=(
        FieldSpec("device_id", STRING, required=True),
        FieldSpec("timestamp", TIMESTAMP, required=True),
        FieldSpec("lat", FLOAT, required=True, minimum=-90.0, maximum=90.0),
        FieldSpec("lon", FLOAT, required=True, minimum=-180.0, maximum=180.0),
        FieldSpec("alt_m", FLOAT),
        FieldSpec("speed_mps", FLOAT, minimum=0.0),
        FieldSpec("heading_deg", FLOAT, minimum=0.0, maximum=360.0),
        FieldSpec("accuracy_m", FLOAT, minimum=0.0),
        FieldSpec("battery_pct", FLOAT, minimum=0.0, maximum=1.0),
        FieldSpec("note", STRING),
    ),
)
