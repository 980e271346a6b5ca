"""Per-source adapters: crosswalk raw wire payloads into engine datums.

The "cleanse" step of the store-cleanse-forward shape (SNIPPETS.md
Snippet 2).  A :class:`Crosswalk` is an ordered list of
:class:`FieldMap` rules -- field renames, unit conversions, default
fills -- applied to the raw payload *before* schema validation, so a
source that ships ``latitude``/``longitude`` in the wrong unit can be
brought onto the ``phone_tracker_v1`` contract without touching the
device.  Because the crosswalk runs first, installing a corrected
mapping is exactly what makes a previously-rejected payload pass on DLQ
replay: the fix lives in middleware configuration, not in edits to
historical payloads.

A :class:`SourceAdapter` binds one wire format to one optional
crosswalk and mints :class:`~repro.core.data.Datum` objects from
normalised payloads, tagging them with the originating device, format
and raw payload so downstream stages (and the DLQ) can always recover
provenance.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.data import Datum, Kind

from .wire import WireFormat

_MISSING = object()


class CrosswalkError(Exception):
    """Raised when a crosswalk rule cannot be applied to a payload."""


class FieldMap:
    """One crosswalk rule: map ``source`` in the raw payload to ``dest``.

    ``convert`` transforms the value when the source field is present;
    ``default`` fills ``dest`` when it is absent (the default is *not*
    converted -- it is already in contract units).  ``required=True``
    makes a missing source field (with no default) a
    :class:`CrosswalkError` instead of a silent skip.
    """

    __slots__ = ("source", "dest", "convert", "default", "required")

    def __init__(
        self,
        source: str,
        dest: str,
        *,
        convert: Optional[Callable[[Any], Any]] = None,
        default: Any = _MISSING,
        required: bool = False,
    ) -> None:
        if not source or not dest:
            raise CrosswalkError("FieldMap source and dest must be non-empty")
        self.source = source
        self.dest = dest
        self.convert = convert
        self.default = default
        self.required = required

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"source": self.source, "dest": self.dest}
        if self.convert is not None:
            out["convert"] = getattr(self.convert, "__name__", repr(self.convert))
        if self.default is not _MISSING:
            out["default"] = self.default
        if self.required:
            out["required"] = True
        return out

    def __repr__(self) -> str:
        return f"FieldMap({self.source!r} -> {self.dest!r})"


def scale(factor: float) -> Callable[[Any], Any]:
    """A unit-conversion callable for :class:`FieldMap` (e.g. km/h->m/s)."""

    def _scale(value: Any) -> Any:
        return value * factor

    _scale.__name__ = f"scale({factor:g})"
    return _scale


class Crosswalk:
    """An ordered set of :class:`FieldMap` rules over one payload shape.

    ``passthrough=True`` (the default) copies unmapped raw fields into
    the output untouched; mapped source fields are consumed (renamed,
    not duplicated).  With ``passthrough=False`` only mapped ``dest``
    fields survive -- a strict allow-list for noisy sources.
    """

    def __init__(
        self, maps: Sequence[FieldMap] = (), *, passthrough: bool = True
    ) -> None:
        self._maps: List[FieldMap] = list(maps)
        self.passthrough = passthrough

    def add(self, field_map: FieldMap) -> None:
        """Append a rule at runtime (the replay-after-fix seam)."""
        self._maps.append(field_map)

    @property
    def maps(self) -> List[FieldMap]:
        return list(self._maps)

    def __len__(self) -> int:
        return len(self._maps)

    def apply(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Produce the normalised payload; raises :class:`CrosswalkError`."""
        consumed = {m.source for m in self._maps}
        if self.passthrough:
            out = {k: v for k, v in payload.items() if k not in consumed}
        else:
            out = {}
        for rule in self._maps:
            value = payload.get(rule.source, _MISSING)
            if value is _MISSING:
                if rule.default is not _MISSING:
                    out[rule.dest] = rule.default
                elif rule.required:
                    raise CrosswalkError(
                        f"crosswalk requires field {rule.source!r}"
                        f" (mapped to {rule.dest!r})"
                    )
                continue
            if rule.convert is not None:
                try:
                    value = rule.convert(value)
                except Exception as exc:
                    raise CrosswalkError(
                        f"crosswalk convert failed for field {rule.source!r}:"
                        f" {type(exc).__name__}: {exc}"
                    ) from exc
            out[rule.dest] = value
        return out

    def describe(self) -> Dict[str, Any]:
        return {
            "passthrough": self.passthrough,
            "maps": [rule.describe() for rule in self._maps],
        }


class SourceAdapter:
    """Normalises one wire format's payloads into engine datums.

    It also keeps its format's share of the gateway's outcome counts
    (``accepted`` / ``rejected`` / ``shed`` / ``rate_limited`` on the
    clean path, ``replayed`` for dead letters replayed into a lane),
    which the gateway advances and :meth:`describe` shows.
    """

    def __init__(
        self,
        wire_format: WireFormat,
        *,
        kind: str = Kind.POSITION_WGS84,
        crosswalk: Optional[Crosswalk] = None,
        name: Optional[str] = None,
    ) -> None:
        self.wire_format = wire_format
        self.kind = kind
        self.crosswalk = crosswalk
        self.name = name if name is not None else wire_format.name
        self.accepted = 0
        self.rejected = 0
        self.shed = 0
        self.rate_limited = 0
        self.replayed = 0

    def set_crosswalk(self, crosswalk: Optional[Crosswalk]) -> None:
        """Install/replace/remove the crosswalk (replay-after-fix seam)."""
        self.crosswalk = crosswalk

    def normalize(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Crosswalked payload -- or the raw dict untouched when no
        crosswalk is installed (zero-copy fast path; callers must not
        mutate the result)."""
        if self.crosswalk is None or len(self.crosswalk) == 0:
            return payload if isinstance(payload, dict) else dict(payload)
        return self.crosswalk.apply(payload)

    def datum_of(
        self,
        normalized: Mapping[str, Any],
        device: str,
        timestamp: float,
        *,
        raw: Optional[Dict[str, Any]] = None,
    ) -> Datum:
        """Mint the engine-facing datum for an accepted payload.

        ``raw`` (the original wire payload) rides along as an attribute
        so shed/ingest-stage dead letters can always recover it.  The
        datum is pre-stamped with ``target`` -- gateway lanes are keyed
        by device, and stamping here keeps ``engine.submit`` from
        re-building the datum on the hot path.  A dict ``normalized``
        becomes the datum payload *without copying* (the gateway owns
        submitted payloads once accepted; callers must not mutate them
        afterwards -- the same contract as :meth:`normalize`).
        """
        attributes: Dict[str, Any] = {
            "device": device,
            "format": self.wire_format.name,
            "target": device,
        }
        if raw is not None:
            attributes["raw"] = raw
        return Datum(
            kind=self.kind,
            payload=(
                normalized
                if type(normalized) is dict
                else dict(normalized)
            ),
            timestamp=timestamp,
            producer=f"gateway:{self.name}",
            attributes=attributes,
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "format": self.wire_format.name,
            "kind": self.kind,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "shed": self.shed,
            "rate_limited": self.rate_limited,
            "replayed": self.replayed,
            "crosswalk": (
                self.crosswalk.describe() if self.crosswalk is not None else None
            ),
        }

    def __repr__(self) -> str:
        return f"SourceAdapter({self.name!r}, format={self.wire_format.name!r})"
