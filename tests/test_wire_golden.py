"""Every wire-format validation error string, pinned byte for byte.

The gateway dead-letters a schema failure with the validator's error
strings joined by ``"; "``, and an operator reads them from the DLQ, so
their text is part of the wire contract.  A corpus built in code --
each field kind, required or optional, with no bound, a minimum, a
maximum or both, against values of every shape a JSON decoder (or a
caller) can hand over -- is validated, and the error lists are compared
with ``tests/golden/wire_errors.json``.  One multi-error
``phone_tracker_v1`` payload also goes through a gateway, to pin the
order of its errors and the DLQ reason they make.

NaN is left out of the corpus: ``tests/test_gateway.py`` pins its
rejection.

Regenerate the file only when an error-string change is intended::

    PYTHONPATH=src python tests/test_wire_golden.py
"""

import json
from pathlib import Path

from repro.core.component import ApplicationSink, SourceComponent
from repro.core.data import Kind
from repro.core.graph import ProcessingGraph
from repro.gateway import IngestionGateway
from repro.gateway.wire import (
    ANY,
    FLOAT,
    PHONE_TRACKER_V1,
    STRING,
    TIMESTAMP,
    FieldSpec,
    WireFormat,
)
from repro.runtime import PositioningEngine

GOLDEN = Path(__file__).parent / "golden" / "wire_errors.json"

#: An int minimum, a float maximum, and the other way round when a field
#: has both, so each side of the range is pinned with either bound type.
BOUNDS = {
    "none": (None, None),
    "min": (1_000_000_000, None),
    "max": (None, 2e9),
    "both": (1e9, 2_000_000_000),
}


class IntSub(int):
    pass


class FloatSub(float):
    def __repr__(self):
        return f"FloatSub({float.__repr__(self)})"


class StrSub(str):
    pass


#: Label -> value; ``missing`` leaves the field out of the payload.
VALUES = {
    "missing": None,
    "int-in": 1_500_000_000,
    "int-below": 5,
    "int-above": 3_000_000_000,
    "float-in": 1.5e9,
    "float-below": -0.5,
    "float-above": 2.5e9,
    "bool-true": True,
    "bool-false": False,
    "intsub-in": IntSub(1_500_000_000),
    "intsub-below": IntSub(7),
    "floatsub-in": FloatSub(1.5e9),
    "floatsub-above": FloatSub(2.5e9),
    "strsub": StrSub("hello"),
    "huge-int": 10**400,
    "huge-negative-int": -(10**30),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "iso-in": "2020-01-01T00:00:00Z",
    "iso-below": "1990-01-01T00:00:00+00:00",
    "iso-above": "2100-01-01T00:00:00",
    "unparseable": "not-a-date",
    "none": None,
    "list": [1, 2],
    "dict": {"a": 1},
}

#: Ten fields, ten errors, one of each shape the validator reports.
MULTI_ERROR = {
    "source_format": "phone_tracker_v1",
    "device_id": 7,
    "timestamp": "yesterday",
    "lon": 200,
    "alt_m": "high",
    "speed_mps": -1,
    "heading_deg": True,
    "accuracy_m": None,
    "battery_pct": 1.5,
    "note": ["x"],
}


def _format(kind, required, bounds):
    minimum, maximum = BOUNDS[bounds]
    return WireFormat(
        "golden_v1",
        (
            FieldSpec("device_id", STRING, required=True),
            FieldSpec("timestamp", TIMESTAMP, required=True),
            FieldSpec(
                "x", kind, required=required, minimum=minimum, maximum=maximum
            ),
        ),
    )


def corpus():
    """Case label -> the validator's error list for that case."""
    cases = {}
    for kind in (FLOAT, STRING, TIMESTAMP, ANY):
        for required in (True, False):
            for bounds in BOUNDS:
                wire = _format(kind, required, bounds)
                presence = "required" if required else "optional"
                for label, value in VALUES.items():
                    payload = {"device_id": "d1", "timestamp": 1.5e9}
                    if label != "missing":
                        payload["x"] = value
                    key = f"{kind}/{presence}/{bounds}/{label}"
                    cases[key] = wire.validate(payload)
    return cases


class _Clock:
    now = 0.0


def multi_error_dead_letter():
    """The DLQ stage and reason of :data:`MULTI_ERROR` through a gateway."""
    graph = ProcessingGraph()
    graph.add(SourceComponent("src", (Kind.POSITION_WGS84,)))
    graph.add(ApplicationSink("sink", (Kind.POSITION_WGS84,)))
    graph.connect("src", "sink", "in")
    gateway = IngestionGateway(PositioningEngine(graph), "src", clock=_Clock())
    verdict = gateway.submit(dict(MULTI_ERROR))
    (record,) = gateway.dlq.records()
    return {
        "verdict": verdict,
        "stage": record.stage,
        "reason": record.reason,
        "errors": PHONE_TRACKER_V1.validate(MULTI_ERROR),
    }


def current():
    return {"fields": corpus(), "phone_tracker_v1": multi_error_dead_letter()}


def test_field_error_strings_match_the_golden_file():
    expected = json.loads(GOLDEN.read_text())
    assert corpus() == expected["fields"]


def test_multi_error_payload_dead_letters_with_the_golden_reason():
    expected = json.loads(GOLDEN.read_text())["phone_tracker_v1"]
    got = multi_error_dead_letter()
    assert got == expected
    assert got["reason"] == "; ".join(got["errors"])
    assert len(got["errors"]) == 10


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
