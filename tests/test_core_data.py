"""Tests for the Datum envelope."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import operator
import pickle
from typing import Any, Mapping

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.data import Datum, Kind
from repro.durability.codec import decode_value, encode_value


def make_datum(**kwargs):
    defaults = dict(
        kind=Kind.POSITION_WGS84,
        payload="value",
        timestamp=12.5,
        producer="interpreter",
        attributes={"a": 1},
    )
    defaults.update(kwargs)
    return Datum(**defaults)


def test_with_payload_preserves_envelope():
    original = make_datum()
    copy = original.with_payload("other")
    assert copy.payload == "other"
    assert copy.kind == original.kind
    assert copy.timestamp == original.timestamp
    assert copy.producer == original.producer
    assert copy.attributes == original.attributes


def test_annotated_merges_attributes():
    original = make_datum()
    copy = original.annotated(b=2)
    assert copy.attributes == {"a": 1, "b": 2}
    assert original.attributes == {"a": 1}


def test_annotated_overrides_existing_key():
    assert make_datum().annotated(a=9).attributes["a"] == 9


def test_from_producer():
    copy = make_datum().from_producer("parser")
    assert copy.producer == "parser"
    assert copy.payload == "value"


def test_datum_is_immutable():
    with pytest.raises(AttributeError):
        make_datum().kind = "other"


def test_kind_constants_are_distinct():
    names = [
        Kind.NMEA_RAW,
        Kind.NMEA_SENTENCE,
        Kind.POSITION_WGS84,
        Kind.POSITION_GRID,
        Kind.ROOM_ID,
        Kind.WIFI_SCAN,
        Kind.ACCEL_VARIANCE,
        Kind.HDOP,
        Kind.NUM_SATELLITES,
    ]
    assert len(set(names)) == len(names)


# -- the frozen-dataclass contract -----------------------------------------
#
# ``Datum`` is a hand-written ``__slots__`` class; these properties pin it
# to the frozen dataclass it replaced, defined here as a twin.


@dataclasses.dataclass(frozen=True)
class TwinDatum:
    kind: str
    payload: Any
    timestamp: float
    producer: str = ""
    attributes: Mapping[str, Any] = dataclasses.field(default_factory=dict)


# The dataclass repr names ``__qualname__``: name the twin like the class.
TwinDatum.__qualname__ = "Datum"

FIELDS = ("kind", "payload", "timestamp", "producer", "attributes")

# NaN is left out: tuple and field-by-field equality disagree on it, and
# dataclasses changed from the one to the other in Python 3.13.
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# Tuple attributes are hashable, dict attributes are not.
attribute_maps = st.dictionaries(st.text(max_size=4), values, max_size=3) | st.tuples(
    scalars
)


@st.composite
def field_values(draw):
    """Positional args for both classes, with or without the defaults."""
    args = [
        draw(st.text(max_size=6)),
        draw(values),
        draw(st.floats(allow_nan=False)),
    ]
    optional = draw(st.integers(min_value=0, max_value=2))
    if optional >= 1:
        args.append(draw(st.text(max_size=6)))
    if optional == 2:
        args.append(draw(attribute_maps))
    return tuple(args)


def raises(fn, *args):
    """``fn(*args)``'s result, or the type and text of what it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return (type(exc), str(exc))


class TestDatumMatchesFrozenDataclass:
    def test_signature(self):
        def shape(cls):
            return [
                (p.name, p.kind, p.annotation, repr(p.default))
                for p in inspect.signature(cls).parameters.values()
            ]

        assert shape(Datum) == shape(TwinDatum)
        assert Datum.__match_args__ == TwinDatum.__match_args__ == FIELDS

    @given(field_values())
    @settings(max_examples=150, deadline=None)
    def test_repr_and_keyword_construction(self, args):
        datum = Datum(*args)
        assert repr(datum) == repr(TwinDatum(*args))
        assert Datum(**dict(zip(FIELDS, args))) == datum

    @given(field_values(), field_values(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equality(self, left, right, share_prefix):
        if share_prefix:
            # Differ in the last field only, the case a short-circuit
            # comparison would get wrong.
            right = left[:-1] + right[len(left) - 1 : len(left)]
        for a, b in ((left, right), (left, left)):
            assert (Datum(*a) == Datum(*b)) == (TwinDatum(*a) == TwinDatum(*b))
            assert (Datum(*a) != Datum(*b)) == (TwinDatum(*a) != TwinDatum(*b))

    @given(field_values())
    @settings(max_examples=60, deadline=None)
    def test_equality_against_another_class(self, args):
        datum, twin = Datum(*args), TwinDatum(*args)
        for other in (args, None, 0, args[1]):
            assert (datum == other) == (twin == other)
            assert (datum != other) == (twin != other)
        for other in (twin, args, None):
            assert datum.__eq__(other) is NotImplemented
        assert datum != twin and not datum == twin
        assert twin != datum and not twin == datum

    @given(field_values())
    @settings(max_examples=150, deadline=None)
    def test_hash(self, args):
        assert raises(hash, Datum(*args)) == raises(hash, TwinDatum(*args))

    @given(field_values(), st.integers(min_value=2, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_pickle_round_trip(self, args, protocol):
        datum = Datum(*args)
        restored = pickle.loads(pickle.dumps(datum, protocol=protocol))
        assert type(restored) is Datum
        assert restored == datum
        assert repr(restored) == repr(datum)

    @given(field_values())
    @settings(max_examples=100, deadline=None)
    def test_copy_and_deepcopy(self, args):
        datum, twin = Datum(*args), TwinDatum(*args)
        shallow, twin_shallow = copy.copy(datum), copy.copy(twin)
        assert shallow == datum
        for name in FIELDS:
            assert (getattr(shallow, name) is getattr(datum, name)) == (
                getattr(twin_shallow, name) is getattr(twin, name)
            )
        deep, twin_deep = copy.deepcopy(datum), copy.deepcopy(twin)
        assert deep == datum and type(deep) is Datum
        for name in FIELDS:
            assert (getattr(deep, name) is getattr(datum, name)) == (
                getattr(twin_deep, name) is getattr(twin, name)
            )

    @given(field_values())
    @settings(max_examples=100, deadline=None)
    def test_codec_round_trip(self, args):
        # The codec stores attributes as a dict: give it a mapping.
        datum = Datum(*args[:4], attributes={"target": args[1]})
        decoded = decode_value(json.loads(json.dumps(encode_value(datum))))
        assert type(decoded) is Datum
        assert decoded == datum
        assert repr(decoded) == repr(datum)

    @given(field_values(), values, st.text(max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_copy_helpers(self, args, payload, producer):
        datum = Datum(*args)
        swapped = datum.with_payload(payload)
        assert swapped == Datum(
            datum.kind, payload, datum.timestamp, datum.producer, datum.attributes
        )
        assert swapped.attributes is datum.attributes
        moved = datum.from_producer(producer)
        assert moved == Datum(
            datum.kind, datum.payload, datum.timestamp, producer, datum.attributes
        )
        assert moved.attributes is datum.attributes
        if isinstance(datum.attributes, dict):
            before = dict(datum.attributes)
            marked = datum.annotated(seen=payload)
            assert marked.attributes == {**before, "seen": payload}
            assert datum.attributes == before
            assert marked.payload is datum.payload

    @given(field_values())
    @settings(max_examples=60, deadline=None)
    def test_frozen(self, args):
        datum, twin = Datum(*args), TwinDatum(*args)
        for name in FIELDS + ("other",):
            outcome = raises(setattr, datum, name, 1)
            assert outcome[0] is dataclasses.FrozenInstanceError
            assert outcome == raises(setattr, twin, name, 1)
            outcome = raises(delattr, datum, name)
            assert outcome[0] is dataclasses.FrozenInstanceError
            assert outcome == raises(delattr, twin, name)
        assert Datum(*args) == datum

    def test_fresh_default_attributes_and_no_dict(self):
        first, second = Datum("k", 1, 0.0), Datum("k", 1, 0.0)
        assert first.attributes == {} and first.attributes is not second.attributes
        first.attributes["mine"] = True
        assert second.attributes == {}
        assert Datum("k", 1, 0.0, "p", None).attributes is None
        assert not hasattr(first, "__dict__")

    def test_not_iterable_sized_or_orderable(self):
        datum, twin = Datum("k", 1, 0.0), TwinDatum("k", 1, 0.0)
        assert raises(iter, datum)[0] is raises(iter, twin)[0] is TypeError
        assert raises(len, datum)[0] is raises(len, twin)[0] is TypeError
        assert raises(operator.lt, datum, datum)[0] is TypeError
        assert raises(operator.lt, twin, twin)[0] is TypeError
