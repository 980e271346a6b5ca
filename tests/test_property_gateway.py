"""Property tests: replay-after-fix restores the clean-run stream.

The gateway's headline contract (hypothesis-pinned): for any payload
stream in which a subset of payloads arrives with systematically wrong
vendor field names, dead-lettering the broken ones and replaying them
after installing the correcting crosswalk delivers the *same sink
multiset* as submitting the whole stream in canonical form -- the fix
lives in middleware configuration, so no information is lost at the
edge.  A second property pins the accounting invariant
(``submitted == accepted + rejected + shed + pending``) and submit's
no-raise contract over arbitrary junk payloads, NaN and +-inf among
their numbers.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.component import ApplicationSink, SourceComponent
from repro.core.data import Kind
from repro.core.graph import ProcessingGraph
from repro.gateway import (
    AutoTrackPolicy,
    Crosswalk,
    FieldMap,
    IngestionGateway,
)
from repro.runtime import PositioningEngine
from repro.services.remote import RetryPolicy

POS = Kind.POSITION_WGS84

DEVICES = ("alpha", "beta", "gamma")

#: One observation: (device index, timestamp, lat, lon, broken?).
observations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(DEVICES) - 1),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
        st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)

#: Arbitrary junk the gateway must absorb without raising.
junk_payloads = st.lists(
    st.one_of(
        st.none(),
        st.integers(),
        st.text(max_size=10),
        st.lists(st.integers(), max_size=3),
        st.dictionaries(
            st.sampled_from(
                ("source_format", "device_id", "timestamp", "lat", "lon")
            ),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(10**6), max_value=10**6),
                st.floats(),  # NaN and +-inf included
                st.text(max_size=12),
                st.just("phone_tracker_v1"),
            ),
            max_size=5,
        ),
    ),
    min_size=1,
    max_size=40,
)


class _Clock:
    now = 0.0


def fresh_gateway():
    """A gateway over its own src -> sink graph, sized so nothing is
    ever shed: any stream difference is the pipeline's doing."""
    graph = ProcessingGraph()
    graph.add(SourceComponent("src", (POS,)))
    graph.add(ApplicationSink("sink", (POS,), keep_last=100_000))
    graph.connect("src", "sink", "in")
    engine = PositioningEngine(graph)
    gateway = IngestionGateway(
        engine,
        "src",
        device_policy=AutoTrackPolicy(capacity=4096),
        admission_capacity=4096,
        dlq_capacity=4096,
        retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
        clock=_Clock(),
    )
    return gateway, engine, graph.component("sink")


def canonical(device_index, t, lat, lon):
    return {
        "source_format": "phone_tracker_v1",
        "device_id": DEVICES[device_index],
        "timestamp": t,
        "lat": lat,
        "lon": lon,
    }


def vendor_broken(device_index, t, lat, lon):
    """The same observation with the vendor's field names."""
    return {
        "source_format": "phone_tracker_v1",
        "device_id": DEVICES[device_index],
        "timestamp": t,
        "latitude": lat,
        "longitude": lon,
    }


FIX = [FieldMap("latitude", "lat"), FieldMap("longitude", "lon")]


def sink_multiset(sink):
    """Project delivered datums to the observation they carry."""
    return Counter(
        (
            d.attributes["device"],
            d.payload["timestamp"],
            d.payload["lat"],
            d.payload["lon"],
        )
        for d in sink.received
    )


@given(observations)
@settings(max_examples=60, deadline=None)
def test_replay_after_fix_matches_the_clean_run(obs):
    # Twin A: every observation submitted in canonical form.
    clean_gw, clean_engine, clean_sink = fresh_gateway()
    for device_index, t, lat, lon in ((o[0], o[1], o[2], o[3]) for o in obs):
        assert clean_gw.submit(canonical(device_index, t, lat, lon)) == "admitted"
    clean_gw.forward()
    clean_engine.drain_all()
    assert clean_gw.accepted == len(obs)

    # Twin B: broken observations dead-letter, then replay after the fix.
    gw, engine, sink = fresh_gateway()
    broken = 0
    for device_index, t, lat, lon, is_broken in obs:
        if is_broken:
            assert gw.submit(vendor_broken(device_index, t, lat, lon)) == "rejected"
            broken += 1
        else:
            assert gw.submit(canonical(device_index, t, lat, lon)) == "admitted"
    gw.forward()
    engine.drain_all()
    assert gw.rejected == broken
    gw.adapter("phone_tracker_v1").set_crosswalk(Crosswalk(FIX))
    outcome = gw.replay()
    engine.drain_all()

    # ISSUE acceptance: >= 95% of fixable dead letters recover; with a
    # complete fix that is all of them, and the sink multisets agree.
    assert outcome["replayed"] >= 0.95 * broken
    assert outcome["replayed"] == broken
    assert sink_multiset(sink) == sink_multiset(clean_sink)


@given(junk_payloads)
@settings(max_examples=80, deadline=None)
def test_junk_streams_never_raise_and_always_balance(stream):
    gw, engine, _ = fresh_gateway()
    for raw in stream:
        verdict = gw.submit(raw)  # must not raise, whatever the shape
        assert verdict in ("admitted", "rejected", "shed")
    gw.forward()
    engine.drain_all()
    assert gw.submitted == len(stream)
    assert gw.pending == 0
    assert gw.submitted == gw.accepted + gw.rejected + gw.shed
    # Every rejection is inspectable.
    for record in gw.dlq.records():
        assert record.stage and record.reason
