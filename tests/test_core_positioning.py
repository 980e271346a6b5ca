"""Tests for the Positioning Layer: providers, criteria, notifications."""

import pytest

from repro.core.channel import ChannelFeature
from repro.core.component import ApplicationSink, SourceComponent
from repro.core.data import Datum, Kind
from repro.core.features import ComponentFeature
from repro.core.graph import ProcessingGraph
from repro.core.pcl import ProcessChannelLayer
from repro.core.positioning import (
    Criteria,
    LocationProvider,
    PositioningError,
    PositioningLayer,
)
from repro.geo.wgs84 import Wgs84Position

HOME = Wgs84Position(56.17, 10.19)


def position_datum(lat, lon, t, producer="src"):
    return Datum(
        Kind.POSITION_WGS84, Wgs84Position(lat, lon, timestamp=t), t, producer
    )


def build_provider(name="app", technologies=("gps",)):
    graph = ProcessingGraph()
    source = SourceComponent("src", (Kind.POSITION_WGS84,))
    sink = ApplicationSink(name, (Kind.POSITION_WGS84,))
    graph.add(source)
    graph.add(sink)
    graph.connect("src", name)
    pcl = ProcessChannelLayer(graph)
    provider = LocationProvider(name, sink, pcl, technologies)
    return provider, source


class TestPullAndPush:
    def test_last_known_empty(self):
        provider, _source = build_provider()
        assert provider.last_known() is None
        assert provider.last_position() is None

    def test_pull_latest(self):
        provider, source = build_provider()
        source.inject(position_datum(56.0, 10.0, 0.0))
        source.inject(position_datum(56.1, 10.1, 1.0))
        assert provider.last_position().latitude_deg == pytest.approx(56.1)

    def test_push_listener_with_kind_filter(self):
        provider, source = build_provider()
        seen = []
        provider.add_listener(
            lambda d: seen.append(d.payload.latitude_deg),
            kind=Kind.POSITION_WGS84,
        )
        source.inject(position_datum(56.0, 10.0, 0.0))
        assert seen == [56.0]

    def test_kinds_reflect_sink_port(self):
        provider, _source = build_provider()
        assert provider.kinds == (Kind.POSITION_WGS84,)


class TestProximity:
    def test_entered_and_left_events(self):
        provider, source = build_provider()
        events = []
        provider.add_proximity_listener(
            HOME, 50.0, lambda kind, d: events.append(kind)
        )
        far = HOME.moved(0.0, 500.0)
        near = HOME.moved(0.0, 10.0)
        source.inject(
            Datum(Kind.POSITION_WGS84, far, 0.0, "src")
        )
        source.inject(Datum(Kind.POSITION_WGS84, near, 1.0, "src"))
        source.inject(Datum(Kind.POSITION_WGS84, far, 2.0, "src"))
        assert events == ["entered", "left"]

    def test_initial_position_inside_fires_entered(self):
        provider, source = build_provider()
        events = []
        provider.add_proximity_listener(
            HOME, 50.0, lambda kind, d: events.append(kind)
        )
        source.inject(Datum(Kind.POSITION_WGS84, HOME, 0.0, "src"))
        assert events == ["entered"]

    def test_listener_removal(self):
        provider, source = build_provider()
        events = []
        remove = provider.add_proximity_listener(
            HOME, 50.0, lambda kind, d: events.append(kind)
        )
        remove()
        source.inject(Datum(Kind.POSITION_WGS84, HOME, 0.0, "src"))
        assert events == []

    def test_radius_validation(self):
        provider, _source = build_provider()
        with pytest.raises(PositioningError):
            provider.add_proximity_listener(HOME, 0.0, lambda k, d: None)


class StubChannelFeature(ChannelFeature):
    name = "StubChannel"

    def apply(self, tree):
        pass


class StubComponentFeature(ComponentFeature):
    name = "StubComponent"


class TestFeatureSurface:
    def test_channel_feature_reachable_from_provider(self):
        provider, _source = build_provider()
        channel = provider.channels()[0]
        feature = StubChannelFeature()
        channel.attach_feature(feature)
        assert provider.get_feature("StubChannel") is feature
        assert "StubChannel" in provider.available_features()

    def test_component_feature_reachable_from_provider(self):
        provider, _source = build_provider()
        channel = provider.channels()[0]
        feature = StubComponentFeature()
        channel.members[0].attach_feature(feature)
        assert provider.get_feature("StubComponent") is feature

    def test_missing_feature_returns_none(self):
        provider, _source = build_provider()
        assert provider.get_feature("Nothing") is None

    def test_describe(self):
        provider, _source = build_provider()
        info = provider.describe()
        assert info["name"] == "app"
        assert info["technologies"] == ["gps"]


class TestPositioningLayerRegistry:
    def test_register_and_lookup_by_criteria(self):
        layer = PositioningLayer()
        gps_provider, _ = build_provider("gps-app", ("gps",))
        wifi_provider, _ = build_provider("wifi-app", ("wifi",))
        layer.register_provider(gps_provider)
        layer.register_provider(wifi_provider)
        chosen = layer.get_provider(Criteria(technology="wifi"))
        assert chosen is wifi_provider

    def test_duplicate_provider_rejected(self):
        layer = PositioningLayer()
        provider, _ = build_provider()
        layer.register_provider(provider)
        with pytest.raises(PositioningError):
            layer.register_provider(provider)

    def test_unsatisfiable_criteria_raises(self):
        layer = PositioningLayer()
        provider, _ = build_provider()
        layer.register_provider(provider)
        with pytest.raises(PositioningError):
            layer.get_provider(Criteria(technology="uwb"))

    def test_criteria_with_required_feature(self):
        layer = PositioningLayer()
        provider, _source = build_provider()
        provider.channels()[0].attach_feature(StubChannelFeature())
        layer.register_provider(provider)
        chosen = layer.get_provider(
            Criteria(required_features=("StubChannel",))
        )
        assert chosen is provider
        with pytest.raises(PositioningError):
            layer.get_provider(Criteria(required_features=("Ghost",)))

    def test_unknown_provider_lookup(self):
        with pytest.raises(PositioningError):
            PositioningLayer().provider("nope")


class TestTargets:
    def test_define_and_duplicate(self):
        layer = PositioningLayer()
        layer.define_target("t1")
        with pytest.raises(PositioningError):
            layer.define_target("t1")

    def test_target_freshest_across_providers(self):
        layer = PositioningLayer()
        p1, s1 = build_provider("p1")
        p2, s2 = build_provider("p2")
        target = layer.define_target("t1")
        target.attach_provider(p1)
        target.attach_provider(p2)
        s1.inject(position_datum(56.0, 10.0, 5.0))
        s2.inject(position_datum(56.5, 10.5, 9.0))
        assert target.last_position().latitude_deg == pytest.approx(56.5)

    def test_target_without_positions(self):
        layer = PositioningLayer()
        target = layer.define_target("t1")
        assert target.last_position() is None

    def test_k_nearest_targets(self):
        layer = PositioningLayer()
        positions = {
            "near": HOME.moved(0.0, 10.0),
            "mid": HOME.moved(0.0, 100.0),
            "far": HOME.moved(0.0, 1000.0),
        }
        for name, pos in positions.items():
            provider, source = build_provider(name)
            target = layer.define_target(name)
            target.attach_provider(provider)
            source.inject(Datum(Kind.POSITION_WGS84, pos, 0.0, "src"))
        # A target with no position is excluded.
        layer.define_target("silent")
        nearest = layer.k_nearest_targets(HOME, 2)
        assert [t.target_id for t, _d in nearest] == ["near", "mid"]
        assert nearest[0][1] == pytest.approx(10.0, rel=0.01)

    def test_k_nearest_validation(self):
        with pytest.raises(PositioningError):
            PositioningLayer().k_nearest_targets(HOME, 0)
