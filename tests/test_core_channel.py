"""Tests for channels, logical time, and data trees (paper §2.2, Fig. 4)."""

import pytest

from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.core.data import Datum
from repro.core.features import ComponentFeature, FeatureError
from repro.core.channel import Channel, ChannelFeature
from repro.core.graph import ProcessingGraph
from repro.core.pcl import ProcessChannelLayer


def build_linear_graph():
    """source -> batcher -> sink; batcher emits one output per 2 inputs."""
    graph = ProcessingGraph()
    source = SourceComponent("src", ("x",))

    state = {"buffer": []}

    def batch(d):
        state["buffer"].append(d.payload)
        if len(state["buffer"]) == 2:
            merged = d.with_payload(tuple(state["buffer"]))
            state["buffer"] = []
            return merged
        return None

    batcher = FunctionComponent("batcher", ("x",), ("x",), fn=batch)
    sink = ApplicationSink("app", ("x",))
    for c in (source, batcher, sink):
        graph.add(c)
    graph.connect("src", "batcher")
    graph.connect("batcher", "app")
    return graph, source


class RecordingChannelFeature(ChannelFeature):
    name = "Recorder"

    def __init__(self):
        super().__init__()
        self.trees = []

    def apply(self, data_tree):
        self.trees.append(data_tree)


class TestLogicalTime:
    def test_one_output_per_two_inputs_has_correct_range(self):
        graph, source = build_linear_graph()
        pcl = ProcessChannelLayer(graph)
        channel = pcl.channel("src->app")
        feature = RecordingChannelFeature()
        channel.attach_feature(feature)
        for i in range(4):
            source.inject(Datum("x", i, float(i)))
        assert len(feature.trees) == 2
        first, second = feature.trees
        assert first.root.logical_time == 1
        assert first.root.time_range == (1, 2)
        assert second.root.logical_time == 2
        assert second.root.time_range == (3, 4)

    def test_tree_contains_contributing_source_elements(self):
        graph, source = build_linear_graph()
        pcl = ProcessChannelLayer(graph)
        channel = pcl.channel("src->app")
        feature = RecordingChannelFeature()
        channel.attach_feature(feature)
        for i in range(2):
            source.inject(Datum("x", f"s{i}", float(i)))
        tree = feature.trees[0]
        assert tree.depth == 2
        source_payloads = [e.datum.payload for e in tree.layer(0)]
        assert source_payloads == ["s0", "s1"]
        assert tree.root.datum.payload == ("s0", "s1")

    def test_source_layer_has_no_time_range(self):
        graph, source = build_linear_graph()
        pcl = ProcessChannelLayer(graph)
        channel = pcl.channel("src->app")
        feature = RecordingChannelFeature()
        channel.attach_feature(feature)
        source.inject(Datum("x", 1, 0.0))
        source.inject(Datum("x", 2, 1.0))
        for element in feature.trees[0].layer(0):
            assert element.time_range is None

    def test_latest_output(self):
        graph, source = build_linear_graph()
        pcl = ProcessChannelLayer(graph)
        channel = pcl.channel("src->app")
        assert channel.latest_output() is None
        source.inject(Datum("x", 1, 0.0))
        source.inject(Datum("x", 2, 1.0))
        assert channel.latest_output().datum.payload == (1, 2)

    def test_history_bounded(self):
        graph, source = build_linear_graph()
        channel = Channel(
            graph,
            [graph.component("src"), graph.component("batcher")],
            "app",
            history_limit=4,
        )
        for i in range(20):
            source.inject(Datum("x", i, float(i)))
        assert len(channel._history[0]) == 4


class TestChannelFeatures:
    def test_apply_called_per_output(self):
        graph, source = build_linear_graph()
        pcl = ProcessChannelLayer(graph)
        feature = RecordingChannelFeature()
        pcl.attach_feature("src->app", feature)
        for i in range(6):
            source.inject(Datum("x", i, float(i)))
        assert len(feature.trees) == 3

    def test_requires_component_features_enforced(self):
        class Demanding(ChannelFeature):
            name = "Demanding"
            requires_component_features = ("HDOP",)

            def apply(self, tree):
                pass

        graph, _source = build_linear_graph()
        pcl = ProcessChannelLayer(graph)
        with pytest.raises(FeatureError):
            pcl.attach_feature("src->app", Demanding())

    def test_requirement_satisfied_by_member_feature(self):
        class Provider(ComponentFeature):
            name = "HDOP"

        class Demanding(ChannelFeature):
            name = "Demanding"
            requires_component_features = ("HDOP",)

            def apply(self, tree):
                pass

        graph, _source = build_linear_graph()
        graph.component("batcher").attach_feature(Provider())
        pcl = ProcessChannelLayer(graph)
        pcl.attach_feature("src->app", Demanding())
        assert pcl.channel("src->app").get_feature("Demanding") is not None

    def test_get_feature_by_class_and_name(self):
        graph, _source = build_linear_graph()
        pcl = ProcessChannelLayer(graph)
        feature = RecordingChannelFeature()
        pcl.attach_feature("src->app", feature)
        channel = pcl.channel("src->app")
        assert channel.get_feature("Recorder") is feature
        assert channel.get_feature(RecordingChannelFeature) is feature
        assert channel.get_feature("Nope") is None

    def test_duplicate_feature_name_rejected(self):
        graph, _source = build_linear_graph()
        pcl = ProcessChannelLayer(graph)
        pcl.attach_feature("src->app", RecordingChannelFeature())
        with pytest.raises(FeatureError):
            pcl.attach_feature("src->app", RecordingChannelFeature())

    def test_detach_feature(self):
        graph, source = build_linear_graph()
        pcl = ProcessChannelLayer(graph)
        feature = RecordingChannelFeature()
        pcl.attach_feature("src->app", feature)
        pcl.detach_feature("src->app", "Recorder")
        source.inject(Datum("x", 1, 0.0))
        source.inject(Datum("x", 2, 1.0))
        assert feature.trees == []

    def test_describe(self):
        graph, _source = build_linear_graph()
        pcl = ProcessChannelLayer(graph)
        pcl.attach_feature("src->app", RecordingChannelFeature())
        info = pcl.channel("src->app").describe()
        assert info["id"] == "src->app"
        assert info["members"] == ["src", "batcher"]
        assert info["features"] == ["Recorder"]


class TestMergeIsolation:
    def test_channels_do_not_cross_merge_boundaries(self):
        """A merge consumes from two channels; each channel only counts
        elements from its own strand."""
        graph = ProcessingGraph()
        left = SourceComponent("left", ("x",))
        right = SourceComponent("right", ("x",))
        merge = FunctionComponent("merge", ("x",), ("x",), fn=lambda d: d)
        sink = ApplicationSink("app", ("x",))
        for c in (left, right, merge, sink):
            graph.add(c)
        graph.connect("left", "merge")
        graph.connect("right", "merge")
        graph.connect("merge", "app")
        pcl = ProcessChannelLayer(graph)
        ids = [c.id for c in pcl.channels()]
        assert "left->merge" in ids
        assert "right->merge" in ids
        assert "merge->app" in ids

        left_feature = RecordingChannelFeature()
        pcl.attach_feature("left->merge", left_feature)
        left.inject(Datum("x", "fromleft", 0.0))
        right.inject(Datum("x", "fromright", 0.0))
        # Only the left strand's output lands in the left channel trees.
        assert len(left_feature.trees) == 1
        assert left_feature.trees[0].root.datum.payload == "fromleft"
