"""Tests for automatic assembly and declarative configurations (§2.1)."""

import json

import pytest

from repro.core import Kind, PerPos
from repro.core.assembly import AutoAssembler
from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    InputPort,
    OutputPort,
    ProcessingComponent,
    SourceComponent,
)
from repro.core.config import (
    ComponentTypeRegistry,
    ConfigurationError,
    default_registry,
    load_configuration,
)
from repro.core.data import Datum
from repro.processing.gps_features import NumberOfSatellitesFeature


def passthrough(name, accepts, capabilities, **kwargs):
    out_kind = capabilities[0]
    return FunctionComponent(
        name,
        accepts,
        capabilities,
        fn=lambda d: Datum(out_kind, d.payload, d.timestamp),
        **kwargs,
    )


class TestAutoAssembler:
    def test_chain_assembles_in_order(self):
        assembler = AutoAssembler()
        source = SourceComponent("src", ("raw",))
        stage = passthrough("stage", ("raw",), ("cooked",))
        sink = ApplicationSink("app", ("cooked",))
        assembler.add(source)
        assembler.add(stage)
        assembler.add(sink)
        source.inject(Datum("raw", 1, 0.0))
        assert sink.last().payload == 1

    def test_chain_assembles_out_of_order(self):
        assembler = AutoAssembler()
        sink = ApplicationSink("app", ("cooked",))
        stage = passthrough("stage", ("raw",), ("cooked",))
        assembler.add(sink)
        assembler.add(stage)
        assert assembler.unresolved() == [("stage", "in")]
        source = SourceComponent("src", ("raw",))
        assembler.add(source)
        assert assembler.unresolved() == []
        source.inject(Datum("raw", 2, 0.0))
        assert sink.last().payload == 2

    def test_single_port_binds_one_producer(self):
        assembler = AutoAssembler()
        a = SourceComponent("a", ("x",))
        b = SourceComponent("b", ("x",))
        sink = ApplicationSink("app", ("x",))
        assembler.add(a)
        assembler.add(b)
        assembler.add(sink)
        feeders = [
            c.producer
            for c in assembler.graph.connections()
            if c.consumer == "app"
        ]
        assert len(feeders) == 1

    def test_multiple_port_binds_all_producers(self):
        class Merge(ProcessingComponent):
            def __init__(self):
                super().__init__(
                    "merge",
                    inputs=(InputPort("in", ("x",), multiple=True),),
                    output=OutputPort(("x",)),
                )

            def process(self, port_name, datum):
                self.produce(datum.from_producer(self.name))

        assembler = AutoAssembler()
        assembler.add(SourceComponent("a", ("x",)))
        assembler.add(SourceComponent("b", ("x",)))
        assembler.add(Merge())
        feeders = sorted(
            c.producer
            for c in assembler.graph.connections()
            if c.consumer == "merge"
        )
        assert feeders == ["a", "b"]

    def test_required_feature_gates_binding(self):
        assembler = AutoAssembler()
        source = SourceComponent("src", (Kind.NMEA_SENTENCE,))
        consumer = passthrough(
            "consumer",
            (Kind.NMEA_SENTENCE,),
            (Kind.NMEA_SENTENCE,),
            required_features=("NumberOfSatellites",),
        )
        assembler.add(source)
        assembler.add(consumer)
        assert ("consumer", "in") in assembler.unresolved()
        source.attach_feature(NumberOfSatellitesFeature())
        assembler.resolve()
        assert assembler.unresolved() == []

    def test_optional_port_not_reported_unresolved(self):
        assembler = AutoAssembler()
        consumer = FunctionComponent(
            "c", ("never",), ("never",), fn=lambda d: d
        )
        consumer._inputs["in"].optional = True
        assembler.add(consumer)
        assert assembler.unresolved() == []

    def test_no_cycles_created(self):
        assembler = AutoAssembler()
        a = passthrough("a", ("x",), ("x",))
        b = passthrough("b", ("x",), ("x",))
        assembler.add(a)
        assembler.add(b)
        connections = assembler.graph.connections()
        # One direction only; the reverse edge would be a cycle.
        assert len(connections) == 1

    def test_remove_component(self):
        assembler = AutoAssembler()
        assembler.add(SourceComponent("src", ("x",)))
        assembler.add(ApplicationSink("app", ("x",)))
        assembler.remove("src")
        assert "src" not in assembler.graph
        assert assembler.describe()["managed"] == ["app"]

    def test_describe(self):
        assembler = AutoAssembler()
        assembler.add(passthrough("stage", ("raw",), ("cooked",)))
        info = assembler.describe()
        assert info["managed"] == ["stage"]
        assert info["unresolved"] == ["stage.in"]


class TestTypeRegistry:
    def test_default_registry_contents(self):
        registry = default_registry()
        assert "nmea-parser" in registry.component_types()
        assert "hdop" in registry.feature_types()

    def test_create_component_with_params(self):
        registry = default_registry()
        component = registry.create_component(
            "satellite-filter", min_satellites=6, name="filt"
        )
        assert component.name == "filt"
        assert component.min_satellites == 6

    def test_unknown_types(self):
        registry = default_registry()
        with pytest.raises(ConfigurationError):
            registry.create_component("warp-drive")
        with pytest.raises(ConfigurationError):
            registry.create_feature("warp-feature")

    def test_duplicate_registration_rejected(self):
        registry = ComponentTypeRegistry()
        registry.register_component("x", lambda: None)
        with pytest.raises(ConfigurationError):
            registry.register_component("x", lambda: None)


class TestLoadConfiguration:
    def config(self):
        return {
            "components": [
                {"type": "nmea-parser", "name": "parser"},
                {"type": "nmea-interpreter", "name": "interpreter"},
            ],
            "features": [
                {"component": "parser", "type": "number-of-satellites"},
            ],
            "connections": [
                {"from": "parser", "to": "interpreter"},
            ],
            "providers": [
                {
                    "name": "app",
                    "accepts": [Kind.POSITION_WGS84],
                    "technologies": ["gps"],
                    "connect_from": ["interpreter"],
                }
            ],
        }

    def test_loads_full_configuration(self):
        middleware = PerPos()
        summary = load_configuration(middleware, self.config())
        assert summary["components"] == ["parser", "interpreter"]
        assert summary["features"] == ["parser#NumberOfSatellites"]
        assert summary["connections"] == ["parser->interpreter"]
        assert summary["providers"] == ["app"]
        assert middleware.graph.component("parser").has_feature(
            "NumberOfSatellites"
        )
        assert middleware.positioning.provider("app") is not None

    def test_loads_from_json_string(self):
        middleware = PerPos()
        summary = load_configuration(middleware, json.dumps(self.config()))
        assert summary["components"] == ["parser", "interpreter"]

    def test_loads_from_file(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(self.config()))
        middleware = PerPos()
        summary = load_configuration(middleware, path)
        assert summary["providers"] == ["app"]

    def test_auto_connections(self):
        middleware = PerPos()
        config = {
            "components": [
                {"type": "nmea-parser", "name": "parser"},
                {"type": "nmea-interpreter", "name": "interpreter"},
            ],
            "connections": "auto",
        }
        load_configuration(middleware, config)
        assert middleware.graph.downstream("parser") == ["interpreter"]

    def test_missing_type_rejected(self):
        with pytest.raises(ConfigurationError):
            load_configuration(
                PerPos(), {"components": [{"name": "x"}]}
            )

    def test_missing_connection_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            load_configuration(
                PerPos(), {"connections": [{"from": "a"}]}
            )

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError):
            load_configuration(PerPos(), "{not json")

    def test_feature_entry_validation(self):
        with pytest.raises(ConfigurationError):
            load_configuration(
                PerPos(), {"features": [{"type": "hdop"}]}
            )
