"""Tests for the PerPos facade: sensors, pumping, providers."""

import pytest

from repro.core.component import ApplicationSink, SourceComponent
from repro.core.data import Kind
from repro.core.graph import GraphError, ProcessingGraph
from repro.core.middleware import PerPos
from repro.core.report import infrastructure_snapshot
from repro.core.subsystems import SECTIONS, Subsystem
from repro.runtime import PositioningEngine
from repro.scenario import (
    CityConfig,
    CityGenerator,
    ControlLoop,
    ScenarioRunner,
    build_city_graph,
    default_controllers,
)
from repro.sensors.base import SensorReading, SimulatedSensor


class ScriptedSensor(SimulatedSensor):
    """Emits one reading per second with a chosen format tag."""

    def __init__(self, sensor_id, fmt="nmea-raw", payload="$x"):
        super().__init__(sensor_id)
        self._fmt = fmt
        self._payload = payload
        self._next = 0.0

    def sample(self, now):
        readings = []
        while self._next <= now:
            readings.append(
                SensorReading(
                    self.sensor_id,
                    self._next,
                    self._payload,
                    {"format": self._fmt},
                )
            )
            self._next += 1.0
        return readings


class TestSensorAttachment:
    def test_attach_creates_source(self):
        mw = PerPos()
        source = mw.attach_sensor(ScriptedSensor("gps0"), (Kind.NMEA_RAW,))
        assert source.name == "gps0"
        assert "gps0" in mw.graph

    def test_attach_with_custom_name(self):
        mw = PerPos()
        source = mw.attach_sensor(
            ScriptedSensor("gps0"), (Kind.NMEA_RAW,), source_name="override"
        )
        assert source.name == "override"

    def test_detach_removes_source(self):
        mw = PerPos()
        mw.attach_sensor(ScriptedSensor("gps0"), (Kind.NMEA_RAW,))
        mw.detach_sensor("gps0")
        assert "gps0" not in mw.graph
        assert mw.pump(10.0) == 0

    def test_detach_unknown(self):
        with pytest.raises(KeyError):
            PerPos().detach_sensor("ghost")


class TestPumping:
    def test_pump_injects_due_readings(self):
        mw = PerPos()
        mw.attach_sensor(ScriptedSensor("gps0"), (Kind.NMEA_RAW,))
        provider = mw.create_provider("app", accepts=(Kind.NMEA_RAW,))
        mw.graph.connect("gps0", "app")
        count = mw.pump(2.5)
        assert count == 3  # t = 0, 1, 2
        assert len(provider.sink.received) == 3

    def test_default_kind_mapping(self):
        mw = PerPos()
        mw.attach_sensor(ScriptedSensor("w", fmt="wifi-scan"), (Kind.WIFI_SCAN,))
        provider = mw.create_provider("app", accepts=(Kind.WIFI_SCAN,))
        mw.graph.connect("w", "app")
        mw.pump(0.0)
        assert provider.sink.last().kind == Kind.WIFI_SCAN

    def test_unmapped_format_raises(self):
        mw = PerPos()
        mw.attach_sensor(ScriptedSensor("odd", fmt="exotic"), ("exotic",))
        with pytest.raises(ValueError):
            mw.pump(0.0)

    def test_custom_kind_of(self):
        mw = PerPos()
        mw.attach_sensor(
            ScriptedSensor("odd", fmt="exotic"),
            ("exotic",),
            kind_of=lambda reading: "exotic",
        )
        provider = mw.create_provider("app", accepts=("exotic",))
        mw.graph.connect("odd", "app")
        assert mw.pump(0.0) == 1

    def test_run_until_advances_clock_and_pumps(self):
        mw = PerPos()
        mw.attach_sensor(ScriptedSensor("gps0"), (Kind.NMEA_RAW,))
        provider = mw.create_provider("app", accepts=(Kind.NMEA_RAW,))
        mw.graph.connect("gps0", "app")
        mw.run_until(5.0)
        assert mw.clock.now == 5.0
        assert len(provider.sink.received) == 6  # t = 0..5

    def test_run_until_validates_step(self):
        with pytest.raises(ValueError):
            PerPos().run_until(1.0, step_s=0.0)


def shard_recipe():
    """Module-level shard recipe: src -> app on kind 'x'."""
    graph = ProcessingGraph()
    graph.add(SourceComponent("src", ("x",)))
    graph.add(ApplicationSink("app", ("x",)))
    graph.connect("src", "app")
    return graph


def enabler(mw, subsystem):
    """Meet ``subsystem``'s preconditions on ``mw``; return its enable."""
    if subsystem == "sharding":
        return lambda: mw.enable_sharding(shard_recipe, 2)
    if subsystem == "gateway":
        mw.enable_runtime()
        return lambda: mw.enable_gateway("src")
    if subsystem == "durability":
        mw.enable_runtime()
    if subsystem == "scenario":
        return lambda: mw.enable_scenario(
            ScenarioRunner(
                CityGenerator(CityConfig(devices=4)),
                PositioningEngine(build_city_graph()),
                control=ControlLoop(default_controllers()),
            )
        )
    return getattr(mw, f"enable_{subsystem}")


class TestServicesIntegration:
    def test_layers_registered_as_services(self):
        mw = PerPos()
        registry = mw.framework.registry
        assert registry.find_service("perpos.ProcessingGraph") is mw.graph
        assert (
            registry.find_service("perpos.ProcessStructureLayer") is mw.psl
        )
        assert registry.find_service("perpos.ProcessChannelLayer") is mw.pcl
        assert (
            registry.find_service("perpos.PositioningLayer")
            is mw.positioning
        )

    @pytest.mark.parametrize(
        "subsystem, interface",
        [
            ("observability", "perpos.ObservabilityHub"),
            ("supervision", "perpos.Supervisor"),
            ("runtime", "perpos.PositioningEngine"),
            ("sharding", "perpos.ShardedEngine"),
            ("gateway", "perpos.IngestionGateway"),
            ("durability", "perpos.DurabilityManager"),
            ("scenario", "perpos.ScenarioRunner"),
        ],
    )
    def test_registry_serves_only_the_live_subsystem(self, subsystem, interface):
        mw = PerPos()
        registry = mw.framework.registry
        enable = enabler(mw, subsystem)
        first = enable()
        assert registry.find_service(interface) is first
        assert getattr(mw, subsystem) is first
        second = enable()
        assert second is not first
        live = [registry.get_service(r) for r in registry.get_references(interface)]
        assert live == [second]
        # Property, PSL and report all read the one live registration.
        assert getattr(mw, subsystem) is second
        assert infrastructure_snapshot(mw)[subsystem] is not None
        if subsystem == "gateway":
            assert mw.psl.gateway() == second.snapshot()
        if subsystem == "scenario":
            assert mw.psl.scenario() == second.snapshot()
            assert mw.psl.controllers() == second.control.snapshot()
        if subsystem == "runtime":
            manager = mw.enable_durability()
            assert mw.psl.snapshot()["bytes"] > 0
            assert registry.find_service("perpos.DurabilityManager") is manager
        assert getattr(mw, f"disable_{subsystem}")() is second
        assert registry.find_service(interface) is None
        assert getattr(mw, subsystem) is None
        assert infrastructure_snapshot(mw)[subsystem] is None
        assert mw.psl.gateway() == {}
        assert mw.psl.scenario() == {}
        assert mw.psl.controllers() == {}
        assert mw.psl.migrations() == []
        # Disable then enable is the same path as a re-enable.
        third = enable()
        assert registry.find_service(interface) is third
        assert getattr(mw, subsystem) is third
        getattr(mw, f"disable_{subsystem}")()
        assert getattr(mw, subsystem) is None
        # Durable state journals through the engine, so it leaves with
        # the runtime instead of lingering half-attached.
        assert mw.durability is None
        assert registry.find_service("perpos.DurabilityManager") is None
        with pytest.raises(GraphError, match="no durability manager"):
            mw.psl.snapshot()

    def test_every_enabled_service_plugs_into_the_report(self):
        # Whatever an enable_X registers has a row in the subsystem
        # table and renders its own snapshot, so no subsystem can skip
        # the report; and every row is reachable through some enable_X.
        rows = {section.interface for section in SECTIONS}
        subsystems = [
            name[len("enable_") :] for name in dir(PerPos) if name.startswith("enable_")
        ]
        plugged = set()
        for subsystem in subsystems:
            mw = PerPos()
            registry = mw.framework.registry
            layers = {ref.service_id for ref in registry.get_references()}
            enabler(mw, subsystem)()
            for ref in registry.get_references():
                if ref.service_id in layers:
                    continue
                (interface,) = ref.interfaces
                assert interface in rows, f"enable_{subsystem}: {interface}"
                service = registry.get_service(ref)
                assert isinstance(service, Subsystem)
                lines = service.render(service.snapshot())
                assert all(isinstance(line, str) for line in lines)
                plugged.add(interface)
            mw.disable_sharding()
        assert plugged == rows

    def test_create_provider_registers_in_layer(self):
        mw = PerPos()
        provider = mw.create_provider("app", accepts=(Kind.POSITION_WGS84,))
        assert mw.positioning.provider("app") is provider
