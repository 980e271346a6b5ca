"""Tests for the PerPos facade: sensors, pumping, providers."""

import pytest

from repro.core.data import Datum, Kind
from repro.core.graph import GraphError
from repro.core.middleware import PerPos
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
        ],
    )
    def test_registry_serves_only_the_live_subsystem(self, subsystem, interface):
        mw = PerPos()
        registry = mw.framework.registry
        enable = getattr(mw, f"enable_{subsystem}")
        first = enable()
        assert registry.find_service(interface) is first
        second = enable()
        assert second is not first
        live = [registry.get_service(r) for r in registry.get_references(interface)]
        assert live == [second]
        if subsystem == "runtime":
            manager = mw.enable_durability()
            assert mw.psl.snapshot()["bytes"] > 0
            assert registry.find_service("perpos.DurabilityManager") is manager
        assert getattr(mw, f"disable_{subsystem}")() is second
        assert registry.find_service(interface) is None
        # Durable state journals through the engine, so it leaves with
        # the runtime instead of lingering half-attached.
        assert mw.durability is None
        assert registry.find_service("perpos.DurabilityManager") is None
        with pytest.raises(GraphError, match="no durability manager"):
            mw.psl.snapshot()

    def test_create_provider_registers_in_layer(self):
        mw = PerPos()
        provider = mw.create_provider("app", accepts=(Kind.POSITION_WGS84,))
        assert mw.positioning.provider("app") is provider
