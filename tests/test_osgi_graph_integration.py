"""Integration: bundles contribute processing components to the graph.

Exercises the paper's §3 realisation story: components are OSGi-style
service components; bundle lifecycle drives graph membership; dynamic
composition (auto-assembly) wires them.
"""

import pytest

from repro.core.component import (
    ApplicationSink,
    SourceComponent,
)
from repro.core.data import Datum, Kind
from repro.core.pcl import ProcessChannelLayer
from repro.sensors.nmea import GgaSentence
from repro.processing.interpreter import NmeaInterpreterComponent
from repro.processing.parser import NmeaParserComponent
from repro.services.bundle import Framework
from repro.services.graph_binding import COMPONENT_INTERFACE, GraphBinder


class GpsBundle:
    """Contributes the GPS strand: source + parser + interpreter."""

    def __init__(self):
        self.source = SourceComponent("gps", (Kind.NMEA_RAW,))

    def start(self, context):
        context.register_service(COMPONENT_INTERFACE, self.source)
        context.register_service(
            COMPONENT_INTERFACE, NmeaParserComponent(name="parser")
        )
        context.register_service(
            COMPONENT_INTERFACE,
            NmeaInterpreterComponent(name="interpreter"),
        )

    def stop(self, context):
        pass


class AppBundle:
    def __init__(self):
        self.sink = ApplicationSink("app", (Kind.POSITION_WGS84,))

    def start(self, context):
        context.register_service(COMPONENT_INTERFACE, self.sink)

    def stop(self, context):
        pass


@pytest.fixture()
def platform():
    framework = Framework()
    binder = GraphBinder(framework.registry)
    return framework, binder


class TestBundleContribution:
    def test_bundles_assemble_a_working_pipeline(self, platform):
        framework, binder = platform
        gps_bundle = GpsBundle()
        app_bundle = AppBundle()
        framework.install("gps-bundle", gps_bundle)
        framework.install("app-bundle", app_bundle)
        framework.start("gps-bundle")
        framework.start("app-bundle")

        assert set(binder.graph.components()) >= set()
        names = {c.name for c in binder.graph.components()}
        assert names == {"gps", "parser", "interpreter", "app"}
        # Auto-assembly wired the strand; data flows end to end.
        sentence = GgaSentence(0.0, 56.17, 10.19, 1, 8, 1.1, 40.0)
        gps_bundle.source.inject(
            Datum(Kind.NMEA_RAW, sentence.encode() + "\r\n", 0.0)
        )
        assert app_bundle.sink.last(Kind.POSITION_WGS84) is not None

    def test_stopping_a_bundle_removes_its_components(self, platform):
        framework, binder = platform
        gps_bundle = GpsBundle()
        app_bundle = AppBundle()
        framework.install("gps-bundle", gps_bundle)
        framework.install("app-bundle", app_bundle)
        framework.start("gps-bundle")
        framework.start("app-bundle")
        framework.stop("gps-bundle")
        names = {c.name for c in binder.graph.components()}
        assert names == {"app"}
        assert binder.graph.connections() == []

    def test_restart_rewires(self, platform):
        framework, binder = platform
        framework.install("app-bundle", AppBundle())
        framework.start("app-bundle")
        first = GpsBundle()
        framework.install("gps-1", first)
        framework.start("gps-1")
        framework.stop("gps-1")
        framework.uninstall("gps-1")
        second = GpsBundle()
        framework.install("gps-2", second)
        framework.start("gps-2")
        names = {c.name for c in binder.graph.components()}
        assert names == {"gps", "parser", "interpreter", "app"}

    def test_pre_registered_components_adopted(self):
        framework = Framework()
        source = SourceComponent("early", ("x",))
        framework.registry.register(COMPONENT_INTERFACE, source)
        binder = GraphBinder(framework.registry)
        assert "early" in binder.graph

    def test_non_component_services_ignored(self, platform):
        framework, binder = platform
        framework.registry.register(COMPONENT_INTERFACE, "not-a-component")
        framework.registry.register("other.Interface", object())
        assert binder.graph.components() == []

    def test_close_stops_mirroring(self, platform):
        framework, binder = platform
        binder.close()
        framework.registry.register(
            COMPONENT_INTERFACE, SourceComponent("late", ("x",))
        )
        assert "late" not in binder.graph

    def test_pcl_follows_bundle_lifecycle(self, platform):
        framework, binder = platform
        pcl = ProcessChannelLayer(binder.graph)
        gps_bundle = GpsBundle()
        app_bundle = AppBundle()
        framework.install("gps-bundle", gps_bundle)
        framework.install("app-bundle", app_bundle)
        framework.start("gps-bundle")
        framework.start("app-bundle")
        assert [c.id for c in pcl.channels()] == ["gps->app"]
        framework.stop("gps-bundle")
        assert pcl.channels() == []
