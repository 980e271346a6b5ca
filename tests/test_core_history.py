"""Tests for the track-history service."""

import pytest

from repro.core.component import ApplicationSink, SourceComponent
from repro.core.data import Datum, Kind
from repro.core.graph import ProcessingGraph
from repro.core.history import TrackHistoryService
from repro.core.pcl import ProcessChannelLayer
from repro.core.positioning import LocationProvider
from repro.geo.wgs84 import Wgs84Position

HOME = Wgs84Position(56.17, 10.19)


def filled_service(n=10, spacing_m=10.0, dt=1.0):
    service = TrackHistoryService()
    here = HOME
    for i in range(n):
        service.append("walker", i * dt, here)
        here = here.moved(90.0, spacing_m)
    return service


class TestIngestion:
    def test_append_and_latest(self):
        service = filled_service(3)
        latest = service.latest("walker")
        assert latest.timestamp == 2.0
        assert service.size("walker") == 3

    def test_unknown_track(self):
        with pytest.raises(KeyError):
            filled_service().size("ghost")

    def test_out_of_order_points_inserted_in_place(self):
        service = filled_service(3)
        service.append("walker", 0.5, HOME)
        times = [p.timestamp for p in service.trace("walker")]
        assert times == [0.0, 0.5, 1.0, 2.0]
        assert service.out_of_order == 1

    def test_retention_bound(self):
        service = TrackHistoryService(retention=5)
        for i in range(12):
            service.append("t", float(i), HOME)
        assert service.size("t") == 5
        assert service.trace("t")[0].timestamp == 7.0

    def test_retention_validation(self):
        with pytest.raises(ValueError):
            TrackHistoryService(retention=0)

    def test_follow_provider(self):
        graph = ProcessingGraph()
        source = SourceComponent("src", (Kind.POSITION_WGS84,))
        sink = ApplicationSink("app", (Kind.POSITION_WGS84,))
        graph.add(source)
        graph.add(sink)
        graph.connect("src", "app")
        provider = LocationProvider(
            "app", sink, ProcessChannelLayer(graph)
        )
        service = TrackHistoryService()
        track = service.follow_provider(provider)
        assert track == "app"
        source.inject(Datum(Kind.POSITION_WGS84, HOME, 1.0, "src"))
        assert service.size("app") == 1
        service.close()
        source.inject(Datum(Kind.POSITION_WGS84, HOME, 2.0, "src"))
        assert service.size("app") == 1


class TestQueries:
    def test_trace_window(self):
        service = filled_service(10)
        window = service.trace("walker", 2.0, 5.0)
        assert [p.timestamp for p in window] == [2.0, 3.0, 4.0, 5.0]

    def test_trace_open_ended(self):
        service = filled_service(4)
        assert len(service.trace("walker")) == 4
        assert len(service.trace("walker", start=2.5)) == 1

    def test_distance_travelled(self):
        service = filled_service(5, spacing_m=10.0)
        assert service.distance_travelled("walker") == pytest.approx(
            40.0, rel=1e-3
        )

    def test_distance_over_window(self):
        service = filled_service(5, spacing_m=10.0)
        assert service.distance_travelled(
            "walker", 1.0, 3.0
        ) == pytest.approx(20.0, rel=1e-3)

    def test_average_speed(self):
        service = filled_service(5, spacing_m=10.0, dt=2.0)
        assert service.average_speed("walker") == pytest.approx(
            5.0, rel=1e-3
        )

    def test_average_speed_undefined_cases(self):
        service = TrackHistoryService()
        service.append("t", 0.0, HOME)
        assert service.average_speed("t") is None
        service.append("t", 0.0, HOME)  # same timestamp: zero elapsed
        assert service.average_speed("t") is None

    def test_bounding_box(self):
        service = filled_service(5, spacing_m=100.0)
        box = service.bounding_box("walker")
        assert box is not None
        min_lat, min_lon, max_lat, max_lon = box
        assert max_lon > min_lon
        assert max_lat >= min_lat

    def test_bounding_box_empty_track(self):
        service = TrackHistoryService()
        service._tracks["empty"] = []
        assert service.bounding_box("empty") is None

    def test_position_at(self):
        service = filled_service(5)
        at = service.position_at("walker", 2.7)
        expected = service.trace("walker", 2.0, 2.0)[0].position
        assert at == expected
        assert service.position_at("walker", -1.0) is None

    def test_tracks_listing(self):
        service = filled_service()
        service.append("another", 0.0, HOME)
        assert service.tracks() == ["another", "walker"]
