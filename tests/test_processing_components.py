"""Tests for parser, interpreter, resolver and fusion components."""

import pytest

from repro.core.component import ApplicationSink, SourceComponent
from repro.core.data import Datum, Kind
from repro.core.graph import ProcessingGraph
from repro.geo.grid import GridPosition
from repro.geo.wgs84 import Wgs84Position
from repro.model.demo import demo_building
from repro.processing.fusion import BestAccuracyFusionComponent
from repro.processing.interpreter import NmeaInterpreterComponent
from repro.processing.parser import NmeaParserComponent
from repro.processing.resolver import RoomResolverComponent
from repro.sensors.nmea import GgaSentence, GsaSentence


def wire(*components):
    graph = ProcessingGraph()
    for c in components:
        graph.add(c)
    for a, b in zip(components, components[1:]):
        graph.connect(a.name, b.name)
    return graph


def gga(t=0.0, lat=56.17, lon=10.19, quality=1, sats=8, hdop=1.2, alt=40.0):
    return GgaSentence(t, lat, lon, quality, sats, hdop, alt)


class TestParser:
    def build(self):
        source = SourceComponent("gps", (Kind.NMEA_RAW,))
        parser = NmeaParserComponent()
        sink = ApplicationSink("app", (Kind.NMEA_SENTENCE,))
        wire(source, parser, sink)
        return source, parser, sink

    def test_whole_line_parsed(self):
        source, _parser, sink = self.build()
        source.inject(Datum(Kind.NMEA_RAW, gga().encode() + "\r\n", 0.0))
        assert sink.last().payload.sentence_type == "GGA"

    def test_fragmented_line_buffered(self):
        source, _parser, sink = self.build()
        line = gga().encode() + "\r\n"
        for i in range(0, len(line), 7):
            source.inject(Datum(Kind.NMEA_RAW, line[i : i + 7], 0.0))
        assert len(sink.received) == 1

    def test_multiple_lines_in_one_fragment(self):
        source, _parser, sink = self.build()
        stream = gga(0.0).encode() + "\r\n" + gga(1.0).encode() + "\r\n"
        source.inject(Datum(Kind.NMEA_RAW, stream, 0.0))
        assert len(sink.received) == 2

    def test_corrupt_line_dropped_and_counted(self):
        source, parser, sink = self.build()
        source.inject(
            Datum(Kind.NMEA_RAW, "$GPGGA,garbage*FF\r\n", 0.0)
        )
        source.inject(Datum(Kind.NMEA_RAW, gga().encode() + "\r\n", 0.0))
        assert len(sink.received) == 1
        assert parser.dropped_lines == 1

    def test_pending_bytes_inspection(self):
        source, parser, _sink = self.build()
        source.inject(Datum(Kind.NMEA_RAW, "$GPGGA,partial", 0.0))
        assert parser.pending_bytes() == len("$GPGGA,partial")

    def test_empty_lines_ignored(self):
        source, parser, sink = self.build()
        source.inject(Datum(Kind.NMEA_RAW, "\r\n\r\n", 0.0))
        assert sink.received == []
        assert parser.dropped_lines == 0

    @pytest.mark.parametrize("first, second", [("\n", "\r\n"), ("\r", "\n")])
    def test_each_line_ends_at_its_earliest_terminator(self, first, second):
        # An LF-terminated line before a CRLF-terminated one used to run
        # into it: one line failing its checksum instead of two.
        source, parser, sink = self.build()
        stream = gga(0.0).encode() + first + gga(1.0).encode() + second
        source.inject(Datum(Kind.NMEA_RAW, stream, 0.0))
        assert [d.payload.time_s for d in sink.received] == [0.0, 1.0]
        assert (parser.dropped_lines, parser.pending_bytes()) == (0, 0)

    def test_repeated_untimed_line_is_decoded_once(self):
        source, parser, sink = self.build()
        gsa = GsaSentence(3, (1, 2, 3, 4), 2.0, 1.0, 1.7).encode() + "\r\n"
        stream = gsa + gga(0.0).encode() + "\r\n" + gsa + gga(1.0).encode()
        source.inject(Datum(Kind.NMEA_RAW, stream + "\r\n", 0.0))
        payloads = [d.payload for d in sink.received]
        assert [p.sentence_type for p in payloads] == ["GSA", "GGA"] * 2
        assert payloads[0] is payloads[2]  # one decode, shared value
        assert list(parser._memo) == [gsa.strip()]  # timed lines never kept

    def test_memo_is_bounded_and_drops_the_oldest(self):
        source, parser, _sink = self.build()
        parser.memo_limit = 3
        lines = [
            GsaSentence(3, (i,), 2.0, 1.0, 1.7).encode() for i in range(1, 6)
        ]
        source.inject(Datum(Kind.NMEA_RAW, "\r\n".join(lines) + "\r\n", 0.0))
        assert list(parser._memo) == lines[2:]

    def test_memo_is_per_parser(self):
        _, first, _ = self.build()
        _, second, _ = self.build()
        line = GsaSentence(3, (1,), 2.0, 1.0, 1.7).encode() + "\r\n"
        first.process("in", Datum(Kind.NMEA_RAW, line, 0.0))
        assert len(first._memo) == 1 and second._memo == {}


class TestInterpreter:
    def build(self):
        source = SourceComponent("sentences", (Kind.NMEA_SENTENCE,))
        interpreter = NmeaInterpreterComponent()
        sink = ApplicationSink("app", (Kind.POSITION_WGS84,))
        wire(source, interpreter, sink)
        return source, interpreter, sink

    def test_valid_fix_produces_position(self):
        source, _i, sink = self.build()
        source.inject(Datum(Kind.NMEA_SENTENCE, gga(), 5.0))
        position = sink.last().payload
        assert position.latitude_deg == pytest.approx(56.17)
        assert position.timestamp == 5.0

    def test_accuracy_scaled_from_hdop(self):
        source, _i, sink = self.build()
        source.inject(Datum(Kind.NMEA_SENTENCE, gga(hdop=2.0), 0.0))
        assert sink.last().payload.accuracy_m == pytest.approx(10.0)

    def test_invalid_fix_produces_nothing(self):
        source, interpreter, sink = self.build()
        source.inject(
            Datum(
                Kind.NMEA_SENTENCE,
                GgaSentence(0.0, None, None, 0, 2, None, None),
                0.0,
            )
        )
        assert sink.received == []
        assert interpreter.sentences_seen == 1

    def test_non_gga_sentences_ignored(self):
        source, interpreter, sink = self.build()
        source.inject(
            Datum(
                Kind.NMEA_SENTENCE,
                GsaSentence(3, (1, 2, 3, 4), 2.0, 1.0, 1.7),
                0.0,
            )
        )
        assert sink.received == []

    def test_yield_rate(self):
        source, interpreter, _sink = self.build()
        assert interpreter.yield_rate() == 0.0
        source.inject(Datum(Kind.NMEA_SENTENCE, gga(), 0.0))
        source.inject(
            Datum(
                Kind.NMEA_SENTENCE,
                GgaSentence(1.0, None, None, 0, 2, None, None),
                1.0,
            )
        )
        assert interpreter.yield_rate() == 0.5


class TestResolver:
    def build(self):
        building = demo_building()
        source = SourceComponent("positions", (Kind.POSITION_WGS84,))
        resolver = RoomResolverComponent(building)
        sink = ApplicationSink("app", (Kind.ROOM_ID,))
        wire(source, resolver, sink)
        return building, source, sink

    def test_inside_resolves_to_room(self):
        building, source, sink = self.build()
        inside = building.grid.to_wgs84(building.room_by_id("S3").centroid)
        source.inject(Datum(Kind.POSITION_WGS84, inside, 0.0))
        assert sink.last().payload.room_id == "S3"

    def test_outside_resolves_to_none_room(self):
        building, source, sink = self.build()
        outside = building.grid.to_wgs84(GridPosition(-50.0, -50.0))
        source.inject(Datum(Kind.POSITION_WGS84, outside, 0.0))
        location = sink.last().payload
        assert location.room_id is None
        assert not location.is_inside

    def test_model_id(self):
        building, _s, _sink = self.build()
        assert RoomResolverComponent(building).model_id() == "hopper"


class TestFusion:
    def build(self, window=10.0):
        gps = SourceComponent("gps-i", (Kind.POSITION_WGS84,))
        wifi = SourceComponent("wifi-e", (Kind.POSITION_WGS84,))
        fusion = BestAccuracyFusionComponent(freshness_window_s=window)
        sink = ApplicationSink("app", (Kind.POSITION_WGS84,))
        graph = ProcessingGraph()
        for c in (gps, wifi, fusion, sink):
            graph.add(c)
        graph.connect("gps-i", "fusion")
        graph.connect("wifi-e", "fusion")
        graph.connect("fusion", "app")
        return gps, wifi, sink

    def position(self, accuracy, t):
        return Wgs84Position(56.17, 10.19, accuracy_m=accuracy, timestamp=t)

    def test_best_accuracy_wins(self):
        gps, wifi, sink = self.build()
        gps.inject(Datum(Kind.POSITION_WGS84, self.position(8.0, 0.0), 0.0))
        wifi.inject(Datum(Kind.POSITION_WGS84, self.position(3.0, 0.5), 0.5))
        assert sink.last().attributes["selected_source"] == "wifi-e"

    def test_stale_source_ages_out(self):
        gps, wifi, sink = self.build(window=5.0)
        wifi.inject(Datum(Kind.POSITION_WGS84, self.position(3.0, 0.0), 0.0))
        gps.inject(Datum(Kind.POSITION_WGS84, self.position(8.0, 20.0), 20.0))
        # WiFi was better but is 20s old: GPS is selected.
        assert sink.last().attributes["selected_source"] == "gps-i"

    def test_missing_accuracy_uses_default(self):
        gps, wifi, sink = self.build()
        gps.inject(
            Datum(Kind.POSITION_WGS84, self.position(None, 0.0), 0.0)
        )
        wifi.inject(Datum(Kind.POSITION_WGS84, self.position(30.0, 0.0), 0.0))
        # default accuracy 50 > 30, so wifi wins.
        assert sink.last().attributes["selected_source"] == "wifi-e"

    def test_known_sources_inspection(self):
        gps, wifi, _sink = self.build()
        fusion = BestAccuracyFusionComponent()
        assert fusion.known_sources() == {}

    def test_window_state_hooks(self):
        fusion = BestAccuracyFusionComponent()
        fusion.set_window(3.0)
        assert fusion.get_window() == 3.0
        with pytest.raises(ValueError):
            fusion.set_window(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BestAccuracyFusionComponent(freshness_window_s=0.0)
