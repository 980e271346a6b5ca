"""Property-based tests on the sensing substrate (hypothesis)."""

import statistics

from hypothesis import given, settings, strategies as st

from repro.core.data import Datum, Kind
from repro.geo.wgs84 import Wgs84Position
from repro.processing.parser import MEMO_TYPES, NmeaParserComponent
from repro.sensors.gps import (
    GpsReceiver,
    OPEN_SKY,
    constant_environment,
)
from repro.sensors.nmea import (
    GgaSentence,
    GsaSentence,
    GsvSatelliteInfo,
    GsvSentence,
    NmeaError,
    RmcSentence,
    VtgSentence,
    parse_sentence,
)
from repro.sensors.trajectory import (
    StationaryTrajectory,
    Waypoint,
    WaypointTrajectory,
)

START = Wgs84Position(56.17, 10.19)


class TestGpsReceiverProperties:
    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_stationary_apparent_speed_bounded(self, seed):
        """Correlated error keeps a still receiver's apparent speed low.

        This is the property the transportation-mode pipeline depends
        on: white per-epoch noise would fake several m/s of movement.
        """
        gps = GpsReceiver(
            "g",
            StationaryTrajectory(START, 120.0),
            constant_environment(OPEN_SKY),
            seed=seed,
            chunk_size=None,
        )
        gps.sample(120.0)
        fixes = [
            e.reported_position
            for e in gps.epochs
            if e.reported_position is not None
        ]
        deltas = [
            a.distance_to(b) for a, b in zip(fixes, fixes[1:])
        ]
        assert statistics.mean(deltas) < 1.2

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_error_magnitude_tracks_hdop(self, seed):
        """Fix error stays within a few sigma of the reported quality."""
        gps = GpsReceiver(
            "g",
            StationaryTrajectory(START, 120.0),
            constant_environment(OPEN_SKY),
            seed=seed,
            chunk_size=None,
        )
        gps.sample(120.0)
        for epoch in gps.epochs:
            if epoch.reported_position is None or epoch.is_stale:
                continue
            sigma = 5.0 * epoch.hdop  # uere * hdop, open-sky multiplier 1
            error = epoch.reported_position.distance_to(
                epoch.true_position
            )
            assert error < 6.0 * sigma + 1.0

    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=8, max_value=64),
    )
    @settings(max_examples=10, deadline=None)
    def test_fragmentation_preserves_stream(self, seed, chunk):
        """Any fragment size reassembles to the identical NMEA stream."""
        def make(chunk_size):
            trajectory = WaypointTrajectory(
                [Waypoint(0.0, START), Waypoint(30.0, START.moved(90, 40))]
            )
            gps = GpsReceiver(
                "g",
                trajectory,
                constant_environment(OPEN_SKY),
                seed=seed,
                chunk_size=chunk_size,
            )
            return "".join(r.payload for r in gps.sample(10.0))

        # Compare unfragmented vs fragmented byte streams directly.
        whole = make(None)
        fragged = make(chunk)
        assert fragged == whole


class TestNmeaProperties:
    @given(
        st.floats(min_value=-89.9, max_value=89.9),
        st.floats(min_value=-179.9, max_value=179.9),
        st.integers(min_value=0, max_value=99),
        st.floats(min_value=0.1, max_value=99.0),
        st.floats(min_value=-400.0, max_value=8000.0),
        st.floats(min_value=0.0, max_value=86399.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_gga_roundtrip_total(self, lat, lon, sats, hdop, alt, t):
        sentence = GgaSentence(t, lat, lon, 1, sats, hdop, alt)
        decoded = parse_sentence(sentence.encode())
        assert decoded.latitude_deg is not None
        assert abs(decoded.latitude_deg - lat) < 1e-5
        assert abs(decoded.longitude_deg - lon) < 1e-5
        assert decoded.num_satellites == sats
        assert abs(decoded.altitude_m - alt) < 0.051
        assert abs(decoded.time_s - t) < 0.011

    @given(st.text(min_size=0, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_parser_never_crashes_on_garbage(self, line):
        """parse_sentence raises NmeaError or returns a sentence; it
        never raises anything else."""
        try:
            parse_sentence(line)
        except NmeaError:
            pass


def _reference_lines(stream):
    """The stream's complete lines (each ending at its earliest CR or
    LF) and the unterminated rest, one character at a time."""
    lines, current = [], []
    for char in stream:
        if char in "\r\n":
            lines.append("".join(current))
            current = []
        else:
            current.append(char)
    return lines, "".join(current)


#: A few lines of each of the five types; streams draw from it with
#: repetition, as a receiver repeats its satellites and DOPs.
SENTENCE_POOL = (
    GgaSentence(1.0, 56.17, 10.19, 1, 8, 1.2, 40.0).encode(),
    GgaSentence(2.0, None, None, 0, 3, None, None).encode(),
    RmcSentence(1.0, True, 56.17, 10.19, 0.5, 90.0).encode(),
    RmcSentence(2.0, False, None, None, 0.0, 0.0).encode(),
    GsaSentence(3, (1, 4, 7, 9), 2.1, 1.2, 1.7).encode(),
    GsaSentence(1, (), None, None, None).encode(),
    GsvSentence(2, 1, 6, (GsvSatelliteInfo(1, 40, 120, 38),)).encode(),
    GsvSentence(
        2,
        2,
        6,
        (GsvSatelliteInfo(4, 10, 300, None), GsvSatelliteInfo(7, 5, 10, 20)),
    ).encode(),
    VtgSentence(90.0, 0.5).encode(),
    VtgSentence(180.0, 2.25).encode(),
)


def _corrupt(line, index):
    """Flip one character (as serial corruption does)."""
    index %= len(line)
    return line[:index] + chr(ord(line[index]) ^ 0x01) + line[index + 1 :]


_lines = st.one_of(
    st.sampled_from(SENTENCE_POOL),
    st.builds(_corrupt, st.sampled_from(SENTENCE_POOL), st.integers(0, 200)),
    st.text(alphabet="$GPSAVT*,.0123456789 \t", max_size=16),
)
_terminators = st.sampled_from(["\r\n", "\n", "\r", "\r\n\r\n", "\n\r\n"])


class TestParserMemoProperties:
    """The memoized parser gives what per-line ``parse_sentence`` gives."""

    @given(
        st.lists(st.tuples(_lines, _terminators), max_size=30),
        st.text(alphabet="$GPGSV,0123*", max_size=10),
        st.lists(st.integers(min_value=1, max_value=90), max_size=40),
        st.sampled_from([1, 2, 3, 64]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_line_decoding(self, lines, tail, cuts, limit):
        stream = "".join(line + end for line, end in lines) + tail
        expected, dropped = [], 0
        complete, rest = _reference_lines(stream)
        for line in complete:
            line = line.strip()
            if not line:
                continue
            try:
                expected.append(parse_sentence(line))
            except NmeaError:
                dropped += 1

        parser = NmeaParserComponent()
        parser.memo_limit = limit
        produced = []
        parser.produce = produced.append
        fragments, start = [], 0
        for size in cuts:
            fragments.append(stream[start : start + size])
            start += size
        fragments.append(stream[start:])
        for fragment in fragments:
            parser.process("in", Datum(Kind.NMEA_RAW, fragment, 0.0))
            memo = parser._memo
            assert len(memo) <= limit
            for line, sentence in memo.items():
                assert sentence.sentence_type in MEMO_TYPES
                assert parse_sentence(line) == sentence

        assert [datum.payload for datum in produced] == expected
        assert parser.dropped_lines == dropped
        assert parser.pending_bytes() == len(rest)
