"""Tests for the GPS receiver simulator."""

import statistics

import pytest

from repro.geo.wgs84 import Wgs84Position
from repro.sensors.gps import (
    GpsReceiver,
    INDOOR,
    OPEN_SKY,
    URBAN_CANYON,
    constant_environment,
)
from repro.sensors.nmea import NmeaError, parse_sentence
from repro.sensors.trajectory import WaypointTrajectory, Waypoint

START = Wgs84Position(56.17, 10.19)


def walk_trajectory(duration=600.0):
    end = START.moved(bearing_deg=90.0, distance_m=duration * 1.4)
    return WaypointTrajectory([Waypoint(0.0, START), Waypoint(duration, end)])


def make_receiver(env=OPEN_SKY, **kwargs):
    kwargs.setdefault("chunk_size", None)
    return GpsReceiver(
        "gps0",
        walk_trajectory(),
        constant_environment(env),
        seed=7,
        **kwargs,
    )


class TestEpochProduction:
    def test_one_epoch_per_second_at_1hz(self):
        gps = make_receiver()
        gps.sample(9.5)
        assert len(gps.epochs) == 10  # t = 0..9

    def test_sampling_is_incremental(self):
        gps = make_receiver()
        first = gps.sample(2.0)
        second = gps.sample(2.0)
        assert first and second == []

    def test_all_sentences_parse(self):
        gps = make_receiver()
        for reading in gps.sample(5.0):
            parse_sentence(reading.payload)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            make_receiver(rate_hz=0.0)


class TestErrorModel:
    def test_open_sky_errors_are_small(self):
        gps = make_receiver(OPEN_SKY)
        gps.sample(120.0)
        errors = [
            e.reported_position.distance_to(e.true_position)
            for e in gps.epochs
            if e.reported_position is not None and not e.is_stale
        ]
        assert errors
        assert statistics.mean(errors) < 15.0

    def test_urban_canyon_worse_than_open_sky(self):
        open_sky = make_receiver(OPEN_SKY)
        open_sky.sample(300.0)
        urban = make_receiver(URBAN_CANYON)
        urban.sample(300.0)

        def mean_error(gps):
            errs = [
                e.reported_position.distance_to(e.true_position)
                for e in gps.epochs
                if e.reported_position is not None and not e.is_stale
            ]
            return statistics.mean(errs) if errs else float("inf")

        def fresh_rate(gps):
            fresh = sum(
                1
                for e in gps.epochs
                if e.reported_position is not None and not e.is_stale
            )
            return fresh / len(gps.epochs)

        assert fresh_rate(urban) < fresh_rate(open_sky)
        if mean_error(urban) != float("inf"):
            assert mean_error(urban) > mean_error(open_sky)

    def test_indoor_yields_almost_no_fresh_fixes(self):
        gps = make_receiver(INDOOR)
        gps.sample(120.0)
        fresh = [
            e
            for e in gps.epochs
            if e.reported_position is not None and not e.is_stale
        ]
        assert len(fresh) < len(gps.epochs) * 0.2


class TestStaleFixBehaviour:
    """Paper §3.1: receivers keep reporting positions after losing the sky."""

    def env_flip(self, flip_at):
        def _map(t, _pos):
            return OPEN_SKY if t < flip_at else INDOOR

        return _map

    def test_stale_fixes_reported_after_signal_loss(self):
        gps = GpsReceiver(
            "gps0",
            walk_trajectory(),
            self.env_flip(flip_at=30.0),
            seed=3,
            chunk_size=None,
            stale_hold_s=30.0,
        )
        gps.sample(50.0)
        stale = [e for e in gps.epochs if e.is_stale]
        assert stale, "expected stale epochs after losing the sky"
        # Stale fixes still look like fixes in the NMEA stream.
        assert all(e.reported_position is not None for e in stale)

    def test_stale_fixes_report_low_satellite_count(self):
        gps = GpsReceiver(
            "gps0",
            walk_trajectory(),
            self.env_flip(flip_at=30.0),
            seed=3,
            chunk_size=None,
        )
        gps.sample(50.0)
        fresh_sats = [
            e.satellites_used for e in gps.epochs if not e.is_stale
            and e.reported_position is not None
        ]
        stale_sats = [e.satellites_used for e in gps.epochs if e.is_stale]
        assert stale_sats
        assert max(stale_sats) < min(fresh_sats)

    def test_stale_hold_expires(self):
        gps = GpsReceiver(
            "gps0",
            walk_trajectory(),
            self.env_flip(flip_at=10.0),
            seed=3,
            chunk_size=None,
            stale_hold_s=5.0,
        )
        gps.sample(60.0)
        tail = [e for e in gps.epochs if e.time_s > 20.0]
        assert all(e.reported_position is None for e in tail if not e.is_stale)
        assert not any(e.is_stale for e in tail)

    def test_stale_error_grows_while_target_moves(self):
        gps = GpsReceiver(
            "gps0",
            walk_trajectory(),
            self.env_flip(flip_at=30.0),
            seed=3,
            chunk_size=None,
            stale_hold_s=30.0,
        )
        gps.sample(55.0)
        stale = [e for e in gps.epochs if e.is_stale]
        assert len(stale) >= 5
        first_error = stale[0].reported_position.distance_to(
            stale[0].true_position
        )
        last_error = stale[-1].reported_position.distance_to(
            stale[-1].true_position
        )
        assert last_error > first_error


class TestFragmentation:
    def test_fragments_reassemble_to_sentences(self):
        gps = GpsReceiver(
            "gps0",
            walk_trajectory(),
            constant_environment(OPEN_SKY),
            seed=7,
            chunk_size=16,
        )
        readings = gps.sample(3.0)
        assert all(len(r.payload) <= 16 for r in readings)
        stream = "".join(r.payload for r in readings)
        lines = [l for l in stream.split("\r\n") if l]
        for line in lines:
            parse_sentence(line)

    def test_multiple_fragments_per_sentence(self):
        gps = GpsReceiver(
            "gps0",
            walk_trajectory(),
            constant_environment(OPEN_SKY),
            seed=7,
            chunk_size=16,
        )
        readings = gps.sample(0.0)
        stream = "".join(r.payload for r in readings)
        sentences = [l for l in stream.split("\r\n") if l]
        assert len(readings) > len(sentences)


class TestCorruption:
    def test_corrupted_sentences_fail_checksum(self):
        gps = GpsReceiver(
            "gps0",
            walk_trajectory(),
            constant_environment(OPEN_SKY),
            seed=11,
            chunk_size=None,
            corruption_probability=0.5,
        )
        readings = gps.sample(30.0)
        failures = 0
        for r in readings:
            try:
                parse_sentence(r.payload)
            except NmeaError:
                failures += 1
        assert failures > 0

    def test_determinism_per_seed(self):
        def run(seed):
            gps = GpsReceiver(
                "gps0",
                walk_trajectory(),
                constant_environment(URBAN_CANYON),
                seed=seed,
                chunk_size=None,
            )
            return [r.payload for r in gps.sample(20.0)]

        assert run(5) == run(5)
        assert run(5) != run(6)
