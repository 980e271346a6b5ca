"""Tests for the transportation-mode reasoning pipeline (§1 use case)."""

import pytest

from repro.core import Kind, PerPos
from repro.core.component import ApplicationSink, SourceComponent
from repro.core.data import Datum
from repro.core.graph import ProcessingGraph
from repro.geo.wgs84 import Wgs84Position
from repro.processing.pipelines import build_gps_pipeline
from repro.reasoning.classifier import (
    MODES,
    ModeEstimate,
    TransportMode,
    classify,
)
from repro.reasoning.features import (
    FeatureExtractorComponent,
    SegmentFeatures,
    extract_features,
)
from repro.reasoning.hmm import HmmSmootherComponent, sticky_transition_matrix
from repro.reasoning.pipeline import build_mode_pipeline
from repro.reasoning.segmentation import Segment, SegmenterComponent
from repro.reasoning.workload import (
    ModalPhase,
    build_modal_trajectory,
    default_journey,
)
from repro.sensors.gps import GpsReceiver

START = Wgs84Position(56.17, 10.19)


def positions_at_speed(speed_mps, count=31, dt=1.0):
    """A straight track at constant speed with timestamps."""
    out = []
    here = START
    for i in range(count):
        out.append(
            Wgs84Position(
                here.latitude_deg, here.longitude_deg, timestamp=i * dt
            )
        )
        here = here.moved(90.0, speed_mps * dt)
    return tuple(out)


class TestSegmenter:
    def wire(self, window_s=30.0, min_positions=3):
        graph = ProcessingGraph()
        source = SourceComponent("pos", (Kind.POSITION_WGS84,))
        segmenter = SegmenterComponent(
            window_s=window_s, min_positions=min_positions
        )
        sink = ApplicationSink("app", (Kind.SEGMENT,))
        for c in (source, segmenter, sink):
            graph.add(c)
        graph.connect("pos", segmenter.name)
        graph.connect(segmenter.name, "app")
        return source, segmenter, sink

    def feed(self, source, times):
        for t in times:
            source.inject(
                Datum(
                    Kind.POSITION_WGS84,
                    Wgs84Position(56.17, 10.19, timestamp=t),
                    t,
                )
            )

    def test_window_emitted_when_passed(self):
        source, _seg, sink = self.wire(window_s=10.0)
        self.feed(source, [0.0, 3.0, 6.0, 9.0, 12.0])
        assert len(sink.received) == 1
        segment = sink.received[0].payload
        assert segment.start_time == 0.0
        assert segment.end_time == 10.0
        assert len(segment) == 4

    def test_sparse_window_dropped(self):
        source, seg, sink = self.wire(window_s=10.0, min_positions=3)
        self.feed(source, [0.0, 12.0, 14.0, 16.0, 22.0])
        # First window had one position: dropped, counted.
        assert seg.windows_dropped == 1
        assert len(sink.received) == 1

    def test_long_gap_advances_multiple_windows(self):
        source, _seg, sink = self.wire(window_s=10.0, min_positions=2)
        self.feed(source, [0.0, 2.0, 4.0, 35.0])
        assert len(sink.received) == 1  # only the first window had data

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmenterComponent(window_s=0.0)


class TestFeatureExtraction:
    def test_constant_speed_features(self):
        segment = Segment(0.0, 30.0, positions_at_speed(2.0))
        features = extract_features(segment)
        assert features.mean_speed_mps == pytest.approx(2.0, rel=0.01)
        assert features.speed_stddev == pytest.approx(0.0, abs=0.01)
        assert features.stop_fraction == 0.0
        assert features.heading_change_rate_deg_s == pytest.approx(
            0.0, abs=0.05
        )

    def test_stationary_features(self):
        segment = Segment(0.0, 30.0, positions_at_speed(0.0))
        features = extract_features(segment)
        assert features.mean_speed_mps == pytest.approx(0.0, abs=1e-6)
        assert features.stop_fraction == 1.0

    def test_requires_two_positions(self):
        segment = Segment(0.0, 30.0, positions_at_speed(1.0, count=1))
        with pytest.raises(ValueError):
            extract_features(segment)

    def test_component_skips_tiny_segments(self):
        graph = ProcessingGraph()
        source = SourceComponent("seg", (Kind.SEGMENT,))
        extractor = FeatureExtractorComponent()
        sink = ApplicationSink("app", (Kind.SEGMENT_FEATURES,))
        for c in (source, extractor, sink):
            graph.add(c)
        graph.connect("seg", extractor.name)
        graph.connect(extractor.name, "app")
        source.inject(
            Datum(
                Kind.SEGMENT,
                Segment(0.0, 30.0, positions_at_speed(1.0, count=1)),
                30.0,
            )
        )
        assert sink.received == []


class TestClassifier:
    def features(self, mean, peak=None, stops=0.0):
        return SegmentFeatures(
            start_time=0.0,
            end_time=30.0,
            mean_speed_mps=mean,
            max_speed_mps=peak if peak is not None else mean * 1.3,
            speed_stddev=0.2,
            heading_change_rate_deg_s=1.0,
            stop_fraction=stops,
        )

    @pytest.mark.parametrize(
        "speed,expected",
        [
            (0.1, TransportMode.STILL),
            (1.4, TransportMode.WALK),
            (4.5, TransportMode.BIKE),
            (13.0, TransportMode.VEHICLE),
        ],
    )
    def test_characteristic_speeds(self, speed, expected):
        assert classify(self.features(speed)).mode == expected

    def test_high_stop_fraction_is_still(self):
        estimate = classify(self.features(1.0, stops=0.9))
        assert estimate.mode == TransportMode.STILL

    def test_scores_normalised(self):
        estimate = classify(self.features(4.5))
        assert sum(estimate.scores) == pytest.approx(1.0)
        assert all(s > 0 for s in estimate.scores)

    def test_ambiguity_between_bike_and_vehicle(self):
        estimate = classify(self.features(6.0, peak=10.0))
        assert estimate.score_of(TransportMode.VEHICLE) > 0.1
        assert estimate.mode == TransportMode.BIKE


class TestHmm:
    def estimate(self, mode, confidence=0.9):
        rest = (1.0 - confidence) / (len(MODES) - 1)
        scores = tuple(
            confidence if m is mode else rest for m in MODES
        )
        return ModeEstimate(0.0, 30.0, mode, scores)

    def wire(self, stay=0.85):
        graph = ProcessingGraph()
        source = SourceComponent("est", (Kind.TRANSPORT_MODE,))
        hmm = HmmSmootherComponent(stay_probability=stay)
        sink = ApplicationSink("app", (Kind.TRANSPORT_MODE,))
        for c in (source, hmm, sink):
            graph.add(c)
        graph.connect("est", hmm.name)
        graph.connect(hmm.name, "app")
        return source, hmm, sink

    def test_transition_matrix_rows_sum_to_one(self):
        matrix = sticky_transition_matrix(0.8)
        for row in matrix:
            assert sum(row) == pytest.approx(1.0)

    def test_transition_validation(self):
        with pytest.raises(ValueError):
            sticky_transition_matrix(1.5)

    def test_single_flicker_suppressed(self):
        source, _hmm, sink = self.wire(stay=0.9)
        sequence = [TransportMode.WALK] * 4 + [TransportMode.BIKE] + [
            TransportMode.WALK
        ] * 4
        for i, mode in enumerate(sequence):
            source.inject(
                Datum(
                    Kind.TRANSPORT_MODE,
                    self.estimate(mode, confidence=0.6),
                    float(i),
                )
            )
        smoothed = [d.payload.mode for d in sink.received]
        assert TransportMode.BIKE not in smoothed

    def test_sustained_change_accepted(self):
        source, _hmm, sink = self.wire(stay=0.9)
        sequence = [TransportMode.WALK] * 4 + [TransportMode.VEHICLE] * 6
        for i, mode in enumerate(sequence):
            source.inject(
                Datum(
                    Kind.TRANSPORT_MODE,
                    self.estimate(mode, confidence=0.85),
                    float(i),
                )
            )
        assert sink.received[-1].payload.mode == TransportMode.VEHICLE

    def test_smoothed_flag_set(self):
        source, _hmm, sink = self.wire()
        source.inject(
            Datum(
                Kind.TRANSPORT_MODE,
                self.estimate(TransportMode.WALK),
                0.0,
            )
        )
        assert sink.received[0].attributes["smoothed"] is True

    def test_reset_forgets_history(self):
        source, hmm, _sink = self.wire()
        source.inject(
            Datum(
                Kind.TRANSPORT_MODE,
                self.estimate(TransportMode.VEHICLE),
                0.0,
            )
        )
        assert hmm.current_belief() is not None
        hmm.reset()
        assert hmm.current_belief() is None


class TestWorkload:
    def test_phase_boundaries_respected(self):
        phases = [
            ModalPhase(TransportMode.STILL, 60.0),
            ModalPhase(TransportMode.VEHICLE, 60.0),
        ]
        trajectory, true_mode = build_modal_trajectory(phases, START, seed=1)
        assert true_mode(30.0) == TransportMode.STILL
        assert true_mode(90.0) == TransportMode.VEHICLE
        assert true_mode(10_000.0) == TransportMode.VEHICLE

    def test_modal_speeds_roughly_match(self):
        phases = [ModalPhase(TransportMode.VEHICLE, 120.0)]
        trajectory, _ = build_modal_trajectory(phases, START, seed=2)
        speed = trajectory.speed_at(60.0)
        assert 8.0 < speed < 18.0

    def test_empty_journey_rejected(self):
        with pytest.raises(ValueError):
            build_modal_trajectory([], START)


class TestEndToEnd:
    def test_full_pipeline_on_clean_gps(self):
        trajectory, true_mode = build_modal_trajectory(
            default_journey(), START, seed=3
        )
        middleware = PerPos()
        gps = GpsReceiver("gps", trajectory, seed=5)
        pipe = build_gps_pipeline(middleware, gps, prefix="gps")
        mode_pipe = build_mode_pipeline(
            middleware, pipe.interpreter, provider_name="modes"
        )
        estimates = []
        mode_pipe.provider.add_listener(
            lambda d: estimates.append(d.payload),
            kind=Kind.TRANSPORT_MODE,
        )
        middleware.run_until(trajectory.duration())
        assert len(estimates) >= 30
        correct = sum(
            1
            for e in estimates
            if e.mode == true_mode((e.start_time + e.end_time) / 2)
        )
        assert correct / len(estimates) > 0.9
        # The whole reasoning chain is reified in the PSL view.
        structure = middleware.psl.structure()
        for stage in ("modes-segmenter", "modes-features",
                      "modes-classifier", "modes-hmm"):
            assert stage in structure
