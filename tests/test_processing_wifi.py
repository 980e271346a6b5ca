"""Tests for the WiFi fingerprint positioning engine."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.component import ApplicationSink, SourceComponent
from repro.core.data import Datum, Kind
from repro.core.graph import ProcessingGraph
from repro.geo.grid import GridPosition, LocalGrid
from repro.geo.wgs84 import Wgs84Position
from repro.model.demo import (
    demo_building,
    demo_radio_environment,
    demo_survey_positions,
)
from repro.processing.wifi_positioning import (
    FingerprintPositioningComponent,
    signal_distance,
)
from repro.sensors.wifi import (
    RadioMap,
    WifiObservation,
    WifiScan,
    build_radio_map,
)


class TestSignalDistance:
    def test_identical_vectors(self):
        assert signal_distance({"a": -50.0}, {"a": -50.0}) == 0.0

    def test_disjoint_coverage_penalised(self):
        near = signal_distance({"a": -50.0}, {"a": -55.0})
        disjoint = signal_distance({"a": -50.0}, {"b": -50.0})
        assert disjoint > near

    def test_empty_vectors(self):
        assert signal_distance({}, {}) == float("inf")

    def test_symmetry(self):
        a = {"x": -40.0, "y": -70.0}
        b = {"x": -45.0, "z": -60.0}
        assert signal_distance(a, b) == signal_distance(b, a)


@pytest.fixture(scope="module")
def engine_setup():
    building = demo_building()
    environment = demo_radio_environment(building)
    radio_map = build_radio_map(environment, demo_survey_positions(2.0))
    engine = FingerprintPositioningComponent(
        radio_map, building.grid, k=3
    )
    graph = ProcessingGraph()
    source = SourceComponent("wifi", (Kind.WIFI_SCAN,))
    sink = ApplicationSink(
        "app", (Kind.POSITION_WGS84, Kind.POSITION_GRID)
    )
    graph.add(source)
    graph.add(engine)
    graph.add(sink)
    graph.connect("wifi", engine.name)
    graph.connect(engine.name, "app")
    return building, environment, engine, source, sink


class TestEngine:
    def test_validation(self):
        building = demo_building()
        with pytest.raises(ValueError):
            FingerprintPositioningComponent([], building.grid)
        radio_map = [(GridPosition(0, 0), {"a": -50.0})]
        with pytest.raises(ValueError):
            FingerprintPositioningComponent(
                radio_map, building.grid, k=0
            )

    def test_rejects_map_with_no_usable_survey_point(self):
        # A point that hears no AP is skipped by the index; with none
        # left, every scan would divide by zero inside graph delivery.
        building = demo_building()
        with pytest.raises(ValueError, match="no survey point"):
            FingerprintPositioningComponent(
                [(GridPosition(1, 1), {})], building.grid
            )
        with pytest.raises(ValueError, match="no survey point"):
            FingerprintPositioningComponent(
                RadioMap([(GridPosition(1, 1), {}), (GridPosition(2, 2), {})]),
                building.grid,
            )

    def test_noise_free_scan_located_accurately(self, engine_setup):
        building, environment, engine, source, sink = engine_setup
        truth = GridPosition(15.0, 7.5)
        observations = tuple(
            WifiObservation(
                ap.bssid, environment.expected_rssi(ap, truth)
            )
            for ap in environment.access_points
            if environment.expected_rssi(ap, truth)
            >= environment.noise_floor_dbm
        )
        source.inject(
            Datum(Kind.WIFI_SCAN, WifiScan(0.0, observations), 0.0)
        )
        grid_estimate = sink.last(Kind.POSITION_GRID).payload
        assert truth.distance_to(grid_estimate) < 3.0

    def test_produces_both_grid_and_wgs84(self, engine_setup):
        _b, environment, _e, source, sink = engine_setup
        truth = GridPosition(5.0, 3.0)
        observations = tuple(
            WifiObservation(ap.bssid, environment.expected_rssi(ap, truth))
            for ap in environment.access_points
        )
        before = len(sink.received)
        source.inject(
            Datum(Kind.WIFI_SCAN, WifiScan(1.0, observations), 1.0)
        )
        new = sink.received[before:]
        assert {d.kind for d in new} == {
            Kind.POSITION_GRID,
            Kind.POSITION_WGS84,
        }
        wgs = [d for d in new if d.kind == Kind.POSITION_WGS84][0]
        assert wgs.payload.accuracy_m >= 1.0

    def test_empty_scan_produces_nothing(self, engine_setup):
        _b, _env, _e, source, sink = engine_setup
        before = len(sink.received)
        source.inject(Datum(Kind.WIFI_SCAN, WifiScan(2.0, ()), 2.0))
        assert len(sink.received) == before

    def test_non_scan_payload_ignored(self, engine_setup):
        _b, _env, _e, source, sink = engine_setup
        before = len(sink.received)
        source.inject(Datum(Kind.WIFI_SCAN, "not-a-scan", 3.0))
        assert len(sink.received) == before

    def test_map_size_inspection(self, engine_setup):
        _b, _env, engine, _s, _sink = engine_setup
        assert engine.map_size() > 100


def reference_estimate(radio_map, scan, k=3):
    """Weighted kNN straight from the definition: score every survey
    point with signal_distance, sort, weight the k nearest."""
    observed = scan.as_dict()
    scored = sorted(
        (
            (signal_distance(observed, vector), pos)
            for pos, vector in radio_map
            if vector
        ),
        key=lambda pair: pair[0],
    )
    nearest = scored[:k]
    weights = [1.0 / (d + 1e-3) for d, _pos in nearest]
    total = sum(weights)
    x = sum(w * p.x_m for w, (_d, p) in zip(weights, nearest)) / total
    y = sum(w * p.y_m for w, (_d, p) in zip(weights, nearest)) / total
    estimate = GridPosition(x, y, nearest[0][1].floor)
    spread = max(estimate.distance_to(p) for _d, p in nearest)
    return estimate, max(spread, 1.0)


class TestIndexedMatcher:
    def noisy_scans(self, environment):
        rng = random.Random(7)
        scans = []
        for _ in range(60):
            truth = GridPosition(rng.uniform(-5, 35), rng.uniform(-3, 18))
            observations = [
                WifiObservation(
                    ap.bssid,
                    environment.expected_rssi(ap, truth) + rng.gauss(0, 4),
                )
                for ap in environment.access_points
                if rng.random() < 0.8
            ]
            if rng.random() < 0.3:
                # An AP the survey never heard.
                observations.append(WifiObservation("ff:ff", -60.0))
            if observations:
                scans.append(WifiScan(0.0, tuple(observations)))
        return scans

    def test_estimates_agree_with_the_reference_matcher(self, engine_setup):
        _b, environment, engine, _s, _sink = engine_setup
        radio_map = build_radio_map(environment, demo_survey_positions(2.0))
        scans = self.noisy_scans(environment)
        assert any(s.rssi_of("ff:ff") is not None for s in scans)
        for scan in scans:
            (estimate, spread) = engine.estimate(scan)
            (expected, expected_spread) = reference_estimate(radio_map, scan)
            assert estimate.floor == expected.floor
            assert estimate.x_m == pytest.approx(expected.x_m, abs=1e-9)
            assert estimate.y_m == pytest.approx(expected.y_m, abs=1e-9)
            assert spread == pytest.approx(expected_spread, abs=1e-9)

    def test_distance_ties_resolve_in_radio_map_order(self):
        building = demo_building()
        same = {"a": -50.0, "b": -60.0}
        radio_map = [
            (GridPosition(9.0, 0.0), {"a": -80.0}),
            (GridPosition(1.0, 0.0), dict(same)),
            (GridPosition(2.0, 0.0), dict(same)),
            (GridPosition(3.0, 0.0), dict(same)),
        ]
        engine = FingerprintPositioningComponent(radio_map, building.grid, k=2)
        scan = WifiScan(
            0.0, (WifiObservation("a", -50.0), WifiObservation("b", -60.0))
        )
        estimate, _spread = engine.estimate(scan)
        assert estimate.x_m == pytest.approx(1.5)

    def test_signal_distance_is_symmetric_in_every_key_order(self):
        a = {f"ap{i}": -40.0 - 7.3 * i for i in range(9)}
        b = {f"ap{i}": -45.0 - 3.1 * i for i in range(3, 12)}
        shuffled = dict(sorted(a.items(), reverse=True))
        assert signal_distance(a, b) == signal_distance(b, shuffled)


bssids = st.sampled_from(("a", "b", "c", "d", "e"))
rssi_values = st.floats(min_value=-94.0, max_value=-30.0)
survey_entries = st.lists(
    st.tuples(
        st.builds(
            GridPosition,
            st.floats(min_value=0.0, max_value=40.0),
            st.floats(min_value=0.0, max_value=15.0),
        ),
        st.dictionaries(bssids, rssi_values, max_size=5),
    ),
    min_size=1,
    max_size=12,
).filter(lambda entries: any(vector for _pos, vector in entries))
scan_observations = st.lists(
    st.tuples(st.one_of(bssids, st.just("unsurveyed")), rssi_values),
    min_size=1,
    max_size=6,
    unique_by=lambda observation: observation[0],
)


class TestSharedRadioMapIndex:
    @settings(max_examples=100, deadline=None)
    @given(
        entries=survey_entries,
        scans=st.lists(scan_observations, min_size=1, max_size=5),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_matchers_sharing_a_map_match_a_plain_list_copy(
        self, entries, scans, k
    ):
        grid = LocalGrid(Wgs84Position(56.1718, 10.1903))
        radio_map = RadioMap(entries)
        shared = [
            FingerprintPositioningComponent(radio_map, grid, k=k, name=f"m{i}")
            for i in range(2)
        ]
        plain = [(pos, dict(vector)) for pos, vector in radio_map]
        reference = FingerprintPositioningComponent(plain, grid, k=k)
        for matcher in shared:
            assert matcher._groups is radio_map.index().groups
        assert reference._groups is not radio_map.index().groups
        for observations in scans:
            scan = WifiScan(
                0.0, tuple(WifiObservation(b, r) for b, r in observations)
            )
            expected = reference.estimate(scan)
            for matcher in shared:
                assert matcher.estimate(scan) == expected

    def test_demo_map_is_indexed_once(self):
        building = demo_building()
        radio_map = build_radio_map(
            demo_radio_environment(building), demo_survey_positions(2.0)
        )
        first = FingerprintPositioningComponent(radio_map, building.grid)
        second = FingerprintPositioningComponent(radio_map, building.grid)
        assert first._positions is second._positions
        assert first.map_size() == len(radio_map)
