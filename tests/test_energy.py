"""Tests for the energy model and the EnTracked re-implementation (§3.3)."""

import pytest

from repro.energy.entracked import (
    EnTrackedSystem,
    PowerStrategyFeature,
    SensorWrapperComponent,
)
from repro.energy.power import DeviceEnergyModel, PowerConstants
from repro.geo.wgs84 import Wgs84Position
from repro.sensors.trajectory import (
    RandomWalkTrajectory,
    StationaryTrajectory,
)

START = Wgs84Position(56.17, 10.19)


class TestDeviceEnergyModel:
    def test_gps_off_consumes_nothing_gpswise(self):
        model = DeviceEnergyModel(accelerometer_on=False)
        model.advance(100.0)
        assert model.total_joules() == 0.0

    def test_tracking_power_integrated(self):
        constants = PowerConstants(gps_acquisition_time_s=0.0)
        model = DeviceEnergyModel(constants, accelerometer_on=False)
        model.gps_on(0.0)
        model.advance(100.0)
        assert model.breakdown()["gps"] == pytest.approx(
            100.0 * constants.gps_tracking_w
        )

    def test_acquisition_phase_more_expensive(self):
        constants = PowerConstants(gps_acquisition_time_s=10.0)
        model = DeviceEnergyModel(constants, accelerometer_on=False)
        model.gps_on(0.0)
        model.advance(10.0)
        acquiring = model.breakdown()["gps"]
        assert acquiring == pytest.approx(10.0 * constants.gps_acquiring_w)
        model.advance(20.0)
        tracking_extra = model.breakdown()["gps"] - acquiring
        assert tracking_extra == pytest.approx(
            10.0 * constants.gps_tracking_w
        )

    def test_acquisition_boundary_split_in_one_advance(self):
        constants = PowerConstants(gps_acquisition_time_s=5.0)
        model = DeviceEnergyModel(constants, accelerometer_on=False)
        model.gps_on(0.0)
        model.advance(10.0)  # 5 s acquiring + 5 s tracking
        expected = 5.0 * constants.gps_acquiring_w + 5.0 * constants.gps_tracking_w
        assert model.breakdown()["gps"] == pytest.approx(expected)
        assert model.gps_state == DeviceEnergyModel.GPS_TRACKING

    def test_gps_ready_after_acquisition(self):
        model = DeviceEnergyModel()
        model.gps_on(0.0)
        assert not model.gps_ready(1.0)
        assert model.gps_ready(6.0)
        model.gps_off(7.0)
        assert not model.gps_ready(8.0)

    def test_transmission_costs(self):
        constants = PowerConstants(radio_burst_j=2.0, radio_j_per_kb=1.0)
        model = DeviceEnergyModel(constants, accelerometer_on=False)
        model.record_transmission(1024)
        assert model.breakdown()["radio"] == pytest.approx(3.0)
        assert model.transmissions == 1

    def test_accelerometer_always_on(self):
        model = DeviceEnergyModel()
        model.advance(100.0)
        assert model.breakdown()["accelerometer"] == pytest.approx(
            100.0 * PowerConstants().accelerometer_w
        )

    def test_backwards_time_rejected(self):
        model = DeviceEnergyModel()
        model.advance(10.0)
        with pytest.raises(ValueError):
            model.advance(5.0)

    def test_acquisition_counter(self):
        model = DeviceEnergyModel()
        model.gps_on(0.0)
        model.gps_off(10.0)
        model.gps_on(20.0)
        assert model.acquisitions == 2


class TestPowerStrategy:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerStrategyFeature(threshold_m=0.0)
        with pytest.raises(ValueError):
            PowerStrategyFeature().set_mode("warp")

    def test_continuous_mode_always_on(self):
        strategy = PowerStrategyFeature(mode="continuous")
        strategy.notify_fix_sent(0.0)
        assert strategy.gps_should_be_on(1.0)

    def test_initial_fix_always_wanted(self):
        strategy = PowerStrategyFeature(mode="entracked")
        assert strategy.gps_should_be_on(0.0)

    def test_sleep_after_fix_scales_with_threshold(self):
        fast = PowerStrategyFeature(threshold_m=10.0)
        slow = PowerStrategyFeature(threshold_m=100.0)
        for s in (fast, slow):
            s.update_speed(1.0)
            s.notify_fix_sent(0.0)
        # fast threshold wakes earlier
        assert fast._next_fix_time < slow._next_fix_time

    def test_stationary_gates_gps_off(self):
        strategy = PowerStrategyFeature()
        strategy.notify_fix_sent(0.0)
        strategy.set_moving(False, 1.0)
        assert not strategy.gps_should_be_on(1000.0)

    def test_wake_on_motion(self):
        strategy = PowerStrategyFeature()
        strategy.notify_fix_sent(0.0)
        strategy.set_moving(False, 1.0)
        strategy.set_moving(True, 50.0)
        assert strategy.gps_should_be_on(50.0)

    def test_threshold_setter(self):
        strategy = PowerStrategyFeature(threshold_m=10.0)
        strategy.set_threshold(75.0)
        assert strategy.get_threshold() == 75.0
        with pytest.raises(ValueError):
            strategy.set_threshold(-5.0)


def run_system(mode, threshold=50.0, duration=900.0, seed=2):
    trajectory = RandomWalkTrajectory(
        START, duration, seed=7, pause_probability=0.25, pause_s=40.0
    )
    system = EnTrackedSystem(
        trajectory, threshold_m=threshold, mode=mode, seed=seed
    )
    return system.run(duration)


class TestEnTrackedSystem:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            EnTrackedSystem(
                StationaryTrajectory(START, 10.0), mode="quantum"
            )

    def test_periodic_baseline_tracks_continuously(self):
        result = run_system("periodic", duration=300.0)
        assert result.gps_on_fraction > 0.9
        assert result.positions_reported > 250
        assert result.mean_error_m < 20.0

    def test_entracked_saves_energy(self):
        periodic = run_system("periodic", duration=600.0)
        entracked = run_system("entracked", duration=600.0)
        assert entracked.energy_j < periodic.energy_j * 0.5
        assert entracked.transmissions < periodic.transmissions * 0.5

    def test_entracked_error_bounded_reasonably(self):
        result = run_system("entracked", threshold=50.0, duration=900.0)
        # The paper's scheme bounds error near the threshold (acquisition
        # lag and detection delay allow modest overshoot).
        assert result.mean_error_m < 50.0
        assert result.positions_reported > 0

    def test_tighter_threshold_costs_more_energy(self):
        tight = run_system("entracked", threshold=10.0, duration=900.0)
        loose = run_system("entracked", threshold=150.0, duration=900.0)
        assert tight.energy_j > loose.energy_j
        assert tight.transmissions >= loose.transmissions

    def test_stationary_target_nearly_free(self):
        trajectory = StationaryTrajectory(START, 900.0)
        system = EnTrackedSystem(
            trajectory, threshold_m=50.0, mode="entracked", seed=1
        )
        result = system.run(900.0)
        # After the initial fix the accelerometer keeps the GPS off.
        assert result.gps_on_fraction < 0.1
        assert result.mean_error_m < 30.0

    def test_control_traffic_flows_server_to_mobile(self):
        trajectory = RandomWalkTrajectory(START, 300.0, seed=7)
        system = EnTrackedSystem(
            trajectory, threshold_m=25.0, mode="entracked", seed=2
        )
        system.run(300.0)
        # The EnTracked channel feature drives the strategy through the
        # remote proxy: control messages appear on the server->mobile link.
        assert system.network.message_count(source="server") > 0

    def test_wrapper_forward_rate_reflects_duty_cycle(self):
        trajectory = RandomWalkTrajectory(START, 300.0, seed=7)
        system = EnTrackedSystem(
            trajectory, threshold_m=100.0, mode="entracked", seed=2
        )
        system.run(300.0)
        assert system.wrapper.forward_rate() < 0.5

    def test_entracked_feature_tracks_violations(self):
        feature_states = run_system("entracked", threshold=10.0, duration=600.0)
        assert feature_states is not None  # run completed


class TestSensorWrapperUnit:
    def test_without_strategy_forwards_everything(self):
        from repro.core.component import ApplicationSink, SourceComponent
        from repro.core.data import Datum, Kind
        from repro.core.graph import ProcessingGraph

        graph = ProcessingGraph()
        source = SourceComponent("gps", (Kind.NMEA_RAW,))
        wrapper = SensorWrapperComponent()
        sink = ApplicationSink("app", (Kind.NMEA_RAW,))
        for c in (source, wrapper, sink):
            graph.add(c)
        graph.connect("gps", wrapper.name, "gps")
        graph.connect(wrapper.name, "app")
        source.inject(Datum(Kind.NMEA_RAW, "$frag", 0.0))
        assert len(sink.received) == 1
        assert wrapper.forward_rate() == 1.0
