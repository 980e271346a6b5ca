"""Tests for the city-scale scenario generator and closed-loop control.

Covers :mod:`repro.scenario` bottom-up -- the deterministic generator
(churn, degraded zones, bursts, EnTracked duty-cycling, the wire
bridge), the in-stream geofence component, each controller against stub
actuators, the bounded decision ledger, the runner's open- vs
closed-loop behaviour, and the middleware surfaces (``enable_scenario``,
``psl.scenario()`` / ``psl.controllers()``, the report's ``scenario:`` /
``control:`` sections, hub counters).
"""

import pytest

from repro.core.component import ApplicationSink
from repro.core.data import Datum
from repro.core.middleware import PerPos
from repro.core.report import infrastructure_snapshot, render_report
from repro.energy.entracked import PowerStrategyFeature
from repro.gateway.wire import PHONE_TRACKER_V1
from repro.observability import ObservabilityHub
from repro.robustness import SupervisionPolicy, Supervisor
from repro.runtime import PositioningEngine, ShardedEngine
from repro.runtime.scheduler import RoundRobinScheduler
from repro.scenario import (
    ALERT_KIND,
    GPS_KIND,
    SENSOR_KINDS,
    Actuators,
    BackpressureController,
    BurstEvent,
    CityConfig,
    CityGenerator,
    ControlError,
    ControlLoop,
    DegradedZone,
    GeofenceRule,
    QuarantineController,
    RebalanceController,
    SamplingController,
    ScenarioError,
    ScenarioRunner,
    build_city_graph,
    default_controllers,
)


def batch_key(batch):
    """A comparable fingerprint of everything a tick produced."""
    return (
        batch.tick,
        tuple(batch.joined),
        tuple(batch.left),
        tuple(
            (
                device_id,
                d.kind,
                d.payload,
                d.timestamp,
                tuple(sorted(d.attributes.items())),
            )
            for device_id, d in batch.events
        ),
        batch.suppressed,
        batch.zone_lost,
        batch.burst_extra,
    )


class TestCityConfig:
    def test_rejects_negative_devices(self):
        with pytest.raises(ScenarioError):
            CityConfig(devices=-1)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ScenarioError):
            CityConfig(width_m=0.0)

    def test_rejects_bad_churn(self):
        with pytest.raises(ScenarioError):
            CityConfig(churn_rate=1.5)

    def test_rejects_bad_periods(self):
        with pytest.raises(ScenarioError):
            CityConfig(wifi_period_ticks=0)


class TestCityGenerator:
    def test_same_seed_same_stream(self):
        config = CityConfig(seed=21, devices=25)
        a = CityGenerator(config)
        b = CityGenerator(config)
        for _ in range(30):
            assert batch_key(a.advance()) == batch_key(b.advance())

    def test_different_seeds_diverge(self):
        a = CityGenerator(CityConfig(seed=1, devices=25))
        b = CityGenerator(CityConfig(seed=2, devices=25))
        keys_a = [batch_key(a.advance()) for _ in range(5)]
        keys_b = [batch_key(b.advance()) for _ in range(5)]
        assert keys_a != keys_b

    def test_tick_zero_joins_whole_population(self):
        generator = CityGenerator(CityConfig(seed=3, devices=12, churn_rate=0.0))
        batch = generator.advance()
        assert len(batch.joined) == 12
        assert batch.left == []
        assert generator.active_devices() == batch.joined

    def test_out_of_order_tick_rejected(self):
        generator = CityGenerator(CityConfig(seed=3, devices=2))
        generator.advance(0)
        with pytest.raises(ScenarioError):
            generator.advance(5)

    def test_churn_replaces_devices(self):
        generator = CityGenerator(
            CityConfig(seed=5, devices=40, churn_rate=0.2)
        )
        left = joined = 0
        for _ in range(20):
            batch = generator.advance()
            left += len(batch.left)
            joined += len(batch.joined)
        assert left > 0
        assert joined - left == len(generator.active_devices())
        snapshot = generator.snapshot()
        assert snapshot["joined_total"] == joined
        assert snapshot["left_total"] == left

    def test_sensorless_draws_fall_back_to_gps(self):
        config = CityConfig(
            seed=7, devices=10, p_gps=0.0, p_wifi=0.0, p_ble=0.0
        )
        generator = CityGenerator(config)
        kinds = set()
        for _ in range(10):
            kinds.update(d.kind for _, d in generator.advance().events)
        assert kinds <= {GPS_KIND}
        assert GPS_KIND in kinds

    def test_total_zone_coverage_kills_gps(self):
        config = CityConfig(
            seed=9,
            devices=10,
            p_wifi=0.0,
            p_ble=0.0,
            zones=(DegradedZone("dead", 1000.0, 1000.0, 5000.0, drop_rate=1.0),),
            bursts=(),
        )
        generator = CityGenerator(config)
        for _ in range(10):
            batch = generator.advance()
            assert not [d for _, d in batch.events if d.kind == GPS_KIND]
        assert generator.zone_lost_total > 0

    def test_zone_blur_inflates_accuracy(self):
        config = CityConfig(
            seed=9,
            devices=10,
            p_wifi=0.0,
            p_ble=0.0,
            zones=(
                DegradedZone(
                    "haze",
                    1000.0,
                    1000.0,
                    5000.0,
                    drop_rate=0.0,
                    extra_error_m=30.0,
                ),
            ),
            bursts=(),
        )
        generator = CityGenerator(config)
        accuracies = []
        for _ in range(5):
            accuracies.extend(
                d.payload[2]
                for _, d in generator.advance().events
                if d.kind == GPS_KIND
            )
        assert accuracies
        # Base accuracy is 5-15m; the zone adds 30m to every survivor.
        assert min(accuracies) >= 35.0

    def test_burst_multiplies_traffic(self):
        burst = BurstEvent("rush", 2, 5, 1000.0, 1000.0, 5000.0, factor=3)
        config = CityConfig(
            seed=11, devices=10, zones=(), bursts=(burst,), churn_rate=0.0
        )
        generator = CityGenerator(config)
        for _ in range(2):
            assert generator.advance().burst_extra == 0
        batch = generator.advance()
        assert batch.burst_extra > 0
        copies = [
            d.attributes["burst_copy"]
            for _, d in batch.events
            if "burst_copy" in d.attributes
        ]
        assert copies and max(copies) == burst.factor - 1

    def test_raising_threshold_suppresses_fixes(self):
        config = CityConfig(
            seed=13, devices=20, p_wifi=0.0, p_ble=0.0, zones=(), bursts=()
        )
        low = CityGenerator(config)
        high = CityGenerator(config)
        assert high.set_gps_threshold(4000.0) == config.entracked_threshold_m
        low_events = high_events = 0
        for _ in range(30):
            low_events += len(low.advance().events)
            high_events += len(high.advance().events)
        assert high_events < low_events
        assert high.suppressed_total > low.suppressed_total

    def test_set_gps_threshold_rejects_nonpositive(self):
        generator = CityGenerator(CityConfig(seed=1, devices=1))
        with pytest.raises(ScenarioError):
            generator.set_gps_threshold(0.0)

    def test_wire_payload_validates_as_phone_tracker_v1(self):
        config = CityConfig(
            seed=17, devices=5, p_wifi=0.0, p_ble=0.0, zones=(), bursts=()
        )
        generator = CityGenerator(config)
        checked = 0
        for _ in range(5):
            for device_id, datum in generator.advance().events:
                payload = generator.wire_payload(device_id, datum)
                assert PHONE_TRACKER_V1.validate(payload) == []
                checked += 1
        assert checked > 0

    def test_wire_payload_rejects_non_gps(self):
        config = CityConfig(seed=17, devices=5, p_gps=0.0, p_wifi=1.0)
        generator = CityGenerator(config)
        for _ in range(5):
            for device_id, datum in generator.advance().events:
                if datum.kind != GPS_KIND:
                    with pytest.raises(ScenarioError):
                        generator.wire_payload(device_id, datum)
                    return
        pytest.fail("no non-GPS emission found")

    def test_snapshot_names_zones_and_bursts(self):
        generator = CityGenerator(CityConfig(seed=1, devices=2))
        snapshot = generator.snapshot()
        assert snapshot["zones"] == ["canyon", "tunnel"]
        assert snapshot["bursts"] == ["stadium"]
        assert snapshot["gps_threshold_m"] == 40.0


class TestGeofence:
    def test_rule_rejects_unknown_trigger(self):
        with pytest.raises(ValueError):
            GeofenceRule("bad", 0.0, 0.0, 10.0, trigger="sideways")

    def test_rule_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            GeofenceRule("bad", 0.0, 0.0, 0.0)

    @staticmethod
    def engine_with_rule(rule, capacity=64):
        graph = build_city_graph((rule,))
        engine = PositioningEngine(graph)
        engine.track("t1", "city-src", capacity=capacity)
        return engine, graph.component("geofence")

    @staticmethod
    def gps(x, y, tick):
        from repro.core.data import Datum

        return Datum(
            kind=GPS_KIND,
            payload=(x, y, 5.0),
            timestamp=float(tick),
            producer="test",
            attributes={"tick": tick},
        )

    def test_enter_and_exit_transitions(self):
        rule = GeofenceRule("zone", 100.0, 100.0, 50.0, trigger="both")
        engine, fence = self.engine_with_rule(rule)
        for tick, (x, y) in enumerate(
            [(0.0, 0.0), (100.0, 100.0), (110.0, 100.0), (500.0, 500.0)]
        ):
            engine.submit("t1", self.gps(x, y, tick))
        engine.drain_round()
        transitions = [(a["transition"], a["tick"]) for a in fence.alerts()]
        assert transitions == [("enter", 1), ("exit", 3)]
        assert fence.alerts_raised == 2
        assert [a["target"] for a in fence.alerts()] == ["t1", "t1"]

    def test_enter_trigger_ignores_exits(self):
        rule = GeofenceRule("zone", 100.0, 100.0, 50.0, trigger="enter")
        engine, fence = self.engine_with_rule(rule)
        for tick, (x, y) in enumerate(
            [(500.0, 500.0), (100.0, 100.0), (500.0, 500.0), (100.0, 100.0)]
        ):
            engine.submit("t1", self.gps(x, y, tick))
        engine.drain_round()
        assert [a["transition"] for a in fence.alerts()] == ["enter", "enter"]

    def test_alert_datums_reach_alert_sink(self):
        rule = GeofenceRule("zone", 100.0, 100.0, 50.0, trigger="enter")
        graph = build_city_graph((rule,))
        engine = PositioningEngine(graph)
        engine.track("t1", "city-src", capacity=64)
        engine.submit("t1", self.gps(500.0, 500.0, 0))
        engine.submit("t1", self.gps(100.0, 100.0, 1))
        engine.drain_round()
        sink = graph.component("city-alerts")
        payloads = [d.payload for d in sink.received]
        assert payloads == [("zone", "t1", "enter", 1)]
        app = graph.component("city-app")
        assert all(d.kind in SENSOR_KINDS for d in app.received)
        assert len(app.received) == 2

    def test_a_rounds_outputs_leave_in_one_hand_off_alerts_first(self):
        rules = (
            GeofenceRule("a", 100.0, 100.0, 50.0, trigger="enter"),
            GeofenceRule("b", 120.0, 100.0, 50.0, trigger="enter"),
        )
        graph = build_city_graph(rules)
        tap = ApplicationSink("tap", SENSOR_KINDS + (ALERT_KIND,))
        graph.add(tap)
        graph.connect("geofence", "tap", "in")
        batches = []
        receive_batch = tap.receive_batch

        def spy(port_name, datums):
            batches.append([d.kind for d in datums])
            receive_batch(port_name, datums)

        tap.receive_batch = spy
        engine = PositioningEngine(graph)
        for target, x in (("t1", 100.0), ("t2", 110.0)):
            engine.track(target, "city-src")
            engine.submit(target, self.gps(x, 100.0, 0))
        engine.drain_round()
        # Both lanes cross as one batch, and the geofence hands its
        # outputs on together: routing takes them one kind at a time,
        # each fix's alerts ahead of it.
        assert batches == [[ALERT_KIND] * 4, [GPS_KIND] * 2]
        assert [d.payload[:2] for d in tap.received[:4]] == [
            ("a", "t1"),
            ("b", "t1"),
            ("a", "t2"),
            ("b", "t2"),
        ]

    def test_alert_ring_is_bounded(self):
        rule = GeofenceRule("zone", 100.0, 100.0, 50.0, trigger="both")
        graph = build_city_graph((rule,), ring_limit=4)
        engine = PositioningEngine(graph)
        engine.track("t1", "city-src", capacity=1024)
        fence = graph.component("geofence")
        for tick in range(20):
            inside = tick % 2 == 1
            x = 100.0 if inside else 500.0
            engine.submit("t1", self.gps(x, 100.0, tick))
        engine.drain_round()
        assert fence.alerts_raised == 19
        assert len(fence.alerts()) == 4
        # Newest last: the surviving records are the final transitions.
        assert fence.alerts()[-1]["tick"] == 19

    def test_state_snapshot_round_trip(self):
        rule = GeofenceRule("zone", 100.0, 100.0, 50.0, trigger="both")
        engine, fence = self.engine_with_rule(rule)
        engine.submit("t1", self.gps(100.0, 100.0, 0))
        engine.drain_round()
        state = fence.state_snapshot()
        assert state["inside"] == {"t1|zone": True}

        engine2, fence2 = self.engine_with_rule(rule)
        fence2.state_restore(state)
        # Restored inside-state: staying inside raises nothing new.
        engine2.submit("t1", self.gps(100.0, 100.0, 1))
        engine2.drain_round()
        assert fence2.alerts_raised == 1
        assert len(fence2.alerts()) == 1


class RecordingActuators(Actuators):
    """Stub actuators that record every actuation for assertions."""

    def __init__(self, **kwargs):
        self.calls = []
        super().__init__(
            set_backpressure=lambda target, **kw: self.calls.append(
                ("backpressure", target, kw)
            ),
            set_gps_threshold=lambda m: self.calls.append(("threshold", m)),
            set_supervision=lambda **kw: self.calls.append(
                ("supervision", kw)
            ),
            migrate_target=lambda target, shard: (
                self.calls.append(("migrate", target, shard))
                or {"from": 0, "to": shard, "datums": 3}
            ),
            **kwargs,
        )


def lane_view(tick=0, **lanes):
    return {"tick": tick, "lanes": lanes, "dropped_total": 0}


class TestBackpressureController:
    def test_grows_on_new_drops(self):
        controller = BackpressureController()
        actuators = RecordingActuators()
        view = lane_view(
            t1={"capacity": 8, "depth": 2, "dropped_oldest": 3}
        )
        decisions = controller.evaluate(view, actuators)
        assert decisions[0]["action"] == "grow_capacity"
        assert decisions[0]["params"] == {"capacity": 16}
        assert actuators.calls == [("backpressure", "t1", {"capacity": 16})]

    def test_grows_on_depth_fraction(self):
        controller = BackpressureController(high=0.75)
        actuators = RecordingActuators()
        view = lane_view(t1={"capacity": 8, "depth": 6})
        assert controller.evaluate(view, actuators)[0]["action"] == (
            "grow_capacity"
        )

    def test_respects_max_capacity(self):
        controller = BackpressureController(max_capacity=16)
        actuators = RecordingActuators()
        view = lane_view(t1={"capacity": 16, "depth": 16, "dropped_oldest": 5})
        assert controller.evaluate(view, actuators) == []
        assert actuators.calls == []

    def test_cooldown_blocks_consecutive_growth(self):
        controller = BackpressureController(cooldown_rounds=3)
        actuators = RecordingActuators()
        view = lane_view(
            tick=0, t1={"capacity": 8, "depth": 0, "dropped_oldest": 1}
        )
        assert controller.evaluate(view, actuators)
        view = lane_view(
            tick=1, t1={"capacity": 16, "depth": 0, "dropped_oldest": 2}
        )
        assert controller.evaluate(view, actuators) == []

    def test_shrinks_after_calm_rounds(self):
        controller = BackpressureController(
            calm_rounds=3, min_capacity=8, cooldown_rounds=0
        )
        actuators = RecordingActuators()
        decisions = []
        for tick in range(4):
            view = lane_view(tick=tick, t1={"capacity": 64, "depth": 0})
            decisions += controller.evaluate(view, actuators)
        assert [d["action"] for d in decisions] == ["shrink_capacity"]
        assert decisions[0]["params"] == {"capacity": 32}

    def test_noop_without_actuator(self):
        controller = BackpressureController()
        view = lane_view(t1={"capacity": 8, "depth": 8, "dropped_oldest": 9})
        assert controller.evaluate(view, Actuators()) == []

    def test_rejects_bad_watermarks(self):
        with pytest.raises(ControlError):
            BackpressureController(high=0.2, low=0.5)


class TestSamplingController:
    def test_raises_threshold_on_drops(self):
        controller = SamplingController(base_m=40.0)
        actuators = RecordingActuators()
        view = {"tick": 0, "dropped_total": 5}
        decisions = controller.evaluate(view, actuators)
        assert decisions[0]["action"] == "raise_threshold"
        assert decisions[0]["params"] == {"threshold_m": 80.0}
        assert actuators.calls == [("threshold", 80.0)]

    def test_threshold_capped_at_max(self):
        controller = SamplingController(base_m=40.0, max_m=80.0)
        actuators = RecordingActuators()
        assert controller.evaluate({"dropped_total": 5}, actuators)
        assert controller.evaluate({"dropped_total": 10}, actuators) == []

    def test_recovers_after_clean_rounds(self):
        controller = SamplingController(base_m=40.0, recover_rounds=3)
        actuators = RecordingActuators()
        controller.evaluate({"dropped_total": 5}, actuators)
        decisions = []
        for _ in range(3):
            decisions += controller.evaluate({"dropped_total": 5}, actuators)
        assert [d["action"] for d in decisions] == ["lower_threshold"]
        assert decisions[0]["params"] == {"threshold_m": 40.0}

    def test_rejects_bad_factor(self):
        with pytest.raises(ControlError):
            SamplingController(raise_factor=1.0)


class TestQuarantineController:
    @staticmethod
    def supervisor_view(failures):
        return {
            "tick": 0,
            "supervisor": {"components": {"c": {"failures": failures}}},
        }

    def test_tightens_on_new_failures(self):
        controller = QuarantineController(base_failure_threshold=5)
        actuators = RecordingActuators()
        decisions = controller.evaluate(self.supervisor_view(2), actuators)
        assert decisions[0]["action"] == "tighten"
        assert decisions[0]["params"]["failure_threshold"] == 4
        assert actuators.calls[0][0] == "supervision"

    def test_relaxes_after_quiet_rounds(self):
        controller = QuarantineController(quiet_rounds=2)
        actuators = RecordingActuators()
        controller.evaluate(self.supervisor_view(2), actuators)
        decisions = []
        for _ in range(2):
            decisions += controller.evaluate(
                self.supervisor_view(2), actuators
            )
        assert [d["action"] for d in decisions] == ["relax"]
        assert decisions[0]["params"]["failure_threshold"] == 5

    def test_noop_without_supervisor_in_view(self):
        controller = QuarantineController()
        assert controller.evaluate({"tick": 0}, RecordingActuators()) == []


class TestRebalanceController:
    @staticmethod
    def sharded_view(tick=0):
        return {
            "tick": tick,
            "shards": {0: 100, 1: 2},
            "lanes": {
                "hot": {"depth": 90, "shard": 0},
                "warm": {"depth": 10, "shard": 0},
                "cold": {"depth": 2, "shard": 1},
            },
        }

    def test_migrates_deepest_lane_off_hottest_shard(self):
        controller = RebalanceController(min_pending=32)
        actuators = RecordingActuators()
        decisions = controller.evaluate(self.sharded_view(), actuators)
        assert decisions[0]["action"] == "migrate"
        assert decisions[0]["target"] == "hot"
        assert ("migrate", "hot", 1) in actuators.calls

    def test_cooldown_limits_migration_rate(self):
        controller = RebalanceController(min_pending=32, cooldown_rounds=5)
        actuators = RecordingActuators()
        assert controller.evaluate(self.sharded_view(0), actuators)
        assert controller.evaluate(self.sharded_view(1), actuators) == []

    def test_balanced_shards_left_alone(self):
        controller = RebalanceController(min_pending=32)
        view = self.sharded_view()
        view["shards"] = {0: 40, 1: 38}
        assert controller.evaluate(view, RecordingActuators()) == []

    def test_single_shard_is_a_noop(self):
        controller = RebalanceController()
        view = {"tick": 0, "shards": {0: 500}, "lanes": {}}
        assert controller.evaluate(view, RecordingActuators()) == []

    def test_degraded_shards_never_receive_a_lane(self):
        controller = RebalanceController(min_pending=32)
        actuators = RecordingActuators()
        view = self.sharded_view()
        view["shards"] = {0: 100, 1: 2, 2: 5}
        view["degraded"] = [1]
        [decision] = controller.evaluate(view, actuators)
        assert decision["params"]["to"] == 2
        assert actuators.calls == [("migrate", "hot", 2)]

    def test_no_healthy_destination_no_decision(self):
        controller = RebalanceController(min_pending=32)
        actuators = RecordingActuators()
        view = self.sharded_view()
        view["degraded"] = [1]
        assert controller.evaluate(view, actuators) == []
        assert actuators.calls == []
        # No cooldown was started: a healed shard takes the lane next tick.
        view = self.sharded_view(tick=1)
        view["degraded"] = []
        assert controller.evaluate(view, actuators)[0]["params"]["to"] == 1

    def test_rejects_bad_imbalance(self):
        with pytest.raises(ControlError):
            RebalanceController(imbalance=1.0)


class TestControlLoop:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ControlError):
            ControlLoop([SamplingController(), SamplingController()])

    def test_ledger_records_and_bounds(self):
        loop = ControlLoop(
            [SamplingController(max_m=1_000_000.0)], ledger_limit=3
        )
        actuators = RecordingActuators()
        dropped = 0
        for tick in range(6):
            dropped += 5
            loop.step({"tick": tick, "dropped_total": dropped}, actuators)
        ledger = loop.ledger()
        assert len(ledger) == 3
        assert loop.decisions_total > 3
        assert ledger[-1]["controller"] == "sampling"
        assert ledger[-1]["tick"] == 5

    def test_snapshot_reports_counts_and_recent(self):
        loop = ControlLoop([SamplingController()])
        loop.step({"tick": 0, "dropped_total": 5}, RecordingActuators())
        snapshot = loop.snapshot()
        assert snapshot["decisions_total"] == 1
        assert snapshot["by_controller"] == {"sampling": 1}
        assert snapshot["ledger_depth"] == 1
        assert snapshot["recent"][0]["action"] == "raise_threshold"
        assert [c["name"] for c in snapshot["controllers"]] == ["sampling"]

    def test_hub_counters_follow_decisions(self):
        hub = ObservabilityHub(time_fn=lambda: 0.0)
        loop = ControlLoop([SamplingController()])
        loop.step(
            {"tick": 0, "dropped_total": 5}, RecordingActuators(), hub
        )
        counter = hub.registry.counter(
            "controller_decisions",
            controller="sampling",
            action="raise_threshold",
        )
        assert counter.value == 1
        assert hub.registry.gauge("control_ledger_depth").value == 1

    def test_default_controllers_shapes(self):
        names = [c.name for c in default_controllers()]
        assert names == ["backpressure", "sampling", "quarantine"]
        sharded = [c.name for c in default_controllers(sharded=True)]
        assert sharded[-1] == "rebalance"


def overload_config(seed=19):
    """A small config whose burst overloads tiny lanes quickly."""
    return CityConfig(
        seed=seed,
        devices=20,
        churn_rate=0.0,
        zones=(),
        bursts=(BurstEvent("rush", 5, 30, 1000.0, 1000.0, 5000.0, factor=8),),
    )


def small_runner(*, closed, seed=19, capacity=4, hub=None, supervisor=None):
    engine = PositioningEngine(
        build_city_graph(), scheduler=RoundRobinScheduler(quantum=2)
    )
    control = None
    if closed:
        control = ControlLoop(default_controllers(max_capacity=64))
    return ScenarioRunner(
        CityGenerator(overload_config(seed)),
        engine,
        control=control,
        capacity=capacity,
        hub=hub,
        supervisor=supervisor,
    )


class TestScenarioRunner:
    def test_closed_loop_drops_less_than_open(self):
        open_result = small_runner(closed=False).run(60)
        closed_result = small_runner(closed=True).run(60)
        assert open_result["dropped"] > 0
        assert closed_result["dropped"] < open_result["dropped"]
        assert closed_result["decisions"] > 0
        assert closed_result["closed_loop"] is True
        assert open_result["closed_loop"] is False

    def test_same_seed_same_result_and_ledger(self):
        a = small_runner(closed=True)
        b = small_runner(closed=True)
        assert a.run(40) == b.run(40)
        assert a.decision_ledger() == b.decision_ledger()

    def test_drop_accounting_survives_churn(self):
        config = CityConfig(
            seed=23,
            devices=20,
            churn_rate=0.15,
            zones=(),
            bursts=(
                BurstEvent("rush", 2, 40, 1000.0, 1000.0, 5000.0, factor=8),
            ),
        )
        engine = PositioningEngine(
            build_city_graph(), scheduler=RoundRobinScheduler(quantum=1)
        )
        runner = ScenarioRunner(
            CityGenerator(config), engine, capacity=4
        )
        dropped_seen = 0
        for _ in range(40):
            view = runner.run_tick()
            # Cumulative: untracking a lane never loses its drop count.
            assert view["dropped_total"] >= dropped_seen
            dropped_seen = view["dropped_total"]
        assert dropped_seen > 0
        assert runner.result()["dropped"] == dropped_seen

    def test_open_loop_ledger_is_empty(self):
        runner = small_runner(closed=False)
        runner.run(5)
        assert runner.decision_ledger() == []

    def test_negative_ticks_rejected(self):
        with pytest.raises(ScenarioError):
            small_runner(closed=False).run(-1)

    def test_swap_policy_replaces_supervisor_policy(self):
        supervisor = Supervisor(policy=SupervisionPolicy())
        runner = small_runner(closed=True, supervisor=supervisor)
        before = supervisor.policy
        runner._swap_policy(failure_threshold=2)
        assert supervisor.policy is not before
        assert supervisor.policy.failure_threshold == 2
        assert supervisor.policy.mode == before.mode

    def test_snapshot_shape(self):
        runner = small_runner(closed=True)
        runner.run(10)
        snapshot = runner.snapshot()
        assert snapshot["sharded"] is False
        assert snapshot["closed_loop"] is True
        assert snapshot["capacity"] == 4
        assert snapshot["progress"]["ticks"] == 10
        assert snapshot["progress"]["submitted"] == runner.submitted
        assert snapshot["generator"]["seed"] == 19


class TestShardedView:
    """The per-tick view on a sharded engine, read and acted on."""

    @staticmethod
    def sharded(control=None):
        engine = ShardedEngine(build_city_graph, 2)
        generator = CityGenerator(CityConfig(seed=3, devices=4))
        return engine, ScenarioRunner(generator, engine, control=control)

    def test_view_reads_lane_counters_not_snapshots(self):
        engine, runner = self.sharded()
        with engine:
            for n in range(3):
                engine.track(f"t{n}", "city-src", capacity=4, shard=n % 2)
                for i in range(6):
                    engine.submit(f"t{n}", Datum(GPS_KIND, i, float(i)))
            calls = []
            for shard in engine.shards():
                for op in ("snapshot", "lane_counters"):
                    method = getattr(shard, op)

                    def counted(*args, _op=op, _method=method, **kwargs):
                        calls.append(_op)
                        return _method(*args, **kwargs)

                    setattr(shard, op, counted)
            view = runner.view(0, 0)
            assert calls == ["lane_counters", "lane_counters"]
            assert view["lanes"] == engine.lane_counters()
            assert view["lanes"]["t0"]["dropped_oldest"] == 2
            assert view["shards"] == {0: 8, 1: 4}
            assert view["pending"] == 12
            assert view["dropped_total"] == 6
            assert view["degraded"] == []

    def test_rebalance_onto_a_degraded_shard_does_not_end_the_run(self):
        # Shard 0 holds four lanes with 80 pending datums; shard 1 has
        # one idle lane and is degraded, so no shard can take a lane.
        control = ControlLoop([RebalanceController()])
        engine, runner = self.sharded(control)
        with engine:
            for n in range(4):
                engine.track(f"hot{n}", "city-src", capacity=32, shard=0)
                for i in range(20):
                    engine.submit(f"hot{n}", Datum(GPS_KIND, i, float(i)))
            engine.track("idle", "city-src", shard=1)
            engine.shard(1).mark_degraded("marked degraded")
            actuators = Actuators(migrate_target=engine.migrate_target)
            view = runner.view(0, 0)
            assert view["shards"] == {0: 80, 1: 0}
            assert view["degraded"] == [1]
            assert control.step(view, actuators) == []
            assert engine.assignments()["hot3"] == 0
            engine.restore_shard(1)
            [decision] = control.step(runner.view(1, 0), actuators)
            assert (decision["target"], decision["params"]["to"]) == ("hot3", 1)
            assert engine.assignments()["hot3"] == 1


class TestMiddlewareSurfaces:
    def test_psl_and_report_surfaces(self):
        pp = PerPos()
        runner = small_runner(closed=True)
        runner.run(20)
        pp.enable_scenario(runner)

        scenario = pp.psl.scenario()
        assert scenario["closed_loop"] is True
        assert scenario["generator"]["seed"] == 19
        controllers = pp.psl.controllers()
        assert controllers["decisions_total"] == runner.control.decisions_total
        assert pp.psl.decision_ledger() == runner.decision_ledger()

        snapshot = infrastructure_snapshot(pp)
        assert snapshot["scenario"]["closed_loop"] is True
        assert snapshot["control"]["decisions_total"] > 0
        report = render_report(pp)
        assert "scenario:" in report
        assert "control:" in report
        assert "seed=19" in report

    def test_disable_scenario_clears_surfaces(self):
        pp = PerPos()
        runner = small_runner(closed=True)
        pp.enable_scenario(runner)
        assert pp.disable_scenario() is runner
        assert pp.psl.scenario() == {}
        assert pp.psl.controllers() == {}
        assert pp.psl.decision_ledger() == []
        assert "(no scenario installed)" in render_report(pp)

    def test_scenario_runner_is_registered_service(self):
        pp = PerPos()
        runner = small_runner(closed=False)
        pp.enable_scenario(runner)
        registry = pp.framework.registry
        assert registry.find_service("perpos.ScenarioRunner") is runner
        pp.disable_scenario()
        assert registry.find_service("perpos.ScenarioRunner") is None

    def test_hub_counters_track_the_run(self):
        hub = ObservabilityHub(time_fn=lambda: 0.0)
        runner = small_runner(closed=True, hub=hub)
        result = runner.run(30)
        registry = hub.registry
        assert registry.counter("scenario_ticks").value == 30
        assert registry.counter("scenario_events").value == result["submitted"]
        assert registry.gauge("scenario_devices").value == result["devices"]
        assert registry.gauge("control_ledger_depth").value == len(
            runner.decision_ledger()
        )

    def test_geofence_alert_counter(self):
        hub = ObservabilityHub(time_fn=lambda: 0.0)
        rule = GeofenceRule("downtown", 1000.0, 1000.0, 900.0, trigger="both")
        engine = PositioningEngine(
            build_city_graph((rule,)),
            scheduler=RoundRobinScheduler(quantum=8),
        )
        runner = ScenarioRunner(
            CityGenerator(overload_config()), engine, capacity=64, hub=hub
        )
        result = runner.run(40)
        assert result["alerts"] > 0
        counter = hub.registry.counter("geofence_alerts", rule="downtown")
        assert counter.value == result["alerts"]


class TestEnTrackedSleepInterval:
    def make(self):
        return PowerStrategyFeature(
            threshold_m=40.0,
            acquisition_time_s=0.0,
            min_sleep_s=1.0,
            max_sleep_s=60.0,
        )

    def test_mid_speed_is_threshold_over_speed(self):
        assert self.make().sleep_interval_s(2.0) == pytest.approx(20.0)

    def test_slow_speed_clamps_to_max_sleep(self):
        assert self.make().sleep_interval_s(0.001) == pytest.approx(60.0)

    def test_fast_speed_clamps_to_min_sleep(self):
        assert self.make().sleep_interval_s(100.0) == pytest.approx(1.0)

    def test_defaults_to_tracked_speed(self):
        strategy = self.make()
        strategy.update_speed(4.0)
        assert strategy.sleep_interval_s() == pytest.approx(10.0)


class TestGraphRecipe:
    def test_alert_kind_routed_away_from_app_sink(self):
        graph = build_city_graph()
        app = graph.component("city-app")
        alerts = graph.component("city-alerts")
        assert ALERT_KIND not in app.input_port("in").accepts
        assert tuple(alerts.input_port("in").accepts) == (ALERT_KIND,)
