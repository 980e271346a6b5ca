"""Tests for supervised dispatch: isolation, quarantine, fault injection.

Covers the :class:`SupervisionPolicy` validation, failure reification
(:class:`FailureRecord`), the three policy modes at the delivery
boundary, the circuit-breaker state machine (sliding window, half-open
probes, manual overrides), reentrant graph mutation from supervision
listeners, the PSL/observability surfaces, deterministic fault
injection through the Component Feature seam, provider failover in the
Positioning Layer, and the end-to-end quarantine -> failover -> recovery
scenario from the issue's acceptance criteria.
"""

import pytest

from repro.clock import SimulationClock
from repro.core import Kind, PerPos
from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.core.data import Datum
from repro.core.features import FeatureError
from repro.core.graph import ProcessingGraph
from repro.core.pcl import ProcessChannelLayer
from repro.core.positioning import Criteria
from repro.core.report import infrastructure_snapshot, render_report
from repro.observability import MetricsRegistry, ObservabilityHub
from repro.robustness import (
    FaultInjected,
    FaultInjectionFeature,
    SupervisionError,
    SupervisionPolicy,
    Supervisor,
)
from repro.robustness.supervision import (
    CLOSED,
    HALF_OPEN,
    ISOLATE,
    OPEN,
    PROPAGATE,
    QUARANTINE,
)


def build_fanout(fail_on=None):
    """src -> [bomb, ok1 -> down, ok2]; bomb raises per ``fail_on``.

    ``fail_on`` is a predicate over the datum payload (None = always
    raise).  Returns (graph, source, sinks-by-name).
    """

    def bomb_fn(datum):
        if fail_on is None or fail_on(datum.payload):
            raise ValueError(f"boom on {datum.payload}")
        return datum

    graph = ProcessingGraph()
    source = SourceComponent("src", ("x",))
    bomb = FunctionComponent("bomb", ("x",), ("x",), fn=bomb_fn)
    ok1 = FunctionComponent("ok1", ("x",), ("x",), fn=lambda d: d)
    ok2 = ApplicationSink("ok2", ("x",))
    down = ApplicationSink("down", ("x",))
    for c in (source, bomb, ok1, ok2, down):
        graph.add(c)
    graph.connect("src", "bomb")
    graph.connect("src", "ok1")
    graph.connect("src", "ok2")
    graph.connect("ok1", "down")
    return graph, source, {"ok2": ok2, "down": down}


def supervised_fanout(policy, time_fn=None, **kwargs):
    graph, source, sinks = build_fanout(**kwargs)
    supervisor = Supervisor(policy, time_fn=time_fn)
    graph.set_supervisor(supervisor)
    return graph, source, sinks, supervisor


class TestSupervisionPolicy:
    def test_defaults(self):
        policy = SupervisionPolicy()
        assert policy.mode == ISOLATE
        assert policy.failure_threshold == 5
        assert policy.window_s == 60.0
        assert policy.half_open_after_s == 30.0
        assert policy.max_records == 256

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "explode"},
            {"failure_threshold": 0},
            {"window_s": 0.0},
            {"window_s": -1.0},
            {"half_open_after_s": 0.0},
            {"max_records": 0},
        ],
    )
    def test_invalid_configuration_raises(self, kwargs):
        with pytest.raises(SupervisionError):
            SupervisionPolicy(**kwargs)


class TestFailureRecords:
    def test_record_captures_the_failure_seam(self):
        clock = SimulationClock()
        clock.advance(7.5)
        _graph, source, _sinks, supervisor = supervised_fanout(
            SupervisionPolicy(mode=ISOLATE), time_fn=lambda: clock.now
        )
        source.inject(Datum("x", 1, 0.0))
        (record,) = supervisor.failure_records("bomb")
        assert record.component == "bomb"
        assert record.port == "in"
        assert record.kind == "x"
        assert record.time_s == 7.5
        assert record.seq == 1
        assert record.error_type == "ValueError"
        assert "boom on 1" in record.message
        # Origin points into the failing component's own code.
        assert "bomb_fn" in record.origin
        assert "boom on 1" in record.summary()
        assert record.as_dict()["error_type"] == "ValueError"

    def test_ring_buffer_is_bounded(self):
        policy = SupervisionPolicy(mode=ISOLATE, max_records=3)
        _graph, source, _sinks, supervisor = supervised_fanout(policy)
        for i in range(10):
            source.inject(Datum("x", i, float(i)))
        records = supervisor.failure_records()
        assert len(records) == 3
        assert [r.seq for r in records] == [8, 9, 10]
        # The running total is not bounded by the ring.
        assert supervisor.failure_count("bomb") == 10

    def test_records_filtered_by_component(self):
        _graph, source, _sinks, supervisor = supervised_fanout(
            SupervisionPolicy(mode=ISOLATE)
        )
        source.inject(Datum("x", 1, 0.0))
        assert supervisor.failure_records("ok2") == []
        assert len(supervisor.failure_records("bomb")) == 1


class TestIsolationModes:
    def test_isolate_contains_failure_at_delivery_boundary(self):
        _graph, source, sinks, supervisor = supervised_fanout(
            SupervisionPolicy(mode=ISOLATE)
        )
        source.inject(Datum("x", 1, 0.0))
        source.inject(Datum("x", 2, 1.0))
        # Siblings and their downstream keep receiving everything.
        assert [d.payload for d in sinks["ok2"].received] == [1, 2]
        assert [d.payload for d in sinks["down"].received] == [1, 2]
        assert supervisor.failure_count("bomb") == 2
        # Isolation never trips a breaker.
        assert supervisor.health("bomb") == CLOSED
        assert supervisor.quarantined() == []

    def test_propagate_reraises_but_still_records(self):
        _graph, source, sinks, supervisor = supervised_fanout(
            SupervisionPolicy(mode=PROPAGATE)
        )
        with pytest.raises(ValueError):
            source.inject(Datum("x", 1, 0.0))
        assert supervisor.failure_count("bomb") == 1
        assert len(supervisor.failure_records("bomb")) == 1
        # The cascade unwound: siblings routed after the bomb got nothing.
        assert sinks["ok2"].received == []

    def test_downstream_failure_does_not_unwind_upstream(self):
        """A failure two hops down is caught at its own boundary."""

        def bomb_fn(datum):
            raise RuntimeError("deep boom")

        graph = ProcessingGraph()
        source = SourceComponent("src", ("x",))
        stage = FunctionComponent("stage", ("x",), ("x",), fn=lambda d: d)
        deep = FunctionComponent("deep", ("x",), ("x",), fn=bomb_fn)
        side = ApplicationSink("side", ("x",))
        for c in (source, stage, deep, side):
            graph.add(c)
        graph.connect("src", "stage")
        graph.connect("stage", "deep")
        graph.connect("src", "side")
        supervisor = Supervisor(SupervisionPolicy(mode=ISOLATE))
        graph.set_supervisor(supervisor)
        source.inject(Datum("x", 1, 0.0))
        assert [d.payload for d in side.received] == [1]
        assert supervisor.failure_count("deep") == 1
        assert supervisor.failure_count("stage") == 0

    def test_set_supervisor_returns_previous_and_detaches(self):
        graph = ProcessingGraph()
        first = Supervisor()
        second = Supervisor()
        assert graph.set_supervisor(first) is None
        assert graph.supervisor is first
        assert graph.set_supervisor(second) is first
        assert graph.supervisor is second
        assert graph.set_supervisor(None) is second


class TestCircuitBreaker:
    def make(self, threshold=3, window_s=60.0, half_open_after_s=30.0):
        clock = SimulationClock()
        policy = SupervisionPolicy(
            mode=QUARANTINE,
            failure_threshold=threshold,
            window_s=window_s,
            half_open_after_s=half_open_after_s,
        )
        graph, source, sinks, supervisor = supervised_fanout(
            policy, time_fn=lambda: clock.now
        )
        return clock, graph, source, sinks, supervisor

    def test_trips_after_threshold_within_window(self):
        clock, _graph, source, _sinks, supervisor = self.make(threshold=3)
        for i in range(3):
            clock.advance(1.0)
            source.inject(Datum("x", i, float(i)))
        assert supervisor.health("bomb") == OPEN
        assert supervisor.quarantined() == ["bomb"]

    def test_quarantined_component_is_skipped_by_routing(self):
        clock, _graph, source, sinks, supervisor = self.make(threshold=2)
        for i in range(2):
            clock.advance(1.0)
            source.inject(Datum("x", i, float(i)))
        assert supervisor.health("bomb") == OPEN
        failures_before = supervisor.failure_count("bomb")
        clock.advance(1.0)
        source.inject(Datum("x", 99, 9.0))
        # Skipped, not failed: the bomb never saw the datum.
        assert supervisor.failure_count("bomb") == failures_before
        assert supervisor.skipped_count("bomb") == 1
        # Siblings are unaffected by the quarantine.
        assert sinks["ok2"].received[-1].payload == 99

    def test_sliding_window_expires_old_failures(self):
        clock, _graph, source, _sinks, supervisor = self.make(
            threshold=3, window_s=10.0
        )
        source.inject(Datum("x", 1, 0.0))
        clock.advance(4.0)
        source.inject(Datum("x", 2, 1.0))
        # Third failure lands 12 s after the first: only two remain in
        # the window, so the breaker stays closed.
        clock.advance(8.0)
        source.inject(Datum("x", 3, 2.0))
        assert supervisor.health("bomb") == CLOSED
        # A fourth failure close behind the third crosses the threshold.
        clock.advance(1.0)
        source.inject(Datum("x", 4, 3.0))
        assert supervisor.health("bomb") == OPEN

    def test_half_open_probe_success_closes(self):
        clock, graph, source, _sinks, supervisor = self.make(
            threshold=2, half_open_after_s=30.0
        )
        for i in range(2):
            clock.advance(1.0)
            source.inject(Datum("x", i, float(i)))
        assert supervisor.health("bomb") == OPEN
        # Heal the component, then wait out the probe window.
        graph.component("bomb")._fn = lambda d: d
        clock.advance(30.0)
        source.inject(Datum("x", 42, 9.0))
        assert supervisor.health("bomb") == CLOSED
        assert supervisor.quarantined() == []

    def test_half_open_probe_failure_reopens(self):
        clock, _graph, source, _sinks, supervisor = self.make(
            threshold=2, half_open_after_s=30.0
        )
        for i in range(2):
            clock.advance(1.0)
            source.inject(Datum("x", i, float(i)))
        clock.advance(30.0)
        # Still broken: the single probe fails and the breaker reopens
        # immediately -- one failure, not a fresh threshold count.
        source.inject(Datum("x", 3, 9.0))
        assert supervisor.health("bomb") == OPEN
        # The next delivery inside the new open window is skipped.
        clock.advance(1.0)
        skipped_before = supervisor.skipped_count("bomb")
        source.inject(Datum("x", 4, 10.0))
        assert supervisor.skipped_count("bomb") == skipped_before + 1

    def test_before_probe_window_stays_open(self):
        clock, _graph, source, _sinks, supervisor = self.make(
            threshold=2, half_open_after_s=30.0
        )
        for i in range(2):
            clock.advance(1.0)
            source.inject(Datum("x", i, float(i)))
        clock.advance(29.0)
        source.inject(Datum("x", 3, 9.0))
        assert supervisor.health("bomb") == OPEN
        assert supervisor.skipped_count("bomb") == 1

    def test_manual_quarantine_and_restore(self):
        _clock, _graph, source, _sinks, supervisor = self.make()
        supervisor.quarantine("ok2")
        assert supervisor.health("ok2") == OPEN
        source.inject(Datum("x", 1, 0.0))
        assert supervisor.skipped_count("ok2") == 1
        supervisor.restore("ok2")
        assert supervisor.health("ok2") == CLOSED

    def test_trip_counter_and_snapshot(self):
        clock, _graph, source, _sinks, supervisor = self.make(threshold=1)
        source.inject(Datum("x", 1, 0.0))
        clock.advance(30.0)
        source.inject(Datum("x", 2, 1.0))  # probe fails -> second trip
        snapshot = supervisor.snapshot()
        assert snapshot["policy"]["mode"] == QUARANTINE
        assert snapshot["components"]["bomb"]["trips"] == 2
        assert snapshot["components"]["bomb"]["health"] == OPEN
        assert snapshot["records"][-1]["component"] == "bomb"

    def test_listener_receives_lifecycle_events(self):
        clock, graph, source, _sinks, supervisor = self.make(threshold=2)
        events = []
        remove = supervisor.add_listener(
            lambda event, name, record: events.append((event, name))
        )
        for i in range(2):
            clock.advance(1.0)
            source.inject(Datum("x", i, float(i)))
        graph.component("bomb")._fn = lambda d: d
        clock.advance(30.0)
        source.inject(Datum("x", 3, 9.0))
        assert events == [
            ("failure", "bomb"),
            ("failure", "bomb"),
            (OPEN, "bomb"),
            (HALF_OPEN, "bomb"),
            (CLOSED, "bomb"),
        ]
        remove()
        supervisor.quarantine("bomb")
        assert len(events) == 5

    def test_reset_forgets_history(self):
        clock, _graph, source, _sinks, supervisor = self.make(threshold=1)
        source.inject(Datum("x", 1, 0.0))
        assert supervisor.quarantined() == ["bomb"]
        supervisor.reset()
        assert supervisor.quarantined() == []
        assert supervisor.failure_count("bomb") == 0
        assert supervisor.failure_records() == []


class TestReentrantMutation:
    def test_listener_may_remove_failing_component_mid_delivery(self):
        """Removing the failing component from inside the failure event
        must not break the in-flight routing loop (PR-2 reentrancy)."""
        graph, source, sinks, supervisor = supervised_fanout(
            SupervisionPolicy(mode=ISOLATE)
        )
        supervisor.add_listener(
            lambda event, name, record: (
                graph.remove(name)
                if event == "failure" and name in graph
                else None
            )
        )
        source.inject(Datum("x", 1, 0.0))
        # Siblings routed after the bomb still got the datum.
        assert [d.payload for d in sinks["ok2"].received] == [1]
        assert "bomb" not in graph
        # The graph keeps working after the reentrant removal.
        source.inject(Datum("x", 2, 1.0))
        assert [d.payload for d in sinks["ok2"].received] == [1, 2]


class TestLayerSurfaces:
    def make_middleware(self, threshold=2):
        middleware = PerPos()
        graph = middleware.graph
        source = SourceComponent("src", ("x",))
        bomb = FunctionComponent(
            "bomb", ("x",), ("x",), fn=lambda d: 1 / 0
        )
        sink = ApplicationSink("app", ("x",))
        for c in (source, bomb, sink):
            graph.add(c)
        graph.connect("src", "bomb")
        graph.connect("src", "app")
        middleware.enable_supervision(
            SupervisionPolicy(
                mode=QUARANTINE, failure_threshold=threshold
            )
        )
        return middleware, source

    def test_psl_describe_and_health_queries(self):
        middleware, source = self.make_middleware(threshold=2)
        psl = middleware.psl
        assert psl.component_health("bomb") == {"bomb": CLOSED}
        for i in range(2):
            middleware.clock.advance(1.0)
            source.inject(Datum("x", i, float(i)))
        info = psl.describe("bomb")
        assert info["health"] == OPEN
        assert info["failures"] == 2
        assert psl.component_health() == {"bomb": OPEN}
        assert psl.quarantined() == ["bomb"]
        records = psl.failure_records("bomb")
        assert records and records[0].error_type == "ZeroDivisionError"

    def test_psl_health_empty_while_supervision_disabled(self):
        middleware, _source = self.make_middleware()
        middleware.disable_supervision()
        assert middleware.psl.component_health() == {}
        assert middleware.psl.failure_records() == []
        assert middleware.psl.quarantined() == []
        assert "health" not in middleware.psl.describe("bomb")

    def test_enable_supervision_registers_service(self):
        middleware, _source = self.make_middleware()
        service = middleware.framework.registry.find_service(
            "perpos.Supervisor"
        )
        assert service is middleware.supervision

    def test_hub_gauges_and_counters(self):
        middleware, source = self.make_middleware(threshold=2)
        hub = middleware.enable_observability(tracing=False)
        for i in range(2):
            middleware.clock.advance(1.0)
            source.inject(Datum("x", i, float(i)))
        # Failures, trips and health live with the supervisor alone.
        supervisor = middleware.supervision
        assert supervisor.failure_count("bomb") == 2
        assert supervisor.snapshot()["components"]["bomb"]["trips"] == 1
        assert supervisor.health("bomb") == OPEN
        supervisor.restore("bomb")
        assert supervisor.health("bomb") == CLOSED
        registry = hub.registry
        assert not [
            name
            for _kind, name, _labels, _instrument in registry.series()
            if name
            in ("supervised_failures", "quarantine_trips", "component_health")
        ]
        # Hub error counters keep recording under supervision: the
        # supervisor wraps hub.deliver, it does not replace it.
        assert registry.counter("errors", component="bomb").value == 2

    def test_snapshot_and_report_carry_supervision(self):
        middleware, source = self.make_middleware(threshold=2)
        for i in range(2):
            middleware.clock.advance(1.0)
            source.inject(Datum("x", i, float(i)))
        snapshot = infrastructure_snapshot(middleware)
        assert snapshot["supervision"]["components"]["bomb"]["health"] == OPEN
        bomb_info = next(
            c for c in snapshot["components"] if c["name"] == "bomb"
        )
        assert bomb_info["health"] == OPEN
        text = render_report(middleware)
        assert "supervision:" in text
        assert "bomb: open" in text
        assert "ZeroDivisionError" in text

    def test_report_with_supervision_disabled(self):
        middleware = PerPos()
        assert (
            infrastructure_snapshot(middleware)["supervision"] is None
        )
        assert "(supervision disabled)" in render_report(middleware)


@pytest.mark.chaos
class TestFaultInjectionFeature:
    def build(self, feature):
        graph = ProcessingGraph()
        source = SourceComponent("src", ("x",))
        stage = FunctionComponent("stage", ("x",), ("x",), fn=lambda d: d)
        sink = ApplicationSink("app", ("x",))
        for c in (source, stage, sink):
            graph.add(c)
        graph.connect("src", "stage")
        graph.connect("stage", "app")
        stage.attach_feature(feature)
        supervisor = Supervisor(SupervisionPolicy(mode=ISOLATE))
        graph.set_supervisor(supervisor)
        return graph, source, sink, supervisor

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fail_every": 0},
            {"drop_every": 0},
            {"fail_rate": 1.5},
            {"drop_rate": -0.1},
            {"delay_datums": -1},
            {"fail_limit": -1},
            {"corrupt_every": 0},
            {"corrupt_rate": 2.0},
            {"timestamp_skew_s": -1.0},
        ],
    )
    def test_invalid_configuration_raises(self, kwargs):
        with pytest.raises(FeatureError):
            FaultInjectionFeature(**kwargs)

    def test_fail_every_cadence_is_supervised(self):
        feature = FaultInjectionFeature(fail_every=3)
        _graph, source, sink, supervisor = self.build(feature)
        for i in range(1, 10):
            source.inject(Datum("x", i, float(i)))
        # Every 3rd consumed datum raises FaultInjected; the rest pass.
        assert [d.payload for d in sink.received] == [1, 2, 4, 5, 7, 8]
        assert feature.injected_failures == 3
        assert supervisor.failure_count("stage") == 3
        record = supervisor.failure_records("stage")[0]
        assert record.error_type == "FaultInjected"

    def test_seeded_rates_replay_identically(self):
        outcomes = []
        for _run in range(2):
            feature = FaultInjectionFeature(
                fail_rate=0.3, drop_rate=0.2, seed=7
            )
            _graph, source, sink, _sup = self.build(feature)
            for i in range(40):
                source.inject(Datum("x", i, float(i)))
            outcomes.append(
                (
                    [d.payload for d in sink.received],
                    feature.injected_failures,
                    feature.injected_drops,
                )
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] > 0 and outcomes[0][2] > 0

    def test_different_seed_differs(self):
        received = []
        for seed in (1, 2):
            feature = FaultInjectionFeature(fail_rate=0.5, seed=seed)
            _graph, source, sink, _sup = self.build(feature)
            for i in range(40):
                source.inject(Datum("x", i, float(i)))
            received.append([d.payload for d in sink.received])
        assert received[0] != received[1]

    def test_drop_is_a_feature_veto_not_a_failure(self):
        feature = FaultInjectionFeature(drop_every=2)
        _graph, source, sink, supervisor = self.build(feature)
        for i in range(1, 5):
            source.inject(Datum("x", i, float(i)))
        assert [d.payload for d in sink.received] == [1, 3]
        assert feature.injected_drops == 2
        assert supervisor.failure_count("stage") == 0

    def test_delay_lags_datums_deterministically(self):
        feature = FaultInjectionFeature(delay_datums=2)
        _graph, source, sink, _sup = self.build(feature)
        for i in range(1, 6):
            source.inject(Datum("x", i, float(i)))
        # Two datums in flight at all times; delivery lags by two.
        assert [d.payload for d in sink.received] == [1, 2, 3]
        assert feature.pending() == 2

    def test_fail_limit_stops_injecting(self):
        feature = FaultInjectionFeature(fail_every=1, fail_limit=2)
        _graph, source, sink, supervisor = self.build(feature)
        for i in range(1, 6):
            source.inject(Datum("x", i, float(i)))
        assert feature.injected_failures == 2
        assert [d.payload for d in sink.received] == [3, 4, 5]

    def test_corruption_mangles_mapping_payloads_deterministically(self):
        runs = []
        for _run in range(2):
            feature = FaultInjectionFeature(corrupt_every=2, seed=11)
            _graph, source, sink, _sup = self.build(feature)
            for i in range(1, 7):
                source.inject(Datum("x", {"v": i, "s": "ok"}, float(i)))
            runs.append(
                (
                    [d.payload for d in sink.received],
                    feature.injected_corruptions,
                )
            )
        assert runs[0] == runs[1]
        payloads, corruptions = runs[0]
        assert corruptions == 3
        # Every 2nd consumed payload was mangled; the rest pass intact.
        for index, payload in enumerate(payloads, 1):
            if index % 2 == 0:
                assert payload != {"v": index, "s": "ok"}
            else:
                assert payload == {"v": index, "s": "ok"}

    def test_corruption_skips_non_mapping_payloads(self):
        feature = FaultInjectionFeature(corrupt_every=1)
        _graph, source, sink, _sup = self.build(feature)
        for i in range(3):
            source.inject(Datum("x", i, float(i)))
        assert [d.payload for d in sink.received] == [0, 1, 2]
        assert feature.injected_corruptions == 0

    def test_maybe_corrupt_works_without_a_host_component(self):
        # The gateway-boundary mode: raw wire payloads, no attachment.
        feature = FaultInjectionFeature(
            corrupt_every=3, timestamp_skew_s=60.0, seed=5
        )
        original = {"device_id": "d", "timestamp": 100.0, "lat": 1.0}
        stream = [dict(original) for _ in range(9)]
        out = [feature.maybe_corrupt(p) for p in stream]
        assert feature.injected_corruptions == 3
        assert sum(1 for o in out if o != original) == 3
        # maybe_corrupt copies: the submitted payloads are untouched.
        assert all(p == original for p in stream)

    def test_corrupt_fields_restricts_targets(self):
        feature = FaultInjectionFeature(
            corrupt_every=1, corrupt_fields=("lat",), seed=3
        )
        for _ in range(5):
            out = feature.maybe_corrupt({"lat": 1.0, "lon": 2.0})
            assert out.get("lon") == 2.0
            assert out.get("lat") != 1.0  # dropped or mangled

    def test_disarmed_feature_does_not_corrupt(self):
        feature = FaultInjectionFeature(corrupt_every=1)
        feature.disarm()
        payload = {"lat": 1.0}
        assert feature.maybe_corrupt(payload) == payload
        assert feature.injected_corruptions == 0
        assert feature.stats()["injected_corruptions"] == 0

    def test_disarm_through_psl_reflective_surface(self):
        feature = FaultInjectionFeature(fail_every=1)
        graph, source, sink, _sup = self.build(feature)
        from repro.core.psl import ProcessStructureLayer

        psl = ProcessStructureLayer(graph)
        assert "FaultInjection.disarm" in psl.methods_of("stage")
        psl.invoke("stage", "FaultInjection.disarm")
        assert psl.invoke("stage", "FaultInjection.armed") is False
        source.inject(Datum("x", 1, 0.0))
        assert [d.payload for d in sink.received] == [1]
        stats = psl.invoke("stage", "FaultInjection.stats")
        assert stats["armed"] is False
        assert stats["injected_failures"] == 0


class TestChannelFeatureErrorAccounting:
    def build_channel(self, feature_error_limit=64):
        from repro.core.channel import Channel, ChannelFeature

        class Bad(ChannelFeature):
            name = "Bad"

            def apply(self, tree):
                raise RuntimeError("observer bug")

        graph = ProcessingGraph()
        source = SourceComponent("src", ("x",))
        sink = ApplicationSink("app", ("x",))
        graph.add(source)
        graph.add(sink)
        graph.connect("src", "app")
        channel = Channel(
            graph,
            [source],
            "app",
            feature_error_limit=feature_error_limit,
        )
        channel.attach_feature(Bad())
        return graph, source, channel

    def test_buffer_is_capped_but_count_is_total(self):
        _graph, source, channel = self.build_channel(feature_error_limit=5)
        for i in range(12):
            source.inject(Datum("x", i, float(i)))
        assert len(channel.feature_errors) == 5
        assert channel.feature_error_count == 12
        assert channel.stats()["feature_errors"] == 12

    def test_invalid_limit_raises(self):
        from repro.core.channel import Channel

        graph = ProcessingGraph()
        source = SourceComponent("src", ("x",))
        graph.add(source)
        with pytest.raises(ValueError):
            Channel(graph, [source], "app", feature_error_limit=0)

    def test_hub_counter_records_channel_feature_errors(self):
        # The channel owns the count; an installed hub keeps no copy.
        graph, source, channel = self.build_channel()
        hub = ObservabilityHub(MetricsRegistry(), tracing=False)
        graph.set_instrumentation(hub)
        source.inject(Datum("x", 1, 0.0))
        source.inject(Datum("x", 2, 1.0))
        assert channel.feature_error_count == 2
        assert channel.stats()["feature_errors"] == 2
        assert [name for name, _exc in channel.feature_errors] == ["Bad", "Bad"]
        assert not [
            name
            for _kind, name, _labels, _instrument in hub.registry.series()
            if name == "channel_feature_errors"
        ]

    def test_flow_summary_includes_feature_errors(self):
        graph, source, _sinks = build_fanout(fail_on=lambda p: False)
        pcl = ProcessChannelLayer(graph)

        from repro.core.channel import ChannelFeature

        class Bad(ChannelFeature):
            name = "Bad"

            def apply(self, tree):
                raise RuntimeError("observer bug")

        channel = pcl.channel("src->ok2")
        channel.attach_feature(Bad())
        source.inject(Datum("x", 1, 0.0))
        summary = {
            entry["id"]: entry["feature_errors"]
            for entry in pcl.flow_summary()
        }
        assert summary["src->ok2"] == 1
        assert summary["src->down"] == 0


class TestProviderFailover:
    def make_two_providers(self):
        middleware = PerPos()
        graph = middleware.graph
        for tech, src_name in (("gps", "gps-src"), ("wifi", "wifi-src")):
            source = SourceComponent(src_name, (Kind.POSITION_WGS84,))
            graph.add(source)
            provider = middleware.create_provider(
                f"{tech}-app",
                accepts=(Kind.POSITION_WGS84,),
                technologies=(tech,),
            )
            graph.connect(src_name, provider.sink.name)
        middleware.enable_supervision(
            SupervisionPolicy(mode=QUARANTINE, failure_threshold=1)
        )
        return middleware

    def test_healthy_provider_preferred_over_quarantined(self):
        middleware = self.make_two_providers()
        events = []
        middleware.positioning.add_failover_listener(
            lambda demoted, selected: events.append((demoted, selected))
        )
        criteria = Criteria(kind=Kind.POSITION_WGS84)
        assert middleware.get_provider(criteria).name == "gps-app"
        middleware.supervision.quarantine("gps-src")
        provider = middleware.get_provider(criteria)
        assert provider.name == "wifi-app"
        assert events == [(["gps-app"], "wifi-app")]

    def test_provider_degraded_when_any_backing_component_open(self):
        middleware = self.make_two_providers()
        gps = middleware.positioning.provider("gps-app")
        assert gps.is_degraded() is False
        middleware.supervision.quarantine("gps-src")
        assert gps.is_degraded() is True
        assert gps.quarantined_components() == ["gps-src"]
        info = gps.describe()
        assert info["health"] == "degraded"
        assert info["quarantined"] == ["gps-src"]
        wifi = middleware.positioning.provider("wifi-app")
        assert wifi.is_degraded() is False
        assert wifi.describe()["health"] == "ok"

    def test_all_degraded_returns_first_with_notification(self):
        middleware = self.make_two_providers()
        events = []
        remove = middleware.positioning.add_failover_listener(
            lambda demoted, selected: events.append((demoted, selected))
        )
        middleware.supervision.quarantine("gps-src")
        middleware.supervision.quarantine("wifi-src")
        provider = middleware.get_provider(
            Criteria(kind=Kind.POSITION_WGS84)
        )
        # A degraded provider beats none; the demotion is announced.
        assert provider.name == "gps-app"
        assert events == [(["gps-app", "wifi-app"], "gps-app")]
        remove()
        middleware.get_provider(Criteria(kind=Kind.POSITION_WGS84))
        assert len(events) == 1

    def test_criteria_filter_still_applies_during_failover(self):
        middleware = self.make_two_providers()
        middleware.supervision.quarantine("gps-src")
        provider = middleware.get_provider(
            Criteria(kind=Kind.POSITION_WGS84, technology="gps")
        )
        # Only the degraded provider matches the technology: it wins.
        assert provider.name == "gps-app"

    def test_recovery_restores_preference(self):
        middleware = self.make_two_providers()
        middleware.supervision.quarantine("gps-src")
        criteria = Criteria(kind=Kind.POSITION_WGS84)
        assert middleware.get_provider(criteria).name == "wifi-app"
        middleware.supervision.restore("gps-src")
        assert middleware.get_provider(criteria).name == "gps-app"


@pytest.mark.chaos
class TestEndToEndQuarantineRecovery:
    def test_quarantine_failover_and_half_open_recovery(self):
        """The issue's acceptance scenario, end to end."""
        middleware = PerPos()
        graph = middleware.graph
        # Two independent strands into two providers.
        gps_src = SourceComponent("gps-src", (Kind.POSITION_WGS84,))
        gps_stage = FunctionComponent(
            "gps-stage",
            (Kind.POSITION_WGS84,),
            (Kind.POSITION_WGS84,),
            fn=lambda d: d,
        )
        wifi_src = SourceComponent("wifi-src", (Kind.POSITION_WGS84,))
        for c in (gps_src, gps_stage, wifi_src):
            graph.add(c)
        gps = middleware.create_provider(
            "gps-app", (Kind.POSITION_WGS84,), technologies=("gps",)
        )
        wifi = middleware.create_provider(
            "wifi-app", (Kind.POSITION_WGS84,), technologies=("wifi",)
        )
        graph.connect("gps-src", "gps-stage")
        graph.connect("gps-stage", gps.sink.name)
        graph.connect("wifi-src", wifi.sink.name)
        middleware.enable_supervision(
            SupervisionPolicy(
                mode=QUARANTINE,
                failure_threshold=3,
                window_s=60.0,
                half_open_after_s=30.0,
            )
        )
        fault = FaultInjectionFeature(fail_every=1)
        middleware.psl.attach_feature("gps-stage", fault)

        def tick(payload):
            middleware.clock.advance(1.0)
            t = middleware.clock.now
            gps_src.inject(Datum(Kind.POSITION_WGS84, payload, t))
            wifi_src.inject(Datum(Kind.POSITION_WGS84, payload, t))

        criteria = Criteria(kind=Kind.POSITION_WGS84)
        # 1. The GPS stage fails every datum and trips after 3 failures.
        for i in range(3):
            tick(("fix", i))
        assert middleware.supervision.health("gps-stage") == OPEN
        # 2. The sibling strand kept receiving throughout.
        assert len(wifi.sink.received) == 3
        # 3. PSL and the report expose the open breaker.
        assert middleware.psl.quarantined() == ["gps-stage"]
        assert "gps-stage: open" in render_report(middleware)
        # 4. Provider selection fails over to the healthy fallback.
        assert middleware.get_provider(criteria).name == "wifi-app"
        assert gps.is_degraded() is True
        # 5. Heal the stage; after the half-open window the next routed
        #    datum is the probe, it succeeds, and the breaker closes.
        middleware.psl.invoke("gps-stage", "FaultInjection.disarm")
        middleware.clock.advance(30.0)
        tick(("fix", 99))
        assert middleware.supervision.health("gps-stage") == CLOSED
        # 6. The recovered provider is preferred again and delivers.
        assert middleware.get_provider(criteria).name == "gps-app"
        assert gps.sink.received[-1].payload == ("fix", 99)
