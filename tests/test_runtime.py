"""Tests for the scale-out runtime: queues, schedulers, engine, seams."""

import pytest

from repro.clock import SimulationClock
from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.core.data import Datum
from repro.core.graph import GraphError, ProcessingGraph
from repro.core.middleware import PerPos
from repro.core.positioning import Target
from repro.core.report import infrastructure_snapshot, render_report
from repro.robustness.supervision import SupervisionPolicy, Supervisor
from repro.runtime import (
    ACCEPTED,
    BLOCK,
    COALESCE,
    COALESCED,
    DROP_NEWEST,
    DROP_OLDEST,
    DROPPED,
    EngineError,
    IngestionQueue,
    PositioningEngine,
    QueueError,
    REJECTED,
    RoundRobinScheduler,
    SchedulerError,
    WeightedScheduler,
)


def datum(value, kind="x", t=0.0):
    return Datum(kind=kind, payload=value, timestamp=t)


def payloads(datums):
    return [d.payload for d in datums]


def build_graph():
    """src -> f -> sink, all on kind 'x'."""
    graph = ProcessingGraph()
    src = SourceComponent("src", ("x",))
    f = FunctionComponent("f", ("x",), ("x",), fn=lambda d: d)
    sink = ApplicationSink("sink", ("x",))
    graph.add(src)
    graph.add(f)
    graph.add(sink)
    graph.connect("src", "f", "in")
    graph.connect("f", "sink", "in")
    return graph, src, sink


class TestQueuePolicies:
    def test_block_rejects_when_full(self):
        queue = IngestionQueue("q", capacity=2, policy=BLOCK)
        assert queue.offer(datum(1)) == ACCEPTED
        assert queue.offer(datum(2)) == ACCEPTED
        assert queue.offer(datum(3)) == REJECTED
        # The rejected datum was shed producer-side: queue unchanged.
        assert payloads(queue.drain()) == [1, 2]
        assert queue.rejected == 1
        assert queue.dropped == 0

    def test_block_admits_again_after_drain(self):
        queue = IngestionQueue("q", capacity=1, policy=BLOCK)
        queue.offer(datum(1))
        assert queue.offer(datum(2)) == REJECTED
        queue.drain()
        assert queue.offer(datum(2)) == ACCEPTED

    def test_drop_oldest_evicts_head(self):
        queue = IngestionQueue("q", capacity=2, policy=DROP_OLDEST)
        queue.offer(datum(1))
        queue.offer(datum(2))
        assert queue.offer(datum(3)) == ACCEPTED
        assert payloads(queue.drain()) == [2, 3]
        assert queue.dropped_oldest == 1
        assert queue.dropped == 1

    def test_drop_newest_sheds_incoming(self):
        queue = IngestionQueue("q", capacity=2, policy=DROP_NEWEST)
        queue.offer(datum(1))
        queue.offer(datum(2))
        assert queue.offer(datum(3)) == DROPPED
        assert payloads(queue.drain()) == [1, 2]
        assert queue.dropped_newest == 1

    def test_coalesce_replaces_same_kind_in_place(self):
        queue = IngestionQueue("q", capacity=4, policy=COALESCE)
        queue.offer(datum(1, kind="x"))
        queue.offer(datum(2, kind="y"))
        assert queue.offer(datum(3, kind="x")) == COALESCED
        # Replaced in place: x keeps its queue position, freshest payload.
        assert payloads(queue.drain()) == [3, 2]
        assert queue.coalesced == 1

    def test_coalesce_new_kind_overflow_behaves_like_drop_oldest(self):
        queue = IngestionQueue("q", capacity=2, policy=COALESCE)
        queue.offer(datum(1, kind="x"))
        queue.offer(datum(2, kind="y"))
        assert queue.offer(datum(3, kind="z")) == ACCEPTED
        assert payloads(queue.drain()) == [2, 3]
        assert queue.dropped_oldest == 1

    def test_counters_and_high_water(self):
        queue = IngestionQueue("q", capacity=3)
        for i in range(5):
            queue.offer(datum(i))
        stats = queue.stats()
        assert stats["offered"] == 5
        assert stats["accepted"] == 5
        assert stats["dropped_oldest"] == 2
        assert stats["high_water"] == 3
        assert stats["depth"] == 3

    def test_drain_partial_is_fifo(self):
        queue = IngestionQueue("q", capacity=8)
        for i in range(5):
            queue.offer(datum(i))
        assert payloads(queue.drain(2)) == [0, 1]
        assert payloads(queue.drain(0)) == []
        assert payloads(queue.drain()) == [2, 3, 4]
        assert queue.drained == 5

    def test_peek_and_clear(self):
        queue = IngestionQueue("q")
        assert queue.peek() is None
        queue.offer(datum(1))
        queue.offer(datum(2))
        assert queue.peek().payload == 1
        assert queue.clear() == 2
        assert queue.depth == 0
        assert queue.dropped_oldest == 2

    def test_set_capacity_shrink_evicts_oldest(self):
        queue = IngestionQueue("q", capacity=4)
        for i in range(4):
            queue.offer(datum(i))
        assert queue.set_capacity(2) == 4
        assert payloads(queue.drain()) == [2, 3]
        assert queue.dropped_oldest == 2

    def test_set_policy_swaps_and_validates(self):
        queue = IngestionQueue("q", policy=BLOCK)
        assert queue.set_policy(COALESCE) == BLOCK
        assert queue.policy == COALESCE
        with pytest.raises(QueueError):
            queue.set_policy("bogus")
        with pytest.raises(QueueError):
            IngestionQueue("q", policy="bogus")
        with pytest.raises(QueueError):
            IngestionQueue("q", capacity=0)
        with pytest.raises(QueueError):
            queue.set_capacity(0)

    def test_coalesce_collision_counts_per_kind_in_stats(self):
        queue = IngestionQueue("q", capacity=4, policy=COALESCE)
        queue.offer(datum(1, kind="x"))
        queue.offer(datum(2, kind="y"))
        queue.offer(datum(3, kind="x"))
        queue.offer(datum(4, kind="x"))
        queue.offer(datum(5, kind="y"))
        stats = queue.stats()
        assert stats["coalesce_collisions"] == {"x": 2, "y": 1}
        assert stats["coalesced"] == 3
        # The per-key breakdown always sums to the flat counter.
        assert sum(stats["coalesce_collisions"].values()) == queue.coalesced
        # stats() hands out a copy, not the live mapping.
        stats["coalesce_collisions"]["x"] = 99
        assert queue.coalesce_collisions["x"] == 2

    def test_no_collisions_recorded_outside_coalesce_policy(self):
        queue = IngestionQueue("q", capacity=2, policy=DROP_OLDEST)
        queue.offer(datum(1, kind="x"))
        queue.offer(datum(2, kind="x"))
        queue.offer(datum(3, kind="x"))
        assert queue.stats()["coalesce_collisions"] == {}

    def test_coalesce_after_capacity_shrink_below_depth(self):
        queue = IngestionQueue("q", capacity=4, policy=COALESCE)
        for i, kind in enumerate(["a", "b", "c", "d"]):
            queue.offer(datum(i, kind=kind))
        # Shrink below depth: oldest (a, b) evicted as dropped_oldest.
        assert queue.set_capacity(2) == 4
        assert queue.depth == 2
        assert queue.dropped_oldest == 2
        # A surviving kind still coalesces in place at the new bound...
        assert queue.offer(datum(9, kind="c")) == COALESCED
        assert queue.depth == 2
        # ...while an evicted kind re-enters via the overflow path
        # (drop_oldest), not by resurrecting its old slot.
        assert queue.offer(datum(10, kind="a")) == ACCEPTED
        assert payloads(queue.drain()) == [3, 10]
        assert queue.dropped_oldest == 3
        assert queue.stats()["coalesce_collisions"] == {"c": 1}

    def test_coalesce_shrink_to_one_keeps_freshest_of_survivor(self):
        queue = IngestionQueue("q", capacity=3, policy=COALESCE)
        queue.offer(datum(1, kind="x"))
        queue.offer(datum(2, kind="y"))
        queue.offer(datum(3, kind="z"))
        queue.set_capacity(1)  # only z survives
        assert queue.offer(datum(4, kind="z")) == COALESCED
        assert queue.depth == 1
        assert queue.offer(datum(5, kind="x")) == ACCEPTED  # evicts z
        assert payloads(queue.drain()) == [5]
        # High-water reflects the pre-shrink history.
        assert queue.high_water == 3


class FakeLane:
    def __init__(self, name, weight=1):
        self.target_id = name
        self.weight = weight


class TestSchedulers:
    def test_round_robin_rotates_start(self):
        lanes = [FakeLane(n) for n in "abc"]
        scheduler = RoundRobinScheduler(quantum=5)
        first = [lane.target_id for lane, _ in scheduler.plan(lanes)]
        second = [lane.target_id for lane, _ in scheduler.plan(lanes)]
        third = [lane.target_id for lane, _ in scheduler.plan(lanes)]
        fourth = [lane.target_id for lane, _ in scheduler.plan(lanes)]
        assert first == ["a", "b", "c"]
        assert second == ["b", "c", "a"]
        assert third == ["c", "a", "b"]
        assert fourth == first  # deterministic cycle

    def test_round_robin_equal_quanta(self):
        lanes = [FakeLane(n) for n in "ab"]
        plan = RoundRobinScheduler(quantum=7).plan(lanes)
        assert [quantum for _, quantum in plan] == [7, 7]

    def test_weighted_quantum_scales_with_weight(self):
        lanes = [FakeLane("a", weight=1), FakeLane("b", weight=3)]
        plan = WeightedScheduler(quantum=4).plan(lanes)
        assert {lane.target_id: q for lane, q in plan} == {"a": 4, "b": 12}

    def test_empty_lanes_plan_empty(self):
        assert RoundRobinScheduler().plan([]) == []
        assert WeightedScheduler().plan([]) == []

    def test_invalid_quantum(self):
        with pytest.raises(SchedulerError):
            RoundRobinScheduler(quantum=0)
        with pytest.raises(SchedulerError):
            WeightedScheduler(quantum=0)

    def test_describe(self):
        assert RoundRobinScheduler(quantum=9).describe() == {
            "type": "RoundRobinScheduler",
            "quantum": 9,
        }


class TestEngine:
    def test_track_submit_drain_roundtrip(self):
        graph, src, sink = build_graph()
        engine = PositioningEngine(graph)
        engine.track("t1", "src")
        engine.track("t2", src)
        for i in range(3):
            engine.submit("t1", datum(i))
        engine.submit("t2", datum(100))
        assert engine.depth_total() == 4
        assert engine.drain_round() == 4
        assert sorted(payloads(sink.received)) == [0, 1, 2, 100]
        assert engine.depth_total() == 0

    def test_submit_stamps_target_attribute(self):
        graph, _, sink = build_graph()
        engine = PositioningEngine(graph)
        engine.track("badge", "src")
        engine.submit("badge", datum(1))
        engine.drain_round()
        assert sink.received[0].attributes["target"] == "badge"

    def test_stamping_can_be_disabled(self):
        graph, _, sink = build_graph()
        engine = PositioningEngine(graph, stamp_targets=False)
        engine.track("badge", "src")
        engine.submit("badge", datum(1))
        engine.drain_round()
        assert "target" not in sink.received[0].attributes

    def test_per_lane_fifo_order_preserved(self):
        graph, _, sink = build_graph()
        engine = PositioningEngine(graph)
        engine.track("t1", "src")
        for i in range(10):
            engine.submit("t1", datum(i))
        engine.drain_all()
        assert payloads(sink.received) == list(range(10))

    def test_quantum_bounds_drain_per_round(self):
        graph, _, sink = build_graph()
        engine = PositioningEngine(graph, scheduler=RoundRobinScheduler(quantum=2))
        engine.track("t1", "src")
        for i in range(5):
            engine.submit("t1", datum(i))
        assert engine.drain_round() == 2
        assert engine.drain_round() == 2
        assert engine.drain_round() == 1
        assert payloads(sink.received) == list(range(5))

    def test_drain_all_counts_and_terminates(self):
        graph, _, sink = build_graph()
        engine = PositioningEngine(graph, scheduler=RoundRobinScheduler(quantum=1))
        engine.track("t1", "src")
        for i in range(4):
            engine.submit("t1", datum(i))
        assert engine.drain_all() == 4
        assert engine.rounds >= 4
        assert engine.drained_total == 4

    def test_drain_all_truncation_raises_and_latches(self):
        # max_rounds exhaustion is truncation, not quiescence: a
        # coordinator reading snapshot() must be able to tell them
        # apart even if the EngineError was swallowed en route.
        graph, _, _ = build_graph()
        engine = PositioningEngine(graph, scheduler=RoundRobinScheduler(quantum=1))
        engine.track("t1", "src")
        for i in range(5):
            engine.submit("t1", datum(i))
        with pytest.raises(EngineError, match="3 datums still pending"):
            engine.drain_all(max_rounds=2)
        snap = engine.snapshot()
        assert snap["truncations"] == 1
        assert snap["last_drain_truncated"] is True
        assert snap["pending"] == 3
        # A clean drain clears the latch; the counter keeps history.
        assert engine.drain_all() == 3
        snap = engine.snapshot()
        assert snap["truncations"] == 1
        assert snap["last_drain_truncated"] is False

    def test_drain_all_finishing_on_the_last_round_is_quiescence(self):
        # Queues emptying exactly at max_rounds is a clean drain: no
        # EngineError, no truncation latch (a sharded coordinator must
        # not degrade a fully-drained shard).
        graph, _, sink = build_graph()
        engine = PositioningEngine(graph, scheduler=RoundRobinScheduler(quantum=1))
        engine.track("t1", "src")
        engine.submit("t1", datum(0))
        engine.submit("t1", datum(1))
        assert engine.drain_all(max_rounds=2) == 2
        snap = engine.snapshot()
        assert snap["truncations"] == 0
        assert snap["last_drain_truncated"] is False
        assert payloads(sink.received) == [0, 1]

    def test_drain_all_clean_run_never_sets_the_latch(self):
        graph, _, _ = build_graph()
        engine = PositioningEngine(graph)
        engine.track("t1", "src")
        engine.submit("t1", datum(1))
        assert engine.drain_all() == 1
        snap = engine.snapshot()
        assert snap["truncations"] == 0
        assert snap["last_drain_truncated"] is False

    def test_weighted_fairness_across_lanes(self):
        graph, _, sink = build_graph()
        engine = PositioningEngine(graph, scheduler=WeightedScheduler(quantum=1))
        engine.track("heavy", "src", weight=3)
        engine.track("light", "src", weight=1)
        for i in range(6):
            engine.submit("heavy", datum(f"h{i}"))
            engine.submit("light", datum(f"l{i}"))
        engine.drain_round()
        # One round: heavy got quantum 3, light got quantum 1.
        stamped = [d.attributes["target"] for d in sink.received]
        assert stamped.count("heavy") == 3
        assert stamped.count("light") == 1

    def test_track_validation(self):
        graph, _, _ = build_graph()
        engine = PositioningEngine(graph)
        engine.track("t1", "src")
        with pytest.raises(EngineError):
            engine.track("t1", "src")  # duplicate
        with pytest.raises(EngineError):
            engine.track("t2", "sink")  # not a source component
        with pytest.raises(EngineError):
            engine.track("t3", "src", weight=0)
        with pytest.raises(EngineError):
            engine.track(object(), "src")  # no target id
        with pytest.raises(GraphError):
            engine.track("t4", "ghost")
        with pytest.raises(EngineError):
            engine.submit("unknown", datum(1))
        with pytest.raises(EngineError):
            engine.lane("unknown")

    def test_untrack_discards_pending(self):
        graph, _, sink = build_graph()
        engine = PositioningEngine(graph)
        engine.track("t1", "src")
        engine.submit("t1", datum(1))
        lane = engine.untrack("t1")
        assert lane.queue.depth == 1
        assert engine.lanes() == []
        engine.drain_round()
        assert sink.received == []

    def test_set_policy_adapts_lane(self):
        graph, _, _ = build_graph()
        engine = PositioningEngine(graph)
        engine.track("t1", "src", capacity=4)
        stats = engine.set_policy("t1", policy=BLOCK, capacity=2, weight=5)
        assert stats["policy"] == BLOCK
        assert stats["capacity"] == 2
        assert stats["weight"] == 5
        with pytest.raises(EngineError):
            engine.set_policy("t1", weight=0)

    def test_target_object_binding(self):
        graph, _, _ = build_graph()
        engine = PositioningEngine(graph)
        target = Target("badge-7")
        engine.track(target, "src")
        assert target.lane is engine.lane("badge-7")
        engine.submit("badge-7", datum(1))
        assert target.queue_stats()["depth"] == 1
        # An untracked Target degrades to empty stats, not an error.
        assert Target("other").queue_stats() == {}

    def test_clock_driven_start_stop(self):
        clock = SimulationClock()
        graph, _, sink = build_graph()
        engine = PositioningEngine(graph, clock=clock)
        engine.track("t1", "src")
        engine.start(1.0)
        engine.submit("t1", datum(1))
        clock.advance(1.0)
        assert payloads(sink.received) == [1]
        engine.submit("t1", datum(2))
        clock.advance(1.0)
        assert payloads(sink.received) == [1, 2]
        engine.stop()
        engine.submit("t1", datum(3))
        clock.advance(5.0)
        assert payloads(sink.received) == [1, 2]  # no rounds after stop

    def test_start_requires_clock_and_positive_interval(self):
        graph, _, _ = build_graph()
        engine = PositioningEngine(graph)
        with pytest.raises(EngineError):
            engine.start(1.0)
        clocked = PositioningEngine(ProcessingGraph(), clock=SimulationClock())
        with pytest.raises(EngineError):
            clocked.start(0.0)

    def test_restart_cancels_previous_schedule(self):
        clock = SimulationClock()
        graph, _, sink = build_graph()
        engine = PositioningEngine(graph, clock=clock)
        engine.track("t1", "src")
        engine.start(1.0)
        engine.start(10.0)  # replaces the 1s schedule
        engine.submit("t1", datum(1))
        clock.advance(5.0)
        assert sink.received == []
        clock.advance(5.0)
        assert payloads(sink.received) == [1]

    def test_snapshot_shape(self):
        graph, _, _ = build_graph()
        engine = PositioningEngine(graph)
        engine.track("t1", "src", weight=2)
        engine.submit("t1", datum(1))
        engine.drain_round()
        snapshot = engine.snapshot()
        assert snapshot["rounds"] == 1
        assert snapshot["drained_total"] == 1
        assert snapshot["pending"] == 0
        assert snapshot["running"] is False
        assert snapshot["lanes"]["t1"]["weight"] == 2
        assert snapshot["scheduler"]["type"] == "RoundRobinScheduler"

    def test_lanes_for_source(self):
        graph, src, _ = build_graph()
        other = SourceComponent("src2", ("x",))
        graph.add(other)
        engine = PositioningEngine(graph)
        engine.track("a", src)
        engine.track("b", "src2")
        engine.track("c", "src")
        assert [lane.target_id for lane in engine.lanes_for_source("src")] == [
            "a",
            "c",
        ]


class TestEngineWithSupervision:
    def test_batch_failures_isolated_per_datum(self):
        graph, _, sink = build_graph()
        boom = FunctionComponent(
            "boom",
            ("x",),
            ("x",),
            fn=lambda d: (_ for _ in ()).throw(ValueError("boom"))
            if d.payload == 1
            else d,
        )
        graph.remove("f", reconnect=False)
        graph.add(boom)
        graph.connect("src", "boom", "in")
        graph.connect("boom", "sink", "in")
        supervisor = Supervisor(SupervisionPolicy(failure_threshold=100))
        graph.set_supervisor(supervisor)
        engine = PositioningEngine(graph)
        engine.track("t1", "src")
        for i in range(4):
            engine.submit("t1", datum(i))
        engine.drain_round()
        # Datum 1 failed inside the batch; 0, 2, 3 still flowed.
        assert payloads(sink.received) == [0, 2, 3]
        assert supervisor.failure_count("boom") == 1


class TestRuntimeVisibility:
    def make_middleware(self):
        mw = PerPos()
        src = SourceComponent("src", ("x",))
        sink = ApplicationSink("sink", ("x",))
        mw.graph.add(src)
        mw.graph.add(sink)
        mw.graph.connect("src", "sink", "in")
        return mw

    def test_enable_disable_runtime(self):
        mw = self.make_middleware()
        assert mw.runtime is None
        engine = mw.enable_runtime()
        assert mw.runtime is engine
        assert engine.clock is mw.clock
        assert (
            mw.framework.registry.find_service("perpos.PositioningEngine")
            is not None
        )
        assert mw.disable_runtime() is engine
        assert mw.runtime is None

    def test_reenable_replaces_and_stops_previous(self):
        mw = self.make_middleware()
        first = mw.enable_runtime()
        first.track("t1", "src")
        first.start(1.0)
        second = mw.enable_runtime(RoundRobinScheduler(quantum=3))
        assert mw.runtime is second
        # The replaced engine's schedule was cancelled.
        first.submit("t1", datum(1))
        mw.clock.advance(10.0)
        assert mw.graph.component("sink").received == []

    def test_psl_ingestion_lanes_and_describe(self):
        mw = self.make_middleware()
        assert mw.psl.ingestion_lanes() == {}
        assert "ingestion" not in mw.psl.describe("src")
        engine = mw.enable_runtime()
        engine.track("t1", "src", policy=COALESCE)
        lanes = mw.psl.ingestion_lanes()
        assert lanes["t1"]["policy"] == COALESCE
        assert mw.psl.ingestion_lanes("src")["t1"]["source"] == "src"
        assert mw.psl.ingestion_lanes("sink") == {}
        described = mw.psl.describe("src")
        assert described["ingestion"]["t1"]["capacity"] == 64

    def test_psl_set_backpressure(self):
        mw = self.make_middleware()
        with pytest.raises(GraphError):
            mw.psl.set_backpressure("t1", policy=BLOCK)
        engine = mw.enable_runtime()
        engine.track("t1", "src")
        stats = mw.psl.set_backpressure("t1", policy=BLOCK, capacity=2)
        assert stats["policy"] == BLOCK
        assert engine.lane("t1").queue.capacity == 2

    def test_report_runtime_section(self):
        mw = self.make_middleware()
        assert infrastructure_snapshot(mw)["runtime"] is None
        assert "(no positioning engine)" in render_report(mw)
        engine = mw.enable_runtime()
        engine.track("t1", "src", capacity=2)
        for i in range(4):
            engine.submit("t1", datum(i))
        engine.drain_all()
        snapshot = infrastructure_snapshot(mw)
        lane = snapshot["runtime"]["lanes"]["t1"]
        assert lane["dropped_oldest"] == 2
        report = render_report(mw)
        assert "ingestion:" in report
        assert "t1 @src" in report
        assert "dropped=2" in report

    def test_hub_gauges_and_counters(self):
        # The lane and the engine own these counts; with observability
        # on, the hub keeps no copy of them.
        mw = self.make_middleware()
        hub = mw.enable_observability(tracing=False)
        engine = mw.enable_runtime()
        engine.track("t1", "src", capacity=1)
        engine.submit("t1", datum(1))
        engine.submit("t1", datum(2))  # evicts datum 1
        engine.drain_round()
        snapshot = engine.snapshot()
        lane = snapshot["lanes"]["t1"]
        assert (lane["offered"], lane["accepted"]) == (2, 2)
        assert snapshot["rounds"] == 1
        assert snapshot["drained_total"] == 1
        assert lane["depth"] == 0
        assert engine.lane("t1").queue.dropped == 1
        assert not [
            name
            for _kind, name, _labels, _instrument in hub.registry.series()
            if name.startswith(("queue_", "scheduler_"))
        ]
