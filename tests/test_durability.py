"""Tests for durable state: snapshot/restore, crash-recovery replay,
warm lane handoff, and the per-device gateway rate limiter.

Covers the :mod:`repro.durability` package bottom-up -- the value codec
(:mod:`~repro.durability.codec`), the three stdlib store backends
(:mod:`~repro.durability.store`), the mutation journal
(:mod:`~repro.durability.journal`), and the manager's capture/restore
(:mod:`~repro.durability.manager`) -- then the seams it rides on
(queue/sink/supervisor/DLQ state snapshots), the engine's replay and
lane export/install, :meth:`ShardedEngine.migrate_target`, the
middleware/PSL/report/hub surfaces, DLQ survival across gateway
disable/enable cycles, and the token-bucket rate limiter at the
ingestion edge.
"""

import json

import pytest

from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.core.data import Datum, Kind
from repro.core.graph import GraphError, ProcessingGraph
from repro.core.middleware import PerPos
from repro.core.report import infrastructure_snapshot, render_report
from repro.durability import (
    DurabilityError,
    DurabilityJournal,
    DurabilityManager,
    JsonLinesStateStore,
    MemoryStateStore,
    SqliteStateStore,
    capture_state,
    decode_value,
    encode_value,
    restore_from_store,
    restore_state,
)
from repro.gateway import (
    RATE_LIMITED,
    REJECTED,
    IngestionGateway,
    RateLimitError,
    RateLimiter,
    TokenBucket,
)
from repro.robustness.supervision import SupervisionPolicy, Supervisor
from repro.runtime import PositioningEngine, ShardedEngine, ShardingError
from repro.runtime.placement import PinnedPlacement
from repro.runtime.queues import COALESCE, DROP_OLDEST, IngestionQueue

POS = Kind.POSITION_WGS84


def datum(value, kind="x", t=0.0):
    return Datum(kind, value, t)


def build_graph():
    """src -> f -> sink, all on kind 'x'."""
    graph = ProcessingGraph()
    graph.add(SourceComponent("src", ("x",)))
    graph.add(FunctionComponent("f", ("x",), ("x",), fn=lambda d: d))
    graph.add(ApplicationSink("sink", ("x",)))
    graph.connect("src", "f", "in")
    graph.connect("f", "sink", "in")
    return graph


def recipe():
    """Module-level shard recipe: src -> app on kind 'x'."""
    graph = ProcessingGraph()
    graph.add(SourceComponent("src", ("x",)))
    graph.add(ApplicationSink("app", ("x",)))
    graph.connect("src", "app")
    return graph


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def advance(self, seconds):
        self.now += seconds


def gw_payload(device="d1", t=1000.0, **over):
    out = {
        "source_format": "phone_tracker_v1",
        "device_id": device,
        "timestamp": t,
        "lat": 55.676,
        "lon": 12.568,
        "accuracy_m": 5.0,
        "battery_pct": 0.8,
    }
    out.update(over)
    return out


# -- codec --------------------------------------------------------------------


class TestCodec:
    def test_datum_round_trips_through_json(self):
        d = Datum("x", {"v": 1}, 2.5, producer="p", attributes={"a": "b"})
        encoded = json.loads(json.dumps(encode_value(d)))
        out = decode_value(encoded)
        assert isinstance(out, Datum)
        assert (out.kind, out.payload, out.timestamp) == ("x", {"v": 1}, 2.5)
        assert out.producer == "p"
        assert out.attributes == {"a": "b"}

    def test_tuple_round_trips_as_tuple(self):
        out = decode_value(json.loads(json.dumps(encode_value((1, "a")))))
        assert out == (1, "a")
        assert isinstance(out, tuple)

    def test_unjsonable_values_fall_back_to_pickle(self):
        value = {1, 2, 3}
        encoded = encode_value(value)
        json.dumps(encoded)  # must be JSON-serialisable
        assert decode_value(encoded) == value

    def test_non_string_dict_keys_survive(self):
        value = {(0, 1): "a"}
        assert decode_value(encode_value(value)) == value

    def test_nested_structures(self):
        value = {"items": [datum(1), (2, datum(3))], "n": 4}
        out = decode_value(json.loads(json.dumps(encode_value(value))))
        assert out["n"] == 4
        assert out["items"][0].payload == 1
        assert out["items"][1][1].payload == 3


# -- stores -------------------------------------------------------------------


def _stores(tmp_path):
    return [
        MemoryStateStore(),
        JsonLinesStateStore(str(tmp_path / "state.jsonl")),
        SqliteStateStore(str(tmp_path / "state.db")),
    ]


class TestStores:
    def test_empty_store_has_no_latest(self, tmp_path):
        for store in _stores(tmp_path):
            assert store.load_latest() is None
            assert store.latest_entry("dlq_state") is None

    def test_entries_after_latest_snapshot_only(self, tmp_path):
        for store in _stores(tmp_path):
            store.append({"type": "a"})  # pre-snapshot: superseded
            store.save_snapshot({"gen": 1})
            store.append({"type": "b"})
            store.save_snapshot({"gen": 2})
            store.append({"type": "c"})
            store.append({"type": "d"})
            snapshot, entries = store.load_latest()
            assert snapshot == {"gen": 2}
            assert [e["type"] for e in entries] == ["c", "d"]

    def test_latest_entry_picks_newest_of_type(self, tmp_path):
        for store in _stores(tmp_path):
            store.append({"type": "dlq_state", "n": 1})
            store.append({"type": "other", "n": 2})
            store.append({"type": "dlq_state", "n": 3})
            assert store.latest_entry("dlq_state")["n"] == 3

    def test_save_snapshot_returns_bytes_written(self, tmp_path):
        for store in _stores(tmp_path):
            assert store.save_snapshot({"k": "v"}) > 0

    def test_jsonl_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        store = JsonLinesStateStore(path)
        store.save_snapshot({"gen": 1})
        store.append({"type": "e"})
        reopened = JsonLinesStateStore(path)
        snapshot, entries = reopened.load_latest()
        assert snapshot == {"gen": 1}
        assert [e["type"] for e in entries] == ["e"]

    def test_jsonl_tolerates_torn_trailing_write(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        store = JsonLinesStateStore(path)
        store.save_snapshot({"gen": 1})
        store.append({"type": "e"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "entry", "se')  # crash mid-write
        snapshot, entries = JsonLinesStateStore(path).load_latest()
        assert snapshot == {"gen": 1}
        assert [e["type"] for e in entries] == ["e"]

    def test_sqlite_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "p.db")
        store = SqliteStateStore(path)
        store.save_snapshot({"gen": 7})
        store.append({"type": "e"})
        store.close()
        snapshot, entries = SqliteStateStore(path).load_latest()
        assert snapshot == {"gen": 7}
        assert len(entries) == 1

    def test_describe_names_backend(self, tmp_path):
        backends = {s.describe()["backend"] for s in _stores(tmp_path)}
        assert backends == {"memory", "jsonl", "sqlite"}


# -- journal ------------------------------------------------------------------


class TestJournal:
    def test_records_land_in_store(self):
        store = MemoryStateStore()
        journal = DurabilityJournal(store)
        journal.record_submit("t1", datum(1))
        journal.record_drain([("t1", 1)])
        journal.record_track("t1", "src", 64, DROP_OLDEST, 1)
        journal.record_untrack("t1")
        journal.record_policy("t1", COALESCE, 8, 2)
        store.save_snapshot({})  # make entries loadable via load_latest
        assert journal.entries_written == 5
        assert store.describe()["entries"] == 5

    def test_suspended_latch_drops_records(self):
        store = MemoryStateStore()
        journal = DurabilityJournal(store)
        journal.suspended = True
        journal.record_submit("t1", datum(1))
        assert journal.entries_written == 0

    def test_auto_snapshot_fires_at_threshold(self):
        calls = []
        store = MemoryStateStore()
        journal = DurabilityJournal(
            store, snapshot_every=3, snapshot_fn=lambda: calls.append(1)
        )
        for i in range(7):
            journal.record_submit("t1", datum(i))
        assert len(calls) == 2

    def test_invalid_snapshot_every_rejected(self):
        with pytest.raises(DurabilityError):
            DurabilityManager(ProcessingGraph(), MemoryStateStore(), snapshot_every=0)


# -- state seams --------------------------------------------------------------


class TestStateSeams:
    def test_queue_snapshot_restore_round_trip(self):
        queue = IngestionQueue("q", capacity=4, policy=DROP_OLDEST)
        for i in range(6):
            queue.offer(datum(i))
        state = queue.state_snapshot()
        twin = IngestionQueue("q", capacity=64, policy=COALESCE)
        twin.state_restore(state)
        assert twin.capacity == 4
        assert twin.policy == DROP_OLDEST
        assert [d.payload for d in twin.drain(10)] == [2, 3, 4, 5]
        assert twin.dropped_oldest == 2

    def test_sink_snapshot_restore_round_trip(self):
        sink = ApplicationSink("sink", ("x",))
        sink.process("in", datum(1))
        sink.process("in", datum(2))
        twin = ApplicationSink("sink", ("x",))
        twin.state_restore(sink.state_snapshot())
        assert [d.payload for d in twin.received] == [1, 2]

    def test_default_component_has_no_state(self):
        f = FunctionComponent("f", ("x",), ("x",), fn=lambda d: d)
        assert f.state_snapshot() is None

    def test_supervisor_snapshot_restore_round_trip(self):
        supervisor = Supervisor(
            SupervisionPolicy(failure_threshold=2), time_fn=lambda: 0.0
        )
        boom = FunctionComponent(
            "boom",
            ("x",),
            ("x",),
            fn=lambda d: (_ for _ in ()).throw(ValueError("x")),
        )
        for i in range(3):
            supervisor.deliver(boom, "in", datum(i), None)
        state = supervisor.state_snapshot()
        twin = Supervisor(
            SupervisionPolicy(failure_threshold=2), time_fn=lambda: 0.0
        )
        twin.state_restore(state)
        assert twin.health("boom") == supervisor.health("boom")
        assert twin.failure_count("boom") == supervisor.failure_count("boom")
        assert len(twin.failure_records()) == len(supervisor.failure_records())


# -- capture / restore --------------------------------------------------------


def tracked_engine(n=10):
    graph = build_graph()
    engine = PositioningEngine(graph)
    engine.track("t1", "src")
    engine.track("t2", "src", capacity=8, policy=COALESCE, weight=2)
    for i in range(n):
        engine.submit("t1" if i % 2 else "t2", datum(i, t=float(i)))
    return graph, engine


class TestCaptureRestore:
    def test_capture_names_every_section(self):
        graph, engine = tracked_engine()
        state = capture_state(graph, engine)
        assert state["version"] == 1
        assert {lane["target"] for lane in state["lanes"]} == {"t1", "t2"}
        assert "sink" in state["components"]
        assert state["topology"]["components"] == ["f", "sink", "src"]

    def test_restore_rebuilds_lanes_and_pending(self):
        graph, engine = tracked_engine()
        state = capture_state(graph, engine)
        graph2 = build_graph()
        engine2 = PositioningEngine(graph2)
        restore_state(graph2, engine2, state, [])
        assert engine2.depth_total() == engine.depth_total()
        lane = engine2.lane("t2")
        assert lane.queue.policy == COALESCE
        assert lane.queue.capacity == 8
        assert lane.weight == 2

    def test_restore_replays_post_snapshot_journal(self):
        graph, engine = tracked_engine(4)
        store = MemoryStateStore()
        manager = DurabilityManager(graph, store)
        manager.attach()
        manager.checkpoint()
        # Post-snapshot activity lands in the journal only.
        for i in range(4, 8):
            engine.submit("t1", datum(i, t=float(i)))
        engine.drain_all()
        expected = sorted(
            d.payload for d in graph.component("sink").received
        )
        graph2 = build_graph()
        engine2 = PositioningEngine(graph2)
        replayed = restore_from_store(graph2, engine2, store)
        assert replayed > 0
        engine2.drain_all()
        assert (
            sorted(d.payload for d in graph2.component("sink").received)
            == expected
        )

    def test_restore_from_empty_store_raises(self):
        graph = build_graph()
        engine = PositioningEngine(graph)
        with pytest.raises(DurabilityError):
            restore_from_store(graph, engine, MemoryStateStore())

    def test_restore_rejects_unknown_version(self):
        graph, engine = tracked_engine(2)
        state = capture_state(graph, engine)
        state["version"] = 99
        with pytest.raises(DurabilityError):
            restore_state(graph, engine, state, [])

    def test_restore_rejects_missing_components(self):
        graph, engine = tracked_engine(2)
        state = capture_state(graph, engine)
        graph2 = ProcessingGraph()
        graph2.add(SourceComponent("src", ("x",)))
        engine2 = PositioningEngine(graph2)
        with pytest.raises(DurabilityError):
            restore_state(graph2, engine2, state, [])

    def test_metric_counters_restore_by_delta(self):
        pp = PerPos()
        pp.enable_observability()
        pp.graph.add(SourceComponent("src", ("x",)))
        pp.graph.add(ApplicationSink("sink", ("x",)))
        pp.graph.connect("src", "sink", "in")
        engine = pp.enable_runtime()
        engine.track("t1", "src")
        engine.submit("t1", datum(1))
        engine.drain_all()
        state = capture_state(pp.graph, engine)

        pp2 = PerPos()
        pp2.enable_observability()
        pp2.graph.add(SourceComponent("src", ("x",)))
        pp2.graph.add(ApplicationSink("sink", ("x",)))
        pp2.graph.connect("src", "sink", "in")
        engine2 = pp2.enable_runtime()
        restore_state(pp2.graph, engine2, state, [])
        before = pp.observability.registry.snapshot()["counters"]
        after = pp2.observability.registry.snapshot()["counters"]
        assert after == before


# -- engine replay and lane portability ---------------------------------------


class TestEngineDurabilitySeams:
    def test_replay_round_mirrors_drain_round(self):
        graph, engine = tracked_engine(6)
        # t2 coalesces same-kind datums to depth 1; t1 holds 3.
        counts = [("t2", 1), ("t1", 2)]
        routed = engine.replay_round(list(counts))
        assert routed == 3
        assert engine.rounds == 1
        assert engine.drained_total == 3
        assert len(graph.component("sink").received) == 3

    def test_replay_round_skips_vanished_lanes(self):
        graph, engine = tracked_engine(4)
        assert engine.replay_round([("ghost", 3)]) == 0

    def test_export_lane_removes_and_install_rebuilds(self):
        graph, engine = tracked_engine(6)
        payload = engine.export_lane("t2")
        assert not engine.is_tracked("t2")
        graph2 = build_graph()
        engine2 = PositioningEngine(graph2)
        lane = engine2.install_lane(payload)
        assert lane.queue.policy == COALESCE
        assert engine2.is_tracked("t2")
        engine2.drain_all()
        assert graph2.component("sink").received


# -- warm handoff (migrate_target) --------------------------------------------


class TestMigrateTarget:
    def make(self, shards=3):
        return ShardedEngine(recipe, shards)

    def seed(self, engine, targets=("a", "b", "c", "d"), per=3):
        for t in targets:
            engine.track(t, "src")
            for i in range(per):
                engine.submit(t, datum(f"{t}{i}"))

    def test_zero_datum_loss_and_pin(self):
        engine = self.make()
        self.seed(engine)
        before = engine.pending_total()
        from_shard = engine.shard_of("a")
        to_shard = (from_shard + 1) % 3
        record = engine.migrate_target("a", to_shard)
        assert record["datums"] == 3
        assert engine.pending_total() == before
        assert engine.shard_of("a") == to_shard
        assert isinstance(engine.placement, PinnedPlacement)
        # The lane keeps accepting traffic on its new home.
        engine.submit("a", datum("a-post"))
        drained = engine.drain_all()
        assert drained == before + 1
        assert record["pause_s"] >= 0.0
        assert engine.migrations()[-1]["target"] == "a"
        engine.close()

    def test_same_shard_migration_rejected(self):
        engine = self.make()
        self.seed(engine, targets=("a",))
        with pytest.raises(ShardingError):
            engine.migrate_target("a", engine.shard_of("a"))
        engine.close()

    def test_unknown_destination_rejected(self):
        engine = self.make()
        self.seed(engine, targets=("a",))
        with pytest.raises(ShardingError):
            engine.migrate_target("a", 99)
        engine.close()

    def test_failed_install_rolls_back_to_source(self):
        engine = self.make()
        self.seed(engine, targets=("a",))
        from_shard = engine.shard_of("a")
        to_shard = (from_shard + 1) % 3
        destination = engine._shards[to_shard]
        original = destination.install_lane
        destination.install_lane = lambda payload: (_ for _ in ()).throw(
            RuntimeError("install boom")
        )
        try:
            with pytest.raises(RuntimeError):
                engine.migrate_target("a", to_shard)
        finally:
            destination.install_lane = original
        # Rolled back: still tracked on the source shard, nothing lost.
        assert engine.shard_of("a") == from_shard
        assert engine.pending_total() == 3
        assert engine.migrations() == []
        engine.close()

    def test_migration_is_inspectable_without_durability(self):
        # The coordinator holds the one record of a handoff, so the PSL
        # and the report show it with no durability manager installed.
        pp = PerPos()
        engine = pp.enable_sharding(recipe, 3)
        self.seed(engine, targets=("a",))
        to_shard = (engine.shard_of("a") + 1) % 3
        record = engine.migrate_target("a", to_shard)
        assert pp.durability is None
        assert pp.psl.migrations() == [record]
        sharding = render_report(pp).split("sharding:")[1].split("\n\n")[0]
        assert "migrations=1" in sharding
        pp.disable_sharding()
        assert pp.psl.migrations() == []

    def test_migrations_total_outlives_the_bounded_history(self):
        engine = ShardedEngine(recipe, 2, failure_limit=2)
        self.seed(engine, targets=("a",))
        for _ in range(3):
            engine.migrate_target("a", 1 - engine.shard_of("a"))
        assert len(engine.migrations()) == 2
        assert engine.migrations_total == 3
        assert engine.snapshot()["migrations_total"] == 3
        engine.close()


# -- gateway rate limiting ----------------------------------------------------


class TestTokenBucket:
    def test_burst_then_throttle_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        assert bucket.allow(0.0)
        assert bucket.allow(0.0)
        assert not bucket.allow(0.0)
        assert bucket.allow(1.0)  # one token refilled after 1s
        assert not bucket.allow(1.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        bucket.allow(0.0)
        assert bucket.allow(100.0)
        assert bucket.allow(100.0)
        assert not bucket.allow(100.0)


class TestRateLimiter:
    def test_keys_are_per_adapter_device(self):
        limiter = RateLimiter(1.0)
        assert limiter.allow("a1", "d1", 0.0)
        assert not limiter.allow("a1", "d1", 0.0)
        assert limiter.allow("a1", "d2", 0.0)  # other device unaffected
        assert limiter.allow("a2", "d1", 0.0)  # other adapter unaffected
        assert limiter.allowed == 3
        assert limiter.limited == 1

    def test_key_table_bounded_with_eviction(self):
        limiter = RateLimiter(1.0, max_keys=2)
        for i in range(5):
            limiter.allow("a", f"d{i}", 0.0)
        assert len(limiter) == 2
        assert limiter.evicted_keys == 3

    def test_invalid_configuration_rejected(self):
        with pytest.raises(RateLimitError):
            RateLimiter(0.0)
        with pytest.raises(RateLimitError):
            RateLimiter(1.0, burst=0.5)
        with pytest.raises(RateLimitError):
            RateLimiter(1.0, max_keys=0)


class TestGatewayRateLimiting:
    def make_gateway(self, **kwargs):
        graph = ProcessingGraph()
        graph.add(SourceComponent("src", (POS,)))
        graph.add(ApplicationSink("sink", (POS,), keep_last=100_000))
        graph.connect("src", "sink", "in")
        engine = PositioningEngine(graph)
        clock = kwargs.pop("clock", FakeClock())
        gateway = IngestionGateway(engine, "src", clock=clock, **kwargs)
        return gateway, engine, graph.component("sink"), clock

    def test_excess_is_rate_limited_not_dead_lettered(self):
        gateway, engine, sink, clock = self.make_gateway(rate_limit=2.0)
        verdicts = [
            gateway.submit(gw_payload(t=clock.now)) for _ in range(5)
        ]
        assert verdicts.count(RATE_LIMITED) == 3
        assert gateway.rate_limited == 3
        # DLQ-exempt: well-formed excess must not evict malformed
        # payloads awaiting replay-after-fix.
        assert gateway.dead_letters() == []
        snapshot = gateway.snapshot()
        assert snapshot["rate_limited"] == 3
        assert snapshot["rate_limit"]["limited"] == 3
        # invariant: submitted == accepted+rejected+shed+rate_limited+pending
        assert snapshot["submitted"] == 5
        assert (
            snapshot["accepted"]
            + snapshot["rejected"]
            + snapshot["shed"]
            + snapshot["rate_limited"]
            + snapshot["pending"]
            == 5
        )

    def test_tokens_refill_with_injected_clock(self):
        gateway, engine, sink, clock = self.make_gateway(rate_limit=1.0)
        assert gateway.submit(gw_payload(t=clock.now)) != RATE_LIMITED
        assert gateway.submit(gw_payload(t=clock.now)) == RATE_LIMITED
        clock.advance(1.0)
        assert gateway.submit(gw_payload(t=clock.now)) != RATE_LIMITED

    def test_devices_throttle_independently(self):
        gateway, engine, sink, clock = self.make_gateway(rate_limit=1.0)
        assert gateway.submit(gw_payload("d1", t=clock.now)) != RATE_LIMITED
        assert gateway.submit(gw_payload("d1", t=clock.now)) == RATE_LIMITED
        assert gateway.submit(gw_payload("d2", t=clock.now)) != RATE_LIMITED

    def test_replay_is_exempt_from_rate_limiting(self):
        gateway, engine, sink, clock = self.make_gateway(
            rate_limit=1.0, max_age_s=10.0
        )
        # Dead-letter a stale payload, then fix it: replay must pass
        # even with the device's token bucket empty.
        assert gateway.submit(gw_payload(t=clock.now)) != RATE_LIMITED
        stale = gateway.submit(gw_payload(t=clock.now - 100.0))
        assert stale == REJECTED
        seq = gateway.dead_letters()[0]["seq"]
        gateway.dlq.patch(seq, timestamp=clock.now)
        assert not gateway.rate_limiter.allow(
            "phone_tracker_v1", "d1", clock.now
        )  # bucket drained
        counts = gateway.replay(seq, ignore_backoff=True)
        assert counts["replayed"] == 1

    def test_explicit_limiter_instance_accepted(self):
        limiter = RateLimiter(5.0, burst=10.0)
        gateway, engine, sink, clock = self.make_gateway(rate_limit=limiter)
        assert gateway.rate_limiter is limiter

    def test_hub_counts_rate_limited_outcomes(self):
        pp = PerPos()
        pp.enable_observability()
        pp.graph.add(SourceComponent("src", (POS,)))
        pp.graph.add(ApplicationSink("sink", (POS,)))
        pp.graph.connect("src", "sink", "in")
        pp.enable_runtime()
        gateway = pp.enable_gateway("src", rate_limit=1.0)
        gateway.submit(gw_payload(t=pp.clock.now))
        gateway.submit(gw_payload(t=pp.clock.now))
        # The gateway and its adapter own the count; the hub has none.
        assert gateway.rate_limited == 1
        adapters = gateway.snapshot()["adapters"]
        assert adapters["phone_tracker_v1"]["rate_limited"] == 1
        counters = pp.observability.registry.snapshot()["counters"]
        assert not [name for name in counters if name.startswith("gateway_")]


# -- middleware / PSL / report surfaces ---------------------------------------


def middleware_with_runtime():
    pp = PerPos()
    pp.enable_observability()
    pp.graph.add(SourceComponent("src", ("x",)))
    pp.graph.add(FunctionComponent("f", ("x",), ("x",), fn=lambda d: d))
    pp.graph.add(ApplicationSink("sink", ("x",)))
    pp.graph.connect("src", "f", "in")
    pp.graph.connect("f", "sink", "in")
    engine = pp.enable_runtime()
    return pp, engine


class TestMiddlewareDurability:
    def test_enable_requires_runtime(self):
        pp = PerPos()
        with pytest.raises(ValueError):
            pp.enable_durability()

    def test_enable_attach_disable_detach(self):
        pp, engine = middleware_with_runtime()
        manager = pp.enable_durability()
        assert pp.durability is manager
        assert engine.journal is manager.journal
        assert (
            pp.framework.registry.find_service("perpos.DurabilityManager")
            is manager
        )
        assert pp.disable_durability() is manager
        assert pp.durability is None
        assert engine.journal is None
        assert (
            pp.framework.registry.find_service("perpos.DurabilityManager")
            is None
        )

    def test_reenable_replaces_manager_and_registration(self):
        pp, engine = middleware_with_runtime()
        first = pp.enable_durability()
        second = pp.enable_durability()
        assert second is not first
        assert first.journal is None  # detached
        assert engine.journal is second.journal
        assert (
            pp.framework.registry.find_service("perpos.DurabilityManager")
            is second
        )

    def test_snapshot_restore_through_psl(self):
        pp, engine = middleware_with_runtime()
        pp.enable_durability()
        engine.track("t1", "src")
        for i in range(5):
            engine.submit("t1", datum(i, t=float(i)))
        summary = pp.psl.snapshot()
        assert summary["lanes"] == 1
        assert summary["pending"] == 5
        # Post-snapshot activity is journaled; restore converges the
        # engine back to the exact current state by replaying it.
        engine.drain_all()
        expected = [d.payload for d in pp.graph.component("sink").received]
        replayed = pp.psl.restore()
        assert replayed > 0
        assert engine.is_tracked("t1")
        assert engine.depth_total() == 0
        assert [
            d.payload for d in pp.graph.component("sink").received
        ] == expected

    def test_enable_durability_rejects_live_sharding(self):
        # The manager journals only the graph's engine; a restore would
        # silently miss every shard lane.
        pp, engine = middleware_with_runtime()
        pp.enable_sharding(recipe, 2)
        with pytest.raises(ValueError, match="durability with sharding"):
            pp.enable_durability()
        assert pp.durability is None
        assert engine.journal is None
        pp.disable_sharding()

    def test_enable_sharding_rejects_live_durability(self):
        pp, engine = middleware_with_runtime()
        manager = pp.enable_durability()
        with pytest.raises(ValueError, match="durability with sharding"):
            pp.enable_sharding(recipe, 2)
        assert pp.sharding is None
        assert pp.durability is manager

    def test_psl_surfaces_degrade_or_raise_without_manager(self):
        pp, engine = middleware_with_runtime()
        assert pp.psl.migrations() == []  # inspection degrades
        with pytest.raises(GraphError):
            pp.psl.snapshot()  # adaptation raises
        with pytest.raises(GraphError):
            pp.psl.restore()

    def test_hub_durability_counters(self):
        # The manager owns its counts; the hub keeps no copy of them.
        pp, engine = middleware_with_runtime()
        manager = pp.enable_durability()
        engine.track("t1", "src")
        engine.submit("t1", datum(1))
        manager.checkpoint()
        engine.submit("t1", datum(2))
        manager.restore()
        described = manager.snapshot()
        assert described["snapshots_taken"] == 1
        assert described["restores"] == 1
        assert described["entries_replayed"] == 1
        assert described["last_snapshot_bytes"] > 0
        assert not [
            name
            for _kind, name, _labels, _i in pp.observability.registry.series()
            if name.startswith(("durability_", "restore_", "snapshot_"))
        ]

    def test_report_renders_durability_section(self):
        pp, engine = middleware_with_runtime()
        pp.enable_durability(snapshot_every=10)
        snapshot = infrastructure_snapshot(pp)
        assert snapshot["durability"]["store"]["backend"] == "memory"
        text = render_report(pp)
        assert "durability:" in text
        assert "store=memory" in text
        assert "auto_snapshot=every 10 entries" in text

    def test_report_without_durability(self):
        pp, engine = middleware_with_runtime()
        assert infrastructure_snapshot(pp)["durability"] is None
        assert "(durability disabled)" in render_report(pp)

    def test_auto_snapshot_through_engine_traffic(self):
        pp, engine = middleware_with_runtime()
        manager = pp.enable_durability(snapshot_every=4)
        engine.track("t1", "src")
        for i in range(10):
            engine.submit("t1", datum(i, t=float(i)))
        assert manager.snapshots_taken >= 2


class TestDlqSurvivesGatewayCycles:
    def build(self):
        pp = PerPos()
        pp.graph.add(SourceComponent("src", (POS,)))
        pp.graph.add(ApplicationSink("sink", (POS,)))
        pp.graph.connect("src", "sink", "in")
        pp.enable_runtime()
        pp.enable_durability()
        return pp

    def test_dead_letters_survive_disable_enable(self):
        pp = self.build()
        gateway = pp.enable_gateway("src")
        assert gateway.submit(b"\x00garbage") == REJECTED
        assert len(gateway.dead_letters()) == 1
        pp.disable_gateway()
        reborn = pp.enable_gateway("src")
        records = reborn.dead_letters()
        assert len(records) == 1
        assert records[0]["stage"] == "format"

    def test_dead_letters_survive_re_enable(self):
        # Re-enabling goes through disable_gateway, which persists the
        # DLQ, so a replaced gateway's dead letters carry over too.
        pp = self.build()
        gateway = pp.enable_gateway("src")
        assert gateway.submit(b"\x00garbage") == REJECTED
        assert gateway.submit(b"\x00more garbage") == REJECTED
        reborn = pp.enable_gateway("src")
        assert reborn is not gateway and gateway.closed
        assert len(reborn.dead_letters()) == 2
        assert reborn.dead_letters() == gateway.dead_letters()

    def test_without_durability_cycle_forfeits_dlq(self):
        pp = PerPos()
        pp.graph.add(SourceComponent("src", (POS,)))
        pp.graph.add(ApplicationSink("sink", (POS,)))
        pp.graph.connect("src", "sink", "in")
        pp.enable_runtime()
        gateway = pp.enable_gateway("src")
        gateway.submit(b"\x00garbage")
        pp.disable_gateway()
        assert pp.enable_gateway("src").dead_letters() == []

    def test_replay_after_fix_across_cycle(self):
        pp = self.build()
        gateway = pp.enable_gateway("src")
        gateway.submit({"source_format": "phone_tracker_v1"})  # schema reject
        pp.disable_gateway()
        reborn = pp.enable_gateway("src")
        seq = reborn.dead_letters()[0]["seq"]
        # The record is replayable through the new gateway instance.
        counts = reborn.replay(seq, ignore_backoff=True)
        assert counts["attempted"] == 1  # still malformed, but it ran
        assert counts["replayed"] == 0
