"""Tests for the sharded multi-worker runtime and its placement policies.

Covers the :mod:`repro.runtime.placement` policy objects (consistent
hashing, modulo, explicit pins), the :class:`ShardedEngine` coordinator
(placement-driven tracking, fan-out submission, merged reflective
surfaces, simulated-clock rounds), per-shard failure containment
(degraded marking, truncation surfacing, chaos via fault injection),
the middleware/report integration, the multiprocessing executor's
worker loop (served on threads over real pipes, so it runs in tier-1),
and the multiprocessing executor itself (marked ``multiproc``; excluded
from tier-1).
"""

import multiprocessing
import os
import threading
from collections import Counter
from functools import partial
from multiprocessing.connection import Connection

import pytest

from repro.clock import SimulationClock
from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.core.data import Datum
from repro.core.graph import ProcessingGraph
from repro.core.middleware import PerPos
from repro.core.report import infrastructure_snapshot, render_report
from repro.robustness import FaultInjectionFeature
from repro.robustness.supervision import OPEN, QUARANTINE, SupervisionPolicy
from repro.runtime import (
    ConsistentHashPlacement,
    EngineError,
    ModuloPlacement,
    PinnedPlacement,
    PlacementError,
    PlacementPolicy,
    PositioningEngine,
    RoundRobinScheduler,
    SHARD_DEGRADED,
    SHARD_HEALTHY,
    ShardedEngine,
    ShardingError,
    ShardRemoteError,
    WeightedScheduler,
    stable_hash,
)
from repro.runtime.sharding import build_scheduler, materialise_graph
from repro.scenario import GPS_KIND, GeofenceRule, build_city_graph


def datum(value, kind="x", t=0.0):
    return Datum(kind, value, t)


def _crash_on_negative(d):
    if d.payload < 0:
        raise ValueError(f"crash on {d.payload}")
    return d


def recipe():
    """src -> stage -> app; module-level so worker processes can pickle it."""
    graph = ProcessingGraph()
    graph.add(SourceComponent("src", ("x",)))
    graph.add(
        FunctionComponent("stage", ("x",), ("x",), fn=_crash_on_negative)
    )
    graph.add(ApplicationSink("app", ("x",)))
    graph.connect("src", "stage")
    graph.connect("stage", "app")
    return graph


def fill(engine, targets=8, per_target=5, shard=None):
    """Track ``targets`` lanes and submit ``per_target`` datums to each."""
    for t in range(targets):
        engine.track(f"t{t}", "src", shard=shard)
    for i in range(per_target):
        for t in range(targets):
            engine.submit(f"t{t}", datum(i, t=float(i)))
    return targets * per_target


class TestStableHash:
    def test_deterministic_and_spread(self):
        assert stable_hash("t1") == stable_hash("t1")
        values = {stable_hash(f"t{i}") for i in range(100)}
        assert len(values) == 100
        assert all(0 <= v < 2**64 for v in values)


class TestConsistentHashPlacement:
    def test_places_in_range_and_deterministically(self):
        policy = ConsistentHashPlacement()
        for count in (1, 2, 5):
            placements = [
                policy.place(f"t{i}", count) for i in range(200)
            ]
            assert all(0 <= p < count for p in placements)
            assert placements == [
                policy.place(f"t{i}", count) for i in range(200)
            ]

    def test_single_shard_shortcut(self):
        assert ConsistentHashPlacement().place("anything", 1) == 0

    def test_distribution_is_roughly_even(self):
        policy = ConsistentHashPlacement()
        counts = Counter(
            policy.place(f"t{i}", 4) for i in range(1000)
        )
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 100

    def test_resize_relocates_a_minority(self):
        policy = ConsistentHashPlacement()
        targets = [f"t{i}" for i in range(400)]
        before = {t: policy.place(t, 4) for t in targets}
        moved = sum(
            1 for t in targets if policy.place(t, 5) != before[t]
        )
        # Ideal is K/5 = 80; modulo placement moves ~4/5 of everything.
        assert moved < 200

    def test_invalid_configuration(self):
        with pytest.raises(PlacementError):
            ConsistentHashPlacement(replicas=0)
        with pytest.raises(PlacementError):
            ConsistentHashPlacement().place("t", 0)

    def test_describe(self):
        info = ConsistentHashPlacement(replicas=64).describe()
        assert info == {
            "type": "ConsistentHashPlacement",
            "replicas": 64,
        }


class TestModuloPlacement:
    def test_modulo_of_stable_hash(self):
        policy = ModuloPlacement()
        assert policy.place("t1", 4) == stable_hash("t1") % 4

    def test_resize_relocates_a_majority(self):
        # The contrast consistent hashing is measured against.
        policy = ModuloPlacement()
        targets = [f"t{i}" for i in range(400)]
        moved = sum(
            1
            for t in targets
            if policy.place(t, 5) != policy.place(t, 4)
        )
        assert moved > 250


class TestPinnedPlacement:
    def test_pin_overrides_base(self):
        policy = PinnedPlacement()
        base = policy.base.place("vip", 4)
        policy.pin("vip", (base + 1) % 4)
        assert policy.place("vip", 4) == (base + 1) % 4
        assert policy.place("other", 4) == policy.base.place("other", 4)

    def test_unpin_falls_back(self):
        policy = PinnedPlacement(pins={"vip": 2})
        assert policy.place("vip", 4) == 2
        assert policy.unpin("vip") == 2
        assert policy.place("vip", 4) == policy.base.place("vip", 4)
        with pytest.raises(PlacementError):
            policy.unpin("vip")

    def test_out_of_range_pin_surfaces_at_place_time(self):
        policy = PinnedPlacement(pins={"vip": 7})
        with pytest.raises(PlacementError):
            policy.place("vip", 4)
        with pytest.raises(PlacementError):
            policy.pin("x", -1)

    def test_describe_includes_pins_and_base(self):
        policy = PinnedPlacement(base=ModuloPlacement(), pins={"a": 1})
        info = policy.describe()
        assert info["pins"] == {"a": 1}
        assert info["base"] == {"type": "ModuloPlacement"}


class TestBuildHelpers:
    def test_build_scheduler_specs(self):
        assert isinstance(build_scheduler(None), RoundRobinScheduler)
        rr = build_scheduler(("round_robin", 8))
        assert isinstance(rr, RoundRobinScheduler)
        assert rr.quantum == 8
        assert isinstance(
            build_scheduler(("weighted", 4)), WeightedScheduler
        )
        assert isinstance(
            build_scheduler(lambda: WeightedScheduler(2)),
            WeightedScheduler,
        )

    def test_build_scheduler_rejects_bad_specs(self):
        with pytest.raises(ShardingError):
            build_scheduler(("fifo", 8))
        with pytest.raises(ShardingError):
            build_scheduler(lambda: "not a scheduler")

    def test_materialise_graph_accepts_assembler(self):
        from repro.core.assembly import AutoAssembler

        assembler = AutoAssembler()
        assembler.graph.add(SourceComponent("src", ("x",)))
        assert materialise_graph(lambda: assembler) is assembler.graph

    def test_materialise_graph_rejects_non_graphs(self):
        with pytest.raises(ShardingError):
            materialise_graph(lambda: "nope")


class TestShardedEngineBasics:
    def test_invalid_configuration(self):
        with pytest.raises(ShardingError):
            ShardedEngine(recipe, 0)
        with pytest.raises(ShardingError):
            ShardedEngine(recipe, 2, executor="threads")

    def test_each_shard_gets_its_own_graph(self):
        with ShardedEngine(recipe, 3) as engine:
            graphs = {id(shard.graph) for shard in engine.shards()}
            assert len(graphs) == 3
            assert engine.shard_count == 3

    def test_track_uses_placement_policy(self):
        policy = ConsistentHashPlacement()
        with ShardedEngine(recipe, 4, placement=policy) as engine:
            for i in range(32):
                assert engine.track(f"t{i}", "src") == policy.place(
                    f"t{i}", 4
                )
                assert engine.shard_of(f"t{i}") == policy.place(
                    f"t{i}", 4
                )
            assert len(engine.assignments()) == 32

    def test_track_pin_overrides_policy(self):
        with ShardedEngine(recipe, 4) as engine:
            assert engine.track("vip", "src", shard=3) == 3
            assert engine.shard_of("vip") == 3
            with pytest.raises(ShardingError):
                engine.track("vip", "src")  # already tracked
            with pytest.raises(ShardingError):
                engine.track("t2", "src", shard=9)

    def test_untrack_releases_the_lane(self):
        with ShardedEngine(recipe, 2) as engine:
            shard = engine.track("t1", "src")
            assert engine.untrack("t1") == shard
            with pytest.raises(ShardingError):
                engine.shard_of("t1")
            # The shard's engine really dropped the lane.
            assert engine.ingestion_lanes() == {}

    def test_submit_routes_to_owning_shard(self):
        with ShardedEngine(recipe, 3) as engine:
            engine.track("t1", "src", shard=2)
            assert engine.submit("t1", datum(1)) == "accepted"
            owner = engine.shard(2)
            assert owner.engine.lane("t1").queue.depth == 1
            with pytest.raises(ShardingError):
                engine.submit("ghost", datum(1))

    def test_submit_batch_fans_out_and_merges_verdicts(self):
        with ShardedEngine(recipe, 3) as engine:
            engine.track("a", "src", shard=0, capacity=2)
            engine.track("b", "src", shard=1)
            verdicts = engine.submit_batch(
                [("a", datum(i)) for i in range(4)]
                + [("b", datum(i)) for i in range(3)]
            )
            # Lane "a" has capacity 2 with drop-oldest: all 4 accepted
            # but 2 evicted; verdict counting happens at offer time.
            assert verdicts == {"accepted": 7}
            assert engine.pending_total() == 5

    def test_drain_round_and_drain_all(self):
        with ShardedEngine(recipe, 3) as engine:
            n = fill(engine, targets=9, per_target=4)
            first = engine.drain_round()
            assert 0 < first <= n
            rest = engine.drain_all()
            assert first + rest == n
            assert engine.drained_total == n
            assert engine.rounds >= 2
            assert engine.pending_total() == 0

    def test_sink_outputs_collects_across_shards(self):
        with ShardedEngine(recipe, 3) as engine:
            n = fill(engine, targets=6, per_target=3)
            engine.drain_all()
            rows = engine.sink_outputs()
            assert len(rows) == n
            assert {row[0] for row in rows} == {"app"}
            assert {row[3] for row in rows} == {
                f"t{i}" for i in range(6)
            }

    def test_set_policy_reaches_the_owning_lane(self):
        with ShardedEngine(recipe, 3) as engine:
            engine.track("t1", "src", shard=1)
            stats = engine.set_policy("t1", policy="coalesce", weight=3)
            assert stats["policy"] == "coalesce"
            assert stats["weight"] == 3

    def test_ingestion_lanes_annotated_with_shard(self):
        with ShardedEngine(recipe, 3) as engine:
            engine.track("a", "src", shard=0)
            engine.track("b", "src", shard=2)
            engine.submit("a", datum(1))
            lanes = engine.ingestion_lanes()
            assert lanes["a"]["shard"] == 0
            assert lanes["b"]["shard"] == 2
            assert lanes["a"]["depth"] == 1

    def test_snapshot_shape(self):
        with ShardedEngine(recipe, 2) as engine:
            fill(engine, targets=4, per_target=2)
            engine.drain_all()
            snap = engine.snapshot()
            assert snap["executor"] == "inprocess"
            assert snap["shards"] == 2
            assert snap["placement"]["type"] == "ConsistentHashPlacement"
            assert snap["targets"] == 4
            assert snap["drained_total"] == 8
            assert snap["pending"] == 0
            assert snap["degraded"] == []
            assert snap["truncated"] == []
            assert snap["failures"] == []
            assert [e["shard"] for e in snap["per_shard"]] == [0, 1]
            assert all(
                e["status"] == SHARD_HEALTHY for e in snap["per_shard"]
            )

    def test_start_drains_on_the_simulated_clock(self):
        clock = SimulationClock()
        with ShardedEngine(recipe, 2, clock=clock) as engine:
            n = fill(engine, targets=4, per_target=3)
            engine.start(1.0)
            assert engine.snapshot()["running"]
            clock.run_until(5.0)
            assert engine.drained_total == n
            engine.stop()
            assert not engine.snapshot()["running"]

    def test_start_requires_a_clock(self):
        with ShardedEngine(recipe, 2) as engine:
            with pytest.raises(ShardingError):
                engine.start(1.0)
        clock = SimulationClock()
        with ShardedEngine(recipe, 2, clock=clock) as engine:
            with pytest.raises(ShardingError):
                engine.start(0.0)

    def test_shard_lookup_errors(self):
        with ShardedEngine(recipe, 2) as engine:
            with pytest.raises(ShardingError):
                engine.shard(5)


class TestMergedObservability:
    def test_merged_component_stats_sum_across_shards(self):
        with ShardedEngine(recipe, 3, observability=True) as engine:
            n = fill(engine, targets=6, per_target=4)
            engine.drain_all()
            stats = engine.merged_component_stats()
            assert stats["stage"]["items_in"] == n
            assert stats["app"]["items_in"] == n
            # Latency histograms record per delivered batch, not per
            # datum; the merge must still sum across shards.
            per_shard = sum(
                shard.component_stats()["stage"]["latency"]["count"]
                for shard in engine.shards()
            )
            assert stats["stage"]["latency"]["count"] == per_shard > 0

    def test_merged_metrics_sum_counter_series(self):
        with ShardedEngine(recipe, 2, observability=True) as engine:
            n = fill(engine, targets=4, per_target=3)
            engine.drain_all()
            merged = engine.merged_metrics()
            items_in = sum(
                value
                for series, value in merged["counters"].items()
                if series.startswith("items_in{component=stage")
            )
            assert items_in == n

    def test_surfaces_empty_without_observability(self):
        with ShardedEngine(recipe, 2) as engine:
            fill(engine, targets=2, per_target=2)
            engine.drain_all()
            assert engine.merged_component_stats() == {}
            assert engine.merged_metrics() == {
                "counters": {},
                "gauges": {},
                "histograms": {},
            }


class TestShardFailureContainment:
    def test_failing_shard_is_degraded_and_survivors_drain(self):
        with ShardedEngine(recipe, 3) as engine:
            for t in range(3):
                engine.track(f"t{t}", "src", shard=t)
            engine.submit("t0", datum(5))
            engine.submit("t1", datum(-1))  # stage raises on shard 1
            engine.submit("t2", datum(7))
            drained = engine.drain_all()
            assert drained == 2  # shards 0 and 2 finished their datums
            assert engine.degraded() == [1]
            shard = engine.shard(1)
            assert shard.status == SHARD_DEGRADED
            assert "ValueError" in shard.error
            [failure] = engine.failures()
            assert failure["shard"] == 1
            assert failure["op"] == "all"
            assert "crash on -1" in failure["error"]

    def test_degraded_shard_skips_rounds_until_restored(self):
        with ShardedEngine(recipe, 2) as engine:
            engine.track("bad", "src", shard=0)
            engine.track("good", "src", shard=1)
            engine.submit("bad", datum(-1))
            engine.drain_all()
            assert engine.degraded() == [0]
            # New work on the healthy shard still flows.
            engine.submit("good", datum(1))
            assert engine.drain_all() == 1
            assert engine.degraded() == [0]
            # After healing (the poison datum was consumed by the
            # failed delivery), the shard rejoins the rounds.
            engine.restore_shard(0)
            engine.submit("bad", datum(2))
            assert engine.drain_all() == 1
            assert engine.degraded() == []

    def test_all_shards_degraded_raises(self):
        with ShardedEngine(recipe, 2) as engine:
            engine.track("a", "src", shard=0)
            engine.track("b", "src", shard=1)
            engine.submit("a", datum(-1))
            engine.submit("b", datum(-2))
            engine.drain_all()
            assert engine.degraded() == [0, 1]
            with pytest.raises(ShardingError):
                engine.drain_round()

    def test_failure_ring_is_bounded(self):
        with ShardedEngine(recipe, 2, failure_limit=3) as engine:
            engine.track("bad", "src", shard=0)
            for i in range(5):
                engine.submit("bad", datum(-1 - i))
                engine.drain_all()
                engine.restore_shard(0)
            assert len(engine.failures()) == 3

    def test_truncation_is_degradation_not_quiescence(self):
        # Quantum 1 + 5 datums + max_rounds 2: the shard cannot finish,
        # and the coordinator must not report it drained.
        with ShardedEngine(
            recipe, 2, scheduler=("round_robin", 1)
        ) as engine:
            engine.track("slow", "src", shard=0)
            engine.track("fast", "src", shard=1)
            for i in range(5):
                engine.submit("slow", datum(i))
            engine.submit("fast", datum(9))
            drained = engine.drain_all(max_rounds=2)
            assert drained == 1  # only the fast shard finished
            assert engine.degraded() == [0]
            snap = engine.snapshot()
            assert snap["truncated"] == [0]
            assert snap["pending"] == 3
            assert "not drained" in engine.shard(0).error

    def test_begin_drain_failure_is_contained_and_survivors_collected(self):
        # A shard can fail at begin_drain (a worker dead while idle is
        # the realistic crash mode): it must be degraded like a
        # finish_drain failure, and shards that DID begin must still be
        # collected -- in begin-order, keeping survivors' results exact.
        with ShardedEngine(recipe, 3) as engine:
            for t in range(3):
                engine.track(f"t{t}", "src", shard=t)
            for t in range(3):
                engine.submit(f"t{t}", datum(t))

            def broken_begin(op, max_rounds):
                raise ShardingError("worker exited unexpectedly")

            engine.shard(1).begin_drain = broken_begin
            assert engine.drain_all() == 2  # shards 0 and 2 delivered
            assert engine.degraded() == [1]
            [failure] = engine.failures()
            assert failure["shard"] == 1
            assert "worker exited unexpectedly" in failure["error"]
            # The degraded shard is skipped, so later rounds stay clean.
            engine.submit("t0", datum(9))
            assert engine.drain_all() == 1
            assert engine.degraded() == [1]

    def test_shard_drain_all_on_exact_round_boundary_stays_healthy(self):
        # Quantum 1 + 2 datums + max_rounds 2: the queues empty exactly
        # on the last round -- quiescence, not truncation; the shard
        # must not be degraded.
        with ShardedEngine(
            recipe, 2, scheduler=("round_robin", 1)
        ) as engine:
            engine.track("t0", "src", shard=0)
            engine.submit("t0", datum(0))
            engine.submit("t0", datum(1))
            assert engine.drain_all(max_rounds=2) == 2
            assert engine.degraded() == []
            assert engine.snapshot()["truncated"] == []

    def test_per_shard_supervision_quarantines_inside_the_shard(self):
        policy = SupervisionPolicy(
            mode=QUARANTINE, failure_threshold=2, window_s=60.0
        )
        with ShardedEngine(recipe, 2, supervision=policy) as engine:
            engine.track("bad", "src", shard=0)
            engine.track("good", "src", shard=1)
            for i in range(3):
                engine.submit("bad", datum(-1 - i))
                engine.submit("good", datum(i))
            # Supervised delivery absorbs the failures: no shard-level
            # degradation, the breaker opens inside shard 0 instead.
            engine.drain_all()
            assert engine.degraded() == []
            health = engine.component_health()
            assert health["stage"] == OPEN  # worst-of across shards


@pytest.mark.chaos
class TestShardChaos:
    def _engine_with_fault(self, **kwargs):
        engine = ShardedEngine(recipe, 3, **kwargs)
        stage = engine.shard(0).graph.component("stage")
        stage.attach_feature(FaultInjectionFeature(fail_every=1))
        return engine

    def test_mid_drain_crash_degrades_only_its_shard(self):
        with self._engine_with_fault() as engine:
            for t in range(6):
                engine.track(f"t{t}", "src", shard=t % 3)
            for i in range(4):
                for t in range(6):
                    engine.submit(f"t{t}", datum(i, t=float(i)))
            drained = engine.drain_all()
            # Shards 1 and 2 (two targets x four datums each) finish.
            assert drained == 16
            assert engine.degraded() == [0]
            assert "FaultInjected" in engine.shard(0).error
            rows = engine.sink_outputs()
            assert {row[3] for row in rows} == {
                "t1", "t2", "t4", "t5"
            }

    def test_merged_report_stays_renderable_during_chaos(self):
        middleware = PerPos()
        engine = middleware.enable_sharding(recipe, 3)
        stage = engine.shard(0).graph.component("stage")
        stage.attach_feature(FaultInjectionFeature(fail_every=1))
        for t in range(3):
            engine.track(f"t{t}", "src", shard=t)
            engine.submit(f"t{t}", datum(t, t=float(t)))
        engine.drain_all()
        assert engine.degraded() == [0]
        snap = infrastructure_snapshot(middleware)
        assert snap["sharding"]["degraded"] == [0]
        assert snap["sharding"]["per_shard"][0]["status"] == (
            SHARD_DEGRADED
        )
        text = render_report(middleware)
        assert "sharding:" in text
        assert "shard 0: degraded" in text
        assert "FaultInjected" in text
        assert "shard 1: healthy" in text
        middleware.disable_sharding()

    def test_disarm_and_restore_rejoins_the_fleet(self):
        with self._engine_with_fault() as engine:
            engine.track("a", "src", shard=0)
            engine.submit("a", datum(1))
            engine.drain_all()
            assert engine.degraded() == [0]
            stage = engine.shard(0).graph.component("stage")
            stage.get_feature("FaultInjection").disarm()
            engine.restore_shard(0)
            engine.submit("a", datum(2))
            assert engine.drain_all() == 1
            assert engine.degraded() == []


class TestMiddlewareIntegration:
    def test_enable_sharding_registers_and_uses_the_clock(self):
        middleware = PerPos()
        engine = middleware.enable_sharding(recipe, 2)
        assert middleware.sharding is engine
        assert engine.clock is middleware.clock
        assert (
            middleware.framework.registry.find_service(
                "perpos.ShardedEngine"
            )
            is engine
        )
        engine.track("t1", "src")
        engine.submit("t1", datum(1))
        engine.start(1.0)
        middleware.clock.run_until(2.0)
        assert engine.drained_total == 1
        previous = middleware.disable_sharding()
        assert previous is engine
        assert middleware.sharding is None

    def test_re_enabling_replaces_the_coordinator(self):
        middleware = PerPos()
        first = middleware.enable_sharding(recipe, 2)
        second = middleware.enable_sharding(recipe, 3)
        assert second is not first
        assert middleware.sharding is second
        middleware.disable_sharding()

    def test_registry_tracks_the_live_coordinator(self):
        # Re-enabling must re-register: a stale registration would hand
        # registry consumers the previous, now-closed coordinator.
        middleware = PerPos()
        registry = middleware.framework.registry
        first = middleware.enable_sharding(recipe, 2)
        second = middleware.enable_sharding(recipe, 3)
        assert registry.find_service("perpos.ShardedEngine") is second
        assert first is not second
        middleware.disable_sharding()
        assert registry.find_service("perpos.ShardedEngine") is None
        third = middleware.enable_sharding(recipe, 2)
        assert registry.find_service("perpos.ShardedEngine") is third
        middleware.disable_sharding()
        assert registry.find_service("perpos.ShardedEngine") is None

    def test_report_without_sharding(self):
        middleware = PerPos()
        assert infrastructure_snapshot(middleware)["sharding"] is None
        assert "(sharding disabled)" in render_report(middleware)

    def test_report_with_sharding(self):
        middleware = PerPos()
        engine = middleware.enable_sharding(recipe, 2)
        engine.track("t1", "src")
        engine.submit("t1", datum(1))
        engine.drain_all()
        text = render_report(middleware)
        assert "2 shards (inprocess)" in text
        assert "placement=ConsistentHashPlacement" in text
        assert "drained=1" in text
        middleware.disable_sharding()


class _ThreadWorker:
    """A ``Process`` stand-in running its target on a thread.

    The thread serves a duplicate of the child's pipe end, as a forked
    child would, so ``ProcessShard`` closing its own copy after
    ``start()`` leaves the worker's end open.
    """

    def __init__(self, target, args):
        self._target = target
        self._args = args
        self._thread = None
        self.exitcode = None

    def start(self):
        conn, *rest = self._args
        child = Connection(os.dup(conn.fileno()))
        self._thread = threading.Thread(
            target=self._run, args=(child, *rest), daemon=True
        )
        self._thread.start()

    def _run(self, *args):
        self._target(*args)
        self.exitcode = 0

    def is_alive(self):
        return self._thread.is_alive()

    def join(self, timeout=None):
        self._thread.join(timeout)


class ThreadContext:
    """An ``mp_context`` whose workers are threads over real pipes.

    Messages are still pickled both ways, so the worker loop and the
    ``ProcessShard`` transport run exactly as across processes.
    """

    Pipe = staticmethod(multiprocessing.Pipe)

    def __init__(self):
        self.workers = []

    def Process(self, target, args, daemon):
        worker = _ThreadWorker(target, args)
        self.workers.append(worker)
        return worker


def _workload(engine):
    """Every shard op and merged surface, as comparable plain data."""
    for t in range(6):
        engine.track(f"t{t}", "src", shard=t % 2)
    engine.track("idle", "src", shard=1)
    engine.set_policy("t0", capacity=4, weight=2)
    engine.submit("t0", datum(0))
    engine.submit_batch(
        [(f"t{t}", datum(i, t=float(i))) for t in range(6) for i in range(1, 4)]
    )
    engine.submit_batch([("t3", datum(-1)), ("t3", datum(-2))])
    moved = engine.migrate_target("t1", 0)["datums"]
    drained = [engine.drain_round()]
    engine.untrack("idle")
    engine.submit_batch([(f"t{t}", datum(9, t=9.0)) for t in range(6)])
    drained.append(engine.drain_all())
    return {
        "drained": drained,
        "moved": moved,
        "degraded": engine.degraded(),
        "sink_outputs": engine.sink_outputs(),
        "lanes": engine.ingestion_lanes(),
        "health": engine.component_health(),
        "stats": {
            name: {k: v for k, v in entry.items() if k != "latency"}
            for name, entry in engine.merged_component_stats().items()
        },
        "counters": engine.merged_metrics()["counters"],
        "engines": [entry["engine"] for entry in engine.snapshot()["per_shard"]],
    }


class TestWorkerLoopOnThreads:
    """The multiprocessing executor's worker loop, without processes."""

    def make(self, context, **kwargs):
        return ShardedEngine(
            recipe,
            2,
            executor="multiprocessing",
            mp_context=context,
            **kwargs,
        )

    def test_pipe_transport_matches_inprocess(self):
        policy = SupervisionPolicy(
            mode=QUARANTINE, failure_threshold=2, window_s=60.0
        )
        options = dict(observability=True, supervision=policy)
        with ShardedEngine(recipe, 2, **options) as engine:
            expected = _workload(engine)
        context = ThreadContext()
        with self.make(context, **options) as engine:
            assert [s.mode for s in engine.shards()] == ["multiprocessing"] * 2
            assert _workload(engine) == expected
        assert expected["health"]["stage"] == OPEN
        assert expected["moved"] == 3
        assert expected["counters"]
        assert [w.is_alive() for w in context.workers] == [False, False]
        assert [w.exitcode for w in context.workers] == [0, 0]

    def test_unknown_op_errors_and_the_worker_serves_on(self):
        context = ThreadContext()
        with self.make(context) as engine:
            shard = engine.shard(0)
            with pytest.raises(ShardRemoteError, match="unknown shard op"):
                shard._call("reboot")
            with pytest.raises(AttributeError):
                shard.reboot
            engine.track("t0", "src", shard=0)
            engine.submit("t0", datum(1))
            assert shard.snapshot()["pending"] == 1
            assert engine.drain_all() == 1
        assert not any(w.is_alive() for w in context.workers)

    def test_remote_failure_degrades_only_its_shard(self):
        with self.make(ThreadContext()) as engine:
            engine.track("bad", "src", shard=0)
            engine.track("good", "src", shard=1)
            engine.submit("bad", datum(-1))
            engine.submit("good", datum(1))
            assert engine.drain_all() == 1
            assert engine.degraded() == [0]
            assert engine.shard(0).error == "ValueError: crash on -1"
            assert engine.shard(0).snapshot()["pending"] == 0

    def test_build_error_is_reported_by_the_handshake(self):
        context = ThreadContext()
        with pytest.raises(ShardRemoteError, match="recipe must build"):
            ShardedEngine(
                lambda: 42, 1, executor="multiprocessing", mp_context=context
            )
        [worker] = context.workers
        worker.join(5)
        assert not worker.is_alive()


#: What ``lane_counters()`` returns per target (plus ``shard`` when sharded).
COUNTER_KEYS = (
    "capacity",
    "depth",
    "high_water",
    "rejected",
    "dropped_oldest",
    "dropped_newest",
    "coalesced",
)


def _projected(lanes):
    """Full lane stats cut down to the counter keys (and ``shard``)."""
    return {
        target: {
            key: stats[key]
            for key in COUNTER_KEYS + (("shard",) if "shard" in stats else ())
        }
        for target, stats in lanes.items()
    }


def _counter_checkpoints(engine, full_stats, sharded):
    """Drops, coalescing, ``block`` rejections, a drain, an untrack and
    (sharded) a migration, checking ``lane_counters()`` against the full
    lane stats after each; returns the number of checkpoints."""
    lanes = (
        ("old", 2, "drop_oldest"),
        ("new", 2, "drop_newest"),
        ("blk", 2, "block"),
        ("coal", 4, "coalesce"),
        ("gone", 8, "drop_oldest"),
        ("mover", 8, "drop_oldest"),
    )
    for n, (target, capacity, policy) in enumerate(lanes):
        pin = {"shard": n % 2} if sharded else {}
        engine.track(target, "src", capacity=capacity, policy=policy, **pin)
    checks = 0

    def check():
        nonlocal checks
        counters = engine.lane_counters()
        assert counters == _projected(full_stats())
        keys = set(COUNTER_KEYS) | ({"shard"} if sharded else set())
        assert all(set(record) == keys for record in counters.values())
        if sharded:
            depth = sum(record["depth"] for record in counters.values())
            assert engine.pending_total() == depth
        checks += 1
        return counters

    check()
    for i in range(5):
        for target, _capacity, _policy in lanes:
            engine.submit(target, datum(i, t=float(i)))
    counters = check()
    assert counters["old"]["dropped_oldest"] == 3
    assert counters["new"]["dropped_newest"] == 3
    assert counters["blk"]["rejected"] == 3
    assert counters["coal"]["coalesced"] == 4
    engine.drain_round()
    engine.set_policy("old", capacity=5)
    check()
    engine.untrack("gone")
    assert "gone" not in check()
    if sharded:
        assert engine.migrate_target("mover", 0)["datums"] > 0
        assert check()["mover"]["shard"] == 0
    engine.drain_all()
    assert all(record["depth"] == 0 for record in check().values())
    return checks


class TestLaneCounters:
    """``lane_counters()``: the narrow lane read the control view takes."""

    def test_positioning_engine(self):
        engine = PositioningEngine(recipe(), scheduler=RoundRobinScheduler(2))

        def full_stats():
            return {lane.target_id: lane.stats() for lane in engine.lanes()}

        assert _counter_checkpoints(engine, full_stats, sharded=False) == 5

    def test_inprocess_sharded_engine(self):
        with ShardedEngine(recipe, 2, scheduler=("round_robin", 2)) as engine:
            checks = _counter_checkpoints(engine, engine.ingestion_lanes, True)
        assert checks == 6

    def test_thread_piped_worker(self):
        context = ThreadContext()
        with ShardedEngine(
            recipe,
            2,
            executor="multiprocessing",
            mp_context=context,
            scheduler=("round_robin", 2),
        ) as engine:
            checks = _counter_checkpoints(engine, engine.ingestion_lanes, True)
        assert checks == 6
        assert not any(w.is_alive() for w in context.workers)

    def test_one_lane_counters_call_per_shard_and_no_snapshot(self):
        with ShardedEngine(recipe, 2) as engine:
            fill(engine, targets=4, per_target=2)
            calls = Counter()
            for shard in engine.shards():
                for op in ("snapshot", "lane_counters"):
                    method = getattr(shard, op)

                    def counted(*args, _op=op, _method=method, **kwargs):
                        calls[_op] += 1
                        return _method(*args, **kwargs)

                    setattr(shard, op, counted)
            assert len(engine.lane_counters()) == 4
            assert engine.pending_total() == 8
        assert calls == {"lane_counters": 4}


@pytest.mark.multiproc
class TestMultiprocessingExecutor:
    def test_roundtrip_matches_inprocess(self):
        results = {}
        for executor in ("inprocess", "multiprocessing"):
            with ShardedEngine(
                recipe,
                2,
                executor=executor,
                scheduler=("round_robin", 16),
            ) as engine:
                for t in range(6):
                    engine.track(f"t{t}", "src")
                engine.submit_batch(
                    [
                        (f"t{t}", datum(i, t=float(i)))
                        for t in range(6)
                        for i in range(5)
                    ]
                )
                assert engine.drain_all() == 30
                results[executor] = Counter(
                    (kind, payload, target)
                    for _s, kind, payload, target in (
                        engine.sink_outputs()
                    )
                )
        assert results["multiprocessing"] == results["inprocess"]

    def test_merged_surfaces_cross_the_process_boundary(self):
        with ShardedEngine(
            recipe, 2, executor="multiprocessing", observability=True
        ) as engine:
            for t in range(4):
                engine.track(f"t{t}", "src")
            engine.submit_batch(
                [(f"t{t}", datum(1)) for t in range(4)]
            )
            engine.drain_all()
            assert engine.merged_component_stats()["app"]["items_in"] == 4
            lanes = engine.ingestion_lanes()
            assert set(lanes) == {f"t{t}" for t in range(4)}
            snap = engine.snapshot()
            assert snap["executor"] == "multiprocessing"
            assert snap["pending"] == 0

    def test_remote_failure_degrades_only_its_shard(self):
        with ShardedEngine(
            recipe, 2, executor="multiprocessing"
        ) as engine:
            engine.track("bad", "src", shard=0)
            engine.track("good", "src", shard=1)
            engine.submit("bad", datum(-1))
            engine.submit("good", datum(1))
            assert engine.drain_all() == 1
            assert engine.degraded() == [0]
            assert "ValueError" in engine.shard(0).error
            # The worker survived its exception: still inspectable.
            assert engine.shard(0).snapshot()["pending"] == 0

    def test_set_policy_and_untrack_remotely(self):
        with ShardedEngine(
            recipe, 2, executor="multiprocessing"
        ) as engine:
            engine.track("t1", "src")
            stats = engine.set_policy("t1", weight=4)
            assert stats["weight"] == 4
            engine.untrack("t1")
            assert engine.ingestion_lanes() == {}

    def test_killed_worker_is_degraded_and_survivors_keep_draining(self):
        # A worker dying while idle must not leak BrokenPipeError out of
        # drain_round: the shard is degraded on the next round and the
        # survivors keep delivering.
        with ShardedEngine(
            recipe, 2, executor="multiprocessing"
        ) as engine:
            engine.track("dead", "src", shard=0)
            engine.track("live", "src", shard=1)
            shard = engine.shard(0)
            shard._process.terminate()
            shard._process.join(timeout=5)
            engine.submit("live", datum(1))
            assert engine.drain_round() == 1
            assert engine.degraded() == [0]
            assert "worker" in shard.error
            # The round after stays clean: the dead shard is skipped.
            engine.submit("live", datum(2))
            assert engine.drain_round() == 1
            assert engine.degraded() == [0]

    def test_close_with_abandoned_drain_exits_worker_cleanly(self):
        # close() after a begun-but-uncollected drain must resync the
        # pipe and complete the stop handshake -- exitcode 0 proves the
        # worker was not SIGTERMed after a 5s join timeout.
        engine = ShardedEngine(recipe, 1, executor="multiprocessing")
        engine.track("t1", "src")
        engine.submit("t1", datum(1))
        shard = engine.shard(0)
        shard.begin_drain("round", 1)  # abandoned: never finished
        engine.close()
        assert not shard._process.is_alive()
        assert shard._process.exitcode == 0


def test_single_shard_matches_plain_engine_exactly():
    """One shard, same scheduler: the coordinator adds no semantics."""
    graph = recipe()
    single = PositioningEngine(graph)
    for t in range(4):
        single.track(f"t{t}", "src")
    for i in range(6):
        for t in range(4):
            single.submit(f"t{t}", datum(i, t=float(i)))
    single.drain_all()
    sink = graph.component("app")
    single_outputs = Counter(
        (d.kind, d.payload, d.attributes.get("target"))
        for d in sink.received
    )

    with ShardedEngine(recipe, 1) as engine:
        for t in range(4):
            engine.track(f"t{t}", "src")
        for i in range(6):
            for t in range(4):
                engine.submit(f"t{t}", datum(i, t=float(i)))
        engine.drain_all()
        sharded_outputs = Counter(
            (kind, payload, target)
            for _s, kind, payload, target in engine.sink_outputs()
        )
    assert sharded_outputs == single_outputs


def test_engine_error_truncation_only_on_exhaustion():
    """EngineError from drain_all surfaces; clean drains reset the latch."""
    graph = recipe()
    engine = PositioningEngine(graph, scheduler=RoundRobinScheduler(1))
    engine.track("t1", "src")
    for i in range(4):
        engine.submit("t1", datum(i))
    with pytest.raises(EngineError):
        engine.drain_all(max_rounds=2)
    assert engine.last_drain_truncated
    assert engine.truncations == 1
    assert engine.snapshot()["last_drain_truncated"]
    engine.drain_all()
    assert not engine.last_drain_truncated
    assert engine.snapshot()["truncations"] == 1


class _AllToShard(PlacementPolicy):
    """Test policy: every target belongs on one fixed shard index."""

    def __init__(self, shard):
        self.shard = shard

    def place(self, target_id, shard_count):
        return self.shard


class TestRebalance:
    """Placement-driven ``rebalance`` sweeps (the controller's actuator)."""

    def test_sweep_follows_new_placement(self):
        with ShardedEngine(recipe, 3) as engine:
            submitted = fill(engine, targets=6, per_target=4, shard=0)
            assert engine.pending_total() == submitted
            moves = engine.rebalance(ModuloPlacement())
            expected_moves = sum(
                1 for t in range(6) if stable_hash(f"t{t}") % 3 != 0
            )
            assert len(moves) == expected_moves
            for record in moves:
                assert record["from"] == 0
                assert record["datums"] == 4
            for t in range(6):
                assert engine.shard_of(f"t{t}") == stable_hash(f"t{t}") % 3
            # Warm handoff: no queued datum was lost in the sweep.
            assert engine.pending_total() == submitted
            assert engine.drain_all() == submitted
            assert engine.migrations()[-len(moves) :] == moves

    def test_max_moves_bounds_the_sweep(self):
        with ShardedEngine(recipe, 3) as engine:
            fill(engine, targets=6, per_target=2, shard=0)
            moves = engine.rebalance(_AllToShard(1), max_moves=1)
            assert len(moves) == 1
            # The rest of the population is still where it was.
            moved = {record["target"] for record in moves}
            for t in range(6):
                expected = 1 if f"t{t}" in moved else 0
                assert engine.shard_of(f"t{t}") == expected

    def test_degraded_destination_is_skipped_not_failed(self):
        with ShardedEngine(recipe, 2) as engine:
            engine.track("boom", "src", shard=1)
            engine.submit("boom", datum(-1))
            engine.drain_all()
            assert engine.degraded() == [1]
            fill(engine, targets=4, per_target=2, shard=0)
            assert engine.rebalance(_AllToShard(1)) == []
            for t in range(4):
                assert engine.shard_of(f"t{t}") == 0

    def test_out_of_range_placement_raises(self):
        with ShardedEngine(recipe, 2) as engine:
            engine.track("t1", "src", shard=0)
            with pytest.raises(ShardingError):
                engine.rebalance(_AllToShard(5))

    def test_second_sweep_is_a_noop(self):
        with ShardedEngine(recipe, 3) as engine:
            fill(engine, targets=6, per_target=1, shard=0)
            moves = engine.rebalance(ModuloPlacement())
            assert moves
            # Completed moves pin their targets, so re-running the
            # (now pinned) current policy finds nothing left to do.
            assert isinstance(engine.placement, PinnedPlacement)
            assert engine.rebalance() == []

    def test_rebalance_under_concurrent_submits_loses_nothing(self):
        """The ISSUE-named regression: interleaving sweeps with live
        ingestion and partial drains must neither lose nor duplicate a
        single datum -- the sink multiset equals exactly what was
        submitted."""
        with ShardedEngine(
            recipe, 3, scheduler=("round_robin", 2)
        ) as engine:
            targets = [f"t{t}" for t in range(8)]
            for t in targets:
                engine.track(t, "src", shard=0, capacity=64)
            expected = Counter()
            submitted = 0
            drained = 0
            sequence = 0
            policies = (ModuloPlacement(), ConsistentHashPlacement())
            for round_no in range(12):
                for t in targets:
                    engine.submit(t, datum(sequence, t=float(sequence)))
                    expected[("x", sequence, t)] += 1
                    submitted += 1
                    sequence += 1
                engine.rebalance(policies[round_no % 2], max_moves=2)
                drained += engine.drain_round()
            drained += engine.drain_all()
            assert drained == submitted
            outputs = Counter(
                (kind, payload, target)
                for _sink, kind, payload, target in engine.sink_outputs()
            )
            assert outputs == expected


class TestMigrationCarriesTargetState:
    """A migrating lane takes its target's geofence inside/outside flags
    along, so the new shard neither re-raises an enter nor misses an
    exit -- sharded alerts equal the single engine's."""

    RULE = GeofenceRule("zone", 100.0, 100.0, 50.0, trigger="both")
    # outside, enter, (migrate) still inside, exit
    PATH = ((500.0, 0), (100.0, 1), (110.0, 2), (500.0, 3))

    @staticmethod
    def gps(x, tick):
        return Datum(GPS_KIND, (x, 100.0, 5.0), float(tick), attributes={"tick": tick})

    def single_alerts(self):
        graph = build_city_graph((self.RULE,))
        engine = PositioningEngine(graph)
        engine.track("t1", "city-src")
        for x, tick in self.PATH:
            engine.submit("t1", self.gps(x, tick))
        engine.drain_all()
        return [d.payload for d in graph.component("city-alerts").received]

    @staticmethod
    def sharded_alerts(engine):
        return [
            payload
            for sink, _kind, payload, _target in engine.sink_outputs()
            if sink == "city-alerts"
        ]

    @pytest.mark.parametrize(
        "executor",
        ["inprocess", pytest.param("multiprocessing", marks=pytest.mark.multiproc)],
    )
    def test_inside_target_migrates_without_spurious_alert(self, executor):
        recipe_with_rule = partial(build_city_graph, (self.RULE,))
        with ShardedEngine(recipe_with_rule, 2, executor=executor) as engine:
            engine.track("t1", "city-src", shard=0)
            for x, tick in self.PATH[:2]:
                engine.submit("t1", self.gps(x, tick))
            engine.drain_all()
            engine.migrate_target("t1", 1)
            engine.submit("t1", self.gps(*self.PATH[2]))
            engine.drain_all()
            assert self.sharded_alerts(engine) == [("zone", "t1", "enter", 1)]
            engine.submit("t1", self.gps(*self.PATH[3]))
            engine.drain_all()
            alerts = self.sharded_alerts(engine)
        assert alerts == [("zone", "t1", "enter", 1), ("zone", "t1", "exit", 3)]
        assert alerts == self.single_alerts()
