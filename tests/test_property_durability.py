"""Property tests: crash recovery is observationally equivalent to an
uninterrupted run (hypothesis).

The pinned contract of the durability seam: for any schedule of
submits, drains, and policy changes, snapshotting at an arbitrary
point, "crashing" (discarding the live engine), and restoring into a
fresh graph must converge to the same observable state as the twin run
that never crashed -- the sink's delivered multiset, the pending lane
depths, and the engine's drain counters all agree.  Scheduler cursor
position is deliberately *not* pinned (replay re-plans rounds), which
is why the sink contract is a multiset, not a sequence.

A chaos-marked case crashes mid-stream with the journal carrying
partially drained rounds, and a migration case interleaves warm
handoffs with concurrent submits to pin the zero-datum-loss guarantee.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.core.data import Datum
from repro.core.graph import ProcessingGraph
from repro.durability import MemoryStateStore, restore_from_store
from repro.durability.manager import DurabilityManager
from repro.runtime import PositioningEngine, ShardedEngine
from repro.runtime.queues import DROP_NEWEST, DROP_OLDEST

TARGETS = ("t1", "t2", "t3")

#: One run is a schedule of journaled operations.
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.sampled_from(TARGETS),
            st.integers(min_value=0, max_value=99),
        ),
        st.tuples(st.just("drain"), st.just(None), st.just(None)),
        st.tuples(
            st.just("policy"),
            st.sampled_from(TARGETS),
            st.sampled_from((DROP_OLDEST, DROP_NEWEST, 2, 5)),
        ),
        st.tuples(st.just("untrack"), st.sampled_from(TARGETS), st.just(None)),
        st.tuples(st.just("track"), st.sampled_from(TARGETS), st.just(None)),
    ),
    min_size=1,
    max_size=40,
)


def build_graph():
    graph = ProcessingGraph()
    graph.add(SourceComponent("src", ("x",)))
    graph.add(FunctionComponent("f", ("x",), ("x",), fn=lambda d: d))
    graph.add(ApplicationSink("sink", ("x",), keep_last=10_000))
    graph.connect("src", "f", "in")
    graph.connect("f", "sink", "in")
    return graph


def fresh_engine():
    graph = build_graph()
    engine = PositioningEngine(graph)
    for target in TARGETS:
        engine.track(target, "src", capacity=4)
    return graph, engine


def apply(engine, op, tick):
    """Apply one schedule operation; invalid ones are skipped.

    Deterministic given (op, tick), which is what lets the crashed and
    uninterrupted runs be exact twins.
    """
    kind, target, arg = op
    try:
        if kind == "submit":
            engine.submit(target, Datum("x", arg, float(tick)))
        elif kind == "drain":
            engine.drain_round()
        elif kind == "policy":
            if isinstance(arg, int):
                engine.set_policy(target, capacity=arg)
            else:
                engine.set_policy(target, policy=arg)
        elif kind == "untrack":
            engine.untrack(target)
        else:
            engine.track(target, "src", capacity=4)
    except Exception:
        return


def observable(graph, engine):
    """The pinned observable state of one engine."""
    return {
        "sink": Counter(
            d.payload for d in graph.component("sink").received
        ),
        "depths": {
            lane.target_id: lane.queue.depth for lane in engine.lanes()
        },
        "tracked": sorted(lane.target_id for lane in engine.lanes()),
        "drained_total": engine.drained_total,
    }


@given(ops=operations, cut=st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_snapshot_crash_restore_equals_uninterrupted(ops, cut):
    cut = min(cut, len(ops))
    # Uninterrupted twin.
    graph_a, engine_a = fresh_engine()
    for tick, op in enumerate(ops):
        apply(engine_a, op, tick)
    engine_a.drain_all()

    # Crashed twin: journal everything, snapshot at the cut point,
    # crash (discard the live engine), restore into a fresh graph.
    graph_b, engine_b = fresh_engine()
    store = MemoryStateStore()
    manager = DurabilityManager(graph_b, store)
    manager.attach()
    for tick, op in enumerate(ops):
        if tick == cut:
            manager.checkpoint()
        apply(engine_b, op, tick)
    if cut == len(ops):
        manager.checkpoint()
    del graph_b, engine_b  # the crash

    graph_c = build_graph()
    engine_c = PositioningEngine(graph_c)
    restore_from_store(graph_c, engine_c, store)
    engine_c.drain_all()

    assert observable(graph_c, engine_c) == observable(graph_a, engine_a)


@given(ops=operations)
@settings(max_examples=30, deadline=None)
def test_hub_counters_survive_crash(ops):
    from repro.core.middleware import PerPos

    def middleware():
        pp = PerPos()
        pp.enable_observability(tracing=False)
        pp.graph.add(SourceComponent("src", ("x",)))
        pp.graph.add(ApplicationSink("sink", ("x",), keep_last=10_000))
        pp.graph.connect("src", "sink", "in")
        engine = pp.enable_runtime()
        for target in TARGETS:
            engine.track(target, "src", capacity=4)
        return pp, engine

    pp_a, engine_a = middleware()
    for tick, op in enumerate(ops):
        apply(engine_a, op, tick)

    pp_b, engine_b = middleware()
    manager = DurabilityManager(pp_b.graph, MemoryStateStore())
    manager.attach()
    for tick, op in enumerate(ops):
        apply(engine_b, op, tick)
    manager.checkpoint()

    pp_c, engine_c = middleware()
    restore_from_store(
        pp_c.graph, engine_c, manager.store, gateway=None
    )
    counters_a = pp_a.observability.registry.snapshot()["counters"]
    counters_c = pp_c.observability.registry.snapshot()["counters"]
    assert counters_c == counters_a


@pytest.mark.chaos
def test_mid_stream_crash_recovers_partial_rounds():
    """Crash with the journal holding post-snapshot submits AND drains:
    replay must reproduce the interleaving, not just the queue tails."""
    graph, engine = fresh_engine()
    store = MemoryStateStore()
    manager = DurabilityManager(graph, store)
    manager.attach()
    for i in range(6):
        engine.submit(TARGETS[i % 3], Datum("x", i, float(i)))
    manager.checkpoint()
    # Post-snapshot: more submits interleaved with partial drains.
    engine.submit("t1", Datum("x", 100, 6.0))
    engine.drain_round()
    engine.submit("t2", Datum("x", 101, 7.0))
    engine.drain_round()
    expected_sink = Counter(
        d.payload for d in graph.component("sink").received
    )
    expected_pending = engine.depth_total()
    del graph, engine  # the crash

    graph2 = build_graph()
    engine2 = PositioningEngine(graph2)
    replayed = restore_from_store(graph2, engine2, store)
    assert replayed == 4  # 2 submits + 2 drain rounds
    assert (
        Counter(d.payload for d in graph2.component("sink").received)
        == expected_sink
    )
    assert engine2.depth_total() == expected_pending


def shard_recipe():
    graph = ProcessingGraph()
    graph.add(SourceComponent("src", ("x",)))
    graph.add(ApplicationSink("app", ("x",), keep_last=10_000))
    graph.connect("src", "app")
    return graph


@given(
    moves=st.lists(
        st.tuples(
            st.sampled_from(("a", "b", "c", "d")),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=12,
    ),
    interleaved=st.lists(
        st.sampled_from(("a", "b", "c", "d")), min_size=0, max_size=20
    ),
)
@settings(max_examples=30, deadline=None)
def test_migration_under_concurrent_submits_loses_nothing(moves, interleaved):
    """Warm handoffs interleaved with live submits: every datum that a
    lane accepted is eventually delivered, wherever the lane ends up."""
    engine = ShardedEngine(shard_recipe, 3)
    accepted = 0
    for target in ("a", "b", "c", "d"):
        engine.track(target, "src")
        engine.submit(target, Datum("x", f"seed-{target}", 0.0))
        accepted += 1
    feed = iter(interleaved)
    for target, destination in moves:
        try:
            engine.migrate_target(target, destination)
        except Exception:
            pass  # same-shard / degraded moves are rejected cleanly
        extra = next(feed, None)
        if extra is not None:
            engine.submit(extra, Datum("x", f"live-{extra}", 1.0))
            accepted += 1
    assert engine.pending_total() == accepted
    assert engine.drain_all() == accepted
    delivered = sum(
        len(shard.engine.graph.component("app").received)
        for shard in engine._shards
    )
    assert delivered == accepted
    engine.close()
