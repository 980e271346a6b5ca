"""E16 -- durable state: snapshot/restore cost and warm handoff pause.

The durability seam (PR "Durable state") must be cheap enough to run
*inside* a live middleware: full checkpoints while lanes are loaded,
crash-recovery restores that replay the post-snapshot journal, and
warm lane handoffs that pause one target's traffic only for the
export/install window.  Three claims are pinned:

* **Snapshot/restore scale with lane depth**: per pending-datum
  snapshot cost is flat across 64/512/2048-deep lanes, and the
  serialized size per datum (``bytes_per_datum``, a runner-independent
  figure) stays within the committed baseline's envelope (gated by
  ``check_regression.py`` in CI).
* **Crash recovery loses nothing**: every datum accepted before the
  simulated crash -- snapshotted *or* journaled after the snapshot --
  is pending again after restore and drains to the sink (``lost == 0``
  and ``replayed`` equal to the journaled entry count, both re-checked
  by the CI gate).
* **Bounded handoff pause**: migrating a loaded lane between shards
  relocates every pending datum (``lost == 0``) with a pause below
  ``PAUSE_CEILING_MS`` -- generous against noisy CI runners, but a
  hard ceiling: a handoff that stalls traffic for longer is a
  regression however fast the machine.

Regenerated series: per-depth snapshot/restore latency and size plus
the handoff record, machine-readable in
``benchmarks/results/BENCH_durability.json`` (gated by
``check_regression.py`` in CI).
"""

import time

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

DEPTHS = (64, 512, 2048)
N_TARGETS = 4
EXTRA = 32  # post-snapshot submits per lane (replayed from the journal)
GATED_DEPTH = "depth512"
PAUSE_CEILING_MS = 250.0
HANDOFF_DATUMS = 512


def build_graph():
    graph = ProcessingGraph()
    graph.add(SourceComponent("src", ("x",)))
    graph.add(FunctionComponent("f", ("x",), ("x",), fn=lambda d: d))
    graph.add(ApplicationSink("app", ("x",), keep_last=100_000))
    graph.connect("src", "f")
    graph.connect("f", "app")
    return graph


def loaded_engine(depth):
    """N_TARGETS lanes, each holding ``depth`` pending datums."""
    graph = build_graph()
    engine = PositioningEngine(graph)
    for t in range(N_TARGETS):
        engine.track(f"t{t}", "src", capacity=depth + EXTRA)
        for i in range(depth):
            engine.submit(f"t{t}", Datum("x", (t, i), float(i)))
    return graph, engine


def crash_recovery_cell(depth):
    """Snapshot a loaded engine, journal more traffic, crash, restore."""
    graph, engine = loaded_engine(depth)
    store = MemoryStateStore()
    manager = DurabilityManager(graph, store)
    manager.attach()

    start = time.perf_counter()
    summary = manager.checkpoint()
    snapshot_s = time.perf_counter() - start

    # Post-snapshot traffic lands in the journal only.
    for t in range(N_TARGETS):
        for i in range(EXTRA):
            engine.submit(f"t{t}", Datum("x", (t, depth + i), float(i)))
    total = N_TARGETS * (depth + EXTRA)
    assert engine.depth_total() == total
    del graph, engine  # the crash

    graph2 = build_graph()
    engine2 = PositioningEngine(graph2)
    start = time.perf_counter()
    replayed = restore_from_store(graph2, engine2, store)
    restore_s = time.perf_counter() - start

    lost = total - engine2.depth_total()
    drained = engine2.drain_all(max_rounds=100_000)
    assert drained == total
    assert len(graph2.component("app").received) == total
    return {
        "datums": total,
        "snapshot_ms": round(snapshot_s * 1000, 3),
        "restore_ms": round(restore_s * 1000, 3),
        "bytes": summary["bytes"],
        "bytes_per_datum": round(summary["bytes"] / (N_TARGETS * depth), 1),
        "replayed": replayed,
        "expected_replayed": N_TARGETS * EXTRA,
        "lost": lost,
    }


def handoff_cell():
    """Migrate a loaded lane between in-process shards, live."""
    engine = ShardedEngine(build_graph, 3)
    for t in range(8):
        engine.track(f"h{t}", "src", capacity=HANDOFF_DATUMS + 8)
    for i in range(HANDOFF_DATUMS):
        engine.submit("h0", Datum("x", i, float(i)))
    before = engine.pending_total()
    destination = (engine.shard_of("h0") + 1) % 3
    record = engine.migrate_target("h0", destination)
    lost = before - engine.pending_total()
    # The lane keeps accepting traffic on its new home.
    engine.submit("h0", Datum("x", "post-handoff", 0.0))
    drained = engine.drain_all()
    engine.close()
    assert drained == before + 1
    return {
        "datums": record["datums"],
        "pause_ms": round(record["pause_s"] * 1000, 3),
        "lost": lost,
        "migrations": 1,
    }


def test_e16_durability(benchmark, results_writer, bench_json_writer):
    def sweep():
        depths = {
            f"depth{depth}": crash_recovery_cell(depth) for depth in DEPTHS
        }
        return {"depths": depths, "handoff": handoff_cell()}

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    depths, handoff = result["depths"], result["handoff"]

    lines = [
        f"Durable state: {N_TARGETS} lanes checkpointed at depths"
        f" {DEPTHS}, {EXTRA} post-snapshot submits/lane replayed from"
        f" the journal; one {HANDOFF_DATUMS}-datum lane migrated"
        f" between in-process shards (pause ceiling"
        f" {PAUSE_CEILING_MS:g}ms)",
    ]
    for key, row in depths.items():
        lines.append(
            f"{key}: snapshot {row['snapshot_ms']:.1f}ms"
            f" ({row['bytes']:,}B, {row['bytes_per_datum']:.0f}B/datum),"
            f" restore {row['restore_ms']:.1f}ms"
            f" (replayed {row['replayed']}, lost {row['lost']})"
        )
    lines.append(
        f"handoff: {handoff['datums']} datums in"
        f" {handoff['pause_ms']:.2f}ms pause, lost {handoff['lost']}"
    )
    results_writer("E16_durability", "\n".join(lines))
    bench_json_writer(
        "durability",
        {
            "n_targets": N_TARGETS,
            "extra_per_lane": EXTRA,
            "gated_depth": GATED_DEPTH,
            "pause_ceiling_ms": PAUSE_CEILING_MS,
            "depths": depths,
            "handoff": handoff,
        },
        filename="BENCH_durability.json",
    )

    # The E16 gates: crash recovery is lossless at every depth, replay
    # covers exactly the journaled tail, and the handoff pause stays
    # under the ceiling with zero datum loss.
    for key, row in depths.items():
        assert row["lost"] == 0, f"{key}: lost {row['lost']} datums"
        assert row["replayed"] == row["expected_replayed"], (
            f"{key}: replayed {row['replayed']},"
            f" expected {row['expected_replayed']}"
        )
    assert handoff["lost"] == 0, f"handoff lost {handoff['lost']} datums"
    assert handoff["pause_ms"] <= PAUSE_CEILING_MS, (
        f"handoff pause {handoff['pause_ms']:.2f}ms exceeds the"
        f" {PAUSE_CEILING_MS:g}ms ceiling"
    )
