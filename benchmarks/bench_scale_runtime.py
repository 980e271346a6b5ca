"""E12 -- multi-target scale-out (the issue's multi-target load benchmark).

The paper defers "scalability" to future work; the scale-out runtime
(``repro.runtime``) is this reproduction's answer, and this benchmark
measures its central claim: batched dispatch amortises routing-table
resolution and per-datum interpreter overhead, so draining many tracked
targets through a shared pipeline in batches beats draining the same
workload datum-by-datum.

Workload: T targets share one src -> stage1 -> stage2 -> app pipeline,
each behind its own ingestion lane.  Every lane is pre-filled with the
same number of datums, then a round-robin scheduler with quantum B
drains everything.  All T lanes enter at one source, so each round
crosses the graph as one batch of up to T x B datums.  Each speedup
divides by the single-datum path timed in the same run: the same
datums, in the same round-robin order, each through
``SourceComponent.inject`` -- within one run, on one machine, which
keeps the figure runner-independent.

Regenerated series: datums/s per (targets, batch) cell plus the batch
speedup over single-datum, machine-readable in
``benchmarks/results/BENCH_scale.json`` (gated by
``check_regression.py`` in CI).

Shape assertions: the 64-target batched drain is at least 2x the
single-datum path, and no cell of the sweep falls below 0.9x of it.
"""

import time

from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.core.data import Datum
from repro.core.graph import ProcessingGraph
from repro.runtime import PositioningEngine, RoundRobinScheduler

N_DATUMS_PER_TARGET = 100
TARGET_COUNTS = (8, 64)
BATCH_SIZES = (1, 8, 32)
SPEEDUP_FLOOR = 2.0
GATED_WORKLOAD = "targets64_batch32"


def build_pipeline():
    graph = ProcessingGraph()
    source = SourceComponent("src", ("x",))
    stage1 = FunctionComponent("stage1", ("x",), ("x",), fn=lambda d: d)
    stage2 = FunctionComponent("stage2", ("x",), ("x",), fn=lambda d: d)
    sink = ApplicationSink("app", ("x",), keep_last=8)
    for component in (source, stage1, stage2, sink):
        graph.add(component)
    graph.connect("src", "stage1")
    graph.connect("stage1", "stage2")
    graph.connect("stage2", "app")
    return graph


def single_datum_rate(targets, rounds=3):
    """Best-of-``rounds`` datums/s injecting the drain's datums one by one."""
    best = 0.0
    for _ in range(rounds):
        source = build_pipeline().component("src")
        datums = [
            Datum("x", i, float(i))
            for i in range(N_DATUMS_PER_TARGET)
            for _t in range(targets)
        ]
        start = time.perf_counter()
        for datum in datums:
            source.inject(datum)
        elapsed = time.perf_counter() - start
        best = max(best, len(datums) / elapsed)
    return best


def drain_rate(targets, batch, rounds=3):
    """Best-of-``rounds`` datums/s for one (targets, batch) cell."""
    best = 0.0
    for _ in range(rounds):
        graph = build_pipeline()
        engine = PositioningEngine(
            graph,
            scheduler=RoundRobinScheduler(quantum=batch),
            stamp_targets=False,
        )
        for t in range(targets):
            engine.track(f"t{t}", "src", capacity=N_DATUMS_PER_TARGET)
        for i in range(N_DATUMS_PER_TARGET):
            for t in range(targets):
                engine.submit(f"t{t}", Datum("x", i, float(i)))
        n = targets * N_DATUMS_PER_TARGET
        start = time.perf_counter()
        drained = engine.drain_all(max_rounds=n + 1)
        elapsed = time.perf_counter() - start
        assert drained == n
        best = max(best, n / elapsed)
    return best


def test_e12_scale_runtime(benchmark, results_writer, bench_json_writer):
    def sweep():
        workloads = {}
        for targets in TARGET_COUNTS:
            single_rate = single_datum_rate(targets)
            for batch in BATCH_SIZES:
                rate = drain_rate(targets, batch)
                workloads[f"targets{targets}_batch{batch}"] = {
                    "targets": targets,
                    "batch": batch,
                    "single_rate": round(single_rate, 1),
                    "batch_rate": round(rate, 1),
                    "speedup": round(rate / single_rate, 3),
                }
        return workloads

    workloads = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        "Multi-target scale-out: shared 4-component pipeline,"
        f" {N_DATUMS_PER_TARGET} datums/target,"
        " round-robin drain (batch = scheduler quantum)",
    ]
    for key, row in workloads.items():
        lines.append(
            f"{key}: {row['batch_rate']:,.0f} datums/s"
            f" ({row['speedup']:.2f}x vs single-datum)"
        )
    results_writer("E12_scale_runtime", "\n".join(lines))
    bench_json_writer(
        "scale",
        {
            "n_datums_per_target": N_DATUMS_PER_TARGET,
            "speedup_floor": SPEEDUP_FLOOR,
            "gated_workload": GATED_WORKLOAD,
            "workloads": workloads,
        },
        filename="BENCH_scale.json",
    )

    gated = workloads[GATED_WORKLOAD]
    assert gated["speedup"] >= SPEEDUP_FLOOR, (
        f"batched dispatch speedup {gated['speedup']:.2f}x below"
        f" the {SPEEDUP_FLOOR}x floor on the 64-target workload"
    )
    # Batching must not *lose* throughput anywhere in the sweep.
    for key, row in workloads.items():
        assert row["speedup"] >= 0.9, f"{key} slower than single-datum"
