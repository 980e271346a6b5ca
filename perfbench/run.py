#!/usr/bin/env python3
"""End-to-end benchmark of the PerPos reproduction.

Seeded, single-process, closed-loop workloads replay pre-generated
inputs through the real path and check every output:

``room_process``
    K targets on one ``PerPos``, each with its own Fig. 1 process.
``edge_sharded``
    Raw wire payloads -> ingestion gateway -> a two-shard in-process
    ``ShardedEngine`` -> city graph, with the backpressure and rebalance
    controllers stepping on the per-tick view.
``edge_single``
    The same traffic on one engine on the middleware graph.  Not in
    BENCHMARK.json (see ``WORKLOADS``); run by hand.

Usage, from the repository root::

    python3 perfbench/run.py --workload edge_sharded --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --workload room_process --spread 10 --seed 1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` replays the same inputs with spans around every layer's
entry points and reports per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` (inputs replayed),
``failed`` (inputs or outputs failing a check) and ``metrics``.
``--spread N`` runs the workload N times in fresh processes, on seeds
``seed .. seed+N-1``, and prints each metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: BENCHMARK.json names the measured workloads and each metric's unit; a
#: run reports exactly the metrics it declares.  ``edge_single`` is left
#: out of it so that the measured workloads get long enough runs within
#: the benchmark's time budget; it is run by hand, to tell a gateway
#: change (moves both edge workloads) from a sharding change (moves
#: edge_sharded only).
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"]) + ("edge_single",)

#: A run replays at least this many times, however short ``--seconds``.
MIN_REPLAYS = 5
MIN_TRACED = 3


def declared(traced: bool) -> Dict[str, str]:
    """Metric name -> unit for one mode, in BENCHMARK.json's order."""
    table = BENCHMARK["per_layer" if traced else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in table}


def _load_program() -> None:
    """Put this checkout's ``src`` first on the path; fail without it."""
    sys.path[:0] = [SRC, ROOT]
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(where) != SRC:
        raise SystemExit(f"perfbench: imported repro from {where}, not from {SRC}")


class Workload:
    """Inputs, the measured program, and the reference it is checked by."""

    def __init__(self, name: str, seed: int) -> None:
        from perfbench import inputs, programs

        self.name = name
        if name == "room_process":
            self.inputs: Any = inputs.room_inputs(seed)
            self.build: Callable[[], Any] = lambda: programs.RoomProgram(self.inputs)
            self.reference = lambda: programs.RoomProgram(
                self.inputs, interpreted=True
            )
        else:
            self.inputs = inputs.edge_inputs(seed)
            shards = programs.EDGE_SHARDS if name == "edge_sharded" else 0
            self.build = lambda: programs.EdgeProgram(self.inputs, shards=shards)
            # Both edge workloads are checked against one engine with
            # plan compilation off.
            self.reference = lambda: programs.EdgeProgram(
                self.inputs, interpreted=True
            )


def _setup(workload: Workload) -> Any:
    """One fresh build after a full collection; returns (program, s)."""
    gc.collect()
    started = time.perf_counter()
    program = workload.build()
    return program, time.perf_counter() - started


def _latencies(replay: Any) -> Dict[str, Any]:
    """Per output: seconds from its input's tick start, and ticks waited."""
    from perfbench.stats import percentile, supported

    starts = replay.starts
    latencies = []
    waits = []
    for arrived, _sink, datum in replay.deliveries:
        tick = int(datum.timestamp)
        latencies.append(arrived - starts[tick])
        waits.append(bisect.bisect_right(starts, arrived) - 1 - tick)
    latencies.sort()
    waits.sort()
    n = len(latencies)
    if not supported(n, 99.0):
        raise SystemExit(f"perfbench: {n} outputs cannot support a p99")
    return {
        "n": n,
        "latency_p50_ms": percentile(latencies, 50.0) * 1e3,
        "latency_p99_ms": percentile(latencies, 99.0) * 1e3,
        "wait_ticks_p99": percentile(waits, 99.0),
    }


def _score(workload: Workload, replay: Any, reference_rows: Any) -> Dict[str, Any]:
    from perfbench import checks

    counts = replay.counts
    failed, problems = checks.check(counts, replay.rows(), reference_rows)
    for problem in problems:
        print(f"CHECK FAILED [{workload.name}]: {problem}", file=sys.stderr)
    return {
        "throughput_dps": counts["inputs"] / replay.wall_s,
        "refused_ratio": checks.refused(counts) / counts["inputs"],
        "failed": failed,
        **_latencies(replay),
    }


def _reference(workload: Workload) -> Any:
    """Replay the interpreted reference (untimed); returns its rows."""
    from perfbench import checks

    replay = workload.reference().replay(workload.inputs)
    rows = replay.rows()
    failed, problems = checks.check(replay.counts, rows, rows)
    for problem in problems:
        print(f"CHECK FAILED [reference]: {problem}", file=sys.stderr)
    return rows, failed


def measure(workload: Workload, seconds: float) -> Dict[str, Any]:
    """Untraced replays for ``seconds``; end-to-end metrics as medians."""
    from perfbench import checks, stats

    # The reference replay also warms caches and lazy imports.
    reference_rows, failed = _reference(workload)
    runs: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_REPLAYS or time.perf_counter() < deadline:
        program, setup = _setup(workload)
        replay = program.replay(workload.inputs)
        score = _score(workload, replay, reference_rows)
        score["setup_s"] = setup
        if not runs:
            score["digest"] = checks.digest(replay.rows())
        runs.append(score)
        del program, replay
    failed += sum(run["failed"] for run in runs)
    keys = ("throughput_dps", "latency_p50_ms", "latency_p99_ms", "setup_s")
    metrics = stats.medians(runs, keys + ("refused_ratio",))
    refused = metrics.pop("refused_ratio")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["admitted_ratio"] = 1.0 - refused
    attempted = workload.inputs.count * (len(runs) + 1)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "replays": len(runs),
        "outputs": runs[0]["n"],
        "digest": runs[0]["digest"],
        "refused_ratio": refused,
    }


# -- the traced run ---------------------------------------------------------------


class GcWatch:
    """Counts collections and their pauses through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, _info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._started

    def reset(self) -> None:
        self.collections = 0
        self.pause_s = 0.0

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)


def _layer_metrics(
    program: Any, replay: Any, aggregate: Dict[str, Any]
) -> Dict[str, float]:
    """The per-layer metrics of one traced replay."""
    from perfbench.spans import LAYERS, ROLES

    groups = aggregate["groups"]
    counts = replay.counts

    def self_s(*names: str) -> float:
        return sum(
            entry[2] for (_layer, group), entry in groups.items() if group in names
        )

    wall = aggregate["wall"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        entries = [entry for (owner, _g), entry in groups.items() if owner == layer]
        layer_self = sum(entry[2] for entry in entries)
        metrics[f"layer.{layer}.calls"] = sum(entry[0] for entry in entries)
        metrics[f"layer.{layer}.items"] = sum(entry[1] for entry in entries)
        metrics[f"layer.{layer}.self_s"] = layer_self
        metrics[f"layer.{layer}.share"] = layer_self / wall
    submitted = counts["inputs"]
    metrics["gateway.submit_self_s"] = self_s("gateway.submit")
    metrics["gateway.forward_self_s"] = self_s("gateway.forward")
    metrics["gateway.accept_ratio"] = counts.get("accepted", 0) / submitted
    metrics["gateway.rejected"] = counts["rejected"]
    metrics["runtime.submit_self_s"] = self_s("runtime.submit")
    metrics["runtime.drain_self_s"] = self_s("runtime.drain")
    metrics["runtime.churn_self_s"] = self_s("runtime.churn")
    metrics["runtime.batch_mean"] = counts["drained"] / max(1, counts["batches"])
    metrics["runtime.wait_ticks_p99"] = _latencies(replay)["wait_ticks_p99"]
    metrics["runtime.dropped"] = counts["dropped"]
    metrics["sharding.coord_self_s"] = self_s("sharding.coord")
    metrics["sharding.merge_self_s"] = self_s("sharding.merge")
    metrics["sharding.handle_self_s"] = self_s("sharding.handle")
    drained = [engine.drained_total for engine in program.engines()]
    metrics["sharding.skew"] = (
        max(drained) / (sum(drained) / len(drained))
        if program.sharded and sum(drained)
        else 0.0
    )
    metrics["sharding.migrations"] = counts.get("migrations", 0)
    metrics["graph.route_self_s"] = self_s("graph.route")
    metrics["graph.fused_chains"] = sum(
        len(graph.plan_snapshot()["chains"]) for graph in program.graphs()
    )
    metrics["components.self_s"] = metrics["layer.components.self_s"]
    for role in sorted(set(ROLES.values())):
        metrics[f"components.{role}.self_s"] = self_s(f"components.{role}")
    metrics["components.outputs_per_input"] = counts["delivered"] / max(
        1, counts["drained"]
    )
    metrics["pcl.self_s"] = metrics["layer.pcl.self_s"]
    metrics["pcl.events"] = metrics["layer.pcl.calls"]
    metrics["hub.self_s"] = metrics["layer.hub.self_s"]
    metrics["sink.delivered"] = len(replay.deliveries)
    metrics["sink.self_s"] = metrics["layer.sink.self_s"]
    metrics["control.view_self_s"] = self_s("control.view")
    metrics["control.step_self_s"] = self_s("control.step")
    metrics["control.decisions"] = counts.get("decisions", 0)
    metrics["trace.unattributed_share"] = aggregate["root_self"] / wall
    return metrics


def trace(workload: Workload, seconds: float, seed: int) -> Dict[str, Any]:
    """Alternate untraced and traced replays; per-layer metrics as medians."""
    from perfbench.spans import IpcCounter, Tracer, instrument
    from perfbench.stats import medians

    reference_rows, failed = _reference(workload)
    watch = GcWatch()
    untraced: List[Dict[str, float]] = []
    traced: List[Dict[str, float]] = []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    try:
        while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
            program, _ = _setup(workload)
            watch.reset()
            replay = program.replay(workload.inputs)
            # Read before scoring, whose allocations collect too.
            row = {"gc_collections": watch.collections, "gc_pause_s": watch.pause_s}
            score = _score(workload, replay, reference_rows)
            failed += score["failed"]
            row["throughput_dps"] = score["throughput_dps"]
            untraced.append(row)
            del program, replay
            program, _ = _setup(workload)
            instrument(program, tracer)
            tracer.begin()
            replay = program.replay(workload.inputs, on_tick=tracer.set_tick)
            tracer.finish()
            score = _score(workload, replay, reference_rows)
            failed += score["failed"]
            layer = _layer_metrics(program, replay, tracer.aggregate())
            layer["throughput_dps"] = score["throughput_dps"]
            traced.append(layer)
            del program, replay
    finally:
        watch.close()
    metrics = medians(traced)
    plain = medians(untraced)
    metrics["python.gc_collections"] = plain["gc_collections"]
    metrics["python.gc_pause_s"] = plain["gc_pause_s"]
    metrics["trace.overhead_ratio"] = plain["throughput_dps"] / metrics.pop(
        "throughput_dps"
    )
    metrics["sharding.shard_calls_per_tick"] = 0.0
    metrics["sharding.ipc_bytes_per_datum"] = 0.0
    if workload.name == "edge_sharded":
        program, _ = _setup(workload)
        counter = IpcCounter()
        counter.attach(program.engine)
        replay = program.replay(workload.inputs)
        metrics["sharding.shard_calls_per_tick"] = (
            counter.round_trips / replay.counts["ticks"]
        )
        metrics["sharding.ipc_bytes_per_datum"] = (
            counter.bytes / replay.counts["inputs"]
        )
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"spans-{workload.name}-{seed}.csv.gz"))
    attempted = workload.inputs.count * (len(untraced) + len(traced) + 1)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "replays": len(traced),
    }


# -- reporting -----------------------------------------------------------------


def _run_one(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    from perfbench.programs import EDGE_SHARDS

    workload = Workload(name, seed)
    if traced:
        result = trace(workload, seconds, seed)
        for key, value in sorted(result["metrics"].items()):
            print(f"{name}  {key} = {value:.6g}")
        print(
            f"{name}  note: fused chains bypass receive(); members of a fused"
            " chain report under the chain head"
        )
        print(f"{name}  spans written to .perfbench/spans-{name}-{seed}.csv.gz")
        metrics = result["metrics"]
    else:
        result = measure(workload, seconds)
        metrics = result["metrics"]
        shards = f", {EDGE_SHARDS} shards" if name == "edge_sharded" else ""
        print(
            f"{name}  seed={seed} replays={result['replays']}"
            f" inputs/replay={workload.inputs.count}{shards}"
            f" outputs/replay={result['outputs']} digest={result['digest']}"
        )
        for key, unit in declared(False).items():
            extra = ""
            if key.startswith("latency"):
                extra = (
                    f" (n={result['outputs']} per replay,"
                    f" median of {result['replays']})"
                )
            print(f"{name}  {key} = {metrics[key]:.6g} {unit}{extra}")
        print(f"{name}  refused_ratio = {result['refused_ratio']:.6g} fraction")
        error_rate = result["failed"] / result["attempted"]
        print(f"{name}  error_rate = {error_rate:.6g} fraction")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _with_units(metrics: Dict[str, float], traced: bool) -> Dict[str, Any]:
    units = declared(traced)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: declared metrics not measured: {missing}")
    return {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}


def _child(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """Run one workload in a fresh process; returns its result line."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "1" if traced else "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {' '.join(command)} exited {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def _spread(name: str, seed: int, seconds: float, traced: bool, runs: int) -> int:
    from perfbench.stats import spread

    results = [_child(name, seed + k, seconds, traced) for k in range(runs)]
    print(f"spread over {runs} runs of {name}, seeds {seed}..{seed + runs - 1}:")
    for key in results[0]["metrics"]:
        values = [result["metrics"][key]["value"] for result in results]
        row = spread(values)
        print(
            f"  {key:32s} median={row['median']:.6g} q1={row['q1']:.6g}"
            f" q3={row['q3']:.6g} iqr/median={row['iqr_share']:.4f}"
        )
    return 0 if all(result["correct"] for result in results) else 1


def _pin_hash_seed() -> None:
    """Re-exec under ``PYTHONHASHSEED=0`` unless already there.

    Set iteration order feeds floating-point sums in the fingerprint
    matcher, so only a fixed hash seed makes a seed's outputs, and its
    digest, repeat exactly from process to process.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        script = os.path.abspath(__file__)
        os.execve(sys.executable, [sys.executable, script] + sys.argv[1:], env)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spread",
        type=int,
        default=0,
        metavar="N",
        help="run the workload N times in fresh processes and report spread",
    )
    args = parser.parse_args(argv)
    _load_program()
    traced = bool(args.trace)
    if args.spread:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        status = 0
        for name in names:
            status |= _spread(name, args.seed, args.seconds, traced, args.spread)
        return status
    if args.workload == "all":
        results = {
            name: _child(name, args.seed, args.seconds, traced) for name in WORKLOADS
        }
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": value
                for name, result in results.items()
                for key, value in result["metrics"].items()
            },
        }
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    result = _run_one(args.workload, args.seed, args.seconds, traced)
    result["metrics"] = _with_units(result["metrics"], traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
