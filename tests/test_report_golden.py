"""The infrastructure report, pinned byte for byte.

Three deterministic middleware states -- every optional subsystem live
at once, in-process sharding after one warm handoff, and a bare
``PerPos()`` -- are rendered by :func:`render_report` and summarised by
:func:`infrastructure_snapshot`, and both are compared with the files
under ``tests/golden/``.  A change to how a section is rendered, or to
what a subsystem's snapshot holds, shows here as a diff.

Regenerate the files only when a report change is intended::

    PYTHONPATH=src python tests/test_report_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.core import Kind, PerPos, infrastructure_snapshot, render_report
from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.core.data import Datum
from repro.core.graph import ProcessingGraph
from repro.gateway import AutoTrackPolicy
from repro.runtime import PositioningEngine
from repro.runtime.scheduler import RoundRobinScheduler
from repro.scenario import (
    BurstEvent,
    CityConfig,
    CityGenerator,
    ControlLoop,
    ScenarioRunner,
    build_city_graph,
    default_controllers,
)

GOLDEN = Path(__file__).parent / "golden"

POS = Kind.POSITION_WGS84

#: Snapshot fields that are not a function of the state: a migration's
#: wall-clock pause, and the source line a failure was raised at.
VOLATILE = ("pause_s", "origin")


def _payload(device, **over):
    payload = {
        "source_format": "phone_tracker_v1",
        "device_id": device,
        "timestamp": 0.0,
        "lat": 55.676,
        "lon": 12.568,
        "accuracy_m": 5.0,
        "battery_pct": 0.8,
    }
    payload.update(over)
    return payload


def _fails_once():
    calls = []

    def fn(datum):
        calls.append(datum)
        if len(calls) == 1:
            raise RuntimeError("planted fault")
        return datum

    return fn


def composed():
    """Supervision, runtime, gateway, durability, scenario, control and
    observability, all live on one middleware."""
    middleware = PerPos()
    graph = middleware.graph
    graph.add(SourceComponent("src", (POS,)))
    graph.add(FunctionComponent("f", (POS,), (POS,), fn=_fails_once()))
    graph.add(ApplicationSink("sink", (POS,)))
    graph.connect("src", "f", "in")
    graph.connect("f", "sink", "in")
    middleware.enable_observability(tracing=False)
    middleware.enable_supervision()
    engine = middleware.enable_runtime()
    middleware.enable_durability(snapshot_every=50)
    gateway = middleware.enable_gateway(
        "src",
        device_policy=AutoTrackPolicy(capacity=2, policy="drop_newest"),
        rate_limit=3.0,
    )
    for device in ("d0", "d1", "d2"):
        for k in range(4):
            gateway.submit(_payload(device, timestamp=float(k)))
    gateway.submit(_payload("d0", lat=999.0))
    gateway.submit({"source_format": "no_such_format_v9"})
    gateway.forward()
    # Checkpoint before the planted fault, so the bytes written do not
    # depend on the line the fault is raised at.
    middleware.psl.snapshot()
    engine.drain_round()
    gateway.submit(_payload("d1", timestamp=5.0))
    gateway.forward()
    runner = ScenarioRunner(
        CityGenerator(
            CityConfig(
                seed=19,
                devices=20,
                churn_rate=0.0,
                zones=(),
                bursts=(
                    BurstEvent("rush", 5, 30, 1000.0, 1000.0, 5000.0, factor=8),
                ),
            )
        ),
        PositioningEngine(
            build_city_graph(), scheduler=RoundRobinScheduler(quantum=2)
        ),
        control=ControlLoop(default_controllers(max_capacity=64)),
        capacity=4,
    )
    runner.run(20)
    middleware.enable_scenario(runner)
    return middleware


def shard_recipe():
    """src -> double -> inc -> app: a two-member fusable chain."""
    graph = ProcessingGraph()
    graph.add(SourceComponent("src", ("x",)))
    graph.add(
        FunctionComponent(
            "double", ("x",), ("x",), fn=lambda d: d.with_payload(d.payload * 2)
        )
    )
    graph.add(
        FunctionComponent(
            "inc", ("x",), ("x",), fn=lambda d: d.with_payload(d.payload + 1)
        )
    )
    graph.add(ApplicationSink("app", ("x",)))
    graph.connect("src", "double")
    graph.connect("double", "inc")
    graph.connect("inc", "app")
    return graph


def sharded():
    """Two in-process shards, four targets, one warm handoff."""
    middleware = PerPos()
    engine = middleware.enable_sharding(shard_recipe, 2, executor="inprocess")
    for target in ("a", "b", "c", "d"):
        engine.track(target, "src")
        for i in range(3):
            engine.submit(target, Datum("x", i, float(i)))
    engine.migrate_target("a", 1 - engine.shard_of("a"))
    engine.drain_round()
    engine.submit("b", Datum("x", 7, 3.0))
    return middleware


def bare():
    return PerPos()


STATES = {"composed": composed, "sharded": sharded, "bare": bare}


def _steady(value):
    """``value`` as JSON would carry it, with the volatile fields masked."""
    if isinstance(value, dict):
        return {
            key: "<volatile>" if key in VOLATILE else _steady(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_steady(item) for item in value]
    return value


def _render(name):
    middleware = STATES[name]()
    try:
        text = render_report(middleware)
        snapshot = _steady(
            json.loads(json.dumps(infrastructure_snapshot(middleware)))
        )
    finally:
        middleware.disable_sharding()
    return text, snapshot


@pytest.mark.parametrize("name", sorted(STATES))
class TestGoldenReport:
    def test_report_text(self, name):
        text, _snapshot = _render(name)
        assert text == (GOLDEN / f"report_{name}.txt").read_text()

    def test_infrastructure_snapshot(self, name):
        _text, snapshot = _render(name)
        expected = json.loads((GOLDEN / f"snapshot_{name}.json").read_text())
        assert snapshot == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for state in sorted(STATES):
        text, snapshot = _render(state)
        (GOLDEN / f"report_{state}.txt").write_text(text)
        (GOLDEN / f"snapshot_{state}.json").write_text(
            json.dumps(snapshot, indent=1, sort_keys=True) + "\n"
        )
