"""One batch per run of same-source lanes: the engine's drain round.

Consecutive planned lanes that enter the graph at the same source cross
it in one ``inject_batch``; lanes of another source break the run.  The
per-lane counts (``batches``, ``queue.drained``, the journal's lane
counts) are those of injecting lane by lane, and the failure unit is
the run in flight.
"""

import pytest

from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.core.data import Datum
from repro.core.graph import ProcessingGraph
from repro.robustness.supervision import SupervisionPolicy, Supervisor
from repro.runtime import PositioningEngine, RoundRobinScheduler


class Boom(Exception):
    pass


def fail_on(payloads):
    def fn(datum):
        if datum.payload in payloads:
            raise Boom(datum.payload)
        return datum

    return fn


def build(sources=("a", "b"), fn=lambda d: d):
    """Each source -> its own stage -> one shared sink."""
    graph = ProcessingGraph()
    graph.add(ApplicationSink("sink", ("x",)))
    for name in sources:
        graph.add(SourceComponent(name, ("x",)))
        graph.add(FunctionComponent(f"{name}-f", ("x",), ("x",), fn=fn))
        graph.connect(name, f"{name}-f")
        graph.connect(f"{name}-f", "sink")
    return graph


def spy_injections(graph, sources=("a", "b")):
    """Record each ``inject_batch`` as (source, payloads)."""
    calls = []
    for name in sources:
        source = graph.component(name)
        inject = source.inject_batch

        def spy(datums, name=name, inject=inject):
            calls.append((name, [d.payload for d in datums]))
            inject(datums)

        source.inject_batch = spy
    return calls


def engine_with_lanes(graph, layout, per_lane=2, quantum=8):
    """One lane per ``(target, source)`` in ``layout``, in that order,
    each holding ``per_lane`` datums whose payloads name the lane."""
    engine = PositioningEngine(
        graph, scheduler=RoundRobinScheduler(quantum=quantum), stamp_targets=False
    )
    for target, source in layout:
        engine.track(target, source)
        for index in range(per_lane):
            engine.submit(target, Datum("x", f"{target}{index}", 0.0))
    return engine


def sink_payloads(graph):
    return [d.payload for d in graph.component("sink").received]


class FakeJournal:
    def __init__(self):
        self.drains = []

    def record_drain(self, lane_counts):
        self.drains.append(list(lane_counts))


class TestRuns:
    def test_consecutive_lanes_of_one_source_cross_in_one_batch(self):
        graph = build()
        calls = spy_injections(graph)
        engine = engine_with_lanes(
            graph, [("t1", "a"), ("t2", "a"), ("t3", "b"), ("t4", "b")]
        )
        assert engine.drain_round() == 8
        assert calls == [
            ("a", ["t10", "t11", "t20", "t21"]),
            ("b", ["t30", "t31", "t40", "t41"]),
        ]
        assert sink_payloads(graph) == [c for _s, batch in calls for c in batch]

    def test_alternating_sources_inject_lane_by_lane(self):
        graph = build()
        calls = spy_injections(graph)
        engine = engine_with_lanes(
            graph, [("t1", "a"), ("t2", "b"), ("t3", "a"), ("t4", "b")]
        )
        engine.drain_round()
        assert [source for source, _ in calls] == ["a", "b", "a", "b"]
        assert [len(batch) for _, batch in calls] == [2, 2, 2, 2]

    def test_an_empty_lane_does_not_break_a_run(self):
        graph = build()
        calls = spy_injections(graph)
        engine = engine_with_lanes(graph, [("t1", "a"), ("t2", "a"), ("t3", "a")])
        engine.lane("t2").queue.drain()
        engine.drain_round()
        assert calls == [("a", ["t10", "t11", "t30", "t31"])]
        assert engine.lane("t2").batches == 0

    def test_per_lane_counts_are_those_of_lane_by_lane_injection(self):
        graph = build()
        engine = engine_with_lanes(
            graph, [("t1", "a"), ("t2", "a"), ("t3", "b")], per_lane=5, quantum=2
        )
        journal = engine.journal = FakeJournal()
        assert engine.drain_round() == 6
        assert [lane.batches for lane in engine.lanes()] == [1, 1, 1]
        assert [lane.queue.drained for lane in engine.lanes()] == [2, 2, 2]
        assert journal.drains == [[("t1", 2), ("t2", 2), ("t3", 2)]]
        # The round-robin cursor moved on: the next round starts at t2.
        engine.drain_round()
        assert journal.drains[-1] == [("t2", 2), ("t3", 2), ("t1", 2)]
        assert engine.drained_total == sum(
            lane.queue.drained for lane in engine.lanes()
        )

    def test_replay_round_takes_the_same_runs(self):
        graph = build()
        calls = spy_injections(graph)
        engine = engine_with_lanes(graph, [("t1", "a"), ("t2", "a"), ("t3", "b")])
        assert engine.replay_round([("t2", 1), ("t1", 2), ("gone", 4), ("t3", 1)]) == 4
        assert calls == [("a", ["t20", "t10", "t11"]), ("b", ["t30"])]


class TestFailureUnit:
    """Without a supervisor an error loses the run in flight; lanes the
    round has not reached stay queued; the totals count what left."""

    def test_a_raising_run_is_lost_and_later_lanes_stay_queued(self):
        graph = build(fn=fail_on({"t20"}))
        calls = spy_injections(graph)
        engine = engine_with_lanes(
            graph, [("t1", "a"), ("t2", "a"), ("t3", "b"), ("t4", "a")]
        )
        with pytest.raises(Boom):
            engine.drain_round()
        # The run t1 + t2 crossed as one batch and died at t20; t3 and
        # t4 were never reached.
        assert calls == [("a", ["t10", "t11", "t20", "t21"])]
        assert [lane.queue.depth for lane in engine.lanes()] == [0, 0, 2, 2]
        assert engine.rounds == 1
        assert engine.drained_total == 4
        assert engine.drained_total == sum(
            lane.queue.drained for lane in engine.lanes()
        )
        assert sink_payloads(graph) == []
        # The next round picks up where the failed one stopped.
        graph.component("a-f")._fn = lambda d: d
        engine.drain_all()
        assert sorted(sink_payloads(graph)) == ["t30", "t31", "t40", "t41"]
        assert engine.drained_total == 8

    def test_supervised_coalesced_round_loses_only_the_failing_datum(self):
        graph = build(fn=fail_on({"t21"}))
        supervisor = Supervisor(SupervisionPolicy(failure_threshold=100))
        graph.set_supervisor(supervisor)
        calls = spy_injections(graph)
        engine = engine_with_lanes(
            graph, [("t1", "a"), ("t2", "a"), ("t3", "a"), ("t4", "b")]
        )
        assert engine.drain_round() == 8
        assert [len(batch) for _, batch in calls] == [6, 2]
        assert sink_payloads(graph) == ["t10", "t11", "t20", "t30", "t31", "t40", "t41"]
        assert supervisor.failure_count("a-f") == 1
        assert engine.drained_total == 8
