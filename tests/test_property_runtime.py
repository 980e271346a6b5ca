"""Property tests: batched dispatch is observationally equivalent to
per-datum routing (hypothesis).

``route_batch`` amortises routing-table resolution over a batch and
moves the batch stage-by-stage (breadth-first within each route), where
per-datum ``produce`` recurses depth-first.  The pinned contract is
therefore *multiset* equivalence: for any graph reached purely through
public mutations and any batch, every (consumer, port, kind, payload)
delivery happens exactly as often either way -- only the interleaving
across datums of one batch may differ.  With tracing enabled the batch
path falls back to per-datum delivery, so each datum's recorded flow
trace must match the per-datum run *exactly*, not just as a multiset.

The graphs mix stock ``FunctionComponent``s, whose ``process`` returns
its results, with per-datum components whose ``process`` calls
``produce`` once or twice: the one consume body serves both.  A
subscribed graph observer that takes per-datum events makes every
hand-off a batch of one, so the batch path proper is pinned without
one, by wrapping each component's consume body instead.

The engine's drain round injects one batch per run of consecutive
lanes that share a source; it must give what injecting lane by lane
gives: sink multisets, per-lane FIFO order, lane counters, journaled
lane counts, and the replay of that journal.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    InputPort,
    OutputPort,
    ProcessingComponent,
    SourceComponent,
)
from repro.core.data import Datum
from repro.core.graph import GraphError, GraphObserver, ProcessingGraph
from repro.observability.instrumentation import ObservabilityHub
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import trace_of
from repro.runtime import PositioningEngine, RoundRobinScheduler
from tests.test_runtime_rounds import FakeJournal

NAMES = ("c0", "c1", "c2", "c3", "c4", "c5")
KINDS = ("x", "y")

kind_sets = st.lists(
    st.sampled_from(KINDS), min_size=1, max_size=2, unique=True
).map(tuple)

operations = st.lists(
    st.one_of(
        # The last field: 0 builds a FunctionComponent, 1 or 2 a
        # per-datum component producing each datum that many times.
        st.tuples(
            st.just("add"), st.sampled_from(NAMES), kind_sets, st.integers(0, 2)
        ),
        st.tuples(
            st.just("remove"), st.sampled_from(NAMES), st.booleans()
        ),
        st.tuples(
            st.just("connect"),
            st.sampled_from(NAMES),
            st.sampled_from(NAMES),
        ),
        st.tuples(
            st.just("disconnect"),
            st.sampled_from(NAMES),
            st.sampled_from(NAMES),
        ),
    ),
    min_size=1,
    max_size=30,
)

batch_shape = st.lists(st.sampled_from(KINDS), min_size=1, max_size=6)


class Repeater(ProcessingComponent):
    """A per-datum component: ``process`` calls ``produce`` ``times``
    times, so its outputs leave one at a time."""

    def __init__(self, name, kinds, times):
        super().__init__(name, (InputPort("in", kinds),), OutputPort(kinds))
        self.times = times

    def process(self, port_name, datum):
        for _ in range(self.times):
            self.produce(datum)


def apply_operations(graph, ops):
    """Apply ``ops`` to ``graph``, skipping invalid ones.

    Deterministic given ``ops``: the same sequence yields the same
    topology, which is what lets two graphs be built as exact twins.
    """
    for op in ops:
        try:
            if op[0] == "add":
                _, name, kinds, times = op
                if times:
                    graph.add(Repeater(name, kinds, times))
                else:
                    graph.add(FunctionComponent(name, kinds, kinds, fn=lambda d: d))
            elif op[0] == "remove":
                _, name, reconnect = op
                graph.remove(name, reconnect=reconnect)
            elif op[0] == "connect":
                graph.connect(op[1], op[2])
            else:
                graph.disconnect(op[1], op[2])
        except GraphError:
            continue
    return graph


class Recorder(GraphObserver):
    def __init__(self):
        self.events = []
        self.datums = []

    def data_consumed(self, component, port_name, datum):
        self.events.append((component.name, port_name, datum.kind, datum.payload))
        self.datums.append((component.name, datum))


def make_batch(shape, start, component):
    """Unique-payload datums following ``shape``, restricted to kinds
    the producing component is able to emit."""
    capabilities = component.output_port.capabilities
    return [
        Datum(kind, start + index, 0.0)
        for index, kind in enumerate(shape)
        if kind in capabilities
    ]


def run_per_datum(graph, producer, batch):
    recorder = Recorder()
    unsubscribe = graph.add_observer(recorder)
    try:
        for datum in batch:
            graph.component(producer).produce(datum)
    finally:
        unsubscribe()
    return recorder


def run_batched(graph, producer, batch):
    recorder = Recorder()
    unsubscribe = graph.add_observer(recorder)
    try:
        graph.component(producer).produce_batch(batch)
    finally:
        unsubscribe()
    return recorder


@settings(max_examples=60, deadline=None)
@given(ops=operations, shape=batch_shape)
def test_route_batch_multiset_equivalent_to_per_datum(ops, shape):
    reference = apply_operations(ProcessingGraph(), ops)
    batched = apply_operations(ProcessingGraph(), ops)
    payload = 0
    for component in list(reference.components()):
        payload += 100
        batch = make_batch(shape, payload, component)
        if not batch:
            continue
        expected = run_per_datum(reference, component.name, batch)
        actual = run_batched(batched, component.name, batch)
        assert Counter(actual.events) == Counter(expected.events)


@settings(max_examples=40, deadline=None)
@given(ops=operations, shape=batch_shape)
def test_route_batch_with_tracing_matches_per_datum_traces(ops, shape):
    reference = apply_operations(ProcessingGraph(), ops)
    batched = apply_operations(ProcessingGraph(), ops)
    reference.set_instrumentation(ObservabilityHub(MetricsRegistry(), tracing=True))
    batched.set_instrumentation(ObservabilityHub(MetricsRegistry(), tracing=True))
    payload = 0
    for component in list(reference.components()):
        payload += 100
        batch = make_batch(shape, payload, component)
        if not batch:
            continue
        expected = run_per_datum(reference, component.name, batch)
        actual = run_batched(batched, component.name, batch)

        def trace_paths(recorder):
            paths = set()
            for consumer, datum in recorder.datums:
                trace = trace_of(datum)
                hops = (
                    tuple(hop.component for hop in trace.hops)
                    if trace is not None
                    else None
                )
                paths.add((consumer, datum.payload, datum.kind, hops))
            return paths

        assert Counter(actual.events) == Counter(expected.events)
        assert trace_paths(actual) == trace_paths(expected)


@settings(max_examples=30, deadline=None)
@given(ops=operations, shape=batch_shape)
def test_route_batch_with_metrics_only_counts_match(ops, shape):
    """The fused (untraced) hub path: per-component item counters must
    come out identical to the per-datum run; only the latency sample
    count may differ (one observation per batch)."""
    reference = apply_operations(ProcessingGraph(), ops)
    batched = apply_operations(ProcessingGraph(), ops)
    reference_hub = ObservabilityHub(MetricsRegistry(), tracing=False)
    batched_hub = ObservabilityHub(MetricsRegistry(), tracing=False)
    reference.set_instrumentation(reference_hub)
    batched.set_instrumentation(batched_hub)
    payload = 0
    for component in list(reference.components()):
        payload += 100
        batch = make_batch(shape, payload, component)
        if not batch:
            continue
        run_per_datum(reference, component.name, batch)
        run_batched(batched, component.name, batch)

    for name in (c.name for c in reference.components()):
        expected = reference_hub.component_stats(name)
        actual = batched_hub.component_stats(name)
        assert actual.get("items_in") == expected.get("items_in")
        assert actual.get("items_out") == expected.get("items_out")
        assert actual.get("errors") == expected.get("errors")


def hops(datum):
    trace = trace_of(datum)
    return tuple(hop.component for hop in trace.hops) if trace is not None else None


def spy_deliveries(graph):
    """Record every delivery as ``(consumer, port, kind, payload, trace
    hops)`` by wrapping each component's consume body: no graph
    observer, so each hand-off stays whole (compilation off, so no
    fused chain skips a wrapper)."""
    graph.set_compilation(False)
    events = []
    for component in graph.components():

        def spy(port_name, datums, name=component.name, inner=component.receive_batch):
            events.extend(
                (name, port_name, d.kind, d.payload, hops(d)) for d in datums
            )
            inner(port_name, datums)

        component.receive_batch = spy
    return events


def drive_unobserved(ops, shape, tracing=None):
    """Per-datum ``produce`` against one ``produce_batch`` on twin
    graphs, each delivery recorded by :func:`spy_deliveries`."""
    reference = apply_operations(ProcessingGraph(), ops)
    batched = apply_operations(ProcessingGraph(), ops)
    if tracing is not None:
        for graph in (reference, batched):
            graph.set_instrumentation(
                ObservabilityHub(MetricsRegistry(), tracing=tracing)
            )
    expected = spy_deliveries(reference)
    actual = spy_deliveries(batched)
    payload = 0
    for component in list(reference.components()):
        payload += 100
        batch = make_batch(shape, payload, component)
        if not batch:
            continue
        for datum in batch:
            reference.component(component.name).produce(datum)
        batched.component(component.name).produce_batch(batch)
    return expected, actual


@settings(max_examples=60, deadline=None)
@given(ops=operations, shape=batch_shape)
def test_unobserved_route_batch_multiset_equivalent_to_per_datum(ops, shape):
    expected, actual = drive_unobserved(ops, shape)
    assert Counter(actual) == Counter(expected)


@settings(max_examples=40, deadline=None)
@given(ops=operations, shape=batch_shape)
def test_unobserved_route_batch_with_tracing_matches_per_datum_traces(ops, shape):
    """One traced hand-off extends every datum's trace as per-datum
    hand-offs would."""
    expected, actual = drive_unobserved(ops, shape, tracing=True)
    assert Counter(actual) == Counter(expected)


@settings(max_examples=30, deadline=None)
@given(ops=operations, shape=batch_shape)
def test_unobserved_route_batch_with_metrics_only_counts_match(ops, shape):
    """The hub counts once per hand-off, ``items_out`` by the batch's
    size: every counter equals the per-datum run's (compiled chains
    included, since no observer gates them)."""
    reference = apply_operations(ProcessingGraph(), ops)
    batched = apply_operations(ProcessingGraph(), ops)
    reference_hub = ObservabilityHub(MetricsRegistry(), tracing=False)
    batched_hub = ObservabilityHub(MetricsRegistry(), tracing=False)
    reference.set_instrumentation(reference_hub)
    batched.set_instrumentation(batched_hub)
    payload = 0
    for component in list(reference.components()):
        payload += 100
        batch = make_batch(shape, payload, component)
        if not batch:
            continue
        for datum in batch:
            reference.component(component.name).produce(datum)
        batched.component(component.name).produce_batch(batch)
    assert hub_counters(batched_hub) == hub_counters(reference_hub)


def hub_counters(hub):
    """Every counter but the fused-chain entries (one per batch)."""
    return {
        (series, tuple(sorted(labels.items()))): instrument.value
        for kind, series, labels, instrument in hub.registry.series()
        if kind == "counter" and series != "graph_fused_dispatches"
    }


# -- drain rounds: one batch per run of same-source lanes -----------------------

#: Per lane: the index of the source it enters at (taken modulo the
#: number of sources) and the kinds of the datums it holds.
lanes_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.lists(st.sampled_from(KINDS), max_size=6)),
    min_size=1,
    max_size=8,
)


def build_lane_graph(styles):
    """Source ``s<i>`` feeds a stage in ``styles[i]``'s style (0 returns
    its datum, 1 or 2 passes it to ``produce`` that many times); every
    stage feeds a shared ``merge`` stage, which feeds the ``app`` sink,
    and an ``xs`` sink taking kind ``x`` only."""
    graph = ProcessingGraph()
    graph.add(FunctionComponent("merge", KINDS, KINDS, fn=lambda d: d))
    graph.add(ApplicationSink("app", KINDS, keep_last=10_000))
    graph.add(ApplicationSink("xs", ("x",), keep_last=10_000))
    graph.connect("merge", "app")
    for index, times in enumerate(styles):
        source, stage = f"s{index}", f"stage{index}"
        graph.add(SourceComponent(source, KINDS))
        if times:
            graph.add(Repeater(stage, KINDS, times))
        else:
            graph.add(FunctionComponent(stage, KINDS, KINDS, fn=lambda d: d))
        graph.connect(source, stage)
        graph.connect(stage, "merge")
        graph.connect(stage, "xs")
    return graph


def build_lane_engine(styles, lanes, quantum):
    """The lane graph behind an engine holding ``lanes``' datums; the
    journal is attached after the submits."""
    graph = build_lane_graph(styles)
    engine = PositioningEngine(graph, scheduler=RoundRobinScheduler(quantum=quantum))
    for number, (source, kinds) in enumerate(lanes):
        target = f"t{number}"
        engine.track(target, f"s{source % len(styles)}")
        for index, kind in enumerate(kinds):
            engine.submit(target, Datum(kind, (number, index), 0.0))
    engine.journal = FakeJournal()
    return graph, engine


def per_lane_round(engine):
    """One round that injects each planned lane's batch on its own."""
    lane_counts = []
    total = 0
    for lane, count in engine.scheduler.plan(engine.lanes()):
        batch = lane.queue.drain(count)
        if not batch:
            continue
        lane_counts.append((lane.target_id, len(batch)))
        lane.source.inject_batch(batch)
        lane.batches += 1
        total += len(batch)
    engine.rounds += 1
    engine.drained_total += total
    if lane_counts:
        engine.journal.record_drain(lane_counts)


def sink_rows(graph):
    """Per sink, ``(target, kind, payload)`` in arrival order."""
    return {
        sink: [
            (d.attributes["target"], d.kind, d.payload)
            for d in graph.component(sink).received
        ]
        for sink in ("app", "xs")
    }


def lane_order(rows, target, kind):
    """One lane's payloads of one kind, in the order a sink got them."""
    return [p for t, k, p in rows if t == target and k == kind]


def lane_state(engine):
    return (
        engine.rounds,
        engine.drained_total,
        [
            (lane.target_id, lane.batches, lane.queue.drained, lane.queue.depth)
            for lane in engine.lanes()
        ],
    )


@settings(max_examples=60, deadline=None)
@given(
    styles=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    lanes=lanes_strategy,
    grouped=st.booleans(),
    quantum=st.integers(1, 4),
)
def test_coalesced_rounds_match_per_lane_injection(styles, lanes, grouped, quantum):
    if grouped:
        lanes = sorted(lanes, key=lambda lane: lane[0] % len(styles))
    graph, engine = build_lane_engine(styles, lanes, quantum)
    ref_graph, ref_engine = build_lane_engine(styles, lanes, quantum)
    while ref_engine.depth_total():
        per_lane_round(ref_engine)
        engine.drain_round()
        assert lane_state(engine) == lane_state(ref_engine)
    assert engine.depth_total() == 0
    assert engine.journal.drains == ref_engine.journal.drains

    rows, expected = sink_rows(graph), sink_rows(ref_graph)
    for sink in rows:
        assert Counter(rows[sink]) == Counter(expected[sink])
        # Per-lane FIFO: each lane's datums of one kind arrive in order.
        for number in range(len(lanes)):
            for kind in KINDS:
                order = lane_order(rows[sink], f"t{number}", kind)
                assert order == lane_order(expected[sink], f"t{number}", kind)
                assert order == sorted(order)

    # Replaying the journal reproduces the sinks.
    replay_graph, replay_engine = build_lane_engine(styles, lanes, quantum)
    for lane_counts in engine.journal.drains:
        replay_engine.replay_round(lane_counts)
    replayed = sink_rows(replay_graph)
    for sink in rows:
        assert Counter(replayed[sink]) == Counter(rows[sink])
    assert lane_state(replay_engine)[1:] == lane_state(engine)[1:]
