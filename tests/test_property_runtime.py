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
``produce`` once or twice: the one consume body serves both.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.component import (
    FunctionComponent,
    InputPort,
    OutputPort,
    ProcessingComponent,
)
from repro.core.data import Datum
from repro.core.graph import GraphError, GraphObserver, ProcessingGraph
from repro.observability.instrumentation import ObservabilityHub
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import trace_of

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
