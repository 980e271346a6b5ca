"""Property tests: the indexed dispatch fast path is observationally
equivalent to a naive edge-list scan (hypothesis).

The graph's routing tables, per-(producer, kind) memo, and adjacency
caches are derived state invalidated by the topology version.  These
tests drive random mutation sequences (add / remove / connect /
disconnect) through the real graph and check that, for every reachable
(producer, kind) pair, delivery is *exactly* what a from-scratch
recursive scan of ``graph.connections()`` predicts -- same consumers,
same ports, same order -- and that the cached ``descendants()`` /
``ancestors()`` / ``sources()`` / ``sinks()`` answers match a reference
BFS over the raw edge list.  The adjacency index, which ``add`` and
``connect`` keep current in place, equals its rebuild from the edge
list after every mutation, ``insert_between`` included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.component import FunctionComponent
from repro.core.data import Datum
from repro.core.graph import GraphError, GraphObserver, ProcessingGraph

NAMES = ("c0", "c1", "c2", "c3", "c4", "c5")
KINDS = ("x", "y")

kind_sets = st.lists(
    st.sampled_from(KINDS), min_size=1, max_size=2, unique=True
).map(tuple)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(NAMES), kind_sets),
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


def apply_operations(ops):
    """Build a graph by applying ``ops``, skipping invalid ones.

    Invalid operations (duplicate names, missing components, cycles,
    kind mismatches) raise GraphError in the real API; a random
    sequence hits plenty of them, and skipping keeps the generated
    topologies honest -- every surviving graph state was reached purely
    through public mutations.
    """
    graph = ProcessingGraph()
    for op in ops:
        try:
            if op[0] == "add":
                _, name, kinds = op
                graph.add(
                    FunctionComponent(name, kinds, kinds, fn=lambda d: d)
                )
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

    def data_consumed(self, component, port_name, datum):
        self.events.append(
            (component.name, port_name, datum.kind, datum.payload)
        )


def reference_route(graph, producer, datum, events):
    """Route ``datum`` by scanning the raw edge list, depth-first.

    Mirrors the synchronous delivery semantics: edges are visited in
    ``connections()`` list order, a consumer receives iff its port
    accepts the kind, and a passthrough immediately re-produces --
    recursing before the next sibling edge is considered.
    """
    for connection in graph.connections():
        if connection.producer != producer:
            continue
        consumer = graph.component(connection.consumer)
        port = consumer.input_port(connection.port)
        if datum.kind not in port.accepts:
            continue
        events.append(
            (connection.consumer, connection.port, datum.kind, datum.payload)
        )
        if datum.kind in consumer.output_port.capabilities:
            reference_route(graph, connection.consumer, datum, events)


def reference_reachable(graph, start, forward):
    """BFS over the raw edge list; ``forward`` walks producer->consumer."""
    adjacency = {}
    for connection in graph.connections():
        if forward:
            adjacency.setdefault(connection.producer, set()).add(
                connection.consumer
            )
        else:
            adjacency.setdefault(connection.consumer, set()).add(
                connection.producer
            )
    seen = set()
    frontier = [start]
    while frontier:
        name = frontier.pop()
        for neighbour in adjacency.get(name, ()):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_indexed_routing_matches_edge_list_scan(ops):
    graph = apply_operations(ops)
    payload = 0
    for component in list(graph.components()):
        for kind in component.output_port.capabilities:
            payload += 1
            datum = Datum(kind, payload, 0.0)
            expected = []
            reference_route(graph, component.name, datum, expected)

            recorder = Recorder()
            unsubscribe = graph.add_observer(recorder)
            try:
                component.produce(datum)
            finally:
                unsubscribe()
            assert recorder.events == expected


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_traversal_caches_match_reference_bfs(ops):
    graph = apply_operations(ops)
    for component in graph.components():
        name = component.name
        assert graph.descendants(name) == reference_reachable(
            graph, name, forward=True
        )
        assert graph.ancestors(name) == reference_reachable(
            graph, name, forward=False
        )
    with_inbound = {c.consumer for c in graph.connections()}
    with_outbound = {c.producer for c in graph.connections()}
    names = {c.name for c in graph.components()}
    assert {c.name for c in graph.sources()} == names - with_inbound
    assert {c.name for c in graph.sinks()} == names - with_outbound


@settings(max_examples=40, deadline=None)
@given(ops=operations, extra=operations)
def test_routing_stays_correct_across_warm_memo(ops, extra):
    """Inject, mutate further, inject again: the memo built by the
    first round must not leak stale entries into the second."""
    graph = apply_operations(ops)
    for component in list(graph.components()):
        for kind in component.output_port.capabilities:
            component.produce(Datum(kind, 0, 0.0))  # warm the memo

    for op in extra:  # second mutation round on the same graph
        try:
            if op[0] == "add":
                _, name, kinds = op
                graph.add(
                    FunctionComponent(name, kinds, kinds, fn=lambda d: d)
                )
            elif op[0] == "remove":
                graph.remove(op[1], reconnect=op[2])
            elif op[0] == "connect":
                graph.connect(op[1], op[2])
            else:
                graph.disconnect(op[1], op[2])
        except GraphError:
            continue

    payload = 0
    for component in list(graph.components()):
        for kind in component.output_port.capabilities:
            payload += 1
            datum = Datum(kind, payload, 0.0)
            expected = []
            reference_route(graph, component.name, datum, expected)
            recorder = Recorder()
            unsubscribe = graph.add_observer(recorder)
            try:
                component.produce(datum)
            finally:
                unsubscribe()
            assert recorder.events == expected


def passthrough(name, kinds):
    return FunctionComponent(name, kinds, kinds, fn=lambda d: d)


def rebuilt_adjacency(connections):
    upstream, downstream = {}, {}
    for c in connections:
        upstream.setdefault(c.consumer, []).append(c.producer)
        downstream.setdefault(c.producer, []).append(c.consumer)
    return upstream, downstream


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_adjacency_index_equals_a_rebuild_after_every_mutation(data):
    """Mutations drawn against the live graph (existing names and
    edges), so disconnects and splices mostly succeed."""
    graph = ProcessingGraph()
    for step in range(data.draw(st.integers(min_value=1, max_value=40))):
        names = [c.name for c in graph.components()]
        edges = graph.connections()
        op = data.draw(
            st.sampled_from(
                ("add", "add", "connect", "connect", "disconnect", "remove", "insert")
            )
        )
        try:
            if op == "add" or not names:
                name = data.draw(st.sampled_from(NAMES))
                graph.add(passthrough(name, data.draw(kind_sets)))
            elif op == "connect":
                graph.connect(
                    data.draw(st.sampled_from(names)),
                    data.draw(st.sampled_from(names)),
                )
            elif op == "remove":
                graph.remove(
                    data.draw(st.sampled_from(names)),
                    reconnect=data.draw(st.booleans()),
                )
            elif edges:
                edge = data.draw(st.sampled_from(edges))
                if op == "disconnect":
                    graph.disconnect(edge.producer, edge.consumer, edge.port)
                else:
                    graph.insert_between(
                        edge.producer,
                        edge.consumer,
                        passthrough(f"i{step}", data.draw(kind_sets)),
                        port=edge.port,
                    )
        except GraphError:
            pass
        connections = graph.connections()
        assert len(set(connections)) == len(connections)
        upstream, downstream = rebuilt_adjacency(connections)
        assert graph.upstream_map() == upstream
        assert graph.downstream_map() == downstream
        for c in connections:
            with pytest.raises(GraphError, match="duplicate"):
                graph.connect(c.producer, c.consumer, c.port)
