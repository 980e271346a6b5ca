"""Tests for the processing graph: wiring, validation, routing."""

import sys

import pytest

from repro.core import PerPos
from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    InputPort,
    OutputPort,
    ProcessingComponent,
    SourceComponent,
)
from repro.core.data import Datum
from repro.core.features import ComponentFeature
from repro.core.graph import GraphError, GraphObserver, ProcessingGraph
from repro.observability.instrumentation import ObservabilityHub
from repro.observability.metrics import MetricsRegistry
from repro.robustness.supervision import SupervisionPolicy, Supervisor


def passthrough(name, accepts=("x",), capabilities=("x",), **kwargs):
    return FunctionComponent(
        name, accepts, capabilities, fn=lambda d: d, **kwargs
    )


class TestMembership:
    def test_duplicate_name_rejected(self):
        graph = ProcessingGraph()
        graph.add(passthrough("a"))
        with pytest.raises(GraphError):
            graph.add(passthrough("a"))

    def test_unknown_component_lookup(self):
        with pytest.raises(GraphError):
            ProcessingGraph().component("ghost")

    def test_contains(self):
        graph = ProcessingGraph()
        graph.add(passthrough("a"))
        assert "a" in graph
        assert "b" not in graph

    def test_remove_detaches_delivery(self):
        graph = ProcessingGraph()
        a = SourceComponent("a", ("x",))
        graph.add(a)
        graph.remove("a")
        # Producing after removal must not crash or deliver anywhere.
        a.inject(Datum("x", 1, 0.0))
        assert "a" not in graph


class TestConnectValidation:
    def test_connect_requires_kind_overlap(self):
        graph = ProcessingGraph()
        graph.add(SourceComponent("s", ("x",)))
        graph.add(passthrough("c", accepts=("y",)))
        with pytest.raises(GraphError):
            graph.connect("s", "c")

    def test_connect_checks_required_features(self):
        graph = ProcessingGraph()
        graph.add(SourceComponent("s", ("x",)))
        graph.add(
            passthrough("c", required_features=("SomeFeature",))
        )
        with pytest.raises(GraphError) as err:
            graph.connect("s", "c")
        assert "SomeFeature" in str(err.value)

    def test_connect_succeeds_once_feature_attached(self):
        class SomeFeature(ComponentFeature):
            name = "SomeFeature"

        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        graph.add(source)
        graph.add(passthrough("c", required_features=("SomeFeature",)))
        source.attach_feature(SomeFeature())
        graph.connect("s", "c")

    def test_self_loop_rejected(self):
        graph = ProcessingGraph()
        graph.add(passthrough("a"))
        with pytest.raises(GraphError):
            graph.connect("a", "a")

    def test_cycle_rejected(self):
        graph = ProcessingGraph()
        for name in ("a", "b", "c"):
            graph.add(passthrough(name))
        graph.connect("a", "b")
        graph.connect("b", "c")
        with pytest.raises(GraphError):
            graph.connect("c", "a")

    def test_duplicate_connection_rejected(self):
        graph = ProcessingGraph()
        graph.add(SourceComponent("s", ("x",)))
        graph.add(passthrough("c"))
        graph.connect("s", "c")
        with pytest.raises(GraphError):
            graph.connect("s", "c")

    def test_port_autoselection(self):
        class TwoPort(ProcessingComponent):
            def __init__(self):
                super().__init__(
                    "two",
                    inputs=(
                        InputPort("first", ("y",)),
                        InputPort("second", ("x",)),
                    ),
                    output=OutputPort(()),
                )

            def process(self, port_name, datum):
                pass

        graph = ProcessingGraph()
        graph.add(SourceComponent("s", ("x",)))
        graph.add(TwoPort())
        connection = graph.connect("s", "two")
        assert connection.port == "second"

    def test_disconnect_unknown_edge(self):
        graph = ProcessingGraph()
        graph.add(passthrough("a"))
        graph.add(passthrough("b"))
        with pytest.raises(GraphError):
            graph.disconnect("a", "b")


class TestRoutingAndManipulation:
    def build_chain(self):
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        mid = passthrough("m")
        sink = ApplicationSink("app", ("x",))
        for c in (source, mid, sink):
            graph.add(c)
        graph.connect("s", "m")
        graph.connect("m", "app")
        return graph, source, sink

    def test_delivery_along_chain(self):
        _graph, source, sink = self.build_chain()
        source.inject(Datum("x", 7, 0.0))
        assert sink.last().payload == 7

    def test_fanout_delivers_to_all_consumers(self):
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        sink_a = ApplicationSink("a", ("x",))
        sink_b = ApplicationSink("b", ("x",))
        for c in (source, sink_a, sink_b):
            graph.add(c)
        graph.connect("s", "a")
        graph.connect("s", "b")
        source.inject(Datum("x", 1, 0.0))
        assert sink_a.last().payload == 1
        assert sink_b.last().payload == 1

    def test_kind_filtering_at_port(self):
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x", "y"))
        sink = ApplicationSink("app", ("x",))
        graph.add(source)
        graph.add(sink)
        graph.connect("s", "app")
        source.inject(Datum("y", "dropped", 0.0))
        source.inject(Datum("x", "kept", 0.0))
        assert [d.payload for d in sink.received] == ["kept"]

    def test_insert_between(self):
        graph, source, sink = self.build_chain()
        stamp = FunctionComponent(
            "stamp", ("x",), ("x",),
            fn=lambda d: d.with_payload(f"[{d.payload}]"),
        )
        graph.insert_between("m", "app", stamp)
        source.inject(Datum("x", "v", 0.0))
        assert sink.last().payload == "[v]"
        assert graph.downstream("m") == ["stamp"]

    def test_insert_between_requires_existing_edge(self):
        graph, _source, _sink = self.build_chain()
        with pytest.raises(GraphError):
            graph.insert_between("s", "app", passthrough("new"))

    def test_remove_with_reconnect_keeps_flow(self):
        graph, source, sink = self.build_chain()
        graph.remove("m", reconnect=True)
        source.inject(Datum("x", 3, 0.0))
        assert sink.last().payload == 3

    def test_remove_without_reconnect_breaks_flow(self):
        graph, source, sink = self.build_chain()
        graph.remove("m", reconnect=False)
        source.inject(Datum("x", 3, 0.0))
        assert sink.received == []


class TestTraversal:
    def diamond(self):
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        left = passthrough("l")
        right = passthrough("r")
        merge = ApplicationSink("m", ("x",))
        for c in (source, left, right, merge):
            graph.add(c)
        graph.connect("s", "l")
        graph.connect("s", "r")
        graph.connect("l", "m")
        graph.connect("r", "m")
        return graph

    def test_upstream_downstream(self):
        graph = self.diamond()
        assert sorted(graph.downstream("s")) == ["l", "r"]
        assert sorted(graph.upstream("m")) == ["l", "r"]

    def test_ancestors_descendants(self):
        graph = self.diamond()
        assert graph.ancestors("m") == {"s", "l", "r"}
        assert graph.descendants("s") == {"l", "r", "m"}

    def test_sources_and_sinks(self):
        graph = self.diamond()
        assert [c.name for c in graph.sources()] == ["s"]
        assert [c.name for c in graph.sinks()] == ["m"]

    def test_merge_points(self):
        graph = self.diamond()
        assert [c.name for c in graph.merge_points()] == ["m"]

    def test_render_tree(self):
        graph = self.diamond()
        text = graph.render_tree()
        assert text.splitlines()[0] == "m"
        assert "    s" in text


class TestTopologyVersionAndIndexes:
    """The dispatch fast path: versioned routing tables + indexes."""

    def test_version_bumps_on_every_mutation(self):
        graph = ProcessingGraph()
        v0 = graph.topology_version
        graph.add(SourceComponent("s", ("x",)))
        graph.add(passthrough("a"))
        assert graph.topology_version > v0
        v1 = graph.topology_version
        graph.connect("s", "a")
        assert graph.topology_version > v1
        v2 = graph.topology_version
        graph.disconnect("s", "a")
        assert graph.topology_version > v2
        v3 = graph.topology_version
        graph.remove("a")
        assert graph.topology_version > v3

    def test_assembly_cost_is_linear_in_size(self):
        """Four times the chains cost at most five times the calls.

        Counted as profiler call events, not wall clock, so the bound is
        exact.  A graph that rebuilt its adjacency index or scanned its
        edge list on every connect scored 13.8 here.
        """

        def assemble(chains):
            middleware = PerPos()
            graph = middleware.graph
            for i in range(chains):
                graph.add(SourceComponent(f"s{i}", ("x",)))
                graph.add(passthrough(f"a{i}"))
                graph.add(passthrough(f"b{i}"))
                provider = middleware.create_provider(f"p{i}", accepts=("x",))
                graph.connect(f"s{i}", f"a{i}")
                graph.connect(f"a{i}", f"b{i}")
                graph.connect(f"b{i}", provider.sink.name)

        def calls(chains):
            count = 0

            def profile(_frame, event, _arg):
                nonlocal count
                if event in ("call", "c_call"):
                    count += 1

            sys.setprofile(profile)
            try:
                assemble(chains)
            finally:
                sys.setprofile(None)
            return count

        assemble(5)  # first-use work (lazy imports) stays out of the count
        assert calls(100) / calls(25) <= 5.0

    def test_version_untouched_by_data_flow(self):
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        sink = ApplicationSink("app", ("x",))
        graph.add(source)
        graph.add(sink)
        graph.connect("s", "app")
        version = graph.topology_version
        for i in range(5):
            source.inject(Datum("x", i, 0.0))
        assert graph.topology_version == version

    def test_routing_tracks_disconnect(self):
        """The (producer, kind) memo must invalidate on edge removal."""
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        sink_a = ApplicationSink("a", ("x",))
        sink_b = ApplicationSink("b", ("x",))
        for c in (source, sink_a, sink_b):
            graph.add(c)
        graph.connect("s", "a")
        graph.connect("s", "b")
        source.inject(Datum("x", 1, 0.0))  # warms the route memo
        graph.disconnect("s", "b")
        source.inject(Datum("x", 2, 0.0))
        assert [d.payload for d in sink_a.received] == [1, 2]
        assert [d.payload for d in sink_b.received] == [1]

    def test_routing_tracks_new_connection(self):
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        sink_a = ApplicationSink("a", ("x",))
        sink_b = ApplicationSink("b", ("x",))
        for c in (source, sink_a, sink_b):
            graph.add(c)
        graph.connect("s", "a")
        source.inject(Datum("x", 1, 0.0))
        graph.connect("s", "b")
        source.inject(Datum("x", 2, 0.0))
        assert [d.payload for d in sink_b.received] == [2]

    def test_upstream_downstream_maps(self):
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        mid = passthrough("m")
        sink = ApplicationSink("app", ("x",))
        for c in (source, mid, sink):
            graph.add(c)
        graph.connect("s", "m")
        graph.connect("m", "app")
        assert graph.downstream_map() == {"s": ["m"], "m": ["app"]}
        assert graph.upstream_map() == {"m": ["s"], "app": ["m"]}

    def test_sources_with_unconnected_consumer(self):
        """A component with declared inputs but no inbound edge is a
        source by the 'no inbound connections' definition."""
        graph = ProcessingGraph()
        graph.add(SourceComponent("s", ("x",)))
        graph.add(passthrough("loose"))
        graph.add(ApplicationSink("app", ("x",)))
        graph.connect("s", "app")
        assert sorted(c.name for c in graph.sources()) == ["loose", "s"]

    def test_remove_merge_point_reconnects_all_upstreams(self):
        """Regression: deleting a merge component splices every upstream
        producer into every downstream consumer."""
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        left = passthrough("l")
        right = passthrough("r")
        merge = passthrough("m")
        sink = ApplicationSink("app", ("x",))
        for c in (source, left, right, merge, sink):
            graph.add(c)
        graph.connect("s", "l")
        graph.connect("s", "r")
        graph.connect("l", "m")
        graph.connect("r", "m")
        graph.connect("m", "app")
        graph.remove("m", reconnect=True)
        assert sorted(graph.upstream("app")) == ["l", "r"]
        source.inject(Datum("x", 5, 0.0))
        # Both strands still deliver: the datum arrives once per strand.
        assert [d.payload for d in sink.received] == [5, 5]

    def test_reentrant_removal_mid_delivery_skips_stale_consumer(self):
        """A component removed by an upstream consumer *during* delivery
        must not receive the in-flight datum."""
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        sink_c = ApplicationSink("c", ("x",))

        def remove_c(datum):
            if "c" in graph:
                graph.remove("c")
            return None

        remover = FunctionComponent("b", ("x",), ("x",), fn=remove_c)
        for c in (source, remover, sink_c):
            graph.add(c)
        graph.connect("s", "b")  # delivered first (edge order)
        graph.connect("s", "c")
        source.inject(Datum("x", 1, 0.0))
        assert sink_c.received == []
        assert "c" not in graph

    def test_reentrant_connect_takes_effect_for_next_dispatch(self):
        """An edge wired from inside ``process`` is live for every
        dispatch that *starts* afterwards -- including the produce call
        of the very component that added it."""
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        late = ApplicationSink("late", ("x",))

        def wire_late(datum):
            if "late" not in graph.downstream("b"):
                graph.connect("b", "late")
            return datum

        mid = FunctionComponent("b", ("x",), ("x",), fn=wire_late)
        for c in (source, mid, late):
            graph.add(c)
        graph.connect("s", "b")
        source.inject(Datum("x", 1, 0.0))
        source.inject(Datum("x", 2, 0.0))
        assert [d.payload for d in late.received] == [1, 2]


class TestSeamInstalledMidFanOut:
    """A consumer installs a hub or a supervisor while the graph fans
    one datum out to ``a``, ``b`` and ``c``: the rest of that in-flight
    fan-out keeps the delivery it started with, and the next datum is
    delivered under the new seam."""

    def build(self, install):
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        installed = []

        def install_once(datum):
            if not installed:
                installed.append(install(graph))
            return None

        sinks = [ApplicationSink("b", ("x",)), ApplicationSink("c", ("x",))]
        graph.add(source)
        graph.add(FunctionComponent("a", ("x",), ("x",), fn=install_once))
        for sink in sinks:
            graph.add(sink)
        for name in ("a", "b", "c"):
            graph.connect("s", name)  # "a" is delivered first (edge order)
        return source, sinks, installed

    def test_hub_installed_mid_fan_out(self):
        def install(graph):
            hub = ObservabilityHub(MetricsRegistry(), tracing=False)
            graph.set_instrumentation(hub)
            return hub

        source, sinks, installed = self.build(install)
        source.inject(Datum("x", 1, 0.0))
        hub = installed[0]
        assert [len(sink.received) for sink in sinks] == [1, 1]
        assert hub.component_stats("b") == {}
        assert hub.component_stats("c") == {}
        source.inject(Datum("x", 2, 0.0))
        assert [len(sink.received) for sink in sinks] == [2, 2]
        for name in ("a", "b", "c"):
            assert hub.component_stats(name)["items_in"] == 1

    def test_supervisor_installed_mid_fan_out(self):
        def install(graph):
            supervisor = Supervisor(SupervisionPolicy(mode="quarantine"))
            graph.set_supervisor(supervisor)
            supervisor.quarantine("b")
            return supervisor

        source, sinks, installed = self.build(install)
        source.inject(Datum("x", 1, 0.0))
        supervisor = installed[0]
        # The in-flight fan-out kept its bare delivery: quarantined "b"
        # still received the datum.
        assert [len(sink.received) for sink in sinks] == [1, 1]
        assert supervisor.skipped_count("b") == 0
        source.inject(Datum("x", 2, 0.0))
        assert [len(sink.received) for sink in sinks] == [1, 2]
        assert supervisor.skipped_count("b") == 1


class TestObservers:
    def test_data_events_delivered(self):
        events = []

        class Recorder(GraphObserver):
            def data_consumed(self, component, port, datum):
                events.append(("consume", component.name, datum.payload))

            def data_produced(self, component, datum):
                events.append(("produce", component.name, datum.payload))

        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        sink = ApplicationSink("app", ("x",))
        graph.add(source)
        graph.add(sink)
        graph.connect("s", "app")
        graph.add_observer(Recorder())
        source.inject(Datum("x", 9, 0.0))
        assert ("produce", "s", 9) in events
        assert ("consume", "app", 9) in events

    def test_topology_events_and_unsubscribe(self):
        count = [0]

        class Topo(GraphObserver):
            def topology_changed(self, graph):
                count[0] += 1

        graph = ProcessingGraph()
        remove = graph.add_observer(Topo())
        graph.add(passthrough("a"))
        assert count[0] == 1
        remove()
        graph.add(passthrough("b"))
        assert count[0] == 1


class Tally(GraphObserver):
    """Counts every callback, per kind."""

    def __init__(self):
        self.calls = []

    def data_consumed(self, component, port, datum):
        self.calls.append("consumed")

    def data_produced(self, component, datum):
        self.calls.append("produced")

    def data_dropped(self, component, port, datum, feature_name):
        self.calls.append("dropped")

    def topology_changed(self, graph):
        self.calls.append("topology")

    def flow_resumed(self, graph):
        self.calls.append("resumed")


class TestDataEventsOnDemand:
    """Observers subscribed without data events get no per-datum call,
    and neither does the graph from its components, until one asks."""

    def build(self):
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        graph.add(source)
        graph.add(passthrough("f"))
        graph.add(ApplicationSink("app", ("x",)))
        graph.connect("s", "f")
        graph.connect("f", "app")
        return graph, source

    def test_quiet_observer_gets_topology_and_one_resume_per_change(self):
        graph, source = self.build()
        quiet = Tally()
        graph.add_observer(quiet, data_events=False)
        source.inject(Datum("x", 1, 0.0))
        source.inject_batch([Datum("x", 2, 0.0), Datum("x", 3, 0.0)])
        assert quiet.calls == ["resumed"]
        assert all(c._notify_consumed is None for c in graph.components())
        graph.add(passthrough("g"))
        graph.connect("s", "g")
        source.inject(Datum("x", 4, 0.0))
        source.inject(Datum("x", 5, 0.0))
        assert quiet.calls == ["resumed", "topology", "topology", "resumed"]

    def test_resume_is_announced_before_the_first_event_of_a_change(self):
        graph, source = self.build()
        loud = Tally()
        graph.add_observer(loud)
        source.inject(Datum("x", 1, 0.0))
        assert loud.calls[:2] == ["resumed", "produced"]
        assert "resumed" not in loud.calls[2:]
        assert loud.calls.count("consumed") == 2

    def test_observe_data_switches_events_and_consume_hooks(self):
        graph, source = self.build()
        quiet = Tally()
        graph.add_observer(quiet, data_events=False)
        graph.observe_data(quiet, True)
        assert all(c._notify_consumed is not None for c in graph.components())
        late = graph.add(passthrough("late"))
        assert late._notify_consumed is not None
        source.inject(Datum("x", 1, 0.0))
        assert quiet.calls.count("produced") == 2
        assert quiet.calls.count("consumed") == 2
        graph.observe_data(quiet, False)
        assert all(c._notify_consumed is None for c in graph.components())
        del quiet.calls[:]
        source.inject(Datum("x", 2, 0.0))
        assert quiet.calls == []
        graph.remove("late")
        assert late._notify_consumed is None

    def test_a_quiet_observer_still_gates_plan_compilation(self):
        graph, _source = self.build()
        unsubscribe = graph.add_observer(Tally(), data_events=False)
        assert (
            graph.plan_snapshot()["fallback_reason"]
            == "graph-observers-subscribed"
        )
        unsubscribe()
        assert graph.plan_snapshot()["fallback_reason"] is None

    def test_components_record_outputs_and_holding_while_observed(self):
        graph, source = self.build()
        sink = graph.component("app")
        source.inject(Datum("x", 0, 0.0))
        # Nobody observes, so no channel can read the records.
        assert (source._outputs, source._latest_output) == (0, None)
        graph.add_observer(Tally(), data_events=False)
        source.inject_batch([Datum("x", i, 0.0) for i in range(1, 4)])
        assert (source._outputs, source._latest_output.payload) == (3, 3)
        assert graph.component("f")._outputs == 3
        assert sink._outputs == 0
        # A sink consumes and never produces: it holds what it took.
        assert sink._holding and not graph.component("f")._holding

    def test_forwarded_feature_data_leaves_the_inputs_held(self):
        graph, source = self.build()
        graph.add_observer(Tally(), data_events=False)
        relay = graph.component("f")
        source.inject(Datum("x", 1, 0.0, producer="s#Feature"))
        assert relay._holding  # it only passed feature-added data on
        source.inject(Datum("x", 2, 0.0))
        assert not relay._holding


class TestBatchDispatch:
    def build(self):
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        graph.add(source)
        graph.add(passthrough("f"))
        sink = ApplicationSink("app", ("x",))
        graph.add(sink)
        graph.connect("s", "f", "in")
        graph.connect("f", "app", "in")
        return graph, source, sink

    def test_inject_batch_reaches_sink_in_order(self):
        graph, source, sink = self.build()
        source.inject_batch([Datum("x", i, 0.0) for i in range(5)])
        assert [d.payload for d in sink.received] == [0, 1, 2, 3, 4]

    def test_empty_batch_is_a_noop(self):
        graph, source, sink = self.build()
        source.inject_batch([])
        graph.route_batch("s", [])
        assert sink.received == []

    def test_mixed_kind_batch_groups_by_kind(self):
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x", "y"))
        x_sink = ApplicationSink("xs", ("x",))
        y_sink = ApplicationSink("ys", ("y",))
        graph.add(source)
        graph.add(x_sink)
        graph.add(y_sink)
        graph.connect("s", "xs", "in")
        graph.connect("s", "ys", "in")
        source.inject_batch(
            [
                Datum("x", 1, 0.0),
                Datum("y", 2, 0.0),
                Datum("x", 3, 0.0),
            ]
        )
        assert [d.payload for d in x_sink.received] == [1, 3]
        assert [d.payload for d in y_sink.received] == [2]

    def test_batch_observer_events_per_datum(self):
        events = []

        class Recorder(GraphObserver):
            def data_produced(self, component, datum):
                events.append((component.name, datum.payload))

        graph, source, sink = self.build()
        graph.add_observer(Recorder())
        source.inject_batch([Datum("x", i, 0.0) for i in range(3)])
        assert events.count(("s", 0)) == 1
        assert len([e for e in events if e[0] == "s"]) == 3

    def test_produce_batch_outside_graph_falls_back(self):
        # A component not (or no longer) in a graph must not crash on
        # produce_batch -- mirrors the per-datum remove contract.
        source = SourceComponent("lone", ("x",))
        source.inject_batch([Datum("x", 1, 0.0)])
        graph, source, sink = self.build()
        graph.remove("s")
        source.inject_batch([Datum("x", 2, 0.0)])
        assert sink.received == []

    def test_default_receive_batch_loops_receive(self):
        # A component without a batch-aware override still takes part in
        # batched dispatch via the documented per-datum fallback.
        class Plain(ProcessingComponent):
            def __init__(self):
                super().__init__(
                    "plain",
                    inputs=(InputPort("in", ("x",)),),
                    output=OutputPort(("x",)),
                )
                self.seen = []

            def process(self, port_name, datum):
                self.seen.append(datum.payload)
                self.produce(datum)

        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        plain = Plain()
        sink = ApplicationSink("app", ("x",))
        graph.add(source)
        graph.add(plain)
        graph.add(sink)
        graph.connect("s", "plain", "in")
        graph.connect("plain", "app", "in")
        source.inject_batch([Datum("x", i, 0.0) for i in range(3)])
        assert plain.seen == [0, 1, 2]
        assert [d.payload for d in sink.received] == [0, 1, 2]

    def test_sink_keep_last_trimmed_after_batch(self):
        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        sink = ApplicationSink("app", ("x",), keep_last=3)
        graph.add(source)
        graph.add(sink)
        graph.connect("s", "app", "in")
        source.inject_batch([Datum("x", i, 0.0) for i in range(10)])
        assert [d.payload for d in sink.received] == [7, 8, 9]

    def test_function_component_fan_out_results(self):
        def doubler(datum):
            return [datum, datum.with_payload(datum.payload * 10)]

        graph = ProcessingGraph()
        source = SourceComponent("s", ("x",))
        fan = FunctionComponent("fan", ("x",), ("x",), fn=doubler)
        sink = ApplicationSink("app", ("x",))
        graph.add(source)
        graph.add(fan)
        graph.add(sink)
        graph.connect("s", "fan", "in")
        graph.connect("fan", "app", "in")
        source.inject_batch([Datum("x", 1, 0.0), Datum("x", 2, 0.0)])
        assert [d.payload for d in sink.received] == [1, 10, 2, 20]
