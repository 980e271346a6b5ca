"""Unit tests for the runtime observability layer.

Covers the metric instruments (counters/gauges/histograms, clock
injection, reset), flow-trace propagation across a three-component
pipeline, the disabled-by-default no-op path, and the feature-mechanism
entry points (TracingFeature / ChannelTracingFeature).
"""

import pytest

from repro.clock import SimulationClock
from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.core.data import Datum
from repro.core.features import ComponentFeature
from repro.core.graph import ProcessingGraph
from repro.core.middleware import PerPos
from repro.core.pcl import ProcessChannelLayer
from repro.observability import (
    ChannelTracingFeature,
    FlowTrace,
    MetricsRegistry,
    ObservabilityHub,
    TraceHop,
    TracingFeature,
    trace_of,
    with_trace,
)


def build_chain(n_stages=2):
    """src -> stage1 -> ... -> stageN -> app."""
    graph = ProcessingGraph()
    source = SourceComponent("src", ("x",))
    graph.add(source)
    previous = "src"
    for i in range(1, n_stages + 1):
        stage = FunctionComponent(
            f"stage{i}", ("x",), ("x",), fn=lambda d: d
        )
        graph.add(stage)
        graph.connect(previous, stage.name)
        previous = stage.name
    sink = ApplicationSink("app", ("x",))
    graph.add(sink)
    graph.connect(previous, "app")
    return graph, source, sink


class TestCounter:
    def test_inc_and_reset(self):
        registry = MetricsRegistry()
        counter = registry.counter("events", component="a")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        registry.reset()
        assert counter.value == 0

    def test_label_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("events", component="a")
        b = registry.counter("events", component="b")
        unlabelled = registry.counter("events")
        a.inc()
        assert b.value == 0
        assert unlabelled.value == 0
        # Same (name, labels) -> same instrument.
        assert registry.counter("events", component="a") is a


class TestGauge:
    def test_set_add_reset(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.add(-1)
        assert gauge.value == 2
        gauge.reset()
        assert gauge.value == 0.0


class TestHistogram:
    def test_summary_statistics(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for value in (0.001, 0.002, 0.003):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["min"] == 0.001
        assert summary["max"] == 0.003
        assert summary["mean"] == pytest.approx(0.002)

    def test_quantile_returns_bucket_bound(self):
        histogram = MetricsRegistry().histogram("latency")
        for _ in range(99):
            histogram.observe(0.0005)  # <= 1e-3 bucket
        histogram.observe(5.0)  # <= 10.0 bucket
        assert histogram.quantile(0.5) == 1e-3
        assert histogram.quantile(1.0) == 10.0

    def test_reset(self):
        histogram = MetricsRegistry().histogram("latency")
        histogram.observe(1.0)
        histogram.reset()
        assert histogram.count == 0
        assert histogram.min is None
        assert histogram.mean == 0.0

    def test_quantile_validates_range(self):
        histogram = MetricsRegistry().histogram("latency")
        with pytest.raises(ValueError):
            histogram.quantile(0.0)


class TestClockInjection:
    def test_hub_hop_timestamps_follow_simulation_clock(self):
        clock = SimulationClock(start=100.0)
        graph, source, sink = build_chain()
        graph.set_instrumentation(
            ObservabilityHub(time_fn=lambda: clock.now)
        )
        source.inject(Datum("x", 1, clock.now))
        trace = trace_of(sink.last())
        assert [hop.timestamp for hop in trace] == [100.0, 100.0, 100.0]


class TestSnapshotAndReset:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("items", component="a").inc()
        registry.gauge("size").set(7)
        registry.histogram("lat", component="a").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"items{component=a}": 1}
        assert snapshot["gauges"] == {"size": 7.0}
        assert snapshot["histograms"]["lat{component=a}"]["count"] == 1

    def test_reset_keeps_series_clear_drops_them(self):
        registry = MetricsRegistry()
        registry.counter("items").inc()
        registry.reset()
        assert registry.snapshot()["counters"] == {"items": 0}
        registry.clear()
        assert len(registry) == 0


class TestFlowTrace:
    def test_extended_is_immutable(self):
        trace = FlowTrace((TraceHop("a", 0.0),))
        longer = trace.extended(TraceHop("b", 1.0))
        assert trace.path == ["a"]
        assert longer.path == ["a", "b"]
        assert longer.duration == 1.0

    def test_render_and_describe(self):
        trace = FlowTrace(
            (TraceHop("a", 0.0, "x"), TraceHop("b", 1.5, "x"))
        )
        assert trace.render() == "a[t=0] -> b[t=1.5]"
        assert trace.describe()[1] == {
            "component": "b",
            "timestamp": 1.5,
            "kind": "x",
        }

    def test_trace_of_untraced_datum(self):
        assert trace_of(Datum("x", 1, 0.0)) is None
        assert trace_of(None) is None

    def test_with_trace_round_trip(self):
        trace = FlowTrace((TraceHop("a", 0.0),))
        datum = with_trace(Datum("x", 1, 0.0), trace)
        assert trace_of(datum) is trace


class TestTracePropagation:
    def test_three_component_pipeline_path(self):
        graph, source, sink = build_chain(n_stages=2)
        graph.set_instrumentation(ObservabilityHub(time_fn=lambda: 1.0))
        source.inject(Datum("x", 1, 0.0))
        trace = trace_of(sink.last())
        assert trace.path == ["src", "stage1", "stage2"]

    def test_each_datum_gets_its_own_trace(self):
        graph, source, sink = build_chain(n_stages=1)
        graph.set_instrumentation(ObservabilityHub(time_fn=lambda: 0.0))
        source.inject(Datum("x", 1, 0.0))
        source.inject(Datum("x", 2, 1.0))
        first, second = sink.received
        assert trace_of(first).path == ["src", "stage1"]
        assert trace_of(second).path == ["src", "stage1"]
        assert trace_of(first) is not trace_of(second)

    def test_merge_trace_follows_triggering_strand(self):
        graph = ProcessingGraph()
        left = SourceComponent("left", ("x",))
        right = SourceComponent("right", ("x",))
        merge = FunctionComponent("merge", ("x",), ("x",), fn=lambda d: d)
        sink = ApplicationSink("app", ("x",))
        for c in (left, right, merge, sink):
            graph.add(c)
        graph.connect("left", "merge")
        graph.connect("right", "merge")
        graph.connect("merge", "app")
        graph.set_instrumentation(ObservabilityHub(time_fn=lambda: 0.0))
        left.inject(Datum("x", 1, 0.0))
        right.inject(Datum("x", 2, 1.0))
        first, second = sink.received
        assert trace_of(first).path == ["left", "merge"]
        assert trace_of(second).path == ["right", "merge"]

    def test_spontaneous_production_starts_fresh_trace(self):
        # Data produced outside any delivery (e.g. from a clock callback)
        # traces from the producing component, not a stale context.
        graph, source, sink = build_chain(n_stages=1)
        graph.set_instrumentation(ObservabilityHub(time_fn=lambda: 0.0))
        stage = graph.component("stage1")
        stage.produce(Datum("x", 99, 5.0))
        assert trace_of(sink.last()).path == ["stage1"]


class TestHubMetrics:
    def test_items_in_out_and_latency(self):
        graph, source, sink = build_chain(n_stages=2)
        hub = ObservabilityHub(time_fn=lambda: 0.0)
        graph.set_instrumentation(hub)
        for i in range(5):
            source.inject(Datum("x", i, float(i)))
        stats = hub.component_stats("stage1")
        assert stats["items_in"] == 5
        assert stats["items_out"] == 5
        assert stats["latency"]["count"] == 5
        assert hub.component_stats("src")["items_out"] == 5
        assert hub.component_stats("app")["items_in"] == 5

    def test_error_counting_and_reraise(self):
        graph = ProcessingGraph()
        source = SourceComponent("src", ("x",))

        def boom(datum):
            raise RuntimeError("kaput")

        graph.add(source)
        graph.add(FunctionComponent("bad", ("x",), ("x",), fn=boom))
        graph.connect("src", "bad")
        hub = ObservabilityHub(time_fn=lambda: 0.0)
        graph.set_instrumentation(hub)
        with pytest.raises(RuntimeError):
            source.inject(Datum("x", 1, 0.0))
        assert hub.component_stats("bad")["errors"] == 1
        # The failed delivery still recorded a latency sample.
        assert hub.component_stats("bad")["latency"]["count"] == 1

    def test_feature_drop_counting(self):
        class DropAll(ComponentFeature):
            name = "DropAll"

            def consume(self, datum):
                return None

        graph, source, sink = build_chain(n_stages=1)
        graph.component("stage1").attach_feature(DropAll())
        hub = ObservabilityHub(time_fn=lambda: 0.0)
        graph.set_instrumentation(hub)
        source.inject(Datum("x", 1, 0.0))
        stats = hub.component_stats("stage1")
        assert stats["items_dropped"] == 1
        assert stats.get("items_out", 0) == 0
        assert sink.received == []

    def test_topology_gauges(self):
        graph, source, sink = build_chain(n_stages=1)
        hub = ObservabilityHub(time_fn=lambda: 0.0)
        graph.set_instrumentation(hub)
        snapshot = hub.registry.snapshot()
        assert snapshot["gauges"]["graph_components"] == 3
        assert snapshot["gauges"]["graph_connections"] == 2
        graph.add(FunctionComponent("extra", ("x",), ("x",), fn=lambda d: d))
        assert hub.registry.snapshot()["gauges"]["graph_components"] == 4

    def test_hub_reset(self):
        graph, source, sink = build_chain(n_stages=1)
        hub = ObservabilityHub(time_fn=lambda: 0.0)
        graph.set_instrumentation(hub)
        source.inject(Datum("x", 1, 0.0))
        hub.reset()
        assert hub.component_stats("stage1")["items_in"] == 0


class TestDisabledDefault:
    def test_no_hub_means_no_traces_no_metrics(self):
        graph, source, sink = build_chain(n_stages=2)
        assert graph.instrumentation is None
        source.inject(Datum("x", 1, 0.0))
        datum = sink.last()
        assert trace_of(datum) is None
        # Attributes untouched: the envelope is byte-identical behaviour.
        assert dict(datum.attributes) == {}

    def test_middleware_disabled_by_default(self):
        middleware = PerPos()
        assert middleware.observability is None
        assert middleware.trace(None) is None
        assert middleware.psl.component_metrics() == {}

    def test_enable_then_disable(self):
        middleware = PerPos()
        hub = middleware.enable_observability()
        assert middleware.observability is hub
        removed = middleware.disable_observability()
        assert removed is hub
        assert middleware.observability is None

    def test_tracing_can_be_disabled_independently(self):
        graph, source, sink = build_chain(n_stages=1)
        hub = ObservabilityHub(time_fn=lambda: 0.0, tracing=False)
        graph.set_instrumentation(hub)
        source.inject(Datum("x", 1, 0.0))
        assert trace_of(sink.last()) is None
        assert hub.component_stats("stage1")["items_in"] == 1


class TestTracingFeature:
    def test_event_log_and_reflection(self):
        graph, source, sink = build_chain(n_stages=1)
        feature = TracingFeature(registry=MetricsRegistry())
        graph.component("stage1").attach_feature(feature)
        source.inject(Datum("x", 1, 2.0))
        events = feature.events()
        assert [(e[1], e[2]) for e in events] == [("in", "x"), ("out", "x")]
        assert feature.last_event()[1] == "out"
        feature.clear()
        assert feature.events() == []
        # The feature's methods surface through the reflective API.
        assert "Tracing.events" in graph.component("stage1").public_methods()

    def test_records_into_explicit_registry(self):
        registry = MetricsRegistry()
        graph, source, sink = build_chain(n_stages=1)
        graph.component("stage1").attach_feature(
            TracingFeature(registry=registry)
        )
        source.inject(Datum("x", 1, 0.0))
        counters = registry.snapshot()["counters"]
        assert (
            counters["feature_events{component=stage1,direction=in}"] == 1
        )

    def test_defaults_to_global_null_registry(self):
        # Without a registry the feature keeps its event log and counts
        # nowhere: not even the graph's own hub gets a feature series.
        graph, source, sink = build_chain(n_stages=1)
        hub = ObservabilityHub(time_fn=lambda: 0.0)
        graph.set_instrumentation(hub)
        feature = TracingFeature()
        graph.component("stage1").attach_feature(feature)
        source.inject(Datum("x", 1, 0.0))
        assert [e[1] for e in feature.events()] == ["in", "out"]
        assert not [
            name
            for _kind, name, _labels, _i in hub.registry.series()
            if name == "feature_events"
        ]

    def test_bounded_event_log(self):
        graph, source, sink = build_chain(n_stages=1)
        feature = TracingFeature(registry=MetricsRegistry(), keep_last=4)
        graph.component("stage1").attach_feature(feature)
        for i in range(10):
            source.inject(Datum("x", i, float(i)))
        assert len(feature.events()) == 4


class TestChannelTracingFeature:
    def test_collects_paths_behind_outputs(self):
        graph, source, sink = build_chain(n_stages=2)
        graph.set_instrumentation(ObservabilityHub(time_fn=lambda: 0.0))
        pcl = ProcessChannelLayer(graph)
        feature = ChannelTracingFeature()
        pcl.attach_feature("src->app", feature)
        for i in range(3):
            source.inject(Datum("x", i, float(i)))
        assert feature.paths() == [["src", "stage1", "stage2"]]
        assert len(feature.traces()) == 3
        assert feature.last_trace().path == ["src", "stage1", "stage2"]

    def test_no_traces_without_tracing(self):
        graph, source, sink = build_chain(n_stages=1)
        pcl = ProcessChannelLayer(graph)
        feature = ChannelTracingFeature()
        pcl.attach_feature("src->app", feature)
        source.inject(Datum("x", 1, 0.0))
        assert feature.traces() == []
        assert feature.last_trace() is None


class TestLayerQueries:
    def test_channel_stats_and_latest_trace(self):
        graph, source, sink = build_chain(n_stages=1)
        graph.set_instrumentation(ObservabilityHub(time_fn=lambda: 0.0))
        pcl = ProcessChannelLayer(graph)
        source.inject(Datum("x", 1, 0.0))
        stats = pcl.channel_metrics("src->app")
        assert stats["outputs_delivered"] == 1
        assert stats["members"]["stage1"]["items_in"] == 1
        [row] = pcl.flow_summary()
        assert row["latest_path"] == ["src", "stage1"]

    def test_psl_component_metrics_validates_name(self):
        from repro.core.graph import GraphError
        from repro.core.psl import ProcessStructureLayer

        graph, source, sink = build_chain(n_stages=1)
        psl = ProcessStructureLayer(graph)
        graph.set_instrumentation(ObservabilityHub(time_fn=lambda: 0.0))
        source.inject(Datum("x", 1, 0.0))
        assert psl.component_metrics("stage1")["items_in"] == 1
        assert "stage1" in psl.component_metrics()
        with pytest.raises(GraphError):
            psl.component_metrics("nope")
