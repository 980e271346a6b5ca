"""Tests for the Process Channel Layer: derivation and maintenance."""

import pytest

from repro.core import Kind, PerPos
from repro.core.channel import Channel, ChannelFeature
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
from repro.core.pcl import ProcessChannelLayer
from repro.core.report import infrastructure_snapshot
from repro.geo.grid import GridPosition
from repro.model.demo import demo_building, demo_radio_environment
from repro.processing.interpreter import NmeaInterpreterComponent
from repro.processing.parser import NmeaParserComponent
from repro.processing.pipelines import build_room_app
from repro.runtime import PositioningEngine, RoundRobinScheduler
from repro.sensors.gps import INDOOR, OPEN_SKY, GpsReceiver
from repro.sensors.trajectory import Waypoint, WaypointTrajectory
from repro.sensors.wifi import WifiScanner


def passthrough(name):
    return FunctionComponent(name, ("x",), ("x",), fn=lambda d: d)


def build_fig2_like_graph():
    """Two sources -> per-source chains -> merge -> app (Fig. 2 shape)."""
    graph = ProcessingGraph()
    gps = SourceComponent("gps", ("x",))
    wifi = SourceComponent("wifi", ("x",))
    parser = passthrough("parser")
    interpreter = passthrough("interpreter")
    merge = passthrough("filter")  # will have two upstreams
    app = ApplicationSink("app", ("x",))
    for c in (gps, wifi, parser, interpreter, merge, app):
        graph.add(c)
    graph.connect("gps", "parser")
    graph.connect("parser", "interpreter")
    graph.connect("interpreter", "filter")
    graph.connect("wifi", "filter")
    graph.connect("filter", "app")
    return graph


class Recorder(ChannelFeature):
    name = "Recorder"

    def __init__(self):
        super().__init__()
        self.count = 0

    def apply(self, tree):
        self.count += 1


class TestDerivation:
    def test_channels_of_fig2_graph(self):
        pcl = ProcessChannelLayer(build_fig2_like_graph())
        ids = [c.id for c in pcl.channels()]
        assert ids == ["filter->app", "gps->filter", "wifi->filter"]

    def test_channel_members(self):
        pcl = ProcessChannelLayer(build_fig2_like_graph())
        gps_channel = pcl.channel("gps->filter")
        assert [m.name for m in gps_channel.members] == [
            "gps",
            "parser",
            "interpreter",
        ]
        assert gps_channel.endpoint == "filter"

    def test_merge_channel_single_member(self):
        pcl = ProcessChannelLayer(build_fig2_like_graph())
        merged = pcl.channel("filter->app")
        assert [m.name for m in merged.members] == ["filter"]

    def test_channels_into(self):
        pcl = ProcessChannelLayer(build_fig2_like_graph())
        into_filter = pcl.channels_into("filter")
        assert [c.id for c in into_filter] == ["gps->filter", "wifi->filter"]

    def test_channel_delivering(self):
        pcl = ProcessChannelLayer(build_fig2_like_graph())
        channel = pcl.channel_delivering("filter", "interpreter")
        assert channel is not None and channel.id == "gps->filter"
        assert pcl.channel_delivering("filter", "parser") is None

    def test_unknown_channel(self):
        pcl = ProcessChannelLayer(build_fig2_like_graph())
        with pytest.raises(GraphError):
            pcl.channel("ghost->app")

    def test_describe_and_render(self):
        pcl = ProcessChannelLayer(build_fig2_like_graph())
        descriptions = pcl.describe()
        assert len(descriptions) == 3
        text = pcl.render()
        assert "gps -> parser -> interpreter ==> filter" in text


class TestTopologyMaintenance:
    def test_new_component_updates_channels(self):
        graph = build_fig2_like_graph()
        pcl = ProcessChannelLayer(graph)
        stage = passthrough("extra")
        graph.insert_between("parser", "interpreter", stage)
        gps_channel = pcl.channel("gps->filter")
        assert [m.name for m in gps_channel.members] == [
            "gps",
            "parser",
            "extra",
            "interpreter",
        ]

    def test_unchanged_channels_preserve_features(self):
        graph = build_fig2_like_graph()
        pcl = ProcessChannelLayer(graph)
        feature = Recorder()
        pcl.attach_feature("wifi->filter", feature)
        # Modify the *other* strand; the wifi channel object must survive.
        graph.insert_between("parser", "interpreter", passthrough("extra"))
        assert pcl.channel("wifi->filter").get_feature("Recorder") is feature

    def test_changed_channel_is_replaced(self):
        graph = build_fig2_like_graph()
        pcl = ProcessChannelLayer(graph)
        feature = Recorder()
        pcl.attach_feature("gps->filter", feature)
        graph.insert_between("parser", "interpreter", passthrough("extra"))
        # The gps channel was rebuilt; the feature is gone with the old one.
        assert pcl.channel("gps->filter").get_feature("Recorder") is None

    def test_removed_strand_drops_channel(self):
        graph = build_fig2_like_graph()
        pcl = ProcessChannelLayer(graph)
        graph.disconnect("wifi", "filter")
        graph.remove("wifi")
        ids = [c.id for c in pcl.channels()]
        assert "wifi->filter" not in ids

    def test_close_stops_updates(self):
        graph = build_fig2_like_graph()
        pcl = ProcessChannelLayer(graph)
        pcl.close()
        assert pcl.channels() == []


class TestDataFlowThroughChannels:
    def test_feature_sees_only_its_strand(self):
        graph = build_fig2_like_graph()
        pcl = ProcessChannelLayer(graph)
        gps_recorder = Recorder()
        wifi_recorder = Recorder()
        pcl.attach_feature("gps->filter", gps_recorder)
        pcl.attach_feature("wifi->filter", wifi_recorder)
        graph.component("gps").inject(Datum("x", 1, 0.0))
        graph.component("gps").inject(Datum("x", 2, 1.0))
        graph.component("wifi").inject(Datum("x", 3, 2.0))
        assert gps_recorder.count == 2
        assert wifi_recorder.count == 1


class TreeRecorder(ChannelFeature):
    name = "TreeRecorder"

    def __init__(self):
        super().__init__()
        self.trees = []

    def apply(self, tree):
        self.trees.append(tree)


def fig1_room_app(middleware=None):
    """The Fig. 1 room app, built but not run."""
    building = demo_building()
    grid = building.grid
    trajectory = WaypointTrajectory(
        [
            Waypoint(0.0, grid.to_wgs84(GridPosition(-30.0, 7.5))),
            Waypoint(30.0, grid.to_wgs84(GridPosition(-2.0, 7.5))),
            Waypoint(50.0, grid.to_wgs84(GridPosition(15.0, 7.5))),
        ]
    )

    def sky(_t, position):
        inside = building.contains(grid.to_grid(position))
        return INDOOR if inside else OPEN_SKY

    gps = GpsReceiver("gps", trajectory, sky, seed=11)
    wifi = WifiScanner(
        "wifi", trajectory, demo_radio_environment(building), grid, seed=12
    )
    middleware = middleware or PerPos()
    app = build_room_app(middleware, gps, wifi, building)
    return middleware, app


def strand_names(channel):
    return [m.name for m in channel.members]


class TestDuplicateChannelIds:
    """Fig. 1: ``fusion->room-app`` names ``[fusion]`` and
    ``[fusion, resolver]``."""

    def test_both_strands_listed_in_member_order(self):
        middleware, _app = fig1_room_app()
        pcl = middleware.pcl
        shared = [c for c in pcl.channels() if c.id == "fusion->room-app"]
        assert [strand_names(c) for c in shared] == [
            ["fusion"],
            ["fusion", "resolver"],
        ]
        assert pcl.render().splitlines()[:2] == [
            "fusion ==> room-app",
            "fusion -> resolver ==> room-app",
        ]
        assert [strand_names(c) for c in pcl.channels_into("room-app")] == [
            ["fusion"],
            ["fusion", "resolver"],
        ]

    def test_ambiguous_id_lookup_raises_and_names_candidates(self):
        middleware, _app = fig1_room_app()
        pcl = middleware.pcl
        for lookup in (
            lambda: pcl.channel("fusion->room-app"),
            lambda: pcl.channel_metrics("fusion->room-app"),
            lambda: pcl.attach_feature("fusion->room-app", Recorder()),
        ):
            with pytest.raises(GraphError) as raised:
                lookup()
            message = str(raised.value)
            assert "fusion -> resolver" in message
            assert "channel_delivering" in message
        assert pcl.channel("gps->fusion").endpoint == "fusion"

    def test_channel_delivering_tells_the_strands_apart(self):
        middleware, _app = fig1_room_app()
        pcl = middleware.pcl
        via_resolver = pcl.channel_delivering("room-app", "resolver")
        direct = pcl.channel_delivering("room-app", "fusion")
        assert strand_names(via_resolver) == ["fusion", "resolver"]
        assert strand_names(direct) == ["fusion"]
        feature = Recorder()
        via_resolver.attach_feature(feature)
        middleware.run_until(20.0)
        assert feature.count == via_resolver.stats()["outputs_delivered"] > 0

    def test_order_does_not_follow_derivation_history(self):
        middleware, _app = fig1_room_app()
        pcl = middleware.pcl
        before = [(c.id, strand_names(c)) for c in pcl.channels()]
        # Cut and re-add the direct strand: derived after the resolver's.
        middleware.graph.disconnect("fusion", "room-app")
        assert len(pcl.channels()) == len(before) - 1
        middleware.graph.connect("fusion", "room-app")
        assert [(c.id, strand_names(c)) for c in pcl.channels()] == before


def spy_on_channel_events(monkeypatch):
    """Count Channel.data_consumed/data_produced calls, by owner."""
    calls = {"derived": 0, "standalone": 0}
    for method in ("data_consumed", "data_produced"):
        original = getattr(Channel, method)

        def spy(self, *args, _original=original):
            calls["derived" if self._owner is not None else "standalone"] += 1
            return _original(self, *args)

        monkeypatch.setattr(Channel, method, spy)
    return calls


class TestObservationOnDemand:
    """The PCL observes a channel's members only while it has a feature."""

    def test_featureless_run_counts_without_member_events(self, monkeypatch):
        calls = spy_on_channel_events(monkeypatch)
        middleware, _app = fig1_room_app()
        middleware.enable_observability()  # traces for flow_summary
        graph = middleware.graph
        pcl = middleware.pcl
        # Full-bookkeeping twins of every derived channel: the reference.
        twins = {
            (c.id, tuple(strand_names(c))): Channel(
                graph, c.members, c.endpoint
            )
            for c in pcl.channels()
        }
        middleware.run_until(60.0)
        assert calls["derived"] == 0
        assert calls["standalone"] > 0
        summary = pcl.flow_summary()
        report = infrastructure_snapshot(middleware)["channels"]
        for index, channel in enumerate(pcl.channels()):
            twin = twins[(channel.id, tuple(strand_names(channel)))]
            assert not channel.observing and twin.observing
            delivered = twin.stats()["outputs_delivered"]
            assert channel.stats()["outputs_delivered"] == delivered
            assert report[index]["outputs_delivered"] == delivered
            assert summary[index]["outputs_delivered"] == delivered
            latest, expected = channel.latest_output(), twin.latest_output()
            if expected is None:
                assert latest is None
                continue
            assert latest.datum is expected.datum
            assert (latest.logical_time, latest.layer, latest.producer) == (
                expected.logical_time,
                expected.layer,
                expected.producer,
            )
            assert summary[index]["latest_path"] == twin.latest_trace().path
        assert sum(s["outputs_delivered"] > 0 for s in summary) >= 4

    def test_derivation_is_deferred_to_first_use(self, monkeypatch):
        middleware = PerPos()
        pcl = middleware.pcl
        derivations = []
        original = pcl._derive_keys

        def counting():
            derivations.append(1)
            return original()

        monkeypatch.setattr(pcl, "_derive_keys", counting)
        graph = middleware.graph
        mutations = []

        class TopologyCounter(GraphObserver):
            def topology_changed(self, graph):
                mutations.append(1)

        graph.add_observer(TopologyCounter())
        fig1_room_app(middleware)
        assert len(mutations) > 10
        assert derivations == []
        middleware.run_until(5.0)
        assert len(derivations) == 1
        pcl.channels()
        pcl.render()
        assert len(derivations) == 1
        graph.disconnect("fusion", "room-app")
        graph.connect("fusion", "room-app")
        assert len(derivations) == 1
        assert len(pcl.channels()) == 4
        assert len(derivations) == 2

    def test_detaching_the_last_feature_returns_to_counting(self):
        middleware, _app = fig1_room_app()
        graph = middleware.graph
        pcl = middleware.pcl
        channel = pcl.channel("gps->fusion")
        twin = Channel(graph, channel.members, channel.endpoint)
        first, second = TreeRecorder(), Recorder()
        pcl.attach_feature("gps->fusion", first)
        channel.attach_feature(second)
        middleware.run_until(20.0)
        assert channel.observing and channel._history[0]
        channel.detach_feature("Recorder")
        assert channel.observing  # one feature left
        pcl.detach_feature("gps->fusion", "TreeRecorder")
        assert not channel.observing
        assert channel._history == [] and channel._pending == []
        middleware.run_until(40.0)
        assert len(first.trees) == second.count > 0
        assert (
            channel.stats()["outputs_delivered"]
            == twin.stats()["outputs_delivered"]
            > second.count
        )
        assert channel.latest_output().datum is twin.latest_output().datum

    def test_standalone_subscribed_channel_keeps_full_bookkeeping(self):
        middleware, _app = fig1_room_app()
        graph = middleware.graph
        members = middleware.pcl.channel("gps->fusion").members
        channel = Channel(graph, members, "fusion")
        assert channel.observing
        middleware.run_until(10.0)
        latest = channel.latest_output()
        assert latest.time_range is not None
        tree = channel.data_tree_for(latest)
        assert tree.depth == 3 and tree.layer(0) and tree.layer(1)


class TestMidStreamAttach:
    """A feature attached mid-stream gets only trees it saw all of."""

    def build(self):
        graph = ProcessingGraph()
        gps = SourceComponent("gps", (Kind.NMEA_RAW,))
        parser = NmeaParserComponent(name="parser")
        interpreter = NmeaInterpreterComponent(name="interpreter")
        app = ApplicationSink("app", (Kind.POSITION_WGS84,))
        for component in (gps, parser, interpreter, app):
            graph.add(component)
        graph.connect("gps", "parser")
        graph.connect("parser", "interpreter")
        graph.connect("interpreter", "app")
        start = GridPosition(0.0, 0.0)
        grid = demo_building().grid
        receiver = GpsReceiver(
            "gps",
            WaypointTrajectory(
                [
                    Waypoint(0.0, grid.to_wgs84(start)),
                    Waypoint(60.0, grid.to_wgs84(GridPosition(60.0, 0.0))),
                ]
            ),
            seed=3,
        )
        fragments = [reading.payload for reading in receiver.sample(40.0)]
        return graph, gps, fragments

    @staticmethod
    def layers(tree):
        return [[e.datum for e in tree.layer(i)] for i in range(tree.depth)]

    def test_partial_sentence_withheld_then_trees_match_reference(self):
        graph, gps, fragments = self.build()
        pcl = ProcessChannelLayer(graph)
        channel = pcl.channel("gps->app")
        reference = Channel(graph, channel.members, "app")
        everything = TreeRecorder()
        reference.attach_feature(everything)
        fed = 0
        # Feed past a few fixes, then stop where the parser has consumed
        # a fragment without completing its sentence.
        while fed < 12 or not reference._pending[1]:
            gps.inject(Datum(Kind.NMEA_RAW, fragments[fed], float(fed)))
            fed += 1
        before_attach = {id(d) for d in (e.datum for e in reference._history[0])}
        outputs_before = len(everything.trees)
        late = TreeRecorder()
        channel.attach_feature(late)
        for index in range(fed, len(fragments)):
            gps.inject(Datum(Kind.NMEA_RAW, fragments[index], float(index)))
        after = everything.trees[outputs_before:]
        assert len(after) > 5
        # Withheld outputs form a prefix; the first one carried a
        # fragment consumed before the attach.
        withheld = len(after) - len(late.trees)
        assert withheld >= 1
        assert any(
            id(e.datum) in before_attach for e in after[0].layer(0)
        )
        for mine, parents in zip(late.trees, after[withheld:]):
            assert mine.root.datum is parents.root.datum
            assert self.layers(mine) == self.layers(parents)
            assert not any(
                id(e.datum) in before_attach for e in mine.layer(0)
            )

    def test_attach_before_any_data_sees_every_tree(self):
        graph, gps, fragments = self.build()
        pcl = ProcessChannelLayer(graph)
        channel = pcl.channel("gps->app")
        reference = Channel(graph, channel.members, "app")
        everything, mine = TreeRecorder(), TreeRecorder()
        reference.attach_feature(everything)
        channel.attach_feature(mine)
        for index, fragment in enumerate(fragments):
            gps.inject(Datum(Kind.NMEA_RAW, fragment, float(index)))
        assert len(mine.trees) == len(everything.trees) > 5
        for a, b in zip(mine.trees, everything.trees):
            assert self.layers(a) == self.layers(b)


class TestBatchedDataTrees:
    """Fig. 4 trees do not depend on how a strand's input is batched.

    Every engine lane drains through ``inject_batch``; while a Channel
    Feature observes, the graph hands each batch on one datum at a time.
    """

    @staticmethod
    def payload_layers(tree):
        return [[e.datum.payload for e in tree.layer(i)] for i in range(tree.depth)]

    @staticmethod
    def gps_trees(chunk, parser_feature=None):
        """The GPS strand's trees, its fragments fed ``chunk`` at a time
        (one at a time through ``inject`` when ``chunk`` is 1), with
        ``parser_feature`` attached to the parser if given."""
        graph, gps, fragments = TestMidStreamAttach().build()
        if parser_feature is not None:
            graph.component("parser").attach_feature(parser_feature())
        recorder = TreeRecorder()
        ProcessChannelLayer(graph).channel("gps->app").attach_feature(recorder)
        datums = [
            Datum(Kind.NMEA_RAW, fragment, float(index))
            for index, fragment in enumerate(fragments)
        ]
        for start in range(0, len(datums), chunk):
            if chunk == 1:
                gps.inject(datums[start])
            else:
                gps.inject_batch(datums[start : start + chunk])
        return [TestMidStreamAttach.layers(tree) for tree in recorder.trees]

    @pytest.mark.parametrize("chunk", [2, 3, 5, 17])
    def test_batched_feeding_gives_the_per_datum_trees(self, chunk):
        expected = self.gps_trees(1)
        assert len(expected) > 5
        assert self.gps_trees(chunk) == expected

    @pytest.mark.parametrize("chunk", [2, 3, 5, 17])
    def test_a_replacing_consume_feature_keeps_the_per_datum_trees(self, chunk):
        """The parser consumes a copy of each fragment, not the datum the
        graph delivered; each input still lands in its own tree."""

        class Replacing(ComponentFeature):
            def consume(self, datum):
                return datum.annotated(seen=True)

        expected = self.gps_trees(1, Replacing)
        assert len(expected) > 5
        assert self.gps_trees(chunk, Replacing) == expected

    @staticmethod
    def lane_round_trees(lanes, coalesced, returns):
        """src -> double -> app under a Channel Feature, fed two datums
        per lane: through one engine round (every lane enters at
        ``src``, so the round is one batch) or lane by lane.  ``double``
        returns its result or passes it to ``produce``."""

        class Double(ProcessingComponent):
            def __init__(self):
                super().__init__(
                    "double", (InputPort("in", ("x",)),), OutputPort(("x",))
                )

            def process(self, port_name, datum):
                result = Datum("x", datum.payload * 2, 0.0)
                if returns:
                    return result
                self.produce(result)

        graph = ProcessingGraph()
        graph.add(SourceComponent("src", ("x",)))
        graph.add(Double())
        graph.add(ApplicationSink("app", ("x",)))
        graph.connect("src", "double")
        graph.connect("double", "app")
        recorder = TreeRecorder()
        ProcessChannelLayer(graph).channel("src->app").attach_feature(recorder)
        feeds = [
            [Datum("x", 2 * lane + index, 0.0) for index in range(2)]
            for lane in range(lanes)
        ]
        if coalesced:
            engine = PositioningEngine(
                graph, scheduler=RoundRobinScheduler(quantum=2), stamp_targets=False
            )
            for lane, feed in enumerate(feeds):
                engine.track(f"t{lane}", "src")
                for datum in feed:
                    engine.submit(f"t{lane}", datum)
            assert engine.drain_round() == 2 * lanes
        else:
            for feed in feeds:
                graph.component("src").inject_batch(feed)
        return [TestBatchedDataTrees.payload_layers(tree) for tree in recorder.trees]

    @pytest.mark.parametrize("returns", [False, True], ids=["produces", "returns"])
    @pytest.mark.parametrize("lanes", [300, 600])
    def test_a_coalesced_round_gives_the_per_lane_trees(self, lanes, returns):
        expected = self.lane_round_trees(lanes, coalesced=False, returns=returns)
        assert len(expected) == 2 * lanes
        assert expected[-1] == [[2 * lanes - 1], [4 * lanes - 2]]
        assert self.lane_round_trees(lanes, coalesced=True, returns=returns) == expected

    @staticmethod
    def arithmetic_trees(batched):
        """src -> double -> inc, fed 0, 1, 2 as one batch or one by one."""
        graph = ProcessingGraph()
        graph.add(SourceComponent("src", ("x",)))
        graph.add(
            FunctionComponent(
                "double", ("x",), ("x",), fn=lambda d: Datum("x", d.payload * 2, 0.0)
            )
        )
        graph.add(
            FunctionComponent(
                "inc", ("x",), ("x",), fn=lambda d: Datum("x", d.payload + 1, 0.0)
            )
        )
        graph.add(ApplicationSink("app", ("x",)))
        graph.connect("src", "double")
        graph.connect("double", "inc")
        graph.connect("inc", "app")
        recorder = TreeRecorder()
        ProcessChannelLayer(graph).channel("src->app").attach_feature(recorder)
        datums = [Datum("x", value, 0.0) for value in range(3)]
        source = graph.component("src")
        if batched:
            source.inject_batch(datums)
        else:
            for datum in datums:
                source.inject(datum)
        return [TestBatchedDataTrees.payload_layers(tree) for tree in recorder.trees]

    @staticmethod
    def triples_graph():
        """src (kinds x, y) -> triples -> app, where ``triples`` produces
        the payloads of every three inputs it consumed, in their order."""

        class Triples(ProcessingComponent):
            def __init__(self):
                super().__init__(
                    "triples", (InputPort("in", ("x", "y")),), OutputPort(("x",))
                )
                self.held = []

            def process(self, port_name, datum):
                self.held.append(datum.payload)
                if len(self.held) == 3:
                    self.produce(Datum("x", tuple(self.held), 0.0))
                    self.held = []

        graph = ProcessingGraph()
        graph.add(SourceComponent("src", ("x", "y")))
        graph.add(Triples())
        graph.add(ApplicationSink("app", ("x",)))
        graph.connect("src", "triples")
        graph.connect("triples", "app")
        return graph

    @staticmethod
    def mixed_batch():
        return [Datum("x", 0, 0.0), Datum("y", 1, 0.0), Datum("x", 2, 0.0)]

    def test_observed_batch_reaches_a_consumer_one_datum_at_a_time(self):
        """Under a Channel Feature every hand-off is a batch of one, so a
        mixed-kind batch reaches the consumer in submission order."""
        graph = self.triples_graph()
        recorder = TreeRecorder()
        ProcessChannelLayer(graph).channel("src->app").attach_feature(recorder)
        graph.component("src").inject_batch(self.mixed_batch())
        [tree] = recorder.trees
        assert self.payload_layers(tree) == [[0, 1, 2], [(0, 1, 2)]]

    def test_unobserved_batch_reaches_a_consumer_one_kind_group_at_a_time(self):
        """Without an observer the batch stays whole: routing takes it one
        kind group at a time."""
        graph = self.triples_graph()
        ProcessChannelLayer(graph)  # subscribed, but no feature observes
        graph.component("src").inject_batch(self.mixed_batch())
        assert [d.payload for d in graph.component("app").received] == [(0, 2, 1)]

    def test_per_datum_function_component_trees(self):
        assert self.arithmetic_trees(batched=False) == [
            [[0], [0], [1]],
            [[1], [2], [3]],
            [[2], [4], [5]],
        ]

    def test_batched_function_component_trees_match_per_datum(self):
        assert self.arithmetic_trees(batched=True) == self.arithmetic_trees(
            batched=False
        )
