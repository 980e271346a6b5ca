"""The PCL off the per-datum path while no Channel Feature observes.

A channel without a feature reads its output count and latest output
from its last member, so the graph hands the PCL no per-datum event
until a feature is attached.  Every channel surface must still equal a
per-event reference: a subscribed twin ``Channel`` over the same
members, which takes every event from its creation on and keeps
logical time and a history from those events alone.
"""

import pytest

from repro.core.channel import Channel
from repro.core.component import FunctionComponent
from repro.core.data import Datum, Kind
from repro.core.pcl import ProcessChannelLayer
from repro.core.report import infrastructure_snapshot
from tests import test_core_pcl
from tests.test_core_pcl import (
    Recorder,
    TreeRecorder,
    fig1_room_app,
    strand_names,
)


def spy_on_pcl_data_events(monkeypatch, pcl):
    calls = []
    for method in ("data_consumed", "data_produced"):
        monkeypatch.setattr(
            pcl, method, lambda *args, _method=method: calls.append(_method)
        )
    return calls


def twins_of(pcl):
    """A subscribed, full-bookkeeping twin of every derived channel."""
    return {
        (channel.id, tuple(strand_names(channel))): Channel(
            pcl.graph, channel.members, channel.endpoint
        )
        for channel in pcl.channels()
    }


def assert_channels_match(pcl, twins):
    for channel in pcl.channels():
        twin = twins[(channel.id, tuple(strand_names(channel)))]
        # The twin's last-layer logical time counts its output events.
        assert channel.stats()["outputs_delivered"] == twin._counters[-1]
        latest, expected = channel.latest_output(), twin.latest_output()
        if expected is None:
            assert latest is None
            continue
        assert latest.datum is expected.datum
        assert latest.logical_time == expected.logical_time


class TestQuietWithoutFeatures:
    def test_featureless_run_hands_the_pcl_no_data_event(self, monkeypatch):
        middleware, _app = fig1_room_app()
        pcl = middleware.pcl
        calls = spy_on_pcl_data_events(monkeypatch, pcl)
        middleware.run_until(60.0)
        graph = middleware.graph
        assert calls == []
        assert graph._data_observers == ()
        assert all(c._notify_consumed is None for c in graph.components())
        delivered = [c.stats()["outputs_delivered"] for c in pcl.channels()]
        assert sum(count > 0 for count in delivered) >= 4

    def test_a_feature_switches_the_events_on_and_detaching_off(
        self, monkeypatch
    ):
        middleware, _app = fig1_room_app()
        pcl, graph = middleware.pcl, middleware.graph
        pcl.attach_feature("gps->fusion", Recorder())
        assert graph._data_observers == (pcl,)
        assert all(
            c._notify_consumed is not None for c in graph.components()
        )
        pcl.detach_feature("gps->fusion", "Recorder")
        assert graph._data_observers == ()
        calls = spy_on_pcl_data_events(monkeypatch, pcl)
        middleware.run_until(10.0)
        assert calls == []

    def test_counts_are_current_while_an_output_is_delivered(self):
        middleware, app = fig1_room_app()
        pcl = middleware.pcl
        twins = twins_of(pcl)
        delivered = []

        def on_output(datum):
            # The last member records its output before routing it, as
            # a per-event observer hears of it before delivery.
            assert_channels_match(pcl, twins)
            delivered.append(datum)

        app.provider.add_listener(on_output)
        middleware.run_until(30.0)
        assert len(delivered) > 10

    def test_flow_summary_and_report_equal_per_event_twins(self):
        middleware, _app = fig1_room_app()
        middleware.enable_observability()  # traces for flow_summary
        pcl = middleware.pcl
        twins = twins_of(pcl)
        middleware.run_until(45.0)
        assert_channels_match(pcl, twins)
        summary = pcl.flow_summary()
        report = infrastructure_snapshot(middleware)["channels"]
        for index, channel in enumerate(pcl.channels()):
            twin = twins[(channel.id, tuple(strand_names(channel)))]
            delivered = twin._counters[-1]
            assert summary[index]["outputs_delivered"] == delivered
            assert report[index]["outputs_delivered"] == delivered
            trace = twin.latest_trace()
            assert summary[index]["latest_path"] == (
                trace.path if trace else None
            )


@pytest.mark.parametrize("chunk", [1, 4, 17])
class TestBatchedStrand:
    """The GPS strand of ``test_core_pcl``, fed ``chunk`` fragments at a
    time through ``inject_batch`` as an engine lane drains."""

    @staticmethod
    def feed(gps, fragments, start, stop, chunk):
        datums = [
            Datum(Kind.NMEA_RAW, fragments[index], float(index))
            for index in range(start, stop)
        ]
        for first in range(0, len(datums), chunk):
            gps.inject_batch(datums[first : first + chunk])

    @staticmethod
    def layers(tree):
        return [
            [id(element.datum) for element in tree.layer(index)]
            for index in range(tree.depth)
        ]

    def test_counts_equal_the_twin(self, chunk):
        graph, gps, fragments = test_core_pcl.TestMidStreamAttach().build()
        pcl = ProcessChannelLayer(graph)
        twins = twins_of(pcl)
        self.feed(gps, fragments, 0, len(fragments), chunk)
        assert_channels_match(pcl, twins)
        assert pcl.channel("gps->app").stats()["outputs_delivered"] > 5

    @pytest.mark.parametrize("attach_at", [7, 12, 23])
    def test_mid_stream_attach_withholds_exactly_the_trees_with_earlier_data(
        self, chunk, attach_at
    ):
        graph, gps, fragments = test_core_pcl.TestMidStreamAttach().build()
        pcl = ProcessChannelLayer(graph)
        channel = pcl.channel("gps->app")
        twin = Channel(graph, channel.members, "app")
        everything = TreeRecorder()
        twin.attach_feature(everything)
        self.feed(gps, fragments, 0, attach_at, chunk)
        seen_before = {
            id(element.datum) for layer in twin._history for element in layer
        }
        trees_before = len(everything.trees)
        late = TreeRecorder()
        pcl.attach_feature("gps->app", late)
        middle = (attach_at + len(fragments)) // 2
        self.feed(gps, fragments, attach_at, middle, chunk)
        # A tree is withheld exactly when it holds an element from
        # before the attach.
        expected = [
            self.layers(tree)
            for tree in everything.trees[trees_before:]
            if not any(
                element_id in seen_before
                for layer in self.layers(tree)
                for element_id in layer
            )
        ]
        assert [self.layers(tree) for tree in late.trees] == expected
        assert expected
        pcl.detach_feature("gps->app", "TreeRecorder")
        assert not channel.observing
        self.feed(gps, fragments, middle, len(fragments), chunk)
        assert len(late.trees) == len(expected)
        strand = ("gps->app", ("gps", "parser", "interpreter"))
        assert_channels_match(pcl, {strand: twin})


class TestSplice:
    def test_channel_created_by_a_splice_counts_from_the_splice(self):
        middleware, _app = fig1_room_app()
        pcl, graph = middleware.pcl, middleware.graph
        middleware.run_until(20.0)
        wifi = pcl.channel("wifi->fusion")
        wifi_twin = Channel(graph, wifi.members, wifi.endpoint)
        old_gps = pcl.channel("gps->fusion")
        old_count = old_gps.stats()["outputs_delivered"]
        middleware.psl.insert_between(
            "gps-parser",
            "gps-interpreter",
            FunctionComponent(
                "relay",
                (Kind.NMEA_SENTENCE,),
                (Kind.NMEA_SENTENCE,),
                fn=lambda datum: datum,
            ),
        )
        members = [graph.component(name) for name in ("gps", "gps-parser")]
        members += [graph.component("relay"), graph.component("gps-interpreter")]
        twin = Channel(graph, members, "fusion")
        middleware.run_until(50.0)
        # No inspection in between: the channel was derived before the
        # first datum crossed the spliced graph.
        gps = pcl.channel("gps->fusion")
        assert strand_names(gps) == [m.name for m in members]
        assert gps.stats()["outputs_delivered"] == twin._counters[-1] > 0
        assert gps.latest_output().datum is twin.latest_output().datum
        # The replaced channel stopped counting when it was dropped.
        assert old_gps.stats()["outputs_delivered"] == old_count > 0
        # The untouched strand kept its channel, which kept counting.
        assert pcl.channel("wifi->fusion") is wifi
        assert wifi.stats()["outputs_delivered"] > wifi_twin._counters[-1] > 0
