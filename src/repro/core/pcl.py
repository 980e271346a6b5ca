"""The Process Channel Layer (paper §2.2).

"The middle layer is called the Process Channel Layer (PCL) and it is a
view of the position processing where only data sources and merging
processing components and the data-flow between them are represented."

The PCL derives :class:`~repro.core.channel.Channel` objects from the
current graph: one channel per single-strained flow from a PCL node (a
data source or a merge component) to the next PCL node or application.
Channels are "dynamically created when the PerPos middleware assembles
the Processing Components" -- here on demand: a topology change only
marks the decomposition stale, and the next data event or inspection
call re-derives it once, however many changes came in between (a graph
built with N add/connect calls is derived once, not N times).
Re-derivation preserves the channel objects (their logical-time state
and attached Channel Features) whose member chain is unchanged.

Derivation walks the graph's adjacency indexes
(:meth:`~repro.core.graph.ProcessingGraph.upstream_map` /
``downstream_map``) rather than issuing per-node edge scans, and the PCL
registers as the graph's *single* observer for all of its channels.
Observation is on demand too: a channel with a Channel Feature receives
every event of its members (through a member-name index) and keeps
logical time; a channel without one only receives its last member's
outputs, which it counts.  Translucency thus costs nothing per member
until a feature uses it.  The PCL itself notes which members hold
consumed inputs not yet followed by an output, so a feature attached
mid-stream is never handed a tree with elements from before the attach
(see :mod:`repro.core.channel`).

Channels are ordered by ``(id, member names)``.  A channel id names the
strand's head and endpoint only, so two strands between the same PCL
nodes share one (the Fig. 1 app's ``fusion->room-app`` is both
``[fusion]`` and ``[fusion, resolver]``); looking such an id up raises
and names the candidates, and :meth:`ProcessChannelLayer.channel_delivering`
tells them apart.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.channel import Channel, ChannelFeature
from repro.core.component import ProcessingComponent
from repro.core.data import Datum
from repro.core.graph import GraphError, GraphObserver, ProcessingGraph

ChannelKey = Tuple[Tuple[str, ...], str]


class ProcessChannelLayer(GraphObserver):
    """Maintains the channel decomposition of the processing graph."""

    def __init__(self, graph: ProcessingGraph) -> None:
        self.graph = graph
        self._channels: Dict[ChannelKey, Channel] = {}
        # The channels in (id, member names) order.
        self._ordered: List[Channel] = []
        # Member name -> channels with a feature whose strand contains
        # it; last member name -> channels without one.  Rebuilt with the
        # decomposition and whenever a channel gains its first feature
        # or loses its last; consulted per data event.
        self._observed: Dict[str, Tuple[Channel, ...]] = {}
        self._counted: Dict[str, Tuple[Channel, ...]] = {}
        # Components that consumed since their last output (the inputs
        # their next output will carry).
        self._holding: Set[str] = set()
        self._stale = True
        self._unsubscribe = graph.add_observer(self)

    def close(self) -> None:
        """Stop observing the graph and close every channel."""
        self._unsubscribe()
        for channel in self._channels.values():
            channel._owner = None
            channel.close()
        self._channels.clear()
        self._ordered = []
        self._observed = {}
        self._counted = {}
        self._holding.clear()
        self._stale = False

    # -- channel derivation -----------------------------------------------------

    def topology_changed(self, graph: ProcessingGraph) -> None:
        """Graph observation: the decomposition is stale."""
        self._stale = True

    # -- event forwarding (hot path) --------------------------------------------

    def data_consumed(
        self, component: ProcessingComponent, port_name: str, datum: Datum
    ) -> None:
        """Forward the consume event to the observing channels of the member."""
        if self._stale:
            self._rebuild()
        name = component.name
        self._holding.add(name)
        channels = self._observed.get(name)
        if channels is not None:
            for channel in channels:
                channel.data_consumed(component, port_name, datum)

    def data_produced(
        self, component: ProcessingComponent, datum: Datum
    ) -> None:
        """Forward the produce event: every observing channel of the
        member keeps logical time, every counting channel it ends counts."""
        if self._stale:
            self._rebuild()
        name = component.name
        # Feature-added data ("component#Feature") leaves the inputs held.
        if "#" not in (datum.producer or ""):
            self._holding.discard(name)
        channels = self._observed.get(name)
        if channels is not None:
            for channel in channels:
                channel.data_produced(component, datum)
        channels = self._counted.get(name)
        if channels is not None:
            for channel in channels:
                channel._count_output(datum)

    # -- derivation internals ---------------------------------------------------

    def _classify(
        self,
        name: str,
        upstream: Mapping[str, Sequence[str]],
        downstream: Mapping[str, Sequence[str]],
    ) -> bool:
        """PCL nodes: data sources, merge components, and applications.

        Components flagged ``pcl_node`` (fusion by role) count as merge
        components regardless of their current in-degree.
        """
        if self.graph.component(name).pcl_node:
            return True
        if len(upstream.get(name, ())) != 1:
            return True  # source (0) or merge (>= 2)
        return not downstream.get(name)  # application/sink

    def _derive_keys(self) -> List[ChannelKey]:
        graph = self.graph
        upstream = graph.upstream_map()
        downstream = graph.downstream_map()
        is_pcl_node = {
            component.name: self._classify(
                component.name, upstream, downstream
            )
            for component in graph.components()
        }
        # Forget components that left the graph.
        self._holding.intersection_update(is_pcl_node)
        keys = []
        for name, node_is_pcl in is_pcl_node.items():
            if not node_is_pcl:
                continue
            # Walk each inbound strand up to the previous PCL node.
            for producer in upstream.get(name, ()):
                chain = [producer]
                node = producer
                while not is_pcl_node[node]:
                    node = upstream[node][0]
                    chain.append(node)
                keys.append((tuple(reversed(chain)), name))
        return keys

    def _rebuild(self) -> None:
        self._stale = False
        graph = self.graph
        wanted = set(self._derive_keys())
        for key in list(self._channels):
            channel = self._channels[key]
            # A member replaced by a namesake makes the channel stale too.
            if key not in wanted or any(
                graph.component(member.name) is not member
                for member in channel.members
            ):
                del self._channels[key]
                channel._owner = None
                channel.close()
        for key in wanted:
            if key in self._channels:
                continue
            member_names, endpoint = key
            members = [graph.component(n) for n in member_names]
            channel = Channel(graph, members, endpoint, subscribe=False)
            channel._owner = self
            self._channels[key] = channel
        self._ordered = sorted(
            self._channels.values(),
            key=lambda c: (c.id, [m.name for m in c.members]),
        )
        self._reindex()

    def _reindex(self) -> None:
        observed: Dict[str, List[Channel]] = {}
        counted: Dict[str, List[Channel]] = {}
        for channel in self._ordered:
            if channel.observing:
                for member in channel.members:
                    observed.setdefault(member.name, []).append(channel)
            else:
                counted.setdefault(channel.last_component.name, []).append(
                    channel
                )
        self._observed = {
            name: tuple(channels) for name, channels in observed.items()
        }
        self._counted = {
            name: tuple(channels) for name, channels in counted.items()
        }

    def _features_changed(self, channel: Channel) -> None:
        """A channel gained its first feature or lost its last one."""
        if channel.features:
            holding = self._holding
            channel._observe(
                [member.name not in holding for member in channel.members]
            )
        else:
            channel._stop_observing()
        self._reindex()

    def _current(self) -> List[Channel]:
        """The channels, re-derived first if the topology changed."""
        if self._stale:
            self._rebuild()
        return self._ordered

    # -- inspection ----------------------------------------------------------------

    def channels(self) -> List[Channel]:
        """All channels, ordered by (id, member names)."""
        return list(self._current())

    def channel(self, channel_id: str) -> Channel:
        """Look a channel up by its ``source->endpoint`` id.

        Raises :class:`GraphError` if no channel has the id, or if two
        strands share it (use :meth:`channel_delivering` for those).
        """
        matches = [ch for ch in self._current() if ch.id == channel_id]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise GraphError(f"no channel {channel_id!r}")
        candidates = "; ".join(
            " -> ".join(m.name for m in ch.members) for ch in matches
        )
        raise GraphError(
            f"channel id {channel_id!r} names {len(matches)} channels"
            f" ({candidates}); pick one with channel_delivering(consumer,"
            f" producer)"
        )

    def channels_into(self, endpoint: str) -> List[Channel]:
        """Channels delivering into the named PCL node."""
        return [c for c in self._current() if c.endpoint == endpoint]

    def channel_delivering(
        self, consumer: str, producer: str
    ) -> Optional[Channel]:
        """The channel whose last member is ``producer`` feeding ``consumer``.

        This resolves the paper's "current input port" to its channel:
        when a merge component receives a datum it can ask which channel
        carried it (Fig. 5 snippet 1) and fetch that channel's features.
        """
        for ch in self._current():
            if ch.endpoint == consumer and ch.last_component.name == producer:
                return ch
        return None

    def describe(self) -> List[Dict[str, Any]]:
        """Reflective summary of the channel view (Fig. 2, middle layer)."""
        return [ch.describe() for ch in self._current()]

    # -- runtime observability ------------------------------------------------

    def channel_metrics(self, channel_id: str) -> Dict[str, Any]:
        """Live runtime statistics for one channel (see ``Channel.stats``)."""
        return self.channel(channel_id).stats()

    def flow_summary(self) -> List[Dict[str, Any]]:
        """Outputs delivered + latest flow trace per channel.

        The channel-layer view of runtime behaviour: how much each
        strand has delivered, how often its Channel Features failed, and
        the concrete component path behind its most recent output (None
        while tracing is disabled).
        """
        summary = []
        for channel in self._current():
            trace = channel.latest_trace()
            summary.append(
                {
                    "id": channel.id,
                    "outputs_delivered": channel.stats()[
                        "outputs_delivered"
                    ],
                    "feature_errors": channel.feature_error_count,
                    "latest_path": trace.path if trace else None,
                }
            )
        return summary

    def render(self) -> str:
        """ASCII rendering of the channel view."""
        lines = []
        for ch in self._current():
            features = (
                " [" + ", ".join(f.name for f in ch.features) + "]"
                if ch.features
                else ""
            )
            path = " -> ".join(m.name for m in ch.members)
            lines.append(f"{path} ==> {ch.endpoint}{features}")
        return "\n".join(lines)

    # -- channel features --------------------------------------------------------------

    def attach_feature(self, channel_id: str, feature: ChannelFeature) -> None:
        """Attach a Channel Feature to the identified channel."""
        self.channel(channel_id).attach_feature(feature)

    def detach_feature(
        self, channel_id: str, feature_name: str
    ) -> ChannelFeature:
        """Detach a Channel Feature from the identified channel."""
        return self.channel(channel_id).detach_feature(feature_name)
