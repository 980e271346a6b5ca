"""The Process Channel Layer (paper §2.2).

"The middle layer is called the Process Channel Layer (PCL) and it is a
view of the position processing where only data sources and merging
processing components and the data-flow between them are represented."

The PCL derives :class:`~repro.core.channel.Channel` objects from the
current graph: one channel per single-strained flow from a PCL node (a
data source or a merge component) to the next PCL node or application.
Channels are "dynamically created when the PerPos middleware assembles
the Processing Components" -- here, recomputed on every topology change,
preserving the channel objects (their logical-time state and attached
Channel Features) whose member chain is unchanged.

Derivation walks the graph's adjacency indexes
(:meth:`~repro.core.graph.ProcessingGraph.upstream_map` /
``downstream_map``) rather than issuing per-node edge scans, and the PCL
registers as the graph's *single* observer for all of its channels: data
events are forwarded through a member-name index to just the channels
whose strand contains the producing/consuming component, so event cost
scales with strand membership, not with the total channel count.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.channel import Channel, ChannelFeature
from repro.core.component import ProcessingComponent
from repro.core.data import Datum
from repro.core.graph import GraphError, GraphObserver, ProcessingGraph

ChannelKey = Tuple[Tuple[str, ...], str]

_NO_CHANNELS: Tuple[Channel, ...] = ()


class ProcessChannelLayer(GraphObserver):
    """Maintains the channel decomposition of the processing graph."""

    def __init__(self, graph: ProcessingGraph) -> None:
        self.graph = graph
        self._channels: Dict[ChannelKey, Channel] = {}
        # Member component name -> channels whose strand contains it;
        # rebuilt with the decomposition, consulted per data event.
        self._member_channels: Dict[str, Tuple[Channel, ...]] = {}
        self._unsubscribe = graph.add_observer(self)
        self._rebuild()

    def close(self) -> None:
        """Stop observing the graph and close every channel."""
        self._unsubscribe()
        for channel in self._channels.values():
            channel.close()
        self._channels.clear()
        self._member_channels = {}

    # -- channel derivation -----------------------------------------------------

    def topology_changed(self, graph: ProcessingGraph) -> None:
        """Graph observation: re-derive the channel decomposition."""
        self._rebuild()

    # -- event forwarding (hot path) --------------------------------------------

    def data_consumed(
        self, component: ProcessingComponent, port_name: str, datum: Datum
    ) -> None:
        """Forward the consume event to the channels containing the member."""
        for channel in self._member_channels.get(component.name, _NO_CHANNELS):
            channel.data_consumed(component, port_name, datum)

    def data_produced(
        self, component: ProcessingComponent, datum: Datum
    ) -> None:
        """Forward the produce event to the channels containing the member."""
        for channel in self._member_channels.get(component.name, _NO_CHANNELS):
            channel.data_produced(component, datum)

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
        wanted = set(self._derive_keys())
        current = set(self._channels)
        for key in current - wanted:
            self._channels.pop(key).close()
        for key in wanted - current:
            member_names, endpoint = key
            members = [self.graph.component(n) for n in member_names]
            self._channels[key] = Channel(
                self.graph, members, endpoint, subscribe=False
            )
        member_channels: Dict[str, List[Channel]] = {}
        for channel in self._channels.values():
            for member in channel.members:
                member_channels.setdefault(member.name, []).append(channel)
        self._member_channels = {
            name: tuple(channels)
            for name, channels in member_channels.items()
        }

    # -- inspection ----------------------------------------------------------------

    def channels(self) -> List[Channel]:
        """All channels, ordered by id for deterministic iteration."""
        return sorted(self._channels.values(), key=lambda c: c.id)

    def channel(self, channel_id: str) -> Channel:
        """Look a channel up by its ``source->endpoint`` id."""
        for ch in self._channels.values():
            if ch.id == channel_id:
                return ch
        raise GraphError(f"no channel {channel_id!r}")

    def channels_into(self, endpoint: str) -> List[Channel]:
        """Channels delivering into the named PCL node."""
        return sorted(
            (c for c in self._channels.values() if c.endpoint == endpoint),
            key=lambda c: c.id,
        )

    def channel_delivering(
        self, consumer: str, producer: str
    ) -> Optional[Channel]:
        """The channel whose last member is ``producer`` feeding ``consumer``.

        This resolves the paper's "current input port" to its channel:
        when a merge component receives a datum it can ask which channel
        carried it (Fig. 5 snippet 1) and fetch that channel's features.
        """
        for ch in self._channels.values():
            if ch.endpoint == consumer and ch.last_component.name == producer:
                return ch
        return None

    def describe(self) -> List[Dict[str, Any]]:
        """Reflective summary of the channel view (Fig. 2, middle layer)."""
        return [ch.describe() for ch in self.channels()]

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
        for channel in self.channels():
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
        for ch in self.channels():
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
