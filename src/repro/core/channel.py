"""Channels and Channel Features (paper §2.2, Fig. 3b).

A Channel is the Process Channel Layer's view of a single-strained
source-to-merge flow: "the connection between components in the PSL are
called Channels and encapsulates the positioning process taking place
between its end points."  While a channel *observes* -- it carries at
least one :class:`ChannelFeature`, or it subscribed to the graph itself
-- it watches its member components, assigns each produced element a
logical time at its layer, tracks which upstream elements each output
consumed, and -- every time the channel delivers an output -- assembles
the :class:`~repro.core.datatree.DataTree` and hands it to every
attached feature via ``apply`` (paper: "The method is called by the
middleware every time the Channel delivers a data element").

Every channel reads its output count and latest output from its last
member, which records both when the graph takes its outputs; the
channel counts from its own creation.  A channel the PCL derived
observes on demand: without a feature it takes no event at all, and
still answers ``latest_output()``, ``stats()`` and the report.
Attaching the first feature (through the PCL or
:meth:`Channel.attach_feature`) starts the bookkeeping; detaching the
last one stops it and frees the histories.
A feature attached mid-stream receives trees only for outputs whose
contributing elements were all observed after the attach: a member
that had consumed inputs without producing yet (an NMEA parser halfway
through a sentence, which the component itself notes) contributes its
next output only to withheld trees.
"""

from __future__ import annotations

import sys
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.core.component import ProcessingComponent
from repro.core.data import Datum
from repro.core.datatree import DataTree, DataTreeElement
from repro.core.features import FeatureError
from repro.core.graph import GraphObserver, ProcessingGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pcl import ProcessChannelLayer

CF = TypeVar("CF", bound="ChannelFeature")

#: Trust bound of a layer whose member held inputs consumed before the
#: bookkeeping began: no element of that layer is complete until the
#: member's next output has flushed them.
_UNTRUSTED = sys.maxsize


class ChannelFeature:
    """A feature spanning several processing steps of one channel.

    Subclasses may set:

    ``name``
        Lookup identity; defaults to the class name.
    ``requires_component_features``
        Component Feature names that some member of the channel must
        provide; checked when the feature is attached (paper §2.2: "the
        feature specifies that it depends on a Processing Component that
        provides the Component Feature which can access ... HDOP").
    ``requires_channel_features``
        Names of Channel Features that must already be attached to the
        same channel ("Input requirements may include Component Features,
        Channel Features, and Processing Components", §2.2).
    ``requires_components``
        Component names (or type names) that must appear among the
        channel's members.

    The one mandatory method is :meth:`apply`, called with the data tree
    behind every channel output.  Any further public methods become part
    of the channel's surface (``channel.get_feature(...)``) -- that is how
    the paper's Likelihood feature offers ``getLikelihood(particle)``.
    """

    name: str = ""
    requires_component_features: Tuple[str, ...] = ()
    requires_channel_features: Tuple[str, ...] = ()
    requires_components: Tuple[str, ...] = ()

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__
        self._channel: Optional["Channel"] = None

    @property
    def channel(self) -> "Channel":
        if self._channel is None:
            raise FeatureError(f"channel feature {self.name} not attached")
        return self._channel

    def _attach(self, channel: "Channel") -> None:
        if self._channel is not None:
            raise FeatureError(
                f"channel feature {self.name} already attached"
            )
        missing = [
            needed
            for needed in self.requires_component_features
            if not any(
                member.has_feature(needed) for member in channel.members
            )
        ]
        if missing:
            raise FeatureError(
                f"channel feature {self.name} requires component features"
                f" {missing} not provided by any member of {channel.id}"
            )
        missing_channel = [
            needed
            for needed in self.requires_channel_features
            if channel.get_feature(needed) is None
        ]
        if missing_channel:
            raise FeatureError(
                f"channel feature {self.name} requires channel features"
                f" {missing_channel} not attached to {channel.id}"
            )
        member_ids = {m.name for m in channel.members} | {
            type(m).__name__ for m in channel.members
        }
        missing_members = [
            needed
            for needed in self.requires_components
            if needed not in member_ids
        ]
        if missing_members:
            raise FeatureError(
                f"channel feature {self.name} requires components"
                f" {missing_members} not present in {channel.id}"
            )
        self._channel = channel
        self.on_attached()

    def _detach(self) -> None:
        self.on_detached()
        self._channel = None

    def on_attached(self) -> None:
        """Hook called after attachment."""

    def on_detached(self) -> None:
        """Hook called before removal."""

    def apply(self, data_tree: DataTree) -> None:
        """Update internal state from the tree behind one channel output."""
        raise NotImplementedError


class Channel(GraphObserver):
    """A single-strained flow from a data source toward a merge point.

    ``members`` run source-first; ``endpoint`` names the PCL node (merge
    component or application) the channel delivers into.  The channel's
    output is whatever ``members[-1]`` produces -- the paper treats a
    Channel Feature as "semantically equivalent to a Component Feature
    attached to the last Processing Component of the Channel".

    ``history_limit`` bounds how many elements are remembered per layer;
    data trees only ever reference recent elements, so the bound exists
    to keep long runs in constant memory.

    With ``subscribe=True`` (the default) the channel registers itself
    as a graph observer and keeps the full bookkeeping from construction
    on, feature or not -- the explicit opt-in for tools.  With
    ``subscribe=False`` the owner (the PCL) routes every event of its
    members to it while it has a feature, and none while it has none
    (see the module docstring).
    """

    def __init__(
        self,
        graph: ProcessingGraph,
        members: Sequence[ProcessingComponent],
        endpoint: str,
        history_limit: int = 512,
        subscribe: bool = True,
        feature_error_limit: int = 64,
    ) -> None:
        if not members:
            raise ValueError("a channel needs at least one member")
        if feature_error_limit < 1:
            raise ValueError("feature_error_limit must be >= 1")
        self.graph = graph
        self.members: List[ProcessingComponent] = list(members)
        self.endpoint = endpoint
        self.history_limit = history_limit
        self.feature_error_limit = feature_error_limit
        self._member_index = {m.name: i for i, m in enumerate(self.members)}
        # Per-layer logical time, advanced while observing; the last
        # layer's goes on from the output count.
        self._counters: List[int] = [0] * len(self.members)
        # The output count and latest output are the last member's
        # records since now (see _output_state); close() freezes them.
        self._base = self.members[-1]._outputs
        self._frozen: Optional[Tuple[int, Optional[Datum]]] = None
        # Per-member bookkeeping, allocated while observing only.
        self._observing = False
        self._pending: List[List[int]] = []
        self._history: List[List[DataTreeElement]] = []
        # Per layer, the lowest logical time whose element's inputs were
        # all observed (see _UNTRUSTED).
        self._trusted: List[int] = []
        # The PCL that routes this channel's events (None if subscribed);
        # told when the first feature arrives or the last one leaves.
        self._owner: Optional["ProcessChannelLayer"] = None
        self._features: List[ChannelFeature] = []
        #: (feature name, exception) pairs from failed ``apply`` calls;
        #: bounded to the most recent ``feature_error_limit`` entries,
        #: so a feature failing per-datum cannot grow memory unboundedly.
        self.feature_errors: List[Tuple[str, Exception]] = []
        #: Total failed ``apply`` calls ever (the buffer above is capped).
        self.feature_error_count: int = 0
        if subscribe:
            self._observe([True] * len(self.members))
            self._unsubscribe = graph.add_observer(self)
        else:
            self._unsubscribe = lambda: None

    # -- identity & inspection ------------------------------------------------

    @property
    def id(self) -> str:
        return f"{self.members[0].name}->{self.endpoint}"

    @property
    def source(self) -> ProcessingComponent:
        return self.members[0]

    @property
    def last_component(self) -> ProcessingComponent:
        return self.members[-1]

    @property
    def observing(self) -> bool:
        """Whether the channel keeps per-member logical time now."""
        return self._observing

    def describe(self) -> Dict[str, Any]:
        """Reflective summary of the channel (Fig. 2 middle layer)."""
        return {
            "id": self.id,
            "members": [m.name for m in self.members],
            "endpoint": self.endpoint,
            "features": [f.name for f in self._features],
            "component_features": {
                m.name: m.provided_feature_names()
                for m in self.members
                if m.features
            },
            "output_kinds": list(self.last_component.output_port.capabilities),
        }

    def close(self) -> None:
        """Stop observing; detach features; freeze the output count."""
        self._unsubscribe()
        for feature in list(self._features):
            self.detach_feature(feature.name)
        self._frozen = self._output_state()

    # -- channel features --------------------------------------------------------

    @property
    def features(self) -> List[ChannelFeature]:
        return list(self._features)

    def attach_feature(self, feature: ChannelFeature) -> None:
        """Attach a Channel Feature after checking its requirements."""
        if any(f.name == feature.name for f in self._features):
            raise FeatureError(
                f"channel {self.id} already has a feature named"
                f" {feature.name!r}"
            )
        feature._attach(self)
        self._features.append(feature)
        if self._owner is not None and len(self._features) == 1:
            self._owner._features_changed(self)

    def detach_feature(self, name: str) -> ChannelFeature:
        """Remove a Channel Feature by name."""
        for feature in self._features:
            if feature.name == name:
                feature._detach()
                self._features.remove(feature)
                if self._owner is not None and not self._features:
                    self._owner._features_changed(self)
                return feature
        raise FeatureError(f"channel {self.id} has no feature {name!r}")

    def get_feature(
        self, key: Union[str, Type[CF]]
    ) -> Optional[ChannelFeature]:
        """Look a channel feature up by name or class.

        This is the call the particle filter makes on its input channel
        (Fig. 5, snippet 1): ``inputChannel.getFeature(Likelihood)``.
        """
        for feature in self._features:
            if isinstance(key, str):
                if feature.name == key:
                    return feature
            elif isinstance(feature, key):
                return feature
        return None

    # -- observation on demand ----------------------------------------------------

    def _observe(self, clean: Sequence[bool]) -> None:
        """Start the per-member bookkeeping.

        ``clean[i]`` says member ``i`` holds no input consumed before
        now; a member that does is untrusted until its next output has
        flushed those inputs.  A source layer needs no inputs.
        """
        layers = range(len(self.members))
        self._pending = [[] for _ in layers]
        self._history = [[] for _ in layers]
        self._trusted = [
            0 if index == 0 or clean[index] else _UNTRUSTED
            for index in layers
        ]
        self._counters[-1] = self._output_state()[0]
        self._observing = True

    def _stop_observing(self) -> None:
        """Back to counting: free the per-member bookkeeping."""
        self._observing = False
        self._pending = []
        self._history = []
        self._trusted = []

    def _output_state(self) -> Tuple[int, Optional[Datum]]:
        """The outputs delivered since the channel was created, and the
        latest one: the last member's records (one owner per count)."""
        if self._frozen is not None:
            return self._frozen
        last = self.members[-1]
        count = last._outputs - self._base
        return count, (last._latest_output if count else None)

    # -- logical time bookkeeping (graph observation) ----------------------------

    def data_consumed(
        self, component: ProcessingComponent, port_name: str, datum: Datum
    ) -> None:
        """Graph observation: track which inputs feed the next output."""
        index = self._member_index.get(component.name)
        if index is None or index == 0:
            return
        upstream = self.members[index - 1].name
        # Only count elements arriving from this channel's own previous
        # layer; merge endpoints also consume from other channels.
        # Feature-added data carries a "component#Feature" producer --
        # only split when the plain name does not already match.
        producer = datum.producer
        if producer != upstream and producer.split("#", 1)[0] != upstream:
            return
        # While a channel observes, the graph hands data off one datum
        # at a time, so the input is its upstream layer's latest output.
        self._pending[index].append(self._counters[index - 1])

    def data_produced(
        self, component: ProcessingComponent, datum: Datum
    ) -> None:
        """Graph observation: assign logical time; deliver data trees."""
        index = self._member_index.get(component.name)
        if index is None:
            return
        counters = self._counters
        counters[index] += 1
        logical_time = counters[index]
        pending = self._pending[index] if index else None
        time_range = (pending[0], pending[-1]) if pending else None
        element = DataTreeElement(
            datum=datum,
            logical_time=logical_time,
            time_range=time_range,
            layer=index,
            producer=datum.producer or component.name,
        )
        history = self._history[index]
        history.append(element)
        if len(history) > self.history_limit:
            del history[: len(history) - self.history_limit]
        # Feature-added data (producer "component#Feature") is emitted
        # *during* the host's produce chain: it annotates the pending
        # inputs but must not consume them, or the host's own output
        # would lose its time range.
        if pending is not None and "#" not in (datum.producer or ""):
            pending.clear()
            if self._trusted[index] == _UNTRUSTED:
                # The inputs held at the start are flushed now.
                self._trusted[index] = logical_time + 1
        if index == len(self.members) - 1:
            self._deliver_output(element)

    def _deliver_output(self, element: DataTreeElement) -> None:
        if not self._features:
            return
        tree = self._assemble(element, self._trusted)
        if tree is None:
            return  # part of the tree predates the bookkeeping
        for feature in list(self._features):
            try:
                feature.apply(tree)
            except Exception as exc:  # noqa: BLE001 - isolation by design
                # Channel Features observe the process; a broken observer
                # must not take the positioning pipeline down with it.
                # Failures are recorded and inspectable (a seam, exposed).
                self.feature_error_count += 1
                errors = self.feature_errors
                errors.append((feature.name, exc))
                if len(errors) > self.feature_error_limit:
                    del errors[: len(errors) - self.feature_error_limit]

    # -- data tree construction ----------------------------------------------------

    def data_tree_for(self, element: DataTreeElement) -> DataTree:
        """Assemble the tree of elements that contributed to ``element``."""
        tree = self._assemble(element, None)
        assert tree is not None  # nothing is rejected without trust bounds
        return tree

    def _assemble(
        self, element: DataTreeElement, trusted: Optional[List[int]]
    ) -> Optional[DataTree]:
        """The tree behind ``element``; None if ``trusted`` rejects a
        layer of it."""
        if trusted is not None and element.logical_time < trusted[element.layer]:
            return None
        layers: List[List[DataTreeElement]] = [[] for _ in self.members]
        layers[element.layer] = [element]
        span: Optional[Tuple[int, int]] = element.time_range
        for index in range(element.layer - 1, -1, -1):
            if span is None:
                break
            low, high = span
            if trusted is not None and low < trusted[index]:
                return None
            selected = [
                e
                for e in self._history[index]
                if low <= e.logical_time <= high
            ]
            layers[index] = selected
            ranges = [e.time_range for e in selected if e.time_range]
            span = (
                (min(r[0] for r in ranges), max(r[1] for r in ranges))
                if ranges
                else None
            )
        names = [m.name for m in self.members]
        return DataTree(layers[: element.layer + 1], names[: element.layer + 1])

    def latest_output(self) -> Optional[DataTreeElement]:
        """The channel's most recent output element, if any.

        While the channel only counts, the element carries no time
        range: which inputs it consumed was not tracked.
        """
        if self._observing and self._history[-1]:
            return self._history[-1][-1]
        count, datum = self._output_state()
        if datum is None:
            return None
        last = len(self.members) - 1
        return DataTreeElement(
            datum=datum,
            logical_time=count,
            time_range=None,
            layer=last,
            producer=datum.producer or self.members[last].name,
        )

    # -- runtime observability ------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Live runtime statistics for this channel.

        Combines the channel's own output count and feature errors with
        the per-member metrics of the graph's observability hub when one
        is installed.  The member section is empty while observability
        is disabled.
        """
        hub = self.graph.instrumentation
        return {
            "id": self.id,
            "outputs_delivered": self._output_state()[0],
            "feature_errors": self.feature_error_count,
            "members": (
                {
                    m.name: hub.component_stats(m.name)
                    for m in self.members
                }
                if hub is not None
                else {}
            ),
        }

    def latest_trace(self):
        """Flow trace carried by the latest output datum, if tracing is on."""
        from repro.observability.tracing import trace_of

        datum = self._output_state()[1]
        return trace_of(datum) if datum is not None else None

    def __repr__(self) -> str:
        return f"Channel({self.id!r}, members={len(self.members)})"
