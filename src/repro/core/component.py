"""Processing Components: the nodes of the PerPos processing graph.

Paper §2.1: "Processing Components consist of three main elements: input
ports, output port and implementation of functionality.  A Processing
Component has a single output port and may have multiple input ports. ...
To make sure that port connections are realizable Processing Components
must declare requirements for input ports and define a set of provided
capabilities for output ports."

A component receives data on its input ports, runs it through the
Component Feature ``consume`` chain, processes it, and sends results out
through the feature ``produce`` chain to whatever the graph has connected
downstream.  Components never talk to each other directly -- delivery is
the graph's job -- which is what keeps the structure reifiable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.core.data import Datum
from repro.core.features import ComponentFeature, FeatureError

F = TypeVar("F", bound=ComponentFeature)


class ComponentError(Exception):
    """Raised on illegal component configuration or use."""


@dataclass
class InputPort:
    """A declared input requirement of a component.

    ``accepts`` lists the data kinds deliverable to this port.  Kinds of
    feature-added data must be listed explicitly -- a port that does not
    name ``"hdop"`` never sees HDOP datums (paper §2.1, Adding Data).
    ``required_features`` names Component Features the upstream component
    must provide before a connection to this port is realisable.
    ``multiple`` marks fusion-style ports that bind every compatible
    producer during automatic assembly; ``optional`` ports do not count
    as unresolved while unconnected.
    """

    name: str
    accepts: Tuple[str, ...]
    required_features: Tuple[str, ...] = ()
    optional: bool = False
    multiple: bool = False

    def __post_init__(self) -> None:
        # The accept-set is treated as immutable after construction (the
        # graph's routing tables key on it); frozen once here so the
        # per-delivery kind check is set membership, not a tuple scan.
        self._accepts_set = frozenset(self.accepts)

    def accepts_kind(self, kind: str) -> bool:
        return kind in self._accepts_set


@dataclass
class OutputPort:
    """The single output of a component: the kinds it can produce."""

    capabilities: Tuple[str, ...]

    def __post_init__(self) -> None:
        # Frozen once for O(1) capability checks on the produce path;
        # capability changes go through replacing the port object
        # (see ``ProcessingComponent.attach_feature``).
        self._capabilities_set = frozenset(self.capabilities)

    def can_produce(self, kind: str) -> bool:
        return kind in self._capabilities_set


class ProcessingComponent(abc.ABC):
    """A node in the processing graph.

    Subclasses declare ports and implement :meth:`process`.  All data
    movement goes through :meth:`receive_batch` (inbound, called by the
    graph) and :meth:`produce_batch` (outbound), so the feature
    interception chain and graph observation see everything;
    :meth:`receive` and :meth:`produce` are batches of one.

    ``pcl_node`` marks components that *merge or re-derive* data by role
    (fusion engines, particle filters): the Process Channel Layer treats
    them as channel endpoints even while only one source happens to feed
    them, matching the paper's "components that merge data sources".
    """

    pcl_node: bool = False

    def __init__(
        self,
        name: str,
        inputs: Sequence[InputPort],
        output: OutputPort,
    ) -> None:
        names = [port.name for port in inputs]
        if len(set(names)) != len(names):
            raise ComponentError(f"duplicate input port names on {name}")
        self.name = name
        self._inputs: Dict[str, InputPort] = {p.name: p for p in inputs}
        self._base_capabilities = tuple(output.capabilities)
        self.output_port = OutputPort(tuple(output.capabilities))
        self._features: List[ComponentFeature] = []
        # The graph's hand-off (instrument, notify observers, route),
        # wired at attach time and rewired to go one datum at a time
        # while some graph observer takes per-datum events; None while
        # detached.
        self._deliver_batch: Optional[Callable[[List[Datum]], None]] = None
        self._observer: Optional["ComponentObserver"] = None
        # The graph's consume-event fan-out, wired only while some graph
        # observer takes per-datum events; None otherwise.
        self._notify_consumed: Optional[
            Callable[["ProcessingComponent", str, Datum], None]
        ] = None
        # Outputs handed to the graph (feature-added data included) and
        # the latest one: channels read them from their last member.
        # The graph's hand-off records them, and clears _holding, only
        # while it has a subscribed observer: without one no channel
        # reads them (fused chains, which skip the hand-off, only
        # compile then too).
        self._outputs = 0
        self._latest_output: Optional[Datum] = None
        # Whether inputs consumed since this component's last own output
        # are held (a parser halfway through a sentence): a Channel
        # Feature attached now must not get the tree they end up in.
        self._holding = False

    # -- structure ---------------------------------------------------------

    @property
    def input_ports(self) -> List[InputPort]:
        return list(self._inputs.values())

    def input_port(self, name: str) -> InputPort:
        """Look an input port up by name."""
        try:
            return self._inputs[name]
        except KeyError:
            raise ComponentError(
                f"component {self.name} has no input port {name!r}"
            ) from None

    @property
    def is_source(self) -> bool:
        return not self._inputs

    def describe(self) -> Dict[str, Any]:
        """Reflective summary used by the PSL inspection API."""
        return {
            "name": self.name,
            "type": type(self).__name__,
            "inputs": {
                p.name: {
                    "accepts": list(p.accepts),
                    "required_features": list(p.required_features),
                }
                for p in self._inputs.values()
            },
            "capabilities": list(self.output_port.capabilities),
            "features": [f.name for f in self._features],
            "methods": self.public_methods(),
        }

    # -- durability ---------------------------------------------------------

    def state_snapshot(self) -> Optional[Dict[str, Any]]:
        """Mutable runtime state for the durability seam, or None.

        Components are stateless by default; stateful ones (sinks,
        filters with history) override this pair so snapshots capture
        what replay alone cannot reconstruct.
        """
        return None

    def state_restore(self, state: Dict[str, Any]) -> None:
        """Reinstall state captured by :meth:`state_snapshot`."""

    def export_target_state(self, target_id: str) -> Any:
        """Remove and return the state kept for one tracked target.

        The warm-handoff seam: a lane migrating to another engine
        carries what components remember per target, so the
        destination's components resume where the source's stopped.
        Components without per-target state return None (the default);
        the returned value must pickle, because process shards send it
        over a pipe.
        """
        return None

    def install_target_state(self, target_id: str, state: Any) -> None:
        """Reinstall state removed by :meth:`export_target_state`."""

    def public_methods(self) -> List[str]:
        """All public methods, including ones added by features."""
        own = [
            name
            for name in dir(type(self))
            if not name.startswith("_")
            and callable(getattr(self, name, None))
        ]
        for feature in self._features:
            own.extend(
                f"{feature.name}.{m}" for m in feature.exposed_methods()
            )
        return sorted(own)

    # -- features (paper Fig. 3a) -------------------------------------------

    @property
    def features(self) -> List[ComponentFeature]:
        return list(self._features)

    def attach_feature(self, feature: ComponentFeature) -> None:
        """Attach a Component Feature, extending the output capabilities."""
        if any(f.name == feature.name for f in self._features):
            raise FeatureError(
                f"component {self.name} already has a feature named"
                f" {feature.name!r}"
            )
        feature._attach(self)
        self._features.append(feature)
        extra = tuple(
            k
            for k in feature.provides
            if k not in self.output_port.capabilities
        )
        self.output_port = OutputPort(self.output_port.capabilities + extra)
        if self._observer is not None:
            self._observer.component_reconfigured(self)

    def detach_feature(self, name: str) -> ComponentFeature:
        """Remove a feature by name, restoring base capabilities."""
        for feature in self._features:
            if feature.name == name:
                feature._detach()
                self._features.remove(feature)
                self._recompute_capabilities()
                if self._observer is not None:
                    self._observer.component_reconfigured(self)
                return feature
        raise FeatureError(f"component {self.name} has no feature {name!r}")

    def _recompute_capabilities(self) -> None:
        caps = list(self._base_capabilities)
        for feature in self._features:
            caps.extend(k for k in feature.provides if k not in caps)
        self.output_port = OutputPort(tuple(caps))

    def get_feature(
        self, key: Union[str, Type[F]]
    ) -> Optional[ComponentFeature]:
        """Look a feature up by name or by class."""
        for feature in self._features:
            if isinstance(key, str):
                if feature.name == key:
                    return feature
            elif isinstance(feature, key):
                return feature
        return None

    def has_feature(self, key: Union[str, Type[ComponentFeature]]) -> bool:
        """Whether a feature with this name/class is attached."""
        return self.get_feature(key) is not None

    def provided_feature_names(self) -> List[str]:
        """Names of all attached features."""
        return [f.name for f in self._features]

    # -- data flow -----------------------------------------------------------

    def receive(self, port_name: str, datum: Datum) -> None:
        """Deliver one datum to an input port: a batch of one.

        The hub's and the supervisor's per-datum steps call this.
        """
        self.receive_batch(port_name, (datum,))

    def receive_batch(self, port_name: str, datums: Sequence[Datum]) -> None:
        """Deliver a batch of datums to one input port.

        The component's one consume body and the graph's delivery seam:
        the graph's routing loop,
        :meth:`~repro.core.graph.ProcessingGraph.route_batch`, hands a
        whole batch over in one call (a produced datum is a batch of
        one).  Each datum, in order, passes the port's kind check, the
        Component Feature ``consume`` chain and the consume event (made
        only while a graph observer takes per-datum events), then
        :meth:`process`.  Datums ``process`` *returns* leave together in
        one :meth:`produce_batch` after the batch; datums it passes to
        :meth:`produce` leave at once.

        Contract: a batch delivery must be observationally equivalent to
        delivering the same datums one by one -- same feature-chain
        decisions, same observer events, same outputs -- up to the
        interleaving order across fan-out branches (a batch flows
        stage-by-stage instead of datum-by-datum).
        """
        port = self._inputs.get(port_name)
        if port is None:
            self.input_port(port_name)  # raises with the right message
        accepts = port._accepts_set
        features = self._features
        process = self.process
        out: List[Datum] = []
        for datum in datums:
            if datum.kind not in accepts:
                raise ComponentError(
                    f"port {self.name}.{port_name} does not accept kind"
                    f" {datum.kind!r}"
                )
            if features:
                vetoed = None
                for feature in features:
                    intercepted = feature.consume(datum)
                    if intercepted is None:
                        vetoed = feature.name
                        break
                    if intercepted.kind != datum.kind:
                        raise FeatureError(
                            f"feature {feature.name} changed data kind"
                            f" {datum.kind!r} -> {intercepted.kind!r}"
                        )
                    datum = intercepted
                if vetoed is not None:
                    if self._observer is not None:
                        self._observer.data_dropped(
                            self, port_name, datum, vetoed
                        )
                    continue
            self._holding = True
            if self._notify_consumed is not None:
                self._notify_consumed(self, port_name, datum)
            result = process(port_name, datum)
            if result is None:
                continue
            if isinstance(result, Datum):
                out.append(result)
            else:
                out.extend(result)
        if out:
            self.produce_batch(out)

    @abc.abstractmethod
    def process(
        self, port_name: str, datum: Datum
    ) -> Union[None, Datum, Iterable[Datum]]:
        """Handle one datum.

        Results either go to :meth:`produce` (they leave at once) or are
        returned (``None``, a datum, or an iterable of datums; they
        leave with the rest of the batch's results).
        """

    def produce(self, datum: Datum) -> None:
        """Send one datum out through the output port: a batch of one."""
        self.produce_batch((datum,))

    def produce_batch(self, datums: Sequence[Datum]) -> None:
        """Send a batch of datums out through the output port.

        The component's one produce body.  Per datum: the capability
        check (producing a kind outside the output port's capabilities
        is a contract violation and raises), producer stamping, and the
        feature ``produce`` chain; then the surviving batch goes to the
        graph in one hand-off, so downstream delivery stays batched.  A
        detached component runs the same checks and drops the batch.
        """
        capabilities = self.output_port._capabilities_set
        features = self._features
        name = self.name
        out: List[Datum] = []
        for datum in datums:
            if datum.kind not in capabilities:
                raise ComponentError(
                    f"component {self.name} declared capabilities"
                    f" {list(self.output_port.capabilities)}, cannot"
                    f" produce kind {datum.kind!r}"
                )
            if not datum.producer:
                datum = datum.from_producer(name)
            if features:
                vetoed = False
                for feature in features:
                    intercepted = feature.produce(datum)
                    if intercepted is None:
                        vetoed = True
                        break
                    if intercepted.kind != datum.kind:
                        raise FeatureError(
                            f"feature {feature.name} changed data kind"
                            f" {datum.kind!r} -> {intercepted.kind!r}"
                        )
                    datum = intercepted
                if vetoed:
                    continue
            out.append(datum)
        deliver_batch = self._deliver_batch
        if out and deliver_batch is not None:
            deliver_batch(out)

    def fused_fn(
        self,
    ) -> Optional[Callable[[Datum], Union[None, Datum, Iterable[Datum]]]]:
        """The component's flat per-datum step, or ``None``.

        The opt-in seam of plan compilation
        (:mod:`repro.core.compile`): a component returning a plain
        ``datum -> None | Datum | iterable`` callable here declares that
        calling it is equivalent to ``receive`` + ``process`` +
        ``produce`` *minus* the graph hand-off -- no port side effects,
        no reliance on ``self._deliver_batch``.  Components with richer
        delivery semantics return ``None`` (the default) and stay
        interpreted.
        """
        return None

    def emit_feature_data(self, datum: Datum) -> None:
        """Emit feature-added data, bypassing the produce hooks.

        Called by :meth:`ComponentFeature.add_data`; the capability was
        added to the output port when the feature attached.
        """
        if not self.output_port.can_produce(datum.kind):
            raise ComponentError(
                f"feature data kind {datum.kind!r} not in capabilities of"
                f" {self.name}"
            )
        deliver_batch = self._deliver_batch
        if deliver_batch is not None:
            deliver_batch([datum])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ComponentObserver(abc.ABC):
    """Receives component-level data events; implemented by the graph."""

    @abc.abstractmethod
    def data_consumed(
        self, component: ProcessingComponent, port_name: str, datum: Datum
    ) -> None: ...

    def data_dropped(
        self,
        component: ProcessingComponent,
        port_name: str,
        datum: Datum,
        feature_name: str,
    ) -> None:
        """A Component Feature vetoed an inbound datum; default no-op."""

    def component_reconfigured(
        self, component: ProcessingComponent
    ) -> None:
        """The component's features/ports changed in place; default
        no-op.  The graph uses this to invalidate its compiled dispatch
        plan without a structural mutation."""


class SourceComponent(ProcessingComponent):
    """A leaf node: no inputs, produces data injected from outside.

    Sensor adapters push readings in via :meth:`inject`.
    """

    def __init__(self, name: str, capabilities: Sequence[str]) -> None:
        super().__init__(name, inputs=(), output=OutputPort(tuple(capabilities)))

    def process(self, port_name: str, datum: Datum) -> None:
        raise ComponentError(f"source {self.name} has no inputs")

    def inject(self, datum: Datum) -> None:
        """Feed externally generated data into the graph."""
        self.produce(datum)

    def inject_batch(self, datums: Sequence[Datum]) -> None:
        """Feed a batch of externally generated data into the graph.

        The entry point of the batched dispatch path: ingestion queues
        drain into it, and the whole batch travels stage-by-stage
        downstream.
        """
        self.produce_batch(datums)


class FunctionComponent(ProcessingComponent):
    """A component defined by a plain function.

    ``fn(datum) -> None | Datum | iterable of Datum``; :meth:`process`
    returns the result, so a batch's results leave together, in order.
    Handy for small filters and adapters, and for
    tests that need throwaway components.
    """

    def __init__(
        self,
        name: str,
        accepts: Sequence[str],
        capabilities: Sequence[str],
        fn: Callable[[Datum], Union[None, Datum, Iterable[Datum]]],
        required_features: Sequence[str] = (),
    ) -> None:
        super().__init__(
            name,
            inputs=(
                InputPort(
                    "in",
                    tuple(accepts),
                    required_features=tuple(required_features),
                ),
            ),
            output=OutputPort(tuple(capabilities)),
        )
        self._fn = fn

    def process(
        self, port_name: str, datum: Datum
    ) -> Union[None, Datum, Iterable[Datum]]:
        return self._fn(datum)

    def fused_fn(
        self,
    ) -> Optional[Callable[[Datum], Union[None, Datum, Iterable[Datum]]]]:
        """``fn`` itself -- a stock FunctionComponent is exactly a flat
        per-datum step.  Subclasses that override any piece of the data
        path fall back to ``None``: the identity checks below make the
        opt-in conservative rather than optimistic."""
        cls = type(self)
        if (
            cls.process is FunctionComponent.process
            and cls.receive is ProcessingComponent.receive
            and cls.receive_batch is ProcessingComponent.receive_batch
            and cls.produce is ProcessingComponent.produce
            and cls.produce_batch is ProcessingComponent.produce_batch
        ):
            return self._fn
        return None


class ApplicationSink(ProcessingComponent):
    """The root of the processing tree: the application receiving data.

    Collects everything delivered to it and notifies registered
    listeners.  The Positioning Layer wraps one of these per provider.
    """

    def __init__(
        self, name: str, accepts: Sequence[str], keep_last: int = 1000
    ) -> None:
        super().__init__(
            name,
            inputs=(InputPort("in", tuple(accepts)),),
            output=OutputPort(()),
        )
        self._keep_last = keep_last
        self.received: List[Datum] = []
        self._listeners: List[Callable[[Datum], None]] = []

    def process(self, port_name: str, datum: Datum) -> None:
        received = self.received
        received.append(datum)
        if len(received) > self._keep_last:
            del received[: len(received) - self._keep_last]
        if self._listeners:
            for listener in list(self._listeners):
                listener(datum)

    def state_snapshot(self) -> Optional[Dict[str, Any]]:
        """Received history (raw datums); listeners are not serialised."""
        return {"received": list(self.received)}

    def state_restore(self, state: Dict[str, Any]) -> None:
        received = list(state["received"])
        if len(received) > self._keep_last:
            del received[: len(received) - self._keep_last]
        self.received = received

    def add_listener(
        self, listener: Callable[[Datum], None]
    ) -> Callable[[], None]:
        self._listeners.append(listener)

        def _remove() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return _remove

    def last(self, kind: Optional[str] = None) -> Optional[Datum]:
        """Most recent datum, optionally restricted to one kind."""
        for datum in reversed(self.received):
            if kind is None or datum.kind == kind:
                return datum
        return None
