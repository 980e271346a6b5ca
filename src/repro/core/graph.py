"""The reified processing graph and its manipulation API.

Paper §2: "the PerPos middleware is designed around the central idea of
representing individual steps of the actual positioning process explicitly
as a directed acyclic graph based on the flow of information from sensors
to application code."  §2.1: "Applications can manipulate the composition
of components in the tree through the API of the PSL, e.g., insert,
delete and connect."

This graph *is* the positioning process -- there is no second, shadow
structure to keep causally connected: components hand produced data to the
graph, and the graph routes it along the current edge set.  Manipulating
the graph therefore changes the live process, which is exactly the causal
connection the paper's reflection design calls for.

Dispatch fast path
------------------
Reflection makes the *structure* mutable; it must not make every datum
pay for that mutability.  The graph therefore keeps the authoritative
edge set (`_connections`, the slow/reflective representation: an
insertion-ordered dict, so the duplicate check in :meth:`connect` is
one lookup) with **adjacency indexes** (``upstream``/``downstream``
name maps) backing traversal, the cycle check, channel derivation and
source/sink/merge queries.  The adjacency indexes always equal their
rebuild from the edge set: :meth:`add` leaves them alone,
:meth:`connect` appends its edge in place, and the removals rebuild
them.  Assembling a graph therefore costs time linear in its size.
On top sit derived, lazily rebuilt indexes used on the per-datum hot
path:

* a **routing table** keyed by producer name whose entries carry the
  consumer component object, the port name, and the port's accept-set;
* a per-``(producer, kind)`` **route memo** of the entries that accept
  that kind, so steady-state routing is one dict lookup;
* cached **reachability** (``descendants``/``ancestors``).

Routing has one loop, :meth:`ProcessingGraph.route_batch`; a produced
datum is a batch of one.  Route resolution happens once per
``(producer, kind)`` group, and each memo entry carries its consumer's
**composed delivery** -- ``consumer.receive_batch``, the hub's or the
supervisor's ``deliver_batch``, or the run routine of the fused chain
the consumer heads -- built once when the entry is memoized, so the
loop body is one ``deliver(group)`` call with no branch on hub,
supervisor or chain.  The scale-out runtime's ingestion queues drain
into the same loop.

The derived indexes are invalidated by a single monotonically increasing
**topology version** bumped by every structural mutation
(``add``/``remove``/``connect``/``disconnect`` and the operations built
on them).  Reflective manipulation stays exactly as expressive -- it
just pays the (lazy) rebuild once per mutation instead of a linear scan
per datum.  Input-port accept-sets are treated as immutable after
component construction, which is what makes the memo sound.

On top of the indexes sits the **compiled dispatch plan**
(:mod:`repro.core.compile`): maximal linear chains of
single-in/single-out components are fused into
:class:`~repro.core.compile.FusedChain` super-steps, and a consumer
heading a chain gets the chain's run routine as its composed delivery,
so steady-state routing jumps a whole chain with one lookup.  The plan
is keyed on a **plan epoch** bumped by every structural mutation *and*
by the reflection seams that leave the topology alone -- feature
attach/detach, hub/supervisor install, observer (un)subscription --
via :meth:`ProcessingGraph.invalidate_plan`, which also drops the route
memo, so the next route recomposes every delivery.  Whenever reflection
is live, routing falls back to the interpreted walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.compile import CompiledPlan, FusedChain, compile_plan
from repro.core.component import ComponentObserver, ProcessingComponent
from repro.core.data import Datum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.observability.instrumentation import ObservabilityHub
    from repro.robustness.supervision import Supervisor
    from repro.runtime.engine import PositioningEngine


class GraphError(Exception):
    """Raised on illegal graph manipulation."""


@dataclass(frozen=True)
class Connection:
    """A directed edge: producer's output into one consumer input port."""

    producer: str
    consumer: str
    port: str


#: One precompiled routing-table entry: the live consumer component, the
#: input port name, and the port's accept-set frozen for O(1) matching.
RouteEntry = Tuple[ProcessingComponent, str, FrozenSet[str]]

#: A consumer's composed delivery: called with a same-kind group of
#: datums, it runs that consumer's whole hand-off for them.
Delivery = Callable[[List[Datum]], None]

#: One memoized route: the live consumer and its composed delivery.
MemoEntry = Tuple[ProcessingComponent, Delivery]


class GraphObserver:
    """Callbacks for observing the live graph; all optional.

    Channels (PCL) subscribe to reconstruct logical time; the overhead
    ablation benchmark subscribes to count traffic.  The three ``data_*``
    callbacks are per-datum events, handed only to observers that take
    them (see :meth:`ProcessingGraph.add_observer`); every subscribed
    observer gets ``topology_changed`` and ``flow_resumed``.
    """

    def data_consumed(
        self, component: ProcessingComponent, port_name: str, datum: Datum
    ) -> None:  # pragma: no cover - default no-op
        pass

    def data_produced(
        self, component: ProcessingComponent, datum: Datum
    ) -> None:  # pragma: no cover - default no-op
        pass

    def data_dropped(
        self,
        component: ProcessingComponent,
        port_name: str,
        datum: Datum,
        feature_name: str,
    ) -> None:  # pragma: no cover - default no-op
        pass

    def topology_changed(self, graph: "ProcessingGraph") -> None:  # pragma: no cover
        pass

    def flow_resumed(self, graph: "ProcessingGraph") -> None:
        """Data is about to move for the first time since the topology
        last changed or an observer subscribed: called once, before
        that hand-off.  A view derived lazily from the topology (the
        PCL's channels) derives here, so no datum crosses a changed
        graph before its view does."""


class ProcessingGraph(ComponentObserver):
    """A mutable DAG of processing components with synchronous delivery."""

    def __init__(self) -> None:
        self._components: Dict[str, ProcessingComponent] = {}
        # The edge set, in insertion order (values unused).
        self._connections: Dict[Connection, None] = {}
        # Adjacency, kept equal to its rebuild from the edge set.
        self._upstream_index: Dict[str, List[str]] = {}
        self._downstream_index: Dict[str, List[str]] = {}
        self._observers: List[GraphObserver] = []
        # Subscribed observers that take no per-datum events now.
        self._quiet: List[GraphObserver] = []
        # Immutable fan-out snapshots, rebuilt on (un)subscription and
        # on observe_data only; the hot path iterates them without a
        # per-event list copy.  The first holds every subscribed
        # observer, the second those handed per-datum events.
        self._observer_tuple: Tuple[GraphObserver, ...] = ()
        self._data_observers: Tuple[GraphObserver, ...] = ()
        # Whether the next hand-off must announce flow_resumed (a
        # topology change or subscription since the last one).
        self._unannounced: bool = False
        # Optional runtime instrumentation; None keeps the hot path bare.
        self._instrumentation: Optional["ObservabilityHub"] = None
        # Optional failure supervision; None keeps the hot path bare.
        self._supervisor: Optional["Supervisor"] = None
        # Optional scale-out runtime engine (ingestion queues + fair
        # scheduler); never consulted on the per-datum hot path.
        self._engine: Optional["PositioningEngine"] = None
        # -- derived indexes (dispatch fast path) -------------------------
        # Bumped by every structural mutation; compared by in-flight
        # routing loops to detect reentrant manipulation.
        self._version: int = 0
        self._routing: Optional[Dict[str, List[RouteEntry]]] = None
        self._route_memo: Dict[
            Tuple[str, str], Tuple[MemoEntry, ...]
        ] = {}
        self._descendants_cache: Dict[str, FrozenSet[str]] = {}
        self._ancestors_cache: Dict[str, FrozenSet[str]] = {}
        # -- compiled dispatch plan (repro.core.compile) -------------------
        # The plan epoch covers strictly more than the topology version:
        # reflection seams that leave the structure alone (feature
        # attach/detach, hub/supervisor install, observers) bump it too.
        self._compile_enabled: bool = True
        self._plan: Optional[CompiledPlan] = None
        self._plan_epoch: int = 0
        self._plan_invalidations: int = 0
        # Fused super-step executions (chain entries, not member hops);
        # kept as a plain int so bare graphs pay no instrument lookup.
        self._fused_dispatches: int = 0

    # -- instrumentation ------------------------------------------------------

    @property
    def instrumentation(self) -> Optional["ObservabilityHub"]:
        """The installed observability hub, or None while disabled."""
        return self._instrumentation

    def set_instrumentation(
        self, hub: Optional["ObservabilityHub"]
    ) -> Optional["ObservabilityHub"]:
        """Install (or, with None, remove) the observability hub.

        Returns the previously installed hub.  The hub immediately
        receives the current topology so its gauges start correct.
        """
        previous = self._instrumentation
        self._instrumentation = hub
        # Fusion eligibility (tracing gate), the chains' cached hub
        # instruments and the composed deliveries depend on the hub.
        self.invalidate_plan()
        if hub is not None:
            hub.topology_changed(
                len(self._components), len(self._connections), self._version
            )
        return previous

    # -- supervision ----------------------------------------------------------

    @property
    def supervisor(self) -> Optional["Supervisor"]:
        """The installed supervisor, or None while supervision is off."""
        return self._supervisor

    def set_supervisor(
        self, supervisor: Optional["Supervisor"]
    ) -> Optional["Supervisor"]:
        """Install (or, with None, remove) the failure supervisor.

        Returns the previously installed supervisor.  While one is
        installed every delivery crosses
        :meth:`~repro.robustness.supervision.Supervisor.deliver`; while
        none is, the composed deliveries do not mention it at all.
        """
        previous = self._supervisor
        self._supervisor = supervisor
        # Supervision gates fusion entirely: every delivery must cross
        # the supervised boundary (breakers, quarantine, isolation).
        self.invalidate_plan()
        return previous

    # -- scale-out runtime -----------------------------------------------------

    @property
    def engine(self) -> Optional["PositioningEngine"]:
        """The installed runtime engine, or None while scale-out is off."""
        return self._engine

    def set_engine(
        self, engine: Optional["PositioningEngine"]
    ) -> Optional["PositioningEngine"]:
        """Install (or, with None, remove) the scale-out runtime engine.

        Returns the previously installed engine.  Unlike the hub and the
        supervisor the engine sits *in front of* the graph -- queues and
        the scheduler feed :meth:`route_batch` -- so installing one costs
        the per-datum path nothing.  An engine binds itself here on
        construction, so the PSL, the infrastructure report and a
        durability manager built on this graph all reach the same one.
        """
        previous = self._engine
        self._engine = engine
        return previous

    # -- derived indexes -------------------------------------------------------

    @property
    def topology_version(self) -> int:
        """Monotonic counter, bumped by every structural mutation."""
        return self._version

    def _invalidate(self) -> None:
        """Structural mutation: bump the version, drop derived indexes.

        The adjacency indexes are not derived lazily: each mutation
        keeps them current itself.
        """
        # The plan goes first: even if a later step failed, no stale
        # fused chain may survive a structural mutation.
        self.invalidate_plan()
        self._version += 1
        self._routing = None
        if self._descendants_cache:
            self._descendants_cache = {}
        if self._ancestors_cache:
            self._ancestors_cache = {}

    def invalidate_plan(self) -> None:
        """Reflection went live: decompile, drop chain-bearing memos.

        Bumped-epoch comparison is what lets an in-flight
        :class:`~repro.core.compile.FusedChain` detect mid-delivery
        mutation and decompile on the spot; the route memo is dropped
        with the plan because its entries embed the chains and the
        deliveries composed from the hub and the supervisor.  Called by
        every structural mutation (via :meth:`_invalidate`) and by the
        non-structural reflection seams: feature attach/detach
        (:meth:`component_reconfigured`), hub/supervisor install,
        observer (un)subscription, and :meth:`set_compilation`.
        """
        self._plan_epoch += 1
        self._plan = None
        self._plan_invalidations += 1
        if self._route_memo:
            self._route_memo = {}
        hub = self._instrumentation
        if hub is not None:
            hub.plan_invalidated()

    def _compiled_plan(self) -> CompiledPlan:
        """The current plan, compiling lazily at the live epoch."""
        plan = self._plan
        if plan is None or plan.epoch != self._plan_epoch:
            plan = self._plan = compile_plan(self)
            hub = self._instrumentation
            if hub is not None:
                hub.plan_compiled(
                    len(plan.chains),
                    sum(len(c.members) for c in plan.chains.values()),
                )
        return plan

    def set_compilation(self, enabled: bool) -> bool:
        """Enable/disable plan compilation; returns the previous setting.

        Disabling forces every delivery onto the interpreted walk --
        the translucency escape hatch (and what the E14 benchmark uses
        as its interpreted baseline).
        """
        previous = self._compile_enabled
        if previous != enabled:
            self._compile_enabled = enabled
            self.invalidate_plan()
        return previous

    def plan_snapshot(self) -> Dict[str, Any]:
        """Reflective summary of the compiled plan (compiles if stale)."""
        snapshot = self._compiled_plan().describe()
        snapshot.update(
            enabled=self._compile_enabled,
            invalidations=self._plan_invalidations,
            fused_dispatches=self._fused_dispatches,
        )
        return snapshot

    def _routing_table(self) -> Dict[str, List[RouteEntry]]:
        table = self._routing
        if table is None:
            table = {}
            components = self._components
            for connection in self._connections:
                consumer = components[connection.consumer]
                port = consumer.input_port(connection.port)
                table.setdefault(connection.producer, []).append(
                    (consumer, connection.port, frozenset(port.accepts))
                )
            self._routing = table
        return table

    def _route_entries(
        self, producer: str, kind: str
    ) -> Tuple[MemoEntry, ...]:
        # Compose each consumer's delivery while building its memo
        # entry, so the routing loop never branches on hub, supervisor
        # or chain.  Installing either seam drops the memo (via
        # invalidate_plan): an in-flight loop keeps the deliveries it
        # started with, and the next route composes fresh ones.
        chains = self._compiled_plan().chains
        entries = tuple(
            (consumer, self._compose_delivery(consumer, port_name, chains))
            for consumer, port_name, accepts in self._routing_table().get(
                producer, ()
            )
            if kind in accepts
        )
        self._route_memo[(producer, kind)] = entries
        return entries

    def _compose_delivery(
        self,
        consumer: ProcessingComponent,
        port_name: str,
        chains: Mapping[str, FusedChain],
    ) -> Delivery:
        """One consumer's delivery, composed from the seams installed now.

        Plain closures rather than :func:`functools.partial`: a deep
        delivery cascade then stays on the interpreter's inlined
        Python-to-Python calls instead of nesting a C frame per hop.
        """
        hub = self._instrumentation
        supervisor = self._supervisor
        chain = chains.get(consumer.name)
        if supervisor is not None:
            # The supervisor wraps the hub, so error counters keep
            # recording; chains never compile under supervision.

            def deliver(group: List[Datum]) -> None:
                supervisor.deliver_batch(consumer, port_name, group, hub)

        elif chain is not None:

            def deliver(group: List[Datum]) -> None:
                chain.run_batch(self, hub, group)

        elif hub is not None:

            def deliver(group: List[Datum]) -> None:
                hub.deliver_batch(consumer, port_name, group)

        else:

            def deliver(group: List[Datum]) -> None:
                consumer.receive_batch(port_name, group)

        return deliver

    def _reindex(self) -> None:
        """Rebuild the adjacency indexes from the edge set (removals)."""
        up: Dict[str, List[str]] = {}
        down: Dict[str, List[str]] = {}
        for c in self._connections:
            up.setdefault(c.consumer, []).append(c.producer)
            down.setdefault(c.producer, []).append(c.consumer)
        self._upstream_index = up
        self._downstream_index = down

    def upstream_map(self) -> Mapping[str, List[str]]:
        """Consumer name -> producer names, in edge order.

        The live adjacency index: :meth:`connect` appends to it and the
        removals replace it, so read it before the next structural
        mutation, and never mutate it.  Components without inbound
        edges are absent.  The PCL derives its channel
        decomposition from this map instead of per-node scans.
        """
        return self._upstream_index

    def downstream_map(self) -> Mapping[str, List[str]]:
        """Producer name -> consumer names, in edge order (see
        :meth:`upstream_map` for the contract)."""
        return self._downstream_index

    # -- membership ----------------------------------------------------------

    def add(self, component: ProcessingComponent) -> ProcessingComponent:
        """Add a component to the graph (unconnected)."""
        if component.name in self._components:
            raise GraphError(
                f"graph already contains a component named"
                f" {component.name!r}"
            )
        self._components[component.name] = component
        component._observer = self
        component._notify_consumed = (
            self.data_consumed if self._data_observers else None
        )
        # partial() dispatches without an extra interpreter frame per
        # produced batch (vs. a capturing lambda).
        component._deliver_batch = partial(self._dispatch_batch, component)
        self._invalidate()
        self._notify_topology()
        return component

    def remove(self, name: str, reconnect: bool = False) -> ProcessingComponent:
        """Remove a component, optionally splicing its neighbours together.

        With ``reconnect=True`` every upstream producer is connected to
        every downstream consumer port that is compatible, which is how
        the PSL "delete" keeps a pipeline flowing when a filter is taken
        out.
        """
        component = self.component(name)
        try:
            producers = list(self._upstream_index.get(name, ()))
            downstream_ports = [
                (consumer.name, port_name)
                for consumer, port_name, _accepts in self._routing_table().get(
                    name, ()
                )
            ]
            if producers or downstream_ports:
                self._connections = {
                    c: None
                    for c in self._connections
                    if c.producer != name and c.consumer != name
                }
                self._reindex()
            del self._components[name]
            self._invalidate()
            component._observer = None
            component._notify_consumed = None
            component._deliver_batch = None
            if reconnect:
                for up in producers:
                    for consumer, port in downstream_ports:
                        if up == consumer:
                            # Splicing out a node must never wire a
                            # component to itself; skip instead of relying
                            # on the cycle check to reject the self-loop.
                            continue
                        try:
                            self.connect(up, consumer, port)
                        except GraphError:
                            continue
        except BaseException:
            # An error escaping mid-removal (e.g. a non-GraphError out of
            # a reconnect attempt) may leave the mutation half-applied
            # without reaching another version bump; no stale fused chain
            # may survive that, so decompile unconditionally.
            self.invalidate_plan()
            raise
        self._notify_topology()
        return component

    def component(self, name: str) -> ProcessingComponent:
        """Look a component up by name."""
        try:
            return self._components[name]
        except KeyError:
            raise GraphError(f"no component named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._components

    def components(self) -> List[ProcessingComponent]:
        """All components currently in the graph."""
        return list(self._components.values())

    def connections(self) -> List[Connection]:
        """All current edges."""
        return list(self._connections)

    # -- wiring ---------------------------------------------------------------

    def connect(
        self,
        producer: str,
        consumer: str,
        port: Optional[str] = None,
    ) -> Connection:
        """Connect ``producer``'s output to an input port of ``consumer``.

        When ``port`` is omitted the first compatible input port is used.
        The connection is validated: kind overlap, required Component
        Features present on the producer, and acyclicity.
        """
        src = self.component(producer)
        dst = self.component(consumer)
        if port is None:
            port = self._pick_port(src, dst)
        in_port = dst.input_port(port)
        if not set(in_port.accepts) & set(src.output_port.capabilities):
            raise GraphError(
                f"no kind overlap: {producer} produces"
                f" {list(src.output_port.capabilities)},"
                f" {consumer}.{port} accepts {list(in_port.accepts)}"
            )
        missing = [
            f
            for f in in_port.required_features
            if not src.has_feature(f)
        ]
        if missing:
            raise GraphError(
                f"{consumer}.{port} requires features {missing} that"
                f" {producer} does not provide"
            )
        connection = Connection(producer, consumer, port)
        if connection in self._connections:
            raise GraphError(f"duplicate connection {connection}")
        if producer == consumer or producer in self._reachable(
            consumer, self._downstream_index
        ):
            raise GraphError(
                f"connecting {producer} -> {consumer} would create a cycle"
            )
        self._connections[connection] = None
        self._upstream_index.setdefault(consumer, []).append(producer)
        self._downstream_index.setdefault(producer, []).append(consumer)
        self._invalidate()
        self._notify_topology()
        return connection

    def _pick_port(
        self, src: ProcessingComponent, dst: ProcessingComponent
    ) -> str:
        for in_port in dst.input_ports:
            if set(in_port.accepts) & set(src.output_port.capabilities):
                return in_port.name
        raise GraphError(
            f"no input port of {dst.name} accepts anything {src.name}"
            " produces"
        )

    def disconnect(
        self, producer: str, consumer: str, port: Optional[str] = None
    ) -> None:
        """Remove matching edges; raises if none existed."""
        before = len(self._connections)
        self._connections = {
            c: None
            for c in self._connections
            if not (
                c.producer == producer
                and c.consumer == consumer
                and (port is None or c.port == port)
            )
        }
        if len(self._connections) == before:
            raise GraphError(
                f"no connection {producer} -> {consumer}"
                + (f".{port}" if port else "")
            )
        self._reindex()
        self._invalidate()
        self._notify_topology()

    def insert_between(
        self,
        producer: str,
        consumer: str,
        component: ProcessingComponent,
        port: Optional[str] = None,
    ) -> None:
        """Splice ``component`` into an existing edge.

        This is the paper's §3.1 operation: "We insert the filter
        component after the Parser component."
        """
        existing = [
            c
            for c in self._connections
            if c.producer == producer
            and c.consumer == consumer
            and (port is None or c.port == port)
        ]
        if not existing:
            raise GraphError(
                f"no existing connection {producer} -> {consumer} to"
                " splice into"
            )
        try:
            if component.name not in self._components:
                self.add(component)
            for edge in existing:
                self.disconnect(edge.producer, edge.consumer, edge.port)
            already_fed = component.name in self.downstream_map().get(
                producer, ()
            )
            if not already_fed:
                # Splicing the same component into several edges of one
                # producer (insert_after) shares a single feeding
                # connection.
                self.connect(producer, component.name)
            for edge in existing:
                self.connect(component.name, edge.consumer, edge.port)
        except BaseException:
            # Same guarantee as :meth:`remove`: a splice failing between
            # its constituent mutations must not leave a stale compiled
            # plan behind, whichever step short-circuited.
            self.invalidate_plan()
            raise

    # -- traversal --------------------------------------------------------------

    def upstream(self, name: str) -> List[str]:
        """Direct producers feeding ``name``."""
        self.component(name)
        return list(self._upstream_index.get(name, ()))

    def downstream(self, name: str) -> List[str]:
        """Direct consumers of ``name``'s output."""
        self.component(name)
        return list(self._downstream_index.get(name, ()))

    def ancestors(self, name: str) -> Set[str]:
        """All transitive producers feeding ``name``."""
        self.component(name)
        cached = self._ancestors_cache.get(name)
        if cached is None:
            cached = self._reachable(name, self._upstream_index)
            self._ancestors_cache[name] = cached
        return set(cached)

    def descendants(self, name: str) -> Set[str]:
        """All transitive consumers of ``name``'s output."""
        self.component(name)
        cached = self._descendants_cache.get(name)
        if cached is None:
            cached = self._reachable(name, self._downstream_index)
            self._descendants_cache[name] = cached
        return set(cached)

    @staticmethod
    def _reachable(
        name: str, index: Dict[str, List[str]]
    ) -> FrozenSet[str]:
        seen: Set[str] = set()
        frontier = list(index.get(name, ()))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(index.get(node, ()))
        return frozenset(seen)

    def sources(self) -> List[ProcessingComponent]:
        """Leaf nodes: components with no inbound connections."""
        upstream = self._upstream_index
        return [
            comp
            for name, comp in self._components.items()
            if not upstream.get(name)
        ]

    def sinks(self) -> List[ProcessingComponent]:
        """Root nodes: components with no outbound connections."""
        downstream = self._downstream_index
        return [
            comp
            for name, comp in self._components.items()
            if not downstream.get(name)
        ]

    def merge_points(self) -> List[ProcessingComponent]:
        """Components combining data from two or more producers."""
        upstream = self._upstream_index
        return [
            comp
            for name, comp in self._components.items()
            if len(upstream.get(name, ())) >= 2
        ]

    # -- delivery -----------------------------------------------------------------

    def _route(self, producer: str, datum: Datum) -> None:
        """Route one datum: a batch of one.

        Nothing in the package calls this: a component's produced
        datums reach :meth:`route_batch` through
        :meth:`_dispatch_batch`.  It stays because perfbench's layer
        tracer wraps ``_route`` by name, beside ``route_batch``, and
        fails when an entry point it wraps is missing.
        """
        self.route_batch(producer, [datum])

    def _dispatch_batch(
        self, component: ProcessingComponent, datums: List[Datum]
    ) -> None:
        """Take produced datums from a component into the graph.

        The graph's one hand-off, wired as each component's
        ``_deliver_batch`` (a produced datum is a batch of one).
        Instrumentation runs first, so observers and consumers all see
        the (possibly trace-annotated) datums the application will
        eventually receive; instrumentation and observer events stay
        per datum (traces, PCL logical time), and the routing itself is
        resolved once per batch.  While an observer is subscribed, the
        component's output count, latest output and held-inputs flag are
        recorded here, before routing, for channels to read.
        """
        hub = self._instrumentation
        if hub is not None:
            dispatched = hub.datum_dispatched
            name = component.name
            datums = [dispatched(name, datum) for datum in datums]
        if self._observer_tuple:
            if self._unannounced or self._data_observers:
                self._watch_dispatch(component, datums)
            component._outputs += len(datums)
            component._latest_output = datums[-1]
            if component._holding:
                for datum in datums:
                    # Feature-added data ("component#Feature") leaves
                    # the inputs held.
                    if "#" not in datum.producer:
                        component._holding = False
                        break
        self.route_batch(component.name, datums)

    def _watch_dispatch(
        self, component: ProcessingComponent, datums: List[Datum]
    ) -> None:
        """The observers' share of a hand-off: announce a changed
        topology once, then hand each datum to the data observers."""
        if self._unannounced:
            self._unannounced = False
            for observer in self._observer_tuple:
                observer.flow_resumed(self)
        observers = self._data_observers
        if observers:
            for datum in datums:
                for observer in observers:
                    observer.data_produced(component, datum)

    def route_batch(self, producer: str, datums: List[Datum]) -> None:
        """Route a batch of datums from ``producer`` in one pass.

        The graph's only routing loop.  The routing table and the
        per-``(producer, kind)`` route memo are resolved once per kind
        group instead of once per datum, and each consumer takes the
        whole group through the delivery composed for its memo entry
        (see :meth:`_route_entries`).  Supervision and
        observability semantics are preserved by construction: with a
        supervisor installed every datum still crosses
        :meth:`~repro.robustness.supervision.Supervisor.deliver`
        (per-datum isolation), and with flow tracing on the hub
        delivers per datum so every trace keeps its own context.

        Ordering: datums of one batch reach each consumer in submission
        order (per-route FIFO), but the batch moves through the graph
        stage-by-stage -- across fan-out branches the interleaving
        differs from routing the datums one at a time.  Sink outputs
        and trace hops are the same multiset either way (pinned by
        ``tests/test_property_runtime.py``).
        """
        if not datums:
            return
        kind = datums[0].kind
        if len(datums) > 1 and not all(datum.kind == kind for datum in datums):
            # Mixed kinds: each kind's group, in submission order, is
            # routed as a batch of its own.  Produced datums (batches of
            # one) and homogeneous ingestion batches skip the grouping.
            by_kind: Dict[str, List[Datum]] = {}
            for datum in datums:
                by_kind.setdefault(datum.kind, []).append(datum)
            for group in by_kind.values():
                self.route_batch(producer, group)
            return
        entries = self._route_memo.get((producer, kind))
        if entries is None:
            entries = self._route_entries(producer, kind)
        # The entry tuple is a snapshot: consumers connected *during*
        # this delivery wait for the next route.  If a reentrant
        # mutation bumps the version mid-loop, stale entries whose
        # consumer has left the graph are skipped -- removal is checked
        # against the live component table.
        version = self._version
        components = self._components
        for consumer, deliver in entries:
            if (
                version != self._version
                and components.get(consumer.name) is not consumer
            ):
                continue
            deliver(datums)

    # -- observation ----------------------------------------------------------------

    def add_observer(
        self, observer: GraphObserver, data_events: bool = True
    ) -> Callable[[], None]:
        """Subscribe to graph events; returns an unsubscribe callable.

        With ``data_events=False`` the observer gets topology events
        only until it asks for per-datum events with
        :meth:`observe_data`.  Subscribed observers gate plan
        compilation either way (they must be able to see every per-hop
        event), so (un)subscription invalidates the compiled plan.
        """
        self._observers.append(observer)
        if not data_events:
            self._quiet.append(observer)
        self._unannounced = True
        self._refresh_observers()
        self.invalidate_plan()

        def _remove() -> None:
            if observer in self._observers:
                self._observers.remove(observer)
                self._quiet = [o for o in self._quiet if o is not observer]
                self._refresh_observers()
                self.invalidate_plan()

        return _remove

    def observe_data(self, observer: GraphObserver, enabled: bool) -> None:
        """Start or stop handing a subscribed observer per-datum events.

        While no observer takes them, a hand-off makes no observer call
        and a component's consume body makes no call into the graph.
        """
        quiet = [o for o in self._quiet if o is not observer]
        if not enabled:
            quiet.append(observer)
        self._quiet = quiet
        self._refresh_observers()

    def _refresh_observers(self) -> None:
        """Rebuild the fan-out snapshots and the components' consume
        hooks after the observer set changed."""
        quiet = self._quiet
        observed_before = bool(self._data_observers)
        self._observer_tuple = tuple(self._observers)
        self._data_observers = tuple(
            o for o in self._observers if not any(o is q for q in quiet)
        )
        observed = bool(self._data_observers)
        if observed != observed_before:
            hook = self.data_consumed if observed else None
            for component in self._components.values():
                component._notify_consumed = hook

    def component_reconfigured(self, component: ProcessingComponent) -> None:
        """Component callback: a feature attached/detached (or the
        output port otherwise changed) -- decompile, the member's fused
        step and its chain's eligibility are both stale."""
        self.invalidate_plan()

    def data_consumed(
        self, component: ProcessingComponent, port_name: str, datum: Datum
    ) -> None:
        """Component callback: fan the consume event out to the data
        observers (wired as the components' consume hook only while
        there are any)."""
        for observer in self._data_observers:
            observer.data_consumed(component, port_name, datum)

    def data_dropped(
        self,
        component: ProcessingComponent,
        port_name: str,
        datum: Datum,
        feature_name: str,
    ) -> None:
        """Component callback: a feature vetoed an inbound datum."""
        hub = self._instrumentation
        if hub is not None:
            hub.datum_dropped(component, port_name, datum, feature_name)
        for observer in self._data_observers:
            observer.data_dropped(component, port_name, datum, feature_name)

    def _notify_topology(self) -> None:
        hub = self._instrumentation
        if hub is not None:
            hub.topology_changed(
                len(self._components), len(self._connections), self._version
            )
        observers = self._observer_tuple
        if observers:
            self._unannounced = True
            for observer in observers:
                observer.topology_changed(self)

    # -- display -----------------------------------------------------------------------

    def render_tree(self, root: Optional[str] = None, indent: str = "") -> str:
        """ASCII rendering of the processing tree, root at the top.

        Matches the paper's presentation of the graph "as a tree where
        data is traveling from leaf nodes toward the root".
        """
        roots = [root] if root else [c.name for c in self.sinks()]
        lines: List[str] = []

        def _walk(name: str, depth: int) -> None:
            comp = self._components[name]
            feature_note = (
                " [" + ", ".join(f.name for f in comp.features) + "]"
                if comp.features
                else ""
            )
            lines.append("  " * depth + f"{name}{feature_note}")
            for producer in sorted(self.upstream(name)):
                _walk(producer, depth + 1)

        for r in sorted(roots):
            _walk(r, 0)
        return "\n".join(lines)
