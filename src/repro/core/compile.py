"""Plan compilation: fusing linear stage chains into flat dispatch plans.

The paper's translucency promise is that reflection must cost nothing
while unused -- yet interpreted dispatch still walks the graph
component-by-component, paying a routing lookup and a
``receive_batch``/``produce_batch`` hand-off at every hop.  This module
is the classic interpreter->compiler move applied to that walk (RAFDA
separates application logic from dispatch policy; OpenHPS compiles
positioning pipelines into process networks): maximal *linear* chains of
single-in/single-out components are collapsed into a
:class:`FusedChain` -- a flat, pre-resolved call list executed with one
routing lookup per chain instead of one per hop.

Fusion eligibility (the rules DESIGN.md §12 documents):

* **Global gates** -- while any of these holds, the plan compiles to
  zero chains and records the reason: compilation disabled
  (``graph.set_compilation(False)``), a supervisor installed (every
  delivery must cross the supervised boundary), a tracing-enabled hub
  (every hop must extend a flow trace), or graph observers subscribed
  (the PCL reconstructs logical time from per-hop events).  A
  metrics-only hub does *not* gate fusion: fused execution keeps the
  per-component ``items_in``/``items_out``/``errors`` counters exact.
* **Per-node rules** -- a component can be a chain member only if it has
  exactly one inbound and one outbound edge, no Component Features
  attached, and opts into fusion through
  :meth:`~repro.core.component.ProcessingComponent.fused_fn` (stock
  :class:`~repro.core.component.FunctionComponent` instances do).
* Chains must have at least :data:`MIN_CHAIN_LENGTH` members --
  anything shorter is not a chain.

Invalidation is driven by one **plan epoch** on the graph, bumped by
every structural mutation (alongside the topology version) *and* by the
reflection seams that do not touch topology: feature attach/detach,
hub/supervisor install, observer (un)subscription.  A
:class:`FusedChain` snapshots the epoch it was compiled at and
re-checks it at every member boundary; the moment reflection goes live
mid-delivery the chain *decompiles in flight* -- the surviving batch is
handed back to interpreted dispatch from the last completed member, so
compiled and interpreted execution stay observationally equivalent
(pinned by ``tests/test_property_compile.py``).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.core.component import ComponentError, ProcessingComponent
from repro.core.data import Datum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.graph import ProcessingGraph
    from repro.observability.instrumentation import ObservabilityHub

#: A chain shorter than this is not fused: single nodes gain little and
#: would flood the reflective surface with degenerate "chains".
MIN_CHAIN_LENGTH = 2

# -- fallback reasons (the translucency vocabulary of ``describe()``) -----
REASON_DISABLED = "compilation-disabled"
REASON_SUPERVISOR = "supervisor-installed"
REASON_TRACING = "tracing-hub-installed"
REASON_OBSERVERS = "graph-observers-subscribed"

# per-node exclusion reasons
EXCLUDE_FEATURES = "features-attached"
EXCLUDE_FAN_IN = "fan-in"
EXCLUDE_FAN_OUT = "fan-out"
EXCLUDE_OPAQUE = "no-fused-step"
EXCLUDE_SHORT = "chain-too-short"

#: One flat step: ``(component, fn, accepts_set, capabilities_set, name)``
#: -- everything a member's execution needs, resolved at compile time.
FusedStep = Tuple[ProcessingComponent, Any, frozenset, frozenset, str]


class FusedChain:
    """A compiled super-step for one maximal linear chain.

    Executing the chain is observationally equivalent to interpreted
    dispatch through its members: the same kind/capability checks run
    (accept mismatches drop silently exactly where routing would have
    found no entry; capability violations raise from the producing
    member), producer stamping matches
    :meth:`~repro.core.component.ProcessingComponent.produce`, and with
    a metrics hub installed the per-component counters advance
    identically -- including the nested ``errors`` increments an
    exception unwinds through.  Only the hand-off *between* members is
    flattened: no ``receive_batch``/``produce_batch``/dispatch frames,
    no routing lookup, no per-hop seam checks.
    """

    __slots__ = (
        "head",
        "members",
        "ports",
        "steps",
        "epoch",
        "_ops",
        "_instruments",
        "_fused_counter",
    )

    def __init__(
        self,
        steps: List[FusedStep],
        ports: List[str],
        epoch: int,
    ) -> None:
        self.steps: Tuple[FusedStep, ...] = tuple(steps)
        self.ports: Tuple[str, ...] = tuple(ports)
        self.head: str = steps[0][4]
        self.members: Tuple[str, ...] = tuple(step[4] for step in steps)
        self.epoch = epoch
        # The execution form: ``(fn, caps, filter, name)`` per member,
        # where ``filter`` is the accept-set to screen inbound kinds
        # against, or ``None`` when screening is provably unnecessary --
        # the head's batch is already kind-routed, and a mid-chain member
        # whose accept-set covers everything its upstream can produce
        # never sees a rejectable kind.  Skipping the screen saves a full
        # pass over the batch per member on homogeneous pipelines.
        ops: List[Tuple[Any, frozenset, Optional[frozenset], str]] = []
        prev_caps: Optional[frozenset] = None
        for _comp, fn, accepts, caps, name in self.steps:
            screen: Optional[frozenset]
            if prev_caps is None or prev_caps <= accepts:
                screen = None
            else:
                screen = accepts
            ops.append((fn, caps, screen, name))
            prev_caps = caps
        self._ops = tuple(ops)
        # Lazily resolved per-member hub instruments; the plan (and this
        # chain with it) is invalidated whenever the hub changes, so the
        # cache never goes stale.
        self._instruments: Optional[List[Tuple[Any, Any, Any, Any]]] = None
        self._fused_counter: Any = None

    # -- reflective surface --------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        return {
            "head": self.head,
            "members": list(self.members),
            "length": len(self.members),
        }

    def __repr__(self) -> str:
        return f"FusedChain({' -> '.join(self.members)})"

    # -- hub instruments -----------------------------------------------------

    def _hub_instruments(
        self, hub: "ObservabilityHub"
    ) -> List[Tuple[Any, Any, Any, Any]]:
        instruments = self._instruments
        if instruments is None:
            registry = hub.registry
            instruments = self._instruments = [
                (
                    registry.counter("items_in", component=name),
                    registry.counter("items_out", component=name),
                    registry.counter("errors", component=name),
                    registry.histogram("hop_latency_s", component=name),
                )
                for _c, _fn, _a, _caps, name in self.steps
            ]
            self._fused_counter = registry.counter("graph_fused_dispatches")
        return instruments

    # -- execution ---------------------------------------------------------------

    def run_batch(
        self,
        graph: "ProcessingGraph",
        hub: Optional["ObservabilityHub"],
        datums: List[Datum],
    ) -> None:
        """Run a batch through the flat call list, stage by stage.

        The chain's one run routine, composed as the head's delivery in
        the graph's route memo: per member the loop is one flat pass
        over the surviving datums (stage-major, exactly the order
        interpreted ``receive_batch``/``produce_batch`` chains produce),
        and the chain's tail hands the final batch to
        :meth:`~repro.core.graph.ProcessingGraph.route_batch` -- one
        routing lookup per chain per kind group.  A produced datum
        arrives here as a batch of one.  With a (non-tracing) hub the
        per-member counters advance as interpreted delivery would
        advance them; a mid-delivery epoch bump decompiles the chain in
        flight.
        """
        if hub is not None and hub.tracing:
            # Tracing flipped on in place (without re-install): the
            # plan is stale by definition; fall back entirely.
            self._bail_batch(graph, datums, 0, hub)
            return
        graph._fused_dispatches += 1
        instruments: Optional[List[Tuple[Any, Any, Any, Any]]] = None
        time_fn: Any = None
        if hub is not None:
            instruments = self._hub_instruments(hub)
            self._fused_counter.inc()
            time_fn = hub._time
        epoch = self.epoch
        ops = self._ops
        batch = datums
        index = 0
        try:
            for index, (fn, caps, screen, name) in enumerate(ops):
                if graph._plan_epoch != epoch:
                    self._bail_batch(graph, batch, index, hub)
                    return
                if screen is not None:
                    # Mid-chain kind screen: interpreted routing drops
                    # non-accepted kinds silently (no route entry).
                    batch = [d for d in batch if d.kind in screen]
                    if not batch:
                        return
                if instruments is not None:
                    items_in, items_out, _errors, latency = instruments[index]
                    items_in.inc(len(batch))
                    start = time_fn()
                out: List[Datum] = []
                append = out.append
                for datum in batch:
                    result = fn(datum)
                    if result is None:
                        continue
                    if result.__class__ is Datum or isinstance(result, Datum):
                        if result.kind not in caps:
                            raise _capability_error(self.steps[index][0], result)
                        if not result.producer:
                            result = result.from_producer(name)
                        append(result)
                    else:
                        self._fan_into(index, result, append)
                if instruments is not None:
                    latency.observe(time_fn() - start)
                    items_out.inc(len(out))
                if not out:
                    return
                batch = out
            graph.route_batch(ops[-1][3], batch)
        except Exception:
            # Interpreted delivery is nested: an exception raised at (or
            # below) member k unwinds through every enclosing delivery
            # boundary, incrementing each member's error counter.
            if instruments is not None:
                for j in range(index + 1):
                    instruments[j][2].inc()
            raise

    def _fan_into(
        self, index: int, result: Any, append: Any
    ) -> None:
        """Stamp + check a member's multi-datum result into the batch."""
        comp, _fn, _accepts, caps, name = self.steps[index]
        for item in result:
            if item.kind not in caps:
                raise _capability_error(comp, item)
            if not item.producer:
                item = item.from_producer(name)
            append(item)

    def _bail_batch(
        self,
        graph: "ProcessingGraph",
        batch: List[Datum],
        index: int,
        hub: Optional["ObservabilityHub"],
    ) -> None:
        """Decompile a batch in flight: resume interpreted dispatch.

        Past the head, the batch is re-routed from the last completed
        member through the *live* tables -- identical to what its
        ``produce_batch`` would do now.  At ``index == 0`` the head's
        delivery mirrors what the delivery composed for its memo entry
        would have been -- bare or hub, never supervised: a chain only
        exists because no supervisor was installed when the memo entry
        was built, and an in-flight routing loop keeps the deliveries it
        started with.
        """
        if index:
            graph.route_batch(self.steps[index - 1][4], batch)
            return
        comp, _fn, _accepts, _caps, name = self.steps[0]
        if graph._components.get(name) is not comp:  # pragma: no cover
            # Defensive: removal always bumps the topology version, so
            # the routing loop skips the stale entry before the chain
            # is ever entered.
            return
        if hub is None:
            comp.receive_batch(self.ports[0], batch)
        else:
            hub.deliver_batch(comp, self.ports[0], batch)


class CompiledPlan:
    """The compiled dispatch plan of one graph at one plan epoch.

    ``chains`` maps a chain's *head* component name to its
    :class:`FusedChain`; routing consults it when (re)building route
    memo entries, composing the chain's :meth:`FusedChain.run_batch`
    as the head's delivery, so steady-state dispatch pays nothing for
    the plan.  ``fallback_reason`` is the
    global gate that suppressed fusion (or ``None``), and ``excluded``
    records why individual components stayed interpreted -- the
    translucency surface ``psl.compiled_plans()`` renders.
    """

    __slots__ = ("epoch", "version", "chains", "fallback_reason", "excluded")

    def __init__(
        self,
        epoch: int,
        version: int,
        chains: Dict[str, FusedChain],
        fallback_reason: Optional[str],
        excluded: Dict[str, str],
    ) -> None:
        self.epoch = epoch
        self.version = version
        self.chains = chains
        self.fallback_reason = fallback_reason
        self.excluded = excluded

    def describe(self) -> Dict[str, Any]:
        return {
            "chains": [
                chain.describe()
                for _head, chain in sorted(self.chains.items())
            ],
            "fused_components": sum(
                len(chain.members) for chain in self.chains.values()
            ),
            "fallback_reason": self.fallback_reason,
            "excluded": dict(sorted(self.excluded.items())),
            "version": self.version,
        }

    def __repr__(self) -> str:
        if self.fallback_reason:
            return f"CompiledPlan(fallback={self.fallback_reason!r})"
        return f"CompiledPlan(chains={len(self.chains)})"


def compile_plan(graph: "ProcessingGraph") -> CompiledPlan:
    """Compile the graph's current topology into a dispatch plan.

    Pure function of the graph's structure plus the live reflection
    seams; called lazily by the graph whenever routing finds no fresh
    plan.  Gated configurations still return a (chain-less) plan so the
    reflective surface can show *why* dispatch stays interpreted.
    """
    epoch = graph._plan_epoch
    version = graph._version
    reason = _global_gate(graph)
    if reason is not None:
        return CompiledPlan(epoch, version, {}, reason, {})

    upstream, downstream = graph._adjacency()
    components = graph._components
    routing = graph._routing_table()

    excluded: Dict[str, str] = {}

    def fusable(name: str) -> bool:
        comp = components[name]
        ups = upstream.get(name, ())
        downs = downstream.get(name, ())
        if len(ups) != 1:
            if len(ups) > 1:
                excluded[name] = EXCLUDE_FAN_IN
            return False
        if len(downs) != 1:
            if len(downs) > 1:
                excluded[name] = EXCLUDE_FAN_OUT
            return False
        if comp.features:
            excluded[name] = EXCLUDE_FEATURES
            return False
        if comp.fused_fn() is None:
            excluded[name] = EXCLUDE_OPAQUE
            return False
        return True

    eligible = {name for name in components if fusable(name)}

    chains: Dict[str, FusedChain] = {}
    for name in eligible:
        producer = upstream[name][0]
        if producer in eligible:
            continue  # not a head: the chain starts further upstream
        members: List[str] = [name]
        current = name
        while True:
            nxt = downstream[current][0]
            if nxt not in eligible:
                break
            members.append(nxt)
            current = nxt
        if len(members) < MIN_CHAIN_LENGTH:
            excluded[name] = EXCLUDE_SHORT
            continue
        steps: List[FusedStep] = []
        ports: List[str] = []
        broken = False
        for member in members:
            comp = components[member]
            fn = comp.fused_fn()
            entry = _inbound_entry(routing, upstream[member][0], member)
            if fn is None or entry is None:  # pragma: no cover - defensive
                broken = True
                break
            port_name, accepts = entry
            steps.append(
                (
                    comp,
                    fn,
                    accepts,
                    comp.output_port._capabilities_set,
                    member,
                )
            )
            ports.append(port_name)
        if broken:  # pragma: no cover - defensive
            continue
        chains[name] = FusedChain(steps, ports, epoch)

    return CompiledPlan(epoch, version, chains, None, excluded)


def _capability_error(
    comp: ProcessingComponent, datum: Datum
) -> ComponentError:
    """The exact error ``produce`` would raise for this violation."""
    return ComponentError(
        f"component {comp.name} declared capabilities"
        f" {list(comp.output_port.capabilities)}, cannot produce"
        f" kind {datum.kind!r}"
    )


def _global_gate(graph: "ProcessingGraph") -> Optional[str]:
    """The first graph-wide condition that forces interpreted dispatch."""
    if not graph._compile_enabled:
        return REASON_DISABLED
    if graph._supervisor is not None:
        return REASON_SUPERVISOR
    hub = graph._instrumentation
    if hub is not None and hub.tracing:
        return REASON_TRACING
    if graph._observer_tuple:
        return REASON_OBSERVERS
    return None


def _inbound_entry(
    routing: Dict[str, List[Tuple[ProcessingComponent, str, frozenset]]],
    producer: str,
    consumer: str,
) -> Optional[Tuple[str, frozenset]]:
    """The (port, accepts) of the single edge ``producer -> consumer``."""
    for comp, port_name, accepts in routing.get(producer, ()):
        if comp.name == consumer:
            return port_name, accepts
    return None  # pragma: no cover - adjacency and routing agree
