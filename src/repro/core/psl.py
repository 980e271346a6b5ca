"""The Process Structure Layer (paper §2.1).

"The layer exposing the structure of the positioning process ... is
called the Process Structure Layer (PSL) and represents the most detailed
level of interaction provided by the PerPos middleware.  This layer is
responsible for reifying the actual positioning process as a tree
structure and maintaining a causal connection between the positioning
system and the tree."

The PSL is a thin, *designed* facade over the live
:class:`~repro.core.graph.ProcessingGraph`: insert/delete/connect,
feature attachment, and reflective inspection -- including invocation of
component and feature methods by name, which is what lets applications
"create complex high-level functionality by combining the ability to
traverse the nodes of the processing tree with ... state manipulation
features."
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.component import ProcessingComponent
from repro.core.features import ComponentFeature, FeatureError
from repro.core.graph import Connection, GraphError, ProcessingGraph
from repro.core.subsystems import CONTROL, DURABILITY, GATEWAY, SCENARIO, SHARDING
from repro.services.registry import ServiceRegistry


class ProcessStructureLayer:
    """Structured manipulation and inspection of the processing graph."""

    def __init__(
        self, graph: ProcessingGraph, registry: Optional[ServiceRegistry] = None
    ) -> None:
        self.graph = graph
        # Where the subsystems in front of the graph (gateway, durability,
        # scenario) are registered; a bare PSL sees none of them.
        self.registry = registry if registry is not None else ServiceRegistry()

    # -- inspection ---------------------------------------------------------

    def components(self) -> List[str]:
        """Names of every component in the reified process."""
        return sorted(c.name for c in self.graph.components())

    def component(self, name: str) -> ProcessingComponent:
        """Direct access to a live component by name."""
        return self.graph.component(name)

    def describe(self, name: str) -> Dict[str, Any]:
        """Full reflective summary of one component.

        While a supervisor is installed the summary carries the
        component's failure seam too: circuit-breaker ``health``
        (``closed``/``open``/``half-open``) and the total ``failures``
        recorded against it.  While a positioning engine is installed
        and the component serves as an ingestion point, the summary
        carries an ``ingestion`` section: one entry per lane entering
        the graph here, with its backpressure policy, depth, and drop
        counters.
        """
        info = self.graph.component(name).describe()
        supervisor = self.graph.supervisor
        if supervisor is not None:
            info["health"] = supervisor.health(name)
            info["failures"] = supervisor.failure_count(name)
        engine = self.graph.engine
        if engine is not None:
            lanes = engine.lanes_for_source(name)
            if lanes:
                info["ingestion"] = {
                    lane.target_id: lane.stats() for lane in lanes
                }
        gateway = GATEWAY.live(self.registry)
        if gateway is not None and gateway.source == name:
            info["gateway"] = gateway.snapshot()
        info["compiled_plans"] = self._compiled_role(name)
        return info

    def _compiled_role(self, name: str) -> Dict[str, Any]:
        """This component's place in the compiled dispatch plan."""
        plan = self.graph.plan_snapshot()
        role: Dict[str, Any] = {"enabled": plan["enabled"]}
        if plan["fallback_reason"]:
            role["fallback_reason"] = plan["fallback_reason"]
        for chain in plan["chains"]:
            if name in chain["members"]:
                role["chain"] = chain
                break
        else:
            excluded = plan["excluded"].get(name)
            if excluded:
                role["excluded"] = excluded
        return role

    def connections(self) -> List[Connection]:
        """All edges of the reified process."""
        return self.graph.connections()

    def topology_version(self) -> int:
        """Monotonic version of the reified structure.

        Every manipulation (insert/delete/connect/disconnect and the
        splicing operations built on them) bumps it; data flow never
        does.  Applications can poll it to cheaply detect whether the
        process changed since they last inspected the structure.
        """
        return self.graph.topology_version

    def structure(self) -> str:
        """ASCII tree of the whole process, applications at the roots."""
        return self.graph.render_tree()

    def methods_of(self, name: str) -> List[str]:
        """Public methods of a component, including feature-provided ones.

        Paper §2.1: "The PSL API supports inspection of the reified
        processing graph including access to all methods available on the
        implementing classes of the Processing Components" -- and features
        change "the set of available methods".
        """
        return self.graph.component(name).public_methods()

    def compiled_plans(self) -> Dict[str, Any]:
        """The graph's compiled dispatch plan, reflectively.

        The translucency surface of :mod:`repro.core.compile`: which
        maximal linear chains are currently fused (with member lists),
        why the whole graph fell back to interpreted dispatch (if it
        did), why individual components stayed interpreted, and the
        invalidation / fused-dispatch counters.  Reading it compiles a
        stale plan on the spot, so the answer is always current.
        """
        return self.graph.plan_snapshot()

    def set_compilation(self, enabled: bool) -> bool:
        """Enable/disable chain fusion; returns the previous setting.

        Adaptation of the dispatch *strategy* through the same layer
        that adapts the process structure.
        """
        return self.graph.set_compilation(enabled)

    # -- runtime observability ------------------------------------------------

    def component_metrics(
        self, name: Optional[str] = None
    ) -> Dict[str, Any]:
        """Live per-component runtime metrics (items in/out, latency).

        The runtime counterpart of :meth:`describe`: where ``describe``
        reflects what a component *is*, this reports what it has *done*.
        With ``name`` the stats of one component; without, a mapping over
        all instrumented components.  Empty while observability is
        disabled -- inspection degrades gracefully rather than raising.
        """
        hub = self.graph.instrumentation
        if hub is None:
            return {}
        if name is not None:
            self.graph.component(name)  # validate existence
        return hub.component_stats(name)

    # -- ingestion (the scale-out runtime seam) --------------------------------

    def ingestion_lanes(
        self, name: Optional[str] = None
    ) -> Dict[str, Dict[str, Any]]:
        """Ingestion-lane state of the installed positioning engine.

        With ``name`` only the lanes entering the graph at that source
        component; without, every tracked target's lane.  Each value is
        the lane's reflective stats (policy, capacity, depth, high-water
        mark, drop counters).  Empty while no engine is installed --
        like :meth:`component_metrics`, inspection degrades gracefully.
        """
        engine = self.graph.engine
        if engine is None:
            return {}
        if name is not None:
            self.graph.component(name)  # validate existence
            lanes = engine.lanes_for_source(name)
        else:
            lanes = engine.lanes()
        return {lane.target_id: lane.stats() for lane in lanes}

    def set_backpressure(
        self,
        target_id: str,
        *,
        policy: Optional[str] = None,
        capacity: Optional[int] = None,
        weight: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Adapt one lane's backpressure/fairness knobs at runtime.

        The scale-out analogue of splicing a filter into the graph:
        ingestion policy is part of the reified process, so the PSL can
        change it while the system runs.  Raises while no engine is
        installed -- unlike inspection, adaptation does not degrade
        silently.
        """
        engine = self.graph.engine
        if engine is None:
            raise GraphError("no positioning engine installed")
        return engine.set_policy(
            target_id, policy=policy, capacity=capacity, weight=weight
        )

    # -- ingestion gateway (the hostile-edge seam) -----------------------------

    def gateway(self) -> Dict[str, Any]:
        """Reflective state of the installed ingestion gateway.

        Wire formats, per-adapter outcome counters, the admission
        queue, the device-admission policy, and dead-letter statistics.
        Empty while no gateway is installed -- inspection degrades
        gracefully, like :meth:`component_metrics`.
        """
        gateway = GATEWAY.live(self.registry)
        return gateway.snapshot() if gateway is not None else {}

    def scenario(self) -> Dict[str, Any]:
        """Reflective state of the installed scenario runner.

        Device population, churn/burst/zone counters, run progress, and
        the lane verdict totals.  Empty while no scenario is installed
        -- inspection degrades gracefully, like :meth:`gateway`.
        """
        scenario = SCENARIO.live(self.registry)
        return scenario.snapshot() if scenario is not None else {}

    def controllers(self) -> Dict[str, Any]:
        """Reflective state of the installed closed-loop control set.

        Controller descriptions, cumulative decision counts, and the
        recent tail of the bounded decision ledger -- the translucency
        surface for self-adaptation: what the system changed and why.
        Empty while no control loop is installed.
        """
        control = CONTROL.live(self.registry)
        return control.snapshot() if control is not None else {}

    def decision_ledger(self) -> List[Dict[str, Any]]:
        """The bounded controller decision ledger, newest last.

        Empty while no control loop is installed.
        """
        control = CONTROL.live(self.registry)
        return control.ledger() if control is not None else []

    def dead_letters(
        self, state: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Retained dead-letter records, optionally filtered by state.

        Each entry is a record summary (seq, stage, reason, adapter,
        attempts, state, next_attempt_s).  Empty while no gateway is
        installed.
        """
        gateway = GATEWAY.live(self.registry)
        if gateway is None:
            return []
        return gateway.dead_letters(state)

    def replay_dead_letters(
        self, seq: Optional[int] = None, *, ignore_backoff: bool = False
    ) -> Dict[str, int]:
        """Replay pending dead letters through the gateway pipeline.

        The adaptation half of the DLQ seam (patch a payload or install
        a crosswalk, then replay from the same layer that inspected the
        failure).  Raises while no gateway is installed -- adaptation
        does not degrade silently, mirroring :meth:`set_backpressure`.
        """
        gateway = GATEWAY.live(self.registry)
        if gateway is None:
            raise GraphError("no ingestion gateway installed")
        return gateway.replay(seq, ignore_backoff=ignore_backoff)

    # -- durability (the crash-recovery seam) ----------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Checkpoint the full runtime state into the durability store.

        Lanes, queue contents, component state, breakers, dead-letter
        records, and metric series -- everything
        :meth:`restore` needs to resume after a crash.  Returns the
        snapshot summary (bytes written, lanes, pending datums).
        Raises while no durability manager is installed -- like
        :meth:`set_backpressure`, adaptation does not degrade silently.
        """
        manager = DURABILITY.live(self.registry)
        if manager is None:
            raise GraphError("no durability manager installed")
        return manager.checkpoint()

    def restore(self) -> int:
        """Rebuild runtime state from the durability store's latest state.

        Loads the newest snapshot, replays the journal entries recorded
        after it, and returns the number of entries replayed.  Raises
        while no durability manager is installed.
        """
        manager = DURABILITY.live(self.registry)
        if manager is None:
            raise GraphError("no durability manager installed")
        return manager.restore()

    # -- sharded runtime (the warm-handoff seam) --------------------------------

    def migrations(self) -> List[Dict[str, Any]]:
        """Completed warm lane handoffs, as the sharded coordinator records them.

        Each entry names the migrated target, source/destination shard,
        datums carried, and the handoff pause; the history is bounded
        (newest last).  Empty while no sharded engine is installed --
        inspection degrades gracefully, like :meth:`component_metrics`.
        """
        sharding = SHARDING.live(self.registry)
        return sharding.migrations() if sharding is not None else []

    # -- supervision (failure seams) -----------------------------------------

    def component_health(
        self, name: Optional[str] = None
    ) -> Dict[str, str]:
        """Circuit-breaker health of components, as the PSL sees it.

        With ``name`` a one-entry mapping for that component; without,
        the health of every component the supervisor has seen fail.
        Empty while supervision is disabled -- like
        :meth:`component_metrics`, inspection degrades gracefully.
        """
        supervisor = self.graph.supervisor
        if supervisor is None:
            return {}
        if name is not None:
            self.graph.component(name)  # validate existence
            return {name: supervisor.health(name)}
        return supervisor.health_states()

    def failure_records(self, name: Optional[str] = None) -> List[Any]:
        """Reified delivery failures (bounded), optionally per component.

        Each entry is a
        :class:`~repro.robustness.supervision.FailureRecord`; empty
        while supervision is disabled.
        """
        supervisor = self.graph.supervisor
        if supervisor is None:
            return []
        if name is not None:
            self.graph.component(name)  # validate existence
        return supervisor.failure_records(name)

    def quarantined(self) -> List[str]:
        """Components currently skipped by routing (breaker ``open``)."""
        supervisor = self.graph.supervisor
        return supervisor.quarantined() if supervisor is not None else []

    # -- manipulation -------------------------------------------------------

    def insert(self, component: ProcessingComponent) -> None:
        """Add a new component to the process (initially unconnected)."""
        self.graph.add(component)

    def delete(self, name: str, reconnect: bool = True) -> None:
        """Remove a component, splicing its neighbours by default."""
        self.graph.remove(name, reconnect=reconnect)

    def connect(
        self, producer: str, consumer: str, port: Optional[str] = None
    ) -> Connection:
        """Connect two components (validated by the graph)."""
        return self.graph.connect(producer, consumer, port)

    def disconnect(
        self, producer: str, consumer: str, port: Optional[str] = None
    ) -> None:
        """Remove a connection."""
        self.graph.disconnect(producer, consumer, port)

    def insert_between(
        self,
        producer: str,
        consumer: str,
        component: ProcessingComponent,
    ) -> None:
        """Splice a component into an existing edge (§3.1's operation)."""
        self.graph.insert_between(producer, consumer, component)

    def insert_after(
        self, producer: str, component: ProcessingComponent
    ) -> None:
        """Splice a component into *every* outgoing edge of ``producer``."""
        consumers = self.graph.downstream(producer)
        if not consumers:
            raise GraphError(
                f"{producer} has no outgoing connections to splice into"
            )
        if component.name not in self.graph:
            self.graph.add(component)
        for consumer in consumers:
            self.graph.insert_between(producer, consumer, component)

    # -- component features ---------------------------------------------------

    def attach_feature(self, name: str, feature: ComponentFeature) -> None:
        """Attach a Component Feature to the named component."""
        self.graph.component(name).attach_feature(feature)

    def detach_feature(
        self, name: str, feature_name: str
    ) -> ComponentFeature:
        """Detach a Component Feature from the named component."""
        return self.graph.component(name).detach_feature(feature_name)

    def find_feature(self, feature_name: str) -> List[str]:
        """Names of components currently providing ``feature_name``."""
        return sorted(
            c.name
            for c in self.graph.components()
            if c.has_feature(feature_name)
        )

    # -- reflective invocation --------------------------------------------------

    def invoke(self, name: str, method: str, *args: Any, **kwargs: Any) -> Any:
        """Call a method on a component or one of its features.

        ``method`` is either a plain component method name or a dotted
        ``"FeatureName.method"`` path for feature-provided methods.
        """
        component = self.graph.component(name)
        if "." in method:
            feature_name, method_name = method.split(".", 1)
            feature = component.get_feature(feature_name)
            if feature is None:
                raise FeatureError(
                    f"component {name} has no feature {feature_name!r}"
                )
            target = feature
        else:
            target = component
            method_name = method
        fn = getattr(target, method_name, None)
        if not callable(fn) or method_name.startswith("_"):
            raise AttributeError(
                f"{name} has no public method {method!r}"
            )
        return fn(*args, **kwargs)
