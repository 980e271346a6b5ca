"""The PositioningEngine: multi-target scale-out over shared graphs.

Paper §2.3 defines tracked targets; the seed tracked each
:class:`~repro.core.positioning.Target` with no notion of concurrent
load.  The engine closes that gap in middleware style (OpenHPS
multiplexes many tracked objects through one process network; RAFDA
separates scale policy from application logic): many targets share one
processing graph, each behind its own bounded ingestion lane, and a
deterministic fair scheduler drains those lanes into the graph through
the batched dispatch path.

One **lane** per tracked target (or per target x source): an
:class:`~repro.runtime.queues.IngestionQueue` plus the
:class:`~repro.core.component.SourceComponent` its datums enter through.
Producers call :meth:`PositioningEngine.submit`; nothing touches the
graph until the scheduler's next round, when each lane's pending batch
crosses ``source.inject_batch`` -- route resolution amortised per batch,
per-route FIFO order preserved, supervision/observability semantics
intact (see :meth:`~repro.core.graph.ProcessingGraph.route_batch`).

The engine is itself translucent: ``graph.set_engine`` makes lane
policies, depths, and drop counters reachable from
``psl.describe()`` / ``psl.ingestion_lanes()``, adaptable via
``psl.set_backpressure()`` and visible in the infrastructure report.
The lanes and the engine are the only record of those counts (the
observability hub keeps no copy): :meth:`PositioningEngine.snapshot`
carries every lane's queue counters plus ``rounds`` and
``drained_total``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Union,
)

from repro.core.component import SourceComponent
from repro.core.data import Datum
from repro.core.subsystems import fmt
from repro.runtime.queues import DROP_OLDEST, IngestionQueue
from repro.runtime.scheduler import FairScheduler, RoundRobinScheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.clock import SimulationClock
    from repro.core.graph import ProcessingGraph
    from repro.durability.journal import DurabilityJournal


class EngineError(Exception):
    """Raised on invalid engine configuration or use."""


class TargetLane:
    """One tracked target's ingestion lane into the shared graph."""

    __slots__ = ("target_id", "source", "queue", "weight", "submitted", "batches")

    def __init__(
        self,
        target_id: str,
        source: SourceComponent,
        queue: IngestionQueue,
        weight: int = 1,
    ) -> None:
        self.target_id = target_id
        self.source = source
        self.queue = queue
        self.weight = weight
        self.submitted = 0
        self.batches = 0

    def stats(self) -> Dict[str, Any]:
        """Reflective summary: queue state plus lane throughput."""
        stats = self.queue.stats()
        stats.update(
            target=self.target_id,
            source=self.source.name,
            weight=self.weight,
            submitted=self.submitted,
            batches=self.batches,
        )
        return stats

    def __repr__(self) -> str:
        return (
            f"TargetLane(target={self.target_id!r},"
            f" source={self.source.name!r}, depth={self.queue.depth})"
        )


class PositioningEngine:
    """Multiplexes tracked targets over one graph via batched dispatch.

    Parameters
    ----------
    graph:
        The shared processing graph; the engine registers itself via
        ``graph.set_engine`` so the PSL and report can reach it.
    clock:
        Simulation clock for :meth:`start`'s periodic drain rounds.
        Optional -- :meth:`drain_round` / :meth:`drain_all` work
        without one.
    scheduler:
        Fairness policy; :class:`RoundRobinScheduler` by default.
    stamp_targets:
        Whether :meth:`submit` annotates each datum with its lane's
        ``target`` id, so applications can demultiplex at shared sinks.
    """

    def __init__(
        self,
        graph: "ProcessingGraph",
        clock: Optional["SimulationClock"] = None,
        scheduler: Optional[FairScheduler] = None,
        *,
        stamp_targets: bool = True,
    ) -> None:
        self.graph = graph
        self.clock = clock
        self.scheduler = scheduler or RoundRobinScheduler()
        self.stamp_targets = stamp_targets
        self._lanes: Dict[str, TargetLane] = {}
        self._lane_list: List[TargetLane] = []
        self._cancel: Optional[Callable[[], None]] = None
        self.rounds = 0
        self.drained_total = 0
        #: Times :meth:`drain_all` exhausted ``max_rounds`` with datums
        #: still pending; ``last_drain_truncated`` latches until the
        #: next *successful* drain.  Surfaced by :meth:`snapshot` so a
        #: coordinator never mistakes truncation for quiescence.
        self.truncations = 0
        self.last_drain_truncated = False
        #: Durability journal; attached by
        #: :class:`repro.durability.DurabilityManager`, None otherwise.
        #: While attached, every mutation (track/untrack/submit/drain/
        #: policy change) appends one store entry for crash replay.
        self.journal: Optional["DurabilityJournal"] = None
        graph.set_engine(self)

    # -- lane management -----------------------------------------------------

    def track(
        self,
        target: Union[str, Any],
        source: Union[str, SourceComponent],
        *,
        capacity: int = 64,
        policy: str = DROP_OLDEST,
        weight: int = 1,
    ) -> TargetLane:
        """Create an ingestion lane for ``target`` entering at ``source``.

        ``target`` is a target id or a
        :class:`~repro.core.positioning.Target` (whose lane binding is
        set, so ``target.queue_stats()`` works); ``source`` is a source
        component (or its name) already in the graph -- lanes may share
        one source or use one each.
        """
        target_id = getattr(target, "target_id", target)
        if not isinstance(target_id, str):
            raise EngineError(f"invalid target {target!r}")
        if target_id in self._lanes:
            raise EngineError(f"target {target_id!r} already tracked")
        if weight < 1:
            raise EngineError("weight must be >= 1")
        if isinstance(source, str):
            source = self.graph.component(source)  # type: ignore[assignment]
        if not isinstance(source, SourceComponent):
            raise EngineError(
                f"lane source must be a SourceComponent,"
                f" got {type(source).__name__}"
            )
        queue = IngestionQueue(f"lane:{target_id}", capacity=capacity, policy=policy)
        lane = TargetLane(target_id, source, queue, weight=weight)
        self._lanes[target_id] = lane
        self._lane_list.append(lane)
        attach = getattr(target, "attach_lane", None)
        if callable(attach):
            attach(lane)
        if self.journal is not None:
            self.journal.record_track(target_id, source.name, capacity, policy, weight)
        return lane

    def untrack(self, target_id: str) -> TargetLane:
        """Remove a lane; pending datums are discarded with it."""
        lane = self.lane(target_id)
        del self._lanes[target_id]
        self._lane_list.remove(lane)
        if self.journal is not None:
            self.journal.record_untrack(target_id)
        return lane

    def lane(self, target_id: str) -> TargetLane:
        """Look a lane up by target id."""
        try:
            return self._lanes[target_id]
        except KeyError:
            raise EngineError(f"no tracked target {target_id!r}") from None

    def is_tracked(self, target_id: str) -> bool:
        """Whether a lane exists for ``target_id`` (no-raise probe).

        The gateway's device-admission check: producers that must not
        fail on unknown targets probe here instead of catching
        :class:`EngineError` from :meth:`lane`.
        """
        return target_id in self._lanes

    def lanes(self) -> List[TargetLane]:
        """All lanes, in registration order (the scheduler's order)."""
        return list(self._lane_list)

    def lanes_for_source(self, source_name: str) -> List[TargetLane]:
        """Lanes whose datums enter the graph at ``source_name``."""
        return [lane for lane in self._lane_list if lane.source.name == source_name]

    # -- ingestion (producer side) -------------------------------------------

    def submit(self, target_id: str, datum: Datum) -> str:
        """Queue one datum for a tracked target; returns the verdict.

        The datum does *not* enter the graph here -- it waits in the
        lane's bounded queue for the scheduler's next round.  The
        verdict is the queue's backpressure decision
        (``accepted`` / ``coalesced`` / ``dropped`` / ``rejected``);
        a ``rejected`` verdict (``block`` policy) means the caller
        still owns the datum.
        """
        lane = self.lane(target_id)
        if self.stamp_targets and datum.attributes.get("target") != target_id:
            datum = datum.annotated(target=target_id)
        verdict = lane.queue.offer(datum)
        lane.submitted += 1
        # Journal *after* applying, so an auto-snapshot fired by this
        # append captures the post-offer state and the entry correctly
        # falls before it (replay would double-apply otherwise).
        if self.journal is not None:
            self.journal.record_submit(target_id, datum)
        return verdict

    # -- scheduling (consumer side) ------------------------------------------

    def drain_round(self) -> int:
        """Run one scheduler round; returns the number of datums routed.

        Each planned lane drains up to its quantum and the batch crosses
        the graph through ``source.inject_batch`` -- the batched
        dispatch path -- before the next lane runs, so per-lane FIFO
        order holds and fairness is exactly the scheduler's plan.
        """
        return self._round(self.scheduler.plan(self._lane_list))

    def replay_round(self, lane_counts: List[Any]) -> int:
        """Re-execute one journaled drain round during crash recovery.

        ``lane_counts`` is the ``[(target_id, count), ...]`` list a
        previous run's :meth:`drain_round` journaled: exactly ``count``
        datums are popped from each named lane in the recorded order
        and injected through the batched dispatch path.  This
        reproduces the original routing independent of the *current*
        scheduler cursor, so restore does not have to reconstruct
        scheduler internals.  A lane untracked later in the journal is
        skipped: the original round's effects on it are unreproducible
        and irrelevant (its sink history died with it).  Restore
        suspends the journal, so the replayed round is not journaled
        again.
        """
        lanes = self._lanes
        return self._round(
            (lanes[target_id], count)
            for target_id, count in lane_counts
            if target_id in lanes
        )

    def _round(self, plan: Iterable[Any]) -> int:
        """Run one round over ``plan``'s ``(lane, count)`` pairs.

        Drains up to ``count`` datums from each lane in order, injects
        each non-empty batch, and journals the per-lane counts.
        """
        total = 0
        journal = self.journal
        lane_counts: List[Any] = []
        for lane, count in plan:
            batch = lane.queue.drain(count)
            if not batch:
                continue
            if journal is not None:
                lane_counts.append((lane.target_id, len(batch)))
            lane.source.inject_batch(batch)
            lane.batches += 1
            total += len(batch)
        self.rounds += 1
        self.drained_total += total
        if journal is not None and lane_counts:
            journal.record_drain(lane_counts)
        return total

    def drain_all(self, max_rounds: int = 1000) -> int:
        """Run rounds until every queue is empty; returns datums routed.

        ``max_rounds`` bounds the loop against a pathological scheduler
        (or a producer submitting from inside the graph).  Exhausting it
        with datums still pending is *truncation*, not quiescence: the
        ``truncations`` counter and the ``last_drain_truncated`` latch
        are set (both surfaced by :meth:`snapshot`), then
        :class:`EngineError` is raised carrying the pending depth -- a
        caller that swallows the exception still cannot mistake the
        engine for drained.
        """
        total = 0
        for _ in range(max_rounds):
            drained = self.drain_round()
            total += drained
            if not drained and not any(lane.queue.depth for lane in self._lane_list):
                self.last_drain_truncated = False
                return total
        if self.depth_total() == 0:
            # The queues emptied exactly on the last round: quiescence,
            # not truncation, even though the loop was exhausted.
            self.last_drain_truncated = False
            return total
        self.truncations += 1
        self.last_drain_truncated = True
        raise EngineError(
            f"queues not drained after {max_rounds} rounds:"
            f" {self.depth_total()} datums still pending"
            f" ({total} routed this call)"
        )

    def start(self, interval_s: float) -> Callable[[], None]:
        """Drain one round every ``interval_s`` simulated seconds.

        Returns the cancel callable (also wired to :meth:`stop`).
        Requires a clock; re-starting cancels the previous schedule.
        """
        if self.clock is None:
            raise EngineError("engine has no clock; pass one to start()")
        if interval_s <= 0:
            raise EngineError("interval must be positive")
        self.stop()
        self._cancel = self.clock.call_every(
            interval_s, lambda _now: self.drain_round()
        )
        return self._cancel

    def stop(self) -> None:
        """Cancel the periodic drain schedule, if one is running."""
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    # -- adaptation (the PSL-facing seam) --------------------------------------

    def set_policy(
        self,
        target_id: str,
        *,
        policy: Optional[str] = None,
        capacity: Optional[int] = None,
        weight: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Adapt a lane's backpressure/fairness knobs at runtime.

        Any subset of ``policy`` / ``capacity`` / ``weight`` may be
        given; returns the lane's post-change stats.  This is what
        ``psl.set_backpressure`` calls -- scale policy manipulated
        through reflection, not redeployment.
        """
        lane = self.lane(target_id)
        if policy is not None:
            lane.queue.set_policy(policy)
        if capacity is not None:
            lane.queue.set_capacity(capacity)
        if weight is not None:
            if weight < 1:
                raise EngineError("weight must be >= 1")
            lane.weight = weight
        if self.journal is not None:
            self.journal.record_policy(target_id, policy, capacity, weight)
        return lane.stats()

    # -- durability (snapshot/restore + warm handoff) ---------------------------

    def export_lane(self, target_id: str) -> Dict[str, Any]:
        """Detach a lane for migration; returns its portable state.

        The lane is *removed* from this engine — that removal is the
        handoff barrier: no further submits or drains can touch it
        here, and every pending datum travels inside the payload, so
        :meth:`install_lane` on the destination loses nothing.  The
        target's per-target component state (see
        :meth:`~repro.core.component.ProcessingComponent
        .export_target_state`) travels too, keyed by component name.
        """
        lane = self.lane(target_id)
        components = {}
        for component in self.graph.components():
            state = component.export_target_state(target_id)
            if state is not None:
                components[component.name] = state
        payload = {
            "target": target_id,
            "source": lane.source.name,
            "weight": lane.weight,
            "submitted": lane.submitted,
            "batches": lane.batches,
            "queue": lane.queue.state_snapshot(),
            "components": components,
        }
        self.untrack(target_id)
        return payload

    def install_lane(self, payload: Dict[str, Any]) -> TargetLane:
        """Install a lane exported from another engine, state intact."""
        target_id = payload["target"]
        # Resolve the state's components first, so a graph lacking one
        # fails before the lane exists here.
        holders = [
            (self.graph.component(name), state)
            for name, state in payload["components"].items()
        ]
        queue_state = payload["queue"]
        lane = self.track(
            target_id,
            payload["source"],
            capacity=queue_state["capacity"],
            policy=queue_state["policy"],
            weight=payload["weight"],
        )
        for component, state in holders:
            component.install_target_state(target_id, state)
        lane.queue.state_restore(queue_state)
        lane.submitted = payload["submitted"]
        lane.batches = payload["batches"]
        return lane

    # -- inspection ------------------------------------------------------------

    def depth_total(self) -> int:
        """Datums currently pending across all lanes."""
        return sum(lane.queue.depth for lane in self._lane_list)

    def snapshot(self) -> Dict[str, Any]:
        """Full reflective summary for the infrastructure report."""
        return {
            "scheduler": self.scheduler.describe(),
            "rounds": self.rounds,
            "drained_total": self.drained_total,
            "pending": self.depth_total(),
            "running": self._cancel is not None,
            "truncations": self.truncations,
            "last_drain_truncated": self.last_drain_truncated,
            "lanes": {
                lane.target_id: lane.stats() for lane in self._lane_list
            },
            # The compiled dispatch plan the drains execute against --
            # carried here so shard snapshots (which serialise this
            # dict across the executor boundary) surface each shard's
            # private plan in the merged report.
            "plan": self.graph.plan_snapshot(),
        }

    def render(self, snapshot: Dict[str, Any]) -> List[str]:
        """The report's ``ingestion:`` lines for a :meth:`snapshot`."""
        scheduler = snapshot["scheduler"]
        knobs = ", ".join(
            f"{key}={fmt(value)}"
            for key, value in sorted(scheduler.items())
            if key != "type"
        )
        detail = f" ({knobs})" if knobs else ""
        lines: List[str] = []
        lines.append(
            f"  scheduler: {scheduler['type']}{detail};"
            f" rounds={snapshot['rounds']},"
            f" drained={snapshot['drained_total']},"
            f" pending={snapshot['pending']}"
        )
        for target_id, lane in sorted(snapshot["lanes"].items()):
            dropped = lane["dropped_oldest"] + lane["dropped_newest"]
            lines.append(
                f"  {target_id} @{lane['source']}: {lane['policy']}"
                f" depth={lane['depth']}/{lane['capacity']}"
                f" (hw={lane['high_water']}),"
                f" accepted={lane['accepted']}, dropped={dropped},"
                f" rejected={lane['rejected']},"
                f" coalesced={lane['coalesced']}"
            )
        return lines
