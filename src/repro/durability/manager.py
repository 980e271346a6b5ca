"""Snapshot capture, crash-recovery restore, and the durability manager.

``capture_state`` walks the existing reflection seams -- lane stats,
component ``state_snapshot``, supervisor breakers, gateway DLQ, the
hub's graph metric series -- into one plain dict; ``restore_state``
rebuilds a live engine from that dict and replays the journal entries
appended after it.  The replay model is deterministic re-execution:
submits re-cross ``engine.submit`` (verdicts and lane counters
recompute identically) and drain rounds re-cross the batched dispatch
path via ``engine.replay_round``, which reproduces the original
per-lane batch sizes independent of the current scheduler cursor.
Sink state is captured in the snapshot, so snapshot + replay ≡ the
uninterrupted run at every drain boundary.

:class:`DurabilityManager` ties it together: it owns the store, attaches
the journal to the engine, auto-snapshots every ``snapshot_every``
entries, and surfaces everything to the PSL and the infrastructure
report through its service registration.  It covers exactly the single
engine it journals: warm handoffs between shards are the sharded
coordinator's record, not this one's.  Its own counters (snapshots,
bytes, restores, entries replayed) are the only record of its activity;
:meth:`DurabilityManager.snapshot` shows them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.durability.codec import decode_value, encode_value
from repro.durability.journal import DurabilityJournal
from repro.durability.store import StateStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.graph import ProcessingGraph
    from repro.runtime.engine import PositioningEngine

#: Snapshot schema version, checked on restore.
STATE_VERSION = 1


class DurabilityError(Exception):
    """Raised on invalid durability configuration or unusable state."""


def capture_state(
    graph: "ProcessingGraph",
    engine: "PositioningEngine",
    *,
    gateway: Optional[Any] = None,
) -> Dict[str, Any]:
    """Collect full engine state as a plain (codec-ready) dict.

    Histogram series are deliberately not captured: their bucket
    contents cannot be merged losslessly on restore, and every figure
    derived from them is a latency distribution replay regenerates.
    """
    supervisor = graph.supervisor
    hub = graph.instrumentation
    metrics: Optional[List[Dict[str, Any]]] = None
    if hub is not None:
        metrics = [
            {"kind": kind, "name": name, "labels": labels, "value": inst.value}
            for kind, name, labels, inst in hub.registry.series()
            if kind in ("counter", "gauge")
        ]
    return {
        "version": STATE_VERSION,
        "engine": {
            "rounds": engine.rounds,
            "drained_total": engine.drained_total,
            "truncations": engine.truncations,
            "last_drain_truncated": engine.last_drain_truncated,
            "stamp_targets": engine.stamp_targets,
            "scheduler": engine.scheduler.describe(),
        },
        "lanes": [
            {
                "target": lane.target_id,
                "source": lane.source.name,
                "weight": lane.weight,
                "submitted": lane.submitted,
                "batches": lane.batches,
                "queue": lane.queue.state_snapshot(),
            }
            for lane in engine.lanes()
        ],
        "components": {
            component.name: state
            for component in graph.components()
            if (state := component.state_snapshot()) is not None
        },
        "supervision": (
            supervisor.state_snapshot() if supervisor is not None else None
        ),
        "gateway_dlq": (
            gateway.dlq.state_snapshot() if gateway is not None else None
        ),
        "metrics": metrics,
        "topology": {
            "components": sorted(c.name for c in graph.components()),
            "connections": len(graph.connections()),
        },
    }


def restore_state(
    graph: "ProcessingGraph",
    engine: "PositioningEngine",
    snapshot: Dict[str, Any],
    entries: List[Dict[str, Any]],
    *,
    gateway: Optional[Any] = None,
) -> int:
    """Rebuild ``engine`` from a snapshot, then replay journal entries.

    The graph must already be constructed with the snapshot's topology
    (durability stores *state*, not structure -- structure is code).
    Returns the number of replayed entries.
    """
    version = snapshot.get("version")
    if version != STATE_VERSION:
        raise DurabilityError(
            f"unsupported snapshot version {version!r};"
            f" this build reads version {STATE_VERSION}"
        )
    present = {component.name for component in graph.components()}
    needed = set(snapshot["topology"]["components"])
    missing = sorted(needed - present)
    if missing:
        raise DurabilityError(
            f"snapshot topology mismatch: graph is missing"
            f" components {missing}"
        )

    journal = engine.journal
    was_suspended = journal.suspended if journal is not None else False
    if journal is not None:
        journal.suspended = True
    try:
        # -- engine counters + lanes (queues re-filled in place) ---------
        engine_state = snapshot["engine"]
        engine.rounds = engine_state["rounds"]
        engine.drained_total = engine_state["drained_total"]
        engine.truncations = engine_state["truncations"]
        engine.last_drain_truncated = engine_state["last_drain_truncated"]
        engine.stamp_targets = engine_state["stamp_targets"]
        for lane in engine.lanes():
            engine.untrack(lane.target_id)
        for lane_state in snapshot["lanes"]:
            queue_state = lane_state["queue"]
            lane = engine.track(
                lane_state["target"],
                lane_state["source"],
                capacity=queue_state["capacity"],
                policy=queue_state["policy"],
                weight=lane_state["weight"],
            )
            lane.queue.state_restore(queue_state)
            lane.submitted = lane_state["submitted"]
            lane.batches = lane_state["batches"]

        # -- component / supervision / DLQ state -------------------------
        for name, state in snapshot["components"].items():
            graph.component(name).state_restore(state)
        supervision = snapshot.get("supervision")
        if supervision is not None and graph.supervisor is not None:
            graph.supervisor.state_restore(supervision)
        dlq_state = snapshot.get("gateway_dlq")
        if dlq_state is not None and gateway is not None:
            gateway.dlq.state_restore(dlq_state)

        # -- hub metric series (counters inc-to-value, gauges set) -------
        metrics = snapshot.get("metrics")
        hub = graph.instrumentation
        if metrics is not None and hub is not None:
            registry = hub.registry
            for series in metrics:
                labels = series["labels"]
                if series["kind"] == "counter":
                    counter = registry.counter(series["name"], **labels)
                    delta = series["value"] - counter.value
                    if delta:
                        counter.inc(delta)
                elif series["kind"] == "gauge":
                    registry.gauge(series["name"], **labels).set(
                        series["value"]
                    )

        # -- journal replay: deterministic re-execution ------------------
        replayed = 0
        for entry in entries:
            entry_type = entry.get("type")
            if entry_type == "submit":
                engine.submit(entry["target"], entry["datum"])
            elif entry_type == "drain":
                engine.replay_round(
                    [(target, count) for target, count in entry["lanes"]]
                )
            elif entry_type == "track":
                engine.track(
                    entry["target"],
                    entry["source"],
                    capacity=entry["capacity"],
                    policy=entry["policy"],
                    weight=entry["weight"],
                )
            elif entry_type == "untrack":
                engine.untrack(entry["target"])
            elif entry_type == "policy":
                engine.set_policy(
                    entry["target"],
                    policy=entry["policy"],
                    capacity=entry["capacity"],
                    weight=entry["weight"],
                )
            else:
                # Foreign entry kinds (e.g. persisted DLQ state) are
                # not engine mutations; skip without counting.
                continue
            replayed += 1
    finally:
        if journal is not None:
            journal.suspended = was_suspended
    return replayed


def restore_from_store(
    graph: "ProcessingGraph",
    engine: "PositioningEngine",
    store: StateStore,
    *,
    gateway: Optional[Any] = None,
) -> int:
    """Load the latest snapshot + journal tail from ``store`` and restore."""
    loaded = store.load_latest()
    if loaded is None:
        raise DurabilityError("state store holds no snapshot to restore from")
    snapshot, entries = loaded
    return restore_state(
        graph,
        engine,
        decode_value(snapshot),
        [decode_value(entry) for entry in entries],
        gateway=gateway,
    )


class DurabilityManager:
    """Owns the store, the journal, and the snapshot/restore lifecycle."""

    def __init__(
        self,
        graph: "ProcessingGraph",
        store: StateStore,
        *,
        snapshot_every: Optional[int] = None,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise DurabilityError("snapshot_every must be >= 1")
        self.graph = graph
        self.store = store
        self.snapshot_every = snapshot_every
        self.journal: Optional[DurabilityJournal] = None
        #: The ingestion gateway whose DLQ snapshots capture and restores
        #: reinstate; set by :class:`~repro.core.middleware.PerPos`.
        self.gateway: Optional[Any] = None
        self.snapshots_taken = 0
        self.restores = 0
        #: Journal entries replayed, summed over every restore.
        self.entries_replayed = 0
        self.last_snapshot_bytes = 0

    # -- lifecycle ---------------------------------------------------------

    def attach(self) -> None:
        """Install the journal on the graph's engine."""
        engine = self._engine()
        self.journal = DurabilityJournal(
            self.store,
            snapshot_every=self.snapshot_every,
            snapshot_fn=self.checkpoint,
        )
        engine.journal = self.journal

    def detach(self) -> None:
        """Remove the journal from the engine; the store stays readable."""
        engine = self.graph.engine
        if engine is not None and engine.journal is self.journal:
            engine.journal = None
        self.journal = None
        self.store.close()

    def _engine(self) -> "PositioningEngine":
        engine = self.graph.engine
        if engine is None:
            raise DurabilityError(
                "no positioning engine installed; durability journals"
                " through the engine -- enable the runtime first"
            )
        return engine

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Persist one full checkpoint; returns summary info."""
        engine = self._engine()
        state = capture_state(self.graph, engine, gateway=self.gateway)
        n_bytes = self.store.save_snapshot(encode_value(state))
        self.snapshots_taken += 1
        self.last_snapshot_bytes = n_bytes
        if self.journal is not None:
            self.journal.since_snapshot = 0
        return {
            "bytes": n_bytes,
            "lanes": len(state["lanes"]),
            "pending": engine.depth_total(),
            "snapshots_taken": self.snapshots_taken,
        }

    def restore(self) -> int:
        """Rebuild the engine from the store; returns replayed entries."""
        engine = self._engine()
        replayed = restore_from_store(
            self.graph, engine, self.store, gateway=self.gateway
        )
        self.restores += 1
        self.entries_replayed += replayed
        return replayed

    # -- gateway DLQ persistence (survives disable/enable cycles) ----------

    def save_dlq_state(self, dlq_state: Dict[str, Any]) -> None:
        """Persist DLQ records as a journal entry (type ``dlq_state``)."""
        self.store.append(
            {"type": "dlq_state", "dlq": encode_value(dlq_state)}
        )

    def load_dlq_state(self) -> Optional[Dict[str, Any]]:
        """Latest persisted DLQ records, or None if never saved."""
        entry = self.store.latest_entry("dlq_state")
        if entry is None:
            return None
        return decode_value(entry["dlq"])

    # -- inspection --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Reflective summary for the PSL and the infrastructure report."""
        return {
            "store": self.store.describe(),
            "snapshot_every": self.snapshot_every,
            "snapshots_taken": self.snapshots_taken,
            "restores": self.restores,
            "entries_replayed": self.entries_replayed,
            "last_snapshot_bytes": self.last_snapshot_bytes,
            "journal": (
                self.journal.describe() if self.journal is not None else None
            ),
        }

    def render(self, snapshot: Dict[str, Any]) -> List[str]:
        """The report's ``durability:`` lines for a :meth:`snapshot`."""
        store = snapshot["store"]
        every = snapshot["snapshot_every"]
        auto = f"every {every} entries" if every else "off"
        lines: List[str] = []
        lines.append(
            f"  store={store['backend']}"
            f" (snapshots={store['snapshots']},"
            f" entries={store['entries']});"
            f" auto_snapshot={auto}"
        )
        lines.append(
            f"  snapshots_taken={snapshot['snapshots_taken']}"
            f" (last={snapshot['last_snapshot_bytes']}B),"
            f" restores={snapshot['restores']}"
            f" (replayed={snapshot['entries_replayed']})"
        )
        return lines
