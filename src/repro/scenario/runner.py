"""The scenario runner: generator -> engine -> controllers, per tick.

One :class:`ScenarioRunner` drives a :class:`CityGenerator` against any
engine flavour -- a :class:`~repro.runtime.engine.PositioningEngine`, a
:class:`~repro.runtime.sharding.ShardedEngine` (either executor), or an
:class:`~repro.gateway.IngestionGateway`-fronted deployment (the
generator's ``wire_payload`` bridge) -- on the simulated clock.  Each
tick it applies churn (track/untrack), submits the tick's emissions,
drains one round, then hands the round's *view* (lane stats, pending
depths, per-shard backlogs, supervisor state) to the
:class:`~repro.scenario.control.ControlLoop`, whose controllers push
decisions back through the adaptation seams.

The runner is the object ``PerPos.enable_scenario`` installs on the
graph, so ``psl.scenario()`` / ``psl.controllers()`` and the report's
``scenario:`` / ``control:`` sections can read a live run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.core.subsystems import fmt
from repro.runtime.queues import DROP_OLDEST

from .city import ALERT_KIND, CityGenerator, ScenarioError
from .control import Actuators, ControlLoop


def build_city_graph(
    rules: tuple = (), ring_limit: int = 256, keep_last: int = 100_000
) -> Any:
    """The scenario's processing graph recipe (module-level: picklable).

    ``city-src -> geofence -> {city-app, city-alerts}``: sensor kinds
    flow to the application sink, ``geo-alert`` datums minted in-stream
    by the geofence land on their own alert sink -- so alert *counts*
    are readable from ``sink_outputs()`` under any execution mode.
    """
    from repro.core.component import ApplicationSink, SourceComponent
    from repro.core.graph import ProcessingGraph

    from .city import SENSOR_KINDS
    from .geofence import GeofenceComponent

    graph = ProcessingGraph()
    source = SourceComponent("city-src", SENSOR_KINDS)
    fence = GeofenceComponent(tuple(rules), ring_limit=ring_limit)
    app = ApplicationSink("city-app", SENSOR_KINDS, keep_last=keep_last)
    alerts = ApplicationSink("city-alerts", (ALERT_KIND,), keep_last=keep_last)
    for component in (source, fence, app, alerts):
        graph.add(component)
    graph.connect("city-src", "geofence", "in")
    graph.connect("geofence", "city-app", "in")
    graph.connect("geofence", "city-alerts", "in")
    return graph


class ScenarioRunner:
    """Drives one city scenario against one engine, closed- or open-loop.

    ``control=None`` is the open-loop baseline: same workload, no
    adaptation.  The engine is duck-typed; the runner detects a sharded
    coordinator by its ``ingestion_lanes`` surface.
    """

    def __init__(
        self,
        generator: CityGenerator,
        engine: Any,
        *,
        control: Optional[ControlLoop] = None,
        supervisor: Optional[Any] = None,
        hub: Optional[Any] = None,
        source: str = "city-src",
        capacity: int = 16,
        policy: str = DROP_OLDEST,
    ) -> None:
        self.generator = generator
        self.engine = engine
        self.control = control
        self.supervisor = supervisor
        self.hub = hub
        self.source = source
        self.capacity = capacity
        self.policy = policy
        self._sharded = hasattr(engine, "ingestion_lanes")
        self._actuators = self._build_actuators()
        self.ticks_run = 0
        self.submitted = 0
        self.drained = 0
        self.verdicts: Dict[str, int] = {}
        self.high_water = 0
        # Lanes untracked by churn take their queue counters with them;
        # fold them into running totals so drop accounting is cumulative.
        self._retired_dropped = 0
        self._retired_rejected = 0
        self._retired_coalesced = 0

    # -- wiring -------------------------------------------------------------

    def _build_actuators(self) -> Actuators:
        migrate = None
        if self._sharded and self.engine.shard_count > 1:
            migrate = self.engine.migrate_target
        set_supervision = None
        if self.supervisor is not None:
            set_supervision = self._swap_policy
        return Actuators(
            set_backpressure=self.engine.set_policy,
            set_gps_threshold=self.generator.set_gps_threshold,
            set_supervision=set_supervision,
            migrate_target=migrate,
        )

    def _swap_policy(self, **changes: Any) -> Any:
        """Replace the supervisor's policy object (Dearle-style: policy
        objects are swapped, never mutated in place)."""
        policy = replace(self.supervisor.policy, **changes)
        self.supervisor.policy = policy
        return policy

    # -- the per-tick view --------------------------------------------------

    def view(self, tick: int, drained_round: int) -> Dict[str, Any]:
        """Assemble the round's observation for the control loop.

        Controller-visible figures are engine-flavour-independent sums
        (plus per-shard extras only the rebalance controller reads:
        ``shards`` backlogs, ``degraded`` shard ids and each lane's
        ``shard``), so the same workload yields the same ledger on a
        single engine and an in-process sharded engine.  ``lanes`` maps
        each target to the seven lane counters the runner and the stock
        controllers read
        (:meth:`~repro.runtime.engine.PositioningEngine.lane_counters`),
        not the full stats ``ingestion_lanes`` carries.
        """
        lanes = self.engine.lane_counters()
        dropped = self._retired_dropped + sum(
            s.get("dropped_oldest", 0) + s.get("dropped_newest", 0)
            for s in lanes.values()
        )
        rejected = self._retired_rejected + sum(
            s.get("rejected", 0) for s in lanes.values()
        )
        pending = sum(s.get("depth", 0) for s in lanes.values())
        view: Dict[str, Any] = {
            "tick": tick,
            "lanes": lanes,
            "pending": pending,
            "dropped_total": dropped,
            "rejected_total": rejected,
            "drained_round": drained_round,
            "generator": self.generator.snapshot(),
        }
        if self.supervisor is not None:
            view["supervisor"] = self.supervisor.snapshot()
        if self._sharded:
            shards: Dict[int, int] = {
                shard_id: 0 for shard_id in range(self.engine.shard_count)
            }
            for stats in lanes.values():
                shard_id = stats.get("shard")
                if shard_id is not None:
                    shards[shard_id] = (
                        shards.get(shard_id, 0) + stats.get("depth", 0)
                    )
            view["shards"] = shards
            view["degraded"] = self.engine.degraded()
        return view

    # -- the run ------------------------------------------------------------

    def run_tick(self) -> Dict[str, Any]:
        """One simulated tick: churn, submit, drain, control."""
        batch = self.generator.advance()
        for device_id in batch.joined:
            self.engine.track(
                device_id,
                self.source,
                capacity=self.capacity,
                policy=self.policy,
            )
        if batch.left:
            stats_before = self.engine.lane_counters()
            for device_id in batch.left:
                stats = stats_before.get(device_id, {})
                self._retired_dropped += stats.get(
                    "dropped_oldest", 0
                ) + stats.get("dropped_newest", 0)
                self._retired_rejected += stats.get("rejected", 0)
                self._retired_coalesced += stats.get("coalesced", 0)
                self.engine.untrack(device_id)
        if batch.events:
            if hasattr(self.engine, "submit_batch"):
                verdicts = self.engine.submit_batch(batch.events)
                for verdict, count in verdicts.items():
                    self.verdicts[verdict] = (
                        self.verdicts.get(verdict, 0) + count
                    )
            else:
                for target_id, datum in batch.events:
                    verdict = self.engine.submit(target_id, datum)
                    self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
            self.submitted += len(batch.events)
        drained_round = self.engine.drain_round()
        self.drained += drained_round
        view = self.view(batch.tick, drained_round)
        self.high_water = max(
            self.high_water,
            max(
                (s.get("high_water", 0) for s in view["lanes"].values()),
                default=0,
            ),
        )
        if self.control is not None:
            self.control.step(view, self._actuators, self.hub)
        if self.hub is not None:
            self.hub.scenario_tick(
                view["generator"]["devices"], len(batch.events)
            )
        self.ticks_run += 1
        return view

    def run(self, ticks: int, *, settle_rounds: int = 50) -> Dict[str, Any]:
        """Run ``ticks`` simulated ticks, then drain the tail; returns
        the result summary (see :meth:`result`)."""
        if ticks < 0:
            raise ScenarioError("ticks must be non-negative")
        for _ in range(ticks):
            self.run_tick()
        for _ in range(settle_rounds):
            if self._pending() == 0:
                break
            self.drained += self.engine.drain_round()
        if self.hub is not None:
            for payload in self.alert_payloads():
                self.hub.geofence_alert(payload[0])
        return self.result()

    def _pending(self) -> int:
        if self._sharded:
            return self.engine.pending_total()
        return self.engine.depth_total()

    def alert_payloads(self) -> List[Any]:
        """Payloads of ``geo-alert`` datums that reached the alert sink."""
        if self._sharded:
            return [
                payload
                for _sink, kind, payload, _target in (
                    self.engine.sink_outputs()
                )
                if kind == ALERT_KIND
            ]
        graph = self.engine.graph
        try:
            sink = graph.component("city-alerts")
        except Exception:
            return []
        return [datum.payload for datum in getattr(sink, "received", [])]

    def alerts_delivered(self) -> int:
        """Count of ``geo-alert`` datums that reached the alert sink."""
        return len(self.alert_payloads())

    # -- results + inspection -----------------------------------------------

    def result(self) -> Dict[str, Any]:
        """The figures E17 gates on, plus context for the report."""
        generator = self.generator.snapshot()
        lanes = self.engine.lane_counters()
        dropped = self._retired_dropped + sum(
            s.get("dropped_oldest", 0) + s.get("dropped_newest", 0)
            for s in lanes.values()
        )
        coalesced = self._retired_coalesced + sum(
            s.get("coalesced", 0) for s in lanes.values()
        )
        rejected = self._retired_rejected + sum(
            s.get("rejected", 0) for s in lanes.values()
        )
        summary: Dict[str, Any] = {
            "ticks": self.ticks_run,
            "devices": generator["devices"],
            "submitted": self.submitted,
            "drained": self.drained,
            "pending": self._pending(),
            "high_water": self.high_water,
            "accepted": self.verdicts.get("accepted", 0),
            "dropped": dropped,
            "coalesced": coalesced,
            "rejected": rejected,
            "alerts": self.alerts_delivered(),
            "suppressed_fixes": generator["suppressed_total"],
            "zone_lost": generator["zone_lost_total"],
            "burst_extra": generator["burst_extra_total"],
            "gps_threshold_m": generator["gps_threshold_m"],
            "closed_loop": self.control is not None,
        }
        if self.control is not None:
            summary["decisions"] = self.control.decisions_total
        return summary

    def decision_ledger(self) -> List[Dict[str, Any]]:
        """The control loop's ledger ([] when running open-loop)."""
        if self.control is None:
            return []
        return self.control.ledger()

    def snapshot(self) -> Dict[str, Any]:
        """Reflective summary for ``psl.scenario()`` and the report."""
        return {
            "sharded": self._sharded,
            "source": self.source,
            "capacity": self.capacity,
            "policy": self.policy,
            "closed_loop": self.control is not None,
            "generator": self.generator.snapshot(),
            "progress": {
                "ticks": self.ticks_run,
                "submitted": self.submitted,
                "drained": self.drained,
                "pending": self._pending(),
                "high_water": self.high_water,
                "verdicts": dict(self.verdicts),
            },
        }

    def render(self, snapshot: Dict[str, Any]) -> List[str]:
        """The report's ``scenario:`` lines for a :meth:`snapshot`."""
        generator = snapshot["generator"]
        progress = snapshot["progress"]
        loop = "closed" if snapshot["closed_loop"] else "open"
        lines: List[str] = []
        lines.append(
            f"  seed={generator['seed']}, devices={generator['devices']}"
            f" (joined={generator['joined_total']},"
            f" left={generator['left_total']}),"
            f" loop={loop}"
        )
        lines.append(
            f"  ticks={progress['ticks']},"
            f" submitted={progress['submitted']},"
            f" drained={progress['drained']},"
            f" pending={progress['pending']},"
            f" high_water={progress['high_water']}"
        )
        lines.append(
            f"  suppressed_fixes={generator['suppressed_total']},"
            f" zone_lost={generator['zone_lost_total']},"
            f" burst_extra={generator['burst_extra_total']},"
            f" gps_threshold_m={fmt(generator['gps_threshold_m'])}"
        )
        return lines
