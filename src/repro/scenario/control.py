"""Closed-loop adaptive controllers over the middleware's knobs.

Dearle et al. (PAPERS.md) argue adaptation decisions belong in *policy
objects* reacting to observed conditions rather than hard-wired into the
middleware.  This module is that layer for the reproduction: small
controllers that read the lane/shard/supervisor view assembled each
drain round and push decisions back through the adaptation seams every
prior PR exposed -- ``set_backpressure`` (PR 4), the EnTracked
power/accuracy threshold (``repro.energy``), :class:`SupervisionPolicy`
thresholds (PR 3), and shard rebalancing (PR 5 + this PR's
``ShardedEngine.rebalance``).

Every decision is recorded in a bounded :class:`DecisionLedger` --
adaptation stays *translucent*: the system adapts itself, and you can
read exactly what it did and why through ``psl.controllers()``, the
report's ``control:`` section, and hub counters.

Determinism contract: controllers iterate lanes in sorted target order
and read only per-lane stats and aggregate sums, so the ledger produced
on a single engine matches the one produced on an in-process sharded
engine for the same workload -- pinned by the equivalence properties in
``tests/test_property_scenario.py``.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional, Sequence


class ControlError(Exception):
    """Raised on invalid controller configuration or use."""


class Actuators:
    """The write-side seams a controller may drive, injected per step.

    Each hook is optional (``None`` when the deployment lacks that
    seam); controllers must check before calling.  Keeping actuation
    behind one narrow object makes controllers testable with stubs and
    keeps them ignorant of engine flavours.
    """

    def __init__(
        self,
        *,
        set_backpressure: Optional[Callable[..., Dict[str, Any]]] = None,
        set_gps_threshold: Optional[Callable[[float], float]] = None,
        set_supervision: Optional[Callable[..., Any]] = None,
        migrate_target: Optional[Callable[[str, int], Dict[str, Any]]] = None,
    ) -> None:
        self.set_backpressure = set_backpressure
        self.set_gps_threshold = set_gps_threshold
        self.set_supervision = set_supervision
        self.migrate_target = migrate_target


class Controller(abc.ABC):
    """One adaptation policy: reads the view, emits decision dicts.

    ``evaluate`` returns a list of decision records (possibly empty);
    each must carry ``action`` and may carry ``target``, ``params`` and
    ``reason``.  The :class:`ControlLoop` stamps controller name and
    tick and appends them to the ledger.
    """

    name = "controller"

    @abc.abstractmethod
    def evaluate(
        self, view: Dict[str, Any], actuators: Actuators
    ) -> List[Dict[str, Any]]:
        """Inspect the round's view and (maybe) actuate."""

    def describe(self) -> Dict[str, Any]:
        """Reflective summary for PSL / the report."""
        return {"name": self.name, "type": type(self).__name__}


class BackpressureController(Controller):
    """Grows / shrinks lane capacity in response to depth and drops.

    A lane whose queue runs hot (depth above ``high`` of capacity, or
    new drops since the last round) gets its capacity doubled up to
    ``max_capacity``; a lane idle below ``low`` for ``calm_rounds``
    consecutive rounds is halved back down to ``min_capacity``.  A
    per-lane cooldown stops oscillation.
    """

    name = "backpressure"

    def __init__(
        self,
        *,
        high: float = 0.75,
        low: float = 0.25,
        min_capacity: int = 8,
        max_capacity: int = 256,
        calm_rounds: int = 8,
        cooldown_rounds: int = 2,
    ) -> None:
        if not 0.0 <= low < high <= 1.0:
            raise ControlError("need 0 <= low < high <= 1")
        self.high = high
        self.low = low
        self.min_capacity = min_capacity
        self.max_capacity = max_capacity
        self.calm_rounds = calm_rounds
        self.cooldown_rounds = cooldown_rounds
        self._last_dropped: Dict[str, int] = {}
        self._calm: Dict[str, int] = {}
        self._cooldown_until: Dict[str, int] = {}

    def evaluate(
        self, view: Dict[str, Any], actuators: Actuators
    ) -> List[Dict[str, Any]]:
        if actuators.set_backpressure is None:
            return []
        tick = view.get("tick", 0)
        decisions: List[Dict[str, Any]] = []
        lanes = view.get("lanes", {})
        for target in sorted(lanes):
            stats = lanes[target]
            capacity = stats.get("capacity", 0) or 1
            depth = stats.get("depth", 0)
            dropped = stats.get("dropped_oldest", 0) + stats.get(
                "dropped_newest", 0
            )
            new_drops = dropped - self._last_dropped.get(target, 0)
            self._last_dropped[target] = dropped
            if tick < self._cooldown_until.get(target, 0):
                continue
            fraction = depth / capacity
            if (new_drops > 0 or fraction >= self.high) and (
                capacity < self.max_capacity
            ):
                new_capacity = min(self.max_capacity, capacity * 2)
                actuators.set_backpressure(target, capacity=new_capacity)
                self._calm[target] = 0
                self._cooldown_until[target] = tick + self.cooldown_rounds
                decisions.append(
                    {
                        "action": "grow_capacity",
                        "target": target,
                        "params": {"capacity": new_capacity},
                        "reason": (
                            f"depth {depth}/{capacity},"
                            f" {new_drops} new drops"
                        ),
                    }
                )
            elif fraction <= self.low and new_drops == 0:
                calm = self._calm.get(target, 0) + 1
                self._calm[target] = calm
                if calm >= self.calm_rounds and capacity > self.min_capacity:
                    new_capacity = max(self.min_capacity, capacity // 2)
                    actuators.set_backpressure(target, capacity=new_capacity)
                    self._calm[target] = 0
                    self._cooldown_until[target] = (
                        tick + self.cooldown_rounds
                    )
                    decisions.append(
                        {
                            "action": "shrink_capacity",
                            "target": target,
                            "params": {"capacity": new_capacity},
                            "reason": f"calm for {calm} rounds",
                        }
                    )
            else:
                self._calm[target] = 0
        return decisions


class SamplingController(Controller):
    """Trades accuracy for load through the EnTracked threshold.

    When the round saw drops (the pipeline cannot keep up), the GPS
    error threshold is raised by ``raise_factor`` -- devices sleep their
    GPS longer, emitting less.  After ``recover_rounds`` consecutive
    clean rounds the threshold steps back down toward ``base_m``,
    restoring accuracy.  The EnTracked power/accuracy tradeoff
    (``repro.energy``), driven automatically.
    """

    name = "sampling"

    def __init__(
        self,
        *,
        base_m: float = 40.0,
        max_m: float = 640.0,
        raise_factor: float = 2.0,
        recover_rounds: int = 10,
        drop_tolerance: int = 0,
    ) -> None:
        if raise_factor <= 1.0:
            raise ControlError("raise_factor must be > 1")
        self.base_m = base_m
        self.max_m = max_m
        self.raise_factor = raise_factor
        self.recover_rounds = recover_rounds
        self.drop_tolerance = drop_tolerance
        self._threshold_m = base_m
        self._last_dropped = 0
        self._clean = 0

    def evaluate(
        self, view: Dict[str, Any], actuators: Actuators
    ) -> List[Dict[str, Any]]:
        if actuators.set_gps_threshold is None:
            return []
        dropped = view.get("dropped_total", 0)
        new_drops = dropped - self._last_dropped
        self._last_dropped = dropped
        if new_drops > self.drop_tolerance:
            self._clean = 0
            if self._threshold_m < self.max_m:
                self._threshold_m = min(
                    self.max_m, self._threshold_m * self.raise_factor
                )
                actuators.set_gps_threshold(self._threshold_m)
                return [
                    {
                        "action": "raise_threshold",
                        "params": {"threshold_m": self._threshold_m},
                        "reason": f"{new_drops} drops this round",
                    }
                ]
            return []
        self._clean += 1
        if self._clean >= self.recover_rounds and (
            self._threshold_m > self.base_m
        ):
            self._clean = 0
            self._threshold_m = max(
                self.base_m, self._threshold_m / self.raise_factor
            )
            actuators.set_gps_threshold(self._threshold_m)
            return [
                {
                    "action": "lower_threshold",
                    "params": {"threshold_m": self._threshold_m},
                    "reason": f"clean for {self.recover_rounds} rounds",
                }
            ]
        return []


class QuarantineController(Controller):
    """Tightens / relaxes supervision breaker thresholds under failures.

    Reads the supervisor snapshot in the view; a round with new
    component failures tightens the policy (smaller failure threshold,
    longer half-open delay) so breakers trip earlier, and a long quiet
    streak relaxes it back to the base policy.
    """

    name = "quarantine"

    def __init__(
        self,
        *,
        base_failure_threshold: int = 5,
        min_failure_threshold: int = 1,
        base_half_open_s: float = 30.0,
        max_half_open_s: float = 240.0,
        quiet_rounds: int = 20,
    ) -> None:
        self.base_failure_threshold = base_failure_threshold
        self.min_failure_threshold = min_failure_threshold
        self.base_half_open_s = base_half_open_s
        self.max_half_open_s = max_half_open_s
        self.quiet_rounds = quiet_rounds
        self._failure_threshold = base_failure_threshold
        self._half_open_s = base_half_open_s
        self._last_failures = 0
        self._quiet = 0

    def evaluate(
        self, view: Dict[str, Any], actuators: Actuators
    ) -> List[Dict[str, Any]]:
        if actuators.set_supervision is None:
            return []
        supervisor = view.get("supervisor")
        if not supervisor:
            return []
        failures = sum(
            entry.get("failures", 0)
            for entry in supervisor.get("components", {}).values()
        )
        new_failures = failures - self._last_failures
        self._last_failures = failures
        if new_failures > 0:
            self._quiet = 0
            if self._failure_threshold > self.min_failure_threshold or (
                self._half_open_s < self.max_half_open_s
            ):
                self._failure_threshold = max(
                    self.min_failure_threshold, self._failure_threshold - 1
                )
                self._half_open_s = min(
                    self.max_half_open_s, self._half_open_s * 2
                )
                actuators.set_supervision(
                    failure_threshold=self._failure_threshold,
                    half_open_after_s=self._half_open_s,
                )
                return [
                    {
                        "action": "tighten",
                        "params": {
                            "failure_threshold": self._failure_threshold,
                            "half_open_after_s": self._half_open_s,
                        },
                        "reason": f"{new_failures} new failures",
                    }
                ]
            return []
        self._quiet += 1
        if self._quiet >= self.quiet_rounds and (
            self._failure_threshold != self.base_failure_threshold
            or self._half_open_s != self.base_half_open_s
        ):
            self._quiet = 0
            self._failure_threshold = self.base_failure_threshold
            self._half_open_s = self.base_half_open_s
            actuators.set_supervision(
                failure_threshold=self._failure_threshold,
                half_open_after_s=self._half_open_s,
            )
            return [
                {
                    "action": "relax",
                    "params": {
                        "failure_threshold": self._failure_threshold,
                        "half_open_after_s": self._half_open_s,
                    },
                    "reason": f"quiet for {self.quiet_rounds} rounds",
                }
            ]
        return []


class RebalanceController(Controller):
    """Sheds a hot shard by migrating its deepest lane elsewhere.

    Only meaningful on a sharded deployment (the view must carry
    per-shard pending depths and per-lane shard annotations); a shard
    whose pending backlog exceeds ``imbalance`` times the mean of the
    others triggers one warm handoff of its deepest lane to the
    least-loaded healthy shard, then cools down.  Shards the view lists
    as ``degraded`` never receive a lane (the handoff would refuse
    them); with no healthy shard to receive one, nothing moves.
    """

    name = "rebalance"

    def __init__(
        self,
        *,
        imbalance: float = 2.0,
        min_pending: int = 32,
        cooldown_rounds: int = 10,
    ) -> None:
        if imbalance <= 1.0:
            raise ControlError("imbalance must be > 1")
        self.imbalance = imbalance
        self.min_pending = min_pending
        self.cooldown_rounds = cooldown_rounds
        self._cooldown_until = 0

    def evaluate(
        self, view: Dict[str, Any], actuators: Actuators
    ) -> List[Dict[str, Any]]:
        if actuators.migrate_target is None:
            return []
        shards: Dict[int, int] = view.get("shards") or {}
        if len(shards) < 2:
            return []
        tick = view.get("tick", 0)
        if tick < self._cooldown_until:
            return []
        hottest = max(sorted(shards), key=lambda s: shards[s])
        others = [p for s, p in shards.items() if s != hottest]
        mean_others = sum(others) / len(others) if others else 0.0
        if shards[hottest] < self.min_pending:
            return []
        if shards[hottest] <= self.imbalance * max(mean_others, 1.0):
            return []
        degraded = set(view.get("degraded", ()))
        healthy = [s for s in sorted(shards) if s != hottest and s not in degraded]
        if not healthy:
            return []
        coolest = min(healthy, key=lambda s: shards[s])
        lanes = view.get("lanes", {})
        candidates = [
            (stats.get("depth", 0), target)
            for target, stats in sorted(lanes.items())
            if stats.get("shard") == hottest
        ]
        if not candidates:
            return []
        depth, target = max(candidates)
        if depth <= 0:
            return []
        record = actuators.migrate_target(target, coolest)
        self._cooldown_until = tick + self.cooldown_rounds
        return [
            {
                "action": "migrate",
                "target": target,
                "params": {
                    "from": record.get("from"),
                    "to": record.get("to"),
                    "datums": record.get("datums"),
                },
                "reason": (
                    f"shard {hottest} pending {shards[hottest]} vs"
                    f" mean {mean_others:.1f}"
                ),
            }
        ]


class ControlLoop:
    """Runs every controller once per drain round; keeps the ledger.

    The ledger is bounded (oldest decisions fall off) but the per-
    controller decision *counts* are cumulative, so the report can say
    "the sampling controller acted 12 times" even after the ring
    rotated.
    """

    def __init__(
        self,
        controllers: Sequence[Controller],
        *,
        ledger_limit: int = 512,
    ) -> None:
        names = [controller.name for controller in controllers]
        if len(set(names)) != len(names):
            raise ControlError(f"duplicate controller names: {names}")
        self.controllers = list(controllers)
        self._ledger_limit = ledger_limit
        self._ledger: List[Dict[str, Any]] = []
        self._counts: Dict[str, int] = {}
        self.decisions_total = 0

    def step(
        self,
        view: Dict[str, Any],
        actuators: Actuators,
        hub: Optional[Any] = None,
    ) -> List[Dict[str, Any]]:
        """One control round: every controller sees the same view."""
        recorded: List[Dict[str, Any]] = []
        for controller in self.controllers:
            for decision in controller.evaluate(view, actuators):
                record = {
                    "tick": view.get("tick"),
                    "controller": controller.name,
                    "action": decision.get("action", "?"),
                    "target": decision.get("target"),
                    "params": decision.get("params", {}),
                    "reason": decision.get("reason", ""),
                }
                self._ledger.append(record)
                self._counts[controller.name] = (
                    self._counts.get(controller.name, 0) + 1
                )
                self.decisions_total += 1
                recorded.append(record)
                if hub is not None:
                    hub.controller_decision(controller.name, record["action"])
        if len(self._ledger) > self._ledger_limit:
            del self._ledger[: len(self._ledger) - self._ledger_limit]
        if hub is not None:
            hub.control_ledger_depth(len(self._ledger))
        return recorded

    # -- inspection ---------------------------------------------------------

    def ledger(self) -> List[Dict[str, Any]]:
        """The bounded decision ledger, newest last (a copy)."""
        return [dict(record) for record in self._ledger]

    def snapshot(self) -> Dict[str, Any]:
        """Reflective summary for PSL / the report."""
        return {
            "controllers": [c.describe() for c in self.controllers],
            "decisions_total": self.decisions_total,
            "by_controller": dict(self._counts),
            "ledger_depth": len(self._ledger),
            "ledger_limit": self._ledger_limit,
            "recent": [dict(r) for r in self._ledger[-5:]],
        }

    def render(self, snapshot: Dict[str, Any]) -> List[str]:
        """The report's ``control:`` lines for a :meth:`snapshot`."""
        names = ", ".join(c["name"] for c in snapshot["controllers"]) or "-"
        lines: List[str] = []
        lines.append(
            f"  controllers=[{names}],"
            f" decisions={snapshot['decisions_total']},"
            f" ledger={snapshot['ledger_depth']}/{snapshot['ledger_limit']}"
        )
        for record in snapshot["recent"]:
            target = f" {record['target']}" if record.get("target") else ""
            lines.append(
                f"    t={record['tick']} {record['controller']}:"
                f" {record['action']}{target} ({record['reason']})"
            )
        return lines


def default_controllers(
    *,
    base_threshold_m: float = 40.0,
    max_capacity: int = 256,
    sharded: bool = False,
) -> List[Controller]:
    """The stock closed-loop policy set used by E17 and the example."""
    controllers: List[Controller] = [
        BackpressureController(max_capacity=max_capacity),
        SamplingController(base_m=base_threshold_m),
        QuarantineController(),
    ]
    if sharded:
        controllers.append(RebalanceController())
    return controllers
