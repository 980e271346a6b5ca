"""In-stream geofence / alerting rules evaluated during dispatch.

The shape follows zmeta's alert rings (SNIPPETS.md, Snippet 3): a rule
watches a live datum stream and raises bounded, inspectable alert
records when a tracked target crosses a named boundary -- here a circle
in city grid metres.  :class:`GeofenceComponent` sits on the dispatch
path inside the scenario graph, so the rules run *in-stream* under
whatever engine (single, sharded, in-process or multiprocessing)
carries the traffic, and alerts double as first-class ``geo-alert``
datums routed to an alert sink -- countable through ``sink_outputs()``
on any execution mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.component import InputPort, OutputPort, ProcessingComponent
from repro.core.data import Datum

from .city import ALERT_KIND, GPS_KIND, SENSOR_KINDS

#: Transition triggers a rule may watch for.
ENTER = "enter"
EXIT = "exit"
BOTH = "both"


@dataclass(frozen=True)
class GeofenceRule:
    """A named circular fence in grid metres with a transition trigger."""

    name: str
    x_m: float
    y_m: float
    radius_m: float
    trigger: str = ENTER

    def __post_init__(self) -> None:
        if self.trigger not in (ENTER, EXIT, BOTH):
            raise ValueError(f"unknown trigger {self.trigger!r}")
        if self.radius_m <= 0:
            raise ValueError("radius_m must be positive")

    def contains(self, x_m: float, y_m: float) -> bool:
        dx = x_m - self.x_m
        dy = y_m - self.y_m
        return dx * dx + dy * dy <= self.radius_m * self.radius_m


class GeofenceComponent(ProcessingComponent):
    """Evaluates geofence rules on every GPS datum flowing through it.

    Non-GPS datums pass through untouched.  For each GPS fix the
    component tracks per-(target, rule) inside/outside state; a
    transition matching the rule's trigger appends a record to a bounded
    alert ring (newest last) and produces a ``geo-alert`` datum whose
    payload is ``(rule, target, transition, tick)``.  The ring is the
    inspection surface; the datums are the application surface.
    """

    def __init__(
        self,
        rules: Tuple[GeofenceRule, ...] = (),
        name: str = "geofence",
        ring_limit: int = 256,
    ) -> None:
        super().__init__(
            name,
            inputs=(InputPort("in", SENSOR_KINDS),),
            output=OutputPort(SENSOR_KINDS + (ALERT_KIND,)),
        )
        self.rules = tuple(rules)
        self._ring_limit = ring_limit
        self._inside: Dict[Tuple[str, str], bool] = {}
        self._alerts: List[Dict[str, Any]] = []
        self.alerts_raised = 0

    def process(self, port_name: str, datum: Datum) -> None:
        if datum.kind == GPS_KIND and self.rules:
            target = datum.attributes.get("target", "")
            x_m, y_m = datum.payload[0], datum.payload[1]
            for rule in self.rules:
                inside = rule.contains(x_m, y_m)
                key = (target, rule.name)
                was_inside = self._inside.get(key, False)
                self._inside[key] = inside
                if inside == was_inside:
                    continue
                transition = ENTER if inside else EXIT
                if rule.trigger != BOTH and rule.trigger != transition:
                    continue
                self._raise_alert(rule, target, transition, datum)
        self.produce(datum)

    def _raise_alert(
        self,
        rule: GeofenceRule,
        target: str,
        transition: str,
        datum: Datum,
    ) -> None:
        tick = datum.attributes.get("tick")
        self.alerts_raised += 1
        self._alerts.append(
            {
                "rule": rule.name,
                "target": target,
                "transition": transition,
                "tick": tick,
                "timestamp": datum.timestamp,
            }
        )
        if len(self._alerts) > self._ring_limit:
            del self._alerts[: len(self._alerts) - self._ring_limit]
        self.produce(
            Datum(
                kind=ALERT_KIND,
                payload=(rule.name, target, transition, tick),
                timestamp=datum.timestamp,
                producer=self.name,
            )
        )

    # -- inspection (PSL reflective surface) ---------------------------------

    def alerts(self) -> List[Dict[str, Any]]:
        """The bounded alert ring, newest last (a copy)."""
        return [dict(record) for record in self._alerts]

    def export_target_state(self, target_id: str) -> Optional[Dict[str, bool]]:
        """The target's inside/outside flags per rule, removed here."""
        inside = self._inside
        state = {
            rule.name: inside.pop((target_id, rule.name))
            for rule in self.rules
            if (target_id, rule.name) in inside
        }
        return state or None

    def install_target_state(self, target_id: str, state: Dict[str, bool]) -> None:
        for rule, inside in state.items():
            self._inside[(target_id, rule)] = inside

    def state_snapshot(self) -> Dict[str, Any]:
        return {
            "inside": {f"{t}|{r}": v for (t, r), v in self._inside.items()},
            "alerts": [dict(record) for record in self._alerts],
            "alerts_raised": self.alerts_raised,
        }

    def state_restore(self, state: Dict[str, Any]) -> None:
        inside = {}
        for key, value in state.get("inside", {}).items():
            target, _, rule = key.rpartition("|")
            inside[(target, rule)] = value
        self._inside = inside
        self._alerts = [dict(record) for record in state.get("alerts", [])]
        self.alerts_raised = state.get("alerts_raised", 0)
