"""Supervised dispatch: failure isolation and component quarantine.

The paper's translucency requirements (R2/R3, §2.1-2.3) make the
positioning process an inspectable, adaptable seam -- but the seed
treated component *failures* as opaque: an exception raised inside
``consumer.receive`` unwound the whole synchronous delivery cascade,
killing sibling consumers and the sensor push loop with nothing reified
for the developer to inspect.  This module turns failures into
first-class seams, the same move the middleware makes for structure
(PSL), flow (PCL) and behaviour (observability):

* a :class:`SupervisionPolicy` decides what a raising component does to
  the rest of the delivery -- ``propagate`` (the historical behaviour),
  ``isolate`` (the failure is contained at the delivery boundary) or
  ``quarantine`` (isolation plus a circuit breaker);
* every caught failure is reified as an inspectable
  :class:`FailureRecord` (component, port, datum kind, time, traceback
  summary) on a bounded ring;
* under ``quarantine``, a component failing more than
  ``failure_threshold`` times within a sliding ``window_s`` trips a
  per-component circuit breaker: routing skips the component
  (``open``), a clock-driven probe window later admits one delivery
  (``half-open``), and a successful probe restores it (``closed``).

The :class:`Supervisor` is installed on a graph with
``graph.set_supervisor(...)`` (or ``PerPos.enable_supervision()``, which
injects the simulation clock).  The graph composes
:meth:`Supervisor.deliver_batch` into every route it memoizes while a
supervisor is installed; while *none* is, the composed deliveries do
not mention supervision at all -- it is free when off, exactly like
observability.
"""

from __future__ import annotations

import time as _time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Set,
)

from repro.core.data import Datum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.component import ProcessingComponent
    from repro.observability.instrumentation import ObservabilityHub

#: Policy modes.
PROPAGATE = "propagate"
ISOLATE = "isolate"
QUARANTINE = "quarantine"

_MODES = (PROPAGATE, ISOLATE, QUARANTINE)

#: Circuit-breaker health states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

class SupervisionError(Exception):
    """Raised on invalid supervision configuration or use."""


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the graph treats a component that raises during delivery.

    ``mode``
        ``"propagate"`` re-raises after recording (the pre-supervision
        behaviour, but observable); ``"isolate"`` contains the failure
        at the delivery boundary so siblings and the sensor push loop
        keep running; ``"quarantine"`` additionally trips a
        circuit breaker past the threshold.
    ``failure_threshold`` / ``window_s``
        The breaker trips when a component fails at least
        ``failure_threshold`` times within the last ``window_s``
        seconds of (injected) clock time.
    ``half_open_after_s``
        How long a quarantined component stays ``open`` before the next
        routed datum is admitted as a ``half-open`` recovery probe.
    ``max_records``
        Bound on the :class:`FailureRecord` ring buffer.
    """

    mode: str = ISOLATE
    failure_threshold: int = 5
    window_s: float = 60.0
    half_open_after_s: float = 30.0
    max_records: int = 256

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise SupervisionError(
                f"unknown supervision mode {self.mode!r};"
                f" expected one of {_MODES}"
            )
        if self.failure_threshold < 1:
            raise SupervisionError("failure_threshold must be >= 1")
        if self.window_s <= 0:
            raise SupervisionError("window_s must be positive")
        if self.half_open_after_s <= 0:
            raise SupervisionError("half_open_after_s must be positive")
        if self.max_records < 1:
            raise SupervisionError("max_records must be >= 1")


@dataclass(frozen=True)
class FailureRecord:
    """One reified delivery failure: the inspectable seam.

    ``origin`` is a one-line summary of the deepest traceback frame
    (``file:line in function``); the full exception object is *not*
    retained, keeping the ring buffer free of reference cycles into
    live component state.
    """

    component: str
    port: str
    kind: str
    time_s: float
    seq: int
    error_type: str
    message: str
    origin: str

    def summary(self) -> str:
        """Human-readable one-liner for reports and logs."""
        return (
            f"#{self.seq} t={self.time_s:g} {self.component}.{self.port}"
            f" <- {self.kind}: {self.error_type}: {self.message}"
            f" ({self.origin})"
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "component": self.component,
            "port": self.port,
            "kind": self.kind,
            "time_s": self.time_s,
            "seq": self.seq,
            "error_type": self.error_type,
            "message": self.message,
            "origin": self.origin,
        }


def _origin_of(exc: BaseException) -> str:
    """``file:line in function`` of the deepest frame, or ``"<unknown>"``."""
    tb = getattr(exc, "__traceback__", None)
    if tb is None:
        return "<unknown>"
    frames = traceback.extract_tb(tb)
    if not frames:
        return "<unknown>"
    frame = frames[-1]
    return f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno} in {frame.name}"


class _Breaker:
    """Per-component circuit-breaker state."""

    __slots__ = ("state", "failure_times", "opened_at", "trips")

    def __init__(self) -> None:
        self.state: str = CLOSED
        self.failure_times: Deque[float] = deque()
        self.opened_at: float = 0.0
        self.trips: int = 0


#: Listener signature: ``(event, component, record_or_None)`` where
#: event is one of ``"failure"``, ``"open"``, ``"half-open"``,
#: ``"closed"``.
SupervisionListener = Callable[[str, str, Optional[FailureRecord]], None]


class Supervisor:
    """Applies a :class:`SupervisionPolicy` at the delivery boundary.

    The graph routes every supervised group through
    :meth:`deliver_batch`, which hands each datum to :meth:`deliver`;
    that wraps ``consumer.receive`` (or ``hub.deliver`` when
    observability is installed, so error counters and latency
    histograms keep recording) in the policy.  All clocking is
    injected via ``time_fn`` -- ``PerPos.enable_supervision`` passes
    the simulation clock, so window expiry and half-open probes are
    fully deterministic.
    """

    def __init__(
        self,
        policy: Optional[SupervisionPolicy] = None,
        *,
        time_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.policy = policy or SupervisionPolicy()
        self._time = time_fn or _time.monotonic
        self._breakers: Dict[str, _Breaker] = {}
        self._records: Deque[FailureRecord] = deque(
            maxlen=self.policy.max_records
        )
        self._failure_counts: Dict[str, int] = {}
        self._skipped_counts: Dict[str, int] = {}
        self._seq = 0
        # Names with a probe delivery currently admitted; checked on
        # the success path, so kept as a set for O(1) "usually empty".
        self._half_open: Set[str] = set()
        self._listeners: List[SupervisionListener] = []

    # -- dispatch boundary (hot path while supervision is enabled) ---------

    def deliver(
        self,
        consumer: "ProcessingComponent",
        port_name: str,
        datum: Datum,
        hub: Optional["ObservabilityHub"],
    ) -> None:
        """Deliver one datum under the supervision policy."""
        name = consumer.name
        if self._breakers and not self._admit(name):
            self._skipped_counts[name] = (
                self._skipped_counts.get(name, 0) + 1
            )
            return
        try:
            if hub is None:
                consumer.receive(port_name, datum)
            else:
                hub.deliver(consumer, port_name, datum)
        except Exception as exc:  # noqa: BLE001 - the policy decides
            self._on_failure(name, port_name, datum, exc)
            if self.policy.mode == PROPAGATE:
                raise
        else:
            if self._half_open and name in self._half_open:
                self._close(name)

    def deliver_batch(
        self,
        consumer: "ProcessingComponent",
        port_name: str,
        datums: List[Datum],
        hub: Optional["ObservabilityHub"],
    ) -> None:
        """Deliver a batch under the supervision policy, datum by datum.

        Batched dispatch must not coarsen the failure contract: the
        breaker admits, records, and isolates *per delivery*, so a
        poisoned datum in the middle of a batch affects only itself and
        a half-open probe still admits exactly one datum at a time.
        Batching amortises route resolution; delivery stays per datum.
        """
        deliver = self.deliver
        for datum in datums:
            deliver(consumer, port_name, datum, hub)

    def _admit(self, name: str) -> bool:
        """Whether routing may deliver to ``name`` right now."""
        breaker = self._breakers.get(name)
        if breaker is None or breaker.state == CLOSED:
            return True
        if breaker.state == OPEN:
            if (
                self._time() - breaker.opened_at
                >= self.policy.half_open_after_s
            ):
                breaker.state = HALF_OPEN
                self._half_open.add(name)
                self._emit(HALF_OPEN, name, None)
                return True  # this delivery is the recovery probe
            return False
        return True  # HALF_OPEN: admit further probes

    # -- failure handling ---------------------------------------------------

    def _on_failure(
        self, name: str, port: str, datum: Datum, exc: BaseException
    ) -> None:
        now = self._time()
        self._seq += 1
        record = FailureRecord(
            component=name,
            port=port,
            kind=datum.kind,
            time_s=now,
            seq=self._seq,
            error_type=type(exc).__name__,
            message=str(exc),
            origin=_origin_of(exc),
        )
        self._records.append(record)
        self._failure_counts[name] = self._failure_counts.get(name, 0) + 1
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = self._breakers[name] = _Breaker()
        times = breaker.failure_times
        times.append(now)
        window = self.policy.window_s
        while times and now - times[0] > window:
            times.popleft()
        self._emit("failure", name, record)
        if self.policy.mode != QUARANTINE:
            return
        if breaker.state == HALF_OPEN:
            # The recovery probe itself failed: straight back to open.
            self._half_open.discard(name)
            self._trip(breaker, name, now)
        elif (
            breaker.state == CLOSED
            and len(times) >= self.policy.failure_threshold
        ):
            self._trip(breaker, name, now)

    def _trip(self, breaker: _Breaker, name: str, now: float) -> None:
        breaker.state = OPEN
        breaker.opened_at = now
        breaker.trips += 1
        breaker.failure_times.clear()
        self._emit(OPEN, name, None)

    def _close(self, name: str) -> None:
        self._half_open.discard(name)
        breaker = self._breakers.get(name)
        if breaker is not None:
            breaker.state = CLOSED
            breaker.failure_times.clear()
        self._emit(CLOSED, name, None)

    # -- manual overrides (the PSL-style adaptation surface) ----------------

    def quarantine(self, name: str) -> None:
        """Force a component ``open`` (operator/application override)."""
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = self._breakers[name] = _Breaker()
        self._half_open.discard(name)
        self._trip(breaker, name, self._time())

    def restore(self, name: str) -> None:
        """Force a component ``closed``, clearing its failure window."""
        self._close(name)

    # -- listeners ----------------------------------------------------------

    def add_listener(
        self, listener: SupervisionListener
    ) -> Callable[[], None]:
        """Subscribe to supervision events; returns an unsubscriber.

        Events: ``("failure", component, record)`` per caught failure,
        and ``("open" | "half-open" | "closed", component, None)`` on
        breaker transitions.  Listeners run synchronously inside the
        delivery that caused the event; they may manipulate the graph
        (the routing loop tolerates reentrant mutation) but must not
        raise.
        """
        self._listeners.append(listener)

        def _remove() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return _remove

    def _emit(
        self, event: str, name: str, record: Optional[FailureRecord]
    ) -> None:
        for listener in tuple(self._listeners):
            listener(event, name, record)

    # -- inspection ---------------------------------------------------------

    def health(self, name: str) -> str:
        """``closed`` / ``open`` / ``half-open`` for one component.

        Components that never failed are ``closed``; the healthy state
        needs no bookkeeping.
        """
        breaker = self._breakers.get(name)
        return breaker.state if breaker is not None else CLOSED

    def health_states(self) -> Dict[str, str]:
        """Health of every component the supervisor has seen fail."""
        return {
            name: breaker.state
            for name, breaker in sorted(self._breakers.items())
        }

    def quarantined(self) -> List[str]:
        """Names currently skipped by routing (state ``open``)."""
        return sorted(
            name
            for name, breaker in self._breakers.items()
            if breaker.state == OPEN
        )

    def failure_count(self, name: str) -> int:
        """Total failures recorded for one component (all time)."""
        return self._failure_counts.get(name, 0)

    def skipped_count(self, name: str) -> int:
        """Deliveries withheld from a quarantined component."""
        return self._skipped_counts.get(name, 0)

    def failure_records(
        self, name: Optional[str] = None
    ) -> List[FailureRecord]:
        """The bounded failure ring, optionally for one component."""
        if name is None:
            return list(self._records)
        return [r for r in self._records if r.component == name]

    def snapshot(self) -> Dict[str, Any]:
        """Structured state for reports and ``infrastructure_snapshot``."""
        return {
            "policy": {
                "mode": self.policy.mode,
                "failure_threshold": self.policy.failure_threshold,
                "window_s": self.policy.window_s,
                "half_open_after_s": self.policy.half_open_after_s,
            },
            "components": {
                name: {
                    "health": breaker.state,
                    "failures": self._failure_counts.get(name, 0),
                    "skipped": self._skipped_counts.get(name, 0),
                    "trips": breaker.trips,
                }
                for name, breaker in sorted(self._breakers.items())
            },
            "records": [r.as_dict() for r in self._records],
        }

    def render(self, snapshot: Dict[str, Any]) -> List[str]:
        """The report's ``supervision:`` lines for a :meth:`snapshot`."""
        lines = [f"  policy: {snapshot['policy']['mode']}"]
        if not snapshot["components"]:
            lines.append("  all components healthy")
        for name, state in sorted(snapshot["components"].items()):
            lines.append(
                f"  {name}: {state['health']}"
                f" (failures={state['failures']},"
                f" skipped={state['skipped']}, trips={state['trips']})"
            )
        for record in snapshot["records"][-5:]:
            lines.append(
                f"    ! failure #{record['seq']} {record['component']}"
                f".{record['port']}: {record['error_type']}:"
                f" {record['message']}"
            )
        return lines

    # -- durability ---------------------------------------------------------

    def state_snapshot(self) -> Dict[str, Any]:
        """Full breaker/record state for the durability seam."""
        return {
            "seq": self._seq,
            "breakers": {
                name: {
                    "state": breaker.state,
                    "failure_times": list(breaker.failure_times),
                    "opened_at": breaker.opened_at,
                    "trips": breaker.trips,
                }
                for name, breaker in self._breakers.items()
            },
            "half_open": sorted(self._half_open),
            "failure_counts": dict(self._failure_counts),
            "skipped_counts": dict(self._skipped_counts),
            "records": [r.as_dict() for r in self._records],
        }

    def state_restore(self, state: Dict[str, Any]) -> None:
        """Rebuild breakers, counters, and the failure ring."""
        self._seq = state["seq"]
        self._breakers = {}
        for name, fields in state["breakers"].items():
            breaker = _Breaker()
            breaker.state = fields["state"]
            breaker.failure_times = deque(fields["failure_times"])
            breaker.opened_at = fields["opened_at"]
            breaker.trips = fields["trips"]
            self._breakers[name] = breaker
        self._half_open = set(state["half_open"])
        self._failure_counts = dict(state["failure_counts"])
        self._skipped_counts = dict(state["skipped_counts"])
        self._records = deque(
            (FailureRecord(**fields) for fields in state["records"]),
            maxlen=self.policy.max_records,
        )

    def reset(self) -> None:
        """Forget all failure history and breaker state."""
        self._breakers.clear()
        self._records.clear()
        self._failure_counts.clear()
        self._skipped_counts.clear()
        self._half_open.clear()
        self._seq = 0

    def __repr__(self) -> str:
        return (
            f"Supervisor(mode={self.policy.mode!r},"
            f" quarantined={self.quarantined()})"
        )
