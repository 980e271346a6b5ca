"""The optional subsystems a PerPos middleware plugs in, in report order.

A subsystem plugs in with two methods (:class:`Subsystem`) and one row
of :data:`SECTIONS`.  Teardown differs per subsystem, so each
``PerPos.disable_X`` keeps its own.  This module imports nothing from
the package, so every layer and subsystem can read it.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Protocol, runtime_checkable


@runtime_checkable
class Subsystem(Protocol):
    """What a subsystem implements to appear in the report."""

    def snapshot(self) -> Dict[str, Any]:
        """This subsystem's report section, as plain data."""

    def render(self, snapshot: Dict[str, Any]) -> List[str]:
        """The report lines of a section :meth:`snapshot` returned."""


class Section(NamedTuple):
    """A row: snapshot key, report heading, service interface, off-line."""

    key: str
    heading: str
    interface: str
    off: str

    def live(self, registry: Any) -> Any:
        """The subsystem ``registry`` holds for this row, or None."""
        return registry.find_service(self.interface)


SUPERVISION = Section(
    "supervision", "supervision", "perpos.Supervisor", "(supervision disabled)"
)
RUNTIME = Section(
    "runtime", "ingestion", "perpos.PositioningEngine", "(no positioning engine)"
)
GATEWAY = Section(
    "gateway", "gateway", "perpos.IngestionGateway", "(no ingestion gateway)"
)
SHARDING = Section(
    "sharding", "sharding", "perpos.ShardedEngine", "(sharding disabled)"
)
DURABILITY = Section(
    "durability", "durability", "perpos.DurabilityManager", "(durability disabled)"
)
SCENARIO = Section(
    "scenario", "scenario", "perpos.ScenarioRunner", "(no scenario installed)"
)
CONTROL = Section(
    "control", "control", "perpos.ControlLoop", "(no control loop installed)"
)
OBSERVABILITY = Section(
    "observability",
    "live metrics",
    "perpos.ObservabilityHub",
    "(observability disabled)",
)

#: Every optional subsystem, in report order.
SECTIONS = (
    SUPERVISION,
    RUNTIME,
    GATEWAY,
    SHARDING,
    DURABILITY,
    SCENARIO,
    CONTROL,
    OBSERVABILITY,
)


def fmt(value: Any) -> str:
    """A report value: floats to three significant digits."""
    return f"{value:.3g}" if isinstance(value, float) else str(value)
