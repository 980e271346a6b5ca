"""Infrastructure reporting: the visualization use case of paper §1.

"Access to low-level information and the ability of inspection ... is
needed to visualize the positioning infrastructure when authoring
location-aware applications" (citing Oppermann et al.).  This module
aggregates what the three layers expose into one structured report: the
component tree, the channel decomposition, attached features, and the
*seam indicators* components choose to surface -- dropped NMEA lines,
filter rejection rates, interpreter yield, channel feature failures.

Components advertise seam indicators by convention: any public
zero-argument method listed in ``SEAM_PROBES`` plus any plain numeric
attribute listed in ``SEAM_COUNTERS`` is collected if present.  Each
optional subsystem in :data:`repro.core.subsystems.SECTIONS` supplies
and renders its own section.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.middleware import PerPos
from repro.core.subsystems import OBSERVABILITY, SECTIONS, fmt

#: Zero-argument methods whose return value is a seam indicator.
SEAM_PROBES = (
    "rejection_rate",
    "yield_rate",
    "forward_rate",
    "effective_sample_size",
    "pending_bytes",
    "pending_positions",
    "map_size",
)

#: Plain numeric attributes that count seam-relevant events.
SEAM_COUNTERS = (
    "dropped_lines",
    "passed",
    "rejected",
    "suppressed",
    "forwarded",
    "sentences_seen",
    "positions_produced",
    "segments_emitted",
    "windows_dropped",
    "wall_vetoes",
    "resamples",
    "updates",
    "classified",
    "smoothed",
    "alerts_raised",
)


def component_seams(component: Any) -> Dict[str, Any]:
    """Collect the seam indicators one component exposes."""
    seams: Dict[str, Any] = {}
    for probe in SEAM_PROBES:
        fn = getattr(component, probe, None)
        if callable(fn):
            try:
                seams[probe] = fn()
            except Exception as exc:  # noqa: BLE001 - a probe failing is itself a seam
                # The failed probe is itself inspectable: report what
                # went wrong instead of collapsing it to a marker.
                seams[probe] = {
                    "error": type(exc).__name__,
                    "message": str(exc),
                }
    for counter in SEAM_COUNTERS:
        value = getattr(component, counter, None)
        if isinstance(value, (int, float)):
            seams[counter] = value
    return seams


def infrastructure_snapshot(middleware: PerPos) -> Dict[str, Any]:
    """Structured snapshot of the whole positioning infrastructure."""
    supervisor = middleware.graph.supervisor
    components = []
    for component in middleware.graph.components():
        info = component.describe()
        info["seams"] = component_seams(component)
        if supervisor is not None:
            info["health"] = supervisor.health(component.name)
        components.append(info)
    channels = []
    for channel in middleware.pcl.channels():
        info = channel.describe()
        info["feature_errors"] = [
            f"{name}: {exc!r}" for name, exc in channel.feature_errors
        ]
        latest = channel.latest_output()
        info["outputs_delivered"] = (
            latest.logical_time if latest is not None else 0
        )
        channels.append(info)
    snapshot: Dict[str, Any] = {
        "components": components,
        "connections": [
            f"{c.producer} -> {c.consumer}.{c.port}"
            for c in middleware.graph.connections()
        ],
        "channels": channels,
        "providers": [
            p.describe() for p in middleware.positioning.providers()
        ],
    }
    # One section per optional subsystem, None while it is off.
    registry = middleware.framework.registry
    for section in SECTIONS:
        subsystem = section.live(registry)
        snapshot[section.key] = (
            subsystem.snapshot() if subsystem is not None else None
        )
    # Compiled dispatch plan of this middleware's graph (always present:
    # a gated plan reports its fallback reason instead of chains).
    # Shard-private plans ride along inside "sharding".
    snapshot["compiled"] = middleware.graph.plan_snapshot()
    return snapshot


def render_report(middleware: PerPos) -> str:
    """Human-readable infrastructure report."""
    snapshot = infrastructure_snapshot(middleware)
    lines: List[str] = ["POSITIONING INFRASTRUCTURE", ""]
    lines.append("process structure:")
    lines.append(_indent(middleware.psl.structure()))
    lines.append("")
    lines.append("channels:")
    for channel in snapshot["channels"]:
        path = " -> ".join(channel["members"])
        features = ", ".join(channel["features"]) or "-"
        lines.append(
            f"  {path} ==> {channel['endpoint']}"
            f"  [features: {features};"
            f" outputs: {channel['outputs_delivered']}]"
        )
        for error in channel["feature_errors"]:
            lines.append(f"    ! feature error: {error}")
    lines.append("")
    lines.append("seam indicators:")
    for component in snapshot["components"]:
        if not component["seams"]:
            continue
        rendered = ", ".join(
            f"{key}={fmt(value)}"
            for key, value in sorted(component["seams"].items())
        )
        lines.append(f"  {component['name']}: {rendered}")
    lines.append("")
    lines.append("providers:")
    for provider in snapshot["providers"]:
        lines.append(
            f"  {provider['name']}: kinds={provider['kinds']}"
            f" features={provider['features']}"
        )
    registry = middleware.framework.registry
    for section in SECTIONS:
        if section is OBSERVABILITY:
            # The compiled plan is no subsystem: it sits just above the
            # live metrics for as long as the compiler exists.
            lines.extend(_compiled_lines(snapshot))
        lines.append("")
        lines.append(f"{section.heading}:")
        state = snapshot[section.key]
        if state is None:
            lines.append(f"  {section.off}")
        else:
            lines.extend(section.live(registry).render(state))
    return "\n".join(lines)


def _compiled_lines(snapshot: Dict[str, Any]) -> List[str]:
    """The ``compiled:`` block: the graph's plan, then each shard's."""
    lines = ["", "compiled:", "  graph: " + _plan_line(snapshot["compiled"])]
    sharding = snapshot["sharding"]
    if sharding is not None:
        for entry in sharding["per_shard"]:
            engine_snap = entry["engine"]
            plan = (
                engine_snap.get("plan") if engine_snap is not None else None
            )
            if plan is not None:
                lines.append(
                    f"  shard {entry['shard']}: " + _plan_line(plan)
                )
    return lines


def _plan_line(plan: Dict[str, Any]) -> str:
    """One-line rendering of a graph's compiled dispatch plan."""
    if not plan["enabled"]:
        state = "compilation disabled"
    elif plan["fallback_reason"]:
        state = f"interpreted ({plan['fallback_reason']})"
    elif not plan["chains"]:
        state = "0 chains (nothing fusable)"
    else:
        rendered = ", ".join(
            " -> ".join(chain["members"]) for chain in plan["chains"][:3]
        )
        more = len(plan["chains"]) - 3
        if more > 0:
            rendered += f", +{more} more"
        state = (
            f"{len(plan['chains'])} chains"
            f" / {plan['fused_components']} components fused"
            f" ({rendered})"
        )
    return (
        state
        + f"; invalidations={plan['invalidations']},"
        + f" fused_dispatches={plan['fused_dispatches']}"
    )


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())
