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
attribute listed in ``SEAM_COUNTERS`` is collected if present.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.middleware import PerPos

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


def _section(subsystem: Any, method: str = "snapshot") -> Any:
    """A live subsystem's report section, or None while it is off."""
    return getattr(subsystem, method)() if subsystem is not None else None


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
    scenario = middleware.scenario
    return {
        "components": components,
        "connections": [
            f"{c.producer} -> {c.consumer}.{c.port}"
            for c in middleware.graph.connections()
        ],
        "channels": channels,
        "providers": [
            p.describe() for p in middleware.positioning.providers()
        ],
        # Runtime behaviour (None while observability is disabled): the
        # live twin of the structural sections above.
        "observability": _section(middleware.observability),
        # Failure seams (None while supervision is disabled): policy,
        # per-component breaker health, and the reified failure ring.
        "supervision": _section(supervisor),
        # Scale-out runtime (None while no engine is installed):
        # scheduler, drain rounds, and per-target ingestion lanes.
        "runtime": _section(middleware.runtime),
        # Sharded runtime (None while sharding is disabled): placement,
        # per-shard health/engine state, contained failures, and the
        # warm-handoff migration history.
        "sharding": _section(middleware.sharding),
        # Ingestion edge (None while no gateway is installed): wire
        # formats, per-adapter counters, admission queue, DLQ state.
        "gateway": _section(middleware.gateway),
        # Durable state (None while no durability manager is
        # installed): store backend and snapshot/journal counters.
        "durability": _section(middleware.durability, "describe"),
        # City scenario workload (None while no runner is installed):
        # population, churn/burst/zone counters, run progress.
        "scenario": _section(scenario),
        # Closed-loop adaptation (None while no control loop is
        # installed): controllers, decision counts, recent ledger tail.
        "control": _section(getattr(scenario, "control", None)),
        # Compiled dispatch plan of this middleware's graph (always
        # present: a gated plan reports its fallback reason instead of
        # chains).  Shard-private plans ride along inside "sharding".
        "compiled": middleware.graph.plan_snapshot(),
    }


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
            f"{key}={_fmt(value)}"
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
    supervision = snapshot["supervision"]
    lines.append("")
    lines.append("supervision:")
    if supervision is None:
        lines.append("  (supervision disabled)")
    else:
        lines.append(f"  policy: {supervision['policy']['mode']}")
        if not supervision["components"]:
            lines.append("  all components healthy")
        for name, state in sorted(supervision["components"].items()):
            lines.append(
                f"  {name}: {state['health']}"
                f" (failures={state['failures']},"
                f" skipped={state['skipped']}, trips={state['trips']})"
            )
        for record in supervision["records"][-5:]:
            lines.append(
                f"    ! failure #{record['seq']} {record['component']}"
                f".{record['port']}: {record['error_type']}:"
                f" {record['message']}"
            )
    runtime = snapshot["runtime"]
    lines.append("")
    lines.append("ingestion:")
    if runtime is None:
        lines.append("  (no positioning engine)")
    else:
        scheduler = runtime["scheduler"]
        detail = ", ".join(
            f"{key}={_fmt(value)}"
            for key, value in sorted(scheduler.items())
            if key != "type"
        )
        lines.append(
            f"  scheduler: {scheduler['type']}"
            + (f" ({detail})" if detail else "")
            + f"; rounds={runtime['rounds']},"
            f" drained={runtime['drained_total']},"
            f" pending={runtime['pending']}"
        )
        for target_id, lane in sorted(runtime["lanes"].items()):
            dropped = lane["dropped_oldest"] + lane["dropped_newest"]
            lines.append(
                f"  {target_id} @{lane['source']}: {lane['policy']}"
                f" depth={lane['depth']}/{lane['capacity']}"
                f" (hw={lane['high_water']}),"
                f" accepted={lane['accepted']}, dropped={dropped},"
                f" rejected={lane['rejected']},"
                f" coalesced={lane['coalesced']}"
            )
    gateway = snapshot["gateway"]
    lines.append("")
    lines.append("gateway:")
    if gateway is None:
        lines.append("  (no ingestion gateway)")
    else:
        lines.append(
            f"  source={gateway['source']},"
            f" formats={gateway['formats']},"
            f" policy={gateway['device_policy']['policy']},"
            f" devices={gateway['devices']}"
        )
        lines.append(
            f"  submitted={gateway['submitted']},"
            f" accepted={gateway['accepted']},"
            f" rejected={gateway['rejected']},"
            f" shed={gateway['shed']},"
            f" rate_limited={gateway['rate_limited']},"
            f" pending={gateway['pending']}"
        )
        limiter = gateway["rate_limit"]
        if limiter is not None:
            lines.append(
                f"  rate limit: {_fmt(limiter['rate'])}/s"
                f" (burst {_fmt(limiter['burst'])}),"
                f" devices={limiter['keys']},"
                f" allowed={limiter['allowed']},"
                f" limited={limiter['limited']}"
            )
        dlq = gateway["dlq"]
        lines.append(
            f"  dlq: depth={dlq['depth']}/{dlq['capacity']}"
            f" (evicted={dlq['evicted']}),"
            f" replayed={dlq['total_replayed']},"
            f" exhausted={dlq['total_exhausted']}"
        )
        for stage, count in dlq["by_stage"].items():
            lines.append(f"    {stage}: {count}")
    sharding = snapshot["sharding"]
    lines.append("")
    lines.append("sharding:")
    if sharding is None:
        lines.append("  (sharding disabled)")
    else:
        placement = sharding["placement"]
        lines.append(
            f"  {sharding['shards']} shards ({sharding['executor']}),"
            f" placement={placement['type']};"
            f" targets={sharding['targets']},"
            f" rounds={sharding['rounds']},"
            f" drained={sharding['drained_total']},"
            f" pending={sharding['pending']},"
            f" migrations={sharding['migrations_total']}"
        )
        for entry in sharding["per_shard"]:
            engine_snap = entry["engine"]
            if engine_snap is None:
                detail = "(unreadable)"
            else:
                detail = (
                    f"lanes={len(engine_snap['lanes'])},"
                    f" drained={engine_snap['drained_total']},"
                    f" pending={engine_snap['pending']}"
                )
                if engine_snap["last_drain_truncated"]:
                    detail += " TRUNCATED"
            line = f"  shard {entry['shard']}: {entry['status']}, {detail}"
            lines.append(line)
            if entry["error"]:
                lines.append(f"    ! {entry['error']}")
    durability = snapshot["durability"]
    lines.append("")
    lines.append("durability:")
    if durability is None:
        lines.append("  (durability disabled)")
    else:
        store = durability["store"]
        every = durability["snapshot_every"]
        lines.append(
            f"  store={store['backend']}"
            f" (snapshots={store['snapshots']},"
            f" entries={store['entries']});"
            f" auto_snapshot="
            + (f"every {every} entries" if every else "off")
        )
        lines.append(
            f"  snapshots_taken={durability['snapshots_taken']}"
            f" (last={durability['last_snapshot_bytes']}B),"
            f" restores={durability['restores']}"
            f" (replayed={durability['entries_replayed']})"
        )
    scenario = snapshot["scenario"]
    lines.append("")
    lines.append("scenario:")
    if scenario is None:
        lines.append("  (no scenario installed)")
    else:
        generator = scenario["generator"]
        progress = scenario["progress"]
        loop = "closed" if scenario["closed_loop"] else "open"
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
            f" gps_threshold_m={_fmt(generator['gps_threshold_m'])}"
        )
    control = snapshot["control"]
    lines.append("")
    lines.append("control:")
    if control is None:
        lines.append("  (no control loop installed)")
    else:
        names = ", ".join(c["name"] for c in control["controllers"]) or "-"
        lines.append(
            f"  controllers=[{names}],"
            f" decisions={control['decisions_total']},"
            f" ledger={control['ledger_depth']}/{control['ledger_limit']}"
        )
        for record in control["recent"]:
            target = f" {record['target']}" if record.get("target") else ""
            lines.append(
                f"    t={record['tick']} {record['controller']}:"
                f" {record['action']}{target} ({record['reason']})"
            )
    lines.append("")
    lines.append("compiled:")
    lines.append("  graph: " + _plan_line(snapshot["compiled"]))
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
    observability = snapshot["observability"]
    lines.append("")
    lines.append("live metrics:")
    if observability is None:
        lines.append("  (observability disabled)")
    else:
        for name, stats in sorted(observability["components"].items()):
            parts = [
                f"in={stats.get('items_in', 0)}",
                f"out={stats.get('items_out', 0)}",
            ]
            if stats.get("items_dropped"):
                parts.append(f"dropped={stats['items_dropped']}")
            if stats.get("errors"):
                parts.append(f"errors={stats['errors']}")
            latency = stats.get("latency")
            if latency and latency["count"]:
                parts.append(f"mean_latency_s={_fmt(latency['mean'])}")
            lines.append(f"  {name}: " + ", ".join(parts))
    return "\n".join(lines)


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


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())
