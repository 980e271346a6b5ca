"""Gate benchmark artefacts against committed baselines (CI).

Each artefact schema has one gate table (``TABLES``, sniffed in order
from the artefact's top-level sections) and one loop runs its rows.  A
row (:class:`Gate`) is data:

* ``path`` -- the gated figure as a dotted JSON path.  ``*`` ranges
  over a map's keys; ``{field}`` is the key the section's own ``field``
  names (the artefact's gated row, e.g. ``{gated_workload}``); a
  ``name?`` map makes the row apply only while it is present and
  non-empty.  A figure reference written ``(path, default)`` reads
  ``default`` for a missing last key; any other missing figure is a
  schema error.
* ``check`` -- ``ratio`` compares with the baseline: current/baseline
  (baseline/current when ``lower`` is better) must hold ``--min-ratio``.
  ``min``/``max``/``above``/``below``/``equal`` compare with ``bound``,
  a number or another figure of the same artefact; a zero ``max`` bound
  means the artefact records no ceiling.
* ``per`` -- a same-run divisor: raw datums/s do not compare across
  runner generations, so dispatch figures are normalised by their own
  run's bare-pipeline rate first.
* ``when`` -- a condition checked before the figure is read.  The shard
  floor needs the recorded ``cpu_count`` to reach ``min_cpus`` (fewer
  cores cannot show parallel speedup); otherwise it is skipped, and said
  so, while its ratio row still applies.
* ``over`` / ``where`` -- which side's keys a ratio row's ``*`` ranges
  over (the baseline's by default; a key the other side lacks is a
  regression, or skipped with ``over=BOTH``), and which keys it covers.

Ratio rows gate within-run figures (speedups, overhead factors, bytes
per datum, normalised rates), which are runner-independent; bound rows
re-check an artefact's own floors, ceilings and simulated-time
correctness figures.  A missing or malformed artefact, one lacking a
figure its table needs, or one whose ratio divisor is zero, is a harness
error: the tool says what went wrong and exits 2 (regressions exit 1).

When ``$GITHUB_STEP_SUMMARY`` names a writable file (GitHub Actions
sets it), a markdown pair/ratio/floor table of every gated figure is
appended there; stdout output is unchanged either way.

Usage (one or many pairs per invocation):
    python benchmarks/check_regression.py \
        --pair /tmp/dispatch-baseline.json benchmarks/results/BENCH_dispatch.json \
        --pair /tmp/scale-baseline.json benchmarks/results/BENCH_scale.json \
        --min-ratio 0.8

The legacy single-pair form ``--baseline X --current Y`` is still
accepted.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

RERUN_TOLERANCE = 1.05

RATIO, MIN, MAX, ABOVE, BELOW, EQUAL = "ratio", "min", "max", "above", "below", "equal"
#: A bound check fails when this holds between the figure and the bound.
FAILS = {
    MIN: operator.lt,
    MAX: operator.gt,
    ABOVE: operator.le,
    BELOW: operator.ge,
    EQUAL: operator.ne,
}
BASELINE, CURRENT, BOTH = "baseline", "current", "both"


@dataclass(frozen=True)
class Gate:
    """One row of a gate table (see the module docstring)."""

    path: Any
    check: str = RATIO
    bound: Any = None
    lower: bool = False
    per: Optional[str] = None
    when: Optional[Tuple[Any, str, Any]] = None
    over: str = BASELINE
    where: Optional[Callable[[str, Any], bool]] = None
    name: Optional[str] = None


def speedup(section: str, rows: str, when: Optional[Tuple[Any, str, Any]] = None):
    """A within-run speedup per row, plus the artefact's own floor."""
    return [
        Gate(f"{section}.{rows}.*.speedup"),
        Gate(
            f"{section}.{rows}.{{gated_workload}}.speedup",
            MIN,
            (f"{section}.speedup_floor", 0),
            when=when,
        ),
    ]


BARE = "configs.datums_per_s.bare pipeline"


#: (artefact, sniffed top-level section, gate table), in sniffing order.
TABLES = [
    # E17: simulated time makes every figure deterministic.  The closed
    # loop must drop fewer datums than the open loop, hold its own
    # improvement floor and depth ceiling, decide at least once, and
    # (sharded) reproduce the single-engine figures exactly.
    ("city", "city", [
        Gate("city.open.dropped", ABOVE, 0),
        Gate("city.closed.dropped", BELOW, "city.open.dropped"),
        Gate("city.improvement", MIN, ("city.improvement_floor", 0)),
        Gate("city.closed.high_water", MAX, ("city.depth_ceiling", 0)),
        Gate(("city.closed.decisions", 0), ABOVE, 0),
        *(
            Gate((f"city.sharded_closed?.{k}", None), EQUAL, (f"city.closed.{k}", None))
            for k in ("submitted", "dropped", "alerts", "decisions")
        ),
        Gate("city.improvement", name="drop improvement"),
    ]),
    # E16: nothing lost, the journal replays exactly, the handoff pause
    # stays under its ceiling; serialized bytes per datum may not grow.
    ("durability", "durability", [
        Gate("durability.depths.*.lost", EQUAL, 0),
        Gate(
            "durability.depths.*.replayed",
            EQUAL,
            "durability.depths.*.expected_replayed",
        ),
        Gate("durability.depths.*.bytes_per_datum", lower=True, over=CURRENT),
        Gate("durability.handoff.datums", MIN, 0),
        Gate("durability.handoff.lost", EQUAL, 0),
        Gate("durability.handoff.pause_ms", MAX, ("durability.pause_ceiling_ms", 0)),
    ]),
    # E15: the clean mix's overhead over direct submit (lower is
    # better, under its own ceiling); degraded mixes' rate relative to
    # the same run's clean rate; the DLQ within its capacity.
    ("gateway", "gateway", [
        Gate(
            "gateway.workloads.*.overhead",
            lower=True,
            where=lambda _, row: "overhead" in row,
        ),
        Gate(
            "gateway.workloads.*.relative_rate",
            where=lambda _, row: "overhead" not in row,
        ),
        Gate(
            "gateway.workloads.{gated_workload}.overhead",
            MAX,
            ("gateway.overhead_ceiling", 0),
            when=(("gateway.overhead_ceiling", 0), ABOVE, 0),
        ),
        Gate(("gateway.workloads.*.dlq_depth", 0), MAX, ("gateway.dlq_capacity", 0)),
    ]),
    # E14: compiled over interpreted chains, per depth.
    ("compile", "compile", speedup("compile", "depths")),
    # E13: multiprocessing shards over one shard, per sweep cell.
    ("shard", "shard", speedup(
        "shard", "workloads", when=(("shard.cpu_count", 0), MIN, ("shard.min_cpus", 2))
    )),
    # E12: batched over single-datum drains, per workload.
    ("scale", "scale", speedup("scale", "workloads")),
    # E8/E8b: two bare runs agree within 5%; each topology size and each
    # configuration keeps its rate relative to the same run's bare rate.
    ("dispatch", "configs", [
        Gate("configs.bare_rerun_ratio", ABOVE, 1 / RERUN_TOLERANCE),
        Gate("configs.bare_rerun_ratio", BELOW, RERUN_TOLERANCE),
        Gate("scalability.*.throughput", per=BARE),
        Gate(
            "configs.datums_per_s.*",
            per=BARE,
            over=BOTH,
            where=lambda label, _: "re-run" not in label,
        ),
    ]),
]

_REQUIRED = object()


def load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def emit(
    rows: list,
    line: str,
    *,
    artefact: str,
    metric: str,
    figure: str,
    baseline: str,
    ratio: float,
    floor: float,
    status: str,
) -> None:
    """Print one gated figure and capture it for the markdown summary."""
    print(line)
    rows.append(
        {
            "artefact": artefact,
            "metric": metric,
            "figure": figure,
            "baseline": baseline,
            "ratio": ratio,
            "floor": floor,
            "status": status,
        }
    )


def render_markdown(rows: list, failures: list) -> str:
    """The ``$GITHUB_STEP_SUMMARY`` table: every gated figure, one row."""
    lines = [
        "### Benchmark regression gate",
        "",
        "| artefact | metric | figure | baseline | ratio | floor | status |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        lines.append(
            f"| {row['artefact']} | {row['metric']} | {row['figure']}"
            f" | {row['baseline']} | {row['ratio']:.3f}"
            f" | {row['floor']:g} | {row['status']} |"
        )
    lines.append("")
    if failures:
        lines.append(f"**FAILED** ({len(failures)} regressions):")
        lines.extend(f"- {failure}" for failure in failures)
    else:
        lines.append("**passed**")
    lines.append("")
    return "\n".join(lines)


def split(path: str) -> Tuple[List[str], Optional[str], List[str]]:
    """``path`` as (the maps leading to its figure, wildcard, the rest)."""
    segments = path.split(".")
    for i, segment in enumerate(segments):
        if segment == "*" or segment.startswith("{"):
            return segments[:i], segment, segments[i + 1 :]
    return segments[:-1], None, segments[-1:]


def lookup(data: Any, ref: Any, key: Optional[str] = None) -> Any:
    """The figure ``ref`` names in ``data``; a number is its own figure."""
    if isinstance(ref, (int, float)):
        return ref
    path, default = ref if isinstance(ref, tuple) else (ref, _REQUIRED)
    head, wild, tail = split(path)
    segments = [s.rstrip("?") for s in head] + ([key] if wild else []) + tail
    for segment in segments[:-1]:
        data = data[segment]
    if default is _REQUIRED:
        return data[segments[-1]]
    return data.get(segments[-1], default)


def ranged(data: dict, head: List[str], wild: Optional[str]) -> Any:
    """The map holding a row's figures (None: the row does not apply).

    The map a wildcard ranges over may be absent (no keys); a ``name?``
    map may be absent or empty (no row); any other map is required.
    """
    for i, segment in enumerate(head):
        if segment.endswith("?"):
            data = data.get(segment[:-1])
            if not data:
                return None
        elif wild and i == len(head) - 1:
            data = data.get(segment) or {}
        else:
            data = data[segment]
    return data


def name_of(ref: Any) -> str:
    return ref[0] if isinstance(ref, tuple) else str(ref)


def run_gate(
    artefact: str,
    gate: Gate,
    baseline: dict,
    current: dict,
    min_ratio: float,
    rows: list,
) -> list:
    """Run one table row over every key it ranges over."""
    path = name_of(gate.path)
    head, wild, _ = split(path)
    ratio_row = gate.check == RATIO
    if ratio_row:
        base_map, cur_map = ranged(baseline, head, wild), ranged(current, head, wild)
        if gate.over == CURRENT:
            keyed, other, missing_from = cur_map, base_map, "baseline"
        else:
            keyed, other, missing_from = base_map, cur_map, "current"
        if gate.per:
            base_per, cur_per = lookup(baseline, gate.per), lookup(current, gate.per)
    else:
        keyed = other = ranged(current, head, wild)
        missing_from = "current"
    if keyed is None:
        return []
    if wild == "*":
        keys = [k for k, v in keyed.items() if gate.where is None or gate.where(k, v)]
    elif wild:
        gated = current[head[0]].get(wild[1:-1])
        keys = [gated] if gated else []
    else:
        keys = [None]

    failures = []
    for key in keys:
        segments = [key if s == wild else s.rstrip("?") for s in path.split(".")]
        if segments[0] == artefact:
            segments = segments[1:]
        metric = gate.name or ".".join(segments)
        label = f"{artefact} {metric}"
        if wild and key not in other:
            if gate.over != BOTH:
                failures.append(f"{label}: missing from {missing_from}")
            continue
        if gate.when:
            lhs_ref, condition, rhs_ref = gate.when
            lhs, rhs = lookup(current, lhs_ref), lookup(current, rhs_ref)
            if FAILS[condition](lhs, rhs):
                word = "floor" if gate.check == MIN else "ceiling"
                print(
                    f"{label}: {word} skipped (recorded"
                    f" {name_of(lhs_ref)}={lhs}, needs {condition} {rhs})"
                )
                continue
        value = lookup(current, gate.path, key)
        if ratio_row:
            base = lookup(baseline, gate.path, key)
            if gate.per:
                value, base = value / cur_per, base / base_per
            if gate.lower:
                ratio = base / value if value else 1.0
            else:
                ratio = value / base if base else 1.0
            ok = ratio >= min_ratio
            reference, floor = f"{base:.4g}", min_ratio
            detail = f"baseline {reference}, ratio {ratio:.3f}, min {min_ratio}"
        else:
            bound = lookup(current, gate.bound, key)
            if gate.check == MAX and bound == 0:
                continue
            ok = not FAILS[gate.check](value, bound)
            ratio = 1.0 if ok else 0.0
            reference = detail = f"{gate.check} {bound}"
            floor = bound if isinstance(bound, (int, float)) else 0.0
        status = "ok" if ok else "REGRESSION"
        figure = f"{value:.4g}" if isinstance(value, (int, float)) else str(value)
        emit(rows, f"{label}: {figure} ({detail}) [{status}]", artefact=artefact,
             metric=metric, figure=figure, baseline=reference, ratio=ratio,
             floor=floor, status=status)
        if not ok:
            failures.append(f"{label}: {figure} fails {detail}")
    return failures


def check(baseline: dict, current: dict, min_ratio: float, rows: list) -> list:
    """Run the gate table of the schema the artefact pair carries."""
    for artefact, section, table in TABLES:
        if section in current or section in baseline:
            failures = []
            for gate in table:
                failures += run_gate(artefact, gate, baseline, current, min_ratio, rows)
            return failures
    return [
        "unrecognised artefact schema: expected a 'city', 'compile',"
        " 'configs', 'durability', 'gateway', 'scale' or 'shard'"
        " top-level section"
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pair",
        nargs=2,
        action="append",
        metavar=("BASELINE", "CURRENT"),
        default=[],
        help="one baseline/current artefact pair; repeatable",
    )
    parser.add_argument("--baseline", help="legacy single-pair form")
    parser.add_argument("--current", help="legacy single-pair form")
    parser.add_argument("--min-ratio", type=float, default=0.8)
    args = parser.parse_args(argv)

    pairs = list(args.pair)
    if args.baseline or args.current:
        if not (args.baseline and args.current):
            parser.error("--baseline and --current must be given together")
        pairs.append([args.baseline, args.current])
    if not pairs:
        parser.error("give at least one --pair (or --baseline/--current)")

    failures = []
    rows = []
    for baseline_path, current_path in pairs:
        print(f"== {current_path} vs {baseline_path}")
        try:
            baseline = load(baseline_path)
            current = load(current_path)
        except FileNotFoundError as exc:
            print(f"artefact missing: {exc.filename}", file=sys.stderr)
            return 2
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            print(
                f"artefact malformed: {baseline_path} / {current_path}:"
                f" {exc}",
                file=sys.stderr,
            )
            return 2
        try:
            failures += check(baseline, current, args.min_ratio, rows)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            print(
                f"artefact unusable: {current_path} vs"
                f" {baseline_path}: {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            return 2

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(render_markdown(rows, failures))

    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("benchmark regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
