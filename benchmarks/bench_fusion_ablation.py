"""E11 (ablation) -- fusion strategy: selection vs variance weighting.

PerPos's point is that fusion is *just another component* (that is how
the particle filter slots in), so the fusion strategy is a swappable
choice.  This ablation runs the Fig. 1 GPS+WiFi scenario with the two
stock strategies:

* best-accuracy **selection** (forward the single best fresh estimate);
* inverse-variance **weighted averaging** (combine all fresh estimates).

Regenerated series: mean/p95 error per strategy for an outdoor walk, an
indoor walk, and the outdoor-to-indoor handover.

Shape assertions: both strategies work everywhere; averaging wins when
sources have comparable quality (indoors: WiFi + degraded GPS), while
selection is never catastrophically worse -- the point is that the choice
is workload-dependent, hence a component, not middleware policy.
"""

import statistics

from repro.core import Kind, PerPos
from repro.geo.grid import GridPosition
from repro.model.demo import demo_building, demo_radio_environment
from repro.processing.fusion import (
    BestAccuracyFusionComponent,
    VarianceWeightedFusionComponent,
)
from repro.processing.pipelines import build_gps_pipeline, build_wifi_pipeline
from repro.sensors.gps import GpsReceiver, OPEN_SKY, SUBURBAN
from repro.sensors.trajectory import Waypoint, WaypointTrajectory
from repro.sensors.wifi import WifiScanner

DURATION_S = 120.0


def walks(building):
    grid = building.grid
    outdoor = WaypointTrajectory(
        [
            Waypoint(0.0, grid.to_wgs84(GridPosition(-40.0, 7.5))),
            Waypoint(DURATION_S, grid.to_wgs84(GridPosition(-40.0, 175.0))),
        ]
    )
    indoor = WaypointTrajectory(
        [
            Waypoint(0.0, grid.to_wgs84(GridPosition(2.0, 7.5))),
            Waypoint(DURATION_S, grid.to_wgs84(GridPosition(38.0, 7.5))),
        ]
    )
    handover = WaypointTrajectory(
        [
            Waypoint(0.0, grid.to_wgs84(GridPosition(-40.0, 7.5))),
            Waypoint(50.0, grid.to_wgs84(GridPosition(-2.0, 7.5))),
            Waypoint(80.0, grid.to_wgs84(GridPosition(20.0, 7.5))),
            Waypoint(DURATION_S, grid.to_wgs84(GridPosition(20.0, 7.5))),
        ]
    )
    return {"outdoor": outdoor, "indoor": indoor, "handover": handover}


def run(building, trajectory, fusion_factory, seed):
    grid = building.grid

    def sky(t, position):
        if building.contains(grid.to_grid(position)):
            return SUBURBAN  # degraded-but-alive GPS indoors near windows
        return OPEN_SKY

    middleware = PerPos()
    gps = GpsReceiver("gps-dev", trajectory, sky, seed=seed)
    wifi = WifiScanner(
        "wifi-dev", trajectory, demo_radio_environment(building), grid,
        seed=seed + 1,
    )
    gps_pipe = build_gps_pipeline(middleware, gps, prefix="gps-dev")
    wifi_pipe = build_wifi_pipeline(middleware, wifi, building, prefix="wifi-dev")
    fusion = fusion_factory()
    middleware.graph.add(fusion)
    middleware.graph.connect(gps_pipe.interpreter, fusion.name)
    middleware.graph.connect(wifi_pipe.engine, fusion.name)
    provider = middleware.create_provider(
        "app", accepts=(Kind.POSITION_WGS84,)
    )
    middleware.graph.connect(fusion.name, provider.sink.name)
    errors = []
    provider.add_listener(
        lambda d: errors.append(
            trajectory.position_at(d.timestamp).distance_to(d.payload)
        ),
        kind=Kind.POSITION_WGS84,
    )
    middleware.run_until(DURATION_S)
    ordered = sorted(errors)
    return (
        statistics.mean(ordered),
        ordered[int(0.95 * (len(ordered) - 1))],
    )


def test_e11_fusion_ablation(benchmark, results_writer):
    building = demo_building()

    def workload():
        table = {}
        for walk_name, trajectory in walks(building).items():
            table[walk_name] = {
                "selection": run(
                    building,
                    trajectory,
                    BestAccuracyFusionComponent,
                    seed=21,
                ),
                "variance-weighted": run(
                    building,
                    trajectory,
                    VarianceWeightedFusionComponent,
                    seed=21,
                ),
            }
        return table

    table = benchmark.pedantic(workload, rounds=1, iterations=1)

    lines = [
        "Fusion strategy ablation (GPS + WiFi, 120 s walks)",
        "",
        f"{'walk':<10} {'strategy':<20} {'mean err':>9} {'p95 err':>9}",
    ]
    for walk_name, rows in table.items():
        for strategy, (mean, p95) in rows.items():
            lines.append(
                f"{walk_name:<10} {strategy:<20} {mean:>8.1f}m {p95:>8.1f}m"
            )
    results_writer("E11_fusion_ablation", "\n".join(lines))

    for walk_name, rows in table.items():
        for strategy, (mean, _p95) in rows.items():
            assert mean < 40.0, f"{strategy} unusable on {walk_name}"
    # Indoors, combining comparable-quality sources beats selection.
    indoor = table["indoor"]
    assert (
        indoor["variance-weighted"][0] <= indoor["selection"][0] * 1.15
    )
