"""E7 -- §3.1-3.4: the same adaptations on the baseline middleware.

The paper argues each adaptation is harder or lossier in existing
middleware.  This bench *measures* the two quantifiable claims against
the implemented baselines:

(a) **timing correctness** (§3.2 on PoSIM): "when questioned it will
    always return the latest HDOP value, which may correspond to a new
    position."  We stream fixes whose true HDOP is known, deliver them
    with realistic event lag, and score what fraction of per-position
    HDOP attributions are correct -- PoSIM-style get_info vs the PerPos
    data tree.

(b) **format pollution** (§3.1/§3.4 on the Location Stack): admitting
    the satellite count requires a middleware source change, after which
    the field rides on *every* technology's measurements; we measure the
    fraction of dead fields across a GPS+WiFi workload.

(c) **power-policy expressiveness** (§3.3 on PoSIM): the paper notes
    PoSIM power management is a control feature flipped between preset
    levels by threshold policies.  We run that two-rate policy and
    EnTracked's dynamic scheme on the identical pedestrian scenario and
    compare the energy each pays for its error level.

Shape assertions: PerPos attributes 100% correctly while lagged PoSIM
mis-attributes; the extended stack pollutes non-GPS measurements; the
unmodified stack rejects the extension outright; the PoSIM power policy
pays a multiple of EnTracked's energy.
"""

from repro.baselines.location_stack import FormatError, LocationStackMiddleware
from repro.baselines.posim import PosimMiddleware, SensorWrapper
from repro.core import Kind, PerPos
from repro.core.channel import ChannelFeature
from repro.geo.wgs84 import Wgs84Position
from repro.processing.gps_features import HdopFeature
from repro.processing.pipelines import build_gps_pipeline
from repro.sensors.gps import GpsReceiver, SUBURBAN, constant_environment
from repro.sensors.trajectory import Waypoint, WaypointTrajectory

DURATION_S = 300.0


def trajectory():
    start = Wgs84Position(56.17, 10.19)
    return WaypointTrajectory(
        [Waypoint(0.0, start), Waypoint(DURATION_S, start.moved(90.0, 400.0))]
    )


# -- (a) timing correctness -------------------------------------------------


class HdopAttributionFeature(ChannelFeature):
    """PerPos side: per delivered position, read HDOP from the data tree."""

    name = "HdopAttribution"
    requires_component_features = ("HDOP",)

    def __init__(self):
        super().__init__()
        self.attributions = []  # (position_timestamp, hdop)

    def apply(self, tree):
        hdops = [value for _p, value in tree.get_data(Kind.HDOP)]
        if hdops:
            self.attributions.append(
                (tree.root.datum.timestamp, hdops[-1])
            )


def run_perpos_attribution():
    middleware = PerPos()
    gps = GpsReceiver(
        "gps", trajectory(), constant_environment(SUBURBAN), seed=9
    )
    pipeline = build_gps_pipeline(middleware, gps, prefix="gps")
    middleware.graph.component(pipeline.parser).attach_feature(HdopFeature())
    provider = middleware.create_provider(
        "app", accepts=(Kind.POSITION_WGS84,)
    )
    middleware.graph.connect(pipeline.interpreter, provider.sink.name)
    feature = HdopAttributionFeature()
    middleware.pcl.channels_into(provider.sink.name)[0].attach_feature(
        feature
    )
    middleware.run_until(DURATION_S)
    truth = {
        round(e.time_s, 3): e.hdop
        for e in gps.epochs
        if e.hdop is not None
    }
    # NMEA carries HDOP with one decimal, so "correct attribution" means
    # matching the right epoch's value within that quantisation.
    correct = sum(
        1
        for t, hdop in feature.attributions
        if truth.get(round(t, 3)) is not None
        and abs(truth[round(t, 3)] - hdop) <= 0.051
    )
    return correct, len(feature.attributions)


def run_posim_attribution(lag_updates):
    """PoSIM side: same stream; get_info('hdop') at delivery time."""
    gps = GpsReceiver(
        "gps", trajectory(), constant_environment(SUBURBAN), seed=9
    )
    gps.sample(DURATION_S)
    epochs = [e for e in gps.epochs if e.reported_position is not None]
    state = {"hdop": None}
    middleware = PosimMiddleware(delivery_lag_updates=lag_updates)
    middleware.register_wrapper(
        SensorWrapper("gps", infos={"hdop": lambda: state["hdop"]})
    )
    truth = {}
    attributions = []
    middleware.add_position_listener(
        lambda p: attributions.append(
            (p.timestamp, middleware.get_info("gps", "hdop"))
        )
    )
    for epoch in epochs:
        state["hdop"] = epoch.hdop
        truth[epoch.time_s] = epoch.hdop
        position = Wgs84Position(
            epoch.reported_position.latitude_deg,
            epoch.reported_position.longitude_deg,
            timestamp=epoch.time_s,
        )
        middleware.publish_position("gps", position)
    correct = sum(
        1
        for t, hdop in attributions
        if truth.get(t) is not None
        and hdop is not None
        and abs(truth[t] - hdop) <= 0.051
    )
    return correct, len(attributions)


# -- (b) format pollution ------------------------------------------------------


def run_stack_pollution():
    gps_source = GpsReceiver(
        "gps", trajectory(), constant_environment(SUBURBAN), seed=9
    )
    gps_source.sample(DURATION_S)
    epochs = [e for e in gps_source.epochs if e.reported_position]

    def gps_adapter_factory(stack_epochs):
        it = iter(stack_epochs)

        def produce(now):
            try:
                e = next(it)
            except StopIteration:
                return []
            return [
                {
                    "latitude_deg": e.reported_position.latitude_deg,
                    "longitude_deg": e.reported_position.longitude_deg,
                    "accuracy_m": 5.0,
                    "timestamp": e.time_s,
                    "num_satellites": e.satellites_used,
                }
            ]

        return produce

    # Unmodified stack: the extension is rejected.
    closed = LocationStackMiddleware()
    closed.add_sensor("gps", gps_adapter_factory(epochs))
    rejected = False
    try:
        closed.pump(0.0)
    except FormatError:
        rejected = True

    # Source-modified stack: works, but pollutes WiFi measurements.
    extended = LocationStackMiddleware(extra_fields=("num_satellites",))
    extended.add_sensor("gps", gps_adapter_factory(epochs))
    extended.add_sensor(
        "wifi",
        lambda now: [
            {
                "latitude_deg": 56.17,
                "longitude_deg": 10.19,
                "accuracy_m": 8.0,
                "timestamp": now,
            }
        ],
    )
    for step in range(len(epochs)):
        extended.pump(float(step))
    return rejected, extended.pollution_report()["num_satellites"]


# -- (c) power-policy expressiveness ------------------------------------------


def run_power_comparison():
    from repro.baselines.posim_power import PosimPowerScenario
    from repro.energy.entracked import EnTrackedSystem
    from repro.sensors.trajectory import RandomWalkTrajectory

    walk = RandomWalkTrajectory(
        Wgs84Position(56.17, 10.19),
        1800.0,
        seed=4,
        pause_probability=0.3,
        pause_s=60.0,
    )
    posim = PosimPowerScenario(walk, seed=1).run(1800.0)
    entracked = EnTrackedSystem(
        walk, threshold_m=10.0, mode="entracked", seed=1
    ).run(1800.0)
    return posim, entracked


def test_e7_middleware_comparison(benchmark, results_writer):
    def workload():
        perpos = run_perpos_attribution()
        posim_synced = run_posim_attribution(lag_updates=0)
        posim_lagged = run_posim_attribution(lag_updates=1)
        stack = run_stack_pollution()
        power = run_power_comparison()
        return perpos, posim_synced, posim_lagged, stack, power

    (perpos, posim_synced, posim_lagged, stack, power) = benchmark.pedantic(
        workload, rounds=1, iterations=1
    )
    rejected, pollution = stack
    posim_power, entracked_power = power

    def rate(pair):
        correct, total = pair
        return 100.0 * correct / total if total else float("nan")

    lines = [
        "§3.1-3.4 -- the adaptations on baseline middleware",
        "",
        "(a) HDOP-to-position attribution correctness",
        f"  PerPos data tree          : {rate(perpos):6.1f} %"
        f"  ({perpos[0]}/{perpos[1]})",
        f"  PoSIM get_info, no lag    : {rate(posim_synced):6.1f} %"
        f"  ({posim_synced[0]}/{posim_synced[1]})",
        f"  PoSIM get_info, 1-update lag: {rate(posim_lagged):4.1f} %"
        f"  ({posim_lagged[0]}/{posim_lagged[1]})",
        "",
        "(b) Location-Stack position-format extension",
        f"  unmodified stack accepts satellite field : "
        f"{'NO (FormatError)' if rejected else 'yes'}",
        f"  extended stack dead-field rate            : "
        f"{100.0 * pollution:.1f} % of all measurements",
        "",
        "(c) power management: PoSIM two-rate policy vs EnTracked"
        " (30 min pedestrian)",
        f"  PoSIM policy   : {posim_power.energy_j:6.0f} J,"
        f" mean err {posim_power.mean_error_m:5.1f} m,"
        f" gps on {posim_power.gps_on_fraction:5.1%},"
        f" tx {posim_power.transmissions}",
        f"  EnTracked (10m): {entracked_power.energy_j:6.0f} J,"
        f" mean err {entracked_power.mean_error_m:5.1f} m,"
        f" gps on {entracked_power.gps_on_fraction:5.1%},"
        f" tx {entracked_power.transmissions}",
    ]
    results_writer("E7_sec34_comparison", "\n".join(lines))

    # Shape: PerPos attributes perfectly; lagged PoSIM is much worse
    # (it is only "right" when consecutive epochs happen to share an
    # HDOP value, which slow geometry changes make fairly common).
    assert perpos[1] > 0 and perpos[0] == perpos[1]
    assert posim_lagged[0] < posim_lagged[1] * 0.7
    # The closed format rejects the extension; the extension pollutes.
    assert rejected
    assert pollution > 0.3
    # Dynamic sleep scheduling beats the two-rate policy on energy while
    # staying in a comparable error regime.
    assert entracked_power.energy_j < posim_power.energy_j * 0.75
    assert entracked_power.mean_error_m < 3.0 * max(
        posim_power.mean_error_m, 5.0
    )
