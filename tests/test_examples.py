"""Smoke tests: every example script runs to completion.

Examples are public API documentation; a refactor that breaks one must
fail the suite.  Each main() runs in-process with stdout captured, and a
couple of headline output lines are sanity-checked.
"""

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, capsys):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart", capsys)
    assert "final position:" in out
    assert "fixes delivered:" in out
    assert "quickstart-app" in out


def test_room_number_app(capsys):
    out = run_example("room_number_app", capsys)
    assert "final room: N2" in out
    assert "[Process Channel Layer]" in out
    assert "now in: CORR" in out


def test_particle_filter_tracking(capsys):
    out = run_example("particle_filter_tracking", capsys)
    assert "Fig. 6 reproduction" in out
    assert "particle filter" in out
    assert "legend:" in out


def test_entracked_power(capsys):
    out = run_example("entracked_power", capsys)
    assert "periodic baseline" in out
    assert "energy saving" in out
    assert "EnTracked, error threshold 50 m:" in out


def test_chaos_demo(capsys):
    out = run_example("chaos_demo", capsys)
    assert "[supervision] gps-stage: open" in out
    assert "selected provider: wifi-app" in out
    assert "gps-stage health: closed" in out
    assert "selected provider after recovery: gps-app" in out
    assert "FaultInjected" in out


def test_shard_demo(capsys):
    out = run_example("shard_demo", capsys)
    assert "placement: 30 badges over 3 shards" in out
    assert "badge-00 pinned to shard 0" in out
    assert "after fault injection: degraded=[2] (FaultInjected)" in out
    assert "shard 2: degraded" in out
    assert "restored shard 2:" in out
    assert "degraded=[]" in out
    assert "merged metrics: floor-app received" in out


def test_seamful_inspection(capsys):
    out = run_example("seamful_inspection", capsys)
    assert "STRUCTURAL REFLECTION" in out
    assert "satellite-filter" in out
    assert "data tree behind delivered position" in out


def test_transport_mode(capsys):
    out = run_example("transport_mode", capsys)
    assert "mode timeline" in out
    assert "accuracy:" in out
    assert "POSITIONING INFRASTRUCTURE" in out


def test_scale_demo(capsys):
    out = run_example("scale_demo", capsys)
    assert "submitted: 2880 readings from 24 badges" in out
    assert "scheduler rounds:" in out
    assert "adapted badge-02 -> policy=block" in out
    assert "report excerpt:" in out


def test_gateway_demo(capsys):
    out = run_example("gateway_demo", capsys)
    assert "clean fleet: 40 fixes accepted" in out
    assert "after firmware update: rejected=20, dlq depth=20" in out
    assert "stage=schema adapter=phone_tracker_v1" in out
    assert "crosswalk installed, replay: 20 recovered, 0 failed" in out
    assert "fleet-app delivered: 60 positions" in out
    assert "parked as" in out and "'exhausted' after 2 attempts" in out
    assert "dlq: depth=21/256" in out


def test_city_demo(capsys):
    out = run_example("city_demo", capsys)
    assert "city workload: 60 devices, 120 ticks, seed 23" in out
    assert "open loop:   submitted=6769, dropped=1411" in out
    assert "closed loop: submitted=6609, dropped=231" in out
    assert "adaptation: 84% fewer drops on the identical seed" in out
    assert "t=31 backpressure: grow_capacity" in out
    assert "psl.scenario(): closed_loop=True, seed=23" in out
    assert "controllers=[backpressure, sampling, quarantine]" in out
