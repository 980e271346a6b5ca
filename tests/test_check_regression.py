"""Unit tests for the CI benchmark gate (``benchmarks/check_regression.py``).

The gate decides whether benchmark PRs merge, so it gets the same
treatment as product code: schema sniffing across all seven artefact
shapes, ratio/floor/ceiling failure exits (1), harness errors --
missing or malformed artefacts, schema violations -- exiting 2, the
hardware-conditional shard floor, and the ``$GITHUB_STEP_SUMMARY``
markdown table.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

import check_regression  # noqa: E402

RESULTS = Path(__file__).parent.parent / "benchmarks" / "results"


@pytest.fixture(autouse=True)
def _no_step_summary(monkeypatch):
    """Keep unit-test runs from appending to a real CI step summary."""
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def dispatch_artefact(bare=100.0, observed=50.0, size_rate=80.0):
    return {
        "configs": {
            "bare_rerun_ratio": 1.0,
            "datums_per_s": {
                "bare pipeline": bare,
                "observability on": observed,
            },
        },
        "scalability": {"10": {"throughput": size_rate}},
    }


def scale_artefact(speedup=3.0, floor=2.0):
    return {
        "scale": {
            "speedup_floor": floor,
            "gated_workload": "w1",
            "workloads": {"w1": {"speedup": speedup}},
        }
    }


def compile_artefact(speedup=2.5, floor=2.0):
    return {
        "compile": {
            "batch": 32,
            "speedup_floor": floor,
            "gated_workload": "depth32",
            "depths": {
                "depth32": {
                    "compiled": 100.0,
                    "interpreted": 100.0 / speedup,
                    "speedup": speedup,
                },
            },
        }
    }


def gateway_artefact(
    overhead=1.05,
    ceiling=1.15,
    relative=0.8,
    dlq_depth=100,
    dlq_capacity=256,
):
    return {
        "gateway": {
            "dlq_capacity": dlq_capacity,
            "gated_workload": "clean",
            "overhead_ceiling": ceiling,
            "workloads": {
                "clean": {
                    "rate": 100_000.0,
                    "direct_rate": 100_000.0 * overhead,
                    "overhead": overhead,
                },
                "malformed_heavy": {
                    "rate": 100_000.0 * relative,
                    "relative_rate": relative,
                    "dlq_depth": dlq_depth,
                },
            },
        }
    }


def durability_artefact(
    bytes_per_datum=135.0,
    lost=0,
    replayed=128,
    expected_replayed=128,
    pause_ms=0.5,
    pause_ceiling_ms=250.0,
    handoff_lost=0,
):
    return {
        "durability": {
            "n_targets": 4,
            "gated_depth": "depth512",
            "pause_ceiling_ms": pause_ceiling_ms,
            "depths": {
                "depth512": {
                    "datums": 2176,
                    "bytes_per_datum": bytes_per_datum,
                    "lost": lost,
                    "replayed": replayed,
                    "expected_replayed": expected_replayed,
                },
            },
            "handoff": {
                "datums": 512,
                "pause_ms": pause_ms,
                "lost": handoff_lost,
            },
        }
    }


def city_artefact(
    improvement=0.8,
    floor=0.25,
    open_dropped=4000,
    closed_dropped=800,
    high_water=64,
    depth_ceiling=256,
    decisions=200,
    sharded_dropped=None,
):
    closed = {
        "submitted": 12000,
        "dropped": closed_dropped,
        "high_water": high_water,
        "alerts": 25,
        "decisions": decisions,
    }
    sharded = dict(closed)
    if sharded_dropped is not None:
        sharded["dropped"] = sharded_dropped
    return {
        "city": {
            "improvement_floor": floor,
            "depth_ceiling": depth_ceiling,
            "improvement": improvement,
            "open": {
                "submitted": 12600,
                "dropped": open_dropped,
                "high_water": 8,
                "alerts": 27,
            },
            "closed": closed,
            "sharded_closed": sharded,
        }
    }


def shard_artefact(speedup=2.0, cpu_count=4, floor=1.5):
    return {
        "shard": {
            "cpu_count": cpu_count,
            "min_cpus": 2,
            "speedup_floor": floor,
            "gated_workload": "multiprocessing_shards4",
            "workloads": {
                "multiprocessing_shards4": {"speedup": speedup},
            },
        }
    }


def run(tmp_path, baseline, current, min_ratio=0.8):
    base = write(tmp_path, "baseline.json", baseline)
    cur = write(tmp_path, "current.json", current)
    return check_regression.main(["--pair", base, cur, "--min-ratio", str(min_ratio)])


class TestSchemaSniffing:
    def test_dispatch_schema_passes(self, tmp_path):
        artefact = dispatch_artefact()
        assert run(tmp_path, artefact, artefact) == 0

    def test_scale_schema_passes(self, tmp_path):
        assert run(tmp_path, scale_artefact(), scale_artefact()) == 0

    def test_shard_schema_passes(self, tmp_path):
        assert run(tmp_path, shard_artefact(), shard_artefact()) == 0

    def test_compile_schema_passes(self, tmp_path):
        assert run(tmp_path, compile_artefact(), compile_artefact()) == 0

    def test_gateway_schema_passes(self, tmp_path):
        assert run(tmp_path, gateway_artefact(), gateway_artefact()) == 0

    def test_durability_schema_passes(self, tmp_path):
        artefact = durability_artefact()
        assert run(tmp_path, artefact, artefact) == 0

    def test_city_schema_passes(self, tmp_path):
        artefact = city_artefact()
        assert run(tmp_path, artefact, artefact) == 0

    def test_unrecognised_schema_fails(self, tmp_path):
        assert run(tmp_path, {"mystery": {}}, {"mystery": {}}) == 1

    def test_mixed_pairs_sniff_per_pair(self, tmp_path):
        base_a = write(tmp_path, "a0.json", scale_artefact())
        cur_a = write(tmp_path, "a1.json", scale_artefact())
        base_b = write(tmp_path, "b0.json", shard_artefact())
        cur_b = write(tmp_path, "b1.json", shard_artefact())
        assert (
            check_regression.main(
                ["--pair", base_a, cur_a, "--pair", base_b, cur_b]
            )
            == 0
        )


class TestRegressionExits:
    def test_scale_ratio_regression_exits_1(self, tmp_path):
        assert run(tmp_path, scale_artefact(4.0), scale_artefact(2.5)) == 1

    def test_scale_absolute_floor_exits_1(self, tmp_path):
        # Ratio holds (same speedup), but the artefact's own floor bites.
        artefact = scale_artefact(speedup=1.5, floor=2.0)
        assert run(tmp_path, artefact, artefact) == 1

    def test_shard_ratio_regression_exits_1(self, tmp_path):
        assert run(tmp_path, shard_artefact(3.0), shard_artefact(1.6)) == 1

    def test_missing_workload_exits_1(self, tmp_path):
        current = shard_artefact()
        current["shard"]["workloads"] = {}
        assert run(tmp_path, shard_artefact(), current) == 1

    def test_compile_ratio_regression_exits_1(self, tmp_path):
        base, cur = compile_artefact(4.0), compile_artefact(2.5)
        assert run(tmp_path, base, cur) == 1

    def test_compile_absolute_floor_exits_1(self, tmp_path):
        # Ratio holds (same speedup), but the artefact's own floor bites.
        artefact = compile_artefact(speedup=1.5, floor=2.0)
        assert run(tmp_path, artefact, artefact) == 1

    def test_compile_missing_depth_exits_1(self, tmp_path):
        current = compile_artefact()
        current["compile"]["depths"] = {}
        assert run(tmp_path, compile_artefact(), current) == 1

    def test_gateway_overhead_growth_exits_1(self, tmp_path):
        # Overhead factors invert: growing 1.02x -> 1.4x is a regression
        # even though both clear the absolute ceiling comparison shape.
        base = gateway_artefact(overhead=1.02)
        cur = gateway_artefact(overhead=1.4, ceiling=1.5)
        assert run(tmp_path, base, cur) == 1

    def test_gateway_absolute_ceiling_exits_1(self, tmp_path):
        # Ratio holds (same overhead), but the artefact's ceiling bites.
        artefact = gateway_artefact(overhead=1.3, ceiling=1.15)
        assert run(tmp_path, artefact, artefact) == 1

    def test_gateway_relative_rate_regression_exits_1(self, tmp_path):
        base = gateway_artefact(relative=1.5)
        cur = gateway_artefact(relative=0.9)
        assert run(tmp_path, base, cur) == 1

    def test_gateway_dlq_over_capacity_exits_1(self, tmp_path):
        artefact = gateway_artefact(dlq_depth=300, dlq_capacity=256)
        assert run(tmp_path, gateway_artefact(), artefact) == 1

    def test_gateway_missing_workload_exits_1(self, tmp_path):
        current = gateway_artefact()
        del current["gateway"]["workloads"]["malformed_heavy"]
        assert run(tmp_path, gateway_artefact(), current) == 1

    def test_durability_bytes_growth_exits_1(self, tmp_path):
        # Size per datum is inverted like gateway overhead: growing
        # 130B -> 200B loses more than 20% and fails at min-ratio 0.8.
        base = durability_artefact(bytes_per_datum=130.0)
        cur = durability_artefact(bytes_per_datum=200.0)
        assert run(tmp_path, base, cur) == 1

    def test_durability_lost_datums_exit_1(self, tmp_path):
        artefact = durability_artefact(lost=3)
        assert run(tmp_path, durability_artefact(), artefact) == 1

    def test_durability_replay_mismatch_exits_1(self, tmp_path):
        artefact = durability_artefact(replayed=100, expected_replayed=128)
        assert run(tmp_path, durability_artefact(), artefact) == 1

    def test_durability_handoff_pause_ceiling_exits_1(self, tmp_path):
        artefact = durability_artefact(pause_ms=400.0, pause_ceiling_ms=250.0)
        assert run(tmp_path, durability_artefact(), artefact) == 1

    def test_durability_handoff_loss_exits_1(self, tmp_path):
        artefact = durability_artefact(handoff_lost=1)
        assert run(tmp_path, durability_artefact(), artefact) == 1

    def test_durability_missing_baseline_depth_exits_1(self, tmp_path):
        base = durability_artefact()
        base["durability"]["depths"] = {}
        assert run(tmp_path, base, durability_artefact()) == 1

    def test_dispatch_rerun_tolerance_exits_1(self, tmp_path):
        current = dispatch_artefact()
        current["configs"]["bare_rerun_ratio"] = 1.2
        assert run(tmp_path, dispatch_artefact(), current) == 1

    def test_city_improvement_regression_exits_1(self, tmp_path):
        # A 0.8 -> 0.3 improvement collapse fails the cross-run ratio.
        base = city_artefact(improvement=0.8)
        cur = city_artefact(improvement=0.3)
        assert run(tmp_path, base, cur) == 1

    def test_city_own_floor_exits_1(self, tmp_path):
        # Ratio holds (same improvement), but the artefact's floor bites.
        artefact = city_artefact(improvement=0.2, floor=0.25)
        assert run(tmp_path, artefact, artefact) == 1

    def test_city_closed_not_better_exits_1(self, tmp_path):
        artefact = city_artefact(open_dropped=800, closed_dropped=800)
        assert run(tmp_path, city_artefact(), artefact) == 1

    def test_city_open_loop_never_overloaded_exits_1(self, tmp_path):
        artefact = city_artefact(open_dropped=0, closed_dropped=0)
        assert run(tmp_path, city_artefact(), artefact) == 1

    def test_city_depth_ceiling_exits_1(self, tmp_path):
        artefact = city_artefact(high_water=512, depth_ceiling=256)
        assert run(tmp_path, city_artefact(), artefact) == 1

    def test_city_no_decisions_exits_1(self, tmp_path):
        artefact = city_artefact(decisions=0)
        assert run(tmp_path, city_artefact(), artefact) == 1

    def test_city_sharded_divergence_exits_1(self, tmp_path):
        artefact = city_artefact(closed_dropped=800, sharded_dropped=801)
        assert run(tmp_path, city_artefact(), artefact) == 1

    def test_min_ratio_is_respected(self, tmp_path):
        # A 25% drop passes at 0.7 but fails at 0.8.
        base, cur = scale_artefact(4.0), scale_artefact(3.0)
        assert run(tmp_path, base, cur, min_ratio=0.7) == 0
        assert run(tmp_path, base, cur, min_ratio=0.8) == 1


class TestCommittedArtefacts:
    @pytest.mark.parametrize(
        "schema",
        ["city", "compile", "dispatch", "durability", "gateway", "scale", "shard"],
    )
    def test_committed_artefact_passes_its_own_gate(
        self, schema, tmp_path, monkeypatch
    ):
        # The synthetic fixtures above cannot catch a table path that
        # misses a real artefact's keys; the committed artefacts can.
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        artefact = str(RESULTS / f"BENCH_{schema}.json")
        assert check_regression.main(["--pair", artefact, artefact]) == 0
        lines = summary.read_text(encoding="utf-8").splitlines()
        first_row = lines.index("| --- | --- | --- | --- | --- | --- | --- |") + 1
        assert lines[first_row].startswith(f"| {schema} | ")


class TestShardFloorIsHardwareConditional:
    def test_floor_enforced_with_enough_cores(self, tmp_path):
        artefact = shard_artefact(speedup=1.1, cpu_count=4)
        assert run(tmp_path, shard_artefact(1.1), artefact) == 1

    def test_floor_skipped_on_a_single_core(self, tmp_path, capsys):
        artefact = shard_artefact(speedup=1.1, cpu_count=1)
        assert run(tmp_path, shard_artefact(1.1), artefact) == 0
        assert "floor skipped" in capsys.readouterr().out

    def test_ratio_gate_applies_even_on_a_single_core(self, tmp_path):
        base = shard_artefact(speedup=2.0, cpu_count=1)
        cur = shard_artefact(speedup=1.0, cpu_count=1)
        assert run(tmp_path, base, cur) == 1


class TestHarnessErrors:
    def test_missing_baseline_exits_2(self, tmp_path):
        cur = write(tmp_path, "current.json", scale_artefact())
        assert (
            check_regression.main(
                ["--pair", str(tmp_path / "nope.json"), cur]
            )
            == 2
        )

    def test_missing_current_exits_2(self, tmp_path):
        base = write(tmp_path, "baseline.json", scale_artefact())
        assert (
            check_regression.main(
                ["--pair", base, str(tmp_path / "nope.json")]
            )
            == 2
        )

    def test_malformed_json_exits_2(self, tmp_path):
        base = write(tmp_path, "baseline.json", scale_artefact())
        bad = tmp_path / "current.json"
        bad.write_text("{not json", encoding="utf-8")
        assert check_regression.main(["--pair", base, str(bad)]) == 2

    def test_schema_violation_exits_2(self, tmp_path):
        # Sniffs as dispatch but lacks the sections the checker reads.
        broken = {"configs": {}}
        assert run(tmp_path, broken, broken) == 2

    def test_zero_divisor_exits_2(self, tmp_path, capsys):
        # A zero "bare pipeline" rate leaves the normalised rates
        # undefined: an unusable artefact, not a regression.
        baseline = str(RESULTS / "BENCH_dispatch.json")
        broken = json.loads(Path(baseline).read_text(encoding="utf-8"))
        broken["configs"]["datums_per_s"]["bare pipeline"] = 0
        current = write(tmp_path, "current.json", broken)
        assert check_regression.main(["--pair", baseline, current]) == 2
        assert "ZeroDivisionError" in capsys.readouterr().err

    def test_legacy_single_pair_form(self, tmp_path):
        base = write(tmp_path, "baseline.json", scale_artefact())
        cur = write(tmp_path, "current.json", scale_artefact())
        assert check_regression.main(["--baseline", base, "--current", cur]) == 0

    def test_legacy_form_requires_both_flags(self, tmp_path):
        base = write(tmp_path, "baseline.json", scale_artefact())
        with pytest.raises(SystemExit):
            check_regression.main(["--baseline", base])

    def test_no_pairs_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            check_regression.main([])


class TestMarkdownSummary:
    ROWS = [
        {
            "artefact": "scale",
            "metric": "batch32",
            "figure": "3.40x",
            "baseline": "3.38x",
            "ratio": 1.0059,
            "floor": 0.8,
            "status": "ok",
        },
        {
            "artefact": "city",
            "metric": "drop improvement",
            "figure": "84.4%",
            "baseline": "84.4%",
            "ratio": 1.0,
            "floor": 0.25,
            "status": "ok",
        },
    ]

    def test_renderer_emits_one_table_row_per_figure(self):
        text = check_regression.render_markdown(self.ROWS, [])
        lines = text.splitlines()
        assert "### Benchmark regression gate" in lines
        header = "| artefact | metric | figure | baseline | ratio | floor | status |"
        assert header in lines
        assert "| scale | batch32 | 3.40x | 3.38x | 1.006 | 0.8 | ok |" in lines
        assert (
            "| city | drop improvement | 84.4% | 84.4% | 1.000 | 0.25 | ok |"
            in lines
        )
        assert "**passed**" in lines

    def test_renderer_lists_failures(self):
        text = check_regression.render_markdown(
            self.ROWS, ["scale w1: speedup ratio 0.5 < 0.8"]
        )
        assert "**FAILED** (1 regressions):" in text
        assert "- scale w1: speedup ratio 0.5 < 0.8" in text
        assert "**passed**" not in text

    def test_summary_appended_when_env_set(self, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        summary.write_text("existing content\n", encoding="utf-8")
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert run(tmp_path, city_artefact(), city_artefact()) == 0
        text = summary.read_text(encoding="utf-8")
        assert text.startswith("existing content\n")
        assert "### Benchmark regression gate" in text
        assert "| city | drop improvement |" in text
        assert "**passed**" in text

    def test_summary_written_on_failure_too(self, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        base = city_artefact(improvement=0.8)
        cur = city_artefact(improvement=0.3)
        assert run(tmp_path, base, cur) == 1
        text = summary.read_text(encoding="utf-8")
        assert "**FAILED**" in text

    def test_no_summary_file_without_env(self, tmp_path):
        # The autouse fixture clears GITHUB_STEP_SUMMARY; nothing is
        # written anywhere besides stdout.
        summary = tmp_path / "summary.md"
        assert run(tmp_path, city_artefact(), city_artefact()) == 0
        assert not summary.exists()
