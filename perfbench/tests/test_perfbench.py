"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NULL_TRACER, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_selects_same_frames(workload):
    first = workloads.select_units(workload, 7)
    assert first == workloads.select_units(workload, 7)
    others = [workloads.select_units(workload, seed) for seed in range(1, 6)]
    assert any(other != first for other in others)


def test_sweep_pass_holds_every_preset_frame_once():
    grids = workloads.select_units("stream-sweep", 3)
    for column, preset in enumerate(workloads.StreamSweep.presets):
        frames = sorted(grid[column][1] for grid in grids)
        assert [grid[column][0] for grid in grids] == [preset] * len(grids)
        assert frames == list(range(len(grids)))


def test_perturbed_statistic_counts_as_error():
    units = workloads.select_units("sim-cold", 0)
    bench = workloads.SimCold(units, "")
    pinned = oracle.Oracle.load("sim-cold")
    outcome = bench.run_unit(units[0], NULL_TRACER)
    assert [workloads.check(op, pinned) for op in outcome.ops] == [None] * len(
        outcome.ops
    )
    outcome.ops[0].value.stats.evictions += 1
    problems = [workloads.check(op, pinned) for op in outcome.ops]
    assert problems[0] is not None and "pinned" in problems[0]
    assert problems[1:] == [None] * (len(problems) - 1)


def test_generation_is_traced_only_inside_a_traced_unit():
    units = workloads.select_units("sim-cold", 0)[:1]
    bench = workloads.SimCold(units, "")
    tracer = Tracer()
    with workloads.traced_generate(tracer):
        bench.run_unit(units[0], NULL_TRACER)
        assert tracer.spans == []
        bench.run_unit(units[0], tracer)
    generate = [span for span in tracer.spans if span.name == "generate"]
    assert len(generate) == 1
    assert tracer.spans[generate[0].parent].name == "unit"


def test_unit_times_are_scaled_to_the_reference_speed():
    main = {"unit_seconds": [1.0, 3.0], "unit_scales": [0.5, 2.0],
            "unit_accesses": [10, 10], "peak_rss_mb": 1.0}
    values = run.end_to_end([2.0], main)
    assert values["unit_p50_s"] == pytest.approx((0.5 + 6.0) / 2)
    assert values["sim_accesses_per_s"] == pytest.approx(20 / 6.5)
    assert hostspeed.factor([hostspeed.REFERENCE_SECONDS] * 3) == 1


def test_failed_operation_counts_as_error():
    pinned = oracle.Oracle({})
    op = workloads.Op("replay", "x", "drrip", error="SimulationError: boom")
    assert "boom" in workloads.check(op, pinned)


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]
    } == workloads.PER_LAYER


def test_every_roster_policy_has_a_replay_metric():
    rosters = (
        workloads.SimCold.replay_policies
        + workloads.PaperWarm.replay_policies
        + workloads.StreamSweep.policies
    )
    for policy in rosters:
        assert workloads.policy_metric(policy) in workloads.PER_LAYER


def test_self_times_partition_a_root():
    tracer = Tracer()
    with tracer.unit("u") as root:
        with tracer.span("replay") as replay:
            pass
        tracer.child(replay, "decode", replay.seconds / 2)
    own = tracer.self_times()
    assert sum(own) == pytest.approx(root.seconds)
    assert all(span.unit == "u" for span in tracer.spans)


def test_outside_a_checkout_exits_nonzero_without_result():
    result = subprocess.run(
        [sys.executable, "run.py", "--workload", "sim-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=BENCH, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_the_declared_ones(trace):
    spans_out = os.path.join(ROOT, f".perfbench_test_spans_{os.getpid()}.json")
    try:
        result = run_bench("--workload", "sim-cold", "--seed", "0",
                           "--seconds", "0.1", "--trace", trace,
                           "--spans-out", spans_out)
        assert result.returncode == 0, result.stderr
        if trace == "1":
            with open(spans_out, encoding="utf-8") as handle:
                names = {span["name"] for span in json.load(handle)}
            assert {"import", "unit", "generate", "replay", "decode"} <= names
        else:
            assert not os.path.exists(spans_out)
    finally:
        if os.path.exists(spans_out):
            os.unlink(spans_out)
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert not os.path.exists(os.path.join(ROOT, run.SCRATCH_DIR))
