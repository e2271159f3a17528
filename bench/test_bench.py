"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import setup_probe

setup_probe.use_source_tree()

import measure  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from escrowsim import errors, scenario  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
LOCK = json.loads((BENCH_DIR / "lock.json").read_text())


def run_bench(*args, bench_dir=BENCH_DIR):
    done = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=bench_dir.parent,
        timeout=300,
    )
    return done, done.stdout.strip().splitlines()


def test_inputs_repeat_for_a_seed_and_change_with_it():
    for workload in workloads.WORKLOADS:
        first = workloads.build_inputs(workload, 5)
        assert workloads.build_inputs(workload, 5) == first
        assert workloads.build_inputs(workload, 6) != first


def test_inputs_match_the_lock():
    for workload, seeds in LOCK["workloads"].items():
        for seed, entry in seeds.items():
            texts = workloads.build_inputs(workload, int(seed))
            assert workloads.inputs_digest(texts) == entry["inputs_sha256"], (workload, seed)


def test_bulk_script_parses_with_distinct_labels():
    (text,) = workloads.build_inputs("bulk", 0)
    script = scenario.parse_scenario(text)
    sessions = [e.params["session"] for e in script.events if e.action == "request_session"]
    ballots = [e.params["ballot"] for e in script.events if e.action == "deploy_ballot"]
    assert len(sessions) > 1000
    assert not [label for label, n in Counter(sessions).items() if n > 1]
    assert not [label for label, n in Counter(ballots).items() if n > 1]
    generated = sum(
        len(scenario.generate_random_script(seed)["events"])
        for seed in range(workloads.BULK_SCRIPTS)
    )
    assert len(script.events) == generated
    assert script.config.jitter_seed is None
    assert script.events[-1].at_time < workloads.BULK_HORIZON_SECONDS - 3600


def test_idle_runs_a_deterministic_and_a_jittered_grid():
    scripts = [scenario.parse_scenario(text) for text in workloads.build_inputs("idle", 3)]
    assert [s.config.jitter_seed for s in scripts] == [None, 3]
    for s in scripts:
        assert s.config.run_until_seconds == workloads.IDLE_HORIZON_SECONDS
        assert s.events[-1].at_time < workloads.IDLE_HORIZON_SECONDS // 5


def test_corrupted_script_fails_the_pass():
    texts = workloads.build_inputs("sweep", 0)[:20]
    assert measure.verified_pass(texts).failed == []
    assert measure.verified_pass(texts, corrupt_index=3).failed == [3]
    passes, failed = measure.repeat_passes(texts, 0, corrupt_index=3)
    assert (len(passes), failed) == (1, 1)


def test_corrupted_script_fails_the_run():
    done, lines = run_bench("--workload", "sweep", "--seconds", "1", "--corrupt-script", "0")
    result = json.loads(lines[-1])
    assert done.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any("fail_share" in line and not line.endswith("= 0 ratio") for line in lines)


def test_every_lock_entry_reproduces():
    for workload, seeds in LOCK["workloads"].items():
        for seed, entry in seeds.items():
            result = measure.verified_pass(workloads.build_inputs(workload, int(seed)))
            assert result.failed == []
            assert measure.lock_mismatches(result, entry) == [], (workload, seed)


def test_traced_pass_matches_untraced_pass():
    texts = workloads.build_inputs("sweep", 0)[:100] + workloads.build_inputs("bulk", 2)
    plain = measure.verified_pass(texts)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure.verified_pass(texts)
        layers = tracing.layer_metrics(tracer, traced)
    finally:
        tracer.uninstall()
    assert traced.digests == plain.digests
    assert traced.sim == plain.sim
    assert traced.failed == plain.failed == []
    assert layers["ledger.produce_block_calls"] == layers["sim.final_height"]
    assert 0 < layers["ledger.useful_block_share"] <= 1
    assert not hasattr(scenario.run_scenario, "__wrapped__")  # uninstalled


def test_traced_run_checks_itself_and_reports_every_layer_metric():
    done, lines = run_bench("--workload", "sweep", "--seconds", "1", "--trace", "1")
    result = json.loads(lines[-1])
    assert done.returncode == 0, done.stdout
    assert result["correct"] is True
    assert list(result["metrics"]) == list(tracing.PER_LAYER_UNITS)


def test_self_time_excludes_direct_children():
    tracer = tracing.Tracer()
    run_code = tracer.names.index("scenario.run")
    block_code = tracer.names.index("ledger.produce_block")
    wake_code = tracer.names.index("orchestrator.wakeup")
    # run [0, 10] holds block [1, 4] which holds wakeup [2, 3], and block [5, 6]
    for code, parent, start, end in [
        (run_code, -1, 0.0, 10.0),
        (block_code, 0, 1.0, 4.0),
        (wake_code, 1, 2.0, 3.0),
        (block_code, 0, 5.0, 6.0),
    ]:
        tracer.span_name.append(code)
        tracer.span_parent.append(parent)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    totals = tracer.totals()
    assert totals["scenario.run"] == (1, 6.0)
    assert totals["ledger.produce_block"] == (2, 3.0)
    assert totals["orchestrator.wakeup"] == (1, 1.0)


def test_speedometer_scales_gaps_and_leaves_out_sampling():
    meter = speed.Speedometer()
    reference = speed.REFERENCE_CALIBRATION_S
    # sampling takes [0, 1] at reference speed and [3, 4] at half of it
    meter.samples = [(0.0, 1.0, reference), (3.0, 4.0, 2 * reference)]
    meter._build()
    assert meter.raw_s(0.0, 4.0) == 2.0
    assert meter.raw_s(0.5, 1.0) == 0.0
    assert meter.reference_s(0.0, 4.0) == pytest.approx(2.0 / 1.5)
    assert meter.reference_s(1.5, 2.5) == pytest.approx(1.0 / 1.5)


def test_speedometer_samples_while_active():
    with speed.Speedometer() as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        end = time.perf_counter()
    assert len(meter.samples) >= 5
    assert 0 < meter.raw_s(start, end) <= end - start
    assert meter.reference_s(start, end) > 0


def test_useful_blocks_count_event_and_wakeup_blocks_once():
    blocks = tracing.RunBlocks(event_times=[0, 10, 15, 16, 44])
    blocks.block_times.extend([15, 30, 45, 60])
    blocks.wakeup_heights.update({1, 4})
    # events run in blocks 1 (t=10, 15), 2 (t=16) and 3 (t=44); t=0 in genesis
    assert blocks.useful_blocks() == 4


def test_metric_tables_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["run_seconds"] == run.parse_args([]).seconds
    assert all(hasattr(errors, name) for name in tracing.RAISED_CLASSES)


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done, lines = run_bench("--workload", "idle", "--seconds", "1", bench_dir=tmp_path / "bench")
    assert done.returncode != 0
    assert not lines
