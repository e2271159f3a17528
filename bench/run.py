"""The escrowsim benchmark.

    python3 bench/run.py [--workload sweep|bulk|idle|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Runs from any directory of a source checkout and imports ``escrowsim`` from
its ``src/``. ``--workload all`` (the default) runs each workload in its own
process. A workload run is one process with one thread and one caller that
waits for each result (a closed loop):

1. Set-up, timed ``SETUP_PROBES`` times in fresh interpreters
   (``setup_probe.py``): import ``escrowsim`` and build the inputs from the
   seed. Every probe must build the same inputs.
2. Verified passes over the inputs for ``--seconds`` (see ``measure.py``).
   Each pass checks every script (conservation, engine equals oracle) and
   repeats the first pass's outputs exactly.
3. The output lock (``lock.json``): the first pass must reproduce the pinned
   digests and simulated statistics when the seed is pinned; otherwise one
   extra pass at the default seed is checked against the lock.

With ``--trace 0`` the run reports the end-to-end metrics (medians over
passes). With ``--trace 1`` it spends half of ``--seconds`` on untraced
passes and half on passes traced by ``tracing.py``, and reports the
per-layer metrics; the traced passes must reproduce the untraced outputs.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 only when every check passed. Run context and all numbers
are also written to ``bench/out/``.

``--update-lock`` recomputes ``lock.json``. Do that only in a change that
alters the simulator's outputs on purpose, and say so in that change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import setup_probe

setup_probe.use_source_tree()

import measure  # noqa: E402  (imports escrowsim from src/)
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LOCK_PATH = BENCH_DIR / "lock.json"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 0
HELD_OUT_SEED = 97  # pinned in the lock, never used while tuning the benchmark
SETUP_PROBES = 5

# ---------------------------------------------------------------------------
# run context and output
# ---------------------------------------------------------------------------

def run_context(args) -> dict:
    """What a result depends on besides the code: interpreter, machine, seed."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                check=False,
            )
            commit = done.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "escrowsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def emit(args, context, metrics, units, attempted, failed, problems, extra) -> int:
    """Print the metrics and the result line, save them, return the exit code."""
    correct = not problems and failed == 0
    name = args.workload
    print(f"{name}: context {json.dumps(context)}")
    for problem in problems:
        print(f"{name}: CHECK FAILED: {problem}")
    for key, value in metrics.items():
        print(f"{name}: {key} = {value:.6g} {units[key]}")
    print(f"{name}: fail_share = {failed / attempted:.6g} ratio ({failed}/{attempted} scripts)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"context": context, "problems": problems, **extra, **result}
    out = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def timed_setups(workload: str, seed: int) -> tuple[list[float], set[str]]:
    """Set-up seconds from fresh interpreters, and the input digests they saw."""
    seconds, digests = [], set()
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            check=False,
            timeout=120,
        )
        if done.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        seconds.append(probe["setup_s"])
        digests.add(probe["inputs_sha256"])
    return seconds, digests


def check_lock(workload: str, seed: int, first_pass, lock: dict) -> list[str]:
    """Lock problems: this seed's pinned values, else one pass at the default seed."""
    pinned = lock["workloads"][workload]
    if str(seed) in pinned:
        entry, result = pinned[str(seed)], first_pass
    else:
        entry = pinned[str(DEFAULT_SEED)]
        result = measure.verified_pass(workloads.build_inputs(workload, DEFAULT_SEED))
    bad = measure.lock_mismatches(result, entry)
    if result.failed:
        bad.append(f"{len(result.failed)} failed scripts")
    return [f"lock mismatch at seed {entry['seed']}: {', '.join(bad)}"] if bad else []


def nearest_rank(ordered: list[float], share: float) -> float:
    """The smallest value with at least ``share`` of the values at or below it."""
    return ordered[max(math.ceil(share * len(ordered)), 1) - 1]


def run_untraced(args, context, lock) -> int:
    setups, probe_digests = timed_setups(args.workload, args.seed)
    texts = workloads.build_inputs(args.workload, args.seed)
    problems = []
    if probe_digests != {workloads.inputs_digest(texts)}:
        problems.append(f"inputs differ between processes: {sorted(probe_digests)}")
    passes, failed = measure.repeat_passes(texts, args.seconds, args.corrupt_script)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(texts) * len(passes)
    del texts
    problems += check_lock(args.workload, args.seed, passes[0], lock)
    if problems:
        failed = attempted  # a run with wrong outputs verifies nothing
    metrics = measure.end_to_end(passes)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mib"] = peak_rss_mib
    metrics = {key: metrics[key] for key in measure.END_TO_END_UNITS}
    extra = {
        "passes": len(passes),
        "raw_pass_s": [p.raw_s for p in passes],
        "setup_samples_s": setups,
        "digests": passes[0].digests,
        "sim": passes[0].sim,
    }
    return emit(args, context, metrics, measure.END_TO_END_UNITS, attempted, failed, problems, extra)


def run_traced(args, context, lock) -> int:
    texts = workloads.build_inputs(args.workload, args.seed)
    half = args.seconds / 2
    plain, failed = measure.repeat_passes(texts, half, args.corrupt_script)
    problems = check_lock(args.workload, args.seed, plain[0], lock)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with speed.Speedometer() as speedometer:
            traced_texts = workloads.build_inputs(args.workload, args.seed)
        generate_s = tracer.totals(speedometer.reference_s)["scenario.generate"][1]
        layers = []
        traced, traced_failed = measure.repeat_passes(
            texts,
            half,
            args.corrupt_script,
            before_pass=tracer.reset,
            after_pass=lambda result: layers.append(tracing.layer_metrics(tracer, result)),
        )
    finally:
        tracer.uninstall()
    failed += traced_failed
    attempted = len(texts) * (len(plain) + len(traced))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.tsv.gz")

    if traced_texts != texts:
        problems.append("traced set-up built different inputs")
    if traced[0].digests != plain[0].digests or traced[0].sim != plain[0].sim:
        problems.append("traced outputs differ from untraced outputs")
    entry = lock["workloads"][args.workload].get(str(args.seed))
    if entry is not None and entry["sim"]["txs"] != layers[0]["sim.txs"]:
        problems.append(f"lock mismatch at seed {args.seed}: sim.txs")
    if problems:
        failed = attempted

    script_ms = sorted(
        sum(stages[: measure.ENGINE_STAGES]) * 1e3 for result in plain for stages in result.stage_s
    )
    metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    metrics.update(
        {
            "scenario.generate_s": generate_s,
            "scenario.script_p50_ms": nearest_rank(script_ms, 0.50),
            "scenario.script_p99_ms": nearest_rank(script_ms, 0.99),
            "scenario.scripts": len(script_ms),
            "trace.overhead_share": sum(measure.median_stages(traced))
            / sum(measure.median_stages(plain))
            - 1,
        }
    )
    metrics = {key: metrics[key] for key in tracing.PER_LAYER_UNITS}
    extra = {"untraced_passes": len(plain), "traced_passes": len(traced)}
    return emit(args, context, metrics, tracing.PER_LAYER_UNITS, attempted, failed, problems, extra)


# ---------------------------------------------------------------------------
# all workloads, and the lock
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.corrupt_script is not None:
            command += ["--corrupt-script", str(args.corrupt_script)]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.exit(f"error: workload {workload} gave no result (exit {done.returncode})")
        combined["correct"] = combined["correct"] and result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def update_lock() -> int:
    """Pin digests and simulated statistics for the default and held-out seeds."""
    lock = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    tracer = tracing.Tracer()
    for workload in workloads.WORKLOADS:
        lock["workloads"][workload] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            texts = workloads.build_inputs(workload, seed)
            result = measure.verified_pass(texts)
            tracer.install()
            try:
                traced = measure.verified_pass(texts)
                txs = tracing.layer_metrics(tracer, traced)["sim.txs"]
            finally:
                tracer.uninstall()
                tracer.reset()
            if result.failed or traced.digests != result.digests:
                sys.exit(f"error: {workload} seed {seed} does not verify; lock not written")
            lock["workloads"][workload][str(seed)] = {
                "seed": seed,
                "inputs_sha256": workloads.inputs_digest(texts),
                **result.digests,
                "sim": {**result.sim, "txs": txs},
            }
            print(f"{workload} seed {seed}: {lock['workloads'][workload][str(seed)]}")
    LOCK_PATH.write_text(json.dumps(lock, indent=2) + "\n")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-script",
        type=int,
        metavar="INDEX",
        help="fault injection: mint one wei in this script's run, so the run must fail",
    )
    parser.add_argument("--update-lock", action="store_true", help="rewrite lock.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_probe.check_source_tree()
    if args.update_lock:
        return update_lock()
    if args.workload == "all":
        return run_all(args)
    context = run_context(args)
    lock = json.loads(LOCK_PATH.read_text())
    if args.trace:
        return run_traced(args, context, lock)
    return run_untraced(args, context, lock)


if __name__ == "__main__":
    sys.exit(main())
