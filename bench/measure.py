"""Verified passes over a workload's inputs, and the numbers taken from them.

A verified pass runs, for every scenario text in order, five stages:
``parse_scenario``, ``run_scenario`` and ``to_json_text`` (the engine),
``oracle_settlement`` (the oracle), and the check. A script fails the pass
when conservation is false or when the engine's settlements differ from the
oracle's. Every call goes through the ``escrowsim`` module attribute, so the
same code runs traced and untraced.

Stage times are in reference seconds (see ``speed.py``); the end-to-end
numbers take, per script and stage, the median over passes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from dataclasses import dataclass

from escrowsim import oracle, scenario
from speed import Speedometer

END_TO_END_UNITS = {
    "verified_events_per_s": "events/s",
    "engine_s": "s",
    "oracle_s": "s",
    "sim_s_per_s": "sim_s/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Simulated statistics of a pass. They follow from the inputs alone, so an
# optimisation may never change them. ``txs`` needs the traced run.
SIM_KEYS = (
    "events",
    "event_errors",
    "sessions",
    "contracts",
    "final_height",
    "sim_seconds",
    "report_bytes",
)

STAGES = ("parse", "run", "render", "oracle", "check")
ENGINE_STAGES = 3  # parse, run and render are the engine

@dataclass
class PassResult:
    stage_s: list[list[float]]  # per script, reference seconds per stage in STAGES
    raw_s: float  # host seconds of all stages
    speed: Speedometer  # converts any interval of the pass
    sim: dict[str, int]
    digests: dict[str, str]
    fingerprints: list[bytes]  # per script: report and oracle digests
    failed: list[int]  # indices of scripts that failed a check


def verified_pass(texts: list[str], corrupt_index: int | None = None) -> PassResult:
    """Run the engine and the oracle over every text and check each script.

    ``corrupt_index`` runs that script with one wei minted after the run
    (``run_scenario``'s fault hook), to show that the checks catch it.
    """
    clock = time.perf_counter
    sim = dict.fromkeys(SIM_KEYS, 0)
    report_hash, tx_hash, oracle_hash = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    fingerprints, failed = [], []
    intervals = []  # (start, end) of every stage, in order

    def timed(stage, *args):
        start = clock()
        result = stage(*args)
        intervals.append((start, clock()))
        return result

    def check(index, script, report, rendered, expected):
        r = report.report
        if not r["conservation_ok"] or report.settlements != expected:
            failed.append(index)
        report_digest = hashlib.sha256(rendered.encode()).digest()
        oracle_digest = hashlib.sha256(json.dumps(expected, sort_keys=True).encode()).digest()
        report_hash.update(report_digest)
        oracle_hash.update(oracle_digest)
        tx_hash.update(r["tx_digest"].encode() + b"\n")
        fingerprints.append(report_digest + oracle_digest)
        sim["events"] += len(script.events)
        sim["event_errors"] += len(r["event_errors"])
        sim["sessions"] += len(r["sessions"])
        sim["contracts"] += len(r["contracts"])
        sim["final_height"] += r["final_block"]["height"]
        sim["sim_seconds"] += r["final_block"]["timestamp"]
        sim["report_bytes"] += len(rendered)

    with Speedometer() as speed:
        for index, text in enumerate(texts):
            script = timed(scenario.parse_scenario, text)
            report = timed(scenario.run_scenario, script, 1 if index == corrupt_index else 0)
            rendered = timed(report.to_json_text)
            expected = timed(oracle.oracle_settlement, script)
            timed(check, index, script, report, rendered, expected)

    scaled = [speed.reference_s(start, end) for start, end in intervals]
    width = len(STAGES)
    return PassResult(
        stage_s=[scaled[i : i + width] for i in range(0, len(scaled), width)],
        raw_s=sum(speed.raw_s(start, end) for start, end in intervals),
        speed=speed,
        sim=sim,
        digests={
            "report_sha256": report_hash.hexdigest(),
            "tx_sha256": tx_hash.hexdigest(),
            "oracle_sha256": oracle_hash.hexdigest(),
        },
        fingerprints=fingerprints,
        failed=failed,
    )


def repeat_passes(
    texts: list[str],
    seconds: float,
    corrupt_index: int | None = None,
    before_pass=None,
    after_pass=None,
) -> tuple[list[PassResult], int]:
    """Verified passes until ``seconds`` have gone by (at least one).

    Returns the passes and the number of failed scripts: a script fails when
    its pass check fails or when its outputs differ from the first pass.
    """
    passes: list[PassResult] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        gc.collect()  # garbage from the previous pass is not this pass's cost
        if before_pass is not None:
            before_pass()
        result = verified_pass(texts, corrupt_index)
        if after_pass is not None:
            after_pass(result)
        bad = set(result.failed)
        if passes:
            first = passes[0].fingerprints
            bad.update(i for i, fp in enumerate(result.fingerprints) if fp != first[i])
        failed += len(bad)
        passes.append(result)
    return passes, failed


def median_stages(passes: list[PassResult]) -> list[float]:
    """Per stage, the sum over scripts of the median across passes."""
    per_script = zip(*(p.stage_s for p in passes))
    typical = [[statistics.median(times) for times in zip(*runs)] for runs in per_script]
    return [sum(column) for column in zip(*typical)]


def end_to_end(passes: list[PassResult]) -> dict[str, float]:
    """The run's untraced end-to-end metrics, at reference speed."""
    stages = median_stages(passes)
    engine_s = sum(stages[:ENGINE_STAGES])
    sim = passes[0].sim
    return {
        "verified_events_per_s": sim["events"] / sum(stages),
        "engine_s": engine_s,
        "oracle_s": stages[STAGES.index("oracle")],
        "sim_s_per_s": sim["sim_seconds"] / engine_s,
    }


def lock_mismatches(result: PassResult, entry: dict) -> list[str]:
    """Names of the pinned values in a lock entry that ``result`` does not match."""
    bad = [key for key, value in result.digests.items() if entry[key] != value]
    bad += [f"sim.{key}" for key, value in result.sim.items() if entry["sim"][key] != value]
    return bad
