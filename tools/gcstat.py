"""Print where CPython's automatic collections run in a verified pass, and how long they take.

Builds the benchmark's inputs for seed 0 of each workload
(``bench/workloads.build_inputs``) and runs ``PASSES`` passes over them in
the benchmark's order: for each text, parse, run, render, oracle and the
check (conservation and engine == oracle, then a digest of the report and
of the oracle's JSON, as ``bench/measure.py`` checks a script).  A
``gc.callbacks`` probe files each automatic collection, by generation and
with its host milliseconds, under the segment it ran in: one of the five
stages, or the gap after a stage, up to the start of the next one.  A
collection that a stage defers runs at the first allocation after it
returns, so it shows in that gap or in a later stage.  Every pass starts
with a full ``gc.collect()``, as the benchmark's passes do; that one is not
counted.  Each row is printed as a mean per pass, with the stage's own host
milliseconds, and a last row sums the whole pass.

Standard library only; ``bench/`` is read and never written.

    python3 tools/gcstat.py
"""

import gc
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PASSES = 3
STAGES = ("parse", "run", "render", "oracle", "check")
SEGMENTS = tuple(name for stage in STAGES for name in (stage, f"after {stage}"))


class SegmentRow(NamedTuple):
    segment: str  # a stage, or "after <stage>" for the gap that follows it
    collections: tuple[int, int, int]  # automatic collections, by generation
    gc_ms: float  # host milliseconds spent in them
    ms: float  # host milliseconds in a stage, its collections included; 0.0 for a gap


def segment_rows(texts: list[str], passes: int = PASSES) -> list[SegmentRow]:
    """One row per segment of ``passes`` passes over ``texts``, summed over the passes."""
    from escrowsim import oracle, scenario

    clock = time.perf_counter
    counts = {name: [0, 0, 0] for name in SEGMENTS}
    gc_seconds = dict.fromkeys(SEGMENTS, 0.0)
    intervals = {stage: [] for stage in STAGES}
    where = [None]  # the segment running; None while a pass's own gc.collect() runs
    started = [0.0]

    def probe(phase, info):
        segment = where[0]
        if segment is None:
            return
        if phase == "start":
            started[0] = clock()
        else:
            counts[segment][info["generation"]] += 1
            gc_seconds[segment] += clock() - started[0]

    def timed(stage, call, *args):
        # the benchmark's glue: a stage's (start, end) is kept as it ends, so
        # a collection the stage deferred runs here, in the gap after it
        where[0] = stage
        start = clock()
        result = call(*args)
        end = clock()
        where[0] = f"after {stage}"
        intervals[stage].append((start, end))
        return result

    def check(report, rendered, expected):
        hashlib.sha256(rendered.encode()).digest()
        hashlib.sha256(json.dumps(expected, sort_keys=True).encode()).digest()
        return report.report["conservation_ok"] and report.settlements == expected

    gc.callbacks.append(probe)
    try:
        for _ in range(passes):
            where[0] = None
            gc.collect()
            where[0] = "after check"
            for text in texts:
                script = timed("parse", scenario.parse_scenario, text)
                report = timed("run", scenario.run_scenario, script)
                rendered = timed("render", report.to_json_text)
                expected = timed("oracle", oracle.oracle_settlement, script)
                if not timed("check", check, report, rendered, expected):
                    raise AssertionError("a script failed its check")
    finally:
        gc.callbacks.remove(probe)
    return [
        SegmentRow(
            name,
            tuple(counts[name]),
            gc_seconds[name] * 1e3,
            sum(end - start for start, end in intervals.get(name, ())) * 1e3,
        )
        for name in SEGMENTS
    ]


def main() -> int:
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    for workload in workloads.WORKLOADS:
        texts = workloads.build_inputs(workload, 0)
        rows = segment_rows(texts)
        print(f"{workload} (seed 0, {len(texts)} scripts, mean of {PASSES} passes)")
        print(f"  {'segment':<14}{'gen0':>7}{'gen1':>7}{'gen2':>7}{'gc ms':>9}{'stage ms':>10}")
        total = SegmentRow(
            "whole pass",
            tuple(map(sum, zip(*(row.collections for row in rows)))),
            sum(row.gc_ms for row in rows),
            sum(row.ms for row in rows),
        )
        for row in (*rows, total):
            gen0, gen1, gen2 = (n / PASSES for n in row.collections)
            ms = f"{row.ms / PASSES:>10.1f}" if row.ms else ""
            print(
                f"  {row.segment:<14}{gen0:>7.1f}{gen1:>7.1f}{gen2:>7.1f}"
                f"{row.gc_ms / PASSES:>9.1f}{ms}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
