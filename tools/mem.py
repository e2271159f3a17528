"""Print, per stage of a verified pass, the memory its product holds, its peak and the cyclic garbage it leaves.

Builds the benchmark's inputs for seed 0 of each workload
(``bench/workloads.build_inputs``) and runs the engine and oracle stages on
them one stage at a time: parse every text, run every script, render every
report, then the oracle on every script.  Every product is kept until the
end, so a row of a many-script workload is the sum over its scripts.  For
each stage it prints:

- the live bytes the stage's products add (``tracemalloc``'s traced memory
  after a full collection, against the reading after the previous stage);
- the stage's peak: the highest traced memory while it runs
  (``tracemalloc.reset_peak()`` before it), against the same reading.  It
  shows what the stage holds on the way that its products do not keep,
  such as a run's ledger next to its report;
- the unreachable objects the stage leaves, counted by ``gc.collect()``
  with the collector off while the stage runs.  A finished run that keeps
  a reference cycle shows here as thousands of objects that only the
  cyclic collector would free.

Standard library only; ``bench/`` is read and never written.

    python3 tools/mem.py
"""

import gc
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class StageRow(NamedTuple):
    stage: str
    product: str
    live_bytes: int  # what the stage's products hold, after a full collection
    peak_bytes: int  # the most the stage held at once, products included
    garbage: int  # objects the stage left for the cyclic collector


def stage_rows(texts: list[str]) -> list[StageRow]:
    """One row per stage (parse, run, render, oracle) over every text in ``texts``."""
    from escrowsim import oracle, scenario

    tracing, collecting = tracemalloc.is_tracing(), gc.isenabled()
    while gc.collect():  # a finalizer that ran may leave garbage for the next pass
        pass
    gc.disable()
    if not tracing:
        tracemalloc.start()
    try:
        rows: list[StageRow] = []
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

        def record(stage: str, product: str) -> None:
            nonlocal live
            garbage = gc.collect()
            before, (live, peak) = live, tracemalloc.get_traced_memory()
            rows.append(StageRow(stage, product, live - before, peak - before, garbage))
            tracemalloc.reset_peak()

        scripts = [scenario.parse_scenario(text) for text in texts]
        record("parse", "script")
        reports = [scenario.run_scenario(script) for script in scripts]
        record("run", "report")
        rendered = [report.to_json_text() for report in reports]
        record("render", "text")
        expected = [oracle.oracle_settlement(script) for script in scripts]
        record("oracle", "oracle")
        return rows
    finally:
        if not tracing:
            tracemalloc.stop()
        if collecting:
            gc.enable()


def main() -> int:
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    for workload in workloads.WORKLOADS:
        texts = workloads.build_inputs(workload, 0)
        print(f"{workload} (seed 0, {len(texts)} scripts)")
        print(f"  {'stage':<8}{'product':<9}{'live MB':>9}{'peak MB':>9}{'cyclic garbage':>16}")
        for row in stage_rows(texts):
            print(
                f"  {row.stage:<8}{row.product:<9}{row.live_bytes / 1e6:>9.1f}"
                f"{row.peak_bytes / 1e6:>9.1f}{row.garbage:>16}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
