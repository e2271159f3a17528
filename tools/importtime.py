"""Print the median import time of each ``escrowsim`` module, per entry point and bytecode mode.

For each of ``import escrowsim.scenario`` (what the benchmark's set-up
imports) and ``import escrowsim.cli`` (the command line), runs ``RUNS``
fresh interpreters with ``-X importtime`` and prints, for every
``escrowsim`` module that the import loads, the median self and cumulative
milliseconds that CPython reports.  Two modes:

- ``source``: ``-B``, so every ``escrowsim`` module is compiled from source
  on each run, as in the benchmark, which runs with
  ``PYTHONDONTWRITEBYTECODE=1``;
- ``cached``: bytecode written once by a first, untimed run under a
  temporary ``PYTHONPYCACHEPREFIX`` and read by the timed runs.

Each run imports a copy of ``src/escrowsim`` made in a temporary directory
without its ``__pycache__``, so nothing is written into the checkout and a
cache left in ``src/`` does not count.  Standard library only.

    python3 tools/importtime.py
"""

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ENTRY_POINTS = ("escrowsim.scenario", "escrowsim.cli")
MODES = ("source", "cached")
RUNS = 9


class ImportRow(NamedTuple):
    module: str
    self_ms: float  # median over the runs
    cumulative_ms: float  # median over the runs, the modules it imports included


def _import_times(stderr: str) -> dict[str, tuple[int, int]]:
    """``-X importtime``'s (self, cumulative) microseconds per ``escrowsim`` module."""
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "escrowsim" or name.startswith("escrowsim."):
            times[name] = (int(self_us), int(cumulative_us))
    return times


def import_rows(entry_point: str, mode: str, runs: int = RUNS) -> list[ImportRow]:
    """One row per ``escrowsim`` module that ``import <entry_point>`` loads, in load order."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    with tempfile.TemporaryDirectory() as scratch:
        package_root = Path(scratch, "src")
        shutil.copytree(
            ROOT / "src" / "escrowsim",
            package_root / "escrowsim",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(package_root)
        command = [sys.executable, "-X", "importtime", "-c", f"import {entry_point}"]
        if mode == "source":
            command.insert(1, "-B")
        else:
            env["PYTHONPYCACHEPREFIX"] = str(Path(scratch, "pycache"))
            subprocess.run(command, env=env, capture_output=True, check=True)  # writes the cache
        samples = []
        for _ in range(runs):
            done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
            samples.append(_import_times(done.stderr))
    return [
        ImportRow(
            module,
            statistics.median(times[module][0] for times in samples) / 1e3,
            statistics.median(times[module][1] for times in samples) / 1e3,
        )
        for module in samples[0]
    ]


def main() -> int:
    for entry_point in ENTRY_POINTS:
        for mode in MODES:
            print(f"import {entry_point}, {mode} (median of {RUNS} runs)")
            print(f"  {'module':<24}{'self ms':>9}{'cumulative ms':>15}")
            for row in import_rows(entry_point, mode):
                print(f"  {row.module:<24}{row.self_ms:>9.2f}{row.cumulative_ms:>15.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
