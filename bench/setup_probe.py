"""Time one benchmark set-up in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed>

Set-up is importing ``escrowsim`` from the checkout's ``src/`` plus building
the workload's scenario JSON texts, in reference seconds (``speed.py``).
Before the clock starts only ``speed`` is imported, with the few standard
modules it needs (``json``, ``random``, ``dataclasses``, ``signal``), which
``escrowsim`` imports too. Prints one JSON line with ``setup_s``,
``raw_setup_s`` and the sha256 of the texts, so the caller can check that
every process built the same inputs.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def use_source_tree() -> None:
    """Import ``escrowsim`` from the checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "escrowsim", "__init__.py")):
        sys.exit(f"error: no escrowsim package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)


def check_source_tree() -> None:
    """Exit if ``escrowsim`` was imported from anywhere but ``src/``."""
    module = sys.modules["escrowsim"]
    if os.path.dirname(os.path.dirname(os.path.abspath(module.__file__))) != SRC:
        sys.exit(f"error: escrowsim imported from {module.__file__}, not from {SRC}")


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    use_source_tree()
    import speed

    with speed.Speedometer() as speedometer:
        start = time.perf_counter()
        import workloads  # imports escrowsim

        texts = workloads.build_inputs(workload, seed)
        end = time.perf_counter()
    check_source_tree()
    import json

    print(
        json.dumps(
            {
                "setup_s": speedometer.reference_s(start, end),
                "raw_setup_s": speedometer.raw_s(start, end),
                "inputs_sha256": workloads.inputs_digest(texts),
            }
        )
    )


if __name__ == "__main__":
    main()
