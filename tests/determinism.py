"""Digests of the outputs of jittered runs, one line per script, and of seed ranges.

``python tests/determinism.py SRC [--short]`` imports ``escrowsim`` from
``SRC`` and prints ``<label> <sha256>`` for the idle workload's jittered
script (``idle-jittered``) and for each generator seed in 0..299 that draws a
``jitter_seed`` (``seed-<n>``).  The sha256 is over the report text and then
the oracle output, ``json.dumps`` of ``oracle_settlement``.  Aggregate lines
follow, fixed grid included, each over generator seeds 0..n-1 as
``tests/test_golden.py`` computes its pins: ``reports-0..<n-1>`` over the
report texts and ``oracle-0..<n-1>`` over the ``escrowsim oracle`` standard
outputs.  They cover 0..499 and 0..99, then, unless ``--short``, 0..1999 and
0..299, the ranges of ``REPORTS_0_1999`` and ``ORACLE_0_299``.  It needs
only the standard library, so every CPython >= 3.10 can run it on the source
tree.
"""

import contextlib
import hashlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
GENERATOR_SEEDS = range(300)


def digest_lines() -> list[str]:
    from escrowsim.oracle import oracle_settlement
    from escrowsim.scenario import run_scenario
    from escrowsim.script import generate_random_script, parse_scenario

    [_, idle] = runpy.run_path(str(WORKLOADS))["build_documents"]("idle", 0)
    documents = [("idle-jittered", idle)]
    for seed in GENERATOR_SEEDS:
        doc = generate_random_script(seed)
        if "jitter_seed" in doc["config"]:
            documents.append((f"seed-{seed}", doc))
    lines = []
    for label, doc in documents:
        script = parse_scenario(doc)
        digest = hashlib.sha256(run_scenario(script).to_json_text().encode())
        digest.update(json.dumps(oracle_settlement(script)).encode())
        lines.append(f"{label} {digest.hexdigest()}")
    return lines


def aggregate_lines(short: bool) -> list[str]:
    from escrowsim.cli import main
    from escrowsim.scenario import run_scenario
    from escrowsim.script import generate_random_script, parse_scenario

    def report_text(seed):
        return run_scenario(parse_scenario(generate_random_script(seed))).to_json_text()

    def oracle_stdout(seed):
        path.write_text(json.dumps(generate_random_script(seed)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["oracle", str(path)])
        return out.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "script.json"
        reports = prefix_digests("reports", report_text, (500,) if short else (500, 2000))
        oracle = prefix_digests("oracle", oracle_stdout, (100,) if short else (100, 300))
    return [line for pair in zip(reports, oracle) for line in pair]


def prefix_digests(name: str, output, ends: tuple[int, ...]) -> list[str]:
    """``<name>-0..<end-1> <sha256>`` over ``output(seed)`` of seeds 0..end-1, per end."""
    digest, lines = hashlib.sha256(), []
    for seed in range(ends[-1]):
        digest.update(output(seed).encode())
        if seed + 1 in ends:
            lines.append(f"{name}-0..{seed} {digest.hexdigest()}")
    return lines


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    print("\n".join(digest_lines() + aggregate_lines(sys.argv[2:] == ["--short"])))
