"""Digests of the outputs of jittered runs, one line per script.

``python tests/determinism.py SRC`` imports ``escrowsim`` from ``SRC`` and
prints ``<label> <sha256>`` for the idle workload's jittered script
(``idle-jittered``) and for each generator seed in 0..299 that draws a
``jitter_seed`` (``seed-<n>``).  The sha256 is over the report text and then
the oracle output, ``json.dumps`` of ``oracle_settlement``.  It needs only
the standard library, so every CPython >= 3.10 can run it on the source tree.
"""

import hashlib
import json
import runpy
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
GENERATOR_SEEDS = range(300)


def digest_lines() -> list[str]:
    from escrowsim.oracle import oracle_settlement
    from escrowsim.scenario import generate_random_script, parse_scenario, run_scenario

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


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    print("\n".join(digest_lines()))
