"""Benchmark inputs, built from a workload seed.

Every workload is a list of scenario JSON texts that depends only on the
seed. The simulator receives nothing else: the texts are what a user would
hand to ``escrowsim run``.

- ``sweep``: ``SWEEP_SCRIPTS`` generator scripts, run one after another.
  Seed 0 is the acceptance sweep (generator seeds 0..999); about half the
  scripts draw a jittered block grid, as the generator decides.
- ``bulk``: ``BULK_SCRIPTS`` generator scripts merged into one scenario on
  the deterministic 15 s grid, each shifted ``BULK_SPACING_SECONDS`` after
  the previous one, so thousands of sessions are open at once and almost
  every block carries an event. It runs to a fixed horizon,
  ``BULK_HORIZON_SECONDS``, a little past the last settlement, so the
  simulated time does not depend on the seed.
- ``idle``: ``IDLE_SCRIPTS`` generator scripts merged sparsely into the first
  part of a ``IDLE_HORIZON_SECONDS`` horizon, once on the deterministic grid
  and once on a grid jittered by the seed, so nearly all work is empty
  blocks. The scripts are the same for every seed: with so few events, a
  seed-dependent event count would move the per-event figures by itself.
"""

from __future__ import annotations

import hashlib
import json

from escrowsim import scenario

WORKLOADS = ("sweep", "bulk", "idle")

SWEEP_SCRIPTS = 1000
BULK_SCRIPTS = 1600
BULK_SPACING_SECONDS = 30
BULK_HORIZON_SECONDS = 64_800
IDLE_SCRIPTS = 4
IDLE_SPACING_SECONDS = 250_000
IDLE_HORIZON_SECONDS = 10**7

# One config for merged scripts: the generator's per-script gas price and
# provider posture cannot all hold at once, so a merged script uses the
# generator's most common values.
MERGED_CONFIG = {
    "block_interval_seconds": 15,
    "refund_threshold_bp": 7_500,
    "gas": {"gas_price_gwei": 20},
    "provider": {"region": "EU", "gdpr_compliant": True},
}

# Labels that name a session or a ballot inside one generator script.
LABEL_KEYS = ("session", "ballot")


def merge_scripts(
    generator_seeds: list[int],
    spacing_seconds: int,
    jitter_seed: int | None = None,
    run_until_seconds: int | None = None,
) -> dict:
    """One scenario document holding every listed generator script.

    Script ``k`` is shifted by ``k * spacing_seconds`` and its session and
    ballot labels get the prefix ``g<generator seed>.`` so they stay
    distinct. Genesis balances are summed per actor.
    """
    genesis: dict[str, int] = {}
    events = []
    for k, gen_seed in enumerate(generator_seeds):
        doc = scenario.generate_random_script(gen_seed)
        for name, amount in doc["genesis"].items():
            genesis[name] = genesis.get(name, 0) + int(amount)
        for event in doc["events"]:
            params = dict(event["params"])
            for key in LABEL_KEYS:
                if key in params:
                    params[key] = f"g{gen_seed}.{params[key]}"
            events.append(
                {
                    "at_time": event["at_time"] + k * spacing_seconds,
                    "actor": event["actor"],
                    "action": event["action"],
                    "params": params,
                }
            )
    events.sort(key=lambda e: e["at_time"])  # stable: script order within a time
    config = dict(MERGED_CONFIG)
    if jitter_seed is not None:
        config["jitter_seed"] = jitter_seed
    if run_until_seconds is not None:
        config["run_until_seconds"] = run_until_seconds
    return {
        "config": config,
        "genesis": {name: str(total) for name, total in genesis.items()},
        "events": events,
    }


def build_documents(workload: str, seed: int) -> list[dict]:
    """The workload's scenario documents for ``seed``."""
    if workload == "sweep":
        first = seed * SWEEP_SCRIPTS
        return [
            scenario.generate_random_script(first + i) for i in range(SWEEP_SCRIPTS)
        ]
    if workload == "bulk":
        first = seed * BULK_SCRIPTS
        return [
            merge_scripts(
                list(range(first, first + BULK_SCRIPTS)),
                BULK_SPACING_SECONDS,
                run_until_seconds=BULK_HORIZON_SECONDS,
            )
        ]
    if workload == "idle":
        return [
            merge_scripts(
                list(range(IDLE_SCRIPTS)),
                IDLE_SPACING_SECONDS,
                jitter_seed=jitter,
                run_until_seconds=IDLE_HORIZON_SECONDS,
            )
            for jitter in (None, seed)
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def build_inputs(workload: str, seed: int) -> list[str]:
    """The workload's scenario JSON texts for ``seed``."""
    return [json.dumps(doc) for doc in build_documents(workload, seed)]


def inputs_digest(texts: list[str]) -> str:
    """sha256 over the texts, each followed by a newline."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode() + b"\n")
    return digest.hexdigest()
