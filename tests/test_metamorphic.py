"""Metamorphic relations: runs of related scripts, on the engine and the oracle.

Engine == oracle only catches a fault where the two disagree; these relations
check each of them against itself.  Both are run on the fixed-grid scripts
among generator seeds 0..99.
"""

import copy
import json
import re

import pytest

from escrowsim.oracle import oracle_settlement
from escrowsim.scenario import generate_random_script, parse_scenario, run_scenario

DOCUMENTS = {seed: generate_random_script(seed) for seed in range(100)}
FIXED_GRID = [seed for seed, doc in DOCUMENTS.items() if "jitter_seed" not in doc["config"]]


def _run(doc):
    """The engine's report and the oracle's settlements of one document."""
    return run_scenario(parse_scenario(doc)), oracle_settlement(parse_scenario(doc))


def _shifted(doc, seconds):
    doc = copy.deepcopy(doc)
    for event in doc["events"]:
        event["at_time"] += seconds
    return doc


def _invariant(report, oracle):
    """What a shift on the grid leaves as it is."""
    r = report.report
    return {
        "engine": report.settlements,
        "oracle": oracle,
        "final_balances": r["final_balances"],
        "fee_sink_wei": r["fee_sink_wei"],
        "event_errors": [(e["event_index"], e["error"]) for e in r["event_errors"]],
    }


def _heights(report):
    """The final height, and the deploy and stop block of every session."""
    r = report.report
    rows = [(s["deploy_block"], s["stop_block"]) for s in r["sessions"]]
    return r["final_block"]["height"], rows


def test_generator_seeds_0_to_99_include_fixed_grid_scripts():
    assert len(FIXED_GRID) >= 40


@pytest.mark.parametrize("k", [1, 7, 40])
def test_shifting_every_event_by_k_blocks_moves_only_the_heights(k):
    for seed in FIXED_GRID:
        doc = DOCUMENTS[seed]
        interval = doc["config"]["block_interval_seconds"]
        base = _run(doc)
        moved = _run(_shifted(doc, k * interval))
        assert _invariant(*moved) == _invariant(*base), seed
        height, rows = _heights(base[0])
        moved_height, moved_rows = _heights(moved[0])
        assert moved_height == height + k, seed
        plus_k = [
            tuple(None if block is None else block + k for block in row) for row in rows
        ]
        assert moved_rows == plus_k, seed


PREFIX = "acct-"  # the same prefix on every name keeps their sorted order


def _renamed(value, names):
    """``value`` with every actor name in ``names`` prefixed, in keys and strings alike."""
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")

    def walk(node):
        if isinstance(node, dict):
            return {walk(key): walk(item) for key, item in node.items()}
        if isinstance(node, list):
            return list(map(walk, node))
        if isinstance(node, str):
            return pattern.sub(lambda m: PREFIX + m.group(1), node)
        return node

    return walk(value)


def test_renaming_every_actor_in_sorted_order_renames_the_report():
    for seed in FIXED_GRID:
        doc = DOCUMENTS[seed]
        names = sorted(doc["genesis"])
        base_report, base_oracle = _run(doc)
        report, oracle = _run(_renamed(doc, names))
        expected = _renamed(dict(base_report.report, tx_digest=None), names)
        # as text, so that the order of every key counts too
        assert json.dumps(dict(report.report, tx_digest=None)) == json.dumps(expected), seed
        assert report.settlements == _renamed(base_report.settlements, names), seed
        assert oracle == _renamed(base_oracle, names), seed
