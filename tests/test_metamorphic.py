"""Metamorphic relations: runs of related scripts, on the engine and the oracle.

Engine == oracle only catches a fault where the two disagree; these relations
check each of them against itself.  The shift and the order-keeping rename are
run on the fixed-grid scripts among generator seeds 0..99, the unknown label
and the richer genesis on all of them, and the order-reversing rename and the
later horizon on all of generator seeds 0..299.
"""

import copy
import json
import re

import pytest

from escrowsim.oracle import oracle_settlement
from escrowsim.scenario import generate_random_script, parse_scenario, run_scenario

DOCUMENTS_0_TO_299 = {seed: generate_random_script(seed) for seed in range(300)}
DOCUMENTS = {seed: DOCUMENTS_0_TO_299[seed] for seed in range(100)}
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


def _renamed(value, renames):
    """``value`` with every actor name renamed as ``renames`` maps it, in keys and
    strings alike."""
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, renames)) + r")\b")

    def walk(node):
        if isinstance(node, dict):
            return {walk(key): walk(item) for key, item in node.items()}
        if isinstance(node, list):
            return list(map(walk, node))
        if isinstance(node, str):
            return pattern.sub(lambda m: renames[m.group(1)], node)
        return node

    return walk(value)


def test_renaming_every_actor_in_sorted_order_renames_the_report():
    for seed in FIXED_GRID:
        doc = DOCUMENTS[seed]
        names = {name: PREFIX + name for name in doc["genesis"]}
        base_report, base_oracle = _run(doc)
        report, oracle = _run(_renamed(doc, names))
        expected = _renamed(dict(base_report.report, tx_digest=None), names)
        # as text, so that the order of every key counts too
        assert json.dumps(dict(report.report, tx_digest=None)) == json.dumps(expected), seed
        assert report.settlements == _renamed(base_report.settlements, names), seed
        assert oracle == _renamed(base_oracle, names), seed


def _reversing(names):
    """A renaming of ``names`` that reverses their sorted order."""
    last = len(names) - 1
    return {name: f"{PREFIX}{last - i}-{name}" for i, name in enumerate(sorted(names))}


def _sorted_by_name(report):
    """``report`` with the balances, voters and votes in name order again."""
    contracts = []
    for row in report["contracts"]:
        terms = row["terms"]
        if "voters" in terms:
            votes = dict(sorted(terms["votes"].items()))
            terms = dict(terms, voters=sorted(terms["voters"]), votes=votes)
        contracts.append(dict(row, terms=terms))
    return dict(
        report,
        final_balances=dict(sorted(report["final_balances"].items())),
        contracts=contracts,
    )


def test_renaming_every_actor_against_sorted_order_renames_and_resorts_the_report():
    for seed, doc in DOCUMENTS_0_TO_299.items():
        names = _reversing(doc["genesis"])
        base_report, base_oracle = _run(doc)
        report, oracle = _run(_renamed(doc, names))
        expected = _sorted_by_name(_renamed(dict(base_report.report, tx_digest=None), names))
        assert json.dumps(dict(report.report, tx_digest=None)) == json.dumps(expected), seed
        assert report.settlements == _renamed(base_report.settlements, names), seed
        assert oracle == _renamed(base_oracle, names), seed


UNKNOWN_LABEL = "no-such-session"


def _with_unknown_label_after(doc, k):
    """``doc`` with an ``end_session`` on an unknown label right after event ``k``,
    at its time and by its actor."""
    doc = copy.deepcopy(doc)
    event = doc["events"][k]
    doc["events"].insert(k + 1, {
        "at_time": event["at_time"],
        "actor": event["actor"],
        "action": "end_session",
        "params": {"session": UNKNOWN_LABEL},
    })
    return doc


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_an_event_on_an_unknown_label_adds_one_event_error_and_nothing_else(where):
    for seed, doc in DOCUMENTS.items():
        n = len(doc["events"])
        k = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        base_report, base_oracle = _run(doc)
        report, oracle = _run(_with_unknown_label_after(doc, k))
        event = doc["events"][k]
        row = {
            "event_index": k + 1,
            "at_time": event["at_time"],
            "actor": event["actor"],
            "action": "end_session",
            "error": "ValidationError",
            "detail": f"unknown session label {UNKNOWN_LABEL!r}",
        }
        errors = base_report.report["event_errors"]
        expected = [
            *(e for e in errors if e["event_index"] <= k),
            row,
            *(dict(e, event_index=e["event_index"] + 1) for e in errors if e["event_index"] > k),
        ]
        assert report.report == dict(base_report.report, event_errors=expected), seed
        assert report.settlements == base_report.settlements, seed
        assert oracle == base_oracle, seed


RICHER_BY = 10**18


def test_a_richer_genesis_raises_every_final_balance_and_nothing_else():
    for seed, doc in DOCUMENTS.items():
        base_report, base_oracle = _run(doc)
        base = base_report.report
        # a richer account may pay where a poorer one could not
        assert all(e["error"] != "InsufficientFunds" for e in base["event_errors"]), seed
        richer = copy.deepcopy(doc)
        for name, wei in doc["genesis"].items():
            richer["genesis"][name] = str(int(wei) + RICHER_BY)
        report, oracle = _run(richer)
        raised = {name: str(int(wei) + RICHER_BY) for name, wei in base["final_balances"].items()}
        assert report.report == dict(base, final_balances=raised), seed
        assert report.settlements == base_report.settlements, seed
        assert oracle == base_oracle, seed


LATER_BY = 100_000


def test_a_later_horizon_once_no_escrow_is_held_moves_only_the_final_block():
    qualified = 0
    for seed, doc in DOCUMENTS_0_TO_299.items():
        base_report, base_oracle = _run(doc)
        if any(row["escrow"] for row in base_report.settlements.values()):
            continue  # a later horizon may still release it
        qualified += 1
        horizon = base_report.report["final_block"]["timestamp"] + LATER_BY
        later = copy.deepcopy(doc)
        later["config"]["run_until_seconds"] = horizon
        report, oracle = _run(later)
        final_block = report.report["final_block"]
        assert final_block["timestamp"] >= horizon, seed
        assert report.report == dict(base_report.report, final_block=final_block), seed
        assert report.settlements == base_report.settlements, seed
        assert oracle == base_oracle, seed
    assert qualified >= 250
