"""Metamorphic relations: runs of related scripts, on the engine and the oracle.

Engine == oracle only catches a fault where the two disagree; these relations
check each of them against itself.  The shift and the order-keeping rename are
run on the fixed-grid scripts among generator seeds 0..99, the unknown label
and the richer genesis on all of them, the order-reversing rename and the
later horizon on all of generator seeds 0..299, and the disjoint union on the
pairs of generator seeds 2k and 2k + 1 for k < 100.
"""

import copy
import json
import re

import pytest

from escrowsim.oracle import oracle_settlement
from escrowsim.scenario import run_scenario
from escrowsim.script import generate_random_script, parse_scenario

from report_tree import report_tree

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
    r = report_tree(report)
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
        expected = _renamed(dict(report_tree(base_report), tx_digest=None), names)
        # as text, so that the order of every key counts too
        assert json.dumps(dict(report_tree(report), tx_digest=None)) == json.dumps(expected), seed
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
        expected = _sorted_by_name(_renamed(dict(report_tree(base_report), tx_digest=None), names))
        assert json.dumps(dict(report_tree(report), tx_digest=None)) == json.dumps(expected), seed
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
        assert report_tree(report) == dict(report_tree(base_report), event_errors=expected), seed
        assert report.settlements == base_report.settlements, seed
        assert oracle == base_oracle, seed


RICHER_BY = 10**18


def test_a_richer_genesis_raises_every_final_balance_and_nothing_else():
    for seed, doc in DOCUMENTS.items():
        base_report, base_oracle = _run(doc)
        base = report_tree(base_report)
        # a richer account may pay where a poorer one could not
        assert all(e["error"] != "InsufficientFunds" for e in base["event_errors"]), seed
        richer = copy.deepcopy(doc)
        for name, wei in doc["genesis"].items():
            richer["genesis"][name] = str(int(wei) + RICHER_BY)
        report, oracle = _run(richer)
        raised = {name: str(int(wei) + RICHER_BY) for name, wei in base["final_balances"].items()}
        assert report_tree(report) == dict(base, final_balances=raised), seed
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
        assert report_tree(report) == dict(report_tree(base_report), final_block=final_block), seed
        assert report.settlements == base_report.settlements, seed
        assert oracle == base_oracle, seed
    assert qualified >= 250


UNION_PREFIX = "z-"
LABEL_KEYS = ("session", "ballot")
ADDRESS = re.compile(r"\bsc-\d+\b")


def _second_part(doc, config):
    """``doc`` with its actors and labels prefixed, run under ``config``."""
    labels = {event["params"][key] for event in doc["events"] for key in LABEL_KEYS
              if key in event["params"]}
    renames = {name: UNION_PREFIX + name for name in [*doc["genesis"], *labels]}
    return dict(_renamed(doc, renames), config=config)


def _union(first, second):
    """One document holding both scripts, events merged by a stable sort on time."""
    events = sorted(first["events"] + second["events"], key=lambda e: e["at_time"])
    return dict(first, genesis={**first["genesis"], **second["genesis"]}, events=events)


def _contracts_by_owner(report):
    """Each owner's contracts in address order, as (address, kind, state,
    charge, refund, payouts)."""
    owned = {}
    for row in report_tree(report)["contracts"]:
        settled = report.settlements[row["address"]]
        owned.setdefault(row["owner"], []).append((
            row["address"], row["kind"], row["state"],
            settled["charge"], settled["refund"], settled["payouts"],
        ))
    return owned


def _without_addresses(owned):
    return {owner: [row[1:] for row in rows] for owner, rows in owned.items()}


def _renumbering(part_owned, merged_owned):
    """A part's contract address -> the same contract's address in the merged run."""
    return {
        row[0]: merged_row[0]
        for owner, rows in part_owned.items()
        for row, merged_row in zip(rows, merged_owned[owner])
    }


def _interleaves(merged, first, second):
    """Whether ``merged`` is ``first`` and ``second`` interleaved, each in its own order."""
    ends = {(0, 0)}
    for item in merged:
        ends = {(i + 1, j) for i, j in ends if i < len(first) and first[i] == item} | {
            (i, j + 1) for i, j in ends if j < len(second) and second[j] == item
        }
    return (len(first), len(second)) in ends


def test_two_scripts_with_disjoint_actors_merged_settle_as_the_two_parts():
    for k in range(100):
        first = DOCUMENTS_0_TO_299[2 * k]
        second = _second_part(DOCUMENTS_0_TO_299[2 * k + 1], first["config"])
        merged = _union(first, second)
        (first_report, first_oracle), (second_report, second_oracle) = _run(first), _run(second)
        report, oracle = _run(merged)

        owned = _contracts_by_owner(report)
        first_owned, second_owned = map(_contracts_by_owner, (first_report, second_report))
        assert not first_owned.keys() & second_owned.keys(), k
        assert _without_addresses(owned) == _without_addresses({**first_owned, **second_owned}), k
        r, a, b = report.report, first_report.report, second_report.report
        assert r["final_balances"] == {**a["final_balances"], **b["final_balances"]}, k
        assert int(r["fee_sink_wei"]) == int(a["fee_sink_wei"]) + int(b["fee_sink_wei"]), k
        # each part's event errors, at their merged index and with merged addresses
        sources = first["events"] + second["events"]
        order = sorted(range(len(sources)), key=lambda i: sources[i]["at_time"])
        position = {source: merged_index for merged_index, source in enumerate(order)}
        moved = []
        for part, start, part_owned in ((a, 0, first_owned), (b, len(first["events"]), second_owned)):
            renumbered = _renumbering(part_owned, owned)
            moved += [
                dict(e, event_index=position[start + e["event_index"]],
                     detail=ADDRESS.sub(lambda m: renumbered[m.group()], e["detail"]))
                for e in part["event_errors"]
            ]
        assert r["event_errors"] == sorted(moved, key=lambda e: e["event_index"]), k

        assert len(oracle) == len(first_oracle) + len(second_oracle), k
        assert _interleaves(list(oracle.values()), list(first_oracle.values()),
                            list(second_oracle.values())), k
