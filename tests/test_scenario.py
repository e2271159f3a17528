"""Scenario scripts: parsing, execution, the report, oracle agreement, random generation."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from escrowsim.cli import main
from escrowsim.errors import ParseError, ValidationError
from escrowsim.oracle import oracle_settlement
from escrowsim.report import write_report
from escrowsim.scenario import (
    ACTOR_POOL,
    EVENT_TYPES,
    KIND_NAMES,
    MAX_EVENTS,
    _draws,
    _Runner,
    generate_random_script,
    parse_scenario,
    run_scenario,
)
from escrowsim.units import eth

from load_source import load_source
from report_tree import report_tree
from tx_log_view import tx_log_view


def canonical_document(extra_events=(), config=None, genesis=None):
    """One dynamic-price session stopped at half its lock time."""
    return {
        "config": config or {"gas": {"gas_price_gwei": 1}},
        "genesis": genesis or {"alice": str(eth(10)), "oliver": str(eth(10))},
        "events": [
            {
                "at_time": 0,
                "actor": "alice",
                "action": "request_session",
                "params": {
                    "session": "s1",
                    "owner": "oliver",
                    "kind": "dynamic_price",
                    "availability_target_bp": 9_000,
                    "video_quality": "SD",
                    "max_period_seconds": 3_600,
                },
            },
            {
                "at_time": 0,
                "actor": "alice",
                "action": "approve_and_pay",
                "params": {"session": "s1", "value": "quoted"},
            },
            {
                "at_time": 15,
                "actor": "oliver",
                "action": "countersign",
                "params": {"session": "s1"},
            },
            {
                "at_time": 1_800,
                "actor": "alice",
                "action": "end_session",
                "params": {"session": "s1"},
            },
            *extra_events,
        ],
    }


# ---- parsing -----------------------------------------------------------------

def test_minimal_script_parses_with_defaults():
    script = parse_scenario(json.dumps({"genesis": {"a": "1"}, "events": []}))
    assert script.config.block_interval == 15
    assert script.config.jitter_seed is None
    assert script.genesis == {"a": 1}


def test_json_syntax_error_reports_position():
    with pytest.raises(ParseError, match=r"line 2, column"):
        parse_scenario('{"genesis": {"a": "1"},\n "events": [}')


def test_undeclared_actor_rejected():
    doc = {"genesis": {"a": "1"}, "events": [
        {"at_time": 0, "actor": "ghost", "action": "transfer",
         "params": {"to": "a", "value": "1"}}]}
    with pytest.raises(ValidationError, match=r"events\[0\].actor"):
        parse_scenario(doc)


def test_decreasing_times_rejected():
    doc = canonical_document()
    doc["events"][1]["at_time"] = 3_000
    with pytest.raises(ValidationError, match="decreasing time"):
        parse_scenario(doc)


def test_unknown_action_and_stray_keys_rejected():
    base = {"genesis": {"a": "1"}}
    with pytest.raises(ValidationError, match="unknown action"):
        parse_scenario({**base, "events": [
            {"at_time": 0, "actor": "a", "action": "dance", "params": {}}]})
    with pytest.raises(ValidationError, match="unknown field"):
        parse_scenario({**base, "events": [], "extra": 1})
    with pytest.raises(ValidationError, match="unknown field"):
        parse_scenario({**base, "events": [
            {"at_time": 0, "actor": "a", "action": "transfer",
             "params": {"to": "a", "value": "1", "memo": "hi"}}]})


@pytest.mark.parametrize(
    "extra, listed",
    [
        ("abc", "['a', 'b', 'c']"),
        ("abcde", "['a', 'b', 'c'] and 2 more"),
        (["a", "x" * 33], "['a'] and 1 more"),
    ],
)
def test_unknown_fields_quote_at_most_three_names(extra, listed):
    doc = {"genesis": {"a": "1"}, "config": dict.fromkeys(extra, 1)}
    with pytest.raises(ValidationError) as exc:
        parse_scenario(doc)
    assert str(exc.value) == f"config: unknown field(s) {listed}"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({1: 0, "x": 0}, "top level: unknown field(s) [int, 'x']"),
        ({"genesis": {"a": "1", 7: "2"}}, "genesis: account name must be a string, got int"),
        ({"genesis": {"a": "1"}, "config": {1: 0, "z": 0}}, "config: unknown field(s) [int, 'z']"),
    ],
    ids=["top-level", "genesis", "config"],
)
def test_a_dict_with_non_string_keys_is_a_validation_error(doc, message):
    # a dict handed to parse_scenario, unlike parsed JSON, may have keys of any type
    with pytest.raises(ValidationError) as exc:
        parse_scenario(doc)
    assert str(exc.value) == message


def test_genesis_amounts_must_be_decimal_strings():
    with pytest.raises(ValidationError, match="decimal string"):
        parse_scenario({"genesis": {"a": 5}, "events": []})
    with pytest.raises(ValidationError):
        parse_scenario({"genesis": {"a": "0x10"}, "events": []})
    with pytest.raises(ValidationError):
        parse_scenario({"genesis": {"a": "-3"}, "events": []})


def test_kind_specific_requirements():
    def request(kind, **extra):
        return {"genesis": {"a": "1", "b": "1"}, "events": [
            {"at_time": 0, "actor": "a", "action": "request_session",
             "params": {"session": "s", "owner": "b", "kind": kind,
                        "availability_target_bp": 9_000, "video_quality": "SD",
                        "max_period_seconds": 60, **extra}}]}

    with pytest.raises(ValidationError, match="requires shares"):
        parse_scenario(request("income_division"))
    with pytest.raises(ValidationError, match="requires a ballot"):
        parse_scenario(request("consensus_decision"))
    with pytest.raises(ValidationError, match="denominators"):
        parse_scenario(request("income_division", shares={"a": [1, 2], "b": [1, 3]}))
    parse_scenario(request("income_division", shares={"a": [1, 3], "b": [2, 3]}))
    with pytest.raises(ValidationError) as exc:
        parse_scenario(request("income_division", shares={"a": [0, 0]}))
    assert str(exc.value) == (
        "events[0].params.shares: shares must be non-empty with a positive denominator"
    )
    # shares, ballot and standby only on the kind that reads them
    standby = {"rate_wei_per_second": "1000", "window_seconds": 60}
    for kind, extra, stray in [
        ("fixed_price", {"shares": {"a": [1, 1]}}, "shares"),
        ("dynamic_price", {"ballot": "b"}, "ballot"),
        ("income_division", {"shares": {"a": [1, 1]}, "ballot": "b"}, "ballot"),
        ("consensus_decision", {"ballot": "b", "standby": standby}, "standby"),
        ("time_limited_quota", {"standby": standby}, "standby"),
    ]:
        with pytest.raises(ValidationError, match=rf"params\.{stray}: only"):
            parse_scenario(request(kind, **extra))
    parse_scenario(request("flexible_period", standby=standby))


def test_parsed_events_are_immutable():
    doc = canonical_document(
        extra_events=[
            {"at_time": 1_800, "actor": actor, "action": action, "params": params}
            for actor, action, params in [
                ("oliver", "qos_sample", {"session": "s1", "available": True}),
                ("alice", "quota_purchase", {"session": "s1", "minutes": 1, "value": "1"}),
                ("alice", "quota_start", {"session": "s1"}),
                ("alice", "quota_stop", {"session": "s1"}),
                ("oliver", "deploy_ballot", {"ballot": "b1", "voters": ["alice"]}),
                ("alice", "cast_vote", {"ballot": "b1", "choice": "yes"}),
                ("oliver", "tally", {"ballot": "b1"}),
                ("alice", "transfer", {"to": "oliver", "value": "1"}),
            ]
        ]
    )
    events = parse_scenario(doc).events
    assert {type(event) for event in events} == set(EVENT_TYPES.values())
    for event in events:
        for name in event._fields:
            with pytest.raises(AttributeError):
                setattr(event, name, getattr(event, name))


def test_config_gas_bounds_checked_at_parse_time():
    doc = {"config": {"gas": {"gas_price_gwei": 50}}, "genesis": {"a": "1"}, "events": []}
    with pytest.raises(ValidationError, match="config.gas"):
        parse_scenario(doc)


def test_payment_value_tokens():
    doc = canonical_document()
    doc["events"][1]["params"]["value"] = "wrong"
    parse_scenario(doc)
    doc["events"][1]["params"]["value"] = "123456"
    parse_scenario(doc)
    doc["events"][1]["params"]["value"] = "1.5"
    with pytest.raises(ValidationError):
        parse_scenario(doc)


# ---- execution -----------------------------------------------------------------

def test_canonical_run_settles_half_and_conserves():
    report = run_scenario(parse_scenario(canonical_document()))
    r = report_tree(report)
    assert r["conservation_ok"]
    assert r["events_applied"] == 4
    assert r["event_errors"] == []
    [settled] = report.settlements.values()
    assert settled["charge"] == 180_000_000_000_000_000  # half of the SD-hour price
    assert settled["refund"] == 180_000_000_000_000_000
    assert settled["escrow"] == 0
    [session] = r["sessions"]
    assert session["label"] == "s1"
    assert session["settled_by"] == "stop"
    assert session["step_log"] == list(range(1, 17))
    assert int(r["fee_sink_wei"]) > 0  # gas was charged at 1 GWEI


def test_a_reused_session_label_names_only_its_latest_session():
    request = canonical_document()["events"][0]
    doc = canonical_document(extra_events=[dict(request, at_time=1_800)])
    rows = report_tree(run_scenario(parse_scenario(doc)))["sessions"]
    assert [(row["label"], row["contract"]) for row in rows] == [("", "sc-1"), ("s1", "sc-2")]


def test_rejected_payment_is_an_event_error_and_retry_works():
    doc = canonical_document()
    pay = doc["events"][1]
    pay["params"]["value"] = "wrong"
    retry = {
        "at_time": 0, "actor": "alice", "action": "approve_and_pay",
        "params": {"session": "s1", "value": "quoted"},
    }
    doc["events"].insert(2, retry)
    report = run_scenario(parse_scenario(doc))
    r = report.report
    assert len(r["event_errors"]) == 1
    assert r["event_errors"][0]["event_index"] == 1
    assert r["event_errors"][0]["error"] == "ValidationError"
    assert "rejected" in r["event_errors"][0]["detail"]
    assert r["events_applied"] == 4
    [settled] = report.settlements.values()
    assert settled["charge"] > 0  # the retry funded the session normally


def test_errors_do_not_abort_the_run():
    strangers_stop = {
        "at_time": 900, "actor": "oliver", "action": "end_session",
        "params": {"session": "s1"},
    }
    doc = canonical_document()
    doc["events"].insert(3, strangers_stop)
    report = run_scenario(parse_scenario(doc))
    assert [e["error"] for e in report.report["event_errors"]] == ["NotEndUser"]
    [session] = report_tree(report)["sessions"]
    assert session["settled_by"] == "stop"  # alice's later stop still landed


def test_stranger_calls_are_event_errors_naming_the_rightful_party():
    def event(at_time, actor, action, **params):
        return {"at_time": at_time, "actor": actor, "action": action, "params": params}

    def request(at_time, label, kind):
        return event(at_time, "alice", "request_session", session=label, owner="oliver",
                     kind=kind, availability_target_bp=9_000, video_quality="SD",
                     max_period_seconds=600)

    doc = canonical_document(
        extra_events=[
            request(1_800, "s2", "dynamic_price"),
            event(1_800, "eve", "countersign", session="s2"),  # not funded yet
            event(1_800, "alice", "approve_and_pay", session="s2", value="quoted"),
            event(1_815, "eve", "countersign", session="s2"),
            request(1_815, "q", "time_limited_quota"),
            event(1_815, "alice", "quota_purchase", session="q", minutes=2, value="quoted"),
            event(1_830, "eve", "quota_stop", session="q"),  # no session open yet
            event(1_830, "eve", "quota_start", session="q"),
            event(1_830, "alice", "quota_start", session="q"),
            event(1_845, "eve", "quota_stop", session="q"),
        ],
        genesis={name: str(eth(10)) for name in ("alice", "oliver", "eve")},
    )
    report = run_scenario(parse_scenario(doc))
    errors = [(e["event_index"], e["error"], e["detail"]) for e in report.report["event_errors"]]
    assert errors == [
        (5, "NotOwner", "eve is not the owner oliver"),
        (7, "NotOwner", "eve is not the owner oliver"),
        (10, "NotEndUser", "eve is not the end user alice"),
        (11, "NotEndUser", "eve is not the end user alice"),
        (13, "NotEndUser", "eve is not the end user alice"),
    ]
    assert report.report["final_balances"]["eve"] == str(eth(10))
    assert oracle_settlement(parse_scenario(doc)) == report.settlements


def test_quota_calls_on_a_fixed_price_session_are_event_errors():
    doc = canonical_document()
    doc["events"][0]["params"]["kind"] = "fixed_price"
    plain = run_scenario(parse_scenario(doc))
    doc["events"][3:3] = [
        {"at_time": 30, "actor": "alice", "action": "quota_start", "params": {"session": "s1"}},
        {"at_time": 45, "actor": "alice", "action": "quota_stop", "params": {"session": "s1"}},
    ]
    report = run_scenario(parse_scenario(doc))
    errors = [(e["event_index"], e["error"], e["detail"]) for e in report.report["event_errors"]]
    assert errors == [
        (3, "WrongState", "fixed_price contracts have no metered sessions"),
        (4, "NoOpenSession", "sc-1"),
    ]
    assert report.report["final_balances"] == plain.report["final_balances"]
    assert report.settlements == plain.settlements
    assert oracle_settlement(parse_scenario(doc)) == report.settlements


@pytest.mark.parametrize(
    "kind, value, error, detail",
    [
        ("dynamic_price", "quoted", "WrongState",
         "dynamic_price contracts do not sell quota minutes"),
        ("time_limited_quota", "wrong", "ValidationError",  # 0.006 ETH a minute
         f"quota payment of {3 * 6 * 10**15 + 1} wei rejected: 3 minutes cost {3 * 6 * 10**15} wei"),
    ],
)
def test_a_scripted_quota_payment_is_priced_by_its_contract(kind, value, error, detail):
    doc = canonical_document()
    doc["events"] = doc["events"][:1]
    doc["events"][0]["params"].update(kind=kind, max_period_seconds=600)
    plain = run_scenario(parse_scenario(doc))
    doc["events"].append(
        {"at_time": 15, "actor": "alice", "action": "quota_purchase",
         "params": {"session": "s1", "minutes": 3, "value": value}}
    )
    report = run_scenario(parse_scenario(doc))
    r = report_tree(report)
    assert [(e["event_index"], e["error"], e["detail"]) for e in r["event_errors"]] == [
        (1, error, detail)
    ]
    for key in ("final_balances", "fee_sink_wei", "tx_digest"):
        assert r[key] == plain.report[key], key  # no wei moves, not even a call fee
    [contract] = r["contracts"]
    assert contract["state"] == "quoted"
    assert oracle_settlement(parse_scenario(doc)) == report.settlements


@pytest.mark.parametrize(
    "minutes, stop_at, countersigned",
    [(20, 300, False), (2, 900, False), (20, 900, False), (20, 300, True)],
)
def test_end_session_on_a_quota_session_is_an_event_error(minutes, stop_at, countersigned):
    # a 600 s SD quota at 1 GWEI: 0.006 ETH a minute, never settled by a stop
    doc = {
        "config": {"gas": {"gas_price_gwei": 1}},
        "genesis": {"alice": str(eth(10)), "oliver": str(eth(10))},
        "events": [
            {"at_time": 0, "actor": "alice", "action": "request_session",
             "params": {"session": "q", "owner": "oliver", "kind": "time_limited_quota",
                        "availability_target_bp": 9_000, "video_quality": "SD",
                        "max_period_seconds": 600}},
            {"at_time": 0, "actor": "alice", "action": "quota_purchase",
             "params": {"session": "q", "minutes": minutes, "value": "quoted"}},
        ],
    }
    if countersigned:  # a quota contract is active once bought: nothing to sign
        doc["events"].append(
            {"at_time": 15, "actor": "oliver", "action": "countersign",
             "params": {"session": "q"}}
        )
    plain = run_scenario(parse_scenario(doc))
    doc["events"].append(
        {"at_time": stop_at, "actor": "alice", "action": "end_session",
         "params": {"session": "q"}}
    )
    report = run_scenario(parse_scenario(doc))
    r = report_tree(report)
    errors = [(e["event_index"], e["error"], e["detail"]) for e in r["event_errors"]]
    detail = "time_limited_quota contracts are not settled by a stop"
    assert errors[-1] == (len(doc["events"]) - 1, "WrongState", detail)
    assert errors[:-1] == [(e["event_index"], e["error"], e["detail"])
                           for e in plain.report["event_errors"]]
    assert r["conservation_ok"]
    for key in ("final_balances", "fee_sink_wei", "tx_digest"):
        assert r[key] == plain.report[key], key  # no wei moves, not even a call fee
    [contract] = r["contracts"]
    assert contract["state"] == "active"
    assert contract["escrow_wei"] == str(minutes * 6 * 10**15)
    assert oracle_settlement(parse_scenario(doc)) == report.settlements


def test_session_timeout_settles_via_wakeup():
    doc = canonical_document()
    doc["events"] = doc["events"][:3]  # drop the stop; wakeup must settle it
    report = run_scenario(parse_scenario(doc))
    [settled] = report.settlements.values()
    assert settled["charge"] == 360_000_000_000_000_000
    assert settled["refund"] == 0
    [session] = report_tree(report)["sessions"]
    assert session["settled_by"] == "expiry"
    assert report.report["final_block"]["timestamp"] >= 3_600


def test_run_until_extends_the_chain():
    doc = canonical_document(config={"run_until_seconds": 9_000})
    report = run_scenario(parse_scenario(doc))
    assert report.report["final_block"]["timestamp"] >= 9_000


def test_quota_script_uses_one_contract_with_session_pairs():
    doc = {
        "config": {},
        "genesis": {"alice": str(eth(10)), "oliver": str(eth(10))},
        "events": [
            {"at_time": 0, "actor": "alice", "action": "request_session",
             "params": {"session": "q", "owner": "oliver", "kind": "time_limited_quota",
                        "availability_target_bp": 9_000, "video_quality": "SD",
                        "max_period_seconds": 600}},
            {"at_time": 0, "actor": "alice", "action": "quota_purchase",
             "params": {"session": "q", "minutes": 10, "value": "quoted"}},
            {"at_time": 15, "actor": "alice", "action": "quota_start",
             "params": {"session": "q"}},
            {"at_time": 90, "actor": "alice", "action": "quota_stop",
             "params": {"session": "q"}},
            {"at_time": 120, "actor": "alice", "action": "quota_start",
             "params": {"session": "q"}},
            {"at_time": 300, "actor": "alice", "action": "quota_stop",
             "params": {"session": "q"}},
        ],
    }
    r = report_tree(run_scenario(parse_scenario(doc)))
    assert len(r["contracts"]) == 1
    [contract] = r["contracts"]
    assert contract["kind"] == "time_limited_quota"
    assert len(contract["terms"]["sessions"]) == 2
    assert r["conservation_ok"]


def test_reruns_are_byte_identical_with_jitter():
    doc = canonical_document(config={"jitter_seed": 42, "gas": {"gas_price_gwei": 3}})
    script = parse_scenario(doc)
    first = run_scenario(script)
    second = run_scenario(parse_scenario(json.loads(json.dumps(doc))))
    assert first.to_json_text() == second.to_json_text()
    assert first.report["tx_digest"] == second.report["tx_digest"]
    # running leaves the parsed events as they were
    assert run_scenario(script).to_json_text() == first.to_json_text()


def test_corruption_hook_trips_the_conservation_verdict():
    report = run_scenario(parse_scenario(canonical_document()), corrupt_wei=1)
    assert not report.report["conservation_ok"]


def test_consensus_script_gates_on_the_ballot():
    def doc(with_votes):
        votes = [
            {"at_time": 10, "actor": "alice", "action": "cast_vote",
             "params": {"ballot": "b", "choice": "yes"}},
            {"at_time": 10, "actor": "bob", "action": "cast_vote",
             "params": {"ballot": "b", "choice": "yes"}},
            {"at_time": 20, "actor": "oliver", "action": "tally",
             "params": {"ballot": "b"}},
        ] if with_votes else []
        return {
            "config": {},
            "genesis": {"alice": str(eth(10)), "bob": str(eth(10)),
                        "oliver": str(eth(10))},
            "events": [
                {"at_time": 0, "actor": "oliver", "action": "deploy_ballot",
                 "params": {"ballot": "b", "voters": ["alice", "bob"]}},
                *votes,
                {"at_time": 30, "actor": "alice", "action": "request_session",
                 "params": {"session": "s", "owner": "oliver",
                            "kind": "consensus_decision", "ballot": "b",
                            "availability_target_bp": 9_000, "video_quality": "SD",
                            "max_period_seconds": 600}},
                {"at_time": 30, "actor": "alice", "action": "approve_and_pay",
                 "params": {"session": "s", "value": "quoted"}},
                {"at_time": 45, "actor": "oliver", "action": "countersign",
                 "params": {"session": "s"}},
                {"at_time": 330, "actor": "alice", "action": "end_session",
                 "params": {"session": "s"}},
            ],
        }

    gated = run_scenario(parse_scenario(doc(with_votes=False)))
    assert [e["error"] for e in gated.report["event_errors"]][0] == "WrongState"
    assert len(gated.report["contracts"]) == 1  # just the ballot

    passed = run_scenario(parse_scenario(doc(with_votes=True)))
    assert passed.report["event_errors"] == []
    assert len(passed.report["contracts"]) == 2  # ballot + agreement
    assert passed.report["conservation_ok"]


# ---- oracle agreement ---------------------------------------------------------------

def test_oracle_matches_engine_on_the_canonical_script():
    for interval in (1, 7, 15, 60, 4_000):  # the oracle's grid is closed form
        doc = canonical_document(
            config={"block_interval_seconds": interval, "gas": {"gas_price_gwei": 1}}
        )
        engine = run_scenario(parse_scenario(doc)).settlements
        oracle = oracle_settlement(parse_scenario(doc))
        assert oracle == engine, interval


def test_oracle_matches_engine_on_jittered_timeout():
    doc = canonical_document(config={"jitter_seed": 1234})
    doc["events"] = doc["events"][:3]
    engine = run_scenario(parse_scenario(doc)).settlements
    oracle = oracle_settlement(parse_scenario(doc))
    assert oracle == engine


def test_division_tie_goes_to_the_first_listed_share_in_engine_and_oracle():
    # settled by timeout, the charge is the full price, 3601 * 10**14 wei: three
    # thirds leave one wei over, and the three remainders are equal
    doc = {
        "config": {},
        "genesis": {"alice": str(eth(10)), "oliver": str(eth(10)), "carol": "0", "dave": "0"},
        "events": [
            {"at_time": 0, "actor": "alice", "action": "request_session",
             "params": {"session": "s", "owner": "oliver", "kind": "income_division",
                        "shares": {"oliver": [1, 3], "carol": [1, 3], "dave": [1, 3]},
                        "availability_target_bp": 9_000, "video_quality": "SD",
                        "max_period_seconds": 3_601}},
            {"at_time": 0, "actor": "alice", "action": "approve_and_pay",
             "params": {"session": "s", "value": "quoted"}},
            {"at_time": 15, "actor": "oliver", "action": "countersign",
             "params": {"session": "s"}},
        ],
    }
    script = parse_scenario(doc)
    report = run_scenario(script)
    assert report.report["event_errors"] == []
    assert oracle_settlement(script) == report.settlements
    agreement = report.settlements["sc-2"]  # sc-1 is the division contract
    assert agreement["charge"] == 360_100_000_000_000_000
    # listing order, not address order: oliver, listed first, gets the odd wei
    assert agreement["payouts"] == {
        "oliver": 120_033_333_333_333_334,
        "carol": 120_033_333_333_333_333,
        "dave": 120_033_333_333_333_333,
    }


@pytest.mark.parametrize(
    "ttl, pay_at, funded",
    [(40, 600, True), (40, 615, False), (0, 0, True), (0, 15, False)],
    ids=["last-block", "one-block-late", "ttl0-same-block", "ttl0-next-block"],
)
def test_oracle_matches_engine_on_quote_expiry(ttl, pay_at, funded):
    # request at height 0; the quote takes payments up to height ttl
    doc = canonical_document(config={"rate_card": {"quote_ttl_blocks": ttl}})
    pay, countersign = doc["events"][1:3]
    pay["at_time"], countersign["at_time"] = pay_at, pay_at + 15
    script = parse_scenario(doc)
    report = run_scenario(script)
    errors = [e["error"] for e in report.report["event_errors"]]
    assert ("QuoteExpired" in errors) is not funded
    [settled] = report.settlements.values()
    assert (settled["charge"] > 0) is funded
    assert report.report["conservation_ok"]
    assert oracle_settlement(script) == report.settlements


def expiring_session_with_one_sample(at_time, jitter_seed=None):
    """A 600 s dynamic-price session paid at 0 and countersigned at 15 that
    settles by expiry, with one unavailable QoS sample at ``at_time``."""
    config = {"gas": {"gas_price_gwei": 1}}
    if jitter_seed is not None:
        config["jitter_seed"] = jitter_seed
    doc = canonical_document(config=config)
    doc["events"] = doc["events"][:3]  # no stop
    doc["events"][0]["params"]["max_period_seconds"] = 600
    doc["events"].append(
        {"at_time": at_time, "actor": "oliver", "action": "qos_sample",
         "params": {"session": "s1", "available": False}}
    )
    return doc


@pytest.mark.parametrize(
    "at_time, counted", [(585, True), (586, False), (600, False)],
    ids=["block-before-release", "release-block", "release-time"],
)
def test_due_wakeup_settles_before_an_event_in_its_block(at_time, counted):
    # fixed 15 s grid: the release time 600 is block 40's timestamp, so a
    # sample at 586..600 lands in the block whose wakeup settles the session
    script = parse_scenario(expiring_session_with_one_sample(at_time))
    report = run_scenario(script)
    assert report.report["conservation_ok"]
    assert oracle_settlement(script) == report.settlements
    [settled] = report.settlements.values()
    price = 60_000_000_000_000_000
    errors = [e["error"] for e in report.report["event_errors"]]
    if counted:  # 0 of 1 samples up: below the threshold, full refund
        assert (settled["charge"], settled["refund"], errors) == (0, price, [])
    else:
        assert (settled["charge"], settled["refund"]) == (price, 0)
        assert errors == ["SessionNotActive"]


@pytest.mark.parametrize("jitter_seed", [1, 2])
def test_oracle_matches_engine_on_a_sample_near_expiry_on_a_jittered_grid(jitter_seed):
    for at_time in range(560, 661):
        script = parse_scenario(expiring_session_with_one_sample(at_time, jitter_seed))
        report = run_scenario(script)
        assert report.report["conservation_ok"]
        assert oracle_settlement(script) == report.settlements, at_time


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.mark.parametrize("jitter_seed", [None, 5], ids=["fixed-grid", "jittered"])
def test_oracle_matches_engine_with_many_sessions_open_at_once(jitter_seed):
    # the benchmark's merge of generator scripts, 30 s apart, as the bulk workload does
    workloads = load_source("bench_workloads", WORKLOADS)
    doc = workloads.merge_scripts(list(range(200)), 30, jitter_seed=jitter_seed)
    script = parse_scenario(doc)
    report = run_scenario(script)
    assert report.report["conservation_ok"]
    assert len(report.settlements) > 500
    assert report.settlements == oracle_settlement(script)


def test_every_settlement_is_a_view_of_the_tx_log():
    # the log is read through the runner, since run_scenario frees the ledger
    documents = [generate_random_script(seed) for seed in range(300)]
    documents.append(load_source("bench_workloads", WORKLOADS).merge_scripts(list(range(1600)), 30))
    checked = zero_charge_rows = 0
    for index, doc in enumerate(documents):
        runner = _Runner(parse_scenario(doc))
        report = runner.run()
        ledger = runner.ledger
        balances, fee_sink, settlements = tx_log_view(
            runner.script.genesis, ledger.tx_log, report.report["contracts"]
        )
        assert settlements == report.settlements, index
        assert fee_sink == ledger.fee_sink, index
        assert {name: balances[name] for name in ledger.accounts} == ledger.accounts, index
        checked += len(settlements)
        zero_charge_rows += sum(
            1 for row in settlements.values() if row["charge"] == 0 and row["payouts"]
        )
    assert checked > 5000 and zero_charge_rows > 0


def test_quote_ttl_does_not_apply_to_quota_purchases():
    # quote_ttl_blocks 2: at t=600 (block 40) a payment for a dynamic-price
    # quote is long expired, while the quota purchase is still accepted
    doc = {
        "config": {"gas": {"gas_price_gwei": 1}, "rate_card": {"quote_ttl_blocks": 2}},
        "genesis": {"alice": str(eth(10)), "oliver": str(eth(10))},
        "events": [
            {"at_time": 0, "actor": "alice", "action": "request_session",
             "params": {"session": "q", "owner": "oliver", "kind": "time_limited_quota",
                        "availability_target_bp": 9_000, "video_quality": "SD",
                        "max_period_seconds": 600}},
            {"at_time": 0, "actor": "alice", "action": "request_session",
             "params": {"session": "d", "owner": "oliver", "kind": "dynamic_price",
                        "availability_target_bp": 9_000, "video_quality": "SD",
                        "max_period_seconds": 600}},
            {"at_time": 600, "actor": "alice", "action": "quota_purchase",
             "params": {"session": "q", "minutes": 2, "value": "quoted"}},
            {"at_time": 600, "actor": "alice", "action": "approve_and_pay",
             "params": {"session": "d", "value": "quoted"}},
        ],
    }
    script = parse_scenario(doc)
    report = run_scenario(script)
    r = report_tree(report)
    assert r["final_block"]["height"] == 40
    assert [(e["event_index"], e["error"]) for e in r["event_errors"]] == [(3, "QuoteExpired")]
    quota, dynamic = r["contracts"]
    assert quota["escrow_wei"] == str(12 * 10**15)  # 0.012 ETH: 2 minutes at 0.006
    assert dynamic["escrow_wei"] == "0"
    assert r["conservation_ok"]
    assert oracle_settlement(script) == report.settlements


@pytest.mark.parametrize(
    "kind", ["dynamic_price", "fixed_price", "time_limited_quota", "flexible_period"]
)
def test_zero_computed_price_is_an_event_error(kind):
    genesis = {"alice": str(eth(10)), "oliver": str(eth(10))}
    doc = {
        "config": {
            "gas": {"gas_price_gwei": 1},
            "rate_card": {"base_rate_wei_per_second": "0", "standby_rate_wei_per_second": "0"},
        },
        "genesis": genesis,
        "events": [
            {"at_time": 0, "actor": "alice", "action": "request_session",
             "params": {"session": "s1", "owner": "oliver", "kind": kind,
                        "availability_target_bp": 9_000, "video_quality": "SD",
                        "max_period_seconds": 600}},
            {"at_time": 15, "actor": "alice", "action": "approve_and_pay",
             "params": {"session": "s1", "value": "quoted"}},
        ],
    }
    script = parse_scenario(doc)
    report = run_scenario(script)
    r = report.report
    assert [(e["error"], e["detail"]) for e in r["event_errors"]] == [
        ("InvalidPreferences", "computed price must be positive; check the rate card"),
        ("ValidationError", "unknown session label 's1'"),
    ]
    assert r["contracts"] == [] and r["sessions"] == []
    assert r["final_balances"] == genesis and r["fee_sink_wei"] == "0"  # no fee charged
    assert r["conservation_ok"]
    assert oracle_settlement(script) == report.settlements == {}


def test_a_zero_price_multiplier_parses_and_prices_the_request_at_zero():
    doc = {
        "genesis": {"alice": str(eth(10)), "oliver": str(eth(10))},
        "events": [
            {"at_time": 0, "actor": "alice", "action": "request_session",
             "params": {"session": "s1", "owner": "oliver", "kind": "constraint_based",
                        "availability_target_bp": 9_000, "video_quality": "SD",
                        "max_period_seconds": 600,
                        "constraints": {"price_multiplier_bp": 0}}},
        ],
    }
    script = parse_scenario(doc)
    report = run_scenario(script)
    r = report.report
    assert [(e["event_index"], e["error"], e["detail"]) for e in r["event_errors"]] == [
        (0, "InvalidPreferences", "computed price must be positive; check the rate card"),
    ]
    assert r["contracts"] == [] and r["sessions"] == []
    assert oracle_settlement(script) == report.settlements == {}


def test_oracle_matches_engine_on_quote_expiry_on_jittered_grids():
    outcomes = set()
    for seed in range(30):
        doc = canonical_document(
            config={"jitter_seed": seed, "rate_card": {"quote_ttl_blocks": 3}}
        )
        doc["events"][1]["at_time"] = doc["events"][2]["at_time"] = 45
        script = parse_scenario(doc)
        report = run_scenario(script)
        assert report.report["conservation_ok"], seed
        assert oracle_settlement(script) == report.settlements, seed
        outcomes.add(not report.report["event_errors"])
    assert outcomes == {True, False}  # both sides of the expiry were reached


def test_oracle_matches_engine_on_quote_expiry_after_a_long_jittered_gap():
    # The transfer at 16,000 s is ~1,067 blocks past the request, so the
    # oracle replays that many block times in one step; the payment in the
    # same block then sits right at the quote TTL.
    outcomes = set()
    for seed in range(30):
        doc = canonical_document(
            config={"jitter_seed": seed, "rate_card": {"quote_ttl_blocks": 1_067}}
        )
        request, pay, countersign, end = doc["events"]
        transfer = {"at_time": 16_000, "actor": "alice", "action": "transfer",
                    "params": {"to": "oliver", "value": "1"}}
        pay["at_time"], countersign["at_time"], end["at_time"] = 16_000, 16_015, 17_800
        doc["events"] = [request, transfer, pay, countersign, end]
        script = parse_scenario(doc)
        report = run_scenario(script)
        assert report.report["conservation_ok"], seed
        assert oracle_settlement(script) == report.settlements, seed
        outcomes.add(not report.report["event_errors"])
    assert outcomes == {True, False}  # both sides of the expiry were reached


def test_oracle_memory_does_not_grow_with_a_gap_between_events():
    # one paid session locked for 10**6 s, then nothing until a transfer at
    # the release: the oracle keeps the timestamps of at most one chunk of
    # draws (4096 words), not the ~67k jittered blocks
    gap = 10**6
    doc = canonical_document(config={"jitter_seed": 1},
                             genesis={"alice": str(eth(1_000)), "oliver": str(eth(10))})
    request, pay = doc["events"][:2]
    request["params"]["max_period_seconds"] = gap
    doc["events"] = [request, pay, {"at_time": gap, "actor": "alice", "action": "transfer",
                                    "params": {"to": "oliver", "value": "1"}}]
    script = parse_scenario(doc)
    tracemalloc.start()
    try:
        expected = oracle_settlement(script)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"oracle peak {peak} bytes"
    assert expected == run_scenario(script).settlements


def test_oracle_equivalence_smoke_sweep():
    for seed in range(300):
        script = parse_scenario(generate_random_script(seed))
        report = run_scenario(script)
        assert report.report["conservation_ok"], f"seed {seed}"
        assert oracle_settlement(script) == report.settlements, f"seed {seed}"


# ---- random script generator ----------------------------------------------------------

def test_generator_output_is_valid_and_bounded():
    for seed in range(200):
        doc = generate_random_script(seed)
        script = parse_scenario(doc)  # must not raise
        assert len(script.events) <= MAX_EVENTS
        assert set(script.genesis) <= set(ACTOR_POOL)
        times = [e.at_time for e in script.events]
        assert times == sorted(times)


def test_generator_is_deterministic():
    assert generate_random_script(7) == generate_random_script(7)
    assert generate_random_script(7) != generate_random_script(8)


# sha256 over json.dumps(generate_random_script(seed)) plus a newline, for
# seeds 0..n-1.  Without sort_keys, so key order counts as well as content.
GENERATOR_SHA256 = {
    200: "05e66adcf0f7be1628f8336de549559db171e398ecb0145692d8473c05a48e3b",
    2000: "06e9ed849f0e2d4ea596bd44120b1323b30cea6a2d7f432ed426daafe816b582",
}

GENERATOR_DIGEST_SCRIPT = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from escrowsim.scenario import generate_random_script
digest = hashlib.sha256()
for seed in range(int(sys.argv[2])):
    digest.update(json.dumps(generate_random_script(seed)).encode() + b"\\n")
print(digest.hexdigest())
"""

SRC = Path(__file__).resolve().parents[1] / "src"


def test_generator_documents_are_pinned_key_order_included():
    digest = hashlib.sha256()
    for seed in range(2000):
        digest.update(json.dumps(generate_random_script(seed)).encode() + b"\n")
    assert digest.hexdigest() == GENERATOR_SHA256[2000]


def installed_interpreters():
    """``bin/python3`` of each CPython >= 3.10 that pyenv has installed."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = []
    for home in sorted(versions.glob("3.*")):
        minor = home.name.split(".")[1]
        if minor.isdigit() and int(minor) >= 10 and (home / "bin" / "python3").is_file():
            found.append(home / "bin" / "python3")
    return found


def test_generator_documents_are_the_same_under_every_installed_interpreter():
    interpreters = installed_interpreters()
    if not interpreters:
        pytest.skip("no pyenv CPython >= 3.10 installed")
    for python in interpreters:
        done = subprocess.run(
            [python, "-B", "-I", "-c", GENERATOR_DIGEST_SCRIPT, str(SRC), "200"],
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == GENERATOR_SHA256[200], python


def _widths(bits):
    """Draw widths up to 2**bits + 1: 1, powers of two and their neighbours, and any other."""
    return st.one_of(
        st.just(1),
        st.integers(0, bits).map(lambda k: 2**k),
        st.integers(1, bits).map(lambda k: 2**k - 1),
        st.integers(1, bits).map(lambda k: 2**k + 1),
        st.integers(1, 2**bits),
    )


_DRAWS = st.lists(
    st.one_of(
        st.tuples(st.just("randint"), st.integers(-(2**40), 2**40), _widths(70)),
        st.tuples(st.just("choice"), _widths(62)),  # a range's length must fit an index
        st.tuples(st.just("randrange"), st.just(2**31)),
    ),
    min_size=1,
    max_size=20,
)


@given(seed=st.integers(0, 2**64), draws=_DRAWS)
def test_generator_draws_match_random_draw_for_draw(seed, draws):
    own, mine = random.Random(seed), random.Random(seed)
    randint, choice = _draws(mine)
    for draw in draws:
        if draw[0] == "randint":
            _, a, width = draw
            assert randint(a, a + width - 1) == own.randint(a, a + width - 1)
        elif draw[0] == "choice":
            seq = range(draw[1])
            assert choice(seq) == own.choice(seq)
        else:
            assert randint(0, draw[1] - 1) == own.randrange(draw[1])
        assert mine.getstate() == own.getstate()


# ---- the report writer --------------------------------------------------------
# write_report writes a run's records straight to text; json reads that text
# back and writes the same bytes, on every shape the checked runs reach.

_TRICKY_STRINGS = [
    '"', "\\", 'a"b\\c', "\x00\x1f\x7f\n\t", "é", "\u2028", "\ud800", "\udfff", "\U0001f600",
]


def _rewritten_by_json(text):
    return json.dumps(json.loads(text), indent=2) + "\n"


def _merged_generator_scripts(seeds):
    """The benchmark's merge of generator scripts into one document."""
    workloads = load_source("bench_workloads", WORKLOADS)
    return workloads.merge_scripts(list(seeds), workloads.BULK_SPACING_SECONDS)


def test_report_writer_matches_json_dumps_on_real_runs():
    documents = [generate_random_script(seed) for seed in range(300)]
    documents += [canonical_document(), _merged_generator_scripts(range(50))]
    for index, doc in enumerate(documents):
        text = run_scenario(parse_scenario(doc)).to_json_text()
        assert text == _rewritten_by_json(text), index


def _tricky_document():
    """Every contract kind, a ballot, a quota session pair and an event error,
    with each name, label and region one of ``_TRICKY_STRINGS``.

    Every string the report holds comes from these, but for the contract
    addresses, kinds, states, url tokens, actions, error names and amounts.
    """
    owner, user, voter, other, stranger, *rest = _TRICKY_STRINGS
    names = [owner, user, voter, other, stranger]
    events = [
        (0, owner, "deploy_ballot", {"ballot": rest[0], "voters": [voter, other]}),
        (0, voter, "cast_vote", {"ballot": rest[0], "choice": "yes"}),
        (0, other, "cast_vote", {"ballot": rest[0], "choice": "yes"}),
        (0, owner, "tally", {"ballot": rest[0]}),
    ]
    extra = {
        "consensus_decision": {"ballot": rest[0]},
        "income_division": {"shares": {owner: [2, 3], other: [1, 3]}},
        "constraint_based": {
            "constraints": {"gdpr_required": True, "allowed_regions": _TRICKY_STRINGS}
        },
        "flexible_period": {"standby": {"rate_wei_per_second": "1000", "window_seconds": 60}},
    }
    kinds = ["dynamic_price", "fixed_price", *extra]
    for k, kind in enumerate(kinds):
        label = _TRICKY_STRINGS[k]
        events += [
            (15 * k, user, "request_session", {
                "session": label, "owner": owner, "kind": kind,
                "availability_target_bp": 9_000, "video_quality": "SD",
                "max_period_seconds": 600, **extra.get(kind, {}),
            }),
            (15 * k, user, "approve_and_pay", {"session": label, "value": "quoted"}),
            (15 * k + 15, owner, "countersign", {"session": label}),
            (15 * k + 15, owner, "qos_sample", {"session": label, "available": k % 2 == 0}),
            (300, stranger, "end_session", {"session": label}),  # NotEndUser
            (300, user, "end_session", {"session": label}),
        ]
    quota = rest[1]
    events += [
        (0, user, "request_session", {
            "session": quota, "owner": owner, "kind": "time_limited_quota",
            "availability_target_bp": 9_000, "video_quality": "SD", "max_period_seconds": 600,
        }),
        (0, user, "quota_purchase", {"session": quota, "minutes": 5, "value": "quoted"}),
        (30, user, "quota_start", {"session": quota}),
        (90, user, "quota_stop", {"session": quota}),
        (120, user, "quota_start", {"session": quota}),  # still open at the end
    ]
    events.sort(key=lambda event: event[0])
    return {
        "config": {"provider": {"region": rest[2], "gdpr_compliant": True}},
        "genesis": {name: str(eth(100)) for name in names},
        "events": [
            {"at_time": t, "actor": actor, "action": action, "params": params}
            for t, actor, action, params in events
        ],
    }


def test_report_writer_escapes_every_string_field_on_a_real_run():
    doc = _tricky_document()
    text = run_scenario(parse_scenario(doc)).to_json_text()
    assert text == _rewritten_by_json(text)
    tree = json.loads(text)
    assert tree["final_balances"].keys() == set(doc["genesis"])
    assert {row["kind"] for row in tree["contracts"]} == set(KIND_NAMES)
    terms = {key for row in tree["contracts"] for key in row["terms"]}
    assert {"sessions", "shares", "votes", "allowed_regions", "division_address"} <= terms
    assert {row["label"] for row in tree["sessions"]} == set(_TRICKY_STRINGS[:7])
    assert [row["label"] for row in tree["ballots"]] == [_TRICKY_STRINGS[5]]
    assert {(e["actor"], e["error"]) for e in tree["event_errors"]} == {
        (_TRICKY_STRINGS[4], "NotEndUser")
    }
    empty = run_scenario(parse_scenario({"genesis": dict.fromkeys(_TRICKY_STRINGS, "1")}))
    text = empty.to_json_text()
    assert text == _rewritten_by_json(text)


def test_oracle_out_file_matches_stdout_and_json_dumps(tmp_path, capsys):
    doc = _merged_generator_scripts(range(50))
    script = tmp_path / "script.json"
    script.write_text(json.dumps(doc))
    assert main(["oracle", str(script)]) == 0
    stdout = capsys.readouterr()[0]
    target = tmp_path / "oracle.json"
    assert main(["oracle", str(script), "--out", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    expected = {
        addr: {
            "charge": str(entry["charge"]),
            "refund": str(entry["refund"]),
            "payouts": {name: str(wei) for name, wei in entry["payouts"].items()},
            "escrow": str(entry["escrow"]),
        }
        for addr, entry in oracle_settlement(parse_scenario(doc)).items()
    }
    assert target.read_text() == stdout == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize(
    "path",
    [
        ("contracts", 0, "lock_time_seconds"),
        ("sessions", 0, 1, "contract", "samples"),  # availability_bp's divisor
        ("sessions", 0, 1, "step_log", 0),
        ("event_errors", 0, "at_time"),
    ],
)
def test_report_writer_rejects_a_float_in_an_int_field(path):
    # seed 0: a dynamic-price contract first, a session and an event error
    report = run_scenario(parse_scenario(generate_random_script(0))).report
    *parents, key = path
    node = report
    for step in parents:  # into rows and lists by key or index, into records by attribute
        node = node[step] if isinstance(node, (dict, list, tuple)) else getattr(node, step)
    if isinstance(node, (dict, list)):
        node[key] += 0.5
    else:
        setattr(node, key, getattr(node, key) + 0.5)
    with pytest.raises(TypeError):
        write_report(report)
