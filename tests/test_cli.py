"""Command-line interface: exit codes, output formats, determinism."""

import copy
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from escrowsim.cli import main
from escrowsim.scenario import MAX_INT, MAX_SECONDS, MAX_WEI, run_scenario

GOOD_SCENARIO = {
    "config": {"gas": {"gas_price_gwei": 1}},
    "genesis": {"alice": "10000000000000000000", "oliver": "10000000000000000000"},
    "events": [
        {"at_time": 0, "actor": "alice", "action": "request_session",
         "params": {"session": "s1", "owner": "oliver", "kind": "dynamic_price",
                    "availability_target_bp": 9000, "video_quality": "SD",
                    "max_period_seconds": 3600}},
        {"at_time": 0, "actor": "alice", "action": "approve_and_pay",
         "params": {"session": "s1", "value": "quoted"}},
        {"at_time": 15, "actor": "oliver", "action": "countersign",
         "params": {"session": "s1"}},
        {"at_time": 1800, "actor": "alice", "action": "end_session",
         "params": {"session": "s1"}},
    ],
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---- run ------------------------------------------------------------------------

def test_run_prints_report_and_exits_zero(tmp_path, capsys):
    code = main(["run", write_scenario(tmp_path, GOOD_SCENARIO)])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["conservation_ok"] is True
    assert report["sessions"][0]["settled_by"] == "stop"


def test_run_out_flag_writes_file_and_prints_summary(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["run", write_scenario(tmp_path, GOOD_SCENARIO), "--out", str(target)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "conservation: ok" in out
    assert "tx digest:" in out
    assert json.loads(target.read_text())["conservation_ok"] is True


def test_run_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"genesis": {')
    code = main(["run", str(path)])
    _, err = capsys.readouterr()
    assert code == 2
    assert "error: ParseError" in err


def test_run_rejects_invalid_scenario(tmp_path, capsys):
    doc = {"genesis": {"a": "1"}, "events": [
        {"at_time": 0, "actor": "nobody", "action": "transfer",
         "params": {"to": "a", "value": "1"}}]}
    code = main(["run", write_scenario(tmp_path, doc)])
    _, err = capsys.readouterr()
    assert code == 2
    assert "error: ValidationError" in err


REQUEST = GOOD_SCENARIO["events"][0]["params"]


def label_case(action, params, at_time=0):
    """One event by alice, which the cases below give a bad label and one more fault."""
    return {"at_time": at_time, "actor": "alice", "action": action, "params": params}


# (path to the key, value, text the error must name); each once passed
# parsing and then crashed the run, was misread, or made the engine and the
# oracle settle differently
PARSE_TIME_REJECTS = {
    "genesis-contract-prefix": (("genesis", "sc-1"), "1000", "genesis.sc-1"),
    "multiplier-not-int": (
        ("events", 0, "params", "constraints"), {"price_multiplier_bp": "x"},
        "constraints.price_multiplier_bp",
    ),
    "gdpr-required-not-bool": (
        ("events", 0, "params", "constraints"), {"gdpr_required": "false"},
        "constraints.gdpr_required",
    ),
    "provider-gdpr-not-bool": (
        ("config", "provider"), {"gdpr_compliant": "false"},
        "config.provider.gdpr_compliant",
    ),
    "refund-threshold-above-10000": (
        ("config", "refund_threshold_bp"), 20_000, "config.refund_threshold_bp",
    ),
    "standby-window-zero": (
        ("events", 0, "params"),
        {**REQUEST, "kind": "flexible_period",
         "standby": {"rate_wei_per_second": "1000", "window_seconds": 0}},
        "events[0].params.standby",
    ),
    "target-zero": (
        ("events", 0, "params", "availability_target_bp"), 0, "availability_target_bp",
    ),
    "target-above-10000": (
        ("events", 0, "params", "availability_target_bp"), 10_001,
        "availability_target_bp",
    ),
    "quality-4k": (("events", 0, "params", "video_quality"), "4K", "video_quality"),
    "period-zero": (
        ("events", 0, "params", "max_period_seconds"), 0, "max_period_seconds",
    ),
    "shares-off-denominator": (
        ("events", 0, "params"),
        {**REQUEST, "kind": "income_division",
         "shares": {"alice": [1, 3], "oliver": [1, 3]}},
        "events[0].params.shares",
    ),
    "vote-maybe": (
        ("events", 0),
        {"at_time": 0, "actor": "alice", "action": "cast_vote",
         "params": {"ballot": "b1", "choice": "maybe"}},
        "events[0].params.choice",
    ),
    "ballot-without-voters": (
        ("events", 0),
        {"at_time": 0, "actor": "alice", "action": "deploy_ballot",
         "params": {"ballot": "b1", "voters": []}},
        "events[0].params.voters",
    ),
    "quota-zero-minutes": (
        ("events", 0),
        {"at_time": 0, "actor": "alice", "action": "quota_purchase",
         "params": {"session": "s1", "minutes": 0, "value": "quoted"}},
        "events[0].params.minutes",
    ),
    "wei-above-2**256-1": (("genesis", "alice"), str(2**256), "genesis.alice"),
    "rate-of-4201-digits": (
        ("config", "rate_card"), {"base_rate_wei_per_second": "1" + "0" * 4_200},
        "config.rate_card.base_rate_wei_per_second",
    ),
    "period-above-2**64-1": (
        ("events", 0, "params", "max_period_seconds"), 10**200, "max_period_seconds",
    ),
    "time-above-2**64-1": (("events", 0, "at_time"), 2**64, "events[0].at_time"),
    # each time bounds the blocks a jittered grid draws
    "time-above-max-seconds": (
        ("events", 0, "at_time"), MAX_SECONDS + 1, "events[0].at_time",
    ),
    "horizon-above-max-seconds": (
        ("config", "run_until_seconds"), MAX_SECONDS + 1, "config.run_until_seconds",
    ),
    "period-above-max-seconds": (
        ("events", 0, "params", "max_period_seconds"), MAX_SECONDS + 1,
        "events[0].params.max_period_seconds",
    ),
    # values used as dict or set keys are type-checked first
    "action-list": (("events", 0, "action"), ["transfer"], "events[0].action"),
    "actor-list": (("events", 0, "actor"), ["alice"], "events[0].actor"),
    "owner-list": (("events", 0, "params", "owner"), ["oliver"], "events[0].params.owner"),
    "kind-list": (("events", 0, "params", "kind"), ["fixed_price"], "events[0].params.kind"),
    "to-list": (
        ("events", 0),
        {"at_time": 0, "actor": "alice", "action": "transfer",
         "params": {"to": ["oliver"], "value": "1"}},
        "events[0].params.to",
    ),
    # one event, two faults: at_time is checked before the actor
    "bad-time-and-undeclared-actor": (
        ("events", 0),
        {"at_time": -1, "actor": "nobody", "action": "countersign",
         "params": {"session": "s1"}},
        "events[0].at_time",
    ),
    "share-above-2**64-1": (
        ("events", 0, "params"),
        {**REQUEST, "kind": "income_division",
         "shares": {"alice": [2**64, 2**64 + 1], "oliver": [1, 2**64 + 1]}},
        "events[0].params.shares.alice",
    ),
    "genesis-wei-with-sign-and-underscore": (("genesis", "alice"), " +1_000 ", "genesis.alice"),
    # The leading label of an action is checked before its other params; a
    # second fault later in the event, or in the order of times, must not be
    # the one reported.  Label-only actions run at t=5000, before an event at 0.
    "label-of-request_session": (
        ("events", 0), label_case("request_session", {**REQUEST, "session": 5, "owner": "x"}),
        "events[0].params.session",
    ),
    "label-of-approve_and_pay": (
        ("events", 0), label_case("approve_and_pay", {"value": 5}),
        "missing required field 'session'",
    ),
    "label-of-countersign": (
        ("events", 0), label_case("countersign", {"session": None}, 5000),
        "events[0].params.session",
    ),
    "label-of-qos_sample": (
        ("events", 0), label_case("qos_sample", {"session": ["s1"], "available": "yes"}),
        "events[0].params.session",
    ),
    "label-of-end_session": (
        ("events", 0), label_case("end_session", {}, 5000), "missing required field 'session'",
    ),
    "label-of-quota_purchase": (
        ("events", 0), label_case("quota_purchase", {"session": {}, "minutes": 0, "value": "1"}),
        "events[0].params.session",
    ),
    "label-of-quota_start": (
        ("events", 0), label_case("quota_start", {"session": True}, 5000),
        "events[0].params.session",
    ),
    "label-of-quota_stop": (
        ("events", 0), label_case("quota_stop", {}, 5000), "missing required field 'session'",
    ),
    "label-of-deploy_ballot": (
        ("events", 0), label_case("deploy_ballot", {"ballot": 1, "voters": []}),
        "events[0].params.ballot",
    ),
    "label-of-cast_vote": (
        ("events", 0), label_case("cast_vote", {"choice": "maybe"}),
        "missing required field 'ballot'",
    ),
    "label-of-tally": (
        ("events", 0), label_case("tally", {"ballot": None}, 5000), "events[0].params.ballot",
    ),
}


def edited(*edits):
    """GOOD_SCENARIO with each (path to a key, value) edit applied in turn."""
    doc = copy.deepcopy(GOOD_SCENARIO)
    for path, value in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


@pytest.mark.parametrize("case", list(PARSE_TIME_REJECTS))
def test_run_rejects_reserved_or_mistyped_fields_at_parse_time(tmp_path, capsys, case):
    path, value, named = PARSE_TIME_REJECTS[case]
    code = main(["run", write_scenario(tmp_path, edited((path, value)))])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error: ValidationError" in err
    assert named in err


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_largest_accepted_inputs_run_to_a_report(tmp_path, capsys, command):
    # Every bound at once: a wei amount of 2**256 - 1, a period of
    # MAX_SECONDS and a multiplier of 2**64 - 1 multiply into a price of about
    # 10**89 wei, which the report must still write out.
    doc = copy.deepcopy(GOOD_SCENARIO)
    doc["config"]["rate_card"] = {"base_rate_wei_per_second": str(2**256 - 1)}
    doc["genesis"]["alice"] = str(2**256 - 1)
    doc["events"] = [{
        "at_time": 0, "actor": "alice", "action": "request_session",
        "params": {**REQUEST, "kind": "constraint_based", "video_quality": "HD",
                   "availability_target_bp": 10_000, "max_period_seconds": MAX_SECONDS,
                   "constraints": {"price_multiplier_bp": 2**64 - 1}},
    }]
    code = main([command, write_scenario(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    if command == "run":
        [contract] = json.loads(out)["contracts"]
        assert contract["terms"]["price_wei"] == str(
            (2**256 - 1) * MAX_SECONDS * 15_000 * 12_000 * (2**64 - 1) // 10**12
        )


def test_run_missing_file(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json")])
    _, err = capsys.readouterr()
    assert code == 2
    assert "cannot read" in err


# Inputs json.loads cannot turn into a document; each once ended in a traceback.
UNDECODABLE = {
    "not_utf8": b'{"genesis": {"al\xffce": "1"}}',
    "integer_past_the_digit_limit": b'{"genesis": {"a": ' + b"9" * 5_000 + b"}}",
    "nested_too_deeply": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_undecodable_input_is_a_parse_error(tmp_path, capsys, command, name):
    path = tmp_path / "scenario.json"
    path.write_bytes(UNDECODABLE[name])
    code = main([command, str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error: ParseError" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_unwritable_out_path_exits_two(tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.json"
    code = main([command, write_scenario(tmp_path, GOOD_SCENARIO), "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert f"error: cannot write {target}" in err
    assert "Traceback" not in err


def test_run_corrupt_ledger_hook_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("escrowsim.cli.run_scenario", functools.partial(run_scenario, corrupt_wei=1))
    code = main(["run", write_scenario(tmp_path, GOOD_SCENARIO)])
    out, err = capsys.readouterr()
    assert code == 1
    assert "conservation violated" in err
    assert json.loads(out)["conservation_ok"] is False


def test_run_event_errors_exit_one_but_report_stands(tmp_path, capsys):
    doc = json.loads(json.dumps(GOOD_SCENARIO))
    doc["events"].insert(3, {"at_time": 900, "actor": "oliver",
                             "action": "end_session", "params": {"session": "s1"}})
    code = main(["run", write_scenario(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert code == 1
    assert "NotEndUser" in err
    report = json.loads(out)
    assert report["conservation_ok"] is True
    assert len(report["event_errors"]) == 1


def test_run_seed_override_changes_block_times(tmp_path, capsys):
    path = write_scenario(tmp_path, GOOD_SCENARIO)
    main(["run", path])
    plain = json.loads(capsys.readouterr()[0])
    main(["run", path, "--seed", "5"])
    jittered = json.loads(capsys.readouterr()[0])
    assert plain["final_block"]["timestamp"] != jittered["final_block"]["timestamp"]


def _one_short_error_line(err: str, field: str) -> None:
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1, err[:400]
    assert len(errors[0].encode()) < 200, errors[0][:400]
    assert field in errors[0]
    assert "Traceback" not in err


def test_a_5000_digit_genesis_amount_gets_a_short_error(tmp_path, capsys):
    doc = dict(GOOD_SCENARIO, genesis={"alice": "1" * 5000, "oliver": "1"})
    code = main(["run", write_scenario(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    _one_short_error_line(err, "genesis.alice")


@pytest.mark.parametrize("flag", ["--gas-units", "--gas-price-gwei"])
def test_a_5000_digit_gas_flag_gets_a_short_error(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["fees", "--amount-usd", "10", flag, "1" * 5000])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    _one_short_error_line(err, flag)


@pytest.mark.parametrize("command", ["run", "oracle", "demo"])
@pytest.mark.parametrize(
    "seed",
    [
        "-1",
        "-7",
        "x",
        "18446744073709551616",
        "\u0661\u0662",
        pytest.param("1" * 5000, id="5000-digits"),
    ],
)
def test_seed_flag_rejects_negative_and_non_integer_seeds(tmp_path, capsys, command, seed):
    args = [command] if command == "demo" else [command, write_scenario(tmp_path, GOOD_SCENARIO)]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--seed", seed])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    _one_short_error_line(err, "--seed")


LONG = "x" * 5000
SHARES = {**REQUEST, "kind": "income_division"}

# (edits to GOOD_SCENARIO, text the error must name); each error message once
# quoted the whole 5000-character input
LONG_INPUTS = {
    "action": ([(("events", 0, "action"), LONG)], "events[0].action"),
    "actor": ([(("events", 0, "actor"), LONG)], "events[0].actor"),
    "params-key": ([(("events", 0, "params", LONG), 1)], "events[0].params"),
    "four-unknown-fields": (
        [(("config",), {f"{c}{LONG}": 1 for c in "abcd"})], "config: unknown field(s)",
    ),
    "kind": ([(("events", 0, "params", "kind"), LONG)], "events[0].params.kind"),
    "owner": ([(("events", 0, "params", "owner"), LONG)], "events[0].params.owner"),
    "video-quality": (
        [(("events", 0, "params", "video_quality"), LONG)], "events[0].params: video_quality",
    ),
    "to": (
        [(("events", 0), label_case("transfer", {"to": LONG, "value": "1"}))],
        "events[0].params.to",
    ),
    "voter": (
        [(("events", 0), label_case("deploy_ballot", {"ballot": "b1", "voters": [LONG]}))],
        "events[0].params.voters",
    ),
    "share-holder": (
        [(("events", 0, "params"), {**SHARES, "shares": {LONG: [1, 1]}})],
        "events[0].params.shares",
    ),
    "share-holder-path": (
        [(("genesis", LONG), "1"), (("events", 0, "params"), {**SHARES, "shares": {LONG: [1]}})],
        "events[0].params.shares.xxx",
    ),
    "contract-prefix-genesis-name": ([(("genesis", "sc-" + LONG), "1")], "genesis.sc-xxx"),
    "genesis-name-amount-not-string": ([(("genesis", LONG), 1)], "genesis.xxx"),
    "genesis-name-amount-negative": ([(("genesis", LONG), "-1")], "genesis.xxx"),
    "time-of-4000-digits": ([(("events", 0, "at_time"), 10**4000)], "events[0].at_time"),
}


@pytest.mark.parametrize("case", list(LONG_INPUTS))
def test_a_5000_character_input_gets_a_short_error(tmp_path, capsys, case):
    edits, named = LONG_INPUTS[case]
    code = main(["run", write_scenario(tmp_path, edited(*edits))])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    _one_short_error_line(err, named)


@pytest.mark.parametrize(
    "event",
    [label_case("countersign", {"session": LONG}, 15), label_case("tally", {"ballot": LONG}, 15)],
)
def test_a_5000_character_unknown_label_gets_a_short_error(tmp_path, capsys, event):
    doc = edited((("events", 3), event))
    code = main(["run", write_scenario(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert code == 1
    [line] = err.splitlines()
    assert len(line.encode()) < 200, line[:400]
    assert line.startswith(f"event 3 at t=15 ({event['action']}): ValidationError: unknown")
    [error] = json.loads(out)["event_errors"]
    assert error["detail"] == line.split("ValidationError: ")[1]


TEN_ETH = GOOD_SCENARIO["genesis"]["alice"]
REQUEST_EVENT, PAY_EVENT, COUNTERSIGN_EVENT = GOOD_SCENARIO["events"][:3]

# (document, error class); each error message once quoted the whole
# 5000-character account name or provider region
LONG_RUN_TIME_INPUTS = {
    "genesis-name-cannot-pay-transfer": (
        edited((("genesis", LONG), "0"), (("events",), [
            {"at_time": 0, "actor": LONG, "action": "transfer",
             "params": {"to": "alice", "value": "1"}},
        ])),
        "InsufficientFunds",
    ),
    "genesis-name-countersigns-as-stranger": (
        edited((("genesis", LONG), TEN_ETH), (("events",), [
            REQUEST_EVENT, PAY_EVENT, {**COUNTERSIGN_EVENT, "actor": LONG},
        ])),
        "NotOwner",
    ),
    "genesis-name-votes-without-being-a-voter": (
        edited((("genesis", LONG), TEN_ETH), (("events",), [
            label_case("deploy_ballot", {"ballot": "b1", "voters": ["alice"]}),
            {"at_time": 0, "actor": LONG, "action": "cast_vote",
             "params": {"ballot": "b1", "choice": "yes"}},
        ])),
        "NotAVoter",
    ),
    "provider-region-with-inadmissible-constraints": (
        edited((("config", "provider"), {"region": LONG}), (("events",), [
            {**REQUEST_EVENT, "params": {**REQUEST, "kind": "constraint_based",
                                         "constraints": {"allowed_regions": ["EU"]}}},
        ])),
        "InadmissibleOffer",
    ),
}


@pytest.mark.parametrize("case", list(LONG_RUN_TIME_INPUTS))
def test_a_5000_character_name_gets_a_short_run_time_error(tmp_path, capsys, case):
    doc, error = LONG_RUN_TIME_INPUTS[case]
    code = main(["run", write_scenario(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert code == 1
    [line] = err.splitlines()
    assert len(line.encode()) < 200, line[:400]
    [row] = json.loads(out)["event_errors"]
    assert row["error"] == error
    assert len(row["detail"].encode()) < 200, row["detail"][:400]
    assert line.endswith(f": {error}: {row['detail']}")


# ---- oracle ---------------------------------------------------------------------

def test_oracle_settlements_match_the_engine_run(tmp_path, capsys):
    path = write_scenario(tmp_path, GOOD_SCENARIO)
    assert main(["oracle", path]) == 0
    text = capsys.readouterr()[0]
    oracle = json.loads(text)
    assert text == json.dumps(oracle, indent=2) + "\n"
    assert main(["run", path]) == 0
    report = json.loads(capsys.readouterr()[0])
    for contract in report["contracts"]:
        addr = contract["address"]
        settled = contract["settlement"]
        assert oracle[addr]["charge"] == settled["charge_wei"]
        assert oracle[addr]["refund"] == settled["refund_wei"]
        assert oracle[addr]["escrow"] == "0"


def test_oracle_rejects_bad_scripts(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("[]")
    code = main(["oracle", str(path)])
    _, err = capsys.readouterr()
    assert code == 2
    assert "error:" in err


# ---- fees ------------------------------------------------------------------------

def test_fees_table_at_100_usd(capsys):
    assert main(["fees", "--amount-usd", "100"]) == 0
    out, _ = capsys.readouterr()
    assert "$1.43 - $2.40" in out
    assert "$1.55 - $2.60" in out
    assert "$2.90 - $4.40" in out
    assert "(flat)" in out
    assert "flexible" in out


def test_fees_flat_component_ignores_amount(capsys):
    main(["fees", "--amount-usd", "1"])
    small = capsys.readouterr()[0]
    main(["fees", "--amount-usd", "10000"])
    large = capsys.readouterr()[0]
    flat = [line for line in small.splitlines() if "Ethereum" in line]
    assert flat == [line for line in large.splitlines() if "Ethereum" in line]


def test_fees_gas_price_bounds(capsys):
    assert main(["fees", "--amount-usd", "100", "--gas-price-gwei", "50"]) == 2
    assert "GasPriceOutOfRange" in capsys.readouterr()[1]
    assert main(["fees", "--amount-usd", "100", "--gas-price-gwei", "50",
                 "--allow-any-gas-price"]) == 0


@pytest.mark.parametrize("flag", ["--gas-units", "--gas-price-gwei"])
@pytest.mark.parametrize("value", [" 2_1000 ", " 20", "+20", "\u0662\u0660", "2_0", "-", ""])
def test_fees_gas_flags_take_only_ascii_digits(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["fees", "--amount-usd", "10", "--allow-any-gas-price", flag, value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"argument {flag}: invalid int value" in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--gas-units", "-5"], "gas_units"),
        (["--gas-price-gwei", "-5", "--allow-any-gas-price"], "gas_price_gwei"),
        # above MAX_INT, named by flag: 4299 nines made a fee too long to print
        (["--eth-usd", "1e70", "--gas-units", "9" * 4_299], "--gas-units"),
        (["--gas-units", str(MAX_INT + 1)], "--gas-units"),
        (["--gas-price-gwei", str(MAX_INT + 1), "--allow-any-gas-price"], "--gas-price-gwei"),
    ],
)
def test_fees_rejects_negative_gas(capsys, flags, named):
    try:
        code = main(["fees", "--amount-usd", "10", *flags])
    except SystemExit as exc:  # argparse rejects a value above MAX_INT
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    if named.startswith("--"):
        assert f"argument {named}: must be at most {MAX_INT}" in err
    else:
        assert f"error: {named} must be non-negative" in err


def test_fees_table_cells_end_in_a_space(capsys):
    assert main(["fees", "--amount-usd", "100"]) == 0
    lines = capsys.readouterr()[0].splitlines()
    # cells that fit their column are padded to it, as they always were
    assert lines[1] == "method      fee (USD)           proportional  merchant min      lock-in"
    assert lines[2] == "Visa        $1.43 - $2.40       yes           1.25% + $0.00     limited"
    assert lines[5] == "Ethereum    $0.21 (flat)        no            none              flexible"
    # a longer fee, proportional or flat, still ends in a space
    assert main(["fees", "--amount-usd", "1234567890123456789012345678901.23"]) == 0
    assert "$29629629362962962936296296293.62 yes " in capsys.readouterr()[0]
    assert main(["fees", "--amount-usd", "1", "--eth-usd", "1e70"]) == 0
    assert ".00 (flat) no " in capsys.readouterr()[0]


# each rejected amount, and what the message says
REJECTED_AMOUNTS = {
    "1.999": "sub-cent precision",
    "inf": "must be finite",
    "-inf": "must be finite",
    "Infinity": "must be finite",
    "nan": "must be finite",
    "1e9999999": "must be at most",  # the * 100 overflowed the decimal context
    "1e5000": "must be at most",  # the table printed a 5000-digit int
    "1e999997": "must be at most",  # never finished
    " 10 ": "not a decimal amount",  # Decimal strips the spaces
    "1_0": "not a decimal amount",  # Decimal reads it as 10
    "١٠": "not a decimal amount",  # Arabic-Indic digits; Decimal reads them as 10
}


@pytest.mark.parametrize("flag", ["--amount-usd", "--eth-usd"], ids=["amount-usd", "eth-usd"])
@pytest.mark.parametrize("value", list(REJECTED_AMOUNTS))
def test_fees_rejects_subcent_amounts(capsys, flag, value):
    args = ["fees", f"{flag}={value}"]  # "=" keeps "-inf" from reading as a flag
    if flag == "--eth-usd":
        args += ["--amount-usd", "1"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    err = capsys.readouterr()[1]
    assert exc.value.code == 2
    assert "Traceback" not in err
    assert REJECTED_AMOUNTS[value] in err


def test_fees_takes_amounts_up_to_max_wei_cents_exactly(capsys):
    # 32 digits: beyond the 28 of the default decimal context, which rounded them
    assert main(["fees", "--amount-usd", "123456789012345678901234567890.12"]) == 0
    assert "payment of $123456789012345678901234567890.12" in capsys.readouterr()[0]
    largest = f"{MAX_WEI // 100}.{MAX_WEI % 100:02d}"
    assert main(["fees", "--amount-usd", largest]) == 0
    assert f"payment of ${largest}" in capsys.readouterr()[0]
    with pytest.raises(SystemExit) as exc:
        main(["fees", "--amount-usd", f"{largest}1"])  # a tenth of a cent more
    assert exc.value.code == 2


def test_fees_accepts_decimal_dollars(capsys):
    assert main(["fees", "--amount-usd", "12.34"]) == 0
    assert "payment of $12.34" in capsys.readouterr()[0]


# ---- demo -------------------------------------------------------------------------

def test_demo_lists_all_sixteen_steps(capsys):
    assert main(["demo"]) == 0
    out, _ = capsys.readouterr()
    for step in range(1, 17):
        assert f"step {step:2d}:" in out
    assert "conservation: ok" in out
    assert "vc-" in out


def test_demo_timeout_skips_the_user_stop(capsys):
    assert main(["demo", "--timeout"]) == 0
    out, _ = capsys.readouterr()
    assert "step 11:" not in out
    assert "step 12:" in out
    assert "by timeout wakeup" in out


def test_demo_reruns_are_byte_identical(capsys):
    main(["demo", "--seed", "3"])
    first = capsys.readouterr()[0]
    main(["demo", "--seed", "3"])
    assert capsys.readouterr()[0] == first


def test_demo_charges_half_on_user_stop(capsys):
    main(["demo"])
    out = capsys.readouterr()[0]
    assert "charge: 324000000000000000 wei" in out
    assert "refund: 324000000000000000 wei" in out


def test_demo_timeout_charges_in_full(capsys):
    main(["demo", "--timeout"])
    out = capsys.readouterr()[0]
    assert "charge: 648000000000000000 wei" in out
    assert "refund: 0 wei" in out


# ---- installed entry point -----------------------------------------------------------

def test_module_entry_point_runs(tmp_path):
    path = write_scenario(tmp_path, GOOD_SCENARIO)
    # pytest's ``pythonpath`` setting reaches only its own process
    src = str(Path(__file__).resolve().parents[1] / "src")
    search = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "escrowsim.cli", "run", path],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": search},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["conservation_ok"] is True
