"""Acceptance gate: the ten headline properties, one test (and one line) each.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion. The random sweeps are seeded, so every run checks the same cases.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from escrowsim import contracts as sc
from escrowsim.cli import main
from escrowsim.contracts import AgreementContract, ContractKind, IncomeShares
from escrowsim.ledger import GasSchedule, Ledger
from escrowsim.oracle import oracle_settlement
from escrowsim.scenario import generate_random_script, parse_scenario, run_scenario
from escrowsim.units import eth

from report_tree import report_tree

SWEEP_SEEDS = 1000


@pytest.fixture(scope="module")
def sweep():
    """Engine and oracle results for the whole seeded scenario population."""
    results = []
    for seed in range(SWEEP_SEEDS):
        script = parse_scenario(generate_random_script(seed))
        report = run_scenario(script)
        results.append(
            (seed, report.report["conservation_ok"], report.settlements,
             oracle_settlement(parse_scenario(generate_random_script(seed))))
        )
    return results


def test_c01_conservation_holds_across_1000_seeded_scenarios(sweep):
    violations = [seed for seed, ok, _, _ in sweep if not ok]
    print(f"conservation sweep: {SWEEP_SEEDS - len(violations)}/{SWEEP_SEEDS} ok")
    assert violations == []


def test_c02_engine_settlements_equal_oracle_exactly(sweep):
    mismatches = [seed for seed, _, engine, oracle in sweep if engine != oracle]
    contracts = sum(len(engine) for _, _, engine, _ in sweep)
    print(f"oracle equivalence: {contracts} contracts compared, "
          f"{len(mismatches)} mismatches")
    assert mismatches == []


def test_c03_proration_law_over_ten_thousand_triples():
    rng = random.Random(2024)
    gas = GasSchedule(transfer_gas=0, contract_call_gas=0, contract_deploy_gas=0)
    for _ in range(10_000):
        price = rng.randint(1, 10**18)
        lock = rng.randint(1, 10**6)
        used = rng.randint(0, lock)
        ledger = Ledger({"u": price, "o": 0}, gas=gas, block_interval=1)
        contract = AgreementContract(
            kind=ContractKind.DYNAMIC_PRICE, owner="o", end_user="",
            price=price, lock_time_seconds=lock,
        )
        ledger.register_contract(contract, payer="o")
        sc.mark_quoted(contract)
        sc.lock_funds(ledger, contract, "u", price)
        sc.countersign(ledger, contract, "o")
        ledger.advance_to(used)
        done = sc.stop_and_settle(ledger, contract, "u")
        assert done.charge == price * used // lock
        assert done.charge + done.refund == price
    print("proration law: 10000 triples, charge = floor(price*used/lock), sum exact")


def test_c04_boundary_values_full_use_and_availability_threshold():
    gas = GasSchedule(transfer_gas=0, contract_call_gas=0, contract_deploy_gas=0)

    def settle(used, samples, samples_up):
        ledger = Ledger({"u": eth(1), "o": 0}, gas=gas, block_interval=1)
        contract = AgreementContract(
            kind=ContractKind.DYNAMIC_PRICE, owner="o", end_user="",
            price=eth(1), lock_time_seconds=3_600,
        )
        ledger.register_contract(contract, payer="o")
        sc.mark_quoted(contract)
        sc.lock_funds(ledger, contract, "u", eth(1))
        sc.countersign(ledger, contract, "o")
        contract.samples, contract.samples_up = samples, samples_up
        ledger.advance_to(used)
        return sc.stop_and_settle(ledger, contract, "u")

    exhausted = settle(3_600, 0, 0)  # no samples: 10000 bp
    assert exhausted.charge == eth(1) and exhausted.refund == 0
    breached = settle(1_800, 10_000, 7_499)
    assert breached.charge == 0 and breached.refund == eth(1)
    held = settle(1_800, 4, 3)
    assert held.charge == eth(1) // 2 and held.refund == eth(1) - eth(1) // 2
    print("boundaries: full use -> refund 0; 7499 bp -> full refund; "
          "7500 bp -> normal proration")


def test_c05_fee_table_values_and_flat_ethereum_fee(capsys):
    assert main(["fees", "--amount-usd", "100"]) == 0
    table = capsys.readouterr()[0]
    for needle in ("$1.43 - $2.40", "$1.55 - $2.60", "$2.90 - $4.40"):
        assert needle in table

    assert main(["fees", "--amount-usd", "1"]) == 0
    at_1 = capsys.readouterr()[0]
    assert main(["fees", "--amount-usd", "10000"]) == 0
    at_10k = capsys.readouterr()[0]
    eth_row = lambda text: next(l for l in text.splitlines() if l.startswith("Ethereum"))
    assert eth_row(at_1) == eth_row(at_10k)
    print("fee table: card ranges reproduced; Ethereum fee equal at $1 and $10000")


def test_c06_contract_counts_per_monetization_pattern():
    quota_events = [
        {"at_time": 0, "actor": "alice", "action": "request_session",
         "params": {"session": "q", "owner": "oliver", "kind": "time_limited_quota",
                    "availability_target_bp": 9000, "video_quality": "SD",
                    "max_period_seconds": 1200}},
        {"at_time": 0, "actor": "alice", "action": "quota_purchase",
         "params": {"session": "q", "minutes": 20, "value": "quoted"}},
    ]
    clock = 15
    for _ in range(4):
        quota_events.append({"at_time": clock, "actor": "alice",
                             "action": "quota_start", "params": {"session": "q"}})
        quota_events.append({"at_time": clock + 60, "actor": "alice",
                             "action": "quota_stop", "params": {"session": "q"}})
        clock += 120
    quota = report_tree(run_scenario(parse_scenario({
        "config": {},
        "genesis": {"alice": str(eth(10)), "oliver": str(eth(10))},
        "events": quota_events,
    })))
    assert len(quota["contracts"]) == 1
    assert len(quota["contracts"][0]["terms"]["sessions"]) == 4

    consensus = run_scenario(parse_scenario({
        "config": {},
        "genesis": {"alice": str(eth(10)), "bob": str(eth(10)),
                    "oliver": str(eth(10))},
        "events": [
            {"at_time": 0, "actor": "oliver", "action": "deploy_ballot",
             "params": {"ballot": "b", "voters": ["alice", "bob"]}},
            {"at_time": 0, "actor": "alice", "action": "cast_vote",
             "params": {"ballot": "b", "choice": "yes"}},
            {"at_time": 0, "actor": "bob", "action": "cast_vote",
             "params": {"ballot": "b", "choice": "yes"}},
            {"at_time": 15, "actor": "oliver", "action": "tally",
             "params": {"ballot": "b"}},
            {"at_time": 30, "actor": "alice", "action": "request_session",
             "params": {"session": "s", "owner": "oliver",
                        "kind": "consensus_decision", "ballot": "b",
                        "availability_target_bp": 9000, "video_quality": "SD",
                        "max_period_seconds": 600}},
        ],
    })).report
    assert len(consensus["contracts"]) == 2

    income = run_scenario(parse_scenario({
        "config": {},
        "genesis": {"alice": str(eth(10)), "oliver": str(eth(10)),
                    "carol": str(eth(1))},
        "events": [
            {"at_time": 0, "actor": "alice", "action": "request_session",
             "params": {"session": "s", "owner": "oliver", "kind": "income_division",
                        "shares": {"oliver": [3, 4], "carol": [1, 4]},
                        "availability_target_bp": 9000, "video_quality": "SD",
                        "max_period_seconds": 600}},
        ],
    })).report
    assert len(income["contracts"]) == 2
    print("contract counts: quota 1 + 4 session pairs; consensus 2; income division 2")


def test_c07_voting_exhaustive_up_to_five_voters():
    gas = GasSchedule(transfer_gas=0, contract_call_gas=0, contract_deploy_gas=0)
    checked = 0
    for n in range(1, 6):
        voters = [f"v{i}" for i in range(n)]
        for assignment in itertools.product(("yes", "no", "abstain"), repeat=n):
            votes = [(v, c) for v, c in zip(voters, assignment) if c != "abstain"]
            expected = 2 * sum(1 for _, c in votes if c == "yes") > n
            orders = [votes, votes[::-1]]
            if len(votes) > 2:
                shuffled = votes[:]
                random.Random(checked).shuffle(shuffled)
                orders.append(shuffled)
            for order in orders:
                ledger = Ledger({name: eth(1) for name in voters + ["own"]}, gas=gas)
                ballot = AgreementContract(
                    kind=ContractKind.CONSENSUS_DECISION, owner="own", end_user=""
                )
                ledger.register_contract(ballot, payer="own")
                sc.init_vote(ledger, ballot, "own", set(voters))
                for voter, choice in order:
                    sc.cast_vote(ledger, ballot, voter, choice)
                first = sc.tally_and_enact(ballot)
                assert first["enacted"] == expected, (n, assignment, order)
                assert sc.tally_and_enact(ballot) == first  # idempotent
                checked += 1
    print(f"voting: {checked} (assignment, order) cases, enacted iff yes > n/2")


def test_c08_income_division_bounds_over_ten_thousand_cases():
    rng = random.Random(88)
    for _ in range(10_000):
        n = rng.randint(1, 6)
        names = [f"p{i}" for i in range(n)]
        cuts = [rng.randint(1, 99) for _ in names]
        charge = rng.randint(0, 10**18)
        contract = AgreementContract(
            kind=ContractKind.INCOME_DIVISION, owner="own", end_user=""
        )
        contract.shares = IncomeShares(dict(zip(names, cuts)), sum(cuts))
        payouts = sc.settle_with_division(contract, charge)
        assert sum(payouts.values()) == charge
        total = sum(cuts)
        for name, cut in zip(names, cuts):
            assert abs(Fraction(payouts[name]) - Fraction(charge * cut, total)) < 1
    print("income division: 10000 cases, sums exact, payouts within 1 wei of exact")


def test_c09_block_quantization_of_stops_and_wakeups():
    rng = random.Random(31337)
    base = {
        "config": {},
        "genesis": {"alice": str(eth(10)), "oliver": str(eth(10))},
    }
    worst = 0
    for _ in range(60):
        lock = rng.randint(120, 3_600)
        request = [
            {"at_time": 0, "actor": "alice", "action": "request_session",
             "params": {"session": "s", "owner": "oliver", "kind": "dynamic_price",
                        "availability_target_bp": 9000, "video_quality": "SD",
                        "max_period_seconds": lock}},
            {"at_time": 0, "actor": "alice", "action": "approve_and_pay",
             "params": {"session": "s", "value": "quoted"}},
            {"at_time": 15, "actor": "oliver", "action": "countersign",
             "params": {"session": "s"}},
        ]
        if rng.random() < 0.5:
            stop_at = rng.randint(16, lock - 1)
            events = request + [
                {"at_time": stop_at, "actor": "alice", "action": "end_session",
                 "params": {"session": "s"}},
            ]
            requested = stop_at
        else:
            events = request  # timeout: the wakeup settles at release time
            requested = lock  # funded at t=0, so release = lock
        script = parse_scenario({**base, "events": events})
        result = run_scenario(script)
        assert oracle_settlement(script) == result.settlements
        report = report_tree(result)
        [session] = report["sessions"]
        executed = session["stop_block"] * 15  # deterministic 15 s blocks
        delay = executed - requested
        assert 0 <= delay < 15, (lock, requested, executed)
        assert session["stop_block"] == -(-requested // 15)  # first block >= request
        worst = max(worst, delay)
        # the charge uses quantized block time, not the requested instant
        [settled] = report["contracts"]
        used = min(executed, lock)
        price = int(settled["terms"]["price_wei"])
        assert int(settled["settlement"]["charge_wei"]) == price * used // lock

    # A stop and a down sample before the release time that land in the
    # release block: the wakeup settles first and both are rejected. An
    # oracle that compared the release with their at_time would count the
    # sample and charge nothing. On the fixed grid, 91 s and the 100 s release
    # share the block at 105 s (height 7); jittered seed 3 has blocks at
    # 205 s (height 11) and 210 s (height 12), so 206 s and 207 s share one.
    for config, release, late_at, release_block in (({}, 100, 91, 7),
                                                    ({"jitter_seed": 3}, 207, 206, 12)):
        request[0]["params"]["max_period_seconds"] = release  # funded at t=0
        late = [
            {"at_time": late_at, "actor": "oliver", "action": "qos_sample",
             "params": {"session": "s", "available": False}},
            {"at_time": late_at, "actor": "alice", "action": "end_session",
             "params": {"session": "s"}},
        ]
        script = parse_scenario({**base, "config": config, "events": request + late})
        result = run_scenario(script)
        [session] = report_tree(result)["sessions"]
        assert [e["error"] for e in result.report["event_errors"]] == [
            "SessionNotActive", "WrongState"], config
        assert (session["settled_by"], session["stop_block"]) == ("expiry", release_block)
        [settled] = result.settlements.values()
        assert settled["charge"] > 0, config
        assert oracle_settlement(script) == result.settlements, config
    print(f"block quantization: 60 runs, delays in [0, 15), worst {worst} s; "
          "stops in the release block settle by expiry")


def test_c10_demo_step_logs_and_byte_identical_reruns(capsys):
    def steps(text):
        return [int(line.split(":")[0].split()[-1])
                for line in text.splitlines() if line.strip().startswith("step ")]

    assert main(["demo"]) == 0
    stopped = capsys.readouterr()[0]
    assert steps(stopped) == list(range(1, 17))

    assert main(["demo", "--timeout"]) == 0
    expired = capsys.readouterr()[0]
    assert steps(expired) == list(range(1, 11)) + [12, 13, 14, 15, 16]

    for args, reference in ((["demo"], stopped), (["demo", "--timeout"], expired)):
        assert main(args) == 0
        assert capsys.readouterr()[0] == reference

    seeded = []
    for _ in range(2):
        assert main(["demo", "--seed", "11"]) == 0
        seeded.append(capsys.readouterr()[0])
    assert seeded[0] == seeded[1]
    print("demo: step logs [1..16] and [1..10,12..16]; reruns byte-identical")
