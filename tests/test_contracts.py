"""Contract templates: state machine, settlement math, quota, shares, voting."""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from escrowsim import contracts as sc
from escrowsim.contracts import (
    AgreementContract,
    ConstraintTerms,
    ContractKind,
    ContractState,
    FlexibleTerms,
    IncomeShares,
    QuotaTerms,
)
from escrowsim.errors import (
    AlreadyVoted,
    InvalidShares,
    InvariantViolation,
    NoOpenSession,
    NotAVoter,
    NotEndUser,
    NotOwner,
    NotYetReleased,
    SessionAlreadyOpen,
    SimulationError,
    ValidationError,
    WrongState,
)
from escrowsim.ledger import GasSchedule, Ledger
from escrowsim.report import export_contract
from escrowsim.units import eth


def zero_gas() -> GasSchedule:
    return GasSchedule(transfer_gas=0, contract_call_gas=0, contract_deploy_gas=0)


def make_ledger(**extra) -> Ledger:
    genesis = {"user": eth(10), "own": eth(10), **extra}
    return Ledger(genesis, gas=zero_gas(), block_interval=1)


def deploy(ledger, kind=ContractKind.DYNAMIC_PRICE, price=eth(1), lock=3600, **kw):
    contract = AgreementContract(
        kind=kind, owner="own", end_user="", price=price, lock_time_seconds=lock, **kw
    )
    ledger.register_contract(contract, payer="own")
    return contract


def activate(ledger, contract, value=None):
    sc.mark_quoted(contract)
    sc.lock_funds(ledger, contract, "user", value or contract.price)
    sc.countersign(ledger, contract, "own")
    return contract


# ---- life cycle ---------------------------------------------------------------

def test_happy_path_walks_the_full_state_machine():
    ledger = make_ledger()
    c = deploy(ledger)
    assert c.state is ContractState.DEPLOYED
    assert c.escrow == 0
    sc.mark_quoted(c)
    assert c.state is ContractState.QUOTED
    sc.lock_funds(ledger, c, "user", eth(1))
    assert c.state is ContractState.USER_SIGNED
    assert c.escrow == eth(1)
    assert c.end_user == "user"
    assert c.release_time == 3600
    sc.countersign(ledger, c, "own")
    assert c.state is ContractState.ACTIVE
    assert c.escrow == eth(1)
    ledger.advance_to(1800)
    settlement = sc.stop_and_settle(ledger, c, "user")
    assert c.state is ContractState.SETTLED
    assert c.escrow == 0
    assert settlement.charge == settlement.refund == eth(1) // 2
    assert ledger.conservation_check()


def test_lock_funds_rejects_wrong_value_without_state_change():
    ledger = make_ledger()
    c = deploy(ledger)
    sc.mark_quoted(c)
    detail = f"^payment of {eth(1) + 1} wei rejected: quoted price is {eth(1)} wei$"
    with pytest.raises(ValidationError, match=detail):
        sc.lock_funds(ledger, c, "user", eth(1) + 1)
    assert c.state is ContractState.QUOTED
    assert c.escrow == 0
    assert ledger.balance_of("user") == eth(10)
    # the exact price still goes through afterwards
    sc.lock_funds(ledger, c, "user", eth(1))
    assert c.state is ContractState.USER_SIGNED


def test_cannot_skip_states():
    ledger = make_ledger()
    c = deploy(ledger)
    with pytest.raises(WrongState):
        sc.lock_funds(ledger, c, "user", eth(1))  # not quoted yet
    sc.mark_quoted(c)
    with pytest.raises(WrongState):
        sc.countersign(ledger, c, "own")  # not funded yet
    ledger.advance_to(10)
    with pytest.raises(WrongState):
        sc.stop_and_settle(ledger, c, "user")


def test_countersign_requires_owner():
    ledger = make_ledger()
    c = deploy(ledger)
    sc.mark_quoted(c)
    with pytest.raises(NotOwner):
        sc.countersign(ledger, c, "user")  # the signer is checked before the state
    sc.lock_funds(ledger, c, "user", eth(1))
    with pytest.raises(NotOwner):
        sc.countersign(ledger, c, "user")


def test_stop_requires_end_user():
    ledger = make_ledger()
    c = activate(ledger, deploy(ledger))
    ledger.advance_to(150)
    with pytest.raises(NotEndUser):
        sc.stop_and_settle(ledger, c, "own")


def test_expiry_before_release_time_rejected():
    ledger = make_ledger()
    c = activate(ledger, deploy(ledger))
    ledger.advance_to(3599)
    with pytest.raises(NotYetReleased):
        sc.expire_and_settle(ledger, c)
    ledger.advance_to(3600)
    settlement = sc.expire_and_settle(ledger, c)
    assert settlement.charge == eth(1)
    assert settlement.refund == 0


def test_escrow_positive_exactly_while_funds_are_locked():
    ledger = make_ledger()
    c = deploy(ledger)
    held = []
    sc.mark_quoted(c)
    held.append((c.state, c.escrow))
    sc.lock_funds(ledger, c, "user", eth(1))
    held.append((c.state, c.escrow))
    sc.countersign(ledger, c, "own")
    held.append((c.state, c.escrow))
    ledger.advance_to(30)
    sc.stop_and_settle(ledger, c, "user")
    held.append((c.state, c.escrow))
    for state, escrow in held:
        locked = state in (ContractState.USER_SIGNED, ContractState.ACTIVE)
        assert (escrow > 0) == locked


# ---- proration -------------------------------------------------------------------

def test_proration_frozen_value():
    # floor(10^18 * 1000 / 3600) pinned before the engine was built
    ledger = make_ledger()
    c = activate(ledger, deploy(ledger, price=10**18, lock=3600))
    ledger.advance_to(1000)
    settlement = sc.stop_and_settle(ledger, c, "user")
    assert settlement.charge == 277_777_777_777_777_777
    assert settlement.refund == 722_222_222_222_222_223
    assert settlement.charge + settlement.refund == 10**18


def test_proration_law_random_sweep():
    rng = random.Random(99)
    for _ in range(2000):
        price = rng.randint(1, 10**18)
        lock = rng.randint(1, 10**6)
        used = rng.randint(0, lock)
        ledger = Ledger({"user": price, "own": 0}, gas=zero_gas(), block_interval=1)
        c = deploy(ledger, price=price, lock=lock)
        activate(ledger, c)
        ledger.advance_to(used)
        settlement = sc.stop_and_settle(ledger, c, "user")
        assert settlement.charge == price * used // lock
        assert settlement.charge + settlement.refund == price
        assert ledger.conservation_check()


def test_stop_after_lock_time_charges_no_more_than_price():
    ledger = make_ledger()
    c = activate(ledger, deploy(ledger))
    ledger.advance_to(7200)
    settlement = sc.stop_and_settle(ledger, c, "user")
    assert settlement.charge == eth(1)
    assert settlement.refund == 0


def test_fixed_price_charges_in_full_regardless_of_usage():
    ledger = make_ledger()
    c = activate(ledger, deploy(ledger, kind=ContractKind.FIXED_PRICE))
    ledger.advance_to(60)
    settlement = sc.stop_and_settle(ledger, c, "user")
    assert settlement.charge == eth(1)
    assert settlement.refund == 0


# ---- availability threshold ----------------------------------------------------------

def test_availability_just_below_threshold_forces_full_refund():
    ledger = make_ledger()
    c = activate(ledger, deploy(ledger))
    c.samples, c.samples_up = 10_000, 7_499
    ledger.advance_to(1800)
    settlement = sc.stop_and_settle(ledger, c, "user")
    assert settlement.charge == 0
    assert settlement.refund == eth(1)


def test_availability_at_threshold_settles_normally():
    # strict inequality: 7500 is NOT below 7500
    ledger = make_ledger()
    c = activate(ledger, deploy(ledger))
    c.samples, c.samples_up = 4, 3
    assert c.availability_bp() == 7_500
    ledger.advance_to(1800)
    settlement = sc.stop_and_settle(ledger, c, "user")
    assert settlement.charge == eth(1) // 2


def test_availability_gates_fixed_price_too():
    ledger = make_ledger()
    c = activate(ledger, deploy(ledger, kind=ContractKind.FIXED_PRICE))
    c.samples, c.samples_up = 5, 2
    ledger.advance_to(3600)
    settlement = sc.expire_and_settle(ledger, c)
    assert settlement.charge == 0
    assert settlement.refund == eth(1)


# ---- abort ------------------------------------------------------------------------------

def test_abort_refunds_in_full_from_user_signed():
    ledger = make_ledger()
    c = deploy(ledger)
    sc.mark_quoted(c)
    sc.lock_funds(ledger, c, "user", eth(1))
    settlement = sc.abort_and_refund(ledger, c)
    assert settlement.charge == 0
    assert settlement.refund == eth(1)
    assert c.state is ContractState.SETTLED
    assert ledger.balance_of("user") == eth(10)


def test_abort_from_active_is_refused_and_moves_no_wei():
    ledger = make_ledger()
    c = activate(ledger, deploy(ledger))
    with pytest.raises(WrongState):
        sc.abort_and_refund(ledger, c)
    assert c.state is ContractState.ACTIVE
    assert c.escrow == eth(1)
    assert c.settlement is None
    assert ledger.balance_of("user") == eth(9)
    assert ledger.conservation_check()


# ---- flexible period ---------------------------------------------------------------------

def flexible_contract(ledger, rate=10**12, window=3600, usage_price=eth(1)):
    terms = FlexibleTerms(standby_rate=rate, standby_window_seconds=window)
    return deploy(
        ledger,
        kind=ContractKind.FLEXIBLE_PERIOD,
        price=terms.min_charge + usage_price,
        lock=window,
        flexible=terms,
    )


def test_flexible_minimum_charge_is_kept_even_with_zero_usage():
    ledger = make_ledger()
    c = activate(ledger, flexible_contract(ledger))
    settlement = sc.stop_and_settle(ledger, c, "user")
    assert settlement.charge == c.flexible.min_charge
    assert settlement.refund == eth(1)


def test_flexible_usage_prorated_on_top_of_minimum():
    ledger = make_ledger()
    c = activate(ledger, flexible_contract(ledger))
    ledger.advance_to(1800)
    settlement = sc.stop_and_settle(ledger, c, "user")
    assert settlement.charge == c.flexible.min_charge + eth(1) // 2


def test_flexible_availability_breach_refunds_the_minimum_too():
    ledger = make_ledger()
    c = activate(ledger, flexible_contract(ledger))
    c.samples, c.samples_up = 100, 1
    ledger.advance_to(1800)
    settlement = sc.stop_and_settle(ledger, c, "user")
    assert settlement.charge == 0
    assert settlement.refund == c.price


def test_flexible_terms_derive_and_check_min_charge():
    terms = FlexibleTerms(standby_rate=7, standby_window_seconds=100)
    assert terms.min_charge == 700


# ---- prepaid quota --------------------------------------------------------------------------

def quota_contract(ledger, per_minute=10**15):
    c = deploy(ledger, kind=ContractKind.TIME_LIMITED_QUOTA, price=0, lock=0,
               quota=QuotaTerms(per_minute_price=per_minute))
    sc.mark_quoted(c)
    return c


def test_quota_purchase_requires_exact_value():
    ledger = make_ledger()
    c = quota_contract(ledger)
    detail = f"^quota payment of {5 * 10**15 - 1} wei rejected: 5 minutes cost {5 * 10**15} wei$"
    with pytest.raises(ValidationError, match=detail):
        sc.quota_purchase(ledger, c, "user", 5, 5 * 10**15 - 1)
    assert c.state is ContractState.QUOTED
    sc.quota_purchase(ledger, c, "user", 5, 5 * 10**15)
    assert c.state is ContractState.ACTIVE
    assert c.escrow == 5 * 10**15


def test_quota_bills_started_minutes():
    ledger = make_ledger()
    c = quota_contract(ledger)
    sc.quota_purchase(ledger, c, "user", 5, 5 * 10**15)
    ledger.advance_to(100)
    sc.quota_start(ledger, c, "user")
    ledger.advance_to(161)
    assert sc.quota_stop(ledger, c, "user") == 2  # 61 s -> 2 minutes
    ledger.advance_to(300)
    sc.quota_start(ledger, c, "user")
    ledger.advance_to(360)
    assert sc.quota_stop(ledger, c, "user") == 1  # exactly 60 s
    ledger.advance_to(400)
    sc.quota_start(ledger, c, "user")
    assert sc.quota_stop(ledger, c, "user") == 0  # zero-length call
    assert c.quota.minutes_remaining() == 2
    assert ledger.balance_of("own") == eth(10) + 3 * 10**15


def test_quota_clamps_to_remaining_minutes_and_settles_when_exhausted():
    ledger = make_ledger()
    c = quota_contract(ledger)
    sc.quota_purchase(ledger, c, "user", 3, 3 * 10**15)
    sc.quota_start(ledger, c, "user")
    ledger.advance_to(600)
    assert sc.quota_stop(ledger, c, "user") == 3  # 10 min capped at 3
    assert c.state is ContractState.SETTLED
    assert c.escrow == 0
    assert c.settlement.charge == 3 * 10**15
    ledger.advance_to(615)
    with pytest.raises(WrongState):
        sc.quota_start(ledger, c, "user")
    assert ledger.conservation_check()


def test_quota_session_discipline():
    ledger = make_ledger()
    c = quota_contract(ledger)
    sc.quota_purchase(ledger, c, "user", 5, 5 * 10**15)
    ledger.advance_to(10)
    with pytest.raises(NoOpenSession):
        sc.quota_stop(ledger, c, "user")
    token = sc.quota_start(ledger, c, "user")
    ledger.advance_to(20)
    with pytest.raises(SessionAlreadyOpen):
        sc.quota_start(ledger, c, "user")
    ledger.advance_to(70)
    sc.quota_stop(ledger, c, "user")
    ledger.advance_to(100)
    second = sc.quota_start(ledger, c, "user")
    assert token != second


def test_quota_start_and_stop_require_the_end_user():
    # calls cost gas
    ledger = Ledger({"user": eth(10), "own": eth(10), "eve": eth(10)}, block_interval=1)
    c = quota_contract(ledger)

    def wei():
        return dict(ledger.accounts), c.escrow, ledger.fee_sink

    held = wei()
    ledger.advance_to(10)
    with pytest.raises(NotEndUser):
        sc.quota_start(ledger, c, "eve")  # checked before the state
    assert wei() == held
    sc.quota_purchase(ledger, c, "user", 5, 5 * 10**15)
    held = wei()
    with pytest.raises(NotEndUser):
        sc.quota_stop(ledger, c, "eve")  # checked before NoOpenSession
    with pytest.raises(NotEndUser, match="eve is not the end user user"):
        sc.quota_start(ledger, c, "eve")
    assert wei() == held
    sc.quota_start(ledger, c, "user")
    held = wei()
    ledger.advance_to(100)
    with pytest.raises(NotEndUser):
        sc.quota_stop(ledger, c, "eve")
    assert wei() == held
    assert c.quota.open_session_start == 10
    assert c.quota.minutes_consumed == 0


def test_stop_is_refused_on_a_quota_contract_before_any_fee():
    ledger = Ledger({"user": eth(10), "own": eth(10)}, block_interval=1)  # calls cost gas
    c = quota_contract(ledger)
    sc.quota_purchase(ledger, c, "user", 2, 2 * 10**15)
    held = dict(ledger.accounts), c.escrow, ledger.fee_sink
    ledger.advance_to(900)  # past the 2 minutes bought
    with pytest.raises(WrongState, match="time_limited_quota contracts are not settled by a stop"):
        sc.stop_and_settle(ledger, c, "user")
    assert (dict(ledger.accounts), c.escrow, ledger.fee_sink) == held
    assert c.state is ContractState.ACTIVE


def test_quota_records_one_pair_per_session():
    ledger = make_ledger()
    c = quota_contract(ledger)
    sc.quota_purchase(ledger, c, "user", 8, 8 * 10**15)
    for i in range(4):
        ledger.advance_to(1000 * i)
        sc.quota_start(ledger, c, "user")
        ledger.advance_to(1000 * i + 90)
        sc.quota_stop(ledger, c, "user")
    assert len(c.quota.sessions) == 4
    assert all(s["stop"] is not None for s in c.quota.sessions)


# ---- money invariants ---------------------------------------------------------

def test_invariant_violation_when_settlement_leaves_escrow(monkeypatch):
    ledger = make_ledger()
    c = activate(ledger, deploy(ledger))
    monkeypatch.setattr(sc, "_payouts_for_charge", lambda *_: {})  # the charge goes nowhere
    ledger.advance_to(1800)
    with pytest.raises(InvariantViolation, match="after settling"):
        sc.stop_and_settle(ledger, c, "user")


def test_invariant_violation_when_exhausted_quota_leaves_escrow():
    ledger = make_ledger()
    c = quota_contract(ledger)
    sc.quota_purchase(ledger, c, "user", 3, 3 * 10**15)
    c.escrow += 1  # stray wei the minutes can never bill
    sc.quota_start(ledger, c, "user")
    ledger.advance_to(600)
    with pytest.raises(InvariantViolation, match="after settling"):
        sc.quota_stop(ledger, c, "user")


def test_invariant_violation_is_not_a_simulation_error():
    # the scenario runner files SimulationErrors as event errors and carries on
    assert not issubclass(InvariantViolation, SimulationError)


def test_invariant_checks_survive_python_O():
    # python -O strips assert statements; the two checks above must still raise
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         __file__, "-k", "invariant_violation_when"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout
    assert "2 passed" in proc.stdout


# ---- income division --------------------------------------------------------------------------

def division_contract(ledger, numerators, denominator):
    c = deploy(ledger, kind=ContractKind.INCOME_DIVISION, price=0, lock=0)
    sc.set_income_shares(ledger, c, "own", IncomeShares(numerators, denominator))
    return c


def test_largest_remainder_frozen_thirds():
    ledger = make_ledger(a=0, b=0, cc=0)
    c = division_contract(ledger, {"a": 1, "b": 1, "cc": 1}, 3)
    assert sc.settle_with_division(c, 100) == {"a": 34, "b": 33, "cc": 33}


def test_division_payouts_sum_exactly_and_stay_within_one_wei():
    rng = random.Random(17)
    ledger = make_ledger()
    for _ in range(800):
        n = rng.randint(1, 6)
        names = [f"p{i}" for i in range(n)]
        cuts = [rng.randint(1, 50) for _ in names]
        c = AgreementContract(kind=ContractKind.INCOME_DIVISION, owner="own", end_user="")
        c.shares = IncomeShares(dict(zip(names, cuts)), sum(cuts))
        charge = rng.randint(0, 10**18)
        payouts = sc.settle_with_division(c, charge)
        assert sum(payouts.values()) == charge
        for name, cut in zip(names, cuts):
            exact = Fraction(charge * cut, sum(cuts))
            assert abs(Fraction(payouts[name]) - exact) < 1


def test_division_remainder_ties_break_by_listing_order():
    ledger = make_ledger()
    c = AgreementContract(kind=ContractKind.INCOME_DIVISION, owner="own", end_user="")
    c.shares = IncomeShares({"x": 1, "y": 1, "z": 2}, 4)
    # 5 wei: floors 1,1,2 with remainders 1/4, 1/4, 2/4 -> leftover 1 goes to z
    assert sc.settle_with_division(c, 5) == {"x": 1, "y": 1, "z": 3}
    c.shares = IncomeShares({"x": 1, "y": 1}, 2)
    # equal remainders: first listed wins the odd wei
    assert sc.settle_with_division(c, 3) == {"x": 2, "y": 1}


def test_share_validation():
    # shares check themselves when built; no shares or no denominator fails the first check
    for numerators, denominator in [({}, 1), ({"a": 0}, 0)]:
        with pytest.raises(InvalidShares) as exc:
            IncomeShares(numerators, denominator)
        assert str(exc.value) == "shares must be non-empty with a positive denominator"
    with pytest.raises(InvalidShares):
        IncomeShares({"a": 1, "b": 1}, 3)
    with pytest.raises(InvalidShares):
        IncomeShares({"a": 0, "b": 3}, 3)
    IncomeShares({"a": 1, "b": 2}, 3)


def test_settlement_routed_through_division_contract():
    ledger = make_ledger(helper=0)
    division = division_contract(ledger, {"own": 3, "helper": 1}, 4)
    agreement = deploy(ledger, division=division)
    activate(ledger, agreement)
    ledger.advance_to(1800)
    settlement = sc.stop_and_settle(ledger, agreement, "user")
    assert settlement.charge == eth(1) // 2
    assert settlement.payouts == {"own": eth(1) * 3 // 8, "helper": eth(1) // 8}
    assert ledger.balance_of("helper") == eth(1) // 8
    assert ledger.conservation_check()


# ---- consensus voting ---------------------------------------------------------------------------

def ballot_contract(ledger, voters):
    c = deploy(ledger, kind=ContractKind.CONSENSUS_DECISION, price=0, lock=0)
    sc.init_vote(ledger, c, "own", voters)
    return c


def test_strict_majority_enacts():
    ledger = make_ledger(v1=eth(1), v2=eth(1), v3=eth(1))
    c = ballot_contract(ledger, {"v1", "v2", "v3"})
    sc.cast_vote(ledger, c, "v1", "yes")
    assert sc.tally_and_enact(c) == {"enacted": False, "yes": 1, "voters": 3}
    sc.cast_vote(ledger, c, "v2", "yes")
    assert sc.tally_and_enact(c)["enacted"] is True  # 2 of 3 is a strict majority


def test_half_is_not_a_majority():
    ledger = make_ledger(v1=eth(1), v2=eth(1))
    c = ballot_contract(ledger, {"v1", "v2"})
    sc.cast_vote(ledger, c, "v1", "yes")
    sc.cast_vote(ledger, c, "v2", "no")
    assert sc.tally_and_enact(c)["enacted"] is False


def test_enactment_is_sticky_and_tally_idempotent():
    ledger = make_ledger(v1=eth(1))
    c = ballot_contract(ledger, {"v1"})
    sc.cast_vote(ledger, c, "v1", "yes")
    first = sc.tally_and_enact(c)
    assert first["enacted"] is True
    assert sc.tally_and_enact(c) == first


def test_vote_guards():
    ledger = make_ledger(v1=eth(1), v2=eth(1), v3=eth(1))
    c = ballot_contract(ledger, {"v1", "v3"})
    with pytest.raises(NotAVoter):
        sc.cast_vote(ledger, c, "v2", "yes")
    sc.cast_vote(ledger, c, "v1", "no")
    with pytest.raises(AlreadyVoted):
        sc.cast_vote(ledger, c, "v1", "yes")


def test_init_vote_guards():
    ledger = make_ledger()
    c = deploy(ledger, kind=ContractKind.CONSENSUS_DECISION, price=0, lock=0)
    with pytest.raises(NotOwner):
        sc.init_vote(ledger, c, "user", {"user"})


# ---- constraints ----------------------------------------------------------------------------------

def test_constraint_evaluation_matrix():
    terms = ConstraintTerms(gdpr_required=True, allowed_regions=frozenset({"EU"}))
    assert sc.evaluate_constraints(terms, "EU", True)
    assert not sc.evaluate_constraints(terms, "EU", False)
    assert not sc.evaluate_constraints(terms, "US", True)
    open_terms = ConstraintTerms()
    assert sc.evaluate_constraints(open_terms, "anywhere", False)


# ---- export -----------------------------------------------------------------------------------------

def test_export_contract_snapshot_shape():
    ledger = make_ledger()
    c = activate(ledger, deploy(ledger))
    ledger.advance_to(1800)
    sc.stop_and_settle(ledger, c, "user")
    snap = json.loads(export_contract(c))
    assert snap["address"] == c.address
    assert snap["kind"] == "dynamic_price"
    assert snap["state"] == "settled"
    assert snap["escrow_wei"] == "0"
    assert snap["settlement"]["charge_wei"] == str(eth(1) // 2)
    assert snap["terms"]["price_wei"] == str(eth(1))
